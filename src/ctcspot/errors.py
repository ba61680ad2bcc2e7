"""Exception types shared across the package."""


class CtcspotError(Exception):
    """Base class for every error raised by this package."""


class EmptyTokenSequence(CtcspotError):
    """A biasing entry has no tokens."""


class DuplicateConflict(CtcspotError):
    """Two biasing entries collide (same tokens with different surfaces,
    or a reused keyword id)."""


class TokenOutOfRange(CtcspotError):
    """A biasing entry contains a token id outside the vocabulary, or the
    blank id inside a phrase."""


class TokenizationError(CtcspotError):
    """Greedy longest-match tokenization could not consume the input."""


class DimensionMismatch(CtcspotError):
    """Log-probability matrix width disagrees with the graph, vocabulary
    or blank id."""


class SessionClosed(CtcspotError):
    """A flushed session received another call."""


class UnsortedInput(CtcspotError):
    """Words or candidates handed to the merger are unsorted or overlap."""


class FrontierRegression(CtcspotError):
    """The spot frontier moved backwards between commit steps (caller bug)
    or between chunks of a session."""


class InvariantViolation(CtcspotError):
    """A session or commit invariant failed: finalized candidates overlap,
    a candidate is still held after flush, or the commit boundary moved
    backwards. Raised instead of ``assert`` so that ``python -O`` keeps it."""


class FormatError(CtcspotError):
    """Base class for file and stream format violations."""


class BadMagic(FormatError):
    """Logits file does not start with the expected magic bytes."""


class TruncatedPayload(FormatError):
    """Logits file payload is shorter than the header claims."""


class UnnormalizedRows(FormatError):
    """Log-probability rows do not sum to one after exponentiation."""


class NonFiniteRows(FormatError):
    """Log-probability rows contain NaN or +inf (-inf is a legal log 0)."""


class OverlappingWords(FormatError):
    """An external alignment file contains overlapping word intervals."""


class NegativeInterval(FormatError):
    """An external alignment record has end < start or a negative frame."""


class ChunkTooSmall(FormatError):
    """Requested chunk duration is shorter than one frame."""


class ProtocolError(CtcspotError):
    """Chunk stream envelope violated the record protocol."""


class OracleBoundExceeded(CtcspotError):
    """Brute-force enumeration was asked to exceed its hard size bound."""
