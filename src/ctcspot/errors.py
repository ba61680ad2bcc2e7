"""Exception types shared across the package."""


class CtcspotError(Exception):
    """Base class for every error raised by this package."""


class EmptyTokenSequence(CtcspotError):
    """A biasing entry has no tokens."""


class EmptySurface(CtcspotError):
    """A biasing entry or bias-list line has an empty surface, or an
    external word has empty text."""


class DuplicateConflict(CtcspotError):
    """Two biasing entries collide (same tokens with different surfaces,
    or a reused keyword id)."""


class TokenOutOfRange(CtcspotError):
    """A biasing entry contains a token id outside the vocabulary, or the
    blank id inside a phrase."""


class TokenizationError(CtcspotError):
    """Greedy longest-match tokenization could not consume the input."""


class DimensionMismatch(CtcspotError):
    """Log-probability matrix is not 2-d, or its width disagrees with the
    stream, graph, vocabulary (fewer than 2 symbols) or blank id."""


class SessionClosed(CtcspotError):
    """A flushed session received another call."""


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


class PositiveLogProbs(FormatError):
    """Log-probability rows hold a cell above 0, which no probability has."""


class NonFiniteScore(FormatError):
    """An external word's path score is NaN or +inf (-inf is a legal log 0)."""


class UnsortedInput(FormatError):
    """Words or candidates break the rule of ``formats.check_intervals``."""


class NegativeInterval(UnsortedInput):
    """A word or candidate interval has a negative start or end < start."""


class OverlappingWords(UnsortedInput):
    """A word or candidate does not start after the previous one ends, or
    reaches the commit layer behind its commit boundary."""


class BadTokenList(FormatError):
    """A bias-list token id column is not a comma-separated list of
    integers, or is missing where no vocabulary was given to tokenize the
    surface."""


class BadDuration(FormatError):
    """A frame or chunk duration is not positive and finite."""


class ChunkTooSmall(FormatError):
    """Requested chunk duration is shorter than one frame."""


class ProtocolError(CtcspotError):
    """Chunk stream envelope violated the record protocol."""
