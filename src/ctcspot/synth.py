"""Synthetic CTC log-probabilities with known ground truth, and the
brute-force alignment-score oracle.

The generator scripts one symbol per segment at a fixed peak probability
and spreads the remaining mass over the other symbols with a
temperature-scaled random softmax, so rows are exactly normalized and the
output is deterministic for a fixed seed. A segment may carry a second
"shadow" emission: giving the blank a shadow above the scripted token's
peak produces keywords that greedy decoding misses but the spotter can
still recover.

The oracle scores a keyword by enumerating label sequences over every
sub-interval and keeping those that CTC-collapse to the keyword; it shares
no code with the token-passing search it is used to check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import OracleBoundExceeded
from .formats import resolve_blank

ORACLE_MAX_FRAMES = 12
ORACLE_MAX_VOCAB = 5


@dataclass(frozen=True)
class ScriptSegment:
    """One scripted stretch: ``token`` holds ``peak`` probability for
    ``duration`` frames; ``shadow_token`` (optional) holds ``shadow_prob``."""

    token: int
    duration: int
    peak: float
    shadow_token: int | None = None
    shadow_prob: float = 0.0


@dataclass(frozen=True)
class SynthSpec:
    seed: int
    vocab_size: int
    blank_id: int
    script: tuple[ScriptSegment, ...]
    temperature: float = 1.0


def make_spec(
    seed: int,
    vocab_size: int,
    blank_id: int | None,
    script: Sequence[ScriptSegment | tuple],
    temperature: float = 1.0,
) -> SynthSpec:
    """Validate and normalize a spec; plain (token, duration, peak) tuples
    are accepted as segments. The blank follows
    :func:`ctcspot.formats.resolve_blank` and raises its
    :class:`~ctcspot.errors.DimensionMismatch`."""
    blank = resolve_blank(blank_id, vocab_size)
    segments = tuple(
        seg if isinstance(seg, ScriptSegment) else ScriptSegment(*seg) for seg in script
    )
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    for seg in segments:
        if seg.duration < 1:
            raise ValueError(f"segment duration {seg.duration} below 1")
        if not 0.0 < seg.peak < 1.0:
            raise ValueError(f"peak probability {seg.peak} outside (0, 1)")
        if not 0 <= seg.token < vocab_size:
            raise ValueError(f"scripted token {seg.token} outside vocabulary")
        if seg.shadow_token is not None:
            if not 0 <= seg.shadow_token < vocab_size or seg.shadow_token == seg.token:
                raise ValueError(f"bad shadow token {seg.shadow_token}")
            if seg.shadow_prob <= 0 or seg.peak + seg.shadow_prob >= 1.0:
                raise ValueError("peak + shadow probability must stay below 1")
            if vocab_size < 3:
                raise ValueError("a shadowed segment needs at least one free symbol")
        elif seg.shadow_prob:
            raise ValueError("shadow_prob given without shadow_token")
    return SynthSpec(seed, vocab_size, blank, segments, temperature)


def generate(spec: SynthSpec) -> tuple[np.ndarray, list[tuple[int, int, int]]]:
    """Returns (log-probability matrix, segment alignment).

    The alignment lists every segment as (token, start_frame, end_frame),
    blanks included.
    """
    rng = np.random.default_rng(spec.seed)
    vocab = spec.vocab_size
    frames = sum(seg.duration for seg in spec.script)
    probs = np.zeros((frames, vocab))
    alignment: list[tuple[int, int, int]] = []
    t = 0
    for seg in spec.script:
        alignment.append((seg.token, t, t + seg.duration - 1))
        for _ in range(seg.duration):
            pinned = {seg.token: seg.peak}
            if seg.shadow_token is not None:
                pinned[seg.shadow_token] = seg.shadow_prob
            noise = rng.random(vocab)
            free = np.array([i for i in range(vocab) if i not in pinned])
            z = noise[free] / spec.temperature
            z -= z.max()
            weights = np.exp(z)
            remainder = 1.0 - sum(pinned.values())
            probs[t, free] = remainder * weights / weights.sum()
            for tok, p in pinned.items():
                probs[t, tok] = p
            t += 1
    with np.errstate(divide="ignore"):
        return np.log(probs), alignment


def word_script(
    token_seqs: Sequence[Sequence[int]],
    blank_id: int,
    frames_per_token: int = 2,
    gap_frames: int = 2,
    peak: float = 0.9,
    gap_peak: float = 0.9,
) -> list[ScriptSegment]:
    """Script a sequence of words separated by blank gaps."""
    script: list[ScriptSegment] = [ScriptSegment(blank_id, gap_frames, gap_peak)]
    for tokens in token_seqs:
        for tok in tokens:
            script.append(ScriptSegment(tok, frames_per_token, peak))
        script.append(ScriptSegment(blank_id, gap_frames, gap_peak))
    return script


# brute-force oracle ---------------------------------------------------------


def ctc_collapse(labels: Sequence[int], blank_id: int) -> list[int]:
    """Remove adjacent repeats, then blanks."""
    out: list[int] = []
    prev = None
    for sym in labels:
        if sym != prev and sym != blank_id:
            out.append(sym)
        prev = sym
    return out


def _valid_tails(length: int, vocab: int, keyword: tuple[int, ...], blank_id: int):
    """All label-sequence tails such that [keyword[0]] + tail collapses to
    the keyword. Cached per shape; enumeration covers vocab**length tails."""
    key = (length, vocab, keyword, blank_id)
    cached = _valid_tails.cache.get(key)
    if cached is not None:
        return cached
    head = keyword[0]
    tails = [
        tail
        for tail in itertools.product(range(vocab), repeat=length)
        if ctc_collapse((head,) + tail, blank_id) == list(keyword)
    ]
    arr = np.array(tails, dtype=int).reshape(len(tails), length) if tails else None
    _valid_tails.cache[key] = arr
    return arr


_valid_tails.cache = {}


def brute_force_scores_by_end(
    logprobs: np.ndarray,
    keyword: Sequence[int],
    cb_weight: float,
    blank_id: int,
) -> dict[int, tuple[float, int]]:
    """Best (score, start_frame) per end frame, over all label sequences and
    sub-intervals whose collapse equals the keyword.

    The score of an alignment is its framewise log-probability sum plus
    cb_weight per keyword token. Alignments opening on a blank are skipped:
    the same labels over the shorter window score at least as well.
    """
    lp = np.asarray(logprobs, dtype=float)
    n_frames, vocab = lp.shape
    if n_frames > ORACLE_MAX_FRAMES or vocab > ORACLE_MAX_VOCAB:
        raise OracleBoundExceeded(
            f"enumeration bound is {ORACLE_MAX_FRAMES} frames x {ORACLE_MAX_VOCAB} symbols, "
            f"got {n_frames} x {vocab}"
        )
    kw = tuple(keyword)
    bonus = cb_weight * len(kw)
    best: dict[int, tuple[float, int]] = {}
    for length in range(len(kw), n_frames + 1):
        seqs = _valid_tails(length - 1, vocab, kw, blank_id)
        if seqs is None:
            continue
        full = np.concatenate([np.full((seqs.shape[0], 1), kw[0]), seqs], axis=1)
        offsets = np.arange(length)
        for start in range(n_frames - length + 1):
            scores = lp[start + offsets, full].sum(axis=1) + bonus
            top = float(scores.max())
            end = start + length - 1
            prev = best.get(end)
            if prev is None or top > prev[0] or (top == prev[0] and start < prev[1]):
                best[end] = (top, start)
    return best


def brute_force_keyword_score(
    logprobs: np.ndarray,
    keyword: Sequence[int],
    cb_weight: float,
    blank_id: int,
) -> tuple[float, int, int] | None:
    """Overall best (score, start_frame, end_frame), or None when the
    keyword admits no alignment."""
    by_end = brute_force_scores_by_end(logprobs, keyword, cb_weight, blank_id)
    if not by_end:
        return None
    best = None
    for end, (score, start) in by_end.items():
        if best is None or score > best[0] or (score == best[0] and (end, start) < (best[2], best[1])):
            best = (score, start, end)
    return best
