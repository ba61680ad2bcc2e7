"""Synthetic CTC log-probabilities with known ground truth.

The generator scripts one symbol per segment at a fixed peak probability
and spreads the remaining mass over the other symbols with a
temperature-scaled random softmax, so rows are exactly normalized and the
output is deterministic for a fixed seed. A segment may carry a second
"shadow" emission: giving the blank a shadow above the scripted token's
peak produces keywords that greedy decoding misses but the spotter can
still recover.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .formats import resolve_blank

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
    script: Sequence[ScriptSegment],
    temperature: float = 1.0,
) -> SynthSpec:
    """Validate a spec. The blank follows
    :func:`ctcspot.formats.resolve_blank` and raises its
    :class:`~ctcspot.errors.DimensionMismatch`."""
    blank = resolve_blank(blank_id, vocab_size)
    segments = tuple(script)
    if not temperature > 0:  # NaN fails too
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
            if not seg.shadow_prob > 0 or seg.peak + seg.shadow_prob >= 1.0:
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
