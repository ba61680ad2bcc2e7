"""The brute-force alignment-score oracle of the tests.

It scores a keyword by enumerating label sequences over every sub-interval
and keeping those that CTC-collapse to the keyword; it shares no code with
the token-passing search it is used to check.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

ORACLE_MAX_FRAMES = 12
ORACLE_MAX_VOCAB = 5


class OracleBoundExceeded(Exception):
    """Brute-force enumeration was asked to exceed its hard size bound."""


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
