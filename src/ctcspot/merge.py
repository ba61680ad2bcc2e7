"""Merging spotted keyword candidates into the decoded word alignment.

A candidate replaces the words it covers when its frame interval overlaps
more than a configurable fraction of each word's own interval (strictly
more than 50% by default) and its accumulated score beats the replaced
words' summed path scores by the configured margin. A candidate touching
no word at all may be inserted into the silence gap instead; a candidate
that only grazes words below the threshold, and covers none, is discarded.
A candidate that covers one word and grazes another replaces the covered
word only, so the grazed word stays and merged words can overlap.

:class:`CommitState` applies the same rule incrementally: words and
finalized candidates are buffered until no live hypothesis, held
candidate, or still-open decoder word can change their region, then the
region is merged and returned as that step's delta. The commit layer keeps
no delta once returned: it holds only the region still deferred, so its
size does not grow with the stream. The deltas are append-only, and their
concatenation equals merging the whole utterance at once. Each step's
words and candidates enter through one call, :func:`commit_step`, which
raises before it changes the state, so a refused step can be retried or
dropped.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .formats import WordAlignment, check_intervals, check_words
from .errors import FrontierRegression, InvariantViolation, OverlappingWords
from .spotter import SpotChunkResult, SpottedCandidate


@dataclass(frozen=True)
class MergePolicy:
    """Replacement rule tunables.

    intersection_threshold is the fraction of a word's interval a candidate
    must cover (strict inequality); score_margin, not NaN, is the log-score
    slack the candidate must beat the covered words by (-inf: always, +inf:
    never replace); allow_insertion enables placing candidates into gaps.
    """

    intersection_threshold: float = 0.5
    score_margin: float = 0.0
    allow_insertion: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.intersection_threshold <= 1.0:
            raise ValueError("intersection_threshold must be in (0, 1]")
        if math.isnan(self.score_margin):
            raise ValueError("score_margin must not be NaN")


@dataclass
class ChunkOutput:
    """Newly committed words for one step, plus display-only preview."""

    committed_delta: list[WordAlignment]
    commit_frontier: int
    held_text_preview: str | None


def _overlap(c: SpottedCandidate, w: WordAlignment) -> int:
    return max(0, min(c.end_frame, w.end_frame) - max(c.start_frame, w.start_frame) + 1)


def merge_region(
    words: Sequence[WordAlignment],
    candidates: Sequence[SpottedCandidate],
    policy: MergePolicy,
    surfaces: Mapping[int, str],
    stats: dict | None = None,
) -> list[WordAlignment]:
    """Merge de-overlapped candidates into a sorted word sequence.

    Words must pass ``check_words`` and candidates ``check_intervals``.
    Replacement sets are computed against the original words, each
    candidate on its own. Candidates do not overlap each other, and with
    ``intersection_threshold >= 0.5`` no two can cover more than half of
    the same word, so the decisions are independent. Below 0.5 two
    candidates can both cover one word; each is then checked against that
    word's full path score, and both may replace it.

    Words are sorted and disjoint, so their starts and ends are two sorted
    lists, and the words a candidate overlaps are the contiguous run found
    by one bisection in each. Only that run is tested, so the merge costs
    O((C + W) log W) for C candidates and W words.
    """
    check_words(words)
    check_intervals(candidates)
    starts = [w.start_frame for w in words]
    ends = [w.end_frame for w in words]
    replaced: set[int] = set()
    added: list[WordAlignment] = []
    n_replaced = n_inserted = n_discarded = 0
    for cand in candidates:
        lo = bisect_left(ends, cand.start_frame)  # words lo..hi-1 overlap cand
        hi = bisect_right(starts, cand.end_frame)
        covered, total = [], 0.0  # summed left to right: sum() compensates on 3.12
        for i in range(lo, hi):
            if _overlap(cand, words[i]) > policy.intersection_threshold * (ends[i] - starts[i] + 1):
                covered.append(i)
                total += words[i].path_score
        as_word = WordAlignment(
            surfaces[cand.keyword_id], cand.start_frame, cand.end_frame, cand.score
        )
        if covered:
            if cand.score >= total + policy.score_margin:
                replaced.update(covered)
                added.append(as_word)
                n_replaced += 1
            else:
                n_discarded += 1
        elif policy.allow_insertion and lo == hi:
            added.append(as_word)
            n_inserted += 1
        else:
            n_discarded += 1
    merged = [w for i, w in enumerate(words) if i not in replaced]
    merged.extend(added)
    merged.sort(key=lambda w: (w.start_frame, w.end_frame, w.word))
    if stats is not None:
        stats.update(replaced=n_replaced, inserted=n_inserted, discarded=n_discarded)
    return merged


@dataclass
class CommitState:
    """Buffered words and candidates awaiting a safe commit boundary.

    :func:`commit_step` is the only call that changes it: each step's words
    and finalized candidates arrive in time order, at or after the
    boundary, and the step either applies whole or raises with the state
    unchanged. Only the deferred region is kept; what a step commits is
    returned as its ``committed_delta`` and is the caller's to keep."""

    policy: MergePolicy
    surfaces: Mapping[int, str]
    _words: list[WordAlignment] = field(default_factory=list, init=False)
    _cands: list[SpottedCandidate] = field(default_factory=list, init=False)
    _boundary: int = field(default=0, init=False)
    _spot_frontier: int = field(default=0, init=False)

    def _appended(self, buffered: list, items: Iterable, check) -> list:
        """``buffered`` followed by ``items``, a new list, if each item starts
        at or after the commit boundary and ``check`` (:func:`check_words`
        or :func:`check_intervals`) passes them with the item buffered
        before them; else the error, with :class:`OverlappingWords` for an
        item behind the boundary: the deltas are append-only, so it could
        only come out after later words."""
        items = list(items)
        if items and items[0].start_frame < self._boundary:
            raise OverlappingWords(f"{items[0]} starts before commit boundary {self._boundary}")
        check(buffered[-1:] + items)
        return buffered + items


def commit_step(
    state: CommitState,
    spot_result: SpotChunkResult,
    open_word: WordAlignment | None = None,
    final: bool = False,
    words: Iterable[WordAlignment] = (),
) -> ChunkOutput:
    """Take one step's closed ``words`` and finalized candidates, then merge
    every buffered word and candidate that is settled and return them as
    the step's ``committed_delta``, which ``state`` does not keep.

    ``open_word`` is the decoder's word still in progress, if any
    (:attr:`ctcspot.aligner.StreamingAligner.open_word`); its text ends the
    held preview. The commit boundary starts at the spot frontier, is pulled
    back to the earliest held candidate and the open word, and then
    retreats below any buffered word or candidate it would split, so no
    interaction between a committed item and a held one is possible. One
    sweep, latest start first, suffices: a cut that retreats lands on a
    start, which no span already passed can straddle. At the ``final`` step
    nothing more can arrive, so the boundary starts past every buffered
    item, external words that end after the last frame included, as in the
    whole-utterance merge.

    Every check, and the merge, runs before ``state`` changes: a step that
    raises (:class:`FrontierRegression`, the word and interval errors of
    :func:`check_words`, :class:`InvariantViolation`) leaves it as it was.
    """
    frontier = spot_result.new_frontier
    if frontier < state._spot_frontier:
        raise FrontierRegression(
            f"spot frontier moved from {state._spot_frontier} back to {frontier}"
        )
    buf_words = state._appended(state._words, words, check_words)
    buf_cands = state._appended(state._cands, spot_result.finalized, check_intervals)

    cut = frontier
    if final and buf_words:
        cut = max(cut, buf_words[-1].end_frame + 1)
    for held in spot_result.held_preview.candidates:
        cut = min(cut, held.start_frame)
    if open_word is not None:
        cut = min(cut, open_word.start_frame)
    spans = [(w.start_frame, w.end_frame) for w in buf_words]
    spans += [(c.start_frame, c.end_frame) for c in buf_cands]
    for start, end in sorted(spans, reverse=True):
        if start < cut <= end:
            cut = start
    if cut < state._boundary:
        raise InvariantViolation(f"commit boundary moved from {state._boundary} back to {cut}")

    # both buffers are sorted and disjoint, so what ends before the cut is a prefix
    ready_words = [w for w in buf_words if w.end_frame < cut]
    ready_cands = [c for c in buf_cands if c.end_frame < cut]
    delta = []
    if ready_words or ready_cands:
        delta = merge_region(ready_words, ready_cands, state.policy, state.surfaces)
    state._words = buf_words[len(ready_words) :]
    state._cands = buf_cands[len(ready_cands) :]
    state._spot_frontier = frontier
    state._boundary = cut

    held_parts = [w.word for w in state._words]
    if open_word is not None and open_word.word:
        held_parts.append(open_word.word)
    preview = " ".join(held_parts) if held_parts else None
    return ChunkOutput(committed_delta=delta, commit_frontier=cut, held_text_preview=preview)
