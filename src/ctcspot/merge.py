"""Merging spotted keyword candidates into the decoded word alignment.

A candidate replaces the words it covers when its frame interval overlaps
more than a configurable fraction of each word's own interval (strictly
more than 50% by default) and its accumulated score beats the replaced
words' summed path scores by the configured margin. A candidate touching
no word at all may be inserted into the silence gap instead; a candidate
that only grazes words below the threshold is discarded.

:class:`CommitState` applies the same rule incrementally: words and
finalized candidates are buffered until no live hypothesis, held
candidate, or still-open decoder word can change their region, then the
region is merged and emitted. Emitted output is therefore append-only and
equal to merging the whole utterance at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .formats import WordAlignment
from .errors import FrontierRegression, InvariantViolation, UnsortedInput
from .spotter import SpottedCandidate
from .streaming import SpotChunkResult


@dataclass(frozen=True)
class MergePolicy:
    """Replacement rule tunables.

    intersection_threshold is the fraction of a word's interval a candidate
    must cover (strict inequality); score_margin is the log-score slack the
    candidate must beat the covered words by; allow_insertion enables
    placing candidates into silence gaps.
    """

    intersection_threshold: float = 0.5
    score_margin: float = 0.0
    allow_insertion: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.intersection_threshold <= 1.0:
            raise ValueError("intersection_threshold must be in (0, 1]")


@dataclass
class ChunkOutput:
    """Newly committed words for one step, plus display-only preview."""

    committed_delta: list[WordAlignment]
    commit_frontier: int
    held_text_preview: str | None


def _overlap(c: SpottedCandidate, w: WordAlignment) -> int:
    return max(0, min(c.end_frame, w.end_frame) - max(c.start_frame, w.start_frame) + 1)


def _check_words_sorted(words: Sequence[WordAlignment]) -> None:
    prev_end = None
    for w in words:
        if w.start_frame > w.end_frame:
            raise UnsortedInput(f"word {w.word!r} has an inverted interval")
        if prev_end is not None and w.start_frame <= prev_end:
            raise UnsortedInput(f"word {w.word!r} overlaps or precedes its predecessor")
        prev_end = w.end_frame


def _check_candidates_sorted(candidates: Sequence[SpottedCandidate]) -> None:
    prev_end = None
    for c in candidates:
        if prev_end is not None and c.start_frame <= prev_end:
            raise UnsortedInput(f"candidate for keyword {c.keyword_id} overlaps its predecessor")
        prev_end = c.end_frame


def merge_region(
    words: Sequence[WordAlignment],
    candidates: Sequence[SpottedCandidate],
    policy: MergePolicy,
    surfaces: Mapping[int, str],
    stats: dict | None = None,
) -> list[WordAlignment]:
    """Merge de-overlapped candidates into a sorted word sequence.

    Replacement sets are computed against the original words; candidates
    are non-overlapping, and no two candidates can cover more than half of
    the same word, so the decisions are independent.
    """
    _check_words_sorted(words)
    _check_candidates_sorted(candidates)
    replaced: set[int] = set()
    added: list[WordAlignment] = []
    n_replaced = n_inserted = n_discarded = 0
    for cand in candidates:
        covered = [
            i
            for i, w in enumerate(words)
            if _overlap(cand, w)
            > policy.intersection_threshold * (w.end_frame - w.start_frame + 1)
        ]
        as_word = WordAlignment(
            surfaces[cand.keyword_id], cand.start_frame, cand.end_frame, cand.score
        )
        if covered:
            if cand.score >= sum(words[i].path_score for i in covered) + policy.score_margin:
                replaced.update(covered)
                added.append(as_word)
                n_replaced += 1
            else:
                n_discarded += 1
        elif policy.allow_insertion and not any(_overlap(cand, w) for w in words):
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
    """Buffered words and candidates awaiting a safe commit boundary."""

    policy: MergePolicy
    surfaces: Mapping[int, str]
    emitted: list[WordAlignment] = field(default_factory=list)
    _words: list[WordAlignment] = field(default_factory=list)
    _cands: list[SpottedCandidate] = field(default_factory=list)
    _open_start: int | None = None
    _open_preview: str = ""
    _boundary: int = 0
    _spot_frontier: int = 0

    def add_words(self, words: Iterable[WordAlignment]) -> None:
        self._words.extend(words)

    def set_open_word(self, start: int | None, preview: str = "") -> None:
        self._open_start = start
        self._open_preview = preview if start is not None else ""

    @property
    def transcript(self) -> str:
        return " ".join(w.word for w in self.emitted)


def commit_step(state: CommitState, spot_result: SpotChunkResult) -> ChunkOutput:
    """Merge and emit every buffered word and candidate that is settled.

    The commit boundary starts at the spot frontier, is pulled back to the
    earliest held candidate and the open decoder word, and then retreats
    below any buffered word or candidate it would split, so no interaction
    between a committed item and a held one is possible.
    """
    if spot_result.new_frontier < state._spot_frontier:
        raise FrontierRegression(
            f"spot frontier moved from {state._spot_frontier} back to {spot_result.new_frontier}"
        )
    state._spot_frontier = spot_result.new_frontier
    state._cands.extend(spot_result.finalized)

    cut = spot_result.new_frontier
    for held in spot_result.held_preview.candidates:
        cut = min(cut, held.start_frame)
    if state._open_start is not None:
        cut = min(cut, state._open_start)
    spans = [(w.start_frame, w.end_frame) for w in state._words]
    spans += [(c.start_frame, c.end_frame) for c in state._cands]
    moved = True
    while moved:
        moved = False
        for start, end in spans:
            if start < cut <= end:
                cut = start
                moved = True
    if cut < state._boundary:
        raise InvariantViolation(f"commit boundary moved from {state._boundary} back to {cut}")

    ready_words = [w for w in state._words if w.end_frame < cut]
    ready_cands = [c for c in state._cands if c.end_frame < cut]
    if ready_words or ready_cands:
        state._words = [w for w in state._words if w.end_frame >= cut]
        state._cands = [c for c in state._cands if c.end_frame >= cut]
        delta = merge_region(ready_words, ready_cands, state.policy, state.surfaces)
        state.emitted.extend(delta)
    else:
        delta = []
    state._boundary = cut

    held_parts = [w.word for w in state._words]
    if state._open_preview:
        held_parts.append(state._open_preview)
    preview = " ".join(held_parts) if held_parts else None
    return ChunkOutput(committed_delta=delta, commit_frontier=cut, held_text_preview=preview)
