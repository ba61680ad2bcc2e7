"""Stateful chunked keyword spotting with a commit frontier.

A session carries live hypotheses across chunk boundaries so keyword
matches straddling a boundary accumulate score exactly as the
whole-utterance spotter would. After each chunk the frontier is the
earliest start frame among live hypotheses: nothing detected in the future
can begin before it. Recorded candidates are finalized once neither a live
hypothesis nor another held candidate can overturn them, which keeps the
stream of finalized candidates equal to whole-utterance spotting plus
de-overlap for every possible chunking (given a large enough age cap).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, FrontierRegression, InvariantViolation, SessionClosed
from .graph import ContextGraph
from .spotter import SpotterConfig, SpottedCandidate, _check_dims, _greedy_order, _search


@dataclass(frozen=True)
class ActiveToken:
    """Snapshot of a live hypothesis."""

    node: int
    in_blank: bool
    score: float
    start_frame: int


@dataclass(frozen=True)
class HeldPreview:
    """Hold-region contents: candidates not yet safe to finalize and the
    number of live hypotheses."""

    candidates: tuple[SpottedCandidate, ...]
    active_tokens: int


@dataclass(frozen=True)
class SpotChunkResult:
    new_frontier: int
    finalized: list[SpottedCandidate]
    held_preview: HeldPreview


def _settle(
    pending: list[SpottedCandidate], frontier: int
) -> tuple[list[SpottedCandidate], list[SpottedCandidate]]:
    """Split pending candidates into (finalized, still held).

    Replays the whole-utterance de-overlap greedy sweep, but only commits
    decisions no future candidate can overturn. Future candidates all start
    at or after ``frontier``, so a would-be winner ending before the
    frontier is safe unless it overlaps a held (undecided) candidate.
    Losers to a committed winner are discarded outright, exactly as the
    offline sweep would discard them.
    """
    keeps: list[SpottedCandidate] = []
    held: list[SpottedCandidate] = []
    for cand in sorted(pending, key=_greedy_order):
        if any(cand.overlaps(k) for k in keeps):
            continue  # lost to a committed winner
        if cand.end_frame >= frontier or any(cand.overlaps(h) for h in held):
            held.append(cand)
        else:
            keeps.append(cand)
    keeps.sort(key=lambda c: (c.start_frame, c.end_frame, c.keyword_id))
    held.sort(key=lambda c: (c.start_frame, c.end_frame, c.keyword_id))
    return keeps, held


class SpotterSession:
    """Single-writer chunked spotting session over one immutable graph."""

    def __init__(self, graph: ContextGraph, cfg: SpotterConfig | None = None) -> None:
        self.graph = graph
        self.cfg = cfg or SpotterConfig()
        self._state: dict[int, tuple[float, int]] = {}
        self._pending: list[SpottedCandidate] = []
        self._frames = 0
        self._frontier = 0
        self._vocab_size: int | None = None
        self._blank: int | None = None
        self._last_final_end = -1
        self._closed = False

    @property
    def frames_seen(self) -> int:
        return self._frames

    @property
    def commit_frontier(self) -> int:
        return self._frontier

    @property
    def pending_candidates(self) -> tuple[SpottedCandidate, ...]:
        return tuple(self._pending)

    @property
    def active_count(self) -> int:
        return len(self._state)

    def active_tokens(self) -> list[ActiveToken]:
        return [
            ActiveToken(key >> 1, bool(key & 1), score, start)
            for key, (score, start) in self._state.items()
        ]

    def _require_open(self) -> None:
        if self._closed:
            raise SessionClosed("session was flushed")

    def _resolve_dims(self, vocab_size: int) -> None:
        if self._vocab_size is None:
            self._blank = _check_dims(self.graph, vocab_size, self.cfg)
            self._vocab_size = vocab_size
        elif vocab_size != self._vocab_size:
            raise DimensionMismatch(
                f"chunk width {vocab_size} differs from session width {self._vocab_size}"
            )

    def process_chunk(self, logprobs: np.ndarray) -> SpotChunkResult:
        """Run token passing over one chunk and finalize what is safe."""
        self._require_open()
        lp = np.asarray(logprobs, dtype=float)
        if lp.ndim != 2:
            raise DimensionMismatch(f"expected a 2-d chunk, got shape {lp.shape}")
        n_frames = lp.shape[0]
        if n_frames > 0:
            self._resolve_dims(lp.shape[1])
            frames = _search(self._state, lp, self._frames, self.graph.table, self.cfg, self._blank)
            for self._state, cands in frames:
                self._pending.extend(cands)
            self._frames += n_frames
        return self._finalize_step()

    def flush(self) -> SpotChunkResult:
        """Clear live hypotheses, finalize the hold region, close the session."""
        self._require_open()
        self._closed = True
        self._state = {}
        result = self._finalize_step()
        if result.held_preview.candidates:
            raise InvariantViolation("candidates still held after flush")
        return result

    def _finalize_step(self) -> SpotChunkResult:
        frontier = min((v[1] for v in self._state.values()), default=self._frames)
        if frontier < self._frontier:
            raise FrontierRegression(f"frontier moved from {self._frontier} back to {frontier}")
        self._frontier = frontier
        finalized, self._pending = _settle(self._pending, frontier)
        if finalized:
            if finalized[0].start_frame <= self._last_final_end:
                raise InvariantViolation(
                    f"finalized candidate starting at {finalized[0].start_frame} overlaps one "
                    f"ending at {self._last_final_end}"
                )
            self._last_final_end = finalized[-1].end_frame
        return SpotChunkResult(
            new_frontier=frontier,
            finalized=finalized,
            held_preview=HeldPreview(tuple(self._pending), len(self._state)),
        )


def new_session(graph: ContextGraph, cfg: SpotterConfig | None = None) -> SpotterSession:
    return SpotterSession(graph, cfg)
