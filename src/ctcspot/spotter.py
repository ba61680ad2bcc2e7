"""Keyword spotting over CTC log-probabilities by trie token passing.

A hypothesis occupies one trie node in either the blank or the non-blank
CTC sub-state and carries an accumulated log score plus the frame at which
it consumed its first token. Every frame, each hypothesis takes all legal
transitions, fresh hypotheses enter at the children of the root,
hypotheses landing on the same (node, sub-state) recombine keeping the
best score, and survivors of beam pruning and the age cap that sit on a
terminal node are reported as keyword candidates.

The search reads only the graph's frozen :class:`~ctcspot.graph.SearchTable`.
Fresh-entry scores are computed per chunk with numpy; per frame, only the
entries at or above the admission floor ``max(min_per_frame_score, best -
beam_threshold)`` are inserted, and a live hypothesis below the floor on a
root-child slot is pruned when a strictly better fresh entry would have
displaced it. Any other fresh entry would be pruned at age 1 anyway, so the
result equals admitting every root child.

The per-frame step below drives both :func:`spot_offline` and the chunked
session in :mod:`ctcspot.streaming`. Sharing it is what makes the two
paths score identically for any chunking of the input. Likewise
:func:`settle` is the one greedy de-overlap sweep: the session runs it at
its commit frontier, :func:`dedup_overlaps` at infinity. Both paths take
input through :func:`ctcspot.formats.check_logprobs` and :func:`check_graph`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DimensionMismatch, TokenOutOfRange
from .formats import check_logprobs, resolve_blank
from .graph import ContextGraph, SearchTable


@dataclass(frozen=True)
class SpotterConfig:
    """Search tunables.

    cb_weight is the log-score bonus added each time a hypothesis consumes
    a new non-blank keyword token (not for blanks or repeated frames).
    min_per_frame_score floors the running score-per-frame of every live
    hypothesis as well as candidate acceptance, so hypotheses starve during
    silence and the commit frontier can advance. blank_id of None resolves
    to the last symbol at run time (:func:`ctcspot.formats.resolve_blank`).
    """

    cb_weight: float = 3.0
    beam_threshold: float = 7.0
    min_per_frame_score: float = -5.0
    max_keyword_frames: int = 200
    blank_id: int | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.cb_weight):
            raise ValueError("cb_weight must be finite")
        if math.isnan(self.min_per_frame_score):
            raise ValueError("min_per_frame_score must not be NaN")
        if not self.beam_threshold >= 0:
            raise ValueError("beam_threshold must be non-negative, not NaN")
        if self.max_keyword_frames < 1:
            raise ValueError("max_keyword_frames must be at least 1")


@dataclass(frozen=True, slots=True)
class SpottedCandidate:
    """A completed keyword detection over an inclusive frame interval.

    Slotted: the offline path makes tens of thousands per utterance.
    """

    keyword_id: int
    start_frame: int
    end_frame: int
    score: float

    @property
    def num_frames(self) -> int:
        return self.end_frame - self.start_frame + 1

    @property
    def per_frame_score(self) -> float:
        return self.score / self.num_frames

    def overlaps(self, other: "SpottedCandidate") -> bool:
        return self.start_frame <= other.end_frame and other.start_frame <= self.end_frame


# search state: {node << 1 | in_blank: (score, start_frame)}
_State = dict[int, tuple[float, int]]


def _step_frame(
    state: _State,
    row: Sequence[float],
    fresh: np.ndarray,
    fresh_best: float,
    t: int,
    table: SearchTable,
    cfg: SpotterConfig,
    blank_id: int,
) -> tuple[_State, list[SpottedCandidate]]:
    """Advance every hypothesis one frame; returns (survivors, candidates).

    ``fresh`` holds this frame's score of a fresh entry at each root child
    (``row[root_tok] + cb_weight``) and ``fresh_best`` its maximum.
    Recombination keeps the higher score, ties keep the earlier start.
    Pruning measures each score against the best score of this frame.
    """
    cb = cfg.cb_weight
    tokens = table.tokens
    first_child = table.first_child
    next_sibling = table.next_sibling
    terminals = table.terminals
    lp_blank = row[blank_id]
    nxt: _State = {}

    for key, (score, start) in state.items():
        node = key >> 1
        ntok = tokens[node]
        # blank self-loop
        k = (node << 1) | 1
        s = score + lp_blank
        prev = nxt.get(k)
        if prev is None or s > prev[0] or (s == prev[0] and start < prev[1]):
            nxt[k] = (s, start)
        in_blank = key & 1
        if not in_blank:
            # repeated emission of the node's own token
            k = node << 1
            s = score + row[ntok]
            prev = nxt.get(k)
            if prev is None or s > prev[0] or (s == prev[0] and start < prev[1]):
                nxt[k] = (s, start)
        child = first_child[node]
        while child >= 0:
            ctok = tokens[child]
            if in_blank or ctok != ntok:
                k = child << 1
                s = score + row[ctok] + cb
                prev = nxt.get(k)
                if prev is None or s > prev[0] or (s == prev[0] and start < prev[1]):
                    nxt[k] = (s, start)
            child = next_sibling[child]

    # Fresh hypotheses enter at every root child, but a fresh entry is one
    # frame old, so it survives pruning only at or above the age-1 floor.
    # The frame's best score counts every fresh entry, so only two kinds can
    # change the outcome: entries at or above the floor, admitted here, and
    # entries below it on a slot propagation filled. Such an entry replaces
    # the live one only when strictly greater (ties keep the earlier start)
    # and is then pruned itself, so the live one is dropped in pruning below.
    best = max(max(nxt.values())[0], fresh_best) if nxt else fresh_best
    beam_floor = best - cfg.beam_threshold
    min_pfs = cfg.min_per_frame_score
    floor = max(min_pfs, beam_floor)
    if fresh_best >= floor:
        admitted = (fresh >= floor).nonzero()[0]
        root_keys = table.root_keys
        for i, s in zip(admitted.tolist(), fresh[admitted].tolist()):
            k = root_keys[i]
            prev = nxt.get(k)
            if prev is None or s > prev[0]:
                nxt[k] = (s, t)

    root_slot = table.root_slot
    max_age = cfg.max_keyword_frames
    survivors: _State = {}
    at_terminal: dict[int, tuple[float, int]] = {}
    for key, val in nxt.items():
        score, start = val
        age = t - start + 1
        if score < beam_floor or age > max_age or score < min_pfs * age:
            continue
        if score < floor:  # never a fresh entry, which is admitted at or above it
            i = root_slot.get(key)
            if i is not None and fresh[i] > score:
                continue
        survivors[key] = val
        node = key >> 1
        if terminals[node] >= 0:
            prev = at_terminal.get(node)
            if prev is None or score > prev[0] or (score == prev[0] and start < prev[1]):
                at_terminal[node] = val

    # survivors already satisfy the per-frame floor, so all terminals qualify
    cands = [
        SpottedCandidate(terminals[node], start, t, score)
        for node, (score, start) in at_terminal.items()
    ]
    return survivors, cands


def _search(
    state: _State,
    lp: np.ndarray,
    first_frame: int,
    table: SearchTable,
    cfg: SpotterConfig,
    blank_id: int,
) -> Iterator[tuple[_State, list[SpottedCandidate]]]:
    """Run :func:`_step_frame` over the rows of ``lp`` (frames
    ``first_frame``, ...); yields (survivors, candidates) after each frame."""
    fresh = lp[:, table.root_tok] + cfg.cb_weight
    fresh_best = fresh.max(axis=1, initial=-np.inf).tolist()
    for i in range(lp.shape[0]):
        state, cands = _step_frame(
            state, lp[i].tolist(), fresh[i], fresh_best[i], first_frame + i, table, cfg, blank_id
        )
        yield state, cands


def check_graph(graph: ContextGraph, vocab_size: int, cfg: SpotterConfig) -> int:
    """Returns the blank id if it and the graph fit ``vocab_size`` symbols
    and no phrase holds the blank."""
    blank = resolve_blank(cfg.blank_id, vocab_size)
    if graph.max_token_id >= vocab_size:
        raise DimensionMismatch(
            f"graph token id {graph.max_token_id} outside vocabulary of size {vocab_size}"
        )
    if blank in graph.token_ids:
        raise TokenOutOfRange(f"blank id {blank} inside a phrase")
    return blank


def spot_offline(
    logprobs: np.ndarray,
    graph: ContextGraph,
    cfg: SpotterConfig | None = None,
) -> list[SpottedCandidate]:
    """Whole-utterance spotting. Returns every candidate above the
    per-frame score floor, before any de-overlapping."""
    cfg = cfg or SpotterConfig()
    lp = check_logprobs(logprobs)
    blank = check_graph(graph, lp.shape[1], cfg)
    out: list[SpottedCandidate] = []
    for _, cands in _search({}, lp, 0, graph.table, cfg, blank):
        out.extend(cands)
    return out


def _greedy_order(c: SpottedCandidate) -> tuple:
    # best per-frame score first, then longer, then stable identity fields
    return (-c.per_frame_score, -c.num_frames, c.keyword_id, c.start_frame, c.end_frame)


def _time_order(c: SpottedCandidate) -> tuple:
    return (c.start_frame, c.end_frame, c.keyword_id)


def settle(
    pending: Iterable[SpottedCandidate], frontier: float
) -> tuple[list[SpottedCandidate], list[SpottedCandidate]]:
    """The greedy de-overlap sweep; returns (kept, held), each sorted by
    start frame.

    Candidates are visited in order of per-frame score (ties: longer
    interval, then smaller keyword id). One overlapping a kept candidate is
    dropped, as the whole-utterance sweep would drop it. One is held,
    undecided, when it ends at or after ``frontier`` (every future
    candidate starts at or after the frontier and might beat it) or
    overlaps a held one; otherwise it is kept. With an infinite frontier
    nothing is held and the sweep is the whole-utterance de-overlap.

    The kept intervals are disjoint, so their starts and ends form two
    sorted lists, and "overlaps a kept one" is one bisection. Held
    candidates need no list: each is held at the frontier or overlaps a held
    one, so the union of their intervals runs without a gap from each held
    start to the frontier or beyond. A candidate ending before the frontier
    therefore overlaps a held one iff it ends at or after the earliest held
    start, and the whole hold rule is ``end >= hold_line`` with
    ``hold_line = min(frontier, earliest held start)``. The sweep makes
    O(N log N) comparisons for N candidates, the sort included; list inserts
    only move pointers.
    """
    kept: list[SpottedCandidate] = []
    held: list[SpottedCandidate] = []
    k_start: list[int] = []
    k_end: list[int] = []
    hold_line = frontier
    for cand in sorted(pending, key=_greedy_order):
        s, e = cand.start_frame, cand.end_frame
        j = bisect_right(k_start, e) - 1  # the last kept interval starting at or before e
        if j >= 0 and k_end[j] >= s:
            continue  # lost to a kept, better-ranked candidate
        if e >= hold_line:
            held.append(cand)
            hold_line = min(hold_line, s)
        else:
            kept.append(cand)
            k_start.insert(j + 1, s)
            k_end.insert(j + 1, e)
    kept.sort(key=_time_order)
    held.sort(key=_time_order)
    return kept, held


def dedup_overlaps(candidates: Iterable[SpottedCandidate]) -> list[SpottedCandidate]:
    """Keep the best-scoring candidate among time-overlapping detections:
    a candidate is dropped iff it overlaps an already kept, better-ranked
    one (see :func:`settle`). Output is sorted by start frame."""
    return settle(candidates, math.inf)[0]
