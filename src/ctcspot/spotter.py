"""Keyword spotting over CTC log-probabilities by trie token passing.

A hypothesis occupies one trie node in either the blank or the non-blank
CTC sub-state and carries an accumulated log score plus the frame at which
it consumed its first token. Every frame, each hypothesis takes all legal
transitions, fresh hypotheses enter at the children of the root,
hypotheses landing on the same (node, sub-state) recombine keeping the
best score, and survivors of beam pruning and the age cap that sit on a
terminal node are reported as keyword candidates.

The search reads the frozen :class:`~ctcspot.graph.ContextGraph` directly.
Fresh-entry scores are computed with numpy, as C-ordered gathers of up to
``_BLOCK_ROWS`` frames x root children (:func:`_fresh_table`), so a call
over a whole utterance holds one block's table, not one as large as the
input. Per frame, only the entries at or above the admission floor
``max(min_per_frame_score, best - beam_threshold)`` are inserted, and a
live hypothesis below the floor on a root-child slot is pruned when a
strictly better fresh entry would have displaced it. Any other fresh entry
would be pruned at age 1 anyway, so the result equals admitting every root
child.

Live hypotheses are cut the same way before any dict work. The frame's best
score has two lower bounds known before the frame's expansions: the top
hypothesis's blank self-loop (every hypothesis takes it) and the best fresh
entry (counted in the best). So an expansion scoring below ``cut = max(top +
row[blank], fresh_best) - beam_threshold`` is below the beam floor and is
never inserted. Nothing at or above either bound is skipped, so the best,
the beam floor and the admission floor stay as they were; a skipped entry
could only have won a slot that pruning then empties, and a fresh entry,
at or above the floor, still replaces any lower one. Hypotheses over the
age cap or under the per-frame floor are expanded all the same: their
expansions count toward the best, and skipping them would move the floor.

Pruning deletes the few hypotheses it prunes from the frame's table,
which becomes the next state; a delete keeps the other entries' order, so
the state and the candidates keep theirs. A fresh entry skips the prune
tests: it is admitted at or above the beam and per-frame floors and is one
frame old, within any age cap.

Fresh entries stay out of the frame's table until they can expand. On
noise a frame admits hundreds of fresh entries, and most of them are
skipped on every expansion the next frame. On frames that admit at least
``_MIN_FILTERED`` entries, except a call's last, only those on the few
slots that propagation filled recombine in the table (a root child's slot
is filled only by its own repeat, as only the root, never a hypothesis,
steps into a root child). The rest are held aside, as scores over the root
children. The next frame's ``cut`` counts their best, and only those whose
best escape (the larger of blank loop and repeat, or the best step to a
child plus ``cb_weight``, read from :func:`_escape_table`) reaches it are
expanded, straight after the state's entries and in root-child order,
which is where the full search has them. An entry left out would insert
nothing. Every held terminal spans one frame, and of a frame's one-frame
candidates a rank index keeps at most the best-ranked, so with an index
only the best held terminal goes through the rank walk. The state after
each call, every candidate and their order stay the same (see
:func:`_search`). Frames of speech admit none or one, and hold none.

One chunk search, :func:`_search`, drives :func:`spot_offline` and
:func:`spot_undominated` (one call over the utterance) and the chunked
:class:`SpotterSession` (one call per chunk), which carries live hypotheses
across chunk boundaries; sharing the search makes the paths score
identically for any chunking of the input. :func:`settle` is the one
greedy de-overlap sweep: the session runs it at its commit frontier,
finalizing each candidate that neither a live hypothesis nor a held
candidate can overturn, and :func:`dedup_overlaps` runs it at infinity.

Dominance. The sweep never keeps a candidate C that contains a strictly
better-ranked candidate E (E starts no earlier and ends no later): E is
visited first and is either kept or dropped by a kept K overlapping it,
and E and K both overlap C. E ends no later than C, so it is emitted by
the time C is. The session and :func:`spot_undominated` keep a rank index
(see :func:`_search`) and drop such terminals frame by frame, before a
candidate object is made; a dropped candidate changes no other decision,
so the kept list stays the same. :func:`spot_offline` keeps every
candidate: it is the reference the enumeration oracle checks.

The commit frontier is the earliest start among live hypotheses that can
still emit a candidate. Log-probabilities are at most 0, so :func:`_bound`
caps the per-frame score of anything a hypothesis or its descendants can
emit; when an emitted candidate starting at or after the hypothesis's
start beats it, all of that would be dropped, and the hypothesis stays in
the search without holding the frontier, or the rank index once past it.
Nothing emitted later begins before the frontier, so the finalized stream
equals whole-utterance spotting plus de-overlap for every chunking and age
cap, which both paths apply in the same search. Both take input through
:func:`ctcspot.formats.check_logprobs` and :func:`check_graph`; every
chunk must be as wide as the first non-empty one.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterable

import numpy as np

from .errors import (
    DimensionMismatch,
    FrontierRegression,
    InvariantViolation,
    SessionClosed,
    TokenOutOfRange,
)
from .formats import check_logprobs, resolve_blank
from .graph import ContextGraph


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
        if not self.max_keyword_frames >= 1:
            raise ValueError("max_keyword_frames must be at least 1, not NaN")


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


# search state: {node << 1 | in_blank: (score, start_frame)}
_State = dict[int, tuple[float, int]]


def _rank(keyword_id: int, start: int, end: int, score: float) -> tuple:
    """The greedy sweep's order, smallest first: best per-frame score, then
    longer, then stable identity fields. Distinct candidates never tie."""
    n = end - start + 1
    return (-(score / n), -n, keyword_id, start, end)


def _greedy_order(c: SpottedCandidate) -> tuple:
    return _rank(c.keyword_id, c.start_frame, c.end_frame, c.score)


_UNRANKED = (math.inf, math.inf)  # ranks after every candidate


def _bound(score: float, age: int, height: int, cb: float) -> float:
    """An upper bound on the per-frame score of every candidate a live
    hypothesis can still emit, or that any of its descendants can.

    Such a candidate consumes some k in 0..``height`` more tokens over at
    least max(k, 1) more frames. Each log-probability is at most 0 and each
    token adds ``cb``, so its score is at most ``score + cb*k``; where that
    is not positive, its per-frame score is at most 0. No margin is needed
    in float: ``num`` adds one ``cb`` at a time, as the search does, and
    rounded addition and division are monotone, so no float per-frame score
    exceeds ``num / (age + k)``. Nor is a descendant's bound (more frames,
    fewer tokens left) ever above its ancestor's.
    """
    bound = score / (age + 1) if score > 0 else 0.0  # k = 0
    num = score
    for k in range(1, height + 1):
        num += cb
        if num > 0 and num / (age + k) > bound:
            bound = num / (age + k)
    return bound


# The fewest fresh entries a frame must admit before the search holds those
# on empty slots out of its table until they can expand. On speech-shaped
# input a frame admits none or one, and there the masks and escape tables
# cost more than the inserts they save (holding on every such frame took a
# stream-speech-10k session from about 25 to 74 us a frame); on noise a
# frame admits about 290. Any value from 2 to about 100 splits the two alike.
_MIN_FILTERED = 16


# Rows per fresh-entry table, and per escape table when a block holds fresh
# entries. A call gathers each once per block as it reaches it; a chunk of up
# to this many rows, which covers every streamed chunk of the bench, gathers
# once.
_BLOCK_ROWS = 64


def _fresh_table(rows: np.ndarray, root_tok: np.ndarray, cb: float) -> np.ndarray:
    """The fresh-entry scores ``row[root_tok] + cb`` of each of ``rows``,
    as one C-ordered float64 table: ``rows[:, root_tok]`` would come back
    in Fortran order, and each frame's row and maximum would then read
    strided memory. A float32 gather is widened before ``cb`` is added, so
    the sums are the float64 ones."""
    table = rows.take(root_tok, axis=1).astype(float, copy=False)
    table += cb
    return table


def _escape_table(
    rows: np.ndarray, graph: ContextGraph, blank_id: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(stay, step)``, each ``rows`` x root children: what a non-blank
    hypothesis on root child j can add at each frame. ``stay[:, j]`` is the
    better of its blank loop and its repeat, ``max(row[blank],
    row[root_tok[j]])``; ``step[:, j]`` is the best ``row[c]`` over the
    tokens c of all its children (:attr:`ContextGraph.root_steps`). That
    counts a child with j's own token, which the search reaches only
    through the blank, so ``step`` is an upper bound; at a leaf it is a
    placeholder. Both are C-ordered and keep the rows' dtype, which a
    maximum cannot round; the caller adds them to float64 scores."""
    _, first, more = graph.root_steps
    stay = rows.take(graph.root_tok, axis=1)
    np.maximum(stay, rows[:, blank_id, None], out=stay)
    step = rows.take(first, axis=1)
    for cols, toks in more:
        step[:, cols] = np.maximum(step.take(cols, axis=1), rows.take(toks, axis=1))
    return stay, step


def _search(
    state: _State,
    lp: np.ndarray,
    first_frame: int,
    graph: ContextGraph,
    cfg: SpotterConfig,
    blank_id: int,
    out: list[SpottedCandidate],
    ranks: list[tuple] | None = None,
) -> _State:
    """Advance every hypothesis over the rows of ``lp`` (frames
    ``first_frame``, ...); appends each frame's candidates to ``out`` and
    returns the survivors of the last frame.

    ``ranks`` is the rank index: ``ranks[f - base]``, with ``base =
    first_frame - len(ranks)``, is the best rank among the candidates
    emitted so far that start at or after frame f. A candidate whose start
    entry ranks strictly better than itself contains a better one and is
    never kept. With an index, each frame's terminals from ``base`` on enter
    it first, and then only those no contained candidate outranks are
    appended; with None, every one is. Entries only improve; an update walks
    down from the candidate's start to the first entry at least as good, or
    to ``base``, which a session keeps at its commit frontier.

    ``fresh`` holds a frame's score of a fresh entry at each root child
    (``row[root_tok] + cb_weight``) and ``fresh_best`` its maximum, both
    read from C-ordered tables of up to ``_BLOCK_ROWS`` frames
    (:func:`_fresh_table`), gathered at each block's first row; so a call
    gathers one table per block, and a call of at most one block gathers
    once.
    Recombination keeps the higher score, ties keep the earlier start.
    Pruning measures each score against the best score of its frame.
    An expansion below ``cut``, the beam threshold under the larger of the
    two lower bounds on that best (the top hypothesis's blank self-loop and
    ``fresh_best``), is skipped before its dict probe: it would be pruned.
    Age-capped hypotheses are still expanded, as they count in the best.

    The prune loop collects the keys it prunes and deletes them from
    ``nxt``, which becomes the next ``state``; a dict delete keeps the
    other keys' insertion order, so the state, ``at_terminal`` and the
    candidates keep the order that a new dict of survivors would have.
    An entry with ``start == t`` skips the four prune tests. Only a fresh
    entry starts at t, and it is admitted at or above ``floor =
    max(min_per_frame_score, best - beam_threshold)``: at or above the
    beam floor, at or above ``min_per_frame_score * 1``, and never under
    ``floor`` for the root-slot test. Its age is 1, and
    :class:`SpotterConfig` requires ``max_keyword_frames >= 1``.

    On a frame t that admits at least ``_MIN_FILTERED`` fresh entries and is
    not the call's last row, the admitted entries on root-child slots that
    propagation filled recombine in place as always, and the rest are held:
    not inserted, but kept as root children ``held`` with scores
    ``held_scores``. Only a root child's own repeat fills its slot, so the
    filled slots are ``nxt.keys() & root_slot.keys()``, a few a frame;
    recombination runs on those, and ``held`` is the admitted entries with
    those slots cleared. Admitting the held ones would append their keys to
    ``nxt`` after every propagated key, in root-child order, and the prune
    loop would pass them (a fresh entry skips its tests). So the held
    terminals enter ``at_terminal`` after that loop, in root-child order;
    start t is the latest, so a tie keeps the earlier start, as the loop
    does. A held slot's node can be in ``at_terminal`` already only through
    its blank sub-state.

    With a rank index, every held terminal spans [t, t], and no candidate
    emitted before frame t starts at t, so ``ranks[t - base]`` ends the
    frame at the best rank among the frame's one-frame candidates, and the
    second pass keeps at most that one. The rank walk's result does not
    depend on the order of its entries. So only the best-ranked held
    terminal (highest score, then smallest keyword id; :func:`_rank` with
    one frame) can change ``ranks`` or ``out``: the few whose node is
    already in ``at_terminal`` take it in place when strictly better, as
    above, and then only the best of the rest is appended. Without an
    index (:func:`spot_offline`, the oracle's reference) every candidate is
    emitted, and each held terminal enters one by one.

    At frame t+1, ``top`` counts the held entries' best score, so ``lo`` and
    ``cut`` are those of the full search. Then each held entry of score f
    at root child j that has an expansion at or above ``cut`` goes to the
    expansion loop with start t, after the state's own entries and in
    root-child order, which is where the full search has it. Its key is
    never in the state (it was held on an empty slot, and after admission
    a frame only deletes keys), so the loop sees the same entries in the
    same order without inserting it. Rounded addition is monotone, so ``f +
    stay[j]`` is exactly the larger of its blank loop and repeat and ``(f +
    step[j]) + cb`` at least its best step to a child (see
    :func:`_escape_table`), and the test needs no margin.
    An entry left out would have inserted nothing, so ``nxt`` gets the same
    keys in the same order. Nothing is held past a call's last row, so the
    returned state, and with it the session's commit frontier and rank
    index, is the same, in the same order, and candidates are appended in
    the same order.
    """
    cb = cfg.cb_weight
    beam_threshold = cfg.beam_threshold
    min_pfs = cfg.min_per_frame_score
    max_age = cfg.max_keyword_frames
    tokens = graph.tokens
    first_child = graph.first_child
    next_sibling = graph.next_sibling
    terminals = graph.terminals
    root_keys = graph.root_keys
    root_slot = graph.root_slot
    root_tok = graph.root_tok
    last = lp.shape[0] - 1
    held = None  # the root children whose fresh entries the last frame held out of nxt
    if ranks is not None:
        base = first_frame - len(ranks)
        ranks.extend([_UNRANKED] * lp.shape[0])

    for i in range(lp.shape[0]):
        t = first_frame + i
        row = memoryview(lp[i])
        offset = i % _BLOCK_ROWS
        if not offset:
            block = lp[i : i + _BLOCK_ROWS]
            fresh_rows = _fresh_table(block, root_tok, cb)
            fresh_bests = fresh_rows.max(axis=1, initial=-np.inf).tolist()
            escapes = None  # gathered when the block first holds an entry
        fresh = fresh_rows[offset]
        fresh_best = fresh_bests[offset]
        lp_blank = row[blank_id]
        nxt: _State = {}
        # the frame's best is at least lo, so an expansion below cut is pruned anyway
        top = max(state.values())[0] if state else -math.inf
        if held is not None:
            top = max(top, held_top)
        lo = max(top + lp_blank, fresh_best)
        cut = lo - beam_threshold
        if held is not None:
            # the held entries with an expansion at or above cut expand after the
            # state's own, where admitting them would have put them; none is in it
            if escapes is None:
                escapes = _escape_table(block, graph, blank_id)
            stay, step = escapes
            picked = (held_scores + stay[offset].take(held) >= cut) | (
                held_scores + step[offset].take(held) + cb >= cut
            )
            items = chain(state.items(), zip(
                map(root_keys.__getitem__, held[picked].tolist()),
                zip(held_scores[picked].tolist(), repeat(t - 1)),
            ))
            held = None
        else:
            items = state.items()

        for key, (score, start) in items:
            # blank self-loop
            s = score + lp_blank
            if s >= cut:
                k = key | 1
                prev = nxt.get(k)
                if prev is None or s > prev[0] or (s == prev[0] and start < prev[1]):
                    nxt[k] = (s, start)
            node = key >> 1
            ntok = tokens[node]
            in_blank = key & 1
            if not in_blank:
                # repeated emission of the node's own token
                s = score + row[ntok]
                if s >= cut:
                    prev = nxt.get(key)
                    if prev is None or s > prev[0] or (s == prev[0] and start < prev[1]):
                        nxt[key] = (s, start)
            child = first_child[node]
            while child >= 0:
                ctok = tokens[child]
                if in_blank or ctok != ntok:
                    s = score + row[ctok] + cb
                    if s >= cut:
                        k = child << 1
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
        beam_floor = best - beam_threshold
        floor = max(min_pfs, beam_floor)
        if fresh_best >= floor:
            admit = fresh >= floor
            admitted = admit.nonzero()[0]
            if len(admitted) >= _MIN_FILTERED and i < last:
                # a root child's slot is filled only by its own repeat: recombine
                # the few filled slots, hold out the rest
                for k in nxt.keys() & root_slot.keys():
                    j = root_slot[k]
                    if admit[j]:
                        admit[j] = False
                        s = fresh.item(j)
                        if s > nxt[k][0]:
                            nxt[k] = (s, t)
                held = admit.nonzero()[0]
                held_scores = fresh[held]
                held_top = float(held_scores.max(initial=-np.inf))
            else:
                for j, s in zip(admitted.tolist(), fresh[admitted].tolist()):
                    k = root_keys[j]
                    prev = nxt.get(k)
                    if prev is None or s > prev[0]:
                        nxt[k] = (s, t)

        pruned = []
        at_terminal: dict[int, tuple[float, int]] = {}
        for key, val in nxt.items():
            score, start = val
            if start != t:  # a fresh entry passes every test: see the docstring
                age = t - start + 1
                if score < beam_floor or age > max_age or score < min_pfs * age:
                    pruned.append(key)
                    continue
                if score < floor:
                    j = root_slot.get(key)
                    if j is not None and fresh[j] > score:
                        pruned.append(key)
                        continue
            node = key >> 1
            if terminals[node] >= 0:
                prev = at_terminal.get(node)
                if prev is None or score > prev[0] or (score == prev[0] and start < prev[1]):
                    at_terminal[node] = val
        for key in pruned:
            del nxt[key]
        state = nxt
        if held is not None:
            # held terminals come last, where fresh keys appended to nxt would
            term = graph.root_steps[0][held]
            cols = held[term]
            scores = held_scores[term]
            if ranks is None:
                for j, s in zip(cols.tolist(), scores.tolist()):
                    node = root_keys[j] >> 1
                    prev = at_terminal.get(node)
                    if prev is None or s > prev[0]:
                        at_terminal[node] = (s, t)
            elif len(cols):
                # each spans [t, t], so the rank walk keeps only the best; a held
                # node is already in at_terminal only through its blank sub-state
                root_nodes = graph.root_nodes
                seen = at_terminal.keys() & set(root_nodes[cols].tolist())
                if seen:
                    rest = np.ones(len(cols), dtype=bool)
                    for node in seen:
                        j = root_slot[node << 1]
                        rest[cols.searchsorted(j)] = False
                        s = fresh.item(j)
                        if s > at_terminal[node][0]:
                            at_terminal[node] = (s, t)
                    cols = cols[rest]
                    scores = scores[rest]
                if len(cols):
                    # the best-ranked: the highest score, then the smallest keyword id
                    s = scores.max()
                    node = min(root_nodes[cols[scores == s]].tolist(), key=terminals.__getitem__)
                    at_terminal[node] = (float(s), t)

        # survivors already satisfy the per-frame floor, so all terminals qualify
        if ranks is None:
            for node, (score, start) in at_terminal.items():
                out.append(SpottedCandidate(terminals[node], start, t, score))
        elif at_terminal:
            # a terminal ranked below its start entry is dropped and changes no
            # entry; most lose on the rank's first field, before the tuple is built
            ranked = []
            for node, (score, start) in at_terminal.items():
                f = start - base
                if f < 0 or -(score / (t - start + 1)) > ranks[f][0]:
                    continue
                kw = terminals[node]
                r = _rank(kw, start, t, score)
                if r < ranks[f]:
                    ranked.append((r, kw, start, score))
                    while f >= 0 and r < ranks[f]:
                        ranks[f] = r
                        f -= 1
            # then drop those that a later terminal of the same frame outranks
            for r, kw, start, score in ranked:
                if not ranks[start - base] < r:
                    out.append(SpottedCandidate(kw, start, t, score))
    return state


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


def _spot_utterance(
    logprobs: np.ndarray, graph: ContextGraph, cfg: SpotterConfig | None, ranks: list[tuple] | None
) -> list[SpottedCandidate]:
    cfg = cfg or SpotterConfig()
    lp = check_logprobs(logprobs)
    blank = check_graph(graph, lp.shape[1], cfg)
    out: list[SpottedCandidate] = []
    _search({}, lp, 0, graph, cfg, blank, out, ranks)
    return out


def spot_offline(
    logprobs: np.ndarray,
    graph: ContextGraph,
    cfg: SpotterConfig | None = None,
) -> list[SpottedCandidate]:
    """Whole-utterance spotting. Returns every candidate above the
    per-frame score floor, before any de-overlapping."""
    return _spot_utterance(logprobs, graph, cfg, None)


def spot_undominated(
    logprobs: np.ndarray,
    graph: ContextGraph,
    cfg: SpotterConfig | None = None,
) -> list[SpottedCandidate]:
    """Whole-utterance spotting without the candidates that the greedy
    sweep can never keep: those of :func:`spot_offline` that contain a
    better-ranked one. :func:`dedup_overlaps` returns the same for both."""
    return _spot_utterance(logprobs, graph, cfg, [])


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
    A candidate that contains a better-ranked one is never kept, so
    ``pending`` may leave such candidates out (the session records none),
    and then the frontier need not wait for live hypotheses that can only
    record more of them.

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


class SpotterSession:
    """Single-writer chunked spotting session over one immutable graph."""

    def __init__(self, graph: ContextGraph, cfg: SpotterConfig | None = None) -> None:
        self.graph = graph
        self.cfg = cfg or SpotterConfig()
        self._state: _State = {}
        self._ranks: list[tuple] = []  # the rank index of _search, from the frontier on
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

    def _require_open(self) -> None:
        if self._closed:
            raise SessionClosed("session was flushed")

    def process_chunk(self, logprobs: np.ndarray) -> SpotChunkResult:
        """Run token passing over one chunk and finalize what is safe."""
        self._require_open()
        lp = check_logprobs(logprobs, self._vocab_size)
        if lp.shape[0]:
            if self._vocab_size is None:
                self._blank = check_graph(self.graph, lp.shape[1], self.cfg)
                self._vocab_size = lp.shape[1]
            self._state = _search(
                self._state,
                lp,
                self._frames,
                self.graph,
                self.cfg,
                self._blank,
                self._pending,
                self._ranks,
            )
            self._frames += lp.shape[0]
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

    def _commit_frontier(self) -> int:
        """The earliest start among live hypotheses that may still emit a
        candidate: one is passed over when an emitted candidate starting at
        or after its start beats its :func:`_bound` per frame, since every
        candidate it or a descendant could emit would contain that one, and
        one starting below the previous frontier, where the rank index
        starts, descends from one passed over."""
        frontier = end = self._frames
        base = self._frontier
        heights = self.graph.heights
        cb = self.cfg.cb_weight
        for key, (score, start) in self._state.items():
            if start >= frontier or start < base:
                continue
            # the best per-frame score emitted from start on; -inf when none was
            beaten = -self._ranks[start - base][0]
            # bounds are never negative, and exact in float
            if beaten > 0 and beaten > _bound(score, end - start, heights[key >> 1], cb):
                continue  # all it can still emit will be dropped
            frontier = start
        return frontier

    def _finalize_step(self) -> SpotChunkResult:
        frontier = self._commit_frontier()
        if frontier < self._frontier:
            raise FrontierRegression(f"frontier moved from {self._frontier} back to {frontier}")
        del self._ranks[: frontier - self._frontier]
        self._frontier = frontier
        finalized, self._pending = settle(self._pending, frontier)
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
