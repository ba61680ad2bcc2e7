"""Exact dominance: a candidate that contains a better-ranked one is never
kept by the greedy sweep, so it is never emitted, and a live hypothesis
that can only emit such candidates does not hold the commit frontier."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctcspot import (
    BiasEntry,
    HeldPreview,
    SpotChunkResult,
    SpotterConfig,
    SpotterSession,
    SpottedCandidate,
    build_graph,
    dedup_overlaps,
    spot_offline,
    spot_undominated,
)
from ctcspot.spotter import _bound, _search, settle

from conftest import _reference_greedy_order, random_entries, random_logprobs


@st.composite
def dominance_cases(draw, max_frames=30):
    """Random graphs, matrices, configurations and chunkings; quantized
    cells make ties in score and per-frame score common."""
    vocab = draw(st.integers(2, 6))
    blank = draw(st.integers(0, vocab - 1))
    usable = [t for t in range(vocab) if t != blank]
    phrases = draw(
        st.lists(st.lists(st.sampled_from(usable), min_size=1, max_size=4), max_size=6)
    )
    unique = list(dict.fromkeys(tuple(p) for p in phrases))
    graph = build_graph([BiasEntry(i, f"kw{i}", p) for i, p in enumerate(unique)])
    n_frames = draw(st.integers(1, max_frames))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lp = random_logprobs(rng, n_frames, vocab)
    if draw(st.booleans()):
        lp = np.round(lp * 2) / 2  # still at most 0
    cfg = SpotterConfig(
        cb_weight=draw(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 3.0])),
        beam_threshold=draw(st.sampled_from([0.5, 2.0, 7.0, float("inf")])),
        min_per_frame_score=draw(st.sampled_from([float("-inf"), -5.0, -1.0, 0.0])),
        max_keyword_frames=draw(st.sampled_from([1, 2, 3, 5, 200])),
        blank_id=blank,
    )
    cuts = sorted([0, n_frames, *draw(st.lists(st.integers(0, n_frames), max_size=6))])
    sizes = [b - a for a, b in zip(cuts, cuts[1:])]  # repeated cuts give empty chunks
    return graph, lp, cfg, sizes


def _contains_a_better_one(cand, candidates) -> bool:
    return any(
        e.start_frame >= cand.start_frame
        and e.end_frame <= cand.end_frame
        and _reference_greedy_order(e) < _reference_greedy_order(cand)
        for e in candidates
    )


@settings(max_examples=300, deadline=None)
@given(dominance_cases())
@example((  # "ab" over frames 0-1 ties the per-frame score of "a" at 0, and is longer
    build_graph([BiasEntry(0, "a", (0,)), BiasEntry(1, "ab", (0, 1))]),
    np.array([[0.0, -4.0, -4.0], [-4.0, 0.0, -4.0]]),
    SpotterConfig(cb_weight=1.0, blank_id=2),
    [2],
))
@example((  # "ab" over frames 0-1 contains the better "a" at 0, which ends where it starts
    build_graph([BiasEntry(0, "a", (0,)), BiasEntry(1, "ab", (0, 1))]),
    np.array([[0.0, -4.0, -4.0], [-4.0, -1.0, -4.0]]),
    SpotterConfig(cb_weight=1.0, blank_id=2),
    [2],
))
def test_filtered_candidates_are_the_undominated_ones_and_keep_the_same(case):
    graph, lp, cfg, _ = case
    every = spot_offline(lp, graph, cfg)
    undominated = spot_undominated(lp, graph, cfg)
    assert undominated == [c for c in every if not _contains_a_better_one(c, every)]
    dropped = [c for c in every if c not in undominated]
    assert all(_contains_a_better_one(c, every) for c in dropped)
    assert dedup_overlaps(undominated) == dedup_overlaps(every)


@settings(max_examples=300, deadline=None)
@given(dominance_cases())
@example((  # a hypothesis on a terminal with a longer phrase below must hold
    build_graph([BiasEntry(0, "kw0", (2,)), BiasEntry(1, "kw1", (2, 1))]),
    np.array([[-1.67421269, -0.52345733, -1.51378393], [-3.50640865, -1.0088879, -0.50191334]]),
    SpotterConfig(cb_weight=3.0, beam_threshold=0.5, min_per_frame_score=float("-inf"),
                  max_keyword_frames=2, blank_id=0),
    [1, 1],
))
@example((  # the longer phrase takes its one token in one frame, and then wins
    build_graph([BiasEntry(0, "a", (0,)), BiasEntry(1, "ab", (0, 1))]),
    np.log(np.array([[0.9, 0.05, 0.05], [0.025, 0.95, 0.025]])),
    SpotterConfig(blank_id=2),
    [1, 1],
))
def test_tightened_frontier_never_trails_the_earliest_live_start_nor_regresses(case):
    """The untightened frontier, the earliest start of any live hypothesis,
    comes from a second search over the same chunks; the session's frontier
    is at or after it and never moves back, and the finalized stream is
    still the whole-utterance de-overlap."""
    graph, lp, cfg, sizes = case
    session = SpotterSession(graph, cfg)
    state, t, frontier, finalized = {}, 0, 0, []
    for n in sizes:
        chunk = lp[t : t + n]
        res = session.process_chunk(chunk)
        state = _search(state, chunk, t, graph, cfg, cfg.blank_id, [])
        t += n
        untightened = min((start for _, start in state.values()), default=t)
        assert untightened <= res.new_frontier <= t
        assert res.new_frontier >= frontier
        frontier = res.new_frontier
        finalized += res.finalized
    finalized += session.flush().finalized
    assert finalized == dedup_overlaps(spot_offline(lp, graph, cfg))


def test_frontier_waits_for_a_hypothesis_whose_bound_ties_the_candidate_it_would_pass():
    """At an exact tie a hypothesis still holds the frontier. After frame 0,
    "a" (0-0) has scored 1.0 a frame, and the hypothesis on x, which "b"
    extends, has a bound of exactly 1.0; "b" then reaches 1.0 a frame too,
    over two frames, so it outranks "a" and the whole-utterance sweep keeps
    it. A frontier that passed the hypothesis would finalize "a" instead."""
    x, y, blank = 0, 1, 2
    graph = build_graph([BiasEntry(0, "a", (x,)), BiasEntry(1, "b", (x, y))])
    inf = math.inf
    lp = np.array([[0.0, -inf, -inf], [-inf, 0.0, -inf]])
    cfg = SpotterConfig(cb_weight=1.0, blank_id=blank)
    session = SpotterSession(graph, cfg)
    res = session.process_chunk(lp[:1])
    assert _bound(1.0, 1, 1, cfg.cb_weight) == 1.0  # the tie
    assert (res.new_frontier, res.finalized) == (0, [])
    finalized = session.process_chunk(lp[1:]).finalized + session.flush().finalized
    expected = dedup_overlaps(spot_offline(lp, graph, cfg))
    assert expected == [SpottedCandidate(1, 0, 1, 2.0)]
    assert finalized == expected


def test_rank_index_stays_bounded_on_a_long_blank_dominant_stream():
    """The index covers exactly the frames from the commit frontier on, and
    the age cap bounds how far back that lies, whatever the length."""
    rng = np.random.default_rng(37)
    vocab, blank = 8, 7
    graph = build_graph(random_entries(rng, 30, vocab, blank, max_len=4))
    cfg = SpotterConfig(blank_id=blank)
    x = rng.standard_normal((5000, vocab))
    x[:, blank] += 6.0  # the blank holds about 0.96 of each frame
    lp = x - np.log(np.exp(x).sum(axis=1, keepdims=True))
    session = SpotterSession(graph, cfg)
    covered = []
    for t in range(0, 5000, 4):
        res = session.process_chunk(lp[t : t + 4])
        assert len(session._ranks) == session.frames_seen - res.new_frontier
        covered.append(len(session._ranks))
    assert max(covered) <= cfg.max_keyword_frames
    session.flush()
    assert session._ranks == []


class _TwoFloorSession(SpotterSession):
    """The session with a second floor: the rank index is trimmed at the
    earliest live start, and every live hypothesis before the running
    frontier is bounded, however long ago its lineage was passed over.
    Nothing starts below the index's base, so the search drops no
    terminal by its start. Like the session, it compares bounds with no
    float margin (see :func:`test_bound_needs_no_float_margin`)."""

    def _commit_frontier(self) -> int:
        frontier = end = self._frames
        base = self._frames - len(self._ranks)
        for key, (score, start) in self._state.items():
            if start >= frontier:
                continue
            bound = _bound(score, end - start, self.graph.heights[key >> 1], self.cfg.cb_weight)
            if -self._ranks[start - base][0] > bound:
                continue
            frontier = start
        return frontier

    def _finalize_step(self) -> SpotChunkResult:
        frontier = self._commit_frontier()
        base = self._frames - len(self._ranks)
        floor = min((start for _, start in self._state.values()), default=self._frames)
        del self._ranks[: floor - base]
        assert frontier >= self._frontier
        self._frontier = frontier
        finalized, self._pending = settle(self._pending, frontier)
        return SpotChunkResult(frontier, finalized, HeldPreview(tuple(self._pending), len(self._state)))


@st.composite
def long_cases(draw):
    """Longer streams in more chunks, often sharper and blank-heavy, so that
    lineages passed over at one chunk often live on into later ones."""
    graph, lp, cfg, _ = draw(dominance_cases(max_frames=120))
    lp = lp * draw(st.sampled_from([1.0, 4.0]))
    lp[:, cfg.blank_id] += draw(st.sampled_from([0.0, 3.0]))
    lp = np.minimum(lp - np.log(np.exp(lp).sum(axis=1, keepdims=True)), 0.0)
    cuts = sorted([0, len(lp), *draw(st.lists(st.integers(0, len(lp)), max_size=40))])
    return graph, lp, cfg, [b - a for a, b in zip(cuts, cuts[1:])]


@settings(max_examples=300, deadline=None)
@given(long_cases())
@example((  # "b" from frame 0 is passed over in the first chunk and lives on in the second
    build_graph([BiasEntry(0, "a", (0,)), BiasEntry(1, "b", (1,))]),
    np.array([[-0.8, -0.6, -4.6], [-3.1, -1.0, -0.6], [-2.7, -0.6, -1.0], [-3.0, -4.3, -0.1]]),
    SpotterConfig(blank_id=2),
    [2, 2],
))
def test_one_floor_session_equals_the_two_floor_session(case):
    """Trimming the index at the commit frontier and passing over, unbounded,
    every hypothesis that starts before the previous frontier changes no
    chunk result and no flush result; the index then covers exactly the
    uncommitted frames."""
    graph, lp, cfg, sizes = case
    session, reference = SpotterSession(graph, cfg), _TwoFloorSession(graph, cfg)
    t = 0
    for n in sizes:
        res = session.process_chunk(lp[t : t + n])
        assert res == reference.process_chunk(lp[t : t + n])
        t += n
        assert len(session._ranks) == session.frames_seen - res.new_frontier
    assert session.flush() == reference.flush()
    assert session._ranks == []


_magnitudes = st.floats(1e-12, 1e12)
_signs = st.sampled_from([1.0, -1.0])
_log_probs = st.one_of(
    st.floats(max_value=0.0),  # -0.0 and -inf among them
    st.floats(-2.2250738585072014e-308, 0.0),  # subnormals
    _magnitudes.map(lambda m: -m),
)


@st.composite
def lineages(draw):
    """A live hypothesis (score, age, height, with the graph's ``cb``) and
    the score one lineage below it reaches, summed as the search sums it:
    ``s + x`` on a blank or repeat frame and ``s + x + cb`` on a token, for
    k <= height tokens over at least max(k, 1) frames."""
    score = draw(_magnitudes) * draw(_signs)
    cb = draw(_magnitudes) * draw(_signs)
    age = draw(st.integers(1, 200))
    height = draw(st.integers(0, 6))
    k = draw(st.integers(0, height))
    frames = draw(st.integers(max(k, 1), max(k, 1) + 8))
    tokens = draw(st.permutations([True] * k + [False] * (frames - k)))
    s = score
    for token in tokens:
        x = draw(_log_probs)
        s = s + x + cb if token else s + x
    return score, cb, age, height, k, frames, s


@settings(max_examples=1000, deadline=None)
@given(lineages())
@example((3.0, 1.0, 1, 1, 1, 1, 3.0 + -0.0 + 1.0))  # one token in one frame
@example((1.0, 1e-12, 3, 2, 0, 1, 1.0 + -math.inf))
def test_bound_needs_no_float_margin(lineage):
    """Every float per-frame score a lineage can reach is at most the float
    bound, and so is the descendant's own bound."""
    score, cb, age, height, k, frames, s = lineage
    bound = _bound(score, age, height, cb)
    assert s / (age + frames) <= bound
    assert _bound(s, age + frames, height - k, cb) <= bound
