"""Exact dominance: a candidate that contains a better-ranked one is never
kept by the greedy sweep, so it is never emitted, and a live hypothesis
that can only emit such candidates does not hold the commit frontier."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctcspot import (
    BiasEntry,
    SpotterConfig,
    SpotterSession,
    build_graph,
    dedup_overlaps,
    spot_offline,
    spot_undominated,
)
from ctcspot.spotter import _search

from conftest import _reference_greedy_order, random_entries, random_logprobs


@st.composite
def dominance_cases(draw):
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
    n_frames = draw(st.integers(1, 30))
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


def test_rank_index_stays_bounded_on_a_long_blank_dominant_stream():
    """The index covers only the frames from the earliest live start on,
    and the age cap bounds how far back that lies, whatever the length."""
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
        session.process_chunk(lp[t : t + 4])
        covered.append(len(session._ranks.best))
    assert max(covered) <= cfg.max_keyword_frames
    session.flush()
    assert session._ranks.best == []
