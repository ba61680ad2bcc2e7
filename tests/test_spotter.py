import math
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctcspot import (
    BiasEntry,
    SpotterConfig,
    SpotterSession,
    SpottedCandidate,
    StreamingPipeline,
    brute_force_keyword_score,
    brute_force_scores_by_end,
    build_graph,
    dedup_overlaps,
    offline_pipeline,
    spot_offline,
)
from ctcspot.errors import DimensionMismatch, NonFiniteRows, TokenOutOfRange
from ctcspot.spotter import _search, settle

from conftest import (
    random_entries,
    random_logprobs,
    reference_settle,
    reference_step_frame,
    reference_tables,
    synthetic_vocab,
)

NO_PRUNE = dict(beam_threshold=float("inf"), min_per_frame_score=float("-inf"),
                max_keyword_frames=10_000)


def _rows(rows):
    """Probability rows (lists summing to 1) to a log matrix."""
    return np.log(np.asarray(rows, dtype=float))


def _crafted_matrix():
    """Token 1 evidence at frame 1, mostly blank frame 2, token 2 at frame 3.

    The best alignment spans [1, 3] through the blank: starting later would
    have to pay for the weak token-1 probability at frame 2.
    """
    e = 0.05 / 2
    return _rows(
        [
            [e, e, e, 0.95],        # blank
            [0.90, e, e, 0.05],     # token 1
            [0.05, e, e, 0.90],     # blank again, token 1 now weak
            [e, 0.90, e, 0.05],     # token 2
            [e, e, e, 0.95],        # blank
        ]
    )


def test_empty_graph_spots_nothing():
    lp = random_logprobs(np.random.default_rng(0), 6, 4)
    assert spot_offline(lp, build_graph([]), SpotterConfig()) == []


def test_crafted_keyword_matches_oracle():
    lp = _crafted_matrix()
    cfg = SpotterConfig(cb_weight=3.0, blank_id=3, **NO_PRUNE)
    graph = build_graph([BiasEntry(0, "kw", (0, 1))], vocab_size=4)
    cands = spot_offline(lp, graph, cfg)
    kept = dedup_overlaps(cands)
    assert len(kept) == 1
    best = kept[0]
    oracle = brute_force_keyword_score(lp, (0, 1), 3.0, 3)
    assert (best.start_frame, best.end_frame) == (oracle[1], oracle[2]) == (1, 3)
    assert best.score == pytest.approx(oracle[0], abs=1e-6)


def test_zero_floor_rejects_all_without_bias_bonus():
    # with no bonus, every per-frame score is a strict log-probability < 0
    lp = _crafted_matrix()
    cfg = SpotterConfig(cb_weight=0.0, beam_threshold=float("inf"),
                        min_per_frame_score=0.0, max_keyword_frames=10_000, blank_id=3)
    graph = build_graph([BiasEntry(0, "kw", (0, 1))], vocab_size=4)
    assert spot_offline(lp, graph, cfg) == []


def test_token_id_outside_matrix_width():
    lp = random_logprobs(np.random.default_rng(0), 4, 4)
    graph = build_graph([BiasEntry(0, "kw", (7,))])
    with pytest.raises(DimensionMismatch):
        spot_offline(lp, graph, SpotterConfig())


BLANK_PHRASE_ENTRIES = {
    "spot_offline": lambda g, cfg, lp, vocab: spot_offline(lp, g, cfg),
    "SpotterSession": lambda g, cfg, lp, vocab: SpotterSession(g, cfg).process_chunk(lp),
    "StreamingPipeline(vocab)": lambda g, cfg, lp, vocab: StreamingPipeline(g, cfg, vocab=vocab),
    "StreamingPipeline(external_words)": lambda g, cfg, lp, vocab: StreamingPipeline(
        g, cfg, external_words=[]
    ).process_chunk(lp),
    "offline_pipeline": lambda g, cfg, lp, vocab: offline_pipeline(lp, g, cfg, vocab=vocab),
}


@pytest.mark.parametrize("blank_id,phrase", [(None, (7,)), (2, (1, 2))])
@pytest.mark.parametrize("entry", BLANK_PHRASE_ENTRIES)
def test_every_entry_point_rejects_a_phrase_holding_the_blank(entry, blank_id, phrase):
    """A graph built without a blank id may hold the blank; each entry point
    that resolves the blank rejects it before any search."""
    lp = np.full((6, 8), -np.log(8.0))
    graph = build_graph([BiasEntry(0, "kw", phrase)], vocab_size=8)
    cfg = SpotterConfig(blank_id=blank_id, min_per_frame_score=-3.0)
    with pytest.raises(TokenOutOfRange):
        BLANK_PHRASE_ENTRIES[entry](graph, cfg, lp, synthetic_vocab(8))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_matrix_is_rejected(bad):
    lp = random_logprobs(np.random.default_rng(0), 6, 4)
    lp[4, 0] = bad
    graph = build_graph([BiasEntry(0, "kw", (0,))], vocab_size=4)
    with pytest.raises(NonFiniteRows):
        spot_offline(lp, graph, SpotterConfig(blank_id=3))


@pytest.mark.parametrize("field, value", [
    ("cb_weight", float("nan")), ("cb_weight", float("inf")),
    ("beam_threshold", float("nan")), ("beam_threshold", -1.0),
    ("min_per_frame_score", float("nan")), ("max_keyword_frames", 0),
])
def test_config_rejects_invalid_values(field, value):
    # a NaN score or floor fails every compare, so hypotheses would never retire
    with pytest.raises(ValueError):
        SpotterConfig(**{field: value})


def test_oracle_equivalence_randomized():
    rng = np.random.default_rng(123)
    for _ in range(80):
        n_frames = int(rng.integers(1, 9))
        vocab = int(rng.integers(2, 5))
        blank = vocab - 1
        lp = random_logprobs(rng, n_frames, vocab)
        klen = int(rng.integers(1, 4))
        keyword = tuple(int(rng.integers(0, max(1, vocab - 1))) for _ in range(klen))
        cb = float(rng.uniform(0.0, 4.0))
        cfg = SpotterConfig(cb_weight=cb, blank_id=blank, **NO_PRUNE)
        graph = build_graph([BiasEntry(0, "kw", keyword)], vocab_size=vocab)
        best_by_end: dict[int, float] = defaultdict(lambda: float("-inf"))
        for c in spot_offline(lp, graph, cfg):
            best_by_end[c.end_frame] = max(best_by_end[c.end_frame], c.score)
        oracle = brute_force_scores_by_end(lp, keyword, cb, blank)
        assert set(best_by_end) == set(oracle)
        for end, (score, _) in oracle.items():
            assert best_by_end[end] == pytest.approx(score, abs=1e-6)


def test_monotone_bias_bonus():
    rng = np.random.default_rng(77)
    graph = build_graph(random_entries(rng, 5, vocab=6, blank=5, max_len=3))
    lp = random_logprobs(rng, 24, 6)
    base = dict(blank_id=5, **NO_PRUNE)
    seen_ids: set[int] = set()
    prev_best: dict[tuple, float] = {}
    for cb in (0.0, 1.0, 2.5, 4.0):
        cands = spot_offline(lp, graph, SpotterConfig(cb_weight=cb, **base))
        ids = {c.keyword_id for c in cands}
        assert seen_ids <= ids  # detected keyword set never shrinks
        seen_ids = ids
        best = {}
        for c in cands:
            key = (c.keyword_id, c.end_frame)
            best[key] = max(best.get(key, float("-inf")), c.score)
        for key, score in prev_best.items():
            assert best[key] >= score - 1e-12
        prev_best = best


def test_pruning_never_beats_the_unpruned_run():
    """Every finite-beam detection is dominated by an infinite-beam one:
    same keyword and end frame, at least the score. (Exact intervals can
    differ: recombination keeps one hypothesis per node, and pruning can
    remove the unpruned run's winner earlier on its path.)"""
    rng = np.random.default_rng(31)
    graph = build_graph(random_entries(rng, 6, vocab=8, blank=7, max_len=3))
    for _ in range(10):
        lp = random_logprobs(rng, 30, 8)
        full = spot_offline(lp, graph, SpotterConfig(blank_id=7, **NO_PRUNE))
        full_best: dict[tuple, float] = {}
        for c in full:
            key = (c.keyword_id, c.end_frame)
            full_best[key] = max(full_best.get(key, float("-inf")), c.score)
        pruned_cfg = SpotterConfig(blank_id=7, beam_threshold=3.0,
                                   min_per_frame_score=float("-inf"),
                                   max_keyword_frames=10_000)
        for c in spot_offline(lp, graph, pruned_cfg):
            assert full_best[(c.keyword_id, c.end_frame)] >= c.score - 1e-12


def _cand(kw, start, end, pfs):
    return SpottedCandidate(kw, start, end, pfs * (end - start + 1))


def test_dedup_examples():
    assert dedup_overlaps([]) == []
    a = _cand(0, 2, 5, -1.0)
    b = _cand(1, 4, 8, -0.5)
    assert dedup_overlaps([a, b]) == [b]
    a = _cand(0, 0, 3, -1.0)
    b = _cand(1, 2, 6, -0.5)
    c = _cand(2, 7, 9, -2.0)
    assert dedup_overlaps([a, b, c]) == [b, c]


def test_dedup_randomized_against_exhaustive_check():
    rng = np.random.default_rng(5)
    for _ in range(50):
        cands = []
        for i in range(int(rng.integers(0, 12))):
            start = int(rng.integers(0, 20))
            end = start + int(rng.integers(0, 6))
            cands.append(SpottedCandidate(int(rng.integers(0, 4)), start, end,
                                          float(rng.normal()) * (end - start + 1)))
        kept = dedup_overlaps(cands)
        assert settle(cands, math.inf) == (kept, [])
        for x in kept:
            for y in kept:
                assert x is y or not x.overlaps(y)
        kept_set = {id(k) for k in kept}
        for c in cands:
            if id(c) in kept_set:
                continue
            better = [
                k for k in kept
                if c.overlaps(k)
                and (k.per_frame_score, k.num_frames, -k.keyword_id)
                >= (c.per_frame_score, c.num_frames, -c.keyword_id)
            ]
            assert better, "dropped candidate must overlap a better kept one"


def test_dedup_tie_prefers_longer_then_smaller_keyword():
    short = _cand(0, 4, 5, -1.0)
    long = _cand(1, 2, 6, -1.0)
    assert dedup_overlaps([short, long]) == [long]
    a = _cand(3, 2, 4, -1.0)
    b = _cand(1, 2, 4, -1.0)
    assert dedup_overlaps([a, b]) == [b]


def test_candidates_are_slotted():
    """A candidate carries no instance dict; the offline path holds tens of
    thousands of them at once."""
    cand = SpottedCandidate(0, 2, 5, -1.0)
    assert not hasattr(cand, "__dict__")


# A few per-frame scores make ranking ties common.
PFS = [-2.0, -1.0, -0.5, 0.0]


@st.composite
def settle_cases(draw):
    """Dense candidates over a few dozen frames: many overlap, share one
    frame or touch end to start, and held ones chain into wide unions."""
    cands = []
    for _ in range(draw(st.integers(0, 30))):
        start = draw(st.integers(0, 24))
        end = start + draw(st.integers(0, 6))
        pfs = draw(st.one_of(st.sampled_from(PFS), st.floats(-3.0, 1.0)))
        cands.append(SpottedCandidate(draw(st.integers(0, 3)), start, end, pfs * (end - start + 1)))
    frontier = draw(st.one_of(st.integers(0, 32), st.just(math.inf)))
    return cands, frontier


@settings(max_examples=1000, deadline=None)
@given(settle_cases())
@example((  # a held chain whose last link overlaps only its first
    [_cand(0, 9, 14, 0.0), _cand(1, 6, 9, -1.0), _cand(2, 11, 11, -2.0)], 12,
))
@example((  # a held chain: each link moves the hold line back
    [_cand(0, 9, 14, 0.0), _cand(1, 6, 9, -1.0), _cand(2, 4, 7, -2.0)], 12,
))
@example((  # a held chain reached through the earliest held start
    [_cand(0, 9, 14, 0.0), _cand(1, 12, 15, -1.0), _cand(2, 7, 9, -2.0)], 13,
))
@example((  # one shared frame with a kept candidate, on either side
    [_cand(0, 5, 8, 0.0), _cand(1, 2, 5, -1.0), _cand(2, 8, 10, -1.0)], math.inf,
))
@example((  # one shared frame with a held candidate, on either side
    [_cand(0, 5, 8, 0.0), _cand(1, 2, 5, -1.0), _cand(2, 8, 10, -1.0)], 6,
))
@example((  # touching a kept candidate end to start is no overlap
    [_cand(0, 5, 8, 0.0), _cand(1, 2, 4, -1.0), _cand(2, 9, 10, -1.0)], math.inf,
))
@example((  # ending just before the earliest held start is no overlap
    [_cand(0, 6, 12, 0.0), _cand(1, 3, 6, -1.0), _cand(2, 1, 2, -1.0)], 11,
))
def test_settle_matches_the_scanning_reference(case):
    """The bisecting sweep keeps and holds exactly what a scan over every
    kept and held candidate would, at a finite frontier and at infinity."""
    pending, frontier = case
    assert settle(pending, frontier) == reference_settle(pending, frontier)


# A few distinct cell values make score ties between hypotheses common.
CELLS = [float("-inf"), -4.0, -2.0, -1.0, -0.5, 0.0]


@st.composite
def search_cases(draw):
    vocab = draw(st.integers(2, 5))
    blank = draw(st.integers(0, vocab - 1))
    usable = [t for t in range(vocab) if t != blank]
    phrases = draw(
        st.lists(st.lists(st.sampled_from(usable), min_size=1, max_size=3), max_size=6)
    )
    unique = list(dict.fromkeys(tuple(p) for p in phrases))
    entries = [BiasEntry(i, f"kw{i}", p) for i, p in enumerate(unique)]
    n_frames = draw(st.integers(1, 14))
    cells = st.one_of(st.sampled_from(CELLS), st.floats(-6.0, 0.0))
    lp = np.array(
        draw(st.lists(st.lists(cells, min_size=vocab, max_size=vocab),
                      min_size=n_frames, max_size=n_frames))
    )
    cfg = SpotterConfig(
        cb_weight=draw(st.sampled_from([0.0, 0.5, 1.0, 3.0])),
        beam_threshold=draw(st.sampled_from([0.0, 0.5, 2.0, 7.0, float("inf")])),
        min_per_frame_score=draw(st.sampled_from([float("-inf"), -5.0, -1.0, 0.0, 0.5])),
        max_keyword_frames=draw(st.sampled_from([1, 2, 3, 200])),
        blank_id=blank,
    )
    cuts = sorted([0, n_frames, *draw(st.lists(st.integers(0, n_frames), max_size=4))])
    sizes = [b - a for a, b in zip(cuts, cuts[1:])]  # repeated cuts give empty chunks
    return build_graph(entries, vocab_size=vocab), lp, cfg, sizes


def _cand_keys(cands):
    return sorted((c.keyword_id, c.start_frame, c.end_frame, c.score) for c in cands)


@settings(max_examples=300, deadline=None)
@given(search_cases())
@example((  # empty graph
    build_graph([]), np.zeros((3, 2)), SpotterConfig(blank_id=1), [1, 0, 2],
))
@example((  # one root child refreshes its own live slot with a tie
    build_graph([BiasEntry(0, "a", (0,)), BiasEntry(1, "ab", (0, 1))]),
    np.array([[-1.0, -1.0, -1.0], [-1.0, -1.0, -1.0], [float("-inf"), -1.0, 0.0]]),
    SpotterConfig(cb_weight=1.0, beam_threshold=0.0, min_per_frame_score=-1.0,
                  max_keyword_frames=1, blank_id=2),
    [2, 1],
))
@example((  # a child lands exactly on the beam floor that fresh_best sets
    build_graph([BiasEntry(0, "ab", (0, 1))]),
    np.array([[-1.0, -4.0, -4.0], [-1.0, -2.0, -4.0]]),
    SpotterConfig(cb_weight=1.0, beam_threshold=1.0, blank_id=2),
    [1, 1],
))
@example((  # a child lands exactly on the beam floor that the top blank loop sets
    build_graph([BiasEntry(0, "ab", (0, 1))]),
    np.array([[0.0, -4.0, -4.0], [-4.0, -1.0, 0.0]]),
    SpotterConfig(cb_weight=0.0, beam_threshold=1.0, blank_id=2),
    [2],
))
@example((  # the top hypothesis is over the age cap, yet its blank loop sets best
    build_graph([BiasEntry(0, "a", (0,)), BiasEntry(1, "b", (1,))]),
    np.array([[0.0, -4.0, -4.0], [-4.0, -2.0, 0.0]]),
    SpotterConfig(cb_weight=0.0, beam_threshold=1.0, max_keyword_frames=1, blank_id=2),
    [1, 1],
))
def test_exact_admission_matches_full_admission(case):
    """Frame by frame over any chunking, the search admitting only fresh
    entries at or above the floor (or on a slot propagation filled) keeps
    the same survivors and candidates as admitting every root child."""
    graph, lp, cfg, sizes = case
    tables = reference_tables(graph)
    state, ref_state = {}, {}
    t = 0
    for n in sizes:
        for state, cands in _search(state, lp[t : t + n], t, graph.table, cfg, cfg.blank_id):
            ref_state, ref_cands = reference_step_frame(
                ref_state, lp[t].tolist(), t, *tables, cfg, cfg.blank_id
            )
            assert state == ref_state, t
            assert _cand_keys(cands) == _cand_keys(ref_cands), t
            t += 1
    assert t == lp.shape[0]
