import dataclasses
import hashlib
import math
import pickle
from collections import defaultdict
from unittest import mock

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
    build_graph,
    dedup_overlaps,
    offline_pipeline,
    spot_offline,
)
from ctcspot import spotter
from ctcspot.errors import DimensionMismatch, NonFiniteRows, TokenOutOfRange
from ctcspot.spotter import _search, settle

from conftest import (
    overlaps,
    random_entries,
    random_logprobs,
    reference_settle,
    reference_step_frame,
    reference_tables,
    synthetic_vocab,
    traced_peak,
)
from oracle import brute_force_keyword_score, brute_force_scores_by_end

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
    ("max_keyword_frames", float("nan")),
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
                assert x is y or not overlaps(x, y)
        kept_set = {id(k) for k in kept}
        for c in cands:
            if id(c) in kept_set:
                continue
            better = [
                k for k in kept
                if overlaps(c, k)
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


def test_bias_entries_are_slotted():
    """A bias entry carries no instance dict either, since a bias list may
    hold tens of thousands; it stays a frozen, hashable, picklable value."""
    entry = BiasEntry(0, "kw", (1, 2))
    assert not hasattr(entry, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        entry.surface = "other"
    assert entry == BiasEntry(0, "kw", (1, 2)) != BiasEntry(1, "kw", (1, 2))
    assert hash(entry) == hash(BiasEntry(0, "kw", (1, 2)))
    assert pickle.loads(pickle.dumps(entry)) == entry


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
@example((  # the repeat of "ab" ties the step into it from a later "a", and keeps its start
    build_graph([BiasEntry(0, "ab", (0, 1))]),
    np.array([[-1.0, -4.0, -4.0], [-2.0, -1.0, -8.0], [-4.0, 0.0, -4.0]]),
    SpotterConfig(cb_weight=1.0, beam_threshold=2.0, blank_id=2),
    [3],
))
@example((  # a held frame's fresh "a" ties the repeat that filled its slot
    build_graph([BiasEntry(0, "a", (0,))]),
    np.array([[0.0, -4.0], [-1.0, -4.0], [-4.0, 0.0]]),
    SpotterConfig(cb_weight=1.0, beam_threshold=2.0, blank_id=1),
    [3],
))
@example((  # "ab" ends at exactly the age cap
    build_graph([BiasEntry(0, "ab", (0, 1))]),
    np.array([[0.0, -4.0, -4.0], [-4.0, 0.0, -4.0]]),
    SpotterConfig(cb_weight=1.0, max_keyword_frames=2, blank_id=2),
    [2],
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
@example((  # a fresh entry's step to a child lands exactly on the next frame's cut
    build_graph([BiasEntry(0, "ab", (0, 1)), BiasEntry(1, "ba", (1, 0))]),
    np.array([[-2.0, -4.0, 0.0], [-4.0, 0.0, -4.0]]),
    SpotterConfig(cb_weight=1.0, beam_threshold=1.0, blank_id=2),
    [2],
))
@example((  # a fresh entry's blank loop lands exactly on the next frame's cut
    build_graph([BiasEntry(0, "ac", (0, 2)), BiasEntry(1, "ba", (1, 0))]),
    np.array([[-0.5, -4.0, -4.0, 0.0], [-4.0, 0.0, -4.0, -0.5]]),
    SpotterConfig(cb_weight=1.0, beam_threshold=1.0, blank_id=3),
    [2],
))
# In each of the next four, frame 1 prunes an entry started at frame 0 by one
# rule alone while it admits the fresh entry "c".
@example((  # the beam floor prunes the blank loop of "a"
    build_graph([BiasEntry(0, "ab", (0, 1)), BiasEntry(1, "c", (2,))]),
    np.array([[0.0, -4.0, -4.0, -4.0], [-4.0, 0.0, -1.0, -2.0]]),
    SpotterConfig(cb_weight=1.0, beam_threshold=2.0, min_per_frame_score=float("-inf"),
                  blank_id=3),
    [2],
))
@example((  # the age cap prunes every entry started at frame 0
    build_graph([BiasEntry(0, "ab", (0, 1)), BiasEntry(1, "c", (2,))]),
    np.array([[0.0, -4.0, -4.0, -4.0], [-1.0, -1.0, -1.0, -1.0]]),
    SpotterConfig(cb_weight=1.0, beam_threshold=float("inf"),
                  min_per_frame_score=float("-inf"), max_keyword_frames=1, blank_id=3),
    [2],
))
@example((  # the per-frame floor prunes the blank loop and the repeat of "a"
    build_graph([BiasEntry(0, "ab", (0, 1)), BiasEntry(1, "c", (2,))]),
    np.array([[0.0, -4.0, -4.0, -4.0], [-4.0, -4.0, 0.0, -4.0]]),
    SpotterConfig(cb_weight=1.0, beam_threshold=float("inf"), min_per_frame_score=-1.0,
                  blank_id=3),
    [2],
))
@example((  # a better fresh entry below the floor displaces the repeat of "a"
    build_graph([BiasEntry(0, "ab", (0, 1)), BiasEntry(1, "c", (2,))]),
    np.array([[-0.25, -4.0, -4.0, -4.0], [-2.5, -2.0, 0.0, -1.0]]),
    SpotterConfig(cb_weight=1.0, beam_threshold=7.0, min_per_frame_score=-1.0, blank_id=3),
    [2],
))
def test_exact_admission_matches_full_admission(case):
    """Frame by frame, the search admitting only fresh entries at or above
    the floor (or on a slot propagation filled) keeps the same survivors
    and candidates as admitting every root child; searching each chunk of
    any chunking in one call ends in the same state with the same
    candidates, also when every frame but a chunk's last holds its fresh
    entries on empty slots out of the state, and the next frame lets in
    only those that reach its cut (one-frame calls never hold any). In
    tables of 2 rows, an entry held on a block's last row is let in with
    the next block's escape table."""
    graph, lp, cfg, sizes = case
    tables = reference_tables(graph)
    state, ref_state, per_frame = {}, {}, []
    for t in range(lp.shape[0]):
        cands = []
        state = _search(state, lp[t : t + 1], t, graph, cfg, cfg.blank_id, cands)
        ref_state, ref_cands = reference_step_frame(
            ref_state, lp[t].tolist(), t, *tables, cfg, cfg.blank_id
        )
        assert state == ref_state, t
        assert _cand_keys(cands) == _cand_keys(ref_cands), t
        per_frame.extend(cands)
    for min_filtered, block_rows in ((spotter._MIN_FILTERED, spotter._BLOCK_ROWS),
                                     (1, spotter._BLOCK_ROWS), (1, 2)):
        chunked_state, chunked, t = {}, [], 0
        with mock.patch.object(spotter, "_MIN_FILTERED", min_filtered), \
                mock.patch.object(spotter, "_BLOCK_ROWS", block_rows):
            for n in sizes:
                chunked_state = _search(
                    chunked_state, lp[t : t + n], t, graph, cfg, cfg.blank_id, chunked
                )
                t += n
        assert t == lp.shape[0]
        assert chunked_state == state, (min_filtered, block_rows)
        assert chunked == per_frame, (min_filtered, block_rows)


def _order_case():
    """Near-flat input in which all four prune rules fire and most frames
    admit enough fresh entries to be filtered. Every cell is -k/8, so every
    score is an exact sum and the digests below do not depend on the
    platform's exp or log."""
    rng = np.random.default_rng(24)
    vocab = 40
    graph = build_graph(random_entries(rng, 300, vocab=vocab, blank=vocab - 1))
    lp = rng.integers(-40, 1, size=(56, vocab)) / 8.0
    cfg = SpotterConfig(cb_weight=1.0, beam_threshold=6.0, min_per_frame_score=-1.0,
                        max_keyword_frames=6, blank_id=vocab - 1)
    return graph, lp, cfg


def _digest(rows) -> str:
    """sha256 of rows of ints and floats, in order, floats written in hex."""
    text = "\n".join(
        " ".join(x.hex() if isinstance(x, float) else str(x) for x in row) for row in rows
    )
    return hashlib.sha256(text.encode()).hexdigest()


# Recorded at commit 50969bd, whose prune loop copied the survivors into a new dict.
ORDER_DIGESTS = {
    "offline": "5390e82203b7a3af1d2892046af331975bb66c4772dd8e2106bb0f74a1ba8577",
    "undominated": "e64aa5d6655fdc74e9ef082b0b06f72e378f33de82f99dceaf0564f173436767",
    "states-1": "8dd54e8e1c22e745beacfc37042af13c9686f5b239ef204cac2de5446a832768",
    "states-4": "4783fecd2070a5c0e8737dc83a9642c64d61c4ba241c2118d92ba53d3fafd13f",
    "states-28": "3901a2d25d0031ad0d63663b8d9aca51875d6982eacd031a0f58bc9398db11f3",
}


def test_candidate_and_state_order_is_pinned():
    """The search appends candidates and keeps live hypotheses in one fixed
    order, not only the same sets: the candidate lists of both whole-
    utterance paths and the state after each call, at 1-, 4- and 28-frame
    chunks, hash to the digests recorded before the prune loop changed."""
    graph, lp, cfg = _order_case()
    blank = cfg.blank_id
    offline = spot_offline(lp, graph, cfg)
    undominated = spotter.spot_undominated(lp, graph, cfg)
    digests = {
        name: _digest((c.keyword_id, c.start_frame, c.end_frame, c.score) for c in cands)
        for name, cands in (("offline", offline), ("undominated", undominated))
    }
    for size in (1, 4, 28):
        state, ranks, out, rows = {}, [], [], []
        for t in range(0, lp.shape[0], size):
            state = _search(state, lp[t : t + size], t, graph, cfg, blank, out, ranks)
            rows.extend((t, key, score, start) for key, (score, start) in state.items())
        assert out == undominated, size
        digests[f"states-{size}"] = _digest(rows)
    assert digests == ORDER_DIGESTS


def test_candidate_and_state_order_is_pinned_across_row_blocks():
    """The same digests with fresh-entry tables of 8 rows: the 56-frame
    whole-utterance calls and the 28-frame chunks then cross block
    boundaries, where the entries held on a block's last frame are let in
    with the next block's escape table."""
    with mock.patch.object(spotter, "_BLOCK_ROWS", 8):
        test_candidate_and_state_order_is_pinned()


# Cases over exact cells (cb_weight 1, beam 2, blank last). Frame 0 admits
# every root child on an empty state, so with threshold 1 it holds them all;
# frame 1 shows whether the held ones are let in, and with a rank index whether
# the held terminals enter it, as the full search has them. The last four hold
# again at frame 1.
_HELD_CASES = {
    # "b" enters a beam below "a"; its blank loop at frame 1 is exactly the cut
    "blank loop at the cut": (
        [BiasEntry(0, "a", (0,)), BiasEntry(1, "bc", (1, 2))],
        [[0.0, -2.0, -4.0, -4.0], [-4.0, -4.0, -4.0, 0.0]],
    ),
    # "b" steps to "c" at frame 1 at exactly the cut set by the fresh "a"
    "step at the cut": (
        [BiasEntry(0, "a", (0,)), BiasEntry(1, "bc", (1, 2))],
        [[0.0, -2.0, -4.0, -4.0], [0.0, -4.0, -1.0, -4.0]],
    ),
    # the held "b" sets frame 1's cut; under a lower one, the repeat of "a"
    # (the first root child) would fill the slot that the fresh "a" then
    # takes, ahead of "b"'s blank loop instead of after it
    "held top sets the cut": (
        [BiasEntry(0, "b", (1,)), BiasEntry(1, "a", (0,))],
        [[-1.5, 0.0, -4.0], [-1.0, -8.0, 0.0]],
    ),
    # at frame 1 the held "a" beats the blank loop of "a" on its own node and
    # is emitted over frame 1 alone
    "held above its blank loop": (
        [BiasEntry(0, "a", (0,)), BiasEntry(1, "b", (1,))],
        [[-2.0, 0.0, -4.0], [-1.0, -4.0, 0.0], [-4.0, -4.0, 0.0]],
    ),
    # the held "a" ties that blank loop, which keeps its earlier start; the
    # candidate over frames 0-1 then contains frame 0's "b" and is dropped
    "held at its blank loop": (
        [BiasEntry(0, "a", (0,)), BiasEntry(1, "b", (1,))],
        [[-2.0, 0.0, -4.0], [-2.0, -4.0, 0.0], [-4.0, -4.0, 0.0]],
    ),
    # "a" and "b" are held at one score at frame 1; the smaller keyword id
    # wins, though "b" is the first root child
    "held tie on score": (
        [BiasEntry(0, "a", (0,)), BiasEntry(1, "b", (1,))],
        [[-4.0, -4.0, 0.0], [0.0, 0.0, -4.0], [-4.0, -4.0, 0.0]],
    ),
    # the fresh "a" recombines on the slot its repeat filled and outranks the
    # held "b"
    "recombined beats held": (
        [BiasEntry(0, "a", (0,)), BiasEntry(1, "b", (1,))],
        [[-1.0, -4.0, -4.0], [0.0, -0.5, -4.0], [-4.0, -4.0, 0.0]],
    ),
}


@pytest.mark.parametrize("name", _HELD_CASES)
def test_held_entries_are_let_in_exactly_as_the_full_search_keeps_them(name):
    """An entry held out of the state is let in when an expansion of it is
    at or above the next frame's cut, ties included, and that cut counts
    the held entries' top score. With a rank index, which emits at most the
    best-ranked one-frame candidate of a frame, the rank walk gets only the
    best held terminal, after a held one on a node already at a terminal
    through its blank sub-state takes that node when strictly better. With
    and without an index, the state after the call, in order, the
    candidates and the index equal those of one-frame calls, which never
    hold an entry."""
    entries, rows = _HELD_CASES[name]
    graph = build_graph(entries)
    lp = np.array(rows)
    blank = lp.shape[1] - 1
    cfg = SpotterConfig(cb_weight=1.0, beam_threshold=2.0, min_per_frame_score=-10.0,
                        blank_id=blank)
    for index in (None, []):
        ref_state, ref_out, ref_ranks = {}, [], None if index is None else []
        for t in range(lp.shape[0]):
            ref_state = _search(ref_state, lp[t : t + 1], t, graph, cfg, blank, ref_out, ref_ranks)
        out, ranks = [], None if index is None else []
        with mock.patch.object(spotter, "_MIN_FILTERED", 1), \
                mock.patch.object(spotter, "_escape_table", wraps=spotter._escape_table) as escapes:
            state = _search({}, lp, 0, graph, cfg, blank, out, ranks)
        assert escapes.called
        assert list(state.items()) == list(ref_state.items())
        assert out == ref_out
        assert ranks == ref_ranks


class _LayoutProbe(np.ndarray):
    """Records whether each 2-d array derived from it, with more than one
    row and one column, is C-contiguous."""

    seen: list[bool] = []

    def __array_finalize__(self, obj):
        if obj is not None and self.ndim == 2 and min(self.shape) > 1:
            _LayoutProbe.seen.append(self.flags.c_contiguous)


def test_search_tables_are_c_ordered():
    """Every frames x columns table the search derives from a chunk is
    C-ordered, so each frame's row and row maximum read contiguous memory;
    ``lp[:, root_tok]`` would come back in Fortran order. With fresh entries
    held on every frame (threshold 1), the search also gathers the escape
    tables, at most once per block and never more rows than a block; with
    none held (a threshold above the number of root children), it gathers
    none. A 10-row chunk fits one default block; in blocks of 4 rows, it
    gathers three fresh-entry tables, one per block, and all are checked."""
    rng = np.random.default_rng(31)
    vocab = 16
    graph = build_graph(random_entries(rng, 30, vocab=vocab, blank=vocab - 1, max_len=3))
    assert len(graph.root_tok) > 1
    lp = random_logprobs(rng, 10, vocab)
    for block_rows, gathers in ((spotter._BLOCK_ROWS, 1), (4, 3)):
        for min_filtered in (len(graph.root_tok) + 1, 1):
            _LayoutProbe.seen = []
            probe = lp.view(_LayoutProbe)
            with mock.patch.object(spotter, "_MIN_FILTERED", min_filtered), \
                    mock.patch.object(spotter, "_BLOCK_ROWS", block_rows), \
                    mock.patch.object(spotter, "_fresh_table",
                                      wraps=spotter._fresh_table) as tables, \
                    mock.patch.object(spotter, "_escape_table",
                                      wraps=spotter._escape_table) as escapes:
                _search({}, probe, 0, graph, SpotterConfig(blank_id=vocab - 1), vocab - 1, [])
            assert escapes.called == (min_filtered == 1)
            assert escapes.call_count <= gathers
            assert all(c.args[0].shape[0] <= block_rows for c in escapes.call_args_list)
            assert tables.call_count == gathers
            # the view above, each block's rows and each table
            assert len(_LayoutProbe.seen) > 2 * gathers
            assert all(_LayoutProbe.seen), _LayoutProbe.seen


def test_whole_utterance_search_holds_one_block_of_fresh_entries():
    """spot_offline over 1,024 frames and 1,024 root children gathers the
    fresh entries a block of rows at a time: a frames x root-children table
    would hold 8 MiB, and the call holds under a quarter of that."""
    vocab = 1025
    blank = vocab - 1
    entries = [BiasEntry(k, f"kw{k}", (k, (k + 1) % blank)) for k in range(blank)]
    graph = build_graph(entries)
    lp = np.full((1024, vocab), np.log(1e-6 / blank))
    lp[:, blank] = np.log1p(-1e-6)
    for t in (100, 500, 900):  # kw7 spoken three times, over silence
        lp[t : t + 2] = np.log(1e-6 / blank)
        lp[t, 7] = lp[t + 1, 8] = np.log1p(-1e-6)
    table = lp.shape[0] * len(graph.root_tok) * 8
    assert table >= 8 << 20
    out, peak = traced_peak(spot_offline, lp, graph, SpotterConfig())
    assert {(c.keyword_id, c.start_frame) for c in out} == {(7, 100), (7, 500), (7, 900)}
    assert peak < table / 4, peak / table
