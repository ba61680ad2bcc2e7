import json
import subprocess
import sys
import textwrap
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctcspot import (
    BiasEntry,
    SpotterConfig,
    SpotterSession,
    StreamingPipeline,
    build_graph,
    dedup_overlaps,
    generate,
    greedy_decode,
    make_spec,
    offline_pipeline,
    spot_offline,
    word_script,
)
from ctcspot import spotter
from ctcspot.formats import row_norm_error
from ctcspot.errors import DimensionMismatch, NonFiniteRows, PositiveLogProbs, SessionClosed

from conftest import (
    cand_key,
    random_entries,
    random_logprobs,
    random_partition,
    synthetic_vocab,
)

INVARIANT_CFG = dict(beam_threshold=7.0, min_per_frame_score=-5.0)


def _run_chunks(session, lp, sizes):
    """Feed lp in the given chunk sizes, checking session invariants."""
    finalized = []
    frontiers = []
    held, frontier = (), 0

    def take(res):
        nonlocal held, frontier
        # no live hypothesis starts before the last frontier, so a newly
        # finalized candidate was held then or starts at or after it
        for c in res.finalized:
            assert c in held or c.start_frame >= frontier
        held, frontier = res.held_preview.candidates, res.new_frontier
        finalized.extend(res.finalized)
        frontiers.append(res.new_frontier)

    i = 0
    for n in sizes:
        res = session.process_chunk(lp[i : i + n])
        i += n
        take(res)
        assert res.new_frontier <= session.frames_seen
        assert all(c.end_frame < res.new_frontier for c in res.finalized)
        assert session.frames_seen - res.new_frontier <= session.cfg.max_keyword_frames
    assert i == lp.shape[0]
    res = session.flush()
    take(res)
    assert res.new_frontier == session.frames_seen
    assert frontiers == sorted(frontiers)
    # committed intervals never overlap, in order of finalization
    last_end = -1
    for c in finalized:
        assert c.start_frame > last_end
        last_end = c.end_frame
    return finalized


def test_fresh_and_empty_graph_sessions():
    graph = build_graph([])
    session = SpotterSession(graph, SpotterConfig())
    res = session.flush()
    assert res.new_frontier == 0 and not res.finalized
    assert res.held_preview.active_tokens == 0
    session = SpotterSession(graph, SpotterConfig())
    lp = random_logprobs(np.random.default_rng(0), 12, 5)
    res = session.process_chunk(lp)
    assert res.new_frontier == 12
    assert not res.finalized and not res.held_preview.candidates


def test_double_flush_and_use_after_flush():
    session = SpotterSession(build_graph([]), SpotterConfig())
    session.flush()
    with pytest.raises(SessionClosed):
        session.flush()
    with pytest.raises(SessionClosed):
        session.process_chunk(np.zeros((0, 4)))


def test_hold_region_bounded_by_age_cap():
    rng = np.random.default_rng(8)
    graph = build_graph(random_entries(rng, 4, vocab=5, blank=4, max_len=3))
    cfg = SpotterConfig(blank_id=4, max_keyword_frames=1, **INVARIANT_CFG)
    session = SpotterSession(graph, cfg)
    for _ in range(30):
        res = session.process_chunk(random_logprobs(rng, int(rng.integers(1, 5)), 5))
        assert session.frames_seen - res.new_frontier <= 1


def test_blank_dominant_chunk_leaves_no_live_hypotheses():
    # fresh spawns starve on near-certain blank: per-frame score is far
    # below the floor, so the frontier tracks the frame counter
    graph = build_graph([BiasEntry(0, "kw", (0, 1))], vocab_size=4)
    cfg = SpotterConfig(blank_id=3, **INVARIANT_CFG, max_keyword_frames=200)
    session = SpotterSession(graph, cfg)
    cold = np.log(np.array([[1e-8, 1e-8, 1e-8, 1 - 3e-8]] * 6))
    res = session.process_chunk(cold)
    assert res.held_preview.active_tokens == 0
    assert res.new_frontier == session.frames_seen == 6


def test_age_cap_clears_lingering_hypotheses():
    # a boosted hypothesis keeps a positive score through silence, so only
    # the age cap retires it and lets the frontier catch up
    graph = build_graph([BiasEntry(0, "kw", (0,))], vocab_size=4)
    cfg = SpotterConfig(blank_id=3, beam_threshold=float("inf"),
                        min_per_frame_score=-5.0, max_keyword_frames=6)
    session = SpotterSession(graph, cfg)
    hot = np.log(np.array([[0.9, 0.04, 0.03, 0.03]] * 2))
    assert session.process_chunk(hot).held_preview.active_tokens > 0
    cold = np.log(np.array([[1e-8, 1e-8, 1e-8, 1 - 3e-8]] * 8))
    res = session.process_chunk(cold)
    assert res.held_preview.active_tokens == 0
    assert res.new_frontier == session.frames_seen == 10


def test_keyword_across_chunk_boundary():
    """Token 0 evidence at the end of chunk 1, token 1 at the start of
    chunk 2: chunk 1 holds, chunk 2 finalizes an interval crossing the cut."""
    blank_row = [0.01, 0.01, 0.01, 0.97]
    t0_row = [0.95, 0.01, 0.01, 0.03]
    t1_row = [0.01, 0.95, 0.01, 0.03]
    lp = np.log(np.array([blank_row, blank_row, t0_row, t1_row, blank_row, blank_row]))
    graph = build_graph([BiasEntry(0, "kw", (0, 1))], vocab_size=4)
    cfg = SpotterConfig(blank_id=3, cb_weight=3.0, beam_threshold=7.0,
                        min_per_frame_score=-1.0, max_keyword_frames=200)

    offline = dedup_overlaps(spot_offline(lp, graph, cfg))
    assert len(offline) == 1
    assert offline[0].start_frame <= 2 < 3 <= offline[0].end_frame

    session = SpotterSession(graph, cfg)
    first = session.process_chunk(lp[:3])
    assert first.new_frontier <= 2
    assert not first.finalized
    collected = list(first.finalized)
    second = session.process_chunk(lp[3:])
    collected += second.finalized + session.flush().finalized
    assert [cand_key(c) for c in collected] == [cand_key(c) for c in offline]
    assert collected[0].start_frame < 3 <= collected[0].end_frame


def _kw_then_end_of_chunk():
    blank_row = [0.01, 0.01, 0.01, 0.97]
    t0_row = [0.95, 0.01, 0.01, 0.03]
    t1_row = [0.01, 0.95, 0.01, 0.03]
    return np.log(np.array([blank_row, t0_row, t1_row]))


def test_flush_finalizes_held_candidate():
    # the hypothesis on "kw" can still grow into "kw2", whose candidate
    # could beat kw's per frame, so it holds the frontier until flush
    entries = [BiasEntry(0, "kw", (0, 1)), BiasEntry(1, "kw2", (0, 1, 2))]
    graph = build_graph(entries, vocab_size=4)
    cfg = SpotterConfig(blank_id=3, **INVARIANT_CFG, max_keyword_frames=200)
    session = SpotterSession(graph, cfg)
    res = session.process_chunk(_kw_then_end_of_chunk())
    assert not res.finalized  # the hypothesis is still alive at chunk end
    assert res.held_preview.candidates
    final = session.flush()
    assert len(final.finalized) == 1
    assert final.new_frontier == 3


def test_hypothesis_beaten_by_its_own_candidate_does_not_hold_the_frontier():
    # on a leaf, the live hypothesis can only emit longer candidates for
    # the same keyword, each ranked below the one it already emitted
    graph = build_graph([BiasEntry(0, "kw", (0, 1))], vocab_size=4)
    cfg = SpotterConfig(blank_id=3, **INVARIANT_CFG, max_keyword_frames=200)
    session = SpotterSession(graph, cfg)
    res = session.process_chunk(_kw_then_end_of_chunk())
    assert res.held_preview.active_tokens > 0
    assert [(c.keyword_id, c.start_frame, c.end_frame) for c in res.finalized] == [(0, 1, 2)]
    assert not res.held_preview.candidates
    assert res.new_frontier == 3
    final = session.flush()
    assert not final.finalized
    assert final.new_frontier == 3


def test_single_frame_chunks_match_offline():
    rng = np.random.default_rng(21)
    for _ in range(25):
        vocab = int(rng.integers(3, 8))
        graph = build_graph(random_entries(rng, 4, vocab=vocab, blank=vocab - 1, max_len=3))
        cfg = SpotterConfig(blank_id=vocab - 1, max_keyword_frames=10_000, **INVARIANT_CFG)
        n_frames = int(rng.integers(1, 30))
        lp = random_logprobs(rng, n_frames, vocab)
        offline = dedup_overlaps(spot_offline(lp, graph, cfg))
        session = SpotterSession(graph, cfg)
        streamed = _run_chunks(session, lp, [1] * n_frames)
        assert sorted(map(cand_key, streamed)) == sorted(map(cand_key, offline))


def test_random_partitions_match_offline():
    rng = np.random.default_rng(22)
    for _ in range(40):
        vocab = int(rng.integers(3, 10))
        graph = build_graph(random_entries(rng, 5, vocab=vocab, blank=vocab - 1, max_len=4))
        beam = float("inf") if rng.random() < 0.5 else 7.0
        cfg = SpotterConfig(blank_id=vocab - 1, beam_threshold=beam,
                            min_per_frame_score=-5.0, max_keyword_frames=10_000)
        n_frames = int(rng.integers(1, 50))
        lp = random_logprobs(rng, n_frames, vocab)
        offline = dedup_overlaps(spot_offline(lp, graph, cfg))
        session = SpotterSession(graph, cfg)
        streamed = _run_chunks(session, lp, random_partition(rng, n_frames))
        assert sorted(map(cand_key, streamed)) == sorted(map(cand_key, offline))


@pytest.mark.parametrize("frames_per_chunk", [1, 4, 28])
def test_wide_root_fan_out_matches_offline(frames_per_chunk):
    """The other invariance cases have a few root children; here the
    per-chunk fresh-entry table is 60 or more columns wide. Phrases of two
    or three tokens, so that no one-frame keyword wins every frame."""
    rng = np.random.default_rng(23)
    vocab = 72
    phrases = [e.tokens for e in random_entries(rng, 300, vocab=vocab, blank=vocab - 1, max_len=3)]
    graph = build_graph(
        [BiasEntry(i, f"kw{i}", p) for i, p in enumerate(p for p in phrases if len(p) > 1)]
    )
    assert len(graph.root_tok) >= 60
    cfg = SpotterConfig(blank_id=vocab - 1, max_keyword_frames=10_000, **INVARIANT_CFG)
    n_frames = 90
    lp = random_logprobs(rng, n_frames, vocab)
    offline = dedup_overlaps(spot_offline(lp, graph, cfg))
    assert any(c.num_frames > 1 for c in offline)
    sizes = [frames_per_chunk] * (n_frames // frames_per_chunk) + [n_frames % frames_per_chunk]
    streamed = _run_chunks(SpotterSession(graph, cfg), lp, sizes)
    assert sorted(map(cand_key, streamed)) == sorted(map(cand_key, offline))


def test_holding_fresh_entries_changes_no_output_on_noise():
    """Near-flat noise at vocabulary 256 admits about 150 fresh entries per
    frame, a third of which die on the next. Holding the admitted entries
    on empty slots out of the state on every frame but a chunk's last
    (threshold 1), and letting in the next frame only those that reach its
    cut, gives the same candidates in the same order, offline and at every
    chunking, as inserting them all (a threshold above the number of root
    children)."""
    rng = np.random.default_rng(41)
    vocab = 256
    graph = build_graph(random_entries(rng, 400, vocab=vocab, blank=vocab - 1, max_len=4))
    cfg = SpotterConfig(blank_id=vocab - 1)
    x = rng.standard_normal((120, vocab)) * 1.6
    lp = x - np.log(np.exp(x).sum(axis=1, keepdims=True))

    def outputs(min_filtered):
        with mock.patch.object(spotter, "_MIN_FILTERED", min_filtered), \
                mock.patch.object(spotter, "_escape_table", wraps=spotter._escape_table) as escapes:
            out = [spot_offline(lp, graph, cfg)]
            for n in (1, 4, 28):
                session = SpotterSession(graph, cfg)
                out.append([session.process_chunk(lp[a : a + n]) for a in range(0, len(lp), n)])
                out[-1].append(session.flush())
        assert escapes.called == (min_filtered == 1)
        return out

    held = outputs(1)
    assert len(held[0]) > 100
    assert held == outputs(len(graph.root_tok) + 1)


LAYOUTS = {
    "fortran": np.asfortranarray,
    "column-strided": lambda lp: np.repeat(lp, 2, axis=1)[:, ::2],
    "big-endian": lambda lp: lp.astype(">f8"),
}


def _streamed(graph, cfg, vocab, lp, sizes):
    """Every chunk's output, the final one and the words of a pipeline fed
    ``lp`` in chunks of ``sizes``."""
    pipe = StreamingPipeline(graph, cfg, vocab=vocab)
    outs, i = [], 0
    for n in sizes:
        outs.append(pipe.process_chunk(lp[i : i + n]))
        i += n
    outs.append(pipe.flush())
    return outs, pipe.emitted_words


@pytest.mark.parametrize("layout", LAYOUTS)
def test_every_input_layout_matches_the_c_contiguous_matrix(layout):
    """The search reads each row through a memoryview of the checked
    matrix. A Fortran-order, column-strided or big-endian input gives every
    entry point the same candidates, chunk outputs and words as its
    C-contiguous copy."""
    rng = np.random.default_rng(24)
    vocab_size = 7
    vocab = synthetic_vocab(vocab_size, rng)
    for _ in range(10):
        graph = build_graph(random_entries(rng, 5, vocab=vocab_size, blank=6, max_len=3))
        cfg = SpotterConfig(blank_id=6, max_keyword_frames=10_000, **INVARIANT_CFG)
        lp = random_logprobs(rng, int(rng.integers(2, 40)), vocab_size)
        other = LAYOUTS[layout](lp)
        assert not (other.flags.c_contiguous and other.dtype.isnative)
        sizes = random_partition(rng, lp.shape[0])
        assert spot_offline(other, graph, cfg) == spot_offline(lp, graph, cfg)
        assert _run_chunks(SpotterSession(graph, cfg), other, sizes) == _run_chunks(
            SpotterSession(graph, cfg), lp, sizes
        )
        assert _streamed(graph, cfg, vocab, other, sizes) == _streamed(
            graph, cfg, vocab, lp, sizes
        )


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 48))
def test_float32_input_gives_the_results_of_its_float64_widening(seed, n_frames):
    """Each entry point keeps a float32 matrix float32 and sums in float64,
    so it returns what the matrix widened to float64 gives, bit for bit:
    candidates, live states after each chunk, words, chunk outputs and the
    row check. The matrices hold -inf cells and ties at the row maximum,
    which the argmax and the prune compares must break alike."""
    rng = np.random.default_rng(seed)
    vocab_size = int(rng.integers(3, 9))
    blank = vocab_size - 1
    vocab = synthetic_vocab(vocab_size, rng)
    graph = build_graph(random_entries(rng, 8, vocab=vocab_size, blank=blank, max_len=3))
    cfg = SpotterConfig(blank_id=blank, cb_weight=float(rng.uniform(0.5, 4.0)),
                        max_keyword_frames=int(rng.integers(1, 30)), **INVARIANT_CFG)
    lp32 = random_logprobs(rng, n_frames, vocab_size).astype(np.float32)
    lp32[rng.random(lp32.shape) < 0.1] = -np.inf
    for t in np.flatnonzero(rng.random(n_frames) < 0.4):
        lp32[t, rng.integers(vocab_size)] = lp32[t].max()
    lp64 = lp32.astype(np.float64)
    sizes = random_partition(rng, n_frames)

    def results(lp):
        states, out, t = [], [], 0
        for n in sizes:
            state = spotter._search(states[-1] if states else {}, lp[t : t + n], t, graph, cfg,
                                    blank, out)
            states.append(state)
            t += n
        return {
            "spot_offline": spot_offline(lp, graph, cfg),
            "spot_undominated": spotter.spot_undominated(lp, graph, cfg),
            "offline_pipeline": offline_pipeline(lp, graph, cfg, vocab=vocab),
            "StreamingPipeline": _streamed(graph, cfg, vocab, lp, sizes),
            "greedy_decode": greedy_decode(lp, vocab, blank),
            "chunked candidates": out,
            "chunked states": states,
            "row_norm_error": row_norm_error(lp),
        }

    assert results(lp32) == results(lp64)


def test_chunk_width_must_stay_constant():
    graph = build_graph([BiasEntry(0, "kw", (0,))], vocab_size=4)
    session = SpotterSession(graph, SpotterConfig(blank_id=3))
    session.process_chunk(random_logprobs(np.random.default_rng(0), 3, 4))
    with pytest.raises(DimensionMismatch):
        session.process_chunk(random_logprobs(np.random.default_rng(0), 3, 5))


def test_empty_chunk_is_a_no_op():
    graph = build_graph([BiasEntry(0, "kw", (0, 1))], vocab_size=4)
    session = SpotterSession(graph, SpotterConfig(blank_id=3))
    lp = random_logprobs(np.random.default_rng(4), 5, 4)
    prev = session.process_chunk(lp[:2])
    before = (session.frames_seen, prev.new_frontier)
    res = session.process_chunk(lp[2:2])
    assert not res.finalized
    assert res.held_preview == prev.held_preview
    assert (session.frames_seen, res.new_frontier) == before


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_chunk_is_rejected(bad):
    """A NaN hypothesis fails every prune compare and would pin the frontier.
    The rejected chunk leaves no trace: the valid rest streams as offline."""
    graph = build_graph([BiasEntry(0, "kw", (0, 1))], vocab_size=4)
    cfg = SpotterConfig(blank_id=3, **INVARIANT_CFG)
    session = SpotterSession(graph, cfg)
    lp = random_logprobs(np.random.default_rng(9), 8, 4)
    first = session.process_chunk(lp[:4])
    finalized = list(first.finalized)
    state = (session.frames_seen, first.new_frontier)
    chunk = lp[4:].copy()
    chunk[1, 0] = bad
    with pytest.raises(NonFiniteRows):
        session.process_chunk(chunk)
    # an empty chunk reports the frontier without moving it
    assert (session.frames_seen, session.process_chunk(lp[4:4]).new_frontier) == state
    finalized += session.process_chunk(lp[4:]).finalized
    finalized += session.flush().finalized
    assert finalized == dedup_overlaps(spot_offline(lp, graph, cfg))


def test_positive_cell_is_rejected_before_any_state_changes():
    """The frontier bounds what a live hypothesis can still score by taking
    every cell to be at most 0, so a cell above 0 is refused on both paths;
    a rejected chunk leaves the aligner and the spotter in step."""
    rng = np.random.default_rng(43)
    vocab = synthetic_vocab(4, rng)
    graph = build_graph([BiasEntry(0, "kw", (0, 1))], vocab_size=4)
    cfg = SpotterConfig(blank_id=3, **INVARIANT_CFG)
    lp = random_logprobs(rng, 8, 4)
    bad = lp.copy()
    bad[5, 1] = 0.25
    with pytest.raises(PositiveLogProbs):
        spot_offline(bad, graph, cfg)
    pipe = StreamingPipeline(graph, cfg, vocab=vocab)
    pipe.process_chunk(lp[:4])
    with pytest.raises(PositiveLogProbs):
        pipe.process_chunk(bad[4:])
    assert pipe.aligner.frames_seen == pipe.spotter.frames_seen == 4
    lp[5, 1] = 0.0  # log 1 is a legal cell
    pipe.process_chunk(lp[4:])
    pipe.flush()
    assert pipe.transcript == offline_pipeline(lp, graph, cfg, vocab=vocab)[0]


def test_minus_infinity_cells_are_legal_in_a_chunk():
    graph = build_graph([BiasEntry(0, "kw", (0, 1))], vocab_size=4)
    cfg = SpotterConfig(blank_id=3, **INVARIANT_CFG)
    lp = random_logprobs(np.random.default_rng(10), 12, 4)
    lp[3, 0] = lp[5, :3] = -np.inf
    offline = dedup_overlaps(spot_offline(lp, graph, cfg))
    streamed = _run_chunks(SpotterSession(graph, cfg), lp, [5, 7])
    assert sorted(map(cand_key, streamed)) == sorted(map(cand_key, offline))


def _run_optimized(script: str, *args: str) -> str:
    """Runs ``script`` in a child interpreter that strips asserts
    (``python -O``); returns its stdout."""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-B", "-O", "-c", script, *args],
        capture_output=True, text=True, timeout=60,
        env={"PYTHONPATH": str(src), "PATH": ""},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_session_invariant_survives_python_O():
    """Session invariants raise typed errors, which ``python -O`` keeps: a
    frontier moving back, and each ``InvariantViolation`` site (the commit
    boundary moving back, a candidate still held after ``flush``, and a
    finalized candidate overlapping an earlier one). No input reaches all
    but the commit case, so session fields force them."""
    script = textwrap.dedent(
        """
        import numpy as np
        from ctcspot import (
            CommitState, HeldPreview, MergePolicy, SpotChunkResult, SpottedCandidate,
            SpotterConfig, SpotterSession, build_graph, commit_step,
        )
        from ctcspot.errors import FrontierRegression, InvariantViolation

        assert False, "asserts must be stripped in this interpreter"

        def session():
            session = SpotterSession(build_graph([]), SpotterConfig(blank_id=3))
            session.process_chunk(np.log(np.full((4, 4), 0.25)))
            return session

        def frontier_moves_back():
            forced = session()
            forced._frontier = 10  # a frontier ahead of every frame seen
            forced.process_chunk(np.zeros((0, 4)))

        def commit_moves_back():
            state = CommitState(MergePolicy(), {})
            commit_step(state, SpotChunkResult(10, [], HeldPreview((), 0)))
            held = SpottedCandidate(0, 5, 7, -1.0)
            commit_step(state, SpotChunkResult(10, [], HeldPreview((held,), 0)))

        def held_after_flush():
            forced = session()
            forced._pending = [SpottedCandidate(0, 2, 4, -1.0)]  # ends after the last frame
            forced.flush()

        def finalized_overlap():
            forced = session()
            forced._pending = [SpottedCandidate(0, 0, 1, -1.0)]
            forced._last_final_end = 2  # as if a candidate ending at frame 2 was finalized
            forced.process_chunk(np.zeros((0, 4)))

        cases = (frontier_moves_back, commit_moves_back, held_after_flush, finalized_overlap)
        for case in cases:
            try:
                case()
            except (FrontierRegression, InvariantViolation) as exc:
                print(type(exc).__name__, exc)
        """
    )
    assert _run_optimized(script).splitlines() == [
        "FrontierRegression frontier moved from 10 back to 4",
        "InvariantViolation commit boundary moved from 10 back to 5",
        "InvariantViolation candidates still held after flush",
        "InvariantViolation finalized candidate starting at 0 overlaps one ending at 2",
    ]


def test_streaming_at_160_ms_under_python_O_matches_offline(tmp_path):
    """One synth utterance streamed in 160 ms chunks by an interpreter that
    strips asserts gives the offline transcript and candidates exactly."""
    rng = np.random.default_rng(41)
    vocab = synthetic_vocab(12, rng)
    blank = len(vocab) - 1
    entries = random_entries(rng, 6, len(vocab), blank, max_len=3)
    words = [
        entries[i % len(entries)].tokens if i % 3 == 0 else (int(rng.integers(0, blank)),)
        for i in range(40)
    ]
    script = word_script(words, blank, frames_per_token=2, gap_frames=2, peak=0.7)
    lp, _ = generate(make_spec(7, len(vocab), blank, script))
    np.save(tmp_path / "utt.npy", lp)
    setup = {"vocab": vocab, "entries": [[e.keyword_id, e.surface, e.tokens] for e in entries]}
    (tmp_path / "setup.json").write_text(json.dumps(setup), encoding="utf-8")
    child = textwrap.dedent(
        """
        import json, sys
        import numpy as np
        from ctcspot import BiasEntry, SpotterConfig, SpotterSession, StreamingPipeline, build_graph
        from ctcspot.formats import chunker

        assert False, "asserts must be stripped in this interpreter"
        setup = json.load(open(sys.argv[1] + "/setup.json", encoding="utf-8"))
        lp = np.load(sys.argv[1] + "/utt.npy")
        graph = build_graph(BiasEntry(k, s, tuple(t)) for k, s, t in setup["entries"])
        cfg = SpotterConfig(blank_id=len(setup["vocab"]) - 1)
        pipe = StreamingPipeline(graph, cfg, vocab=setup["vocab"])
        session = SpotterSession(graph, cfg)
        finalized = []
        for chunk in chunker(lp, 160.0, 40.0):
            pipe.process_chunk(chunk)
            finalized += session.process_chunk(chunk).finalized
        pipe.flush()
        finalized += session.flush().finalized
        cands = [[c.keyword_id, c.start_frame, c.end_frame, c.score] for c in finalized]
        print(json.dumps({"transcript": pipe.transcript, "candidates": cands}))
        """
    )
    streamed = json.loads(_run_optimized(child, str(tmp_path)))

    graph = build_graph(entries)
    cfg = SpotterConfig(blank_id=blank)
    offline = dedup_overlaps(spot_offline(lp, graph, cfg))
    assert offline
    assert streamed["candidates"] == [
        [c.keyword_id, c.start_frame, c.end_frame, c.score] for c in offline
    ]
    assert streamed["transcript"] == offline_pipeline(lp, graph, cfg, vocab=vocab)[0]
