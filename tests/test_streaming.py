import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from ctcspot import (
    BiasEntry,
    SpotterConfig,
    SpotterSession,
    StreamingPipeline,
    build_graph,
    dedup_overlaps,
    spot_offline,
)
from ctcspot.errors import DimensionMismatch, NonFiniteRows, SessionClosed

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
    i = 0
    for n in sizes:
        res = session.process_chunk(lp[i : i + n])
        i += n
        finalized.extend(res.finalized)
        frontiers.append(res.new_frontier)
        assert res.new_frontier <= session.frames_seen
        assert all(c.end_frame < res.new_frontier for c in res.finalized)
        assert session.frames_seen - res.new_frontier <= session.cfg.max_keyword_frames
        for tok in session.active_tokens():
            assert tok.start_frame >= res.new_frontier
    assert i == lp.shape[0]
    res = session.flush()
    finalized.extend(res.finalized)
    frontiers.append(res.new_frontier)
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
    assert session.active_count == 0
    res = session.flush()
    assert res.new_frontier == 0 and not res.finalized
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
        session.process_chunk(random_logprobs(rng, int(rng.integers(1, 5)), 5))
        assert session.frames_seen - session.commit_frontier <= 1


def test_blank_dominant_chunk_leaves_no_active_tokens():
    # fresh spawns starve on near-certain blank: per-frame score is far
    # below the floor, so the frontier tracks the frame counter
    graph = build_graph([BiasEntry(0, "kw", (0, 1))], vocab_size=4)
    cfg = SpotterConfig(blank_id=3, **INVARIANT_CFG, max_keyword_frames=200)
    session = SpotterSession(graph, cfg)
    cold = np.log(np.array([[1e-8, 1e-8, 1e-8, 1 - 3e-8]] * 6))
    res = session.process_chunk(cold)
    assert session.active_count == 0
    assert res.new_frontier == session.frames_seen == 6


def test_age_cap_clears_lingering_hypotheses():
    # a boosted hypothesis keeps a positive score through silence, so only
    # the age cap retires it and lets the frontier catch up
    graph = build_graph([BiasEntry(0, "kw", (0,))], vocab_size=4)
    cfg = SpotterConfig(blank_id=3, beam_threshold=float("inf"),
                        min_per_frame_score=-5.0, max_keyword_frames=6)
    session = SpotterSession(graph, cfg)
    hot = np.log(np.array([[0.9, 0.04, 0.03, 0.03]] * 2))
    session.process_chunk(hot)
    assert session.active_count > 0
    cold = np.log(np.array([[1e-8, 1e-8, 1e-8, 1 - 3e-8]] * 8))
    res = session.process_chunk(cold)
    assert session.active_count == 0
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


def test_flush_finalizes_held_candidate():
    blank_row = [0.01, 0.01, 0.01, 0.97]
    t0_row = [0.95, 0.01, 0.01, 0.03]
    t1_row = [0.01, 0.95, 0.01, 0.03]
    lp = np.log(np.array([blank_row, t0_row, t1_row]))
    graph = build_graph([BiasEntry(0, "kw", (0, 1))], vocab_size=4)
    cfg = SpotterConfig(blank_id=3, **INVARIANT_CFG, max_keyword_frames=200)
    session = SpotterSession(graph, cfg)
    res = session.process_chunk(lp)
    assert not res.finalized  # the hypothesis is still alive at chunk end
    assert res.held_preview.candidates
    final = session.flush()
    assert len(final.finalized) == 1
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


LAYOUTS = {
    "fortran": np.asfortranarray,
    "column-strided": lambda lp: np.repeat(lp, 2, axis=1)[:, ::2],
    "big-endian": lambda lp: lp.astype(">f8"),
}


def _pipeline_words(graph, cfg, vocab, lp, sizes):
    pipe = StreamingPipeline(graph, cfg, vocab=vocab)
    i = 0
    for n in sizes:
        pipe.process_chunk(lp[i : i + n])
        i += n
    pipe.flush()
    return pipe.emitted_words


@pytest.mark.parametrize("layout", LAYOUTS)
def test_every_input_layout_matches_the_c_contiguous_matrix(layout):
    """The search reads each row through a memoryview of the checked
    matrix. A Fortran-order, column-strided or big-endian input gives every
    entry point the same candidates and words as its C-contiguous copy."""
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
        assert _pipeline_words(graph, cfg, vocab, other, sizes) == _pipeline_words(
            graph, cfg, vocab, lp, sizes
        )


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
    session.process_chunk(lp[:2])
    before = (session.frames_seen, session.commit_frontier, session.active_count,
              session.pending_candidates)
    res = session.process_chunk(lp[2:2])
    assert not res.finalized
    after = (session.frames_seen, session.commit_frontier, session.active_count,
             session.pending_candidates)
    assert before == after


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_chunk_is_rejected(bad):
    """A NaN hypothesis fails every prune compare and would pin the frontier."""
    graph = build_graph([BiasEntry(0, "kw", (0, 1))], vocab_size=4)
    session = SpotterSession(graph, SpotterConfig(blank_id=3, **INVARIANT_CFG))
    lp = random_logprobs(np.random.default_rng(9), 8, 4)
    session.process_chunk(lp[:4])
    state = (session.frames_seen, session.commit_frontier, session.active_tokens())
    chunk = lp[4:].copy()
    chunk[1, 0] = bad
    with pytest.raises(NonFiniteRows):
        session.process_chunk(chunk)
    assert (session.frames_seen, session.commit_frontier, session.active_tokens()) == state


def test_minus_infinity_cells_are_legal_in_a_chunk():
    graph = build_graph([BiasEntry(0, "kw", (0, 1))], vocab_size=4)
    cfg = SpotterConfig(blank_id=3, **INVARIANT_CFG)
    lp = random_logprobs(np.random.default_rng(10), 12, 4)
    lp[3, 0] = lp[5, :3] = -np.inf
    offline = dedup_overlaps(spot_offline(lp, graph, cfg))
    streamed = _run_chunks(SpotterSession(graph, cfg), lp, [5, 7])
    assert sorted(map(cand_key, streamed)) == sorted(map(cand_key, offline))


def test_session_invariant_survives_python_O():
    """Session invariants raise typed errors, which ``python -O`` keeps."""
    script = textwrap.dedent(
        """
        import numpy as np
        from ctcspot import SpotterConfig, SpotterSession, build_graph
        from ctcspot.errors import FrontierRegression

        assert False, "asserts must be stripped in this interpreter"
        session = SpotterSession(build_graph([]), SpotterConfig(blank_id=3))
        session.process_chunk(np.log(np.full((4, 4), 0.25)))
        session._frontier = 10  # a frontier ahead of every frame seen
        try:
            session.process_chunk(np.zeros((0, 4)))
        except FrontierRegression:
            print("raised")
        """
    )
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, timeout=60,
        env={"PYTHONPATH": str(src), "PATH": ""},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "raised"
