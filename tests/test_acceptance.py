"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import time
from collections import defaultdict
from dataclasses import replace

import numpy as np
import pytest

from ctcspot import (
    BiasEntry,
    MergePolicy,
    ScriptSegment,
    SpotterConfig,
    SpotterSession,
    StreamingPipeline,
    build_graph,
    corpus_wer,
    dedup_overlaps,
    fscore,
    generate,
    greedy_decode,
    make_spec,
    merge_region,
    offline_pipeline,
    runtime_report,
    spot_offline,
)
from ctcspot.metrics import ChunkTiming, format_runtime_table

from conftest import (
    cand_key,
    random_entries,
    random_logprobs,
    random_partition,
    synthetic_vocab,
)
from oracle import brute_force_scores_by_end

_VOCAB_CACHE: dict[int, list[str]] = {}


def _vocab(vocab_size: int) -> list[str]:
    if vocab_size not in _VOCAB_CACHE:
        _VOCAB_CACHE[vocab_size] = synthetic_vocab(vocab_size, np.random.default_rng(vocab_size))
    return _VOCAB_CACHE[vocab_size]


def _stream_run(graph, cfg, vocab, lp, sizes):
    """One streaming run with all commit-safety invariants asserted.

    Returns (finalized candidates, transcript).
    """
    session_pipe = StreamingPipeline(graph, cfg, vocab=vocab)
    finalized = []
    emitted_text = ""
    prev_frontier = 0
    last_final_end = -1
    i = 0
    for n in sizes:
        out = session_pipe.process_chunk(lp[i : i + n])
        i += n
        # criterion 3: deltas are append-only
        new_text = session_pipe.transcript
        assert new_text.startswith(emitted_text)
        emitted_text = new_text
    out = session_pipe.flush()
    assert session_pipe.transcript.startswith(emitted_text)
    # collect finalized candidates via a parallel session run (the pipeline
    # consumed its own); cheaper: rerun the spotter alone
    session = SpotterSession(graph, cfg)
    i = 0
    for n in sizes:
        res = session.process_chunk(lp[i : i + n])
        i += n
        # criterion 3: frontier monotonicity and bounded hold
        assert res.new_frontier >= prev_frontier
        prev_frontier = res.new_frontier
        assert session.frames_seen - res.new_frontier <= cfg.max_keyword_frames
        for c in res.finalized:
            assert c.end_frame < res.new_frontier
            assert c.start_frame > last_final_end  # criterion 3: no overlap
            last_final_end = c.end_frame
        finalized.extend(res.finalized)
    res = session.flush()
    assert res.new_frontier == session.frames_seen
    for c in res.finalized:
        assert c.start_frame > last_final_end
        last_final_end = c.end_frame
    finalized.extend(res.finalized)
    return finalized, session_pipe.transcript


def test_criterion_1_chunk_invariance():
    rng = np.random.default_rng(2024)
    n_runs = 1000
    started = time.perf_counter()
    for run in range(n_runs):
        n_frames = int(rng.integers(1, 65))
        vocab_size = int(rng.integers(3, 17))
        blank = vocab_size - 1
        n_keywords = int(rng.integers(1, 9))
        entries = random_entries(rng, n_keywords, vocab_size, blank, max_len=4)
        graph = build_graph(entries, vocab_size=vocab_size)
        cfg = SpotterConfig(
            cb_weight=float(rng.choice([0.0, 3.0])),
            beam_threshold=float(rng.choice([7.0, float("inf")])),
            min_per_frame_score=-5.0,
            max_keyword_frames=int(rng.integers(1, 2 * n_frames + 2)),
            blank_id=blank,
        )
        vocab = _vocab(vocab_size)
        lp = random_logprobs(rng, n_frames, vocab_size)

        offline_cands = dedup_overlaps(spot_offline(lp, graph, cfg))
        offline_text, _, _ = offline_pipeline(lp, graph, cfg, vocab=vocab)

        sizes = random_partition(rng, n_frames)
        streamed, streamed_text = _stream_run(graph, cfg, vocab, lp, sizes)

        assert len(streamed) == len(offline_cands), f"run {run}"
        for s, o in zip(
            sorted(streamed, key=cand_key), sorted(offline_cands, key=cand_key)
        ):
            assert (s.keyword_id, s.start_frame, s.end_frame) == (
                o.keyword_id,
                o.start_frame,
                o.end_frame,
            ), f"run {run}"
            assert abs(s.score - o.score) <= 1e-6, f"run {run}"
        assert streamed_text == offline_text, f"run {run}"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"invariance suite took {elapsed:.1f}s"
    print(f"\n[acceptance] criterion 1 (chunk invariance, {n_runs} runs, "
          f"{elapsed:.1f}s): PASS")


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(7)
    n_runs = 500
    for run in range(n_runs):
        n_frames = int(rng.integers(1, 9))
        vocab_size = int(rng.integers(2, 5))
        blank = vocab_size - 1
        lp = random_logprobs(rng, n_frames, vocab_size)
        klen = int(rng.integers(1, 4))
        keyword = tuple(int(rng.integers(0, max(1, vocab_size - 1))) for _ in range(klen))
        cb = float(rng.choice([0.0, 1.5, 3.0]))
        cfg = SpotterConfig(
            cb_weight=cb,
            beam_threshold=float("inf"),
            min_per_frame_score=float("-inf"),
            max_keyword_frames=100,
            blank_id=blank,
        )
        graph = build_graph([BiasEntry(0, "kw", keyword)], vocab_size=vocab_size)
        best_by_end: dict[int, float] = defaultdict(lambda: float("-inf"))
        for c in spot_offline(lp, graph, cfg):
            best_by_end[c.end_frame] = max(best_by_end[c.end_frame], c.score)
        oracle = brute_force_scores_by_end(lp, keyword, cb, blank)
        assert set(best_by_end) == set(oracle), f"run {run}"
        for end, (score, _) in oracle.items():
            assert abs(best_by_end[end] - score) <= 1e-6, f"run {run} end {end}"
    print(f"\n[acceptance] criterion 2 (oracle equivalence, {n_runs} runs): PASS")


def test_criterion_3_commit_safety_with_binding_age_cap():
    # invariants are also asserted inside every criterion-1 run; here the
    # age cap is shorter than the utterance, and where it changes what is
    # spotted the stream must still equal offline
    rng = np.random.default_rng(99)
    binding = 0
    for _ in range(150):
        n_frames = int(rng.integers(2, 50))
        vocab_size = int(rng.integers(3, 10))
        blank = vocab_size - 1
        entries = random_entries(rng, 4, vocab_size, blank, max_len=3)
        graph = build_graph(entries, vocab_size=vocab_size)
        cfg = SpotterConfig(
            blank_id=blank,
            max_keyword_frames=int(rng.integers(1, 8)),
            beam_threshold=float(rng.choice([4.0, 7.0])),
        )
        lp = random_logprobs(rng, n_frames, vocab_size)
        sizes = random_partition(rng, n_frames)
        vocab = _vocab(vocab_size)
        streamed, streamed_text = _stream_run(graph, cfg, vocab, lp, sizes)
        offline_cands = spot_offline(lp, graph, cfg)
        uncapped = replace(cfg, max_keyword_frames=n_frames)
        binding += offline_cands != spot_offline(lp, graph, uncapped)
        assert sorted(map(cand_key, streamed)) == sorted(
            map(cand_key, dedup_overlaps(offline_cands))
        )
        assert streamed_text == offline_pipeline(lp, graph, cfg, vocab=vocab)[0]
    assert binding >= 50, binding
    print(f"\n[acceptance] criterion 3 (commit safety & monotonicity, "
          f"cap binding in {binding} of 150 runs): PASS")


def _straddle_matrix():
    """Keyword evidence crossing the frame-28 boundary, hidden from greedy.

    Frame 28 starts a new chunk for all of the 160/560/1120 ms settings at
    40 ms per frame (4, 14 and 28 frames per chunk).
    """
    blank = 15
    script = [
        ScriptSegment(blank, 10, 0.9),
        ScriptSegment(0, 3, 0.9),  # "play"
        ScriptSegment(blank, 12, 0.9),
        ScriptSegment(1, 3, 0.42, shadow_token=blank, shadow_prob=0.55),  # hal 25..27
        ScriptSegment(2, 3, 0.42, shadow_token=blank, shadow_prob=0.55),  # sey 28..30
        ScriptSegment(blank, 2, 0.9),
        ScriptSegment(3, 3, 0.9),  # "now"
        ScriptSegment(blank, 4, 0.9),
    ]
    spec = make_spec(1234, 16, blank, script)
    matrix, _ = generate(spec)
    assert matrix.shape[0] == 40
    return matrix


def test_criterion_4_cross_chunk_recovery():
    frame_ms = 40.0
    matrix = _straddle_matrix()
    vocab = [f"▁{w}" for w in ["play", "hal"]] + ["sey", "▁now"]
    vocab += [f"x{i}" for i in range(16 - len(vocab) - 1)] + ["<blank>"]
    graph = build_graph([BiasEntry(0, "halsey", (1, 2))], vocab_size=16)
    empty_graph = build_graph([])
    cfg = SpotterConfig(cb_weight=2.0, min_per_frame_score=-0.5, blank_id=15,
                        max_keyword_frames=200)

    baseline_text, _, _ = offline_pipeline(matrix, empty_graph, cfg, vocab=vocab)
    assert "halsey" not in baseline_text.split()

    for chunk_ms in (160.0, 560.0, 1120.0):
        frames_per_chunk = int(chunk_ms // frame_ms)
        sizes = [
            min(frames_per_chunk, 40 - i) for i in range(0, 40, frames_per_chunk)
        ]
        # without biasing the keyword is absent
        pipe = StreamingPipeline(empty_graph, cfg, vocab=vocab)
        i = 0
        for n in sizes:
            pipe.process_chunk(matrix[i : i + n])
            i += n
        pipe.flush()
        assert "halsey" not in pipe.transcript.split(), f"{chunk_ms} ms"

        # with biasing it is recovered, spanning the boundary at frame 28
        session = SpotterSession(graph, cfg)
        pipe = StreamingPipeline(graph, cfg, vocab=vocab)
        finalized = []
        i = 0
        for n in sizes:
            finalized.extend(session.process_chunk(matrix[i : i + n]).finalized)
            pipe.process_chunk(matrix[i : i + n])
            i += n
        finalized.extend(session.flush().finalized)
        pipe.flush()
        assert pipe.transcript.split().count("halsey") == 1, f"{chunk_ms} ms"
        assert len(finalized) == 1
        cand = finalized[0]
        assert cand.start_frame < 28 <= cand.end_frame, f"{chunk_ms} ms"
    print("\n[acceptance] criterion 4 (cross-chunk recovery at 160/560/1120 ms): PASS")


def test_criterion_5_metric_arithmetic():
    assert abs(fscore(96.87, 51.02) - 66.84) <= 0.005
    assert abs(fscore(93.87, 85.72) - 89.61) <= 0.005

    def dp_oracle(ref, hyp):
        n, m = len(ref), len(hyp)
        table = [[0] * (m + 1) for _ in range(n + 1)]
        for i in range(n + 1):
            table[i][0] = i
        for j in range(m + 1):
            table[0][j] = j
        for i in range(1, n + 1):
            for j in range(1, m + 1):
                cost = 0 if ref[i - 1] == hyp[j - 1] else 1
                table[i][j] = min(
                    table[i - 1][j] + 1, table[i][j - 1] + 1, table[i - 1][j - 1] + cost
                )
        return table[n][m]

    rng = np.random.default_rng(55)
    alphabet = list("abcdef")
    for _ in range(1000):
        ref = [alphabet[i] for i in rng.integers(0, 6, size=rng.integers(0, 14))]
        hyp = [alphabet[i] for i in rng.integers(0, 6, size=rng.integers(0, 14))]
        assert corpus_wer([ref], [hyp]) == pytest.approx(
            100.0 * dp_oracle(ref, hyp) / max(1, len(ref))
        )

    report = runtime_report([ChunkTiming(asr_ms=45.9, spot_ms=34.3, merge_ms=1.0)], 1120.0)
    assert abs(report.extra_ratio - 3.2) <= 0.1
    print("\n[acceptance] criterion 5 (metric arithmetic): PASS")


def test_criterion_6_overhead_bound():
    rng = np.random.default_rng(321)
    vocab_size = 1024
    blank = vocab_size - 1
    entries = random_entries(rng, 1000, vocab_size, blank, max_len=6)
    graph = build_graph(entries, vocab_size=vocab_size)
    vocab = _vocab(vocab_size)
    cfg = SpotterConfig(blank_id=blank)

    # speech-shaped workload: planted bias phrases among filler words
    script = [ScriptSegment(blank, 4, 0.85)]
    planted = [entries[i] for i in range(0, 1000, 80)]
    for entry in planted:
        for tok in entry.tokens:
            script.append(ScriptSegment(tok, 2, 0.75))
        script.append(ScriptSegment(blank, 3, 0.85))
    filler = rng.integers(0, blank, size=150)
    for tok in filler:
        script.append(ScriptSegment(int(tok), 2, 0.7))
        if rng.random() < 0.4:
            script.append(ScriptSegment(blank, 2, 0.85))
    spec = make_spec(5, vocab_size, blank, script)
    matrix, _ = generate(spec)
    n_frames = matrix.shape[0]
    frames_per_chunk = 28  # 1120 ms at 40 ms frames

    pipe = StreamingPipeline(graph, cfg, vocab=vocab)
    for i in range(0, n_frames, frames_per_chunk):
        pipe.process_chunk(matrix[i : i + frames_per_chunk])
    pipe.flush()

    # the chunk steps only, as ctcspot stream reports them: the flush is left out
    timings = [
        ChunkTiming(asr_ms=t.align_ms, spot_ms=t.spot_ms, merge_ms=t.merge_ms)
        for t in pipe.timings[:-1]
    ]
    report = runtime_report(timings, 1120.0)
    budget_ms = 0.25 * 1120.0
    mean_extra = report.spot_mean + report.merge_mean
    print("\n[acceptance] criterion 6 runtime profile "
          f"({len(timings)} chunks, {n_frames} frames, vocab {vocab_size}, "
          f"{len(entries)} phrases):")
    print(format_runtime_table(report))
    assert mean_extra < budget_ms, f"{mean_extra:.1f} ms >= {budget_ms:.1f} ms"
    print(f"[acceptance] criterion 6 (overhead {mean_extra:.1f} ms < {budget_ms:.0f} ms "
          f"per 1120 ms chunk): PASS")


def test_criterion_7_merge_invariants_over_random_suite():
    rng = np.random.default_rng(77)
    # no-bias identity
    empty = build_graph([])
    for _ in range(100):
        vocab_size = int(rng.integers(3, 12))
        vocab = _vocab(vocab_size)
        lp = random_logprobs(rng, int(rng.integers(0, 50)), vocab_size)
        cfg = SpotterConfig(blank_id=vocab_size - 1)
        transcript, _, cands = offline_pipeline(lp, empty, cfg, vocab=vocab)
        assert cands == []
        greedy = " ".join(w.word for w in greedy_decode(lp, vocab, vocab_size - 1))
        assert transcript == greedy

    # raising the intersection threshold never adds replacements
    checked = 0
    for _ in range(100):
        vocab_size = int(rng.integers(3, 10))
        blank = vocab_size - 1
        graph = build_graph(random_entries(rng, 5, vocab_size, blank, max_len=3))
        cfg = SpotterConfig(blank_id=blank)
        lp = random_logprobs(rng, int(rng.integers(5, 45)), vocab_size)
        words = greedy_decode(lp, _vocab(vocab_size), blank)
        cands = dedup_overlaps(spot_offline(lp, graph, cfg))
        if not cands:
            continue
        checked += 1
        prev = None
        for threshold in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
            stats = {}
            merge_region(words, cands, MergePolicy(intersection_threshold=threshold),
                         graph.surfaces, stats=stats)
            if prev is not None:
                assert stats["replaced"] <= prev
            prev = stats["replaced"]
    assert checked >= 30
    print(f"\n[acceptance] criterion 7 (no-bias identity + threshold monotonicity, "
          f"{checked} threshold sweeps): PASS")
