import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctcspot import (
    BiasEntry,
    CommitState,
    MergePolicy,
    SpotterConfig,
    SpottedCandidate,
    StreamingPipeline,
    WordAlignment,
    build_graph,
    commit_step,
    merge_region,
    offline_pipeline,
)
from ctcspot.errors import (
    DimensionMismatch,
    FrontierRegression,
    NonFiniteRows,
    OverlappingWords,
    SessionClosed,
    UnsortedInput,
)
from ctcspot.streaming import HeldPreview, SpotChunkResult

from conftest import random_entries, random_logprobs, random_partition, synthetic_vocab

SURFACES = {0: "halsey", 1: "justin bieber", 2: "africa"}


def _cand(kw, start, end, score):
    return SpottedCandidate(kw, start, end, score)


def test_insertion_into_empty_region():
    merged = merge_region([], [_cand(0, 3, 9, -1.0)], MergePolicy(), SURFACES)
    assert [w.word for w in merged] == ["halsey"]
    assert (merged[0].start_frame, merged[0].end_frame) == (3, 9)


def test_intersection_threshold_boundaries():
    word = WordAlignment("also", 0, 9, -8.0)
    # 60% of the word covered: replaced when the score is better
    merged = merge_region([word], [_cand(0, 0, 5, -1.0)], MergePolicy(), SURFACES)
    assert [w.word for w in merged] == ["halsey"]
    # 40% covered: kept, and the graze prevents insertion
    merged = merge_region([word], [_cand(0, 0, 3, -1.0)], MergePolicy(), SURFACES)
    assert [w.word for w in merged] == ["also"]
    # exactly 50% covered: strictly-more-than rule keeps the original
    merged = merge_region([word], [_cand(0, 0, 4, -1.0)], MergePolicy(), SURFACES)
    assert [w.word for w in merged] == ["also"]


def test_low_scoring_candidate_does_not_replace():
    word = WordAlignment("also", 0, 9, -1.0)
    merged = merge_region([word], [_cand(0, 0, 9, -5.0)], MergePolicy(), SURFACES)
    assert [w.word for w in merged] == ["also"]
    # score margin raises the bar
    merged = merge_region([word], [_cand(0, 0, 9, -0.5)], MergePolicy(score_margin=1.0), SURFACES)
    assert [w.word for w in merged] == ["also"]
    merged = merge_region([word], [_cand(0, 0, 9, 0.5)], MergePolicy(score_margin=1.0), SURFACES)
    assert [w.word for w in merged] == ["halsey"]


def test_multiword_candidate_replaces_both_words():
    words = [WordAlignment("just", 0, 4, -3.0), WordAlignment("in", 5, 9, -2.0),
             WordAlignment("go", 20, 24, -1.0)]
    cand = _cand(1, 0, 9, -1.0)
    merged = merge_region(words, [cand], MergePolicy(), SURFACES)
    assert [w.word for w in merged] == ["justin bieber", "go"]
    assert (merged[0].start_frame, merged[0].end_frame) == (0, 9)


def test_multiword_replacement_end_to_end():
    """Greedy splits the name into "just in"; the spotted phrase covers the
    trailing words fully and replaces them with one canonical word."""
    from ctcspot import ScriptSegment, generate, make_spec

    vocab = ["▁just", "▁in", "▁bieber", "▁justin", "x0", "x1", "x2", "<b>"]
    script = [
        ScriptSegment(7, 2, 0.9),
        ScriptSegment(0, 1, 0.50, shadow_token=3, shadow_prob=0.45),
        ScriptSegment(1, 1, 0.50, shadow_token=3, shadow_prob=0.45),
        ScriptSegment(2, 1, 0.90),
        ScriptSegment(7, 2, 0.9),
    ]
    matrix, _ = generate(make_spec(8, 8, 7, script))
    graph = build_graph([BiasEntry(0, "justin bieber", (3, 2))], vocab_size=8)
    cfg = SpotterConfig(cb_weight=3.0, min_per_frame_score=-0.5, blank_id=7)

    baseline, _, _ = offline_pipeline(matrix, build_graph([]), cfg, vocab=vocab)
    assert baseline == "just in bieber"

    transcript, merged, cands = offline_pipeline(matrix, graph, cfg, vocab=vocab)
    assert len(cands) == 1
    assert transcript.count("justin bieber") == 1
    assert transcript == "just justin bieber"

    pipe = StreamingPipeline(graph, cfg, vocab=vocab)
    for i in range(matrix.shape[0]):
        pipe.process_chunk(matrix[i : i + 1])
    pipe.flush()
    assert pipe.transcript == transcript


def test_insertion_disabled_by_policy():
    merged = merge_region([], [_cand(0, 3, 9, -1.0)],
                          MergePolicy(allow_insertion=False), SURFACES)
    assert merged == []


def test_unsorted_inputs_rejected():
    words = [WordAlignment("b", 5, 9, -1.0), WordAlignment("a", 0, 4, -1.0)]
    with pytest.raises(UnsortedInput):
        merge_region(words, [], MergePolicy(), SURFACES)
    cands = [_cand(0, 5, 9, -1.0), _cand(1, 0, 6, -1.0)]
    with pytest.raises(UnsortedInput):
        merge_region([], cands, MergePolicy(), SURFACES)
    with pytest.raises(UnsortedInput):  # candidates obey the words' interval rule
        merge_region([], [_cand(0, 6, 4, -1.0)], MergePolicy(), SURFACES)


@pytest.mark.parametrize("sizes", [[20], [4, 16], [1] * 20])
def test_bad_external_words_fail_at_construction_under_every_chunking(sizes):
    """Out-of-order words must not commit under any chunking: the offline
    path rejects them, so the streaming one must too, before any chunk."""
    graph = build_graph([BiasEntry(0, "halsey", (0, 1))], vocab_size=4)
    cfg = SpotterConfig(blank_id=3)
    lp = random_logprobs(np.random.default_rng(31), 20, 4)
    words = [WordAlignment("b", 10, 12, -1.0), WordAlignment("a", 0, 2, -1.0)]
    with pytest.raises(OverlappingWords):
        offline_pipeline(lp, graph, cfg, external_words=words)
    outputs = []
    with pytest.raises(OverlappingWords):
        pipe = StreamingPipeline(graph, cfg, external_words=words)
        t = 0
        for n in sizes:
            outputs.append(pipe.process_chunk(lp[t : t + n]))
            t += n
        outputs.append(pipe.flush())
    assert outputs == []


def test_replacement_count_monotone_in_threshold():
    rng = np.random.default_rng(3)
    for _ in range(20):
        words = []
        t = 0
        for _ in range(int(rng.integers(1, 8))):
            start = t + int(rng.integers(0, 3))
            end = start + int(rng.integers(0, 5))
            words.append(WordAlignment("w", start, end, float(-rng.uniform(0, 4))))
            t = end + 1
        cands = []
        t = 0
        for kw in range(int(rng.integers(0, 4))):
            start = t + int(rng.integers(0, 4))
            end = start + int(rng.integers(0, 6))
            if end >= 30:
                break
            cands.append(_cand(kw % 3, start, end, float(rng.normal())))
            t = end + 1
        prev = None
        for threshold in (0.25, 0.5, 0.75, 1.0):
            stats = {}
            merge_region(words, cands, MergePolicy(intersection_threshold=threshold),
                         SURFACES, stats=stats)
            if prev is not None:
                assert stats["replaced"] <= prev
            prev = stats["replaced"]


def _spot_result(frontier, finalized=(), held=(), actives=0):
    return SpotChunkResult(frontier, list(finalized), HeldPreview(tuple(held), actives))


def test_commit_step_emits_everything_at_full_frontier():
    state = CommitState(MergePolicy(), SURFACES)
    state.add_words([WordAlignment("a", 0, 2, -1.0), WordAlignment("b", 4, 6, -1.0)])
    out = commit_step(state, _spot_result(10))
    assert [w.word for w in out.committed_delta] == ["a", "b"]
    assert out.commit_frontier == 10
    assert out.held_text_preview is None


def test_commit_step_holds_straddling_word():
    state = CommitState(MergePolicy(), SURFACES)
    state.add_words([WordAlignment("early", 2, 8, -1.0), WordAlignment("late", 10, 20, -1.0)])
    out = commit_step(state, _spot_result(15))
    assert [w.word for w in out.committed_delta] == ["early"]
    assert out.commit_frontier == 10  # pulled back to the straddler's start
    assert out.held_text_preview == "late"
    # the held word commits once the frontier clears it
    out = commit_step(state, _spot_result(21))
    assert [w.word for w in out.committed_delta] == ["late"]


def test_commit_step_cut_retreats_through_a_chain_of_straddlers():
    state = CommitState(MergePolicy(), SURFACES)
    state.add_words([WordAlignment("a", 0, 1, -1.0), WordAlignment("b", 5, 12, -1.0)])
    out = commit_step(state, _spot_result(10, finalized=[_cand(0, 2, 7, -9.0)]))
    # 10 splits "b", so the cut drops to 5, which splits the candidate: 2
    assert out.commit_frontier == 2
    assert [w.word for w in out.committed_delta] == ["a"]


def test_commit_state_takes_only_policy_and_surfaces():
    with pytest.raises(TypeError):
        CommitState(MergePolicy(), SURFACES, [WordAlignment("a", 0, 1, -1.0)])


def test_commit_step_waits_for_held_candidates_and_open_word():
    state = CommitState(MergePolicy(), SURFACES)
    state.add_words([WordAlignment("a", 0, 2, -1.0)])
    held = _cand(0, 1, 6, -0.2)
    out = commit_step(state, _spot_result(8, held=[held]))
    assert out.committed_delta == []  # the held candidate may replace "a"
    out = commit_step(state, _spot_result(12, finalized=[_cand(0, 1, 6, -0.2)]))
    assert [w.word for w in out.committed_delta] == ["halsey"]

    state = CommitState(MergePolicy(), SURFACES)
    state.add_words([WordAlignment("a", 0, 2, -1.0)])
    state.set_open_word(1, "a?")
    out = commit_step(state, _spot_result(9))
    assert out.committed_delta == []
    assert out.held_text_preview.endswith("a?")


def test_frontier_regression_detected():
    state = CommitState(MergePolicy(), SURFACES)
    commit_step(state, _spot_result(5))
    with pytest.raises(FrontierRegression):
        commit_step(state, _spot_result(3))


def test_emitted_transcript_stable_across_chunk_sizes():
    rng = np.random.default_rng(19)
    vocab_size = 9
    vocab = synthetic_vocab(vocab_size, rng)
    for _ in range(15):
        graph = build_graph(
            random_entries(rng, 5, vocab=vocab_size, blank=vocab_size - 1, max_len=3)
        )
        cfg = SpotterConfig(blank_id=vocab_size - 1, max_keyword_frames=10_000)
        n_frames = int(rng.integers(1, 48))
        lp = random_logprobs(rng, n_frames, vocab_size)
        reference, _, _ = offline_pipeline(lp, graph, cfg, vocab=vocab)
        for _ in range(3):
            pipe = StreamingPipeline(graph, cfg, vocab=vocab)
            sizes = random_partition(rng, n_frames)
            i = 0
            emitted = []
            for n in sizes:
                out = pipe.process_chunk(lp[i : i + n])
                i += n
                emitted.extend(out.committed_delta)
                assert " ".join(w.word for w in emitted) == pipe.transcript
            pipe.flush()
            assert pipe.transcript == reference


@st.composite
def pipeline_cases(draw):
    vocab_size = draw(st.integers(3, 8))
    blank = vocab_size - 1
    phrases = draw(st.lists(
        st.lists(st.integers(0, blank - 1), min_size=1, max_size=3), max_size=5
    ))
    unique = list(dict.fromkeys(tuple(p) for p in phrases))
    entries = [
        BiasEntry(i, f"kw{i} extra" if i % 3 == 0 else f"kw{i}", p) for i, p in enumerate(unique)
    ]
    n_frames = draw(st.integers(1, 40))
    lp = random_logprobs(np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                         n_frames, vocab_size)
    if draw(st.booleans()):
        lp = np.round(lp * 2) / 2  # coarse cells make score ties common
    cfg = SpotterConfig(
        cb_weight=draw(st.sampled_from([0.0, 1.0, 3.0])),
        beam_threshold=draw(st.sampled_from([0.5, 2.0, 7.0, float("inf")])),
        min_per_frame_score=draw(st.sampled_from([float("-inf"), -5.0, -1.0])),
        # the guarantee holds for an age cap no shorter than the utterance
        max_keyword_frames=draw(st.integers(n_frames, 2 * n_frames + 2)),
        blank_id=draw(st.sampled_from([None, blank])),
    )
    policy = MergePolicy(
        intersection_threshold=draw(st.sampled_from([0.1, 0.5, 1.0])),
        score_margin=draw(st.sampled_from([-2.0, 0.0, 2.0])),
        allow_insertion=draw(st.booleans()),
    )
    cuts = sorted([0, n_frames, *draw(st.lists(st.integers(0, n_frames), max_size=6))])
    sizes = [b - a for a, b in zip(cuts, cuts[1:])]  # repeated cuts give empty chunks
    vocab = synthetic_vocab(vocab_size, np.random.default_rng(vocab_size))
    return build_graph(entries, vocab_size=vocab_size), vocab, lp, cfg, policy, sizes


@settings(max_examples=200, deadline=None)
@given(pipeline_cases())
def test_streaming_pipeline_equals_offline_for_any_chunking(case):
    graph, vocab, lp, cfg, policy, sizes = case
    transcript, words, _ = offline_pipeline(lp, graph, cfg, policy, vocab=vocab)
    pipe = StreamingPipeline(graph, cfg, policy, vocab=vocab)
    t = 0
    for n in sizes:
        pipe.process_chunk(lp[t : t + n])
        t += n
    pipe.flush()
    assert pipe.transcript == transcript
    assert pipe.emitted_words == words


def test_no_bias_identity():
    rng = np.random.default_rng(23)
    vocab = synthetic_vocab(7, rng)
    graph = build_graph([])
    for _ in range(10):
        lp = random_logprobs(rng, int(rng.integers(0, 30)), 7)
        transcript, _, cands = offline_pipeline(lp, graph, vocab=vocab)
        assert cands == []
        from ctcspot import greedy_decode

        expected = " ".join(w.word for w in greedy_decode(lp, vocab, blank_id=6))
        assert transcript == expected


def test_rejected_chunk_leaves_aligner_and_spotter_in_step():
    rng = np.random.default_rng(29)
    vocab = synthetic_vocab(5, rng)
    graph = build_graph(random_entries(rng, 3, vocab=5, blank=4))
    lp = random_logprobs(rng, 8, 5)
    bad = lp[4:].copy()
    bad[1, 2] = np.nan
    pipe = StreamingPipeline(graph, SpotterConfig(blank_id=4), vocab=vocab)
    pipe.process_chunk(lp[:4])
    with pytest.raises(NonFiniteRows):
        pipe.process_chunk(bad)
    assert pipe.aligner.frames_seen == pipe.spotter.frames_seen == 4

    pipe = StreamingPipeline(graph, SpotterConfig(blank_id=4), vocab=vocab)
    with pytest.raises(DimensionMismatch):
        pipe.process_chunk(random_logprobs(rng, 4, 6))
    assert pipe.aligner.frames_seen == pipe.spotter.frames_seen == 0

    # a graph token the vocabulary lacks: rejected before either side reads
    wide = build_graph([BiasEntry(0, "kw", (5, 1))])
    pipe = None
    with pytest.raises(DimensionMismatch):
        pipe = StreamingPipeline(wide, vocab=synthetic_vocab(4, rng))
        pipe.process_chunk(random_logprobs(rng, 3, 4))
    assert pipe is None or pipe.aligner.frames_seen == pipe.spotter.frames_seen == 0

    pipe = StreamingPipeline(graph, SpotterConfig(blank_id=4), vocab=vocab)
    pipe.process_chunk(lp[:4])
    pipe.flush()
    with pytest.raises(SessionClosed):
        pipe.process_chunk(lp[4:])
    assert pipe.aligner.frames_seen == pipe.spotter.frames_seen == 4
