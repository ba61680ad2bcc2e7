import copy

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
    greedy_decode,
    merge_region,
    offline_pipeline,
)
from ctcspot.errors import (
    DimensionMismatch,
    EmptySurface,
    FrontierRegression,
    InvariantViolation,
    NegativeInterval,
    NonFiniteRows,
    NonFiniteScore,
    OverlappingWords,
    SessionClosed,
    UnsortedInput,
)
from ctcspot.spotter import HeldPreview, SpotChunkResult

from conftest import (
    random_entries,
    random_logprobs,
    random_partition,
    reference_merge_region,
    synthetic_vocab,
)

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


@pytest.mark.parametrize("threshold", [0.0, -0.5, 1.5, float("nan")])
def test_intersection_threshold_outside_unit_interval_is_rejected(threshold):
    with pytest.raises(ValueError, match="intersection_threshold"):
        MergePolicy(intersection_threshold=threshold)


def test_nan_score_margin_is_rejected_and_infinities_are_the_extremes():
    """A NaN margin fails every replacement compare, so it would silently
    turn replacement off; -inf and +inf mean always and never replace."""
    with pytest.raises(ValueError):
        MergePolicy(score_margin=float("nan"))
    word = WordAlignment("also", 0, 9, -100.0)
    cand = _cand(0, 0, 9, -1.0)
    merged = merge_region([word], [cand], MergePolicy(score_margin=float("inf")), SURFACES)
    assert [w.word for w in merged] == ["also"]
    weak = _cand(0, 0, 9, -1e9)
    merged = merge_region([word], [weak], MergePolicy(score_margin=-float("inf")), SURFACES)
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


def test_low_threshold_lets_two_candidates_replace_one_word():
    """Below a threshold of 0.5 two candidates can each cover one word, and
    each is checked against that word's full score on its own."""
    word = WordAlignment("also", 0, 7, -4.0)
    cands = [_cand(0, 0, 3, -3.0), _cand(2, 4, 7, -3.0)]
    stats = {}
    merged = merge_region([word], cands, MergePolicy(intersection_threshold=0.25), SURFACES,
                          stats=stats)
    assert [w.word for w in merged] == ["halsey", "africa"]
    assert stats == {"replaced": 2, "inserted": 0, "discarded": 0}


def test_covered_scores_add_left_to_right_on_every_python():
    """1e16 + 1.0 rounds back to 1e16, so the covered words sum to 0.0 left
    to right; Python 3.12's sum() compensates and gets 1.0. A candidate
    scoring 0.5 replaces the words on every interpreter."""
    words = [WordAlignment("big", 0, 1, 1e16), WordAlignment("one", 2, 3, 1.0),
             WordAlignment("neg", 4, 5, -1e16)]
    cand = _cand(0, 0, 5, 0.5)
    for merge in (merge_region, reference_merge_region):
        stats = {}
        merged = merge(words, [cand], MergePolicy(), SURFACES, stats=stats)
        assert [w.word for w in merged] == ["halsey"]
        assert stats == {"replaced": 1, "inserted": 0, "discarded": 0}


def _sorted_intervals(draw, max_items):
    """Sorted, disjoint inclusive intervals with gaps of 0 to 3 frames."""
    out = []
    nxt = draw(st.integers(0, 3))
    for _ in range(draw(st.integers(0, max_items))):
        start = nxt + draw(st.integers(0, 3))
        end = start + draw(st.integers(0, 5))
        out.append((start, end))
        nxt = end + 1
    return out


SCORES = st.one_of(st.sampled_from([-6.0, -4.0, -3.0, -2.0, -1.0, 0.0]), st.floats(-8.0, 0.0))


@st.composite
def merge_cases(draw):
    """Words with gaps and candidates laid out independently of them, so
    candidates cover, graze, straddle or miss words."""
    words = [
        WordAlignment(f"w{i}", s, e, draw(SCORES))
        for i, (s, e) in enumerate(_sorted_intervals(draw, 10))
    ]
    cands = [
        SpottedCandidate(draw(st.sampled_from(sorted(SURFACES))), s, e, draw(SCORES))
        for s, e in _sorted_intervals(draw, 8)
    ]
    policy = MergePolicy(
        intersection_threshold=draw(st.sampled_from([0.25, 0.5, 0.75, 1.0])),
        score_margin=draw(st.sampled_from([0.0, 1.0])),
        allow_insertion=draw(st.booleans()),
    )
    return words, cands, policy


@settings(max_examples=1000, deadline=None)
@given(merge_cases())
def test_merge_region_matches_the_scanning_reference(case):
    """Bisecting to each candidate's run of words gives the same merged
    words and the same counts as testing every word."""
    words, cands, policy = case
    stats, ref_stats = {}, {}
    merged = merge_region(words, cands, policy, SURFACES, stats=stats)
    assert merged == reference_merge_region(words, cands, policy, SURFACES, stats=ref_stats)
    assert stats == ref_stats


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
    words = [WordAlignment("a", 0, 2, -1.0), WordAlignment("b", 4, 6, -1.0)]
    out = commit_step(state, _spot_result(10), words=words)
    assert [w.word for w in out.committed_delta] == ["a", "b"]
    assert out.commit_frontier == 10
    assert out.held_text_preview is None


def test_commit_step_holds_straddling_word():
    state = CommitState(MergePolicy(), SURFACES)
    words = [WordAlignment("early", 2, 8, -1.0), WordAlignment("late", 10, 20, -1.0)]
    out = commit_step(state, _spot_result(15), words=words)
    assert [w.word for w in out.committed_delta] == ["early"]
    assert out.commit_frontier == 10  # pulled back to the straddler's start
    assert out.held_text_preview == "late"
    # the held word commits once the frontier clears it
    out = commit_step(state, _spot_result(21))
    assert [w.word for w in out.committed_delta] == ["late"]


def test_commit_step_cut_retreats_through_a_chain_of_straddlers():
    state = CommitState(MergePolicy(), SURFACES)
    words = [WordAlignment("a", 0, 1, -1.0), WordAlignment("b", 5, 12, -1.0)]
    out = commit_step(state, _spot_result(10, finalized=[_cand(0, 2, 7, -9.0)]), words=words)
    # 10 splits "b", so the cut drops to 5, which splits the candidate: 2
    assert out.commit_frontier == 2
    assert [w.word for w in out.committed_delta] == ["a"]


def test_commit_state_takes_only_policy_and_surfaces():
    with pytest.raises(TypeError):
        CommitState(MergePolicy(), SURFACES, [WordAlignment("a", 0, 1, -1.0)])


def test_commit_step_waits_for_held_candidates_and_open_word():
    state = CommitState(MergePolicy(), SURFACES)
    held = _cand(0, 1, 6, -0.2)
    out = commit_step(state, _spot_result(8, held=[held]), words=[WordAlignment("a", 0, 2, -1.0)])
    assert out.committed_delta == []  # the held candidate may replace "a"
    out = commit_step(state, _spot_result(12, finalized=[_cand(0, 1, 6, -0.2)]))
    assert [w.word for w in out.committed_delta] == ["halsey"]

    state = CommitState(MergePolicy(), SURFACES)
    out = commit_step(state, _spot_result(9), WordAlignment("a?", 1, 4, -0.5),
                      words=[WordAlignment("a", 0, 2, -1.0)])
    assert out.committed_delta == []
    assert out.held_text_preview.endswith("a?")


def test_commit_layer_refuses_input_behind_its_boundary():
    # emitted output is append-only, so a word or candidate ending before
    # the boundary cannot be emitted after the words already out
    state = CommitState(MergePolicy(), SURFACES)
    late = [WordAlignment("late", 10, 12, -1.0)]
    first = commit_step(state, _spot_result(20), words=late)
    assert first.commit_frontier == 20
    with pytest.raises(OverlappingWords):
        commit_step(state, _spot_result(20), words=[WordAlignment("early", 5, 6, -1.0)])
    with pytest.raises(OverlappingWords):
        commit_step(state, _spot_result(20), words=[WordAlignment("straddles", 19, 22, -1.0)])
    with pytest.raises(OverlappingWords):
        commit_step(state, _spot_result(30, finalized=[_cand(0, 5, 6, -0.1)]))
    # the refused calls changed nothing: the frontier is still 20
    last = commit_step(state, _spot_result(25), words=[WordAlignment("next", 20, 22, -1.0)])
    assert [w.word for w in first.committed_delta + last.committed_delta] == ["late", "next"]


def test_commit_layer_refuses_overlap_with_the_buffered_item_before_it():
    state = CommitState(MergePolicy(), SURFACES)
    out = commit_step(state, _spot_result(0), words=[WordAlignment("a", 0, 4, -1.0)])
    assert out.committed_delta == []
    with pytest.raises(OverlappingWords):
        commit_step(state, _spot_result(0), words=[WordAlignment("b", 4, 6, -1.0)])
    with pytest.raises(OverlappingWords):  # nothing of a refused batch is added
        commit_step(state, _spot_result(0),
                    words=[WordAlignment("b", 5, 6, -1.0), WordAlignment("c", 6, 7, -1.0)])
    # the candidate straddles the frontier, so it stays buffered
    out = commit_step(state, _spot_result(3, finalized=[_cand(0, 1, 3, -0.1)]))
    assert out.commit_frontier == 0 and out.committed_delta == []
    with pytest.raises(OverlappingWords):
        commit_step(state, _spot_result(9, finalized=[_cand(1, 3, 5, -0.1)]))
    out = commit_step(state, _spot_result(9, finalized=[_cand(1, 4, 5, -0.1)]),
                      words=[WordAlignment("b", 5, 6, -1.0)])
    assert [w.word for w in out.committed_delta] == ["halsey", "b"]  # the first replaces "a"


def test_frontier_regression_detected():
    state = CommitState(MergePolicy(), SURFACES)
    commit_step(state, _spot_result(5))
    with pytest.raises(FrontierRegression):
        commit_step(state, _spot_result(3))


def _committed(state, steps):
    """Run ``steps`` through ``commit_step`` on ``state``; returns their
    committed deltas joined in order."""
    return [w for step in steps for w in commit_step(state, **step).committed_delta]


def _three_steps():
    """The word "a" commits at 5; then "b" and "c" arrive with a candidate that
    replaces "b"; the final step commits the rest: "a halsey c"."""
    return [
        dict(spot_result=_spot_result(5), words=[WordAlignment("a", 0, 2, -1.0)]),
        dict(spot_result=_spot_result(12, finalized=[_cand(0, 5, 7, -0.1)]),
             words=[WordAlignment("b", 5, 7, -1.0), WordAlignment("c", 9, 10, -1.0)]),
        dict(spot_result=_spot_result(12), final=True),
    ]


B, C = WordAlignment("b", 5, 7, -1.0), WordAlignment("c", 9, 10, -1.0)


@pytest.mark.parametrize("error, change", [
    (FrontierRegression, {"spot_result": _spot_result(4, finalized=[_cand(0, 5, 7, -0.1)])}),
    (OverlappingWords, {"words": [WordAlignment("b", 4, 7, -1.0), C]}),
    (OverlappingWords, {"spot_result": _spot_result(12, finalized=[_cand(0, 4, 7, -0.1)])}),
    (NegativeInterval, {"words": [B, WordAlignment("c", 10, 9, -1.0)]}),
    (EmptySurface, {"words": [B, WordAlignment("", 9, 10, -1.0)]}),
    (NonFiniteScore, {"words": [B, WordAlignment("c", 9, 10, float("nan"))]}),
    (InvariantViolation, {"open_word": WordAlignment("d", 3, 4, -1.0)}),  # behind the boundary
], ids=["frontier", "word-behind", "candidate-behind", "negative", "empty", "nan", "open-behind"])
def test_a_refused_step_leaves_the_state_as_it_was(error, change):
    """The second step, broken in one way, raises before any state changes,
    so the valid step after it emits what an uninterrupted run emits."""
    whole = _committed(CommitState(MergePolicy(), SURFACES), _three_steps())
    assert [w.word for w in whole] == ["a", "halsey", "c"]

    first, second, last = _three_steps()
    state = CommitState(MergePolicy(), SURFACES)
    committed = _committed(state, [first])
    before = copy.deepcopy(state)
    with pytest.raises(error):
        commit_step(state, **{**second, **change})
    assert state == before
    assert committed + _committed(state, [second, last]) == whole


@st.composite
def commit_runs(draw):
    """Words and candidates laid out as in ``merge_cases``, delivered by a
    valid run of steps at rising frontiers. A step hands on each word the
    frontier has passed the start of, except that the latest may stay open;
    of the candidates the frontier has passed the start of, it finalizes
    the earliest few and holds the rest. The final step takes the rest."""
    words, cands, policy = draw(merge_cases())
    horizon = max([0, *(x.end_frame + 1 for x in [*words, *cands])])
    steps, n_words, n_cands = [], 0, 0
    for frontier in sorted(draw(st.lists(st.integers(0, horizon), max_size=6))):
        heard = [w for w in words[n_words:] if w.start_frame < frontier]
        open_word = heard.pop() if heard and draw(st.booleans()) else None
        n_words += len(heard)
        started = [c for c in cands[n_cands:] if c.start_frame < frontier]
        k = draw(st.integers(0, len(started)))
        n_cands += k
        steps.append(dict(spot_result=_spot_result(frontier, started[:k], started[k:]),
                          open_word=open_word, words=heard))
    steps.append(dict(spot_result=_spot_result(horizon, cands[n_cands:]), final=True,
                      words=words[n_words:]))
    return words, cands, policy, steps, horizon + 1


def _bad_steps(step, boundary, frontier, far):
    """Each way to break ``step`` with one bad word or candidate, as
    (error, step), given the commit boundary and spot frontier before it and
    a frame ``far`` past every item of the run."""
    res, words = step["spot_result"], step.get("words", [])
    finalized, held = res.finalized, list(res.held_preview.candidates)

    def spot(new_frontier=res.new_frontier, finalized=finalized, held=held):
        return {**step, "spot_result": _spot_result(new_frontier, finalized, held)}

    def word(start, end, text="x", score=-1.0):
        return WordAlignment(text, start, end, score)

    bad = [
        (NegativeInterval, {**step, "words": [*words, word(far + 1, far)]}),
        (NegativeInterval, spot(finalized=[*finalized, _cand(0, far + 1, far, -1.0)])),
        (EmptySurface, {**step, "words": [*words, word(far, far, text="")]}),
        (NonFiniteScore, {**step, "words": [*words, word(far, far, score=float("nan"))]}),
        (NonFiniteScore, {**step, "words": [*words, word(far, far, score=float("inf"))]}),
    ]
    if words:
        bad.append((OverlappingWords, {**step, "words": [*words, word(words[-1].end_frame, far)]}))
    if finalized:
        last = finalized[-1].end_frame
        bad.append((OverlappingWords, spot(finalized=[*finalized, _cand(0, last, far, -1.0)])))
    if boundary > 0:
        behind = boundary - 1
        bad += [
            (OverlappingWords, {**step, "words": [word(behind, behind), *words]}),
            (OverlappingWords, spot(finalized=[_cand(0, behind, behind, -1.0), *finalized])),
            (InvariantViolation, spot(held=[*held, _cand(0, behind, behind, -1.0)])),
            (InvariantViolation, {**step, "open_word": word(behind, behind)}),
        ]
    if frontier > 0:
        bad.append((FrontierRegression, spot(new_frontier=frontier - 1)))
    return bad


@settings(max_examples=300, deadline=None)
@given(commit_runs(), st.data())
def test_a_step_with_one_bad_item_raises_and_changes_nothing(run, data):
    """commit_step is the one entry into the commit layer: a step with one
    bad word or candidate raises, the state compares equal before and after,
    and the run finished without the bad item emits what the uninterrupted
    run emits, which is the whole-utterance merge."""
    words, cands, policy, steps, far = run
    whole = _committed(CommitState(policy, SURFACES), steps)
    assert whole == merge_region(words, cands, policy, SURFACES)

    k = data.draw(st.integers(0, len(steps) - 1), label="bad step")
    state = CommitState(policy, SURFACES)
    committed, boundary, frontier = [], 0, 0
    for step in steps[:k]:
        out = commit_step(state, **step)
        committed += out.committed_delta
        boundary = out.commit_frontier
        frontier = step["spot_result"].new_frontier
    error, bad = data.draw(st.sampled_from(_bad_steps(steps[k], boundary, frontier, far)))
    before = copy.deepcopy(state)
    with pytest.raises(error):
        commit_step(state, **bad)
    assert state == before
    assert committed + _committed(state, steps[k:]) == whole


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
        # both paths apply the age cap in the same per-frame step, so any cap
        # keeps the guarantee, including caps shorter than the utterance
        max_keyword_frames=draw(st.integers(1, 2 * n_frames + 2)),
        blank_id=draw(st.sampled_from([None, blank])),
    )
    policy = MergePolicy(
        intersection_threshold=draw(st.sampled_from([0.1, 0.5, 1.0])),
        score_margin=draw(st.sampled_from([-2.0, 0.0, 2.0])),
        allow_insertion=draw(st.booleans()),
    )
    cuts = sorted([0, n_frames, *draw(st.lists(st.integers(0, n_frames), max_size=6))])
    sizes = [b - a for a, b in zip(cuts, cuts[1:])]  # repeated cuts give empty chunks
    sources = {"vocab": synthetic_vocab(vocab_size, np.random.default_rng(vocab_size))}
    if draw(st.booleans()):  # an external word alignment instead of greedy words
        words, t = [], 0
        for gap, length, score in draw(st.lists(st.tuples(
            st.integers(0, 3), st.integers(0, 4),
            st.floats(-30.0, 0.0) | st.just(float("-inf")),
        ), max_size=8)):
            words.append(WordAlignment(f"w{len(words)}", t + gap, t + gap + length, score))
            t += gap + length + 1
        sources = {"external_words": words}
    return build_graph(entries, vocab_size=vocab_size), sources, lp, cfg, policy, sizes


@settings(max_examples=200, deadline=None)
@given(pipeline_cases())
def test_streaming_pipeline_equals_offline_for_any_chunking(case):
    graph, sources, lp, cfg, policy, sizes = case
    transcript, words, _ = offline_pipeline(lp, graph, cfg, policy, **sources)
    pipe = StreamingPipeline(graph, cfg, policy, **sources)

    all_words = (sources["external_words"] if "external_words" in sources
                 else greedy_decode(lp, sources["vocab"], cfg.blank_id))

    def check_preview(out):
        # a word of either source reaches the commit layer once the stream
        # reaches its start, so the preview holds no word not yet heard; the
        # greedy word in progress has not reached it and ends the preview
        open_word = pipe.aligner and pipe.aligner.open_word
        heard = open_word.start_frame if open_word else pipe.spotter.frames_seen
        held = [w.word for w in all_words
                if w.start_frame < heard and w.end_frame >= out.commit_frontier]
        if open_word and open_word.word:
            held.append(open_word.word)
        assert out.held_text_preview == (" ".join(held) or None)

    t = 0
    for n in sizes:
        check_preview(pipe.process_chunk(lp[t : t + n]))
        t += n
    check_preview(pipe.flush())
    assert pipe.transcript == transcript
    assert pipe.emitted_words == words


def test_flush_commits_external_words_past_the_last_frame():
    """The whole-utterance merge keeps every external word, so the final
    step commits the words that end after the last frame too."""
    graph = build_graph([])
    lp = random_logprobs(np.random.default_rng(41), 6, 4)
    words = [WordAlignment("a", 0, 2, -1.0), WordAlignment("b", 4, 7, -1.0),
             WordAlignment("c", 9, 9, -1.0)]
    transcript, merged, _ = offline_pipeline(lp, graph, external_words=words)
    assert transcript == "a b c"
    pipe = StreamingPipeline(graph, external_words=words)
    pipe.process_chunk(lp)
    out = pipe.flush()
    assert pipe.transcript == transcript and pipe.emitted_words == merged
    assert out.commit_frontier == 10


@pytest.mark.parametrize("sizes", [[12], [4, 8], [1] * 12])
def test_external_words_may_be_any_iterable_read_once(sizes):
    """A generator of words gives both pipelines the output the list gives:
    the set-up reads it once, checks that list and keeps it."""
    graph = build_graph([BiasEntry(0, "kw", (0, 1))], vocab_size=4)
    cfg = SpotterConfig(blank_id=3)
    lp = random_logprobs(np.random.default_rng(51), 12, 4)
    words = [WordAlignment("a", 0, 2, -1.0), WordAlignment("b", 4, 7, -1.0),
             WordAlignment("c", 9, 9, -1.0)]
    expected = offline_pipeline(lp, graph, cfg, external_words=words)
    assert expected[0] == "a b c kw"  # words and a spotted keyword
    assert offline_pipeline(lp, graph, cfg, external_words=(w for w in words)) == expected
    pipe = StreamingPipeline(graph, cfg, external_words=(w for w in words))
    t = 0
    for n in sizes:
        pipe.process_chunk(lp[t : t + n])
        t += n
    pipe.flush()
    assert (pipe.transcript, pipe.emitted_words) == expected[:2]


def test_a_generator_of_words_is_checked_in_full():
    """A NaN-scored word inside a generator is rejected by both pipelines
    at set-up, as it is inside a list."""
    graph = build_graph([])
    lp = random_logprobs(np.random.default_rng(47), 6, 4)
    words = [WordAlignment("a", 0, 2, -1.0), WordAlignment("b", 4, 5, float("nan"))]
    with pytest.raises(NonFiniteScore):
        offline_pipeline(lp, graph, external_words=(w for w in words))
    with pytest.raises(NonFiniteScore):
        StreamingPipeline(graph, external_words=(w for w in words))


@pytest.mark.parametrize("sources", ["neither", "both"])
def test_each_pipeline_takes_exactly_one_word_source(sources):
    rng = np.random.default_rng(37)
    graph = build_graph([BiasEntry(0, "kw", (0, 1))], vocab_size=4)
    lp = random_logprobs(rng, 6, 4)
    chosen = {}
    if sources == "both":
        chosen = {"vocab": synthetic_vocab(4, rng),
                  "external_words": [WordAlignment("a", 0, 2, -1.0)]}
    with pytest.raises(ValueError, match="exactly one"):
        StreamingPipeline(graph, **chosen)
    with pytest.raises(ValueError, match="exactly one"):
        offline_pipeline(lp, graph, **chosen)


def test_no_bias_identity():
    rng = np.random.default_rng(23)
    vocab = synthetic_vocab(7, rng)
    graph = build_graph([])
    for _ in range(10):
        lp = random_logprobs(rng, int(rng.integers(0, 30)), 7)
        transcript, _, cands = offline_pipeline(lp, graph, vocab=vocab)
        assert cands == []
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


def test_each_pipeline_converts_a_fortran_chunk_once(monkeypatch):
    """The pipeline makes the chunk C-contiguous, in the dtype its rule
    picks, once, so the aligner's and the spotter's input checks both
    return that one array."""
    import ctcspot.aligner
    import ctcspot.spotter

    rng = np.random.default_rng(31)
    vocab = synthetic_vocab(8, rng)
    graph = build_graph(random_entries(rng, 4, vocab=8, blank=7))
    chunk = np.asfortranarray(random_logprobs(rng, 28, 8))
    checked = {}
    for module in (ctcspot.aligner, ctcspot.spotter):
        def wrapped(matrix, width=None, _name=module.__name__, _check=module.check_logprobs):
            checked[_name] = out = _check(matrix, width)
            return out
        monkeypatch.setattr(module, "check_logprobs", wrapped)

    pipe = StreamingPipeline(graph, SpotterConfig(blank_id=7), vocab=vocab)
    pipe.process_chunk(chunk)
    pipe.flush()
    assert set(checked) == {"ctcspot.aligner", "ctcspot.spotter"}
    assert np.shares_memory(checked["ctcspot.aligner"], checked["ctcspot.spotter"])

    checked.clear()
    offline_pipeline(chunk, graph, SpotterConfig(blank_id=7), vocab=vocab)
    assert set(checked) == {"ctcspot.aligner", "ctcspot.spotter"}
    assert np.shares_memory(checked["ctcspot.aligner"], checked["ctcspot.spotter"])
