import re
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctcspot import (
    ChunkTiming,
    corpus_wer,
    edit_distance,
    format_keyword_table,
    format_runtime_table,
    fscore,
    keyword_prf,
    runtime_report,
)
from ctcspot.pipeline import StepTiming

from conftest import reference_keyword_prf


def _dp_distance(ref, hyp):
    """Independent full-matrix DP oracle."""
    n, m = len(ref), len(hyp)
    table = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        table[i][0] = i
    for j in range(m + 1):
        table[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            cost = 0 if ref[i - 1] == hyp[j - 1] else 1
            table[i][j] = min(table[i - 1][j] + 1, table[i][j - 1] + 1,
                              table[i - 1][j - 1] + cost)
    return table[n][m]


def test_wer_basics():
    assert corpus_wer(["a b c"], ["a b c"]) == 0.0
    assert corpus_wer(["a b c"], ["a x c"]) == pytest.approx(100.0 / 3)
    assert corpus_wer([""], ["x y"]) == 200.0  # insertions over an empty reference
    assert corpus_wer(["a"], [[]]) == 100.0


def test_wer_matches_dp_oracle_on_random_pairs():
    rng = np.random.default_rng(0)
    alphabet = ["a", "b", "c", "d"]
    for _ in range(300):
        ref = [alphabet[i] for i in rng.integers(0, 4, size=rng.integers(0, 12))]
        hyp = [alphabet[i] for i in rng.integers(0, 4, size=rng.integers(0, 12))]
        assert edit_distance(ref, hyp) == _dp_distance(ref, hyp)
        assert corpus_wer([ref], [hyp]) == pytest.approx(100.0 * _dp_distance(ref, hyp) / max(1, len(ref)))


def test_wer_symmetric_under_relabeling():
    rng = np.random.default_rng(1)
    alphabet = ["a", "b", "c", "d"]
    relabel = {"a": "w", "b": "x", "c": "y", "d": "z"}
    for _ in range(50):
        ref = [alphabet[i] for i in rng.integers(0, 4, size=rng.integers(0, 10))]
        hyp = [alphabet[i] for i in rng.integers(0, 4, size=rng.integers(0, 10))]
        mapped = corpus_wer([[relabel[w] for w in ref]], [[relabel[w] for w in hyp]])
        assert corpus_wer([ref], [hyp]) == pytest.approx(mapped)


def test_fscore_reproduces_reference_points():
    assert fscore(96.87, 51.02) == pytest.approx(66.84, abs=0.005)
    assert fscore(93.87, 85.72) == pytest.approx(89.61, abs=0.005)
    assert fscore(100.0, 100.0) == 100.0
    assert fscore(0.0, 0.0) == 0.0


def test_keyword_prf_counts():
    bias = ["halsey", "justin bieber"]
    refs = ["play halsey now", "justin bieber and halsey", "nothing here"]
    hyps = ["play halsey now", "justin beaver and halsey", "halsey again halsey"]
    report = keyword_prf(refs, hyps, bias)
    h = report.per_keyword["halsey"]
    assert (h.hits, h.false_alarms, h.misses) == (2, 2, 0)
    jb = report.per_keyword["justin bieber"]
    assert (jb.hits, jb.false_alarms, jb.misses) == (0, 0, 1)
    assert report.total.hits == 2 and report.total.misses == 1 and report.total.false_alarms == 2
    assert report.total.precision == pytest.approx(50.0)
    assert report.total.recall == pytest.approx(100.0 * 2 / 3)
    table = format_keyword_table(report, per_keyword=True)
    assert "halsey" in table and "ALL" in table


def test_keyword_prf_nested_phrases_counted_longest_first():
    bias = ["united states", "southern united states"]
    refs = ["visit the southern united states"]
    hyps = ["visit the southern united states"]
    report = keyword_prf(refs, hyps, bias)
    assert report.per_keyword["southern united states"].hits == 1
    assert report.per_keyword["united states"].hits == 0
    assert report.total.hits == 1 and report.total.false_alarms == 0


def test_keyword_prf_occurrences_counted_per_utterance():
    report = keyword_prf(["x x", "x"], ["x", "x x"], ["x"])
    counts = report.per_keyword["x"]
    assert (counts.hits, counts.false_alarms, counts.misses) == (2, 1, 1)
    with pytest.raises(ValueError):
        keyword_prf(["a"], ["a", "b"], ["x"])


def test_keyword_prf_counts_surfaces_equal_after_normalization_once():
    """Surfaces are lower-cased and split on whitespace; one that is empty
    after that, or equal to an earlier one, is skipped, and the phrase is
    reported under its first surface."""
    report = keyword_prf(["play halsey now"], ["halsey halsey"], ["Halsey", "halsey ", "   "])
    assert list(report.per_keyword) == ["Halsey"]
    counts = report.per_keyword["Halsey"]
    assert (counts.hits, counts.false_alarms, counts.misses) == (1, 1, 0)


WORDS = st.sampled_from(["a", "A", "b", "B", "c", "d"])  # case variants count as one word
SEPARATORS = st.sampled_from([" ", "  ", "\t", " \t "])


def _joined(words: st.SearchStrategy) -> st.SearchStrategy:
    return st.tuples(words, SEPARATORS).map(lambda ws: ws[1].join(ws[0]))


@st.composite
def keyword_cases(draw):
    """Reference and hypothesis transcripts, each a string or a word list,
    and a bias list of 0-8 surfaces: phrases of 1-4 words from a small
    alphabet (so nested, overlapping and duplicate phrases are common),
    padded or not, and empty or whitespace-only surfaces."""
    text = st.one_of(st.lists(WORDS, max_size=12), _joined(st.lists(WORDS, max_size=12)))
    n = draw(st.integers(0, 4))
    refs = draw(st.lists(text, min_size=n, max_size=n))
    hyps = draw(st.lists(text, min_size=n, max_size=n))
    surface = st.one_of(
        _joined(st.lists(WORDS, min_size=1, max_size=4)),
        _joined(st.lists(WORDS, min_size=1, max_size=2)).map(lambda s: f" {s}\t"),
        st.sampled_from(["", " ", "\t "]),
    )
    return refs, hyps, draw(st.lists(surface, max_size=8))


@settings(max_examples=500, deadline=None)
@given(keyword_cases())
@example((["b a b"], ["b a b"], ["b a", "a b"]))  # same length: "a b" ranks first
def test_keyword_prf_matches_the_scanning_reference(case):
    report = keyword_prf(*case)
    expected = reference_keyword_prf(*case)
    assert report.to_records() == expected.to_records()
    assert list(report.per_keyword) == list(expected.per_keyword)


def test_keyword_prf_claims_equal_length_phrases_in_lexicographic_order():
    report = keyword_prf(["b a b"], ["b a b"], ["b a", "a b"])
    assert report.per_keyword["a b"].hits == 1  # claims words 1-2
    assert report.per_keyword["b a"].hits == 0


def test_corpus_wer_weights_by_reference_length():
    refs = ["a b c d", "x"]
    hyps = ["a b c d", "y"]
    assert corpus_wer(refs, hyps) == pytest.approx(100.0 / 5)
    with pytest.raises(ValueError):
        corpus_wer(["a b", "c d e"], ["a b"])
    with pytest.raises(ValueError):
        corpus_wer(["a b"], ["a b", "c d e"])


def test_runtime_report_examples():
    single = [ChunkTiming(asr_ms=0.0, spot_ms=10.0, merge_ms=2.0)]
    report = runtime_report(single, 160.0)
    assert report.extra_ratio == pytest.approx(7.5)
    constant = [ChunkTiming(asr_ms=1.0, spot_ms=3.0, merge_ms=1.0)] * 8
    report = runtime_report(constant, 560.0)
    assert report.spot_mean == report.spot_p95 == 3.0
    # reference check of the ratio formula: mean spot 34.3 + merge 1.0 over 1120 ms
    report = runtime_report([ChunkTiming(asr_ms=45.9, spot_ms=34.3, merge_ms=1.0)], 1120.0)
    assert report.extra_ratio == pytest.approx(3.2, abs=0.1)
    assert "Extra Proc. / Chunk" in format_runtime_table(report)


def test_runtime_report_validation():
    with pytest.raises(ValueError):
        runtime_report([], 160.0)
    with pytest.raises(ValueError):
        runtime_report([ChunkTiming(asr_ms=0.0, spot_ms=-1.0, merge_ms=0.0)], 160.0)
    report = runtime_report([ChunkTiming(asr_ms=1.0, spot_ms=2.0, merge_ms=1.0)], 100.0)
    assert report.total_mean == 4.0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field", ["asr_ms", "spot_ms", "merge_ms"])
def test_runtime_report_rejects_non_finite_timings(field, bad):
    # min(...) < 0 is False for NaN, so NaN once came back as NaN means
    steps = {"asr_ms": 0.1, "spot_ms": 0.1, "merge_ms": 0.02, field: bad}
    with pytest.raises(ValueError):
        runtime_report([ChunkTiming(asr_ms=1.0, spot_ms=1.0, merge_ms=1.0), ChunkTiming(**steps)],
                       160.0)


def test_runtime_table_keeps_three_significant_digits():
    """Sub-millisecond steps of short chunks stay visible, and large
    values lose no integer digits."""
    timings = [ChunkTiming(asr_ms=0.018, spot_ms=1234.4, merge_ms=0.0234)]
    table = format_runtime_table(runtime_report(timings, 160.0))
    rows = dict(re.split(r"\s{2,}", line) for line in table.splitlines()[1:])
    assert rows == {
        "Feed Time (ms)": "0.018 / 0.018",
        "Spot Time (ms)": "1234 / 1234",
        "Merge Time (ms)": "0.0234 / 0.0234",
        "Total Time (ms)": "1234 / 1234",
        "Extra Proc. / Chunk (%)": "772 / 772",
    }


def test_p95_nearest_rank():
    from ctcspot.metrics import p95

    xs = list(range(1, 101))
    assert p95(xs) == 95
    assert p95([7.0]) == 7.0
    assert p95([1.0, 2.0]) == 2.0


def test_timing_records_are_slotted():
    """A pipeline keeps one StepTiming per step and a report reads one
    ChunkTiming per chunk; neither carries a per-instance dict."""
    assert not hasattr(StepTiming(1.0, 2.0, 3.0), "__dict__")
    assert not hasattr(ChunkTiming(1.0, 2.0, 3.0), "__dict__")
