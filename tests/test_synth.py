import itertools

import numpy as np
import pytest

from ctcspot import (
    BiasEntry,
    ScriptSegment,
    SpotterConfig,
    build_graph,
    generate,
    greedy_decode,
    make_spec,
    spot_offline,
    word_script,
)
from ctcspot.errors import DimensionMismatch
from ctcspot.formats import row_norm_error

from conftest import collapse
from oracle import OracleBoundExceeded, brute_force_keyword_score, brute_force_scores_by_end


def test_generate_is_deterministic_and_normalized():
    script = [ScriptSegment(1, 3, 0.8), ScriptSegment(7, 2, 0.9), ScriptSegment(2, 4, 0.5)]
    spec = make_spec(42, 8, None, script, temperature=0.7)
    m1, a1 = generate(spec)
    m2, a2 = generate(spec)
    assert np.array_equal(m1, m2)
    assert a1 == a2 == [(1, 0, 2), (7, 3, 4), (2, 5, 8)]
    assert row_norm_error(m1) < 1e-9


def test_forced_peak_recovers_script_in_greedy_decode():
    vocab = ["▁go", "▁stop", "ping", "<blank>"]
    script = word_script([[0], [1, 2]], blank_id=3, frames_per_token=2, gap_frames=1,
                         peak=1 - 1e-9, gap_peak=1 - 1e-9)
    spec = make_spec(0, 4, 3, script, temperature=1e-6)
    matrix, _ = generate(spec)
    words = greedy_decode(matrix, vocab, blank_id=3)
    assert [w.word for w in words] == ["go", "stopping"]


def test_scripted_keyword_found_at_scripted_interval():
    script = [ScriptSegment(tok, 2, 0.9) for tok in (4, 1, 2, 4)]
    spec = make_spec(1, 5, 4, script)
    matrix, _ = generate(spec)
    cfg = SpotterConfig(cb_weight=0.0, beam_threshold=float("inf"),
                        min_per_frame_score=-2.0, max_keyword_frames=100, blank_id=4)
    graph = build_graph([BiasEntry(0, "kw", (1, 2))], vocab_size=5)
    cands = spot_offline(matrix, graph, cfg)
    assert cands
    # scripted token frames are 2..5; the oracle confirms the best score
    oracle = brute_force_keyword_score(matrix, (1, 2), 0.0, 4)
    assert oracle is not None
    best = max(cands, key=lambda c: c.score)
    assert best.score == pytest.approx(oracle[0], abs=1e-9)
    assert (best.start_frame, best.end_frame) == (oracle[1], oracle[2])
    assert 2 <= best.start_frame <= best.end_frame <= 5


@pytest.mark.parametrize(
    "vocab_size, segment, temperature, message",
    [
        (4, ScriptSegment(0, 0, 0.5), 1.0, "duration 0 below 1"),
        (4, ScriptSegment(0, 1, 1.5), 1.0, "peak probability 1.5"),
        (4, ScriptSegment(0, 1, 0.5), 0.0, "temperature must be positive"),
        (4, ScriptSegment(0, 1, 0.5), float("nan"), "temperature must be positive"),
        (4, ScriptSegment(4, 1, 0.5), 1.0, "scripted token 4 outside vocabulary"),
        (4, ScriptSegment(0, 1, 0.5, shadow_token=0, shadow_prob=0.3), 1.0, "bad shadow token 0"),
        (4, ScriptSegment(0, 1, 0.7, shadow_token=1, shadow_prob=0.5), 1.0, "must stay below 1"),
        (4, ScriptSegment(0, 1, 0.5, shadow_token=1, shadow_prob=float("nan")), 1.0, "stay below 1"),
        (2, ScriptSegment(0, 1, 0.5, shadow_token=1, shadow_prob=0.3), 1.0, "free symbol"),
        (4, ScriptSegment(0, 1, 0.5, shadow_prob=0.3), 1.0, "without shadow_token"),
    ],
)
def test_spec_validation(vocab_size, segment, temperature, message):
    with pytest.raises(ValueError, match=message):
        make_spec(0, vocab_size, None, [segment], temperature)


def test_spec_blank_follows_the_one_blank_rule():
    # the rule of formats.resolve_blank, with its error type
    segment = ScriptSegment(0, 1, 0.5)
    with pytest.raises(DimensionMismatch):
        make_spec(0, 1, None, [segment])
    with pytest.raises(DimensionMismatch):
        make_spec(0, 4, 4, [segment])
    with pytest.raises(DimensionMismatch):
        make_spec(0, 4, -1, [segment])
    assert make_spec(0, 4, None, [segment]).blank_id == 3


def test_oracle_guard_and_empty_cases():
    rng = np.random.default_rng(0)
    lp = np.log(rng.dirichlet(np.ones(4), size=13))
    with pytest.raises(OracleBoundExceeded):
        brute_force_keyword_score(lp, (1,), 0.0, 3)
    lp = np.log(rng.dirichlet(np.ones(6), size=4))
    with pytest.raises(OracleBoundExceeded):
        brute_force_keyword_score(lp, (1,), 0.0, 5)
    # keyword longer than the utterance admits no alignment
    lp = np.log(rng.dirichlet(np.ones(3), size=2))
    assert brute_force_keyword_score(lp, (0, 1, 0), 0.0, 2) is None


def test_single_token_keyword_matches_hand_enumeration():
    rng = np.random.default_rng(2)
    lp = np.log(rng.dirichlet(np.ones(3), size=3))
    blank = 2
    best = brute_force_keyword_score(lp, (1,), 1.0, blank)
    # hand enumeration: token 1 runs with optional repeats and trailing blanks
    expect = float("-inf")
    for start in range(3):
        for end in range(start, 3):
            for seq in itertools.product(range(3), repeat=end - start + 1):
                if collapse(seq, blank) != [1] or seq[0] == blank:
                    continue
                score = sum(lp[start + i, s] for i, s in enumerate(seq)) + 1.0
                expect = max(expect, score)
    assert best[0] == pytest.approx(expect, abs=1e-12)


def _naive_scores_by_end(lp, keyword, cb_weight, blank):
    """Unoptimized enumeration over every window and label sequence."""
    n_frames, vocab = lp.shape
    out = {}
    for start in range(n_frames):
        for end in range(start, n_frames):
            for seq in itertools.product(range(vocab), repeat=end - start + 1):
                if seq[0] == blank or collapse(seq, blank) != list(keyword):
                    continue
                score = sum(lp[start + i, s] for i, s in enumerate(seq))
                score += cb_weight * len(keyword)
                if end not in out or score > out[end]:
                    out[end] = score
    return out


def test_oracle_agrees_with_naive_enumeration():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n_frames = int(rng.integers(1, 6))
        vocab = int(rng.integers(2, 5))
        blank = vocab - 1
        lp = np.log(rng.dirichlet(np.ones(vocab), size=n_frames))
        klen = int(rng.integers(1, 4))
        keyword = tuple(int(rng.integers(0, vocab - 1)) for _ in range(klen))
        fast = brute_force_scores_by_end(lp, keyword, 0.7, blank)
        slow = _naive_scores_by_end(lp, keyword, 0.7, blank)
        assert set(fast) == set(slow)
        for end in slow:
            assert fast[end][0] == pytest.approx(slow[end], abs=1e-12)
