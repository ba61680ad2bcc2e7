import numpy as np
import pytest

from ctcspot import StreamingAligner, aligner, greedy_decode
from ctcspot.errors import DimensionMismatch, NonFiniteRows, SessionClosed

from conftest import MARKER, collapse, random_logprobs, synthetic_vocab, traced_peak


def _forced(rows, vocab_size):
    """Log matrix whose argmax follows `rows` with probability 0.9."""
    probs = np.full((len(rows), vocab_size), 0.1 / (vocab_size - 1))
    for t, sym in enumerate(rows):
        probs[t] = 0.1 / (vocab_size - 1)
        probs[t, sym] = 0.9
    return np.log(probs)


def test_all_blank_decodes_to_nothing():
    vocab = ["a", "b", "<blank>"]
    lp = _forced([2, 2, 2, 2], 3)
    assert greedy_decode(lp, vocab, blank_id=2) == []


def test_repeat_blank_continuation_example():
    vocab = ["", f"{MARKER}he", "llo", "<blank>"]
    lp = _forced([1, 1, 3, 2], 4)
    words = greedy_decode(lp, vocab, blank_id=3)
    assert len(words) == 1
    w = words[0]
    assert w.word == "hello"
    assert (w.start_frame, w.end_frame) == (0, 3)
    chosen = lp[np.arange(4), [1, 1, 3, 2]]
    assert w.path_score == pytest.approx(chosen.sum())


def test_word_texts_match_collapse_oracle():
    rng = np.random.default_rng(42)
    for _ in range(30):
        vocab_size = int(rng.integers(3, 9))
        vocab = synthetic_vocab(vocab_size, rng)
        lp = random_logprobs(rng, int(rng.integers(0, 40)), vocab_size)
        words = greedy_decode(lp, vocab, blank_id=vocab_size - 1)
        argmax = lp.argmax(axis=1) if lp.shape[0] else []
        tokens = collapse(list(argmax), vocab_size - 1)
        expected = "".join(vocab[t] for t in tokens).replace(MARKER, " ").split()
        assert [w.word for w in words] == expected


def test_interval_endpoints_belong_to_the_word():
    rng = np.random.default_rng(17)
    vocab = synthetic_vocab(6, rng)
    for _ in range(20):
        lp = random_logprobs(rng, 25, 6)
        argmax = lp.argmax(axis=1)
        for w in greedy_decode(lp, vocab, blank_id=5):
            for endpoint in (w.start_frame, w.end_frame):
                piece = vocab[argmax[endpoint]]
                assert piece.replace(MARKER, "") in w.word
            assert w.path_score == pytest.approx(
                lp[np.arange(w.start_frame, w.end_frame + 1),
                   argmax[w.start_frame : w.end_frame + 1]].sum()
            )


def test_every_single_boundary_split_matches_offline():
    rng = np.random.default_rng(7)
    vocab = synthetic_vocab(5, rng)
    for _ in range(6):
        n_frames = int(rng.integers(2, 32))
        lp = random_logprobs(rng, n_frames, 5)
        offline = greedy_decode(lp, vocab, blank_id=4)
        for cut in range(n_frames + 1):
            aligner = StreamingAligner(vocab, blank_id=4)
            words = aligner.feed(lp[:cut])
            words += aligner.feed(lp[cut:])
            words += aligner.flush()
            assert words == offline


def test_word_spanning_a_chunk_boundary():
    vocab = ["", f"{MARKER}he", "llo", "<blank>"]
    lp = _forced([1, 1, 3, 2], 4)
    aligner = StreamingAligner(vocab, blank_id=3)
    assert aligner.feed(lp[:2]) == []
    assert aligner.feed(lp[2:]) == []
    words = aligner.flush()
    assert [w.word for w in words] == ["hello"]
    assert (words[0].start_frame, words[0].end_frame) == (0, 3)


def test_feed_and_flush_after_flush_raise_session_closed():
    vocab = ["", f"{MARKER}he", "llo", "<blank>"]
    lp = _forced([1, 1], 4)
    aligner = StreamingAligner(vocab, blank_id=3)
    aligner.feed(lp[:1])
    assert [w.word for w in aligner.flush()] == ["he"]
    with pytest.raises(SessionClosed):
        aligner.feed(lp[1:])  # its argmax repeats the last symbol
    with pytest.raises(SessionClosed):
        aligner.feed(lp[:0])
    with pytest.raises(SessionClosed):
        aligner.flush()
    assert aligner.frames_seen == 1


def test_empty_chunk_changes_nothing():
    vocab = synthetic_vocab(4)
    aligner = StreamingAligner(vocab, blank_id=3)
    lp = random_logprobs(np.random.default_rng(1), 6, 4)
    aligner.feed(lp[:3])
    state = (aligner.frames_seen, aligner.open_word)
    assert aligner.feed(lp[3:3]) == []
    assert state == (aligner.frames_seen, aligner.open_word)


def test_vocab_width_mismatch():
    vocab = synthetic_vocab(4)
    with pytest.raises(DimensionMismatch):
        greedy_decode(random_logprobs(np.random.default_rng(0), 3, 5), vocab)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_chunk_rejected_before_any_state_changes(bad):
    vocab = synthetic_vocab(4)
    aligner = StreamingAligner(vocab, blank_id=3)
    lp = random_logprobs(np.random.default_rng(2), 8, 4)
    aligner.feed(lp[:4])
    state = (aligner.frames_seen, aligner.open_word)
    chunk = lp[4:].copy()
    chunk[2, 0] = bad
    with pytest.raises(NonFiniteRows):
        aligner.feed(chunk)
    assert state == (aligner.frames_seen, aligner.open_word)


def test_lone_marker_piece_forms_no_word_at_any_chunking():
    """A piece that is the marker alone opens a word with no text; when the
    next word start or the flush closes it, it forms no word."""
    vocab = [MARKER, f"{MARKER}a", "b", "<blank>"]
    rows = [0, 0, 3, 1, 2, 0, 2, 3, 0]
    lp = _forced(rows, 4)
    offline = greedy_decode(lp, vocab, blank_id=3)
    assert [(w.word, w.start_frame, w.end_frame) for w in offline] == [("ab", 3, 4), ("b", 5, 6)]
    n = len(rows)
    for mask in range(2 ** (n - 1)):  # every chunking into non-empty chunks
        cuts = [0, *(i for i in range(1, n) if mask >> (i - 1) & 1), n]
        aligner = StreamingAligner(vocab, blank_id=3)
        words = []
        for a, b in zip(cuts, cuts[1:]):
            words += aligner.feed(lp[a:b])
        words += aligner.flush()
        assert words == offline


def test_read_only_input_holds_one_argmax_block():
    """numpy's argmax copies a read-only array whole before it starts, so
    the decoder takes it one block of rows at a time: decoding a read-only
    float32 matrix (as from np.frombuffer) holds one block's copy and a few
    numbers a row, not a second matrix."""
    n, width = 4096, 1024
    lp = np.full((n, width), -10.0, dtype=np.float32)
    lp[:, -1] = -0.01  # blank everywhere: no word objects to count
    lp = np.frombuffer(lp.tobytes(), dtype=np.float32).reshape(n, width)
    assert not lp.flags.writeable
    words, peak = traced_peak(greedy_decode, lp, synthetic_vocab(width))
    assert words == []
    block = aligner._ARGMAX_ROWS * width * 4
    assert peak <= block + 24 * n, peak / block
