import io

import numpy as np
import pytest

from ctcspot import WordAlignment
from ctcspot.errors import (
    BadMagic,
    ChunkTooSmall,
    FormatError,
    NegativeInterval,
    NonFiniteRows,
    OverlappingWords,
    ProtocolError,
    TruncatedPayload,
    UnnormalizedRows,
)
from ctcspot.formats import (
    chunker,
    read_alignments,
    read_envelope,
    read_logits,
    row_norm_error,
    validate_logprob_matrix,
    write_alignments,
    write_envelope,
    write_logits,
)

from conftest import random_logprobs


def _normalized_f32(rng, n_frames, vocab):
    return random_logprobs(rng, n_frames, vocab).astype(np.float32)


def test_logits_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(0)
    matrix = _normalized_f32(rng, 17, 6)
    path = str(tmp_path / "x.ctcl")
    write_logits(path, matrix, 40.0)
    back, frame_ms = read_logits(path)
    assert frame_ms == 40.0
    assert np.array_equal(back.astype(np.float32), matrix)
    # a second round trip through the file is exact
    write_logits(path, back, 40.0)
    again, _ = read_logits(path)
    assert np.array_equal(again, back)


def test_empty_matrix_accepted(tmp_path):
    path = str(tmp_path / "empty.ctcl")
    write_logits(path, np.zeros((0, 4), dtype=np.float32), 25.0)
    back, frame_ms = read_logits(path)
    assert back.shape == (0, 4)
    assert frame_ms == 25.0


def test_truncated_payload_and_bad_magic(tmp_path):
    rng = np.random.default_rng(1)
    path = str(tmp_path / "x.ctcl")
    write_logits(path, _normalized_f32(rng, 5, 4), 40.0)
    blob = open(path, "rb").read()
    short = str(tmp_path / "short.ctcl")
    open(short, "wb").write(blob[:-8])
    with pytest.raises(TruncatedPayload):
        read_logits(short)
    long = str(tmp_path / "long.ctcl")
    open(long, "wb").write(blob + b"\x00\x00")
    with pytest.raises(FormatError):
        read_logits(long)
    bad = str(tmp_path / "bad.ctcl")
    open(bad, "wb").write(b"NOPE" + blob[4:])
    with pytest.raises(BadMagic):
        read_logits(bad)


def test_unnormalized_rows_strictness(tmp_path):
    rng = np.random.default_rng(2)
    matrix = _normalized_f32(rng, 4, 4) - 0.5  # rows now sum to exp(-0.5)
    path = str(tmp_path / "x.ctcl")
    with pytest.raises(UnnormalizedRows):
        write_logits(path, matrix, 40.0)
    good = _normalized_f32(rng, 4, 4)
    write_logits(path, good, 40.0)
    # corrupt the payload on disk, then read both lenient and strict
    blob = bytearray(open(path, "rb").read())
    blob[20:] = np.full(16, -0.7, dtype="<f4").tobytes()
    open(path, "wb").write(bytes(blob))
    with pytest.warns(UserWarning):
        read_logits(path)
    with pytest.raises(UnnormalizedRows):
        read_logits(path, strict=True)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_rows_rejected_even_when_lenient(tmp_path, bad):
    rng = np.random.default_rng(6)
    matrix = random_logprobs(rng, 4, 4)
    matrix[2, 1] = bad
    for strict in (True, False):
        with pytest.raises(NonFiniteRows):
            validate_logprob_matrix(matrix, strict=strict)
    path = tmp_path / "x.ctcl"
    write_logits(str(path), random_logprobs(rng, 4, 4), 40.0)
    blob = bytearray(path.read_bytes())
    blob[20 + 4 * 9 : 20 + 4 * 10] = np.array([bad], dtype="<f4").tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(NonFiniteRows):
        read_logits(str(path))


def test_minus_infinity_cells_stay_legal():
    half = np.log(0.5)
    matrix = np.array([[half, half, -np.inf], [-np.inf, -np.inf, 0.0]])
    validate_logprob_matrix(matrix, strict=True)


def test_all_minus_infinity_row_is_unnormalized():
    half = np.log(0.5)
    matrix = np.array([[half, half], [-np.inf, -np.inf]])
    assert row_norm_error(matrix) == np.inf
    with pytest.raises(UnnormalizedRows):
        validate_logprob_matrix(matrix, strict=True)
    with pytest.warns(UserWarning):
        validate_logprob_matrix(matrix, strict=False)


def test_chunker():
    rng = np.random.default_rng(3)
    matrix = random_logprobs(rng, 70, 4)
    chunks = list(chunker(matrix, 1120.0, 40.0))
    assert [c.shape[0] for c in chunks] == [28, 28, 14]
    assert np.array_equal(np.concatenate(chunks), matrix)
    assert [c.shape[0] for c in list(chunker(matrix, 70 * 40.0, 40.0))] == [70]
    with pytest.raises(ChunkTooSmall):
        list(chunker(matrix, 39.0, 40.0))
    with pytest.raises(ChunkTooSmall):
        list(chunker(matrix, 0.0, 40.0))


def test_envelope_round_trip():
    rng = np.random.default_rng(4)
    chunks = [random_logprobs(rng, n, 5).astype(np.float32) for n in (3, 0, 7)]
    buf = io.StringIO()
    write_envelope(buf, chunks)
    buf.seek(0)
    back = list(read_envelope(buf))
    assert len(back) == 3
    for original, returned in zip(chunks, back):
        if original.shape[0]:
            assert np.array_equal(returned.astype(np.float32), original)
        else:
            assert returned.shape[0] == 0


def test_envelope_protocol_errors():
    rng = np.random.default_rng(5)
    chunk = random_logprobs(rng, 3, 5).astype(np.float32)
    buf = io.StringIO()
    write_envelope(buf, [chunk])
    lines = buf.getvalue().splitlines()

    # missing end record
    with pytest.raises(ProtocolError):
        list(read_envelope(io.StringIO(lines[0] + "\n")))
    # record after end
    with pytest.raises(ProtocolError):
        list(read_envelope(io.StringIO(lines[1] + "\n" + lines[0] + "\n")))
    # garbage line
    with pytest.raises(ProtocolError):
        list(read_envelope(io.StringIO("not json\n")))
    # payload length inconsistent with frame count
    import json

    record = json.loads(lines[0])
    record["n_frames"] = 4
    with pytest.raises(ProtocolError):
        list(read_envelope(io.StringIO(json.dumps(record) + "\n" + lines[1] + "\n")))


def test_alignments_round_trip_and_sorting(tmp_path):
    path = str(tmp_path / "words.tsv")
    words = [WordAlignment("b", 5, 8, -2.5), WordAlignment("a", 0, 4, -1.25)]
    write_alignments(path, words)
    back = read_alignments(path)
    assert [w.word for w in back] == ["b", "a"] or [w.word for w in back] == ["a", "b"]
    assert back == sorted(back, key=lambda w: w.start_frame)
    assert back[0].path_score == -1.25


def test_alignments_empty_and_errors(tmp_path):
    path = str(tmp_path / "words.tsv")
    path_obj = tmp_path / "words.tsv"
    path_obj.write_text("", encoding="utf-8")
    assert read_alignments(path) == []
    path_obj.write_text("a\t3\t1\t-1.0\n", encoding="utf-8")
    with pytest.raises(NegativeInterval):
        read_alignments(path)
    path_obj.write_text("a\t0\t5\t-1.0\nb\t5\t9\t-1.0\n", encoding="utf-8")
    with pytest.raises(OverlappingWords) as excinfo:
        read_alignments(path)
    assert "'a'" in str(excinfo.value) and "'b'" in str(excinfo.value)
    path_obj.write_text("a\t0\t5\n", encoding="utf-8")
    with pytest.raises(FormatError):
        read_alignments(path)
