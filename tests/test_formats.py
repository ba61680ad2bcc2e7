import io
import json
from pathlib import Path

import numpy as np
import pytest

from ctcspot import (
    BiasEntry,
    MergePolicy,
    SpotterConfig,
    SpotterSession,
    StreamingAligner,
    StreamingPipeline,
    WordAlignment,
    build_graph,
    load_bias_list,
    merge_region,
    offline_pipeline,
    spot_offline,
)
from ctcspot.cli import main
from ctcspot.errors import (
    BadDuration,
    BadMagic,
    BadTokenList,
    ChunkTooSmall,
    DimensionMismatch,
    EmptySurface,
    EmptyTokenSequence,
    FormatError,
    NegativeInterval,
    NonFiniteRows,
    NonFiniteScore,
    OverlappingWords,
    ProtocolError,
    TokenOutOfRange,
    TruncatedPayload,
    UnnormalizedRows,
    UnsortedInput,
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
from ctcspot.graph import load_bias_surfaces
from ctcspot.spotter import check_graph

from conftest import random_logprobs, synthetic_vocab


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
    blob = Path(path).read_bytes()
    short = str(tmp_path / "short.ctcl")
    Path(short).write_bytes(blob[:-8])
    with pytest.raises(TruncatedPayload):
        read_logits(short)
    long = str(tmp_path / "long.ctcl")
    Path(long).write_bytes(blob + b"\x00\x00")
    with pytest.raises(FormatError):
        read_logits(long)
    bad = str(tmp_path / "bad.ctcl")
    Path(bad).write_bytes(b"NOPE" + blob[4:])
    with pytest.raises(BadMagic):
        read_logits(bad)
    future = str(tmp_path / "future.ctcl")
    Path(future).write_bytes(blob[:4] + (2).to_bytes(4, "little") + blob[8:])
    with pytest.raises(FormatError, match="unsupported version 2"):
        read_logits(future)


def test_unnormalized_rows_strictness(tmp_path):
    rng = np.random.default_rng(2)
    matrix = _normalized_f32(rng, 4, 4) - 0.5  # rows now sum to exp(-0.5)
    path = str(tmp_path / "x.ctcl")
    with pytest.raises(UnnormalizedRows):
        write_logits(path, matrix, 40.0)
    good = _normalized_f32(rng, 4, 4)
    write_logits(path, good, 40.0)
    # corrupt the payload on disk: reading only warns, the strict check raises
    blob = bytearray(Path(path).read_bytes())
    blob[20:] = np.full(16, -0.7, dtype="<f4").tobytes()
    Path(path).write_bytes(bytes(blob))
    with pytest.warns(UserWarning):
        matrix, _ = read_logits(path)
    with pytest.raises(UnnormalizedRows):
        validate_logprob_matrix(matrix, strict=True)


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
    # blank lines, before, between and after the records, are skipped
    spaced = "\n  \n" + "\n\n".join(buf.getvalue().splitlines()) + "\n\n"
    again = list(read_envelope(io.StringIO(spaced)))
    assert [c.shape for c in again] == [c.shape for c in back]
    assert all(np.array_equal(a, b) for a, b in zip(again, back))


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
    # JSON that is not an object
    for line in ("[1, 2]", "null", '"chunk"', "5"):
        with pytest.raises(ProtocolError):
            list(read_envelope(io.StringIO(line + "\n" + lines[1] + "\n")))
    # payload length inconsistent with frame count
    import json

    record = json.loads(lines[0])
    record["n_frames"] = 4
    with pytest.raises(ProtocolError):
        list(read_envelope(io.StringIO(json.dumps(record) + "\n" + lines[1] + "\n")))
    # frames without a payload: zero symbols wide
    record["frames"] = ""
    with pytest.raises(ProtocolError):
        list(read_envelope(io.StringIO(json.dumps(record) + "\n" + lines[1] + "\n")))


@pytest.mark.parametrize("n_frames", [-1, 1.5, "2", True, None])
def test_envelope_frame_count_must_be_a_non_negative_integer(n_frames):
    chunk = random_logprobs(np.random.default_rng(7), 2, 4).astype(np.float32)
    buf = io.StringIO()
    write_envelope(buf, [chunk])
    lines = buf.getvalue().splitlines()
    record = json.loads(lines[0])
    record["n_frames"] = n_frames
    with pytest.raises(ProtocolError):
        list(read_envelope(io.StringIO(json.dumps(record) + "\n" + lines[1] + "\n")))


def test_envelope_empty_chunks_take_the_stream_width():
    chunk = random_logprobs(np.random.default_rng(8), 2, 4).astype(np.float32)
    empty = chunk[:0]
    buf = io.StringIO()
    write_envelope(buf, [empty, chunk, empty])
    buf.seek(0)
    assert [c.shape for c in read_envelope(buf)] == [(0, 0), (2, 4), (0, 4)]


def _entry_points():
    """Each entry point that reads log-probabilities, as a callable taking
    one matrix; the stateful ones have already taken a good 4-wide chunk."""
    vocab = synthetic_vocab(4)
    graph = build_graph([BiasEntry(0, "kw", (0, 1)), BiasEntry(1, "k", (2,))], vocab_size=4)
    cfg = SpotterConfig(blank_id=3)
    good = random_logprobs(np.random.default_rng(11), 3, 4)
    session = SpotterSession(graph, cfg)
    session.process_chunk(good)
    aligner = StreamingAligner(vocab, blank_id=3)
    aligner.feed(good)
    pipe = StreamingPipeline(graph, cfg, vocab=vocab)
    pipe.process_chunk(good)
    return {
        "validate_logprob_matrix": validate_logprob_matrix,
        "spot_offline": lambda m: spot_offline(m, graph, cfg),
        "SpotterSession.process_chunk": session.process_chunk,
        "StreamingAligner.feed": aligner.feed,
        "StreamingPipeline.process_chunk": pipe.process_chunk,
        "offline_pipeline": lambda m: offline_pipeline(m, graph, cfg, vocab=vocab),
    }, pipe


def _malformed(kind):
    lp = random_logprobs(np.random.default_rng(12), 3, 4)
    if kind == "0-d":
        return np.float64(-1.0), DimensionMismatch
    if kind == "1-d":
        return lp[0], DimensionMismatch
    if kind == "1-wide":
        return np.zeros((3, 1)), DimensionMismatch
    lp[1, 2] = np.nan if kind == "nan" else np.inf
    return lp, NonFiniteRows


@pytest.mark.parametrize("kind", ["0-d", "1-d", "1-wide", "nan", "+inf"])
@pytest.mark.parametrize("entry", [
    "validate_logprob_matrix",
    "spot_offline",
    "SpotterSession.process_chunk",
    "StreamingAligner.feed",
    "StreamingPipeline.process_chunk",
    "offline_pipeline",
])
def test_every_entry_point_rejects_malformed_input_alike(entry, kind):
    """Each entry point names the caller's shape: a 0-d input is not
    reported as 1-d."""
    entry_points, pipe = _entry_points()
    matrix, error = _malformed(kind)
    with pytest.raises(error, match=r"shape \(\)" if kind == "0-d" else None):
        entry_points[entry](matrix)
    assert pipe.aligner.frames_seen == pipe.spotter.frames_seen == 3


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
    path_obj.write_text("a\t0\tfive\t-1.0\n", encoding="utf-8")
    with pytest.raises(FormatError, match="malformed record"):
        read_alignments(path)


def test_alignment_errors_keep_their_types_and_exit_code():
    """Both interval errors are merge-order errors and format errors (exit 2)."""
    for error in (NegativeInterval, OverlappingWords):
        assert issubclass(error, UnsortedInput)
    assert issubclass(UnsortedInput, FormatError)


NAN, INF = float("nan"), float("inf")
ALIGNMENT_RULES = {
    "inverted interval": ([WordAlignment("a", 5, 3, -1.0)], NegativeInterval),
    "negative start": ([WordAlignment("a", -1, 3, -1.0)], NegativeInterval),
    "overlap": (
        [WordAlignment("a", 0, 5, -1.0), WordAlignment("b", 5, 9, -1.0)], OverlappingWords
    ),
    "unsorted": (
        [WordAlignment("b", 10, 12, -1.0), WordAlignment("a", 0, 2, -1.0)], OverlappingWords
    ),
    "nan score": ([WordAlignment("a", 0, 2, NAN)], NonFiniteScore),
    "+inf score": ([WordAlignment("a", 0, 2, INF)], NonFiniteScore),
    "empty word": ([WordAlignment("a", 0, 2, -1.0), WordAlignment("", 3, 4, -1.0)], EmptySurface),
}
# a file is sorted when read, so only words handed over in memory can be unsorted
FILE_ENTRIES = ("read_alignments", "spot --alignments", "stream --alignments")
MEMORY_ENTRIES = ("merge_region", "StreamingPipeline", "offline_pipeline")


def _small_inputs(tmp_path):
    """A 20-frame, 4-symbol utterance in memory and as logits, vocabulary
    and bias files."""
    lp = random_logprobs(np.random.default_rng(13), 20, 4)
    write_logits(str(tmp_path / "x.ctcl"), lp, 40.0)
    (tmp_path / "vocab.txt").write_text(
        "".join(v + "\n" for v in synthetic_vocab(4)), encoding="utf-8"
    )
    (tmp_path / "bias.tsv").write_text("kw\t0,1\n", encoding="utf-8")
    return lp, str(tmp_path / "x.ctcl"), str(tmp_path / "vocab.txt"), str(tmp_path / "bias.tsv")


@pytest.mark.parametrize("rule,entry", [
    (rule, entry)
    for rule in ALIGNMENT_RULES
    for entry in (*FILE_ENTRIES, *MEMORY_ENTRIES)
    if rule != "unsorted" or entry in MEMORY_ENTRIES
])
def test_every_entry_point_rejects_malformed_alignments_alike(tmp_path, capsys, rule, entry):
    words, error = ALIGNMENT_RULES[rule]
    lp, logits, _, bias = _small_inputs(tmp_path)
    graph = build_graph([BiasEntry(0, "kw", (0, 1))], vocab_size=4)
    cfg = SpotterConfig(blank_id=3, min_per_frame_score=-0.5)
    path = str(tmp_path / "words.tsv")
    write_alignments(path, words)
    if entry in ("spot --alignments", "stream --alignments"):
        command = entry.split()[0]
        assert main([command, "--logits", logits, "--alignments", path, "--bias", bias]) == 2
        out, err = capsys.readouterr()
        assert out == ""  # rejected before any record
        assert "error" in err
        return
    entry_points = {
        "read_alignments": lambda: read_alignments(path),
        "merge_region": lambda: merge_region(words, [], MergePolicy(), graph.surfaces),
        "StreamingPipeline": lambda: StreamingPipeline(graph, cfg, external_words=words),
        "offline_pipeline": lambda: offline_pipeline(lp, graph, cfg, external_words=words),
    }
    with pytest.raises(error):
        entry_points[entry]()


# each line follows a good one; the vocabulary has 4 symbols and blank 3
BIAS_RULES = {
    "non-integer id": ("kw\tx,1", BadTokenList),
    "float id": ("kw\t1.5", BadTokenList),
    "negative id": ("kw\t-1", TokenOutOfRange),
    "out-of-range id": ("kw\t4", TokenOutOfRange),
    "blank id": ("kw\t0,3", TokenOutOfRange),
    "empty id column": ("kw\t", EmptyTokenSequence),
    "blank id column": ("kw\t , ", EmptyTokenSequence),
    "empty surface": ("\t0,1", EmptySurface),
    "blank surface": ("  \t0,1", EmptySurface),
}
# a bias list becomes a graph through load_bias_list and build_graph, and
# check_graph rejects the blank; the surfaces-only reader sees the surface
# rules alone
BIAS_ENTRIES = ("load_bias_list", "load_bias_surfaces", "spot --bias", "stream --bias")


@pytest.mark.parametrize("rule,entry", [
    (rule, entry)
    for rule in BIAS_RULES
    for entry in BIAS_ENTRIES
    if entry != "load_bias_surfaces" or "surface" in rule
])
def test_every_entry_point_rejects_malformed_bias_lines_alike(tmp_path, capsys, rule, entry):
    line, error = BIAS_RULES[rule]
    _, logits, vocab, _ = _small_inputs(tmp_path)
    path = tmp_path / "bad.tsv"
    path.write_text(f"ok\t0,1\n{line}\n", encoding="utf-8")
    if entry in ("spot --bias", "stream --bias"):
        command = entry.split()[0]
        assert main([command, "--logits", logits, "--vocab", vocab, "--bias", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""  # rejected before any record
        assert "error" in err
        return
    entry_points = {
        "load_bias_list": lambda: check_graph(
            build_graph(load_bias_list(str(path), blank_id=3), vocab_size=4), 4,
            SpotterConfig(blank_id=3),
        ),
        "load_bias_surfaces": lambda: load_bias_surfaces(str(path)),
    }
    with pytest.raises(error):
        entry_points[entry]()


@pytest.mark.parametrize("entry", ["load_bias_list", "spot --bias", "stream --bias"])
def test_surface_only_bias_line_without_a_vocabulary_is_a_bad_token_list(tmp_path, capsys,
                                                                          entry):
    """With no vocabulary to tokenize it (--alignments instead of --vocab),
    a line without a token column is a bad token list, exit code 2."""
    _, logits, _, _ = _small_inputs(tmp_path)
    path = tmp_path / "bad.tsv"
    path.write_text("ok\t0,1\nkw\n", encoding="utf-8")
    if entry == "load_bias_list":
        with pytest.raises(BadTokenList, match="bad.tsv:2: entry 'kw' has no token ids"):
            load_bias_list(str(path))
        return
    words = str(tmp_path / "words.tsv")
    write_alignments(words, [WordAlignment("ok", 0, 3, -1.0)])
    argv = [entry.split()[0], "--logits", logits, "--alignments", words, "--bias", str(path)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "has no token ids" in err


def test_minus_infinity_path_score_stays_legal(tmp_path):
    """-inf is a legal log 0, as in a log-probability cell; the greedy
    aligner yields it for a frame that is -inf everywhere."""
    path = str(tmp_path / "words.tsv")
    words = [WordAlignment("a", 0, 2, -INF)]
    write_alignments(path, words)
    assert read_alignments(path) == words
    assert merge_region(words, [], MergePolicy(), {}) == words


def test_whitespace_word_stays_legal(tmp_path):
    """A vocabulary piece can be whitespace, so a word made only of it is
    legal; only empty text is rejected."""
    path = str(tmp_path / "words.tsv")
    words = [WordAlignment(" ", 0, 2, -1.0)]
    write_alignments(path, words)
    assert read_alignments(path) == words
    assert merge_region(words, [], MergePolicy(), {}) == words


@pytest.mark.parametrize("chunk_ms,frame_ms", [
    (1120.0, 0.0), (1120.0, -40.0), (1120.0, NAN), (1120.0, INF), (NAN, 40.0), (INF, 40.0),
    (1e308, 1e-44),  # a frame count past float range
])
def test_chunker_durations_must_be_positive_and_finite(chunk_ms, frame_ms):
    matrix = random_logprobs(np.random.default_rng(14), 8, 4)
    with pytest.raises(BadDuration):
        list(chunker(matrix, chunk_ms, frame_ms))


@pytest.mark.parametrize("frame_ms", ["0", "-40", "nan", "inf"])
def test_stream_envelope_frame_duration_checked_before_any_record(
    tmp_path, capsys, monkeypatch, frame_ms
):
    lp, _, vocab, _ = _small_inputs(tmp_path)
    buf = io.StringIO()
    write_envelope(buf, [lp[:8], lp[8:]])
    monkeypatch.setattr("sys.stdin", io.StringIO(buf.getvalue()))
    rc = main(["stream", "--stdin-envelope", "--vocab", vocab, "--frame-ms", frame_ms])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert "positive and finite" in err


@pytest.mark.parametrize("frame_ms", ["0", "nan"])
def test_synth_frame_duration_checked_before_any_record(tmp_path, capsys, frame_ms):
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("\u2581go\n<blank>\n", encoding="utf-8")
    out_path = tmp_path / "x.ctcl"
    rc = main(["synth", "--vocab", str(vocab), "--text", "go", "--out", str(out_path),
               "--frame-ms", frame_ms])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == "" and not out_path.exists()
    assert "positive and finite" in err


@pytest.mark.parametrize("chunk_ms", ["nan", "inf"])
@pytest.mark.parametrize("source", ["--logits", "--stdin-envelope"])
def test_stream_chunk_duration_must_be_finite(tmp_path, capsys, monkeypatch, chunk_ms, source):
    lp, logits, vocab, _ = _small_inputs(tmp_path)
    buf = io.StringIO()
    write_envelope(buf, [lp])
    monkeypatch.setattr("sys.stdin", io.StringIO(buf.getvalue()))
    inputs = [source, logits] if source == "--logits" else [source]
    rc = main(["stream", *inputs, "--vocab", vocab, "--chunk-ms", chunk_ms])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert "positive and finite" in err
