import base64
import io
import json
import math
import os
import shlex
import struct
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

import pytest

import ctcspot
from ctcspot import formats
from ctcspot.cli import build_parser, main
from ctcspot.formats import read_logits, write_alignments, write_envelope, write_logits
from ctcspot import MergePolicy, ScriptSegment, SpotterConfig, WordAlignment, generate, make_spec

from conftest import MARKER

VOCAB = [f"{MARKER}play", f"{MARKER}hal", "sey", f"{MARKER}now", f"{MARKER}go", "<blank>"]
BLANK = 5


def _write_vocab(tmp_path, vocab=VOCAB):
    path = tmp_path / "vocab.txt"
    path.write_text("".join(v + "\n" for v in vocab), encoding="utf-8")
    return str(path)


def _write_bias(tmp_path, lines):
    path = tmp_path / "bias.tsv"
    path.write_text("".join(lines), encoding="utf-8")
    return str(path)


def _write_words(tmp_path):
    path = str(tmp_path / "words.tsv")
    write_alignments(path, [WordAlignment("play", 2, 4, -0.4), WordAlignment("now", 15, 17, -0.4)])
    return path


def _records(capsys):
    """Every non-empty stdout line, each of which must be a JSON record."""
    out = capsys.readouterr().out
    return [json.loads(line) for line in out.splitlines() if line.strip()]


def _synth_logits(tmp_path, name="utt.ctcl"):
    """play <missable halsey> now: the keyword hides under dominant blanks."""
    script = [
        ScriptSegment(BLANK, 2, 0.9),
        ScriptSegment(0, 3, 0.9),  # "play"
        ScriptSegment(BLANK, 2, 0.9),
        # halsey tokens at 0.42 under a 0.55 blank shadow: greedy misses them
        ScriptSegment(1, 3, 0.42, shadow_token=BLANK, shadow_prob=0.55),
        ScriptSegment(2, 3, 0.42, shadow_token=BLANK, shadow_prob=0.55),
        ScriptSegment(BLANK, 1, 0.9),
        ScriptSegment(3, 3, 0.9),  # "now"
        ScriptSegment(BLANK, 2, 0.9),
    ]
    spec = make_spec(5, len(VOCAB), BLANK, script)
    matrix, _ = generate(spec)
    path = str(tmp_path / name)
    write_logits(path, matrix, 40.0)
    return path, matrix


def test_spot_with_empty_bias_matches_greedy(tmp_path, capsys):
    logits, _ = _synth_logits(tmp_path)
    vocab = _write_vocab(tmp_path)
    assert main(["spot", "--logits", logits, "--vocab", vocab]) == 0
    records = _records(capsys)
    kinds = [r["type"] for r in records]
    assert kinds[0] == "manifest"
    assert "candidate" not in kinds
    transcript = next(r for r in records if r["type"] == "transcript")
    assert transcript["text"] == "play now"


def test_spot_recovers_planted_keyword(tmp_path, capsys):
    logits, _ = _synth_logits(tmp_path)
    vocab = _write_vocab(tmp_path)
    bias = _write_bias(tmp_path, ["halsey\t1,2\n"])
    assert main(["spot", "--logits", logits, "--vocab", vocab, "--bias", bias,
                 "--cb-weight", "2", "--min-per-frame-score", "-0.5"]) == 0
    records = _records(capsys)
    cands = [r for r in records if r["type"] == "candidate"]
    assert cands and cands[0]["keyword"] == "halsey"
    transcript = next(r for r in records if r["type"] == "transcript")
    assert transcript["text"] == "play halsey now"


def test_spot_missing_file_fails(tmp_path, capsys):
    vocab = _write_vocab(tmp_path)
    rc = main(["spot", "--logits", str(tmp_path / "nope.ctcl"), "--vocab", vocab])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_spot_requires_vocab_or_alignments(tmp_path, capsys):
    logits, _ = _synth_logits(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["spot", "--logits", logits])
    assert exc.value.code == 1


@pytest.mark.parametrize("sources", ["neither", "both"])
@pytest.mark.parametrize("frames", [True, False])
def test_stream_word_source_is_checked_before_any_input(tmp_path, capsys, monkeypatch,
                                                          sources, frames):
    """Exactly one of --vocab / --alignments is a usage rule: exit 1 with
    nothing on stdout and stdin unread, whether or not it carries frames."""
    _, matrix = _synth_logits(tmp_path)
    buf = io.StringIO()
    write_envelope(buf, [matrix[:4]] if frames else [])
    stdin = io.StringIO(buf.getvalue())
    monkeypatch.setattr("sys.stdin", stdin)
    argv = ["stream", "--stdin-envelope"]
    if sources == "both":
        words_path = str(tmp_path / "words.tsv")
        write_alignments(words_path, [WordAlignment("play", 2, 4, -0.4)])
        argv += ["--vocab", _write_vocab(tmp_path), "--alignments", words_path]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--vocab" in captured.err and "--alignments" in captured.err
    assert stdin.tell() == 0  # stdin unread


class _UnreadableStdin(io.StringIO):
    def read(self, *args):
        raise AssertionError("stdin was read")

    readline = read

    def __iter__(self):
        raise AssertionError("stdin was read")


@pytest.mark.parametrize("bad", ["vocab", "bias", "alignments", "bias line", "surface only",
                                 "bias id", "bias blank", "spot bias id"])
def test_stream_loads_its_files_before_any_input(tmp_path, capsys, monkeypatch, bad):
    """A missing --vocab, --bias or --alignments file, or a bad bias line,
    fails before stdin is read: exit 2, the file named, nothing on stdout.
    With --vocab, a bias token id outside it or at its blank fails there
    too, naming the id; `spot` names it before it opens --logits."""
    monkeypatch.setattr("sys.stdin", _UnreadableStdin())
    missing = named = str(tmp_path / "missing.txt")
    words_path = str(tmp_path / "words.tsv")
    write_alignments(words_path, [WordAlignment("play", 2, 4, -0.4)])
    vocab = _write_vocab(tmp_path)
    argv = ["stream", "--stdin-envelope"]
    if bad == "vocab":
        argv += ["--vocab", missing]
    elif bad == "bias":
        argv += ["--vocab", vocab, "--bias", missing]
    elif bad == "alignments":
        argv += ["--alignments", missing]
    elif bad == "bias line":
        named = _write_bias(tmp_path, ["halsey\t1,x\n"])
        argv += ["--alignments", words_path, "--bias", named]
    elif bad == "surface only":  # no token ids, and no vocabulary to tokenize with
        named = _write_bias(tmp_path, ["halsey\n"])
        argv += ["--alignments", words_path, "--bias", named]
    else:
        ids, named = ("1,5", "blank id 5") if bad == "bias blank" else ("1,9", "token 9")
        argv += ["--vocab", vocab, "--bias", _write_bias(tmp_path, [f"halsey\t{ids}\n"])]
        if bad == "spot bias id":
            argv[:2] = ["spot", "--logits", missing]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert named in captured.err
    assert named == missing or missing not in captured.err


def test_stream_single_chunk_equals_spot(tmp_path, capsys):
    logits, matrix = _synth_logits(tmp_path)
    vocab = _write_vocab(tmp_path)
    bias = _write_bias(tmp_path, ["halsey\t1,2\n"])
    total_ms = matrix.shape[0] * 40.0
    assert main(["stream", "--logits", logits, "--vocab", vocab, "--bias", bias,
                 "--cb-weight", "2", "--min-per-frame-score", "-0.5", "--chunk-ms", str(total_ms)]) == 0
    records = _records(capsys)
    final = next(r for r in records if r["type"] == "final")
    assert final["transcript"] == "play halsey now"
    assert final["partial"] is False
    assert sum(1 for r in records if r["type"] == "chunk") == 1
    assert any(r["type"] == "runtime_report" for r in records)


@pytest.mark.parametrize("chunk_ms", [160.0, 560.0, 1120.0])
def test_stream_chunk_sizes_agree(tmp_path, capsys, chunk_ms):
    logits, _ = _synth_logits(tmp_path)
    vocab = _write_vocab(tmp_path)
    bias = _write_bias(tmp_path, ["halsey\t1,2\n"])
    assert main(["stream", "--logits", logits, "--vocab", vocab, "--bias", bias,
                 "--cb-weight", "2", "--min-per-frame-score", "-0.5", "--chunk-ms", str(chunk_ms)]) == 0
    final = next(r for r in _records(capsys) if r["type"] == "final")
    assert final["transcript"] == "play halsey now"


def test_stream_deltas_concatenate_to_final(tmp_path, capsys):
    logits, _ = _synth_logits(tmp_path)
    vocab = _write_vocab(tmp_path)
    bias = _write_bias(tmp_path, ["halsey\t1,2\n"])
    assert main(["stream", "--logits", logits, "--vocab", vocab, "--bias", bias,
                 "--cb-weight", "2", "--min-per-frame-score", "-0.5", "--chunk-ms", "160"]) == 0
    records = _records(capsys)
    words = []
    frontiers = []
    for r in records:
        if r["type"] in ("chunk", "final"):
            words.extend(w["word"] for w in r.get("delta", []))
            if "commit_frontier" in r:
                frontiers.append(r["commit_frontier"])
    final = next(r for r in records if r["type"] == "final")
    assert " ".join(words) == final["transcript"]
    assert frontiers == sorted(frontiers)


def test_stream_envelope_stdin(tmp_path, capsys, monkeypatch):
    _, matrix = _synth_logits(tmp_path)
    vocab = _write_vocab(tmp_path)
    bias = _write_bias(tmp_path, ["halsey\t1,2\n"])
    buf = io.StringIO()
    write_envelope(buf, [matrix[i : i + 4] for i in range(0, matrix.shape[0], 4)])
    monkeypatch.setattr("sys.stdin", io.StringIO(buf.getvalue()))
    assert main(["stream", "--stdin-envelope", "--vocab", vocab, "--bias", bias,
                 "--cb-weight", "2", "--min-per-frame-score", "-0.5"]) == 0
    final = next(r for r in _records(capsys) if r["type"] == "final")
    assert final["transcript"] == "play halsey now"


def test_stream_envelope_chunk_ms_is_the_mean_chunk(tmp_path, capsys, monkeypatch):
    """A short first chunk must not set the chunk duration of the report."""
    _, matrix = _synth_logits(tmp_path)
    vocab = _write_vocab(tmp_path)
    n = matrix.shape[0]
    chunks = [matrix[:1]] + [matrix[i : i + 8] for i in range(1, n, 8)]
    buf = io.StringIO()
    write_envelope(buf, chunks)
    monkeypatch.setattr("sys.stdin", io.StringIO(buf.getvalue()))
    assert main(["stream", "--stdin-envelope", "--vocab", vocab]) == 0
    report = next(r for r in _records(capsys) if r["type"] == "runtime_report")
    assert report["chunk_ms"] == pytest.approx(n * 40.0 / len(chunks))


@pytest.mark.parametrize("sizes,code,kinds,chunk_ms", [
    ([3, 3], 2, [], None),
    ([1, 2], 2, ["manifest", "chunk", "final", "runtime_report"], 1e308),
    ([1, 0, 1], 0, ["manifest", "chunk", "chunk", "chunk", "final", "runtime_report"],
     1e308 * (2 / 3)),
])
def test_stream_envelope_chunk_duration_must_be_finite(tmp_path, capsys, monkeypatch, sizes,
                                                       code, kinds, chunk_ms):
    """At --frame-ms 1e308 a chunk of two or more frames lasts longer than a
    float holds: the first such chunk exits 2 as any bad chunk does, and an
    empty chunk is legal. The report's mean chunk stays finite."""
    _, matrix = _synth_logits(tmp_path)
    starts = [sum(sizes[:i]) for i in range(len(sizes))]
    chunks = [matrix[a : a + n] for a, n in zip(starts, sizes)]
    monkeypatch.setattr("sys.stdin", io.StringIO(_envelope(chunks)))
    argv = ["stream", "--stdin-envelope", "--vocab", _write_vocab(tmp_path), "--frame-ms", "1e308"]
    assert main(argv) == code
    out, err = capsys.readouterr()
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["type"] for r in records] == kinds
    if code:
        assert "chunk duration" in err
    if kinds:
        assert records[-2]["partial"] is (code != 0)
        assert records[-1]["chunk_ms"] == pytest.approx(chunk_ms)


class _SlowStdin(io.StringIO):
    """A producer that sends each line 50 ms after the one before."""

    def __iter__(self):
        for line in self.getvalue().splitlines(keepends=True):
            time.sleep(0.05)
            yield line


def test_stream_report_leaves_out_the_wait_for_the_producer(tmp_path, capsys, monkeypatch):
    """The report's rows are the engine's step times: the time spent
    waiting for the next envelope line is not counted."""
    _, matrix = _synth_logits(tmp_path)
    chunks = [matrix[i : i + 4] for i in (0, 4, 8, 12)]  # five lines with the end record
    monkeypatch.setattr("sys.stdin", _SlowStdin(_envelope(chunks)))
    assert main(["stream", "--stdin-envelope", "--vocab", _write_vocab(tmp_path)]) == 0
    report = next(r for r in _records(capsys) if r["type"] == "runtime_report")
    assert report["n_samples"] == 4
    assert report["asr_mean"] < 25.0
    assert report["total_mean"] < 25.0


def test_stream_envelope_without_end_is_partial(tmp_path, capsys, monkeypatch):
    _, matrix = _synth_logits(tmp_path)
    vocab = _write_vocab(tmp_path)
    buf = io.StringIO()
    write_envelope(buf, [matrix])
    lines = buf.getvalue().splitlines()[:-1]  # drop the end record
    monkeypatch.setattr("sys.stdin", io.StringIO("".join(l + "\n" for l in lines)))
    rc = main(["stream", "--stdin-envelope", "--vocab", vocab])
    assert rc == 3
    final = next(r for r in _records(capsys) if r["type"] == "final")
    assert final["partial"] is True
    assert final["transcript"] == "play now"


def test_stream_envelope_rejects_non_finite_chunk(tmp_path, capsys, monkeypatch):
    _, matrix = _synth_logits(tmp_path)
    vocab = _write_vocab(tmp_path)
    bias = _write_bias(tmp_path, ["halsey\t1,2\n"])
    chunks = [matrix[i : i + 4].copy() for i in range(0, matrix.shape[0], 4)]
    chunks[1][2, 1] = float("nan")  # one cell of a root-child token column
    buf = io.StringIO()
    write_envelope(buf, chunks)
    monkeypatch.setattr("sys.stdin", io.StringIO(buf.getvalue()))
    assert main(["stream", "--stdin-envelope", "--vocab", vocab, "--bias", bias]) == 2
    assert "not finite" in capsys.readouterr().err


def test_stream_envelope_negative_frame_count_is_partial(tmp_path, capsys, monkeypatch):
    _, matrix = _synth_logits(tmp_path)
    vocab = _write_vocab(tmp_path)
    buf = io.StringIO()
    write_envelope(buf, [matrix[:4]])
    first, end = buf.getvalue().splitlines()
    record = json.loads(first)
    record["n_frames"] = -1
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(record) + "\n" + end + "\n"))
    assert main(["stream", "--stdin-envelope", "--vocab", vocab]) == 3
    records = _records(capsys)
    assert records[0]["type"] == "manifest"
    final = next(r for r in records if r["type"] == "final")
    assert final["partial"] is True


def test_stream_envelope_non_object_record_is_partial(tmp_path, capsys, monkeypatch):
    _, matrix = _synth_logits(tmp_path)
    vocab = _write_vocab(tmp_path)
    buf = io.StringIO()
    write_envelope(buf, [matrix[:4]])
    first, end = buf.getvalue().splitlines()
    monkeypatch.setattr("sys.stdin", io.StringIO(first + "\n[1, 2]\n" + end + "\n"))
    assert main(["stream", "--stdin-envelope", "--vocab", vocab]) == 3
    final = next(r for r in _records(capsys) if r["type"] == "final")
    assert final["partial"] is True


def test_stream_envelope_over_long_record_is_partial(tmp_path, capsys, monkeypatch):
    """A record longer than ``MAX_ENVELOPE_LINE`` is a protocol error: the
    chunks before it flush into a final record flagged partial, exit 3."""
    _, matrix = _synth_logits(tmp_path)
    vocab = _write_vocab(tmp_path)
    buf = io.StringIO()
    write_envelope(buf, [matrix[:4], matrix[4:]])
    first, second, _ = buf.getvalue().splitlines()
    assert len(second) > len(first)
    monkeypatch.setattr(formats, "MAX_ENVELOPE_LINE", len(first) + 1)
    monkeypatch.setattr("sys.stdin", io.StringIO(buf.getvalue()))
    assert main(["stream", "--stdin-envelope", "--vocab", vocab]) == 3
    captured = capsys.readouterr()
    records = [json.loads(line) for line in captured.out.splitlines()]
    assert [r["type"] for r in records[:3]] == ["manifest", "chunk", "final"]
    assert records[1]["n_frames"] == 4 and records[2]["partial"] is True
    assert "line 2: record longer than" in captured.err


@pytest.mark.parametrize("command", ["spot", "stream"])
def test_nan_score_margin_exits_2_with_nothing_on_stdout(tmp_path, capsys, command):
    logits, _ = _synth_logits(tmp_path)
    vocab = _write_vocab(tmp_path)
    assert main([command, "--logits", logits, "--vocab", vocab, "--score-margin", "nan"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", ["spot", "stream"])
@pytest.mark.parametrize("frame_ms", [float("nan"), 0.0, -40.0, float("inf")])
def test_bad_header_frame_duration_exits_2_with_nothing_on_stdout(tmp_path, capsys, command,
                                                                  frame_ms):
    logits, _ = _synth_logits(tmp_path)
    with open(logits, "r+b") as fp:
        fp.seek(16)  # the header's f32 frame duration
        fp.write(struct.pack("<f", frame_ms))
    vocab = _write_vocab(tmp_path)
    assert main([command, "--logits", logits, "--vocab", vocab]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "frame duration" in captured.err


@pytest.mark.parametrize("mode", ["spot", "stream --logits", "stream --stdin-envelope"])
def test_input_narrower_than_the_vocabulary_exits_2_with_nothing_on_stdout(tmp_path, capsys,
                                                                           monkeypatch, mode):
    """With --vocab, the engine checks the input's width against it before
    the manifest."""
    logits, matrix = _synth_logits(tmp_path)
    vocab = _write_vocab(tmp_path, [*VOCAB[:-1], f"{MARKER}extra", VOCAB[-1]])
    monkeypatch.setattr("sys.stdin", io.StringIO(_envelope([matrix[:0], matrix[:4], matrix[4:]])))
    engine = ["--vocab", vocab, "--bias", _write_bias(tmp_path, ["halsey\t1,2\n"])]
    argv = {
        "spot": ["spot", "--logits", logits, *engine],
        "stream --logits": ["stream", "--logits", logits, "--chunk-ms", "160", *engine],
        "stream --stdin-envelope": ["stream", "--stdin-envelope", *engine],
    }[mode]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "chunk width 6 != expected width 7" in captured.err


@pytest.mark.parametrize("mode", ["spot", "stream --logits", "stream --stdin-envelope"])
def test_alignments_bias_id_past_the_input_width_exits_2_with_nothing_on_stdout(
    tmp_path, capsys, monkeypatch, mode
):
    """With --alignments, the input gives the width, and a bias id at or past
    it is rejected at the first chunk, before the manifest."""
    logits, matrix = _synth_logits(tmp_path)
    monkeypatch.setattr("sys.stdin", io.StringIO(_envelope([matrix[:0], matrix[:4], matrix[4:]])))
    engine = ["--alignments", _write_words(tmp_path),
              "--bias", _write_bias(tmp_path, ["halsey\t1,9\n"])]
    argv = {
        "spot": ["spot", "--logits", logits, *engine],
        "stream --logits": ["stream", "--logits", logits, "--chunk-ms", "160", *engine],
        "stream --stdin-envelope": ["stream", "--stdin-envelope", *engine],
    }[mode]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "graph token id 9 outside vocabulary of size 6" in captured.err


@pytest.mark.parametrize("mode", ["spot", "stream --logits", "stream --stdin-envelope"])
def test_alignments_bias_id_too_large_to_index_exits_2_with_nothing_on_stdout(
    tmp_path, capsys, monkeypatch, mode
):
    """Without a vocabulary, an id must still fit an array index: 2**64
    first in a phrase is TokenOutOfRange at set-up, not a traceback."""
    logits, matrix = _synth_logits(tmp_path)
    monkeypatch.setattr("sys.stdin", io.StringIO(_envelope([matrix[:4], matrix[4:]])))
    engine = ["--alignments", _write_words(tmp_path),
              "--bias", _write_bias(tmp_path, ["kw\t18446744073709551616\n"])]
    argv = {
        "spot": ["spot", "--logits", logits, *engine],
        "stream --logits": ["stream", "--logits", logits, "--chunk-ms", "160", *engine],
        "stream --stdin-envelope": ["stream", "--stdin-envelope", *engine],
    }[mode]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "token 18446744073709551616 too large to index" in captured.err


def test_eval_ignores_a_byte_order_mark(tmp_path, capsys):
    """A byte-order mark before the first transcript or bias line is not
    read as text."""
    bias = _write_bias(tmp_path, ["halsey\t1,2\n"])
    runs = []
    for mark in ("", "\ufeff"):
        refs, hyps = tmp_path / "refs.txt", tmp_path / "hyps.txt"
        refs.write_text(mark + "halsey now\n", encoding="utf-8")
        hyps.write_text("halsey\n", encoding="utf-8")  # only some files carry one
        Path(bias).write_text(mark + "halsey\t1,2\n", encoding="utf-8")
        assert main(["eval", "--refs", str(refs), "--hyps", str(hyps), "--bias", bias]) == 0
        runs.append([r for r in _records(capsys) if r["type"] != "manifest"])
    assert runs[0] == runs[1]
    assert next(r for r in runs[1] if r["type"] == "keyword_metrics")["fscore"] == 100.0


@pytest.mark.parametrize("source", ["--vocab", "--alignments"])
@pytest.mark.parametrize("cell,message", [(float("nan"), "not finite"),
                                          (float("inf"), "not finite"),
                                          (0.5, "above 0")])
def test_bad_first_envelope_chunk_exits_2_with_nothing_on_stdout(tmp_path, capsys, monkeypatch,
                                                                 source, cell, message):
    """The engine accepts the first chunk before the manifest is printed, so
    a NaN, a +inf or a cell above 0 in it prints no record."""
    _, matrix = _synth_logits(tmp_path)
    first = matrix[:4].copy()
    first[2, 1] = cell
    monkeypatch.setattr("sys.stdin", io.StringIO(_envelope([matrix[:0], first, matrix[4:]])))
    words = _write_vocab(tmp_path) if source == "--vocab" else _write_words(tmp_path)
    bias = _write_bias(tmp_path, ["halsey\t1,2\n"])
    assert main(["stream", "--stdin-envelope", source, words, "--bias", bias]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("source", ["--vocab", "--alignments"])
@pytest.mark.parametrize("cell,message", [(float("nan"), "not finite"),
                                          (float("inf"), "not finite"),
                                          (0.5, "above 0")])
def test_bad_later_envelope_chunk_still_prints_a_partial_final(tmp_path, capsys, monkeypatch,
                                                               source, cell, message):
    """A format error after the first accepted chunk exits 2 like any format
    error, but, as after a protocol error, the accepted chunks are flushed
    into a final record flagged partial, and the runtime report follows."""
    _, matrix = _synth_logits(tmp_path)
    bad = matrix[4:8].copy()
    bad[2, 1] = cell
    monkeypatch.setattr("sys.stdin", io.StringIO(_envelope([matrix[:4], bad, matrix[8:]])))
    words = _write_vocab(tmp_path) if source == "--vocab" else _write_words(tmp_path)
    bias = _write_bias(tmp_path, ["halsey\t1,2\n"])
    assert main(["stream", "--stdin-envelope", source, words, "--bias", bias]) == 2
    out, err = capsys.readouterr()
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["type"] for r in records] == ["manifest", "chunk", "final", "runtime_report"]
    assert records[2]["partial"] is True
    assert records[2]["transcript"] == ("play" if source == "--vocab" else "play now")
    assert message in err


@pytest.mark.parametrize("command", ["spot", "stream"])
def test_engine_flag_defaults_are_the_config_defaults(command):
    """Every engine flag left unset parses to the default of the field it
    sets; --no-insertion left off is allow_insertion=True."""
    args = build_parser().parse_args([command, "--logits", "x.ctcl", "--vocab", "v.txt"])
    cfg, policy = SpotterConfig(), MergePolicy()
    for field in fields(cfg):
        assert getattr(args, field.name) == getattr(cfg, field.name), field.name
    assert args.intersection_threshold == policy.intersection_threshold
    assert args.score_margin == policy.score_margin
    assert (not args.no_insertion) == policy.allow_insertion


def test_stream_with_external_alignments(tmp_path, capsys):
    logits, _ = _synth_logits(tmp_path)
    bias = _write_bias(tmp_path, ["halsey\t1,2\n"])
    assert main(["stream", "--logits", logits, "--alignments", _write_words(tmp_path),
                 "--bias", bias, "--cb-weight", "2", "--min-per-frame-score", "-0.5",
                 "--chunk-ms", "160"]) == 0
    final = next(r for r in _records(capsys) if r["type"] == "final")
    assert final["transcript"] == "play halsey now"


@pytest.mark.parametrize("chunk_ms", [160.0, 560.0, 1120.0])
def test_spot_and_stream_agree_on_external_alignments(tmp_path, capsys, chunk_ms):
    """`spot --alignments` merges into the external words as
    `stream --alignments` does, at every chunk size."""
    logits, _ = _synth_logits(tmp_path)
    bias = _write_bias(tmp_path, ["halsey\t1,2\n"])
    words_path = str(tmp_path / "words.tsv")
    external = [WordAlignment("play", 2, 4, -0.4), WordAlignment("hal", 8, 10, -9.0),
                WordAlignment("now", 15, 17, -0.4)]
    write_alignments(words_path, external)
    engine = ["--logits", logits, "--alignments", words_path, "--bias", bias,
              "--cb-weight", "2", "--min-per-frame-score", "-0.5"]
    assert main(["spot", *engine]) == 0
    spot = next(r for r in _records(capsys) if r["type"] == "transcript")
    assert main(["stream", *engine, "--chunk-ms", str(chunk_ms)]) == 0
    records = _records(capsys)
    words = [w for r in records if r["type"] in ("chunk", "final") for w in r["delta"]]
    final = next(r for r in records if r["type"] == "final")
    assert spot["text"] == final["transcript"] == "play halsey now"
    assert words == spot["words"]
    # no chunk record previews a word that starts past the frames read
    start = {w.word: w.start_frame for w in external}
    frames_read = 0
    for r in records:
        if r["type"] == "chunk":
            frames_read += r["n_frames"]
            assert all(start[w] < frames_read for w in (r["held_preview"] or "").split())


def test_eval_identity_and_reference_counts(tmp_path, capsys):
    refs = tmp_path / "refs.txt"
    hyps = tmp_path / "hyps.txt"
    refs.write_text("play halsey now\ngo\n", encoding="utf-8")
    hyps.write_text("play halsey now\ngo\n", encoding="utf-8")
    bias = _write_bias(tmp_path, ["halsey\t1,2\n"])
    assert main(["eval", "--refs", str(refs), "--hyps", str(hyps), "--bias", bias]) == 0
    records = _records(capsys)
    assert next(r for r in records if r["type"] == "wer")["wer"] == 0.0
    agg = next(r for r in records if r["type"] == "keyword_metrics")
    assert agg["fscore"] == 100.0

    hyps.write_text("play halsey now\n", encoding="utf-8")
    assert main(["eval", "--refs", str(refs), "--hyps", str(hyps), "--bias", bias]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "2 references vs 1 hypotheses" in captured.err


def test_eval_accepts_surfaces_only_bias_list(tmp_path, capsys):
    refs = tmp_path / "refs.txt"
    hyps = tmp_path / "hyps.txt"
    refs.write_text("play halsey now\n", encoding="utf-8")
    hyps.write_text("play now\n", encoding="utf-8")
    bias = _write_bias(tmp_path, ["# surfaces only\n", "halsey\n", "justin bieber\t3,4\n"])
    assert main(["eval", "--refs", str(refs), "--hyps", str(hyps), "--bias", bias]) == 0
    agg = next(r for r in _records(capsys) if r["type"] == "keyword_metrics")
    assert agg["recall"] == 0.0


def test_eval_prints_reference_fscore_from_counts(tmp_path, capsys):
    # 527 hits / 17 false alarms / 506 misses: P 96.88, R 51.02, F 66.85
    refs_lines = ["halsey\n"] * 1033
    hyps_lines = ["halsey\n"] * 527 + ["nothing\n"] * 506
    for _ in range(17):
        hyps_lines[-1] = hyps_lines[-1].rstrip("\n") + " halsey\n"
        refs_lines.append("quiet\n")
        hyps_lines.append("halsey\n")
    # rebuild cleanly: 17 utterances whose hypothesis has a spurious halsey
    refs_lines = ["halsey\n"] * 1033 + ["quiet\n"] * 17
    hyps_lines = ["halsey\n"] * 527 + ["nothing\n"] * 506 + ["halsey\n"] * 17
    refs = tmp_path / "refs.txt"
    hyps = tmp_path / "hyps.txt"
    refs.write_text("".join(refs_lines), encoding="utf-8")
    hyps.write_text("".join(hyps_lines), encoding="utf-8")
    bias = _write_bias(tmp_path, ["halsey\t1,2\n"])
    assert main(["eval", "--refs", str(refs), "--hyps", str(hyps), "--bias", bias]) == 0
    agg = next(r for r in _records(capsys) if r["type"] == "keyword_metrics")
    assert agg["precision"] == pytest.approx(96.875, abs=1e-3)
    assert agg["recall"] == pytest.approx(51.016, abs=1e-3)
    assert agg["fscore"] == pytest.approx(66.84, abs=0.05)


def test_synth_round_trip_through_spot(tmp_path, capsys):
    vocab = _write_vocab(tmp_path)
    out = str(tmp_path / "synth.ctcl")
    ref_out = str(tmp_path / "ref.txt")
    assert main(["synth", "--vocab", vocab, "--text", "go halsey", "--out", out,
                 "--ref-out", ref_out, "--seed", "3"]) == 0
    capsys.readouterr()
    assert Path(ref_out).read_text(encoding="utf-8").strip() == "go halsey"
    bias = _write_bias(tmp_path, ["halsey\t1,2\n"])
    assert main(["spot", "--logits", out, "--vocab", vocab, "--bias", bias,
                 "--cb-weight", "2", "--min-per-frame-score", "-0.5"]) == 0
    transcript = next(r for r in _records(capsys) if r["type"] == "transcript")
    assert transcript["text"] == "go halsey"


def test_synth_deterministic(tmp_path, capsys):
    vocab = _write_vocab(tmp_path)
    a, b = str(tmp_path / "a.ctcl"), str(tmp_path / "b.ctcl")
    for out in (a, b):
        assert main(["synth", "--vocab", vocab, "--text", "go now", "--out", out,
                     "--seed", "11"]) == 0
    capsys.readouterr()
    assert Path(a).read_bytes() == Path(b).read_bytes()


def test_synth_rejects_bad_spec(tmp_path, capsys):
    vocab = _write_vocab(tmp_path)
    rc = main(["synth", "--vocab", vocab, "--text", "go", "--out",
               str(tmp_path / "x.ctcl"), "--peak", "1.5"])
    assert rc == 2


@pytest.mark.parametrize("frame_ms", ["1e39", "1e-50"])
def test_synth_frame_duration_must_fit_a_float32(tmp_path, capsys, frame_ms):
    """The header stores the frame duration as a float32: 1e39 overflows it
    and 1e-50 stores 0.0, so both exit 2 before --out is opened."""
    out = tmp_path / "x.ctcl"
    assert main(["synth", "--vocab", _write_vocab(tmp_path), "--text", "go", "--out", str(out),
                 "--frame-ms", frame_ms]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "frame duration" in captured.err
    assert not out.exists()


def test_biasing_improves_fscore_on_synthetic_corpus(tmp_path, capsys):
    """stream + eval with biasing beats the no-bias baseline on recall."""
    vocab = _write_vocab(tmp_path)
    bias = _write_bias(tmp_path, ["halsey\t1,2\n"])
    refs = []
    hyp_biased = []
    hyp_baseline = []
    for seed in range(4):
        logits, _ = _synth_logits(tmp_path, name=f"utt{seed}.ctcl")
        refs.append("play halsey now")
        for with_bias, sink in ((True, hyp_biased), (False, hyp_baseline)):
            args = ["stream", "--logits", logits, "--vocab", vocab, "--chunk-ms", "560",
                    "--cb-weight", "2", "--min-per-frame-score", "-0.5"]
            if with_bias:
                args += ["--bias", bias]
            assert main(args) == 0
            final = next(r for r in _records(capsys) if r["type"] == "final")
            sink.append(final["transcript"])
    refs_path = tmp_path / "refs.txt"
    refs_path.write_text("".join(r + "\n" for r in refs), encoding="utf-8")
    scores = {}
    for name, hyp in (("biased", hyp_biased), ("baseline", hyp_baseline)):
        hyp_path = tmp_path / f"{name}.txt"
        hyp_path.write_text("".join(h + "\n" for h in hyp), encoding="utf-8")
        assert main(["eval", "--refs", str(refs_path), "--hyps", str(hyp_path),
                     "--bias", bias]) == 0
        agg = next(r for r in _records(capsys) if r["type"] == "keyword_metrics")
        scores[name] = agg["fscore"]
    assert scores["biased"] > scores["baseline"]


def _envelope(chunks) -> str:
    buf = io.StringIO()
    write_envelope(buf, chunks)
    return buf.getvalue()


def _not_json(constant):
    raise ValueError(f"{constant} is not a JSON token")


@pytest.mark.parametrize("run", ["synth", "spot", "stream --logits", "stream --stdin-envelope",
                                 "eval", "eval --per-keyword", "stream infinite flags",
                                 "spot infinite word score"])
def test_every_stdout_line_is_a_json_record(tmp_path, capsys, monkeypatch, run):
    """stdout carries only strict JSON records, the manifest first, with an
    infinite number written as "inf" or "-inf"; summaries and tables go to
    stderr."""
    vocab = _write_vocab(tmp_path)
    bias = _write_bias(tmp_path, ["halsey\t1,2\n"])
    logits, ref = str(tmp_path / "utt.ctcl"), str(tmp_path / "ref.txt")
    synth = ["synth", "--vocab", vocab, "--text", "play halsey now", "--out", logits,
             "--ref-out", ref, "--seed", "7"]
    assert main(synth) == 0
    if run != "synth":
        capsys.readouterr()
        matrix, _ = read_logits(logits)
        monkeypatch.setattr("sys.stdin", io.StringIO(_envelope([matrix[:4], matrix[4:]])))
        engine = ["--vocab", vocab, "--bias", bias, "--cb-weight", "2",
                  "--min-per-frame-score", "-0.5"]
        words = str(tmp_path / "words.tsv")
        write_alignments(words, [WordAlignment("play", 2, 4, -math.inf),
                                 WordAlignment("now", 15, 17, -0.4)])
        argv = {
            "spot": ["spot", "--logits", logits, *engine],
            "stream --logits": ["stream", "--logits", logits, "--chunk-ms", "160", *engine],
            "stream --stdin-envelope": ["stream", "--stdin-envelope", *engine],
            "eval": ["eval", "--refs", ref, "--hyps", ref, "--bias", bias],
            "eval --per-keyword": ["eval", "--refs", ref, "--hyps", ref, "--bias", bias,
                                   "--per-keyword"],
            "stream infinite flags": ["stream", "--logits", logits, "--alignments", words,
                                      "--bias", bias, "--beam-threshold", "inf",
                                      "--score-margin=-inf"],
            "spot infinite word score": ["spot", "--logits", logits, "--alignments", words],
        }[run]
        assert main(argv) == 0
    out, err = capsys.readouterr()
    records = [json.loads(line, parse_constant=_not_json) for line in out.splitlines()]
    assert records and all(isinstance(r, dict) for r in records)
    assert records[0]["type"] == "manifest"
    if run == "stream infinite flags":
        config = records[0]["config"]
        assert (config["beam_threshold"], config["score_margin"]) == ("inf", "-inf")
    if run == "spot infinite word score":
        assert records[-1]["words"][0] == {"word": "play", "start_frame": 2, "end_frame": 4,
                                           "path_score": "-inf"}
    if run.startswith("eval"):
        assert "WER: 0.00" in err and "ALL" in err
        assert ("halsey" in err) == (run == "eval --per-keyword")


@pytest.mark.parametrize("chunk_ms,frames", [(100.0, 2), (150.0, 3), (160.0, 4), (560.0, 14),
                                             (1120.0, 28)])
def test_stream_report_uses_the_chunk_the_chunker_cuts(tmp_path, capsys, chunk_ms, frames):
    """--chunk-ms 100 over 40 ms frames cuts 2-frame chunks, so the report's
    chunk is 80 ms, and the extra-processing ratio is taken over it."""
    logits, matrix = _synth_logits(tmp_path)
    vocab = _write_vocab(tmp_path)
    assert main(["stream", "--logits", logits, "--vocab", vocab, "--chunk-ms", str(chunk_ms)]) == 0
    records = _records(capsys)
    sizes = [r["n_frames"] for r in records if r["type"] == "chunk"]
    assert sum(sizes) == matrix.shape[0] and set(sizes[:-1]) <= {frames}
    report = next(r for r in records if r["type"] == "runtime_report")
    assert report["chunk_ms"] == frames * 40.0
    assert report["extra_ratio"] == pytest.approx(
        100.0 * (report["spot_mean"] + report["merge_mean"]) / (frames * 40.0)
    )


def _chunk_line(matrix) -> str:
    return _envelope([matrix]).splitlines()[0]


# envelope lines that break the protocol, each built from the utterance
BAD_ENVELOPE_LINES = {
    "unknown record type": lambda m: json.dumps({"type": "chunks", "n_frames": 1}),
    "chunk without frames": lambda m: json.dumps({"type": "chunk", "n_frames": 2}),
    "bad base64": lambda m: json.dumps({"type": "chunk", "n_frames": 1, "frames": "A?=="}),
    "empty chunk carrying payload": lambda m: json.dumps(
        {"type": "chunk", "n_frames": 0, "frames": base64.b64encode(b"\0" * 4).decode()}
    ),
    "width change": lambda m: _chunk_line(m[4:6, :4]),
}


@pytest.mark.parametrize("breach,where", [
    (breach, where)
    for breach in BAD_ENVELOPE_LINES
    for where in ("first", "after empty chunks", "after a chunk")
    if breach != "width change" or where == "after a chunk"  # the first chunk sets the width
])
def test_stream_envelope_breach_is_partial_after_the_manifest(tmp_path, capsys, monkeypatch,
                                                             breach, where):
    """Each breach exits 3 with the manifest first and a partial final record."""
    _, matrix = _synth_logits(tmp_path)
    vocab = _write_vocab(tmp_path)
    lines = {"first": [], "after empty chunks": [_chunk_line(matrix[:0])] * 2,
             "after a chunk": [_chunk_line(matrix[:4])]}[where]
    lines += [BAD_ENVELOPE_LINES[breach](matrix), _chunk_line(matrix[4:]), '{"type": "end"}']
    monkeypatch.setattr("sys.stdin", io.StringIO("".join(line + "\n" for line in lines)))
    assert main(["stream", "--stdin-envelope", "--vocab", vocab]) == 3
    out, err = capsys.readouterr()
    records = [json.loads(line) for line in out.splitlines()]
    assert records[0]["type"] == "manifest"
    assert [r["type"] for r in records].count("chunk") == (where == "after a chunk")
    final = next(r for r in records if r["type"] == "final")
    assert final["partial"] is True
    assert final["transcript"] == ("play" if where == "after a chunk" else "")
    assert "protocol error" in err


@pytest.mark.parametrize("chunks", [0, 2])
def test_stream_without_frames_exits_2_with_nothing_on_stdout(tmp_path, capsys, monkeypatch,
                                                              chunks):
    _, matrix = _synth_logits(tmp_path)
    vocab = _write_vocab(tmp_path)
    monkeypatch.setattr("sys.stdin", io.StringIO(_envelope([matrix[:0]] * chunks)))
    assert main(["stream", "--stdin-envelope", "--vocab", vocab]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "input stream carried no frames" in captured.err


def _untimed(records):
    """The records without their wall-clock fields and runtime report."""
    drop = {"spot_ms", "merge_ms"}
    return [{k: v for k, v in r.items() if k not in drop}
            for r in records if r["type"] != "runtime_report"]


def test_stream_skips_a_leading_empty_chunk(tmp_path, capsys, monkeypatch):
    _, matrix = _synth_logits(tmp_path)
    vocab = _write_vocab(tmp_path)
    bias = _write_bias(tmp_path, ["halsey\t1,2\n"])
    chunks = [matrix[i : i + 4] for i in range(0, matrix.shape[0], 4)]
    runs = []
    for leading in ([], [matrix[:0]]):
        monkeypatch.setattr("sys.stdin", io.StringIO(_envelope(leading + chunks)))
        assert main(["stream", "--stdin-envelope", "--vocab", vocab, "--bias", bias,
                     "--cb-weight", "2", "--min-per-frame-score", "-0.5"]) == 0
        runs.append(_records(capsys))
    plain, skipped = runs
    assert _untimed(skipped) == _untimed(plain)
    assert [r["index"] for r in skipped if r["type"] == "chunk"] == list(range(len(chunks)))
    report = next(r for r in skipped if r["type"] == "runtime_report")
    assert report["n_samples"] == len(chunks)
    assert report["chunk_ms"] == pytest.approx(matrix.shape[0] * 40.0 / len(chunks))
    assert next(r for r in skipped if r["type"] == "final")["transcript"] == "play halsey now"


SPACE_VOCAB = [" play", " hal", "sey", " now", " go", "<blank>"]


def test_space_prefixed_vocabulary_works_with_a_space_marker(tmp_path, capsys):
    """Only the marker starts a word, so a vocabulary whose pieces start with
    a plain space takes --marker ' ': the decoded words and the tokenized
    surface-only bias line then agree, and spot equals stream."""
    vocab = _write_vocab(tmp_path, SPACE_VOCAB)
    bias = _write_bias(tmp_path, ["halsey\n"])  # surface only: tokenized against the vocabulary
    logits = str(tmp_path / "utt.ctcl")
    assert main(["synth", "--vocab", vocab, "--text", "play halsey now", "--out", logits,
                 "--seed", "7", "--marker", " "]) == 0
    segments = _records(capsys)[-1]["segments"]
    assert [s["token"] for s in segments if s["token"] != 5] == [0, 1, 2, 3]
    engine = ["--vocab", vocab, "--marker", " "]
    assert main(["spot", "--logits", logits, *engine]) == 0
    greedy = next(r for r in _records(capsys) if r["type"] == "transcript")
    assert [w["word"] for w in greedy["words"]] == ["play", "halsey", "now"]
    halsey = greedy["words"][1]
    engine += ["--bias", bias, "--cb-weight", "2", "--min-per-frame-score", "-0.5"]
    assert main(["spot", "--logits", logits, *engine]) == 0
    records = _records(capsys)
    cands = [r for r in records if r["type"] == "candidate"]
    assert [c["keyword"] for c in cands] == ["halsey"]
    # the bias line's tokens, " hal" and "sey", are the decoded word's
    assert halsey["start_frame"] <= cands[0]["start_frame"]
    assert cands[0]["end_frame"] <= halsey["end_frame"]
    spot = next(r for r in records if r["type"] == "transcript")
    assert spot["text"] == "play halsey now"
    for chunk_ms in ("160", "560", "1120"):
        assert main(["stream", "--logits", logits, *engine, "--chunk-ms", chunk_ms]) == 0
        streamed = [w for r in _records(capsys) if r["type"] in ("chunk", "final")
                    for w in r["delta"]]
        assert streamed == spot["words"]
    # with the default marker no piece starts a word, and the line cannot be tokenized
    assert main(["spot", "--logits", logits, "--vocab", vocab, "--bias", bias]) == 2
    assert capsys.readouterr().out == ""


def test_readme_quick_start_runs(tmp_path):
    """Every command of the README quick start exits 0 in a fresh directory
    and prints only strict JSON records, with ``ctcspot`` run as
    ``python -m ctcspot.cli``."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quick start", 1)[1].split("```")[1]
    commands = [line for line in block.splitlines() if line and not line.startswith("#")]
    assert commands[-1].startswith("ctcspot eval")
    src = Path(ctcspot.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    cli = f"{shlex.quote(sys.executable)} -m ctcspot.cli "
    for command in commands:
        if command.startswith("ctcspot "):
            command = cli + command[len("ctcspot "):]
        done = subprocess.run(["bash", "-o", "pipefail", "-c", command], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, (command, done.stderr)
        for line in done.stdout.splitlines():
            assert isinstance(json.loads(line, parse_constant=_not_json), dict), command
