import io
import json
from pathlib import Path

import pytest

from ctcspot.cli import main
from ctcspot.formats import write_alignments, write_envelope, write_logits
from ctcspot import WordAlignment, generate, make_spec

from conftest import MARKER

VOCAB = [f"{MARKER}play", f"{MARKER}hal", "sey", f"{MARKER}now", f"{MARKER}go", "<blank>"]
BLANK = 5


def _write_vocab(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("".join(v + "\n" for v in VOCAB), encoding="utf-8")
    return str(path)


def _write_bias(tmp_path, lines):
    path = tmp_path / "bias.tsv"
    path.write_text("".join(lines), encoding="utf-8")
    return str(path)


def _records(capsys):
    out = capsys.readouterr().out
    return [json.loads(line) for line in out.splitlines() if line.startswith("{")]


def _synth_logits(tmp_path, name="utt.ctcl"):
    """play <missable halsey> now: the keyword hides under dominant blanks."""
    script = [
        (BLANK, 2, 0.9),
        (0, 3, 0.9),          # "play"
        (BLANK, 2, 0.9),
        # halsey tokens at 0.42 under a 0.55 blank shadow: greedy misses them
        {"token": 1, "duration": 3, "peak": 0.42, "shadow_token": BLANK, "shadow_prob": 0.55},
        {"token": 2, "duration": 3, "peak": 0.42, "shadow_token": BLANK, "shadow_prob": 0.55},
        (BLANK, 1, 0.9),
        (3, 3, 0.9),          # "now"
        (BLANK, 2, 0.9),
    ]
    from ctcspot import ScriptSegment

    segments = [seg if isinstance(seg, tuple) else ScriptSegment(**seg) for seg in script]
    spec = make_spec(5, len(VOCAB), BLANK, segments)
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
    assert main(["spot", "--logits", logits]) == 1


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
    final = next(r for r in _records(capsys) if r["type"] == "final")
    assert final["partial"] is True


def test_stream_with_external_alignments(tmp_path, capsys):
    logits, _ = _synth_logits(tmp_path)
    bias = _write_bias(tmp_path, ["halsey\t1,2\n"])
    words_path = str(tmp_path / "words.tsv")
    write_alignments(
        words_path,
        [WordAlignment("play", 2, 4, -0.4), WordAlignment("now", 15, 17, -0.4)],
    )
    assert main(["stream", "--logits", logits, "--alignments", words_path,
                 "--bias", bias, "--cb-weight", "2", "--min-per-frame-score", "-0.5",
                 "--chunk-ms", "160"]) == 0
    final = next(r for r in _records(capsys) if r["type"] == "final")
    assert final["transcript"] == "play halsey now"


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
