"""Seeded, bounded fuzz of the command line: mutated inputs and flags go
through ``cli.main`` in process, and every run must end in a documented
exit code with strict-JSON stdout that starts with the manifest."""

import base64
import io
import json
import random
import struct

import pytest

from ctcspot import generate, make_spec, word_script
from ctcspot.cli import main
from ctcspot.formats import WordAlignment, write_alignments, write_envelope, write_logits

from conftest import MARKER

SEED = 20
CASES = 250

VOCAB = [f"{MARKER}play", f"{MARKER}hal", "sey", f"{MARKER}now", f"{MARKER}go", "<blank>"]
BLANK = 5
BIAS = "halsey\t1,2\nplay now\t0,3\n# comment\ngo\n"
WORDS = [WordAlignment("play", 1, 3, -0.4), WordAlignment("now", 12, 14, -0.4)]
TRANSCRIPTS = "play halsey now\ngo go\n\n"

# field values that break, stretch or barely keep each rule
TOKENS = ["", " ", "0", "1", "-1", "3", "2.5", "nan", "inf", "-inf", "1e400", "x", "#", "é",
          "99999999999999999999", "0,3", "1,,2", "\t"]
JSON_VALUES = [None, True, -1, 0, 1, 2, 1.5, "1", "chunk", "end", "", [], {}, 10**20]
CELLS = [float("nan"), float("inf"), float("-inf"), 0.5, 0.0, -1e30]
FLAGS = {
    "--cb-weight": ["nan", "inf", "-inf", "0", "2", "-1e308"],
    "--beam-threshold": ["inf", "nan", "-1", "0", "7"],
    "--min-per-frame-score": ["nan", "-inf", "inf", "0", "-0.5"],
    "--max-keyword-frames": ["0", "1", "-5", "x", "3"],
    "--intersection-threshold": ["0", "1", "0.5", "nan", "inf", "2"],
    "--score-margin": ["nan", "-inf", "inf", "0"],
    "--blank-id": ["-1", "0", "5", "99"],
    "--marker": ["", MARKER, " "],
}
STREAM_FLAGS = {
    "--chunk-ms": ["nan", "inf", "0", "40", "160", "1e-300", "1e308"],
    "--frame-ms": ["nan", "inf", "0", "-40", "40", "1e-300"],
}


def _mutate_lines(rng: random.Random, text: str) -> str:
    """Delete, duplicate, swap, truncate or add a line, or replace one
    tab-separated field."""
    lines = text.splitlines()
    op = rng.randrange(6) if lines else 4
    i = rng.randrange(len(lines)) if lines else 0
    if op == 0:
        del lines[i]
    elif op == 1:
        lines.insert(i, lines[i])
    elif op == 2:
        j = rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    elif op == 3:
        fields = lines[i].split("\t")
        fields[rng.randrange(len(fields))] = rng.choice(TOKENS)
        lines[i] = "\t".join(fields)
    elif op == 4:
        lines.insert(i, "\t".join(rng.choices(TOKENS, k=rng.randint(1, 5))))
    else:
        lines[i] = lines[i][: rng.randrange(len(lines[i]) + 1)]
    return "".join(line + "\n" for line in lines)


def _mutate_cells(rng: random.Random, payload: bytes) -> bytes:
    """Flip a byte or overwrite a float32 cell with a rule-breaking value."""
    if not payload:
        return payload
    data = bytearray(payload)
    if rng.random() < 0.5:
        data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
    else:
        at = 4 * rng.randrange(len(data) // 4)
        data[at : at + 4] = struct.pack("<f", rng.choice(CELLS))
    return bytes(data)


def _mutate_logits(rng: random.Random, blob: bytes) -> bytes:
    """Change a header field or byte, the payload cells, or the length."""
    op = rng.randrange(5)
    if op == 0:
        at = rng.randrange(20)
        return blob[:at] + bytes([rng.randrange(256)]) + blob[at + 1 :]
    if op == 1:
        field = rng.choice([4, 8, 12])  # version, frames, vocab
        value = rng.choice([0, 1, 2, 6, 7, 19, 20, 2**32 - 1])
        return blob[:field] + struct.pack("<I", value) + blob[field + 4 :]
    if op == 2:  # frame duration
        return blob[:16] + struct.pack("<f", rng.choice([*CELLS, 1e-44, 1e30])) + blob[20:]
    if op == 3:
        return blob[:20] + _mutate_cells(rng, blob[20:])
    return blob[: rng.randrange(len(blob) + 1)] if rng.random() < 0.7 else blob + b"\0" * 4


def _mutate_envelope(rng: random.Random, text: str) -> str:
    """A line mutation, or one field of a chunk record changed: a new
    value, a deleted key, or damaged base64 or float cells."""
    lines = text.splitlines()
    chunk_lines = [i for i, line in enumerate(lines) if '"chunk"' in line]
    if rng.random() < 0.3 or not chunk_lines:
        return _mutate_lines(rng, text)
    i = rng.choice(chunk_lines)
    record = json.loads(lines[i])
    key = rng.choice(["type", "n_frames", "frames"])
    op = rng.randrange(4)
    if op == 0:
        record[key] = rng.choice(JSON_VALUES)
    elif op == 1:
        del record[key]
    elif op == 2:
        payload = base64.b64decode(record["frames"])
        record["frames"] = base64.b64encode(_mutate_cells(rng, payload)).decode("ascii")
    else:
        cut = rng.randrange(len(record["frames"]) + 1)
        record["frames"] = record["frames"][:cut] + rng.choice(["", "=", "?", "A"])
    lines[i] = json.dumps(record)
    return "".join(line + "\n" for line in lines)


def _base_inputs(tmp_path) -> dict[str, bytes]:
    """Files of one valid run: "play halsey now" as logits and as a chunk
    envelope, with a vocabulary, bias list, alignments and transcripts."""
    matrix, _ = generate(make_spec(3, len(VOCAB), BLANK, word_script([[0], [1, 2], [3]], BLANK)))
    write_logits(str(tmp_path / "utt.ctcl"), matrix, 40.0)
    write_alignments(str(tmp_path / "words.tsv"), WORDS)
    envelope = io.StringIO()
    write_envelope(envelope, [matrix[:5], matrix[5:5], matrix[5:]])
    return {
        "utt.ctcl": (tmp_path / "utt.ctcl").read_bytes(),
        "words.tsv": (tmp_path / "words.tsv").read_bytes(),
        "envelope": envelope.getvalue().encode(),
        "vocab.txt": "".join(v + "\n" for v in VOCAB).encode(),
        "bias.tsv": BIAS.encode(),
        "refs.txt": TRANSCRIPTS.encode(),
        "hyps.txt": TRANSCRIPTS.replace("halsey", "hal sey").encode(),
    }


def _case(rng: random.Random, base: dict[str, bytes], tmp_path) -> tuple[list[str], str]:
    """One mutated run: (argv, stdin text), its files written to
    ``tmp_path``."""
    files = dict(base)
    command = rng.choice(["spot --logits", "stream --logits", "stream --stdin-envelope", "eval"])
    if command == "eval":
        targets = ["refs.txt", "hyps.txt", "bias.tsv"]
        argv = ["eval", "--refs", "refs.txt", "--hyps", "hyps.txt", "--bias", "bias.tsv"]
        if rng.random() < 0.5:
            argv.append("--per-keyword")
    else:
        source = rng.choice(["--vocab", "--alignments"])
        name = "vocab.txt" if source == "--vocab" else "words.tsv"
        argv = command.split() + (["utt.ctcl"] if "--logits" in command else [])
        argv += [source, name, "--bias", "bias.tsv"]
        targets = ["bias.tsv", name, "envelope" if "envelope" in command else "utt.ctcl"]
        flags = {**FLAGS, **(STREAM_FLAGS if command.startswith("stream") else {})}
        for flag in rng.sample(sorted(flags), rng.randint(0, 2)):
            argv.append(f"{flag}={rng.choice(flags[flag])}")
    for target in rng.sample(targets, rng.randint(1, 2)):
        if target == "utt.ctcl":
            files[target] = _mutate_logits(rng, files[target])
        elif target == "envelope":
            files[target] = _mutate_envelope(rng, files[target].decode()).encode()
        else:
            files[target] = _mutate_lines(rng, files[target].decode()).encode()
    for name, blob in files.items():
        (tmp_path / name).write_bytes(blob)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    return argv, files["envelope"].decode()


def _not_json(constant):
    raise ValueError(f"{constant} is not a JSON token")


@pytest.mark.filterwarnings("ignore:rows deviate:UserWarning")  # read_logits is lenient
def test_mutated_inputs_and_flags_end_in_a_documented_exit(tmp_path, capsys, monkeypatch):
    rng = random.Random(SEED)
    base = _base_inputs(tmp_path)
    codes = set()
    for _ in range(CASES):
        argv, stdin = _case(rng, base, tmp_path)
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a flag value
            code = exc.code
        out = capsys.readouterr().out
        assert code in (0, 1, 2, 3), argv
        records = [json.loads(line, parse_constant=_not_json) for line in out.splitlines()]
        assert all(isinstance(r, dict) for r in records), argv
        if records:
            assert records[0]["type"] == "manifest", argv
        codes.add(code)
    assert codes == {0, 1, 2, 3}  # the mutations reach every outcome
