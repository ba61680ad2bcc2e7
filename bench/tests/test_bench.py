"""The benchmark's own tests: every named metric is reported with its unit,
the correctness gate catches a wrong reference, and the benchmark refuses
to run without the library sources.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(BENCH))
import run  # noqa: E402  (sets the thread pins and finds the library)

run.load_library()
import drive  # noqa: E402
from inputs import WORKLOADS  # noqa: E402


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [*SPEC["command"], *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.3",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert list(run.END_TO_END) == [m["name"] for m in SPEC["end_to_end"]]
    assert list(run.PER_LAYER) == [m["name"] for m in SPEC["per_layer"]]


def _tiny(name: str):
    w = WORKLOADS[name]
    files = run.ensure_inputs(w, seed=5, tiny=True)
    names = json.loads((files / "manifest.json").read_text())["utterances"]
    sources = [str(files / n) for n in names]
    return w, drive.setup(files, w), sources


def _one_pass_each(w, eng, sources):
    run_pass = drive.stream_pass if w.streamed else drive.offline_pass
    return [run_pass(eng, w, u, source, None) for u, source in enumerate(sources)]


def test_gate_fails_a_corrupted_stream_reference():
    w, eng, sources = _tiny("stream-noise-1k")
    streamed = drive.streamed_side(eng, w, sources)
    offline = [drive._offline_result(eng, w, s) for s in sources]
    passes = _one_pass_each(w, eng, sources)
    assert drive.count_failed(passes, drive.stream_reference(streamed, offline)) == 0

    (transcript, words), cands = offline[0]
    last = words[-1]
    offline[0] = ((transcript, words[:-1] + ((last[0], last[1], last[2], last[3] + 1e-9),)), cands)
    ref = drive.stream_reference(streamed, offline)
    assert ref.gate_ok == [False, True]
    assert drive.count_failed(passes, ref) == 1


def test_gate_fails_when_candidates_differ():
    w, eng, sources = _tiny("offline-noise-1k")
    streamed = drive.streamed_side(eng, w, sources)
    passes = _one_pass_each(w, eng, sources)
    assert drive.count_failed(passes, drive.offline_reference(streamed)) == 0

    words_out, cands, lags, frames = streamed[0]
    streamed[0] = (words_out, cands[1:], lags, frames)
    assert drive.count_failed(passes, drive.offline_reference(streamed)) == 1


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    w = SPEC["workloads"][0]["name"]
    proc = _run(tmp_path, "--workload", w, "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
