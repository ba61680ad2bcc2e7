"""ctcspot benchmark: streaming and offline workloads, end-to-end metrics
untraced, per-layer metrics from a separate traced run.

    python3 bench/run.py --workload stream-speech-10k --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all        # every workload, one table

Run from the repository root. The library is imported from ``src/``. Inputs
and the whole-utterance reference are cached under ``.bench_cache/``;
traces and results are written there too. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CACHE = ROOT / ".bench_cache"
# Set-up is timed in three windows spread over the run (before the gate,
# after the measured loop, at the end), each of at least this many repeats
# and this many seconds, so that its median does not rest on one moment.
SETUP_REPEATS = 4
SETUP_SECONDS = 0.7

# BLAS threads would compete with the single caller thread being measured.
os.environ.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")

from inputs import FRAME_MS, WORKLOADS, Workload, input_key  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "throughput_xrt": "x",
    "chunk_ms.mean": "ms",
    "chunk_ms.p95": "ms",
    "extra_ratio_pct": "%",
    "commit_lag_ms.mean": "ms",
    "commit_lag_ms.tail5_mean": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "streaming.process_chunk_ms.p50": "ms",
    "streaming.process_chunk_ms.p95": "ms",
    "streaming.process_chunk_ms_per_frame": "ms/frame",
    "streaming.live_hyps.mean": "count",
    "streaming.live_hyps.max": "count",
    "streaming.pending.max": "count",
    "streaming.finalized": "count/utt",
    "streaming.frontier_lag_frames.p50": "frames",
    "streaming.frontier_lag_frames.p95": "frames",
    "formats.decode_ms_per_chunk": "ms",
    "formats.bytes_decoded": "bytes/chunk",
    "formats.read_logits_ms": "ms",
    "graph.load_bias_list_ms": "ms",
    "graph.build_graph_ms": "ms",
    "graph.nodes": "count",
    "graph.root_children": "count",
    "aligner.feed_ms": "ms",
    "aligner.words": "count/utt",
    "aligner.greedy_decode_ms": "ms",
    "merge.commit_step_ms": "ms",
    "merge.merge_region_ms": "ms",
    "merge.replaced": "count/utt",
    "merge.inserted": "count/utt",
    "merge.discarded": "count/utt",
    "merge.accept_ratio": "ratio",
    "spotter.spot_offline_ms": "ms",
    "spotter.candidates": "count/utt",
    "spotter.dedup_overlaps_ms": "ms",
    "spotter.kept": "count/utt",
    "spotter.dedup_keep_ratio": "ratio",
    "pipeline.self_ms": "ms/utt",
    "trace.throughput_ratio": "ratio",
}


def load_library() -> None:
    """Import ctcspot from this checkout's sources, never from elsewhere."""
    if not (SRC / "ctcspot" / "__init__.py").is_file():
        sys.exit(f"bench: no library sources at {SRC / 'ctcspot'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import ctcspot

    if Path(ctcspot.__file__).resolve().parent != SRC / "ctcspot":
        sys.exit(f"bench: imported ctcspot from {ctcspot.__file__}, not from {SRC}")


def source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ctcspot").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def ensure_inputs(w: Workload, seed: int, tiny: bool) -> Path:
    """Generate the inputs in a child process, once per seed and size."""
    final = CACHE / "inputs" / input_key(w, seed, tiny)
    if (final / "manifest.json").is_file():
        return final
    tmp = final.with_name(f"{final.name}.tmp{os.getpid()}")
    cmd = [sys.executable, str(BENCH / "inputs.py"), "--workload", w.name]
    cmd += ["--seed", str(seed), "--out", str(tmp)] + (["--tiny"] if tiny else [])
    subprocess.run(cmd, check=True, timeout=170)
    try:
        tmp.rename(final)
    except OSError:  # another run made the same inputs first
        shutil.rmtree(tmp)
    return final


def median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


# The benchmark keeps its own statistics, so that a change to the library
# cannot change how the library is measured.
def nearest_rank(xs, q: float) -> float:
    ordered = sorted(xs)
    return ordered[max(1, -(-len(ordered) * q // 100)) - 1] if ordered else 0.0


def tail(xs, share: float) -> list:
    """The largest ``share`` of the values, at least one."""
    return sorted(xs)[-max(1, round(len(xs) * share)):]


def end_to_end_metrics(w, setup_s, passes, ref, peak_rss_mb, scaled=True) -> tuple[dict, dict]:
    """Returns (values, sample counts) for the END_TO_END metrics. Times are
    scaled by each sample's calibration unless ``scaled`` is false."""
    from ctcspot.metrics import ChunkTiming, runtime_report

    ok = [p for p in passes if p.output is not None]
    if not ok:
        sys.exit("bench: every pass raised; no metric can be computed")

    def k(p):
        return p.scale if scaled else 1.0

    chunk_ms = [c * 1e3 * k(p) for p in ok for c in p.chunk_s]
    audio_ms = sum(p.frames for p in ok) * FRAME_MS
    steps = [
        ChunkTiming(s.asr_ms * k(p), s.spot_ms * k(p), s.merge_ms * k(p)) for p in ok for s in p.steps
    ]
    if w.streamed:
        extra = runtime_report(steps, w.chunk_ms).extra_ratio
    else:  # the utterance is the chunk
        extra = 100.0 * sum(s.spot_ms for s in steps) / audio_ms
    lags_ms = [lag * FRAME_MS for lag in ref.lags_frames]
    values = {
        "setup_s": median(setup_s),
        "throughput_xrt": audio_ms / (sum(p.seconds * k(p) for p in ok) * 1e3),
        # a mean, not a median: a per-run median jumps between the speeds the
        # machine alternates between, where a mean moves smoothly
        "chunk_ms.mean": sum(chunk_ms) / len(chunk_ms),
        # per pass, then the median over passes: a pass whose calibration
        # missed a change of speed would otherwise set the tail
        "chunk_ms.p95": median(
            [nearest_rank([c * 1e3 * k(p) for c in p.chunk_s], 95) for p in ok]
        ),
        "extra_ratio_pct": extra,
        # Lags are whole frames, so their median and P95 are often the same
        # number for every seed; means still move when any word is held
        # longer. The tail is the 5% of words held longest.
        "commit_lag_ms.mean": sum(lags_ms) / len(lags_ms),
        "commit_lag_ms.tail5_mean": statistics.mean(tail(lags_ms, 0.05)),
        "peak_rss_mb": peak_rss_mb,
    }
    samples = {
        "setup_s": len(setup_s),
        "throughput_xrt": len(ok),
        "chunk_ms.mean": len(chunk_ms),
        "chunk_ms.p95": len(ok),
        "extra_ratio_pct": len(steps),
        "commit_lag_ms.mean": len(lags_ms),
        "commit_lag_ms.tail5_mean": len(tail(lags_ms, 0.05)),
        "peak_rss_mb": 1,
    }
    return values, samples


def per_layer_metrics(w, tracer, eng, traced, untraced) -> tuple[dict, dict]:
    """Returns (values, sample counts) for the PER_LAYER metrics: times are
    self times, counts are per utterance unless the unit says otherwise."""
    selfs = tracer.self_times()
    counts, samples = tracer.counts, tracer.samples
    ok = [p for p in traced if p.output is not None]
    n_utt = max(1, len(ok))
    chunks = sum(len(p.chunk_s) for p in ok) if w.streamed else 0
    frames = sum(p.frames for p in ok)

    def ms(name):
        return [t * 1e3 for t in selfs.get(name, ())]

    def mean_ms(name):
        xs = ms(name)
        return sum(xs) / len(xs) if xs else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    spot_ms = ms("streaming.process_chunk")
    hyps = samples["streaming.live_hyps"]
    lag = samples["streaming.frontier_lag_frames"]
    merged = counts["merge.replaced"] + counts["merge.inserted"]
    pipeline_ms = sum(sum(v) for k, v in selfs.items() if k.startswith("pipeline.")) * 1e3
    values = {
        "streaming.process_chunk_ms.p50": median(spot_ms),
        "streaming.process_chunk_ms.p95": nearest_rank(spot_ms, 95),
        "streaming.process_chunk_ms_per_frame": ratio(sum(spot_ms), frames if spot_ms else 0),
        "streaming.live_hyps.mean": ratio(sum(hyps), len(hyps)),
        "streaming.live_hyps.max": max(hyps, default=0),
        "streaming.pending.max": max(samples["streaming.pending"], default=0),
        "streaming.finalized": counts["streaming.finalized"] / n_utt,
        "streaming.frontier_lag_frames.p50": median(lag),
        "streaming.frontier_lag_frames.p95": nearest_rank(lag, 95),
        "formats.decode_ms_per_chunk": ratio(sum(ms("formats.read_envelope")), chunks),
        "formats.bytes_decoded": ratio(counts["formats.bytes_decoded"], chunks),
        "formats.read_logits_ms": mean_ms("formats.read_logits"),
        "graph.load_bias_list_ms": median(ms("graph.load_bias_list")),
        "graph.build_graph_ms": median(ms("graph.build_graph")),
        "graph.nodes": eng.graph.num_nodes,
        "graph.root_children": len({e.tokens[0] for e in eng.entries}),
        "aligner.feed_ms": mean_ms("aligner.feed"),
        "aligner.words": counts["aligner.words"] / n_utt,
        "aligner.greedy_decode_ms": mean_ms("aligner.greedy_decode"),
        "merge.commit_step_ms": mean_ms("merge.commit_step"),
        "merge.merge_region_ms": mean_ms("merge.merge_region"),
        "merge.replaced": counts["merge.replaced"] / n_utt,
        "merge.inserted": counts["merge.inserted"] / n_utt,
        "merge.discarded": counts["merge.discarded"] / n_utt,
        "merge.accept_ratio": ratio(merged, merged + counts["merge.discarded"]),
        "spotter.spot_offline_ms": mean_ms("spotter.spot_offline"),
        "spotter.candidates": counts["spotter.candidates"] / n_utt,
        "spotter.dedup_overlaps_ms": mean_ms("spotter.dedup_overlaps"),
        "spotter.kept": counts["spotter.kept"] / n_utt,
        "spotter.dedup_keep_ratio": ratio(counts["spotter.kept"], counts["spotter.candidates"]),
        "pipeline.self_ms": pipeline_ms / n_utt,
        "trace.throughput_ratio": ratio(_xrt(ok), _xrt(untraced)),
    }
    counted = {name: len(ms(name)) for name in selfs}
    return values, {**counted, **{k: len(v) for k, v in samples.items()}, "utterances": len(ok)}


def _xrt(passes) -> float:
    """Calibration-scaled throughput, so that the traced and untraced loops
    compare although they ran at different times."""
    ok = [p for p in passes if p.output is not None]
    wall = sum(p.seconds * p.scale for p in ok)
    return sum(p.frames for p in ok) * FRAME_MS / 1e3 / wall if wall else 0.0


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    load_library()
    import numpy

    import drive
    from spans import Tracer

    files = ensure_inputs(w, seed, tiny)
    names = json.loads((files / "manifest.json").read_text())["utterances"]
    sources = [str(files / n) for n in names]

    tracer = Tracer() if trace else None
    setup_s: list[float] = []

    raw_setup_s: list[float] = []

    def time_setup() -> drive.Engine:
        raw, calibrations = [], [drive.calibrate()]
        while len(raw) < SETUP_REPEATS or sum(raw) < SETUP_SECONDS:
            t0 = perf_counter()
            eng = drive.setup(files, w, tracer)
            raw.append(perf_counter() - t0)
            calibrations.append(drive.calibrate())
        raw_setup_s.extend(raw)
        setup_s.extend(t * k for t, k in zip(raw, drive.scales(calibrations)))
        return eng

    eng = time_setup()
    streamed = drive.streamed_side(eng, w, sources)
    passes = drive.measured_loop(eng, w, sources, seconds)
    # read before the later set-ups and the whole-utterance reference, which
    # are not part of the workload
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    traced: list = []
    if trace:
        traced = drive.measured_loop(eng, w, sources, seconds, tracer)
    time_setup()
    if w.streamed:
        offline = drive.offline_side(eng, w, sources, files / f"offline-ref-{source_hash()}.json")
        ref = drive.stream_reference(streamed, offline)
    else:
        ref = drive.offline_reference(streamed)
    time_setup()
    all_passes = passes + traced
    failed = drive.count_failed(all_passes, ref)

    if trace:
        values, samples = per_layer_metrics(w, tracer, eng, traced, passes)
        units = PER_LAYER
    else:
        values, samples = end_to_end_metrics(w, setup_s, passes, ref, peak_rss_mb)
        raw, _ = end_to_end_metrics(w, raw_setup_s, passes, ref, peak_rss_mb, scaled=False)
        samples["unscaled"] = raw
        units = END_TO_END
    manifest = {
        "type": "manifest",
        "workload": w.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "tiny": tiny,
        "git_sha": git_sha(),
        "source_sha256": source_hash(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "utterances": len(sources),
        "gate_ok": sum(ref.gate_ok),
    }
    result = {
        "correct": failed == 0,
        "attempted": len(all_passes),
        "failed": failed,
        "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in units},
    }
    out_dir = CACHE / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{w.name}-s{seed}-t{int(trace)}"
    (out_dir / f"{stem}.json").write_text(
        json.dumps(
            {
                "manifest": manifest,
                "samples": samples,
                "result": result,
                "passes": [(p.utt, p.frames, p.seconds, p.scale) for p in all_passes],
            },
            indent=1,
        )
    )
    if tracer:
        tracer.dump(out_dir / f"{stem}-spans.json")
    print(json.dumps(manifest))
    print_table(w.name, result["metrics"], samples)
    return result


def print_table(workload: str, metrics: dict, samples: dict) -> None:
    width = max(len(k) for k in metrics)
    unscaled = samples.get("unscaled", {})
    for name, m in metrics.items():
        n = samples.get(name)
        tail = f"  (n={n})" if n is not None else ""
        if unscaled.get(name, m["value"]) != m["value"]:
            tail += f"  unscaled {unscaled[name]:.6g}"
        print(f"{workload:<18} {name:<{width}} {m['value']:>14.6g} {m['unit']}{tail}")


def run_all(args) -> dict:
    """Each workload in its own process, so peak memory is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        cmd += ["--tiny"] if args.tiny else []
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit(f"bench: workload {name} exited with {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = m
    return combined


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true", help="reduced sizes, for the benchmark's tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), args.tiny)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
