"""Set-up, the measured passes over a workload's utterances, and the
correctness gate.

The loop is closed and single-threaded: an ASR decoder that calls the
library waits for each ``ChunkOutput`` before it feeds the next chunk, so
the benchmark does the same. Each pass is one whole utterance, and its
output is checked against a reference computed outside the timed region.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import traceback
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import ctcspot.merge
import ctcspot.pipeline
from ctcspot import (
    ContextGraph,
    MergePolicy,
    SpotterConfig,
    StreamingPipeline,
    build_graph,
    load_bias_list,
    load_vocab,
    offline_pipeline,
)
from ctcspot.formats import chunker, read_envelope, read_logits
from ctcspot.metrics import ChunkTiming

from inputs import MAX_KEYWORD_FRAMES, Workload
from spans import Tracer, patched


@dataclass
class Engine:
    vocab: list[str]
    graph: ContextGraph
    cfg: SpotterConfig
    policy: MergePolicy
    entries: list


def setup(files: Path, w: Workload, tracer: Tracer | None = None) -> Engine:
    """What a caller does once before its first utterance: load the vocab
    and the bias list, build the graph and, when streaming, construct the
    pipeline."""
    wrap = tracer.wrap if tracer else _untraced
    vocab = load_vocab(str(files / "vocab.txt"))
    entries = wrap("graph.load_bias_list", load_bias_list)(str(files / "bias.tsv"))
    graph = wrap("graph.build_graph", build_graph)(entries, vocab_size=len(vocab))
    cfg = SpotterConfig(blank_id=len(vocab) - 1, max_keyword_frames=MAX_KEYWORD_FRAMES)
    policy = MergePolicy()
    if w.streamed:
        StreamingPipeline(graph, cfg, policy, vocab=vocab)
    return Engine(vocab, graph, cfg, policy, entries)


def _untraced(name, fn):
    return fn


# The machine's speed drifts by more than half, for seconds to minutes at a
# time, when other work shares its cores. Each measured sample is therefore
# bracketed by runs of this fixed loop, shaped like the search's inner loop
# (dict probes, tuples, float compares), and its time is scaled by
# CALIBRATION_REF_S / (mean loop time around it). A scaled time is the time
# the sample would take on a machine that runs the loop in CALIBRATION_REF_S.
CALIBRATION_STEPS = 8000
CALIBRATION_REF_S = 2.0e-3


def calibrate() -> float:
    """Seconds taken by the calibration loop now. The garbage collector is
    off meanwhile, so that the loop's time does not depend on how many
    objects the library keeps alive."""
    state: dict = {}
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        for i in range(CALIBRATION_STEPS):
            key = (i * 7919) & 2047
            score = i * 0.5
            prev = state.get(key)
            if prev is None or score > prev[0]:
                state[key] = (score, i)
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scales(calibrations: list[float]) -> list[float]:
    """Scale factor for each sample between consecutive calibrations."""
    return [2 * CALIBRATION_REF_S / (a + b) for a, b in zip(calibrations, calibrations[1:])]


def canonical(transcript: str, words) -> tuple:
    return transcript, tuple((w.word, w.start_frame, w.end_frame, w.path_score) for w in words)


def canonical_cands(cands) -> tuple:
    return tuple((c.keyword_id, c.start_frame, c.end_frame, c.score) for c in cands)


@dataclass
class Pass:
    """One utterance through the workload's path."""

    utt: int
    frames: int = 0
    seconds: float = 0.0
    scale: float = 1.0  # calibration scale for this pass's times
    chunk_s: list[float] = field(default_factory=list)
    steps: list[ChunkTiming] = field(default_factory=list)  # flush excluded
    output: tuple | None = None  # None when the pass raised


def _chunks(w: Workload, source: str, tracer: Tracer | None, stack: ExitStack):
    """The decoded chunks of one utterance, as the CLI's stream command reads
    them: envelope lines from a stream, or a logits file cut by ``chunker``.
    An envelope file is opened on ``stack`` and read line by line, as stdin
    would be."""
    if w.feed == "envelope":
        chunks = read_envelope(stack.enter_context(open(source, encoding="ascii")))
        return tracer.wrap_iter("formats.read_envelope", chunks) if tracer else chunks
    matrix, frame_ms = (tracer.wrap("formats.read_logits", read_logits) if tracer else read_logits)(
        source
    )
    return chunker(matrix, w.chunk_ms, frame_ms)


def stream_pass(eng: Engine, w: Workload, utt: int, source: str, tracer: Tracer | None) -> Pass:
    p = Pass(utt)
    pipe = StreamingPipeline(eng.graph, eng.cfg, eng.policy, vocab=eng.vocab)
    if tracer:
        observed = _instrument(pipe, tracer)
    start = perf_counter()
    with ExitStack() as stack:
        chunks = _chunks(w, source, tracer, stack)
        while True:
            t0 = perf_counter()
            chunk = next(chunks, None)
            if chunk is None:
                break
            pipe.process_chunk(chunk)
            p.chunk_s.append(perf_counter() - t0)
    pipe.flush()
    p.seconds = perf_counter() - start
    p.frames = pipe.spotter.frames_seen
    p.steps = [ChunkTiming(t.align_ms, t.spot_ms, t.merge_ms) for t in pipe.timings[:-1]]
    p.output = canonical(pipe.transcript, pipe.emitted_words)
    if tracer:
        _record_stream_counts(tracer, observed)
        if w.feed == "envelope":
            tracer.counts["formats.bytes_decoded"] += os.path.getsize(source)
    return p


def offline_pass(eng: Engine, w: Workload, utt: int, path: str, tracer: Tracer | None) -> Pass:
    p = Pass(utt)
    wrap = tracer.wrap if tracer else _untraced
    start = perf_counter()
    matrix, _ = wrap("formats.read_logits", read_logits)(path)
    t0 = perf_counter()
    transcript, words, cands = wrap("pipeline.offline_pipeline", offline_pipeline)(
        matrix, eng.graph, eng.cfg, eng.policy, vocab=eng.vocab
    )
    end = perf_counter()
    p.seconds = end - start
    p.frames = matrix.shape[0]
    p.chunk_s = [p.seconds]  # the whole utterance is the one chunk
    # the ctcspot spot path cannot be split from outside without tracing, so
    # all of offline_pipeline counts as the extra processing
    p.steps = [ChunkTiming(0.0, (end - t0) * 1e3, 0.0)]
    p.output = (*canonical(transcript, words), canonical_cands(cands))
    return p


def _observe_spotter(pipe: StreamingPipeline, observed: list, wrap=None) -> None:
    """Route this pipeline's spotter steps through ``wrap`` (a span maker)
    and append (frames in the chunk, SpotChunkResult) to ``observed``."""
    wrap = wrap or _untraced
    spot = wrap("streaming.process_chunk", pipe.spotter.process_chunk)
    flush = wrap("streaming.flush", pipe.spotter.flush)

    def process_chunk(chunk):
        res = spot(chunk)
        observed.append((len(chunk), res))
        return res

    def flush_spotter():
        res = flush()
        observed.append((0, res))
        return res

    pipe.spotter.process_chunk, pipe.spotter.flush = process_chunk, flush_spotter


def _instrument(pipe: StreamingPipeline, tracer: Tracer) -> list:
    """Wrap this pipeline's own components; returns the list that collects
    (frames in chunk, SpotChunkResult) for each spotter step."""
    observed: list = []
    _observe_spotter(pipe, observed, tracer.wrap)
    feed = tracer.wrap("aligner.feed", pipe.aligner.feed)

    def feed_words(chunk):
        words = feed(chunk)
        tracer.counts["aligner.words"] += len(words)
        return words

    pipe.aligner.feed = feed_words
    pipe.process_chunk = tracer.wrap("pipeline.process_chunk", pipe.process_chunk)
    pipe.flush = tracer.wrap("pipeline.flush", pipe.flush)
    return observed


def _record_stream_counts(tracer: Tracer, observed: list) -> None:
    frames = 0
    for n, res in observed:
        frames += n
        tracer.samples["streaming.live_hyps"].append(res.held_preview.active_tokens)
        tracer.samples["streaming.pending"].append(len(res.held_preview.candidates))
        tracer.samples["streaming.frontier_lag_frames"].append(frames - res.new_frontier)
        tracer.counts["streaming.finalized"] += len(res.finalized)


def module_patches(tracer: Tracer) -> list:
    """Wrappers for the module-level functions the pipeline calls."""
    merge = ctcspot.merge.merge_region

    def merge_with_stats(words, cands, policy, surfaces):
        stats: dict = {}
        out = merge(words, cands, policy, surfaces, stats=stats)
        for key, value in stats.items():
            tracer.counts[f"merge.{key}"] += value
        return out

    def counted(name, fn, counter):
        def call(*args, **kwargs):
            out = fn(*args, **kwargs)
            tracer.counts[counter] += len(out)
            return out

        return tracer.wrap(name, call)

    traced_merge = tracer.wrap("merge.merge_region", merge_with_stats)
    pl = ctcspot.pipeline
    return [
        (pl, "commit_step", tracer.wrap("merge.commit_step", pl.commit_step)),
        (ctcspot.merge, "merge_region", traced_merge),
        (pl, "merge_region", traced_merge),
        (pl, "greedy_decode", counted("aligner.greedy_decode", pl.greedy_decode, "aligner.words")),
        (pl, "spot_offline", counted("spotter.spot_offline", pl.spot_offline, "spotter.candidates")),
        (pl, "dedup_overlaps", counted("spotter.dedup_overlaps", pl.dedup_overlaps, "spotter.kept")),
    ]


def measured_loop(
    eng: Engine, w: Workload, sources: list[str], seconds: float, tracer: Tracer | None = None
) -> list[Pass]:
    """Cycle through the utterances until ``seconds`` have passed; at least
    one pass runs, and every pass is bracketed by calibrations."""
    run = stream_pass if w.streamed else offline_pass
    passes: list[Pass] = []
    gc.collect()
    calibrations = [calibrate()]
    with patched(module_patches(tracer) if tracer else []):
        deadline = perf_counter() + seconds
        while not passes or perf_counter() < deadline:
            utt = len(passes) % len(sources)
            try:
                passes.append(run(eng, w, utt, sources[utt], tracer))
            except Exception:
                traceback.print_exc(file=sys.stderr)
                passes.append(Pass(utt))
            calibrations.append(calibrate())
    for p, scale in zip(passes, scales(calibrations)):
        p.scale = scale
    return passes


# correctness gate -------------------------------------------------------------


@dataclass
class Reference:
    """Expected output per utterance, and the gate's verdict on it."""

    outputs: list[tuple | None]  # what each pass must return; None if unknown
    gate_ok: list[bool]
    lags_frames: list[int]  # commit lag of every emitted word


def _streamed_with_candidates(eng: Engine, w: Workload, source: str):
    """Stream one utterance; returns (transcript, words), the finalized
    candidates, the commit lag of each emitted word in frames, and the
    number of frames."""
    pipe = StreamingPipeline(eng.graph, eng.cfg, eng.policy, vocab=eng.vocab)
    observed: list = []
    _observe_spotter(pipe, observed)
    lags: list[int] = []
    with ExitStack() as stack:
        for chunk in _chunks(w, source, None, stack):
            out = pipe.process_chunk(chunk)
            fed = pipe.spotter.frames_seen
            lags.extend(fed - 1 - word.end_frame for word in out.committed_delta)
    out = pipe.flush()
    frames = pipe.spotter.frames_seen
    lags.extend(frames - 1 - word.end_frame for word in out.committed_delta)
    finalized = [c for _, res in observed for c in res.finalized]
    return canonical(pipe.transcript, pipe.emitted_words), canonical_cands(finalized), lags, frames


def _offline_result(eng: Engine, w: Workload, source: str):
    if w.feed == "envelope":
        with open(source, encoding="ascii") as fp:
            matrix = np.concatenate(list(read_envelope(fp)))
    else:
        matrix, _ = read_logits(source)
    transcript, words, cands = offline_pipeline(
        matrix, eng.graph, eng.cfg, eng.policy, vocab=eng.vocab
    )
    return canonical(transcript, words), canonical_cands(cands)


def _each(fn, eng: Engine, w: Workload, sources: list[str]) -> list:
    out = []
    for source in sources:
        try:
            out.append(fn(eng, w, source))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            out.append(None)
    return out


def streamed_side(eng: Engine, w: Workload, sources: list[str]) -> list:
    """Stream every utterance once, outside the timed region. This also warms
    the caches before the measured loop."""
    return _each(_streamed_with_candidates, eng, w, sources)


def offline_side(eng: Engine, w: Workload, sources: list[str], cache: Path) -> list:
    """Whole-utterance results, cached per input set and library source,
    because offline de-overlap dominates the gate's time on noise."""
    if cache.is_file():
        return [_untuple(r) for r in json.loads(cache.read_text(encoding="utf-8"))]
    out = _each(_offline_result, eng, w, sources)
    if all(r is not None for r in out):
        tmp = cache.with_suffix(".tmp")
        tmp.write_text(json.dumps(out), encoding="utf-8")
        tmp.replace(cache)
    return out


def _untuple(x):
    return tuple(_untuple(v) for v in x) if isinstance(x, list) else x


def stream_reference(streamed: list, offline: list) -> Reference:
    """Streamed workloads: the streamed transcript, words and finalized
    candidates must equal the whole-utterance result, which each timed pass
    must then reproduce. The age cap covers every utterance, so any
    difference is a failure."""
    outputs, ok, lags = [], [], []
    for s, o in zip(streamed, offline):
        ok.append(s is not None and o is not None and s[:2] == o)
        outputs.append(o[0] if o is not None else None)
        lags.extend(s[2] if s is not None else ())
    return Reference(outputs, ok, lags)


def offline_reference(streamed: list) -> Reference:
    """Offline workload: each pass's transcript, words and kept candidates
    must equal the streamed result. Every word is emitted at the end of the
    utterance, which sets its commit lag."""
    outputs, lags = [], []
    for s in streamed:
        if s is None:
            outputs.append(None)
            continue
        (transcript, words), cands, _, n_frames = s
        outputs.append((transcript, words, cands))
        lags.extend(n_frames - 1 - word[2] for word in words)
    return Reference(outputs, [s is not None for s in streamed], lags)


def count_failed(passes: list[Pass], ref: Reference) -> int:
    """Passes that raised, whose utterance failed the gate, or whose output
    differs from the reference."""
    return sum(
        1
        for p in passes
        if p.output is None or not ref.gate_ok[p.utt] or p.output != ref.outputs[p.utt]
    )
