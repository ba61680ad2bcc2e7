"""Command line front end.

Subcommands:
  spot    whole-utterance biasing over a stored log-probability file
  stream  chunked biasing with incremental committed output
  eval    WER and biasing-phrase precision/recall/F-score
  synth   synthetic log-probability generation with a known transcript

Structured results are printed as line-delimited JSON records on stdout;
the first record of every run is a manifest carrying the full
configuration. Exit codes: 0 ok, 1 usage, 2 format error, 3 protocol
error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict

from . import __version__
from .errors import CtcspotError, FormatError, ProtocolError
from .formats import (
    LOGITS_VERSION,
    check_duration,
    chunker,
    read_alignments,
    read_envelope,
    read_logits,
    resolve_blank,
    write_logits,
)
from .graph import (
    DEFAULT_WORD_MARKER,
    build_graph,
    load_bias_list,
    load_bias_surfaces,
    load_vocab,
    tokenize,
)
from .merge import MergePolicy
from .metrics import (
    ChunkTiming,
    corpus_wer,
    format_keyword_table,
    format_runtime_table,
    keyword_prf,
    runtime_report,
)
from .pipeline import StreamingPipeline, offline_pipeline
from .spotter import SpotterConfig
from .synth import generate, make_spec, word_script

CHUNK_MS_CHOICES = (160.0, 560.0, 1120.0)  # common streaming latency settings
DEFAULT_FRAME_MS = 40.0


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit code 1 on usage problems
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_engine_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bias", help="bias list file (surface<TAB>token,token,...)")
    p.add_argument("--vocab", help="vocabulary file, one token string per line")
    p.add_argument("--alignments", help="external word alignment file instead of greedy decoding")
    p.add_argument("--blank-id", type=int, default=None, help="default: vocabulary size - 1")
    p.add_argument("--marker", default=DEFAULT_WORD_MARKER, help="word-boundary marker prefix")
    p.add_argument("--cb-weight", type=float, default=3.0)
    p.add_argument("--beam-threshold", type=float, default=7.0, help="'inf' disables pruning")
    p.add_argument("--min-per-frame-score", type=float, default=-5.0)
    p.add_argument("--max-keyword-frames", type=int, default=200)
    p.add_argument("--intersection-threshold", type=float, default=0.5)
    p.add_argument("--score-margin", type=float, default=0.0)
    p.add_argument("--no-insertion", action="store_true", help="never insert candidates into silence")


def build_parser() -> _Parser:
    parser = _Parser(prog="ctcspot", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_spot = sub.add_parser("spot", help="whole-utterance biasing")
    p_spot.add_argument("--logits", required=True)
    _add_engine_flags(p_spot)
    p_spot.set_defaults(func=cmd_spot)

    p_stream = sub.add_parser("stream", help="chunked biasing with incremental commits")
    src = p_stream.add_mutually_exclusive_group(required=True)
    src.add_argument("--logits")
    src.add_argument("--stdin-envelope", action="store_true", help="read a chunk stream on stdin")
    p_stream.add_argument(
        "--chunk-ms", type=float, default=1120.0,
        help=f"chunk duration for --logits input; common settings: {CHUNK_MS_CHOICES}",
    )
    p_stream.add_argument("--frame-ms", type=float, default=DEFAULT_FRAME_MS,
                          help="frame duration for envelope input")
    _add_engine_flags(p_stream)
    p_stream.set_defaults(func=cmd_stream)

    p_eval = sub.add_parser("eval", help="WER and keyword F-score")
    p_eval.add_argument("--refs", required=True, help="reference transcripts, one per line")
    p_eval.add_argument("--hyps", required=True, help="hypothesis transcripts, one per line")
    p_eval.add_argument("--bias", required=True, help="bias list; only the surfaces are read")
    p_eval.add_argument("--per-keyword", action="store_true")
    p_eval.set_defaults(func=cmd_eval)

    p_synth = sub.add_parser("synth", help="generate synthetic log-probabilities")
    p_synth.add_argument("--vocab", required=True)
    p_synth.add_argument("--text", required=True)
    p_synth.add_argument("--out", required=True, help="output logits file")
    p_synth.add_argument("--ref-out", help="write the reference transcript here")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--frames-per-token", type=int, default=2)
    p_synth.add_argument("--gap-frames", type=int, default=2)
    p_synth.add_argument("--peak", type=float, default=0.9)
    p_synth.add_argument("--temperature", type=float, default=1.0)
    p_synth.add_argument("--frame-ms", type=float, default=DEFAULT_FRAME_MS)
    p_synth.add_argument("--blank-id", type=int, default=None)
    p_synth.add_argument("--marker", default=DEFAULT_WORD_MARKER)
    p_synth.set_defaults(func=cmd_synth)

    return parser


def _emit(record: dict) -> None:
    print(json.dumps(record))


def _manifest(args: argparse.Namespace) -> dict:
    config = {k: v for k, v in vars(args).items() if k != "func" and not callable(v)}
    return {
        "type": "manifest",
        "tool": "ctcspot",
        "version": __version__,
        "logits_format_version": LOGITS_VERSION,
        "config": config,
    }


def _engine_setup(args: argparse.Namespace, vocab_size: int):
    """Shared spot/stream wiring: vocab or alignments, graph, config, policy."""
    vocab = load_vocab(args.vocab) if args.vocab else None
    if (vocab is None) == (args.alignments is None):
        raise UsageError("provide exactly one of --vocab / --alignments")
    cfg = SpotterConfig(
        cb_weight=args.cb_weight,
        beam_threshold=args.beam_threshold,
        min_per_frame_score=args.min_per_frame_score,
        max_keyword_frames=args.max_keyword_frames,
        blank_id=args.blank_id,
    )
    policy = MergePolicy(
        intersection_threshold=args.intersection_threshold,
        score_margin=args.score_margin,
        allow_insertion=not args.no_insertion,
    )
    blank = resolve_blank(cfg.blank_id, vocab_size)
    entries = (
        load_bias_list(args.bias, vocab=vocab, marker=args.marker, blank_id=blank)
        if args.bias
        else []
    )
    graph = build_graph(entries, vocab_size=vocab_size, blank_id=blank)
    words = read_alignments(args.alignments) if args.alignments else None
    return graph, cfg, policy, vocab, words


class UsageError(Exception):
    pass


def cmd_spot(args: argparse.Namespace) -> int:
    matrix, _frame_ms = read_logits(args.logits)
    graph, cfg, policy, vocab, words = _engine_setup(args, matrix.shape[1])
    _emit(_manifest(args))
    transcript, merged, candidates = offline_pipeline(
        matrix, graph, cfg, policy, vocab=vocab, external_words=words, marker=args.marker
    )
    for cand in candidates:
        _emit(
            {
                "type": "candidate",
                "keyword_id": cand.keyword_id,
                "keyword": graph.surfaces[cand.keyword_id],
                "start_frame": cand.start_frame,
                "end_frame": cand.end_frame,
                "score": cand.score,
                "per_frame_score": cand.per_frame_score,
            }
        )
    _emit({"type": "transcript", "text": transcript, "words": [asdict(w) for w in merged]})
    return 0


def cmd_stream(args: argparse.Namespace) -> int:
    check_duration(args.frame_ms, "--frame-ms")
    check_duration(args.chunk_ms, "--chunk-ms")
    if args.logits:
        matrix, frame_ms = read_logits(args.logits)
        chunks = chunker(matrix, args.chunk_ms, frame_ms)
    else:
        frame_ms = args.frame_ms
        chunks = read_envelope(sys.stdin)

    pipeline = None
    timings: list[ChunkTiming] = []
    index = 0
    partial = False
    try:
        while True:
            t0 = time.perf_counter()
            try:
                chunk = next(chunks)
            except StopIteration:
                break
            feed_ms = (time.perf_counter() - t0) * 1e3
            if pipeline is None:
                if chunk.shape[0] == 0:
                    continue  # cannot size the engine from an empty chunk
                graph, cfg, policy, vocab, words = _engine_setup(args, chunk.shape[1])
                pipeline = StreamingPipeline(
                    graph, cfg, policy, vocab=vocab, external_words=words, marker=args.marker
                )
                _emit(_manifest(args))
            out = pipeline.process_chunk(chunk)
            step = pipeline.timings[-1]
            timings.append(
                ChunkTiming(asr_ms=feed_ms + step.align_ms, spot_ms=step.spot_ms, merge_ms=step.merge_ms)
            )
            _emit(
                {
                    "type": "chunk",
                    "index": index,
                    "n_frames": int(chunk.shape[0]),
                    "commit_frontier": out.commit_frontier,
                    "delta": [asdict(w) for w in out.committed_delta],
                    "held_preview": out.held_text_preview,
                    "spot_ms": step.spot_ms,
                    "merge_ms": step.merge_ms,
                }
            )
            index += 1
    except ProtocolError as exc:
        print(f"ctcspot: protocol error: {exc}", file=sys.stderr)
        partial = True

    if pipeline is None:
        if partial:
            _emit({"type": "final", "transcript": "", "partial": True})
            return 3
        raise FormatError("input stream carried no frames")

    out = pipeline.flush()
    _emit(
        {
            "type": "final",
            "transcript": pipeline.transcript,
            "commit_frontier": out.commit_frontier,
            "delta": [asdict(w) for w in out.committed_delta],
            "partial": partial,
        }
    )
    # envelope chunks may differ in length, so the report uses their mean
    chunk_ms = (
        args.chunk_ms if args.logits
        else frame_ms * pipeline.spotter.frames_seen / len(timings)
    )
    report = runtime_report(timings, chunk_ms)
    _emit(report.to_record())
    print(format_runtime_table(report), file=sys.stderr)
    return 3 if partial else 0


def _read_transcripts(path: str) -> list[str]:
    with open(path, "r", encoding="utf-8") as fp:
        return [line.rstrip("\r\n") for line in fp]


def cmd_eval(args: argparse.Namespace) -> int:
    refs = _read_transcripts(args.refs)
    hyps = _read_transcripts(args.hyps)
    if len(refs) != len(hyps):
        raise FormatError(f"{len(refs)} references vs {len(hyps)} hypotheses")
    surfaces = load_bias_surfaces(args.bias)
    _emit(_manifest(args))
    overall = corpus_wer(refs, hyps)
    _emit({"type": "wer", "wer": overall, "utterances": len(refs)})
    report = keyword_prf(refs, hyps, surfaces)
    for record in report.to_records():
        if record["scope"] == "all" or args.per_keyword:
            _emit(record)
    print(f"WER: {overall:.2f}   F-score (P/R): {report.total.fscore:.2f} "
          f"({report.total.precision:.2f}/{report.total.recall:.2f})")
    print(format_keyword_table(report, per_keyword=args.per_keyword))
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    vocab = load_vocab(args.vocab)
    blank = resolve_blank(args.blank_id, len(vocab))
    token_seqs = [
        tokenize(word, vocab, args.marker, skip_ids={blank}) for word in args.text.split()
    ]
    script = word_script(
        token_seqs,
        blank_id=blank,
        frames_per_token=args.frames_per_token,
        gap_frames=args.gap_frames,
        peak=args.peak,
    )
    spec = make_spec(args.seed, len(vocab), blank, script, args.temperature)
    matrix, alignment = generate(spec)
    write_logits(args.out, matrix, args.frame_ms)
    if args.ref_out:
        with open(args.ref_out, "w", encoding="utf-8") as fp:
            fp.write(args.text + "\n")
    _emit(_manifest(args))
    _emit(
        {
            "type": "synth",
            "out": args.out,
            "frames": int(matrix.shape[0]),
            "vocab": len(vocab),
            "segments": [
                {"token": tok, "start_frame": s, "end_frame": e} for tok, s, e in alignment
            ],
        }
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"ctcspot: error: {exc}", file=sys.stderr)
        return 1
    except ProtocolError as exc:
        print(f"ctcspot: protocol error: {exc}", file=sys.stderr)
        return 3
    except (FormatError, CtcspotError, OSError, ValueError) as exc:
        print(f"ctcspot: error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
