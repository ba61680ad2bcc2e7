"""Command line front end.

Subcommands:
  spot    whole-utterance biasing over a stored log-probability file
  stream  chunked biasing with incremental committed output
  eval    WER and biasing-phrase precision/recall/F-score
  synth   synthetic log-probability generation with a known transcript

Structured results are printed as line-delimited strict JSON records on
stdout, with an infinite number written as the string "inf" or "-inf";
the first record of every run is a manifest carrying the full
configuration, printed once the files, the flags and the first chunk are
accepted. Exit codes: 0 ok, 1 usage, 2 format error, 3 protocol error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from dataclasses import asdict, fields

from . import __version__
from .errors import CtcspotError, FormatError, ProtocolError
from .formats import (
    LOGITS_VERSION,
    check_duration,
    chunker,
    frames_per_chunk,
    read_alignments,
    read_envelope,
    read_logits,
    resolve_blank,
    write_logits,
)
from .graph import (
    DEFAULT_WORD_MARKER,
    Tokenizer,
    build_graph,
    load_bias_list,
    load_bias_surfaces,
    load_vocab,
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
    words = p.add_mutually_exclusive_group(required=True)
    words.add_argument("--vocab", help="vocabulary file, one token string per line")
    words.add_argument("--alignments", help="external word alignment file instead of greedy decoding")
    p.add_argument("--blank-id", type=int, default=None, help="default: vocabulary size - 1")
    p.add_argument("--marker", default=DEFAULT_WORD_MARKER, help="word-boundary marker prefix")
    p.add_argument("--cb-weight", type=float, default=SpotterConfig.cb_weight)
    p.add_argument("--beam-threshold", type=float, default=SpotterConfig.beam_threshold,
                   help="'inf' disables pruning")
    p.add_argument("--min-per-frame-score", type=float, default=SpotterConfig.min_per_frame_score)
    p.add_argument("--max-keyword-frames", type=int, default=SpotterConfig.max_keyword_frames)
    p.add_argument("--intersection-threshold", type=float,
                   default=MergePolicy.intersection_threshold)
    p.add_argument("--score-margin", type=float, default=MergePolicy.score_margin)
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


def _finite(value):
    """``value`` with every infinite float spelled as the flags accept it,
    since JSON has no token for it."""
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_finite(v) for v in value]
    return value


def _emit(record: dict) -> None:
    print(json.dumps(_finite(record), allow_nan=False))


def _manifest(args: argparse.Namespace) -> dict:
    config = {k: v for k, v in vars(args).items() if k != "func" and not callable(v)}
    return {
        "type": "manifest",
        "tool": "ctcspot",
        "version": __version__,
        "logits_format_version": LOGITS_VERSION,
        "config": config,
    }


def _engine_setup(args: argparse.Namespace):
    """Shared spot/stream wiring, done before any input is read: config,
    policy, the vocabulary or the alignments, and the bias graph. With a
    vocabulary, the bias list is tokenized around the blank that its size
    resolves, and its token ids are checked against that size. Everything
    else is the engine's to check: the graph and the blank against the
    vocabulary when the pipeline is built, and the input's width before the
    caller prints the manifest."""
    cfg = SpotterConfig(**{f.name: getattr(args, f.name) for f in fields(SpotterConfig)})
    policy = MergePolicy(
        intersection_threshold=args.intersection_threshold,
        score_margin=args.score_margin,
        allow_insertion=not args.no_insertion,
    )
    vocab = load_vocab(args.vocab) if args.vocab is not None else None
    entries = (
        load_bias_list(
            args.bias,
            vocab=vocab,
            marker=args.marker,
            blank_id=None if vocab is None else resolve_blank(cfg.blank_id, len(vocab)),
        )
        if args.bias
        else []
    )
    graph = build_graph(entries, vocab_size=None if vocab is None else len(vocab))
    words = read_alignments(args.alignments) if args.alignments is not None else None
    return cfg, policy, vocab, words, graph


def cmd_spot(args: argparse.Namespace) -> int:
    cfg, policy, vocab, words, graph = _engine_setup(args)
    matrix, _frame_ms = read_logits(args.logits)
    transcript, merged, candidates = offline_pipeline(
        matrix, graph, cfg, policy, vocab=vocab, external_words=words, marker=args.marker
    )
    _emit(_manifest(args))
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
    cfg, policy, vocab, words, graph = _engine_setup(args)
    # built before any input is read, so its checks come first
    pipeline = StreamingPipeline(
        graph, cfg, policy, vocab=vocab, external_words=words, marker=args.marker
    )
    if args.logits:
        matrix, frame_ms = read_logits(args.logits)
        chunks = chunker(matrix, args.chunk_ms, frame_ms)
    else:
        frame_ms = args.frame_ms
        chunks = read_envelope(sys.stdin)

    steps = pipeline.timings  # the engine's clock: one step per accepted chunk
    code = 0  # 3 after a protocol error, 2 after a format error past the first chunk
    try:
        # leading empty chunks print no record
        for chunk in itertools.dropwhile(lambda c: not c.shape[0], chunks):
            if chunk.shape[0]:  # a later empty chunk is legal
                check_duration(chunk.shape[0] * frame_ms, "chunk duration")
            out = pipeline.process_chunk(chunk)
            if len(steps) == 1:  # the engine accepted the first chunk
                _emit(_manifest(args))
            _emit(
                {
                    "type": "chunk",
                    "index": len(steps) - 1,
                    "n_frames": int(chunk.shape[0]),
                    "commit_frontier": out.commit_frontier,
                    "delta": [asdict(w) for w in out.committed_delta],
                    "held_preview": out.held_text_preview,
                    "spot_ms": steps[-1].spot_ms,
                    "merge_ms": steps[-1].merge_ms,
                }
            )
    except ProtocolError as exc:
        print(f"ctcspot: protocol error: {exc}", file=sys.stderr)
        code = 3
    except FormatError as exc:
        if not steps:  # nothing printed yet
            raise
        # the engine rejects a chunk before changing any state, so the
        # chunks it accepted flush as after a protocol error
        print(f"ctcspot: error: {exc}", file=sys.stderr)
        code = 2

    if not steps:
        if code:
            _emit(_manifest(args))
            _emit({"type": "final", "transcript": "", "partial": True})
            return 3
        raise FormatError("input stream carried no frames")

    timings = [ChunkTiming(t.align_ms, t.spot_ms, t.merge_ms) for t in steps]  # flush left out
    out = pipeline.flush()
    _emit(
        {
            "type": "final",
            "transcript": pipeline.transcript,
            "commit_frontier": out.commit_frontier,
            "delta": [asdict(w) for w in out.committed_delta],
            "partial": code != 0,
        }
    )
    # the chunk the chunker cuts; envelope chunks may differ in length, so
    # there the report uses their mean, finite since each chunk's duration is
    chunk_ms = (
        frames_per_chunk(args.chunk_ms, frame_ms) * frame_ms if args.logits
        else frame_ms * (pipeline.spotter.frames_seen / len(timings))
    )
    report = runtime_report(timings, chunk_ms)
    _emit(report.to_record())
    print(format_runtime_table(report), file=sys.stderr)
    return code


def _read_transcripts(path: str) -> list[str]:
    with open(path, "r", encoding="utf-8-sig") as fp:
        return [line.rstrip("\r\n") for line in fp]


def cmd_eval(args: argparse.Namespace) -> int:
    refs = _read_transcripts(args.refs)
    hyps = _read_transcripts(args.hyps)
    report = keyword_prf(refs, hyps, load_bias_surfaces(args.bias))
    _emit(_manifest(args))
    overall = corpus_wer(refs, hyps)
    _emit({"type": "wer", "wer": overall, "utterances": len(refs)})
    for record in report.to_records() if args.per_keyword else [report.total.to_record("all")]:
        _emit(record)
    print(f"WER: {overall:.2f}   F-score (P/R): {report.total.fscore:.2f} "
          f"({report.total.precision:.2f}/{report.total.recall:.2f})", file=sys.stderr)
    print(format_keyword_table(report, per_keyword=args.per_keyword), file=sys.stderr)
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    vocab = load_vocab(args.vocab)
    blank = resolve_blank(args.blank_id, len(vocab))
    tokenizer = Tokenizer(vocab, args.marker, skip_ids={blank})
    token_seqs = [tokenizer(word) for word in args.text.split()]
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
    except (CtcspotError, OSError, ValueError) as exc:
        print(f"ctcspot: error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
