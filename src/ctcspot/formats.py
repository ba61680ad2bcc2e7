"""Bit-exact file and stream formats.

Logits file ("CTCL"): 20-byte little-endian header (magic 4s, version u32,
frames u32, vocab u32, frame_duration_ms f32) followed by frames x vocab
32-bit floats, row-major, natural-log probabilities.

Chunk stream envelope: line-delimited JSON records on a byte stream,
``{"type": "chunk", "n_frames": N, "frames": "<base64 f32 LE>"}`` followed
by exactly one ``{"type": "end"}``.

External word alignments: tab-separated text, one record per word:
``word<TAB>start_frame<TAB>end_frame<TAB>path_score``; ``#`` comments.
"""

from __future__ import annotations

import base64
import json
import struct
import warnings
from typing import IO, Iterable, Iterator

import numpy as np

from .aligner import WordAlignment
from .errors import (
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

LOGITS_MAGIC = b"CTCL"
LOGITS_VERSION = 1
_HEADER = struct.Struct("<4sIIIf")

ROW_NORM_TOL = 1e-3


def row_norm_error(matrix: np.ndarray) -> float:
    """Largest |log sum exp| over rows; 0.0 for an empty matrix."""
    lp = np.asarray(matrix, dtype=float)
    if lp.shape[0] == 0:
        return 0.0
    peak = lp.max(axis=1, keepdims=True)
    lse = peak[:, 0] + np.log(np.exp(lp - peak).sum(axis=1))
    return float(np.abs(lse).max())


def validate_logprob_matrix(matrix: np.ndarray, strict: bool = True) -> None:
    """Raise on a malformed matrix or on NaN / +inf cells (-inf is a legal
    log 0); unnormalized rows raise in strict mode and warn otherwise."""
    lp = np.asarray(matrix, dtype=float)
    if lp.ndim != 2:
        raise FormatError(f"log-probability matrix must be 2-d, got shape {lp.shape}")
    if lp.shape[1] < 2:
        raise FormatError(f"vocabulary size {lp.shape[1]} is too small")
    if lp.size and not lp.max() < np.inf:  # max propagates NaN and +inf
        rows = np.flatnonzero(~(lp < np.inf).all(axis=1))
        raise NonFiniteRows(f"rows {rows[:5].tolist()} hold NaN or +inf (not finite)")
    err = row_norm_error(lp)
    if err > ROW_NORM_TOL:
        message = f"rows deviate from a normalized distribution by {err:.3g}"
        if strict:
            raise UnnormalizedRows(message)
        warnings.warn(message, stacklevel=2)


def write_logits(path: str, matrix: np.ndarray, frame_duration_ms: float) -> None:
    lp = np.asarray(matrix, dtype=np.float32)
    validate_logprob_matrix(lp)
    n_frames, vocab = lp.shape
    with open(path, "wb") as fp:
        fp.write(_HEADER.pack(LOGITS_MAGIC, LOGITS_VERSION, n_frames, vocab, frame_duration_ms))
        fp.write(lp.tobytes(order="C"))


def read_logits(path: str, strict: bool = False) -> tuple[np.ndarray, float]:
    """Returns (float64 matrix, frame_duration_ms).

    NaN or +inf cells always raise; row normalization problems raise in
    strict mode and warn otherwise.
    """
    with open(path, "rb") as fp:
        header = fp.read(_HEADER.size)
        if len(header) < _HEADER.size or header[:4] != LOGITS_MAGIC:
            raise BadMagic(f"{path}: not a logits file")
        _, version, n_frames, vocab, frame_ms = _HEADER.unpack(header)
        if version != LOGITS_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        payload = fp.read()
    expected = 4 * n_frames * vocab
    if len(payload) < expected:
        raise TruncatedPayload(
            f"{path}: header claims {expected} payload bytes, file has {len(payload)}"
        )
    if len(payload) > expected:
        raise FormatError(f"{path}: {len(payload) - expected} trailing bytes after payload")
    matrix = np.frombuffer(payload, dtype="<f4").reshape(n_frames, vocab).astype(float)
    validate_logprob_matrix(matrix, strict=strict)
    return matrix, float(frame_ms)


def chunker(
    matrix: np.ndarray, chunk_ms: float, frame_duration_ms: float
) -> Iterator[np.ndarray]:
    """Split a matrix into fixed-duration chunks; the last may be ragged."""
    if frame_duration_ms <= 0:
        raise FormatError(f"frame duration {frame_duration_ms} must be positive")
    frames_per_chunk = int(chunk_ms // frame_duration_ms)
    if frames_per_chunk < 1:
        raise ChunkTooSmall(
            f"chunk of {chunk_ms} ms holds no whole {frame_duration_ms} ms frame"
        )
    lp = np.asarray(matrix, dtype=float)
    for i in range(0, lp.shape[0], frames_per_chunk):
        yield lp[i : i + frames_per_chunk]


# chunk stream envelope -----------------------------------------------------


def envelope_chunk_record(chunk: np.ndarray) -> str:
    payload = np.ascontiguousarray(chunk, dtype="<f4").tobytes()
    return json.dumps(
        {
            "type": "chunk",
            "n_frames": int(chunk.shape[0]),
            "frames": base64.b64encode(payload).decode("ascii"),
        }
    )


def write_envelope(fp: IO[str], chunks: Iterable[np.ndarray]) -> None:
    for chunk in chunks:
        fp.write(envelope_chunk_record(chunk) + "\n")
    fp.write(json.dumps({"type": "end"}) + "\n")


def read_envelope(fp: IO[str], vocab_size: int | None = None) -> Iterator[np.ndarray]:
    """Yield chunk matrices; raises ProtocolError on any protocol breach,
    including a stream that ends without its end record."""
    ended = False
    for lineno, raw in enumerate(fp, start=1):
        line = raw.strip()
        if not line:
            continue
        if ended:
            raise ProtocolError(f"line {lineno}: record after the end record")
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"line {lineno}: not a JSON record") from exc
        kind = record.get("type")
        if kind == "end":
            ended = True
            continue
        if kind != "chunk":
            raise ProtocolError(f"line {lineno}: unknown record type {kind!r}")
        try:
            n_frames = int(record["n_frames"])
            payload = base64.b64decode(record["frames"], validate=True)
        except (KeyError, ValueError, TypeError) as exc:
            raise ProtocolError(f"line {lineno}: malformed chunk record") from exc
        if n_frames == 0:
            if payload:
                raise ProtocolError(f"line {lineno}: empty chunk carries payload")
            yield np.zeros((0, vocab_size or 0))
            continue
        if len(payload) % (4 * n_frames) != 0:
            raise ProtocolError(
                f"line {lineno}: payload of {len(payload)} bytes does not divide into "
                f"{n_frames} frames"
            )
        vocab = len(payload) // (4 * n_frames)
        if vocab_size is None:
            vocab_size = vocab
        elif vocab != vocab_size:
            raise ProtocolError(f"line {lineno}: chunk width {vocab} != {vocab_size}")
        yield np.frombuffer(payload, dtype="<f4").reshape(n_frames, vocab).astype(float)
    if not ended:
        raise ProtocolError("stream ended without an end record")


# external word alignments ---------------------------------------------------


def write_alignments(path: str, words: Iterable[WordAlignment]) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        fp.write("# word\tstart_frame\tend_frame\tpath_score\n")
        for w in words:
            fp.write(f"{w.word}\t{w.start_frame}\t{w.end_frame}\t{w.path_score!r}\n")


def read_alignments(path: str) -> list[WordAlignment]:
    """Read, sort and validate an external word alignment."""
    words: list[WordAlignment] = []
    with open(path, "r", encoding="utf-8") as fp:
        for lineno, raw in enumerate(fp, start=1):
            line = raw.rstrip("\r\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            cols = line.split("\t")
            if len(cols) != 4:
                raise FormatError(f"{path}:{lineno}: expected 4 tab-separated columns")
            try:
                word = cols[0]
                start, end = int(cols[1]), int(cols[2])
                score = float(cols[3])
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: malformed record") from exc
            if start < 0 or end < start:
                raise NegativeInterval(f"{path}:{lineno}: bad interval [{start}, {end}]")
            words.append(WordAlignment(word, start, end, score))
    words.sort(key=lambda w: (w.start_frame, w.end_frame))
    for prev, cur in zip(words, words[1:]):
        if cur.start_frame <= prev.end_frame:
            raise OverlappingWords(
                f"{path}: words {prev.word!r} [{prev.start_frame}, {prev.end_frame}] and "
                f"{cur.word!r} [{cur.start_frame}, {cur.end_frame}] overlap"
            )
    return words
