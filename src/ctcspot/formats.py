"""Bit-exact file and stream formats.

Logits file ("CTCL"): 20-byte little-endian header (magic 4s, version u32,
frames u32, vocab u32, frame_duration_ms f32) followed by frames x vocab
32-bit floats, row-major, natural-log probabilities.

Chunk stream envelope: line-delimited JSON records on a byte stream,
``{"type": "chunk", "n_frames": N, "frames": "<base64 f32 LE>"}`` followed
by exactly one ``{"type": "end"}``, each line at most
:data:`MAX_ENVELOPE_LINE` characters long.

External word alignments: tab-separated text, one record per word:
``word<TAB>start_frame<TAB>end_frame<TAB>path_score``; ``#`` comments.
:class:`WordAlignment` is that record and the greedy aligner's output.

The input rules of every entry point live here once: :func:`check_logprobs`
with its dtype rule :func:`as_logprobs`, :func:`resolve_blank`,
:func:`check_intervals`, :func:`check_words`, :func:`check_duration` and
:func:`frames_per_chunk`.
"""

from __future__ import annotations

import base64
import json
import math
import numbers
import os
import stat
import struct
import warnings
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    BadDuration,
    BadMagic,
    ChunkTooSmall,
    DimensionMismatch,
    EmptySurface,
    FormatError,
    NegativeInterval,
    NonFiniteRows,
    NonFiniteScore,
    OverlappingWords,
    PositiveLogProbs,
    ProtocolError,
    TruncatedPayload,
    UnnormalizedRows,
)

LOGITS_MAGIC = b"CTCL"
LOGITS_VERSION = 1
_HEADER = struct.Struct("<4sIIIf")

ROW_NORM_TOL = 1e-3
_NORM_ROWS = 64  # rows per block of row_norm_error

# The longest envelope line read_envelope takes, in characters, its newline
# included: 16 MiB, which holds the record of a chunk of 3,000 frames x
# 1,024 symbols (the base64 of 12,288,000 bytes of float32 and the JSON
# around it). A longer line is a ProtocolError before any of it is
# decoded, so one record cannot make the reader hold more than this.
MAX_ENVELOPE_LINE = 1 << 24


@dataclass(frozen=True)
class WordAlignment:
    """A decoded word with its inclusive frame interval and path score."""

    word: str
    start_frame: int
    end_frame: int
    path_score: float


def as_logprobs(matrix: np.ndarray) -> np.ndarray:
    """The dtype rule of every entry point: ``matrix`` as a C-contiguous
    array, native float32 if it is one (as a logits file and the envelope
    carry it) and float64 otherwise. It copies only to change dtype or
    layout; a 0-d input stays 0-d. A float32 cell widens to float64
    exactly, and every score is summed in float64 (the search's Python
    floats and fresh-entry tables, the aligner's word scores, the row
    check's exponentials), so both dtypes give the same results to the
    bit; float32 halves what a caller holds."""
    lp = np.asarray(matrix)
    return np.asarray(lp, dtype=np.float32 if lp.dtype == np.float32 else float, order="C")


def check_logprobs(matrix: np.ndarray, width: int | None = None) -> np.ndarray:
    """Return :func:`as_logprobs` of the matrix if it is 2-d, as wide as
    ``width`` (an empty chunk fits any), free of NaN and +inf and with no
    cell above 0; -inf is a legal log 0. Run before any state changes: a
    NaN score fails every prune compare, and the spotter's commit frontier
    bounds future scores by taking every cell to be at most 0. The search
    reads each row through a memoryview, which needs that layout, and
    gathers its fresh-entry tables (a block of rows x root children) with
    ``take(..., axis=1)``, which keeps C order; ``lp[:, idx]`` would return
    such a table in Fortran order."""
    lp = as_logprobs(matrix)
    if lp.ndim != 2:
        raise DimensionMismatch(f"log-probability matrix must be 2-d, got shape {lp.shape}")
    if width is not None and lp.shape[0] and lp.shape[1] != width:
        raise DimensionMismatch(f"chunk width {lp.shape[1]} != expected width {width}")
    if lp.size and not lp.max() <= 0.0:  # max propagates NaN
        rows = np.flatnonzero(~(lp < np.inf).all(axis=1))
        if rows.size:
            raise NonFiniteRows(f"rows {rows[:5].tolist()} hold NaN or +inf (not finite)")
        rows = np.flatnonzero((lp > 0.0).any(axis=1))
        raise PositiveLogProbs(f"rows {rows[:5].tolist()} hold a log-probability above 0")
    return lp


def resolve_blank(blank_id: int | None, vocab_size: int) -> int:
    """The blank rule: a vocabulary holds at least 2 symbols, the blank
    defaults to the last one and must be an integer inside it. A ``bool``
    is not taken for a symbol; a numpy integer is, and comes back as int."""
    if vocab_size < 2:
        raise DimensionMismatch(f"vocabulary size {vocab_size} is too small")
    if blank_id is None:
        return vocab_size - 1
    if isinstance(blank_id, bool) or not isinstance(blank_id, numbers.Integral):
        raise DimensionMismatch(f"blank id {blank_id!r} is not an integer")
    if not 0 <= blank_id < vocab_size:
        raise DimensionMismatch(f"blank id {blank_id} outside vocabulary of size {vocab_size}")
    return int(blank_id)


def check_intervals(items: Iterable, where: str = "") -> None:
    """The interval rule for words and candidates alike: each inclusive
    ``[start_frame, end_frame]`` has 0 <= start <= end (else
    :class:`NegativeInterval`) and starts after the previous one ends (else
    :class:`OverlappingWords`)."""
    prev = None
    for item in items:
        if not 0 <= item.start_frame <= item.end_frame:
            raise NegativeInterval(f"{where}bad interval in {item}")
        if prev is not None and item.start_frame <= prev.end_frame:
            raise OverlappingWords(f"{where}{item} does not start after {prev} ends")
        prev = item


def check_words(words: Sequence[WordAlignment], where: str = "") -> None:
    """:func:`check_intervals` plus the path score rule: no NaN or +inf, which
    no candidate could be compared with (-inf is a legal log 0); and the text
    rule: no empty word (:class:`EmptySurface`), which the greedy aligner
    never emits. Text made only of whitespace is legal, as a vocabulary
    piece can be."""
    check_intervals(words, where)
    for w in words:
        if not w.word:
            raise EmptySurface(f"{where}{w} has empty text")
        if not w.path_score < math.inf:  # NaN fails the compare too
            raise NonFiniteScore(f"{where}path score of {w} is NaN or +inf")


def check_duration(ms: float, what: str) -> float:
    """The duration rule for frames and chunks: positive and finite."""
    if not 0 < ms < math.inf:  # NaN fails the compare too
        raise BadDuration(f"{what} of {ms} ms is not positive and finite")
    return ms


def row_norm_error(matrix: np.ndarray) -> float:
    """Largest |log sum exp| over rows; 0.0 if none. Cells must be <= 0, so exp cannot overflow.

    Rows are exponentiated ``_NORM_ROWS`` at a time into one reused buffer,
    so the check holds one block, not a second matrix. Each row is summed on
    its own, so the result does not depend on the block size. A block is
    widened into the float64 buffer before it is exponentiated:
    ``np.exp(block, out=buf)`` would compute a float32 block's exponentials
    in float32, and a row near the tolerance could then warn for one dtype
    and pass for the other."""
    lp = np.asarray(matrix)
    if lp.shape[0] == 0:
        return 0.0
    buf = np.empty((min(lp.shape[0], _NORM_ROWS), lp.shape[1]))
    errs = []
    with np.errstate(divide="ignore"):  # an all -inf row sums to 0: log -inf, error inf
        for i in range(0, lp.shape[0], _NORM_ROWS):
            block = lp[i : i + _NORM_ROWS]
            exp = buf[: block.shape[0]]
            exp[...] = block
            sums = np.exp(exp, out=exp).sum(axis=1)
            errs.append(np.abs(np.log(sums)).max())
    return float(np.max(errs))  # np.max, unlike max, propagates a NaN


def validate_logprob_matrix(matrix: np.ndarray, strict: bool = True) -> None:
    """Apply :func:`check_logprobs` and the vocabulary size rule; unnormalized
    rows raise in strict mode and warn otherwise."""
    lp = check_logprobs(matrix)
    resolve_blank(None, lp.shape[1])
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
    try:
        header = _HEADER.pack(LOGITS_MAGIC, LOGITS_VERSION, n_frames, vocab, frame_duration_ms)
    except OverflowError:
        raise BadDuration(f"frame duration of {frame_duration_ms} ms overflows float32") from None
    # checked as read_logits will read it back: a tiny duration stores 0.0
    check_duration(_HEADER.unpack(header)[-1], "frame duration stored as float32")
    with open(path, "wb") as fp:
        fp.write(header)
        fp.write(lp.tobytes(order="C"))


def read_logits(path: str) -> tuple[np.ndarray, float]:
    """Returns (float32 matrix, frame_duration_ms).

    NaN or +inf cells raise; unnormalized rows only warn. The header's
    fields, the frame duration included, are checked first, and the
    payload's size, taken from ``os.fstat``, against the header's claim,
    so nothing is allocated for a truncated or overlong file. The payload
    is then read straight into the matrix, so reading holds the float32
    matrix alone, and validating it the matrix plus one float64 row block.
    Anything but a regular file, such as a pipe, whose size ``fstat`` does
    not know, raises :class:`FormatError`.
    """
    with open(path, "rb") as fp:
        st = os.fstat(fp.fileno())
        if not stat.S_ISREG(st.st_mode):
            raise FormatError(f"{path}: not a regular file, so its size cannot be checked")
        header = fp.read(_HEADER.size)
        if len(header) < _HEADER.size or header[:4] != LOGITS_MAGIC:
            raise BadMagic(f"{path}: not a logits file")
        _, version, n_frames, vocab, frame_ms = _HEADER.unpack(header)
        if version != LOGITS_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        check_duration(frame_ms, f"{path}: frame duration")
        size = st.st_size - _HEADER.size
        expected = 4 * n_frames * vocab
        if size < expected:
            raise TruncatedPayload(f"{path}: header claims {expected} payload bytes, file has {size}")
        if size > expected:
            raise FormatError(f"{path}: {size - expected} trailing bytes after payload")
        matrix = np.empty((n_frames, vocab), dtype="<f4")
        got = fp.readinto(matrix)
    if got < expected:  # the file shrank after fstat
        raise TruncatedPayload(f"{path}: header claims {expected} payload bytes, read {got}")
    validate_logprob_matrix(matrix, strict=False)
    return matrix, frame_ms


def frames_per_chunk(chunk_ms: float, frame_duration_ms: float) -> int:
    """The chunk rule: a chunk of ``chunk_ms`` holds the whole frames that
    fit in it, at least one, and fewer than a float can count."""
    check_duration(frame_duration_ms, "frame duration")
    if chunk_ms < frame_duration_ms:
        raise ChunkTooSmall(
            f"chunk of {chunk_ms} ms holds no whole {frame_duration_ms} ms frame"
        )
    n = check_duration(chunk_ms, "chunk duration") // frame_duration_ms
    if n == math.inf:
        raise BadDuration(f"chunk of {chunk_ms} ms holds too many {frame_duration_ms} ms frames")
    return int(n)


def chunker(
    matrix: np.ndarray, chunk_ms: float, frame_duration_ms: float
) -> Iterator[np.ndarray]:
    """Split a matrix into chunks of :func:`frames_per_chunk` frames; the
    last may be ragged. Each chunk is a view of ``np.asarray(matrix)``, in
    the caller's dtype: the engine applies :func:`as_logprobs` to each
    chunk it takes, which keeps a float32 chunk as it is, so nothing is
    copied here."""
    n = frames_per_chunk(chunk_ms, frame_duration_ms)
    lp = np.asarray(matrix)
    for i in range(0, lp.shape[0], n):
        yield lp[i : i + n]


# chunk stream envelope -----------------------------------------------------


def write_envelope(fp: IO[str], chunks: Iterable[np.ndarray]) -> None:
    for chunk in chunks:
        payload = np.ascontiguousarray(chunk, dtype="<f4").tobytes()
        record = {
            "type": "chunk",
            "n_frames": int(chunk.shape[0]),
            "frames": base64.b64encode(payload).decode("ascii"),
        }
        fp.write(json.dumps(record) + "\n")
    fp.write(json.dumps({"type": "end"}) + "\n")


def read_envelope(fp: IO[str]) -> Iterator[np.ndarray]:
    """Yield chunk matrices, float32 as the envelope carries them and read-only
    views of each record's decoded bytes; raises ProtocolError on any
    protocol breach, including a stream that ends without its end record
    and a line longer than :data:`MAX_ENVELOPE_LINE` characters, which is
    rejected before it is decoded."""
    ended = False
    vocab_size = None
    limit = MAX_ENVELOPE_LINE
    lineno = 0
    while raw := fp.readline(limit + 1):
        lineno += 1
        if len(raw) > limit:
            raise ProtocolError(f"line {lineno}: record longer than {limit} characters")
        if raw.isspace():
            continue
        if ended:
            raise ProtocolError(f"line {lineno}: record after the end record")
        try:
            record = json.loads(raw)  # JSON allows the newline around it: no stripped copy
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"line {lineno}: not a JSON record") from exc
        if not isinstance(record, dict):
            raise ProtocolError(f"line {lineno}: not a JSON object")
        kind = record.get("type")
        if kind == "end":
            ended = True
            continue
        if kind != "chunk":
            raise ProtocolError(f"line {lineno}: unknown record type {kind!r}")
        try:
            n_frames, frames = record["n_frames"], record["frames"]
            # only the frames text, its ASCII bytes and the payload are live in the decode
            del raw, record
            payload = base64.b64decode(frames, validate=True)
        except (KeyError, ValueError, TypeError) as exc:
            raise ProtocolError(f"line {lineno}: malformed chunk record") from exc
        del frames
        if type(n_frames) is not int or n_frames < 0:
            raise ProtocolError(f"line {lineno}: n_frames {n_frames!r} is not a count")
        if n_frames == 0:
            if payload:
                raise ProtocolError(f"line {lineno}: empty chunk carries payload")
            yield np.zeros((0, vocab_size or 0), dtype=np.float32)
            continue
        if not payload or len(payload) % (4 * n_frames) != 0:
            raise ProtocolError(
                f"line {lineno}: payload of {len(payload)} bytes does not divide into "
                f"{n_frames} frames of at least one symbol"
            )
        vocab = len(payload) // (4 * n_frames)
        if vocab_size is None:
            vocab_size = vocab
        elif vocab != vocab_size:
            raise ProtocolError(f"line {lineno}: chunk width {vocab} != {vocab_size}")
        yield np.frombuffer(payload, dtype="<f4").reshape(n_frames, vocab)
    if not ended:
        raise ProtocolError("stream ended without an end record")


# external word alignments ---------------------------------------------------


def write_alignments(path: str, words: Iterable[WordAlignment]) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        fp.write("# word\tstart_frame\tend_frame\tpath_score\n")
        for w in words:
            fp.write(f"{w.word}\t{w.start_frame}\t{w.end_frame}\t{w.path_score!r}\n")


def read_alignments(path: str) -> list[WordAlignment]:
    """Read an external word alignment, sort it and apply :func:`check_words`."""
    words: list[WordAlignment] = []
    with open(path, "r", encoding="utf-8-sig") as fp:
        for lineno, raw in enumerate(fp, start=1):
            line = raw.rstrip("\r\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            cols = line.split("\t")
            if len(cols) != 4:
                raise FormatError(f"{path}:{lineno}: expected 4 tab-separated columns")
            try:
                words.append(WordAlignment(cols[0], int(cols[1]), int(cols[2]), float(cols[3])))
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: malformed record") from exc
    words.sort(key=lambda w: (w.start_frame, w.end_frame))
    check_words(words, f"{path}: ")
    return words
