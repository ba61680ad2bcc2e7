"""Greedy CTC decoding with word-level frame alignment and path scores.

Per frame the argmax symbol is chosen; repeats are collapsed, then blanks
dropped. Tokens are grouped into words at the word-boundary marker (the
leading-space convention of BPE vocabularies, with a plain-space
fallback). A word's interval runs from the frame that emitted its first
token through the last frame whose argmax belongs to one of its tokens,
and its path score sums the argmax log-probabilities over that interval,
interior blanks included.

The streaming form carries the previous argmax symbol and the open word
across chunk boundaries; feeding the chunks of a matrix in order yields
exactly the words of :func:`greedy_decode` on the whole matrix. A chunk is
checked by :func:`ctcspot.formats.check_logprobs` before any state changes.
After :meth:`StreamingAligner.flush`, feeding or flushing again raises
:class:`~ctcspot.errors.SessionClosed`, as a spotter session does.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import SessionClosed
from .formats import WordAlignment, check_logprobs, resolve_blank
from .graph import DEFAULT_WORD_MARKER


class _OpenWord:
    __slots__ = ("parts", "start", "end", "score", "tail")

    def __init__(self, part: str, t: int, lp: float) -> None:
        self.parts = [part]
        self.start = t
        self.end = t
        self.score = lp
        self.tail = 0.0  # log-probs of frames after `end`, owed if extended


class StreamingAligner:
    """Chunked greedy decoder; single writer per instance."""

    def __init__(
        self,
        vocab: Sequence[str],
        blank_id: int | None = None,
        marker: str = DEFAULT_WORD_MARKER,
    ) -> None:
        self._vocab = list(vocab)
        self._blank = resolve_blank(blank_id, len(self._vocab))
        self._marker = marker
        self._prev = self._blank
        self._frames = 0
        self._open: _OpenWord | None = None
        self._closed = False

    @property
    def frames_seen(self) -> int:
        return self._frames

    @property
    def open_word_start(self) -> int | None:
        return self._open.start if self._open is not None else None

    @property
    def open_word_preview(self) -> str | None:
        return "".join(self._open.parts) if self._open is not None else None

    def _require_open(self) -> None:
        if self._closed:
            raise SessionClosed("aligner was flushed")

    def _close(self) -> WordAlignment | None:
        if self._open is None:
            return None
        w, self._open = self._open, None
        text = "".join(w.parts)
        if not text:
            return None  # a run of empty vocabulary pieces forms no word
        return WordAlignment(text, w.start, w.end, w.score)

    def feed(self, logprobs: np.ndarray) -> list[WordAlignment]:
        """Consume one chunk; returns words completed by this chunk."""
        self._require_open()
        lp = check_logprobs(logprobs, len(self._vocab))
        n = lp.shape[0]
        if n == 0:
            return []
        syms = lp.argmax(axis=1)
        chosen = lp[np.arange(n), syms]
        closed: list[WordAlignment] = []
        marker = self._marker
        for i in range(n):
            t = self._frames
            sym = int(syms[i])
            x = float(chosen[i])
            if sym == self._blank:
                if self._open is not None:
                    self._open.tail += x
            elif sym == self._prev:
                # repeated token extends the current word's interval
                w = self._open
                w.score += w.tail + x
                w.tail = 0.0
                w.end = t
            else:
                piece = self._vocab[sym]
                if piece.startswith(marker):
                    text, boundary = piece[len(marker):], True
                elif piece.startswith(" "):
                    text, boundary = piece[1:], True
                else:
                    text, boundary = piece, False
                if boundary or self._open is None:
                    done = self._close()
                    if done is not None:
                        closed.append(done)
                    self._open = _OpenWord(text, t, x)
                else:
                    w = self._open
                    w.parts.append(text)
                    w.score += w.tail + x
                    w.tail = 0.0
                    w.end = t
            self._prev = sym
            self._frames += 1
        return closed

    def flush(self) -> list[WordAlignment]:
        """Close the word in progress, if any, and the aligner."""
        self._require_open()
        self._closed = True
        done = self._close()
        return [done] if done is not None else []


def greedy_decode(
    logprobs: np.ndarray,
    vocab: Sequence[str],
    blank_id: int | None = None,
    marker: str = DEFAULT_WORD_MARKER,
) -> list[WordAlignment]:
    """Whole-utterance greedy decode with word alignments."""
    aligner = StreamingAligner(vocab, blank_id, marker)
    words = aligner.feed(logprobs)
    words.extend(aligner.flush())
    return words
