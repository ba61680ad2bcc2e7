"""Greedy CTC decoding with word-level frame alignment and path scores.

Per frame the argmax symbol is chosen; repeats are collapsed, then blanks
dropped. Tokens are grouped into words at the word-boundary marker (the
leading-space convention of BPE vocabularies): only a piece that starts
with the marker begins a word, as in :class:`ctcspot.graph.Tokenizer`.
One rule places each non-blank frame: a frame that is not a repeat starts
a word if its piece carries the marker or no word is open; any other frame
extends the open word, and a continuation piece also appends its text. A
word's interval runs from the frame that emitted its first token through
the last frame whose argmax belongs to one of its tokens, and its path
score sums the argmax log-probabilities over that interval, interior
blanks included.

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

# Rows per argmax call. numpy's argmax copies a read-only input whole first
# (an envelope chunk, np.frombuffer or mmap_mode="r"), so one call per
# block holds one block's copy, not a second matrix.
_ARGMAX_ROWS = 64


class _OpenWord:
    __slots__ = ("parts", "start", "end", "score", "tail")

    def __init__(self, part: str, t: int, lp: float) -> None:
        self.parts = [part]
        self.start = t
        self.end = t
        self.score = lp
        self.tail = 0.0  # log-probs of frames after `end`, owed if extended


class StreamingAligner:
    """Chunked greedy decoder; single writer per instance.

    :meth:`feed` and :meth:`flush` return the words they close, and
    :attr:`open_word` is the word still in progress. A
    :class:`~ctcspot.pipeline.StreamingPipeline` queues the closed words
    with the same rule as an external alignment's and bounds its commit
    boundary by the open word. ``vocab`` is read in place, not copied, so
    it must not change while the aligner is in use.
    """

    def __init__(
        self,
        vocab: Sequence[str],
        blank_id: int | None = None,
        marker: str = DEFAULT_WORD_MARKER,
    ) -> None:
        self._vocab = vocab
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
    def open_word(self) -> WordAlignment | None:
        """The word decoded so far, not yet closed; None between words."""
        w = self._open
        return WordAlignment("".join(w.parts), w.start, w.end, w.score) if w is not None else None

    def _require_open(self) -> None:
        if self._closed:
            raise SessionClosed("aligner was flushed")

    def _close(self) -> WordAlignment | None:
        done, self._open = self.open_word, None
        # a run of empty vocabulary pieces forms no word
        return done if done is not None and done.word else None

    def feed(self, logprobs: np.ndarray) -> list[WordAlignment]:
        """Consume one chunk; returns words completed by this chunk."""
        self._require_open()
        lp = check_logprobs(logprobs, len(self._vocab))
        n = lp.shape[0]
        syms = np.empty(n, dtype=np.intp)
        for i in range(0, n, _ARGMAX_ROWS):
            lp[i : i + _ARGMAX_ROWS].argmax(axis=1, out=syms[i : i + _ARGMAX_ROWS])
        chosen = lp[np.arange(n), syms]
        closed: list[WordAlignment] = []
        marker = self._marker
        for sym, x in zip(syms.tolist(), chosen.tolist()):
            t = self._frames
            w = self._open
            if sym == self._blank:
                if w is not None:
                    w.tail += x
            else:
                fresh = sym != self._prev
                piece = self._vocab[sym]
                if fresh and (w is None or piece.startswith(marker)):
                    done = self._close()
                    if done is not None:
                        closed.append(done)
                    self._open = _OpenWord(piece.removeprefix(marker), t, x)
                else:
                    if fresh:  # a continuation piece; a repeat adds no text
                        w.parts.append(piece)
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
