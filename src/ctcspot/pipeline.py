"""End-to-end biasing pipelines: greedy alignment + spotting + commit.

:class:`StreamingPipeline` wires a spotter session, a streaming greedy
aligner (or an externally supplied word alignment) and a commit state into
the chunk-in, committed-words-out loop. :func:`offline_pipeline` is the
whole-utterance reference path; for any chunking and any age cap, the
streaming transcript equals the offline one exactly.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .aligner import StreamingAligner, greedy_decode
from .formats import WordAlignment, as_logprobs, check_words
from .graph import DEFAULT_WORD_MARKER, ContextGraph
from .merge import ChunkOutput, CommitState, MergePolicy, commit_step, merge_region
from .spotter import (  # noqa: F401  (spot_offline: bench/drive.py patches it here by name)
    SpotterConfig,
    SpotterSession,
    SpottedCandidate,
    check_graph,
    dedup_overlaps,
    spot_offline,
    spot_undominated,
)


@dataclass(slots=True)
class StepTiming:
    """Wall-clock cost of one streaming step, milliseconds.

    Slotted: a pipeline keeps one per step for as long as it runs.
    """

    align_ms: float
    spot_ms: float
    merge_ms: float


def _setup(graph, cfg, policy, vocab, external_words):
    """The set-up both pipelines share: (cfg, policy, words) with the
    defaults applied. A vocabulary must fit the graph, so aligner and
    spotter reject alike, and words is None; external words are read once
    into the returned list and checked before any chunk, whatever the
    chunking."""
    if (vocab is None) == (external_words is None):
        raise ValueError("provide exactly one of vocab / external_words")
    cfg = cfg or SpotterConfig()
    words = None
    if vocab is not None:
        check_graph(graph, len(vocab), cfg)
    else:
        words = list(external_words)
        check_words(words)
    return cfg, policy or MergePolicy(), words


class StreamingPipeline:
    """Chunk-by-chunk contextual biasing over one utterance.

    Provide either ``vocab`` (greedy words decoded from the chunks) or ``external_words``
    (another decoder's alignment, any iterable, read once at construction). Words from
    either source wait in one queue and reach the commit layer by one rule: a word is
    handed on once the stream reaches its start, and every word left at the flush. Each
    step hands them to :func:`~ctcspot.merge.commit_step` with the spotter's result, and
    they leave the queue only once that call returns. The greedy aligner's word in
    progress, its ``open_word``, holds the commit boundary. The aligner reads ``vocab``
    in place, so it must not change while the stream runs.

    The commit layer keeps only the region it still defers; the pipeline appends each
    step's ``committed_delta`` to the stream's history, which :attr:`transcript` and
    :attr:`emitted_words` read.
    """

    def __init__(
        self,
        graph: ContextGraph,
        cfg: SpotterConfig | None = None,
        policy: MergePolicy | None = None,
        vocab: Sequence[str] | None = None,
        external_words: Iterable[WordAlignment] | None = None,
        marker: str = DEFAULT_WORD_MARKER,
    ) -> None:
        cfg, policy, words = _setup(graph, cfg, policy, vocab, external_words)
        self.spotter = SpotterSession(graph, cfg)
        self.aligner = StreamingAligner(vocab, cfg.blank_id, marker) if vocab is not None else None
        self.commit = CommitState(policy, graph.surfaces)
        self._unreached = words or []  # words not yet handed on, sorted by start
        self._emitted: list[WordAlignment] = []  # every committed delta, in order
        self.timings: list[StepTiming] = []

    def process_chunk(self, logprobs: np.ndarray) -> ChunkOutput:
        # converted once, by the dtype rule, for the aligner's and the spotter's
        # checks, which then return it as is: a float32 chunk stays float32
        return self._step(as_logprobs(logprobs))

    def flush(self) -> ChunkOutput:
        return self._step(None)

    def _step(self, chunk: np.ndarray | None) -> ChunkOutput:
        """One timed align / spot / commit step; a chunk of None flushes."""
        t0 = time.perf_counter()
        aligner = self.aligner
        if aligner is not None:
            self._unreached += aligner.flush() if chunk is None else aligner.feed(chunk)
        t1 = time.perf_counter()
        spot_result = self.spotter.flush() if chunk is None else self.spotter.process_chunk(chunk)
        t2 = time.perf_counter()
        heard = float("inf") if chunk is None else self.spotter.frames_seen
        n = bisect_left(self._unreached, heard, key=lambda w: w.start_frame)
        open_word = aligner and aligner.open_word
        out = commit_step(self.commit, spot_result, open_word, chunk is None, self._unreached[:n])
        del self._unreached[:n]  # only once the commit layer has taken them
        self._emitted += out.committed_delta
        t3 = time.perf_counter()
        self.timings.append(
            StepTiming(align_ms=(t1 - t0) * 1e3, spot_ms=(t2 - t1) * 1e3, merge_ms=(t3 - t2) * 1e3)
        )
        return out

    @property
    def transcript(self) -> str:
        return " ".join(w.word for w in self._emitted)

    @property
    def emitted_words(self) -> list[WordAlignment]:
        return list(self._emitted)


def offline_pipeline(
    logprobs: np.ndarray,
    graph: ContextGraph,
    cfg: SpotterConfig | None = None,
    policy: MergePolicy | None = None,
    vocab: Sequence[str] | None = None,
    external_words: Iterable[WordAlignment] | None = None,
    marker: str = DEFAULT_WORD_MARKER,
) -> tuple[str, list[WordAlignment], list[SpottedCandidate]]:
    """Whole-utterance reference: greedy words + spot + de-overlap + merge.

    Returns (transcript, merged words, kept candidates).
    """
    cfg, policy, words = _setup(graph, cfg, policy, vocab, external_words)
    lp = as_logprobs(logprobs)  # as in StreamingPipeline
    if vocab is not None:
        words = greedy_decode(lp, vocab, cfg.blank_id, marker)
    candidates = dedup_overlaps(spot_undominated(lp, graph, cfg))
    merged = merge_region(words, candidates, policy, graph.surfaces)
    return " ".join(w.word for w in merged), merged, candidates
