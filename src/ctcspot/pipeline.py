"""End-to-end biasing pipelines: greedy alignment + spotting + commit.

:class:`StreamingPipeline` wires a spotter session, a streaming greedy
aligner (or an externally supplied word alignment) and a commit state into
the chunk-in, committed-words-out loop. :func:`offline_pipeline` is the
whole-utterance reference path; for any chunking with a sufficient age
cap, the streaming transcript equals the offline one exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .aligner import StreamingAligner, greedy_decode
from .formats import WordAlignment, check_words
from .graph import DEFAULT_WORD_MARKER, ContextGraph
from .merge import ChunkOutput, CommitState, MergePolicy, commit_step, merge_region
from .spotter import SpotterConfig, SpottedCandidate, check_graph, dedup_overlaps, spot_offline
from .streaming import SpotterSession


@dataclass
class StepTiming:
    """Wall-clock cost of one streaming step, milliseconds."""

    align_ms: float
    spot_ms: float
    merge_ms: float


def _check_sources(graph, cfg, vocab, external_words) -> None:
    """A vocabulary must fit the graph, so aligner and spotter reject alike;
    external words are checked before any chunk, whatever the chunking."""
    if (vocab is None) == (external_words is None):
        raise ValueError("provide exactly one of vocab / external_words")
    if vocab is not None:
        check_graph(graph, len(vocab), cfg)
    else:
        check_words(external_words)


class StreamingPipeline:
    """Chunk-by-chunk contextual biasing over one utterance.

    Provide either ``vocab`` (greedy words are decoded from the chunks) or
    ``external_words`` (a complete word alignment from another decoder).
    """

    def __init__(
        self,
        graph: ContextGraph,
        cfg: SpotterConfig | None = None,
        policy: MergePolicy | None = None,
        vocab: Sequence[str] | None = None,
        external_words: Sequence[WordAlignment] | None = None,
        marker: str = DEFAULT_WORD_MARKER,
    ) -> None:
        self.cfg = cfg or SpotterConfig()
        _check_sources(graph, self.cfg, vocab, external_words)
        self.policy = policy or MergePolicy()
        self.spotter = SpotterSession(graph, self.cfg)
        self.aligner = (
            StreamingAligner(vocab, self.cfg.blank_id, marker) if vocab is not None else None
        )
        self.commit = CommitState(self.policy, graph.surfaces)
        if external_words is not None:
            self.commit.add_words(external_words)
        self.timings: list[StepTiming] = []

    def process_chunk(self, logprobs: np.ndarray) -> ChunkOutput:
        return self._step(np.asarray(logprobs, dtype=float))

    def flush(self) -> ChunkOutput:
        return self._step(None)

    def _step(self, chunk: np.ndarray | None) -> ChunkOutput:
        """One timed align / spot / commit step; a chunk of None flushes."""
        t0 = time.perf_counter()
        aligner = self.aligner
        if aligner is not None:
            self.commit.add_words(aligner.flush() if chunk is None else aligner.feed(chunk))
            self.commit.set_open_word(aligner.open_word_start, aligner.open_word_preview or "")
        t1 = time.perf_counter()
        spot_result = self.spotter.flush() if chunk is None else self.spotter.process_chunk(chunk)
        t2 = time.perf_counter()
        out = commit_step(self.commit, spot_result)
        t3 = time.perf_counter()
        self.timings.append(
            StepTiming(align_ms=(t1 - t0) * 1e3, spot_ms=(t2 - t1) * 1e3, merge_ms=(t3 - t2) * 1e3)
        )
        return out

    @property
    def transcript(self) -> str:
        return self.commit.transcript

    @property
    def emitted_words(self) -> list[WordAlignment]:
        return list(self.commit.emitted)


def offline_pipeline(
    logprobs: np.ndarray,
    graph: ContextGraph,
    cfg: SpotterConfig | None = None,
    policy: MergePolicy | None = None,
    vocab: Sequence[str] | None = None,
    external_words: Sequence[WordAlignment] | None = None,
    marker: str = DEFAULT_WORD_MARKER,
) -> tuple[str, list[WordAlignment], list[SpottedCandidate]]:
    """Whole-utterance reference: greedy words + spot + de-overlap + merge.

    Returns (transcript, merged words, kept candidates).
    """
    cfg = cfg or SpotterConfig()
    _check_sources(graph, cfg, vocab, external_words)
    policy = policy or MergePolicy()
    lp = np.asarray(logprobs, dtype=float)
    if vocab is not None:
        words = greedy_decode(lp, vocab, cfg.blank_id, marker)
    else:
        words = list(external_words)
    candidates = dedup_overlaps(spot_offline(lp, graph, cfg))
    merged = merge_region(words, candidates, policy, graph.surfaces)
    return " ".join(w.word for w in merged), merged, candidates
