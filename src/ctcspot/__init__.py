"""Streaming contextual biasing for CTC ASR.

Keywords from a bias list are detected directly from CTC log-probability
matrices by token passing over a trie context graph, chunk by chunk, with
partial matches carried across chunk boundaries. Detections are merged
into the greedy word alignment behind a commit frontier, so the
incrementally emitted transcript is stable and equal to processing the
whole utterance at once.
"""

from .aligner import StreamingAligner, WordAlignment, greedy_decode
from .graph import (
    DEFAULT_WORD_MARKER,
    BiasEntry,
    ContextGraph,
    build_graph,
    load_bias_list,
    load_vocab,
    tokenize,
)
from .merge import ChunkOutput, CommitState, MergePolicy, commit_step, merge_region
from .metrics import (
    ChunkTiming,
    KeywordCounts,
    KeywordReport,
    RuntimeReport,
    corpus_wer,
    edit_distance,
    format_keyword_table,
    format_runtime_table,
    fscore,
    keyword_prf,
    runtime_report,
    wer,
)
from .pipeline import StreamingPipeline, offline_pipeline
from .spotter import SpotterConfig, SpottedCandidate, dedup_overlaps, spot_offline
from .streaming import ActiveToken, HeldPreview, SpotChunkResult, SpotterSession
from .synth import (
    ScriptSegment,
    SynthSpec,
    brute_force_keyword_score,
    brute_force_scores_by_end,
    ctc_collapse,
    generate,
    make_spec,
    word_script,
)

__version__ = "0.1.0"

__all__ = [
    "ActiveToken",
    "BiasEntry",
    "ChunkOutput",
    "ChunkTiming",
    "CommitState",
    "ContextGraph",
    "DEFAULT_WORD_MARKER",
    "HeldPreview",
    "KeywordCounts",
    "KeywordReport",
    "MergePolicy",
    "RuntimeReport",
    "ScriptSegment",
    "SpotChunkResult",
    "SpotterConfig",
    "SpotterSession",
    "SpottedCandidate",
    "StreamingAligner",
    "StreamingPipeline",
    "SynthSpec",
    "WordAlignment",
    "brute_force_keyword_score",
    "brute_force_scores_by_end",
    "build_graph",
    "commit_step",
    "corpus_wer",
    "ctc_collapse",
    "dedup_overlaps",
    "edit_distance",
    "format_keyword_table",
    "format_runtime_table",
    "fscore",
    "generate",
    "greedy_decode",
    "keyword_prf",
    "load_bias_list",
    "load_vocab",
    "make_spec",
    "merge_region",
    "offline_pipeline",
    "runtime_report",
    "spot_offline",
    "tokenize",
    "wer",
    "word_script",
]
