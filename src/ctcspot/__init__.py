"""Streaming contextual biasing for CTC ASR.

Keywords from a bias list are detected directly from CTC log-probability
matrices by token passing over a trie context graph, chunk by chunk, with
partial matches carried across chunk boundaries. Detections are merged
into the greedy word alignment behind a commit frontier, so the
incrementally emitted transcript is stable and equal to processing the
whole utterance at once.
"""

from .aligner import StreamingAligner, greedy_decode
from .formats import WordAlignment
from .graph import (
    DEFAULT_WORD_MARKER,
    BiasEntry,
    ContextGraph,
    Tokenizer,
    build_graph,
    load_bias_list,
    load_vocab,
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
)
from .pipeline import StreamingPipeline, offline_pipeline
from .spotter import (
    HeldPreview,
    SpotChunkResult,
    SpotterConfig,
    SpotterSession,
    SpottedCandidate,
    dedup_overlaps,
    spot_offline,
    spot_undominated,
)
from .synth import (
    ScriptSegment,
    SynthSpec,
    generate,
    make_spec,
    word_script,
)

__version__ = "0.1.0"

__all__ = [
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
    "Tokenizer",
    "WordAlignment",
    "build_graph",
    "commit_step",
    "corpus_wer",
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
    "spot_undominated",
    "word_script",
]
