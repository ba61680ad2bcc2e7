"""WER, biasing-phrase precision/recall/F-score, per-chunk runtime stats.

Phrase scoring is count-based on normalized lowercase text: per utterance,
each bias phrase is matched as a contiguous word subsequence, longest
phrase first so nested phrases are not double counted; hits are
min(reference count, hypothesis count), excess hypothesis occurrences are
false alarms, excess reference occurrences are misses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .formats import check_duration


def _as_words(text: Sequence[str] | str) -> list[str]:
    return text.split() if isinstance(text, str) else list(text)


def edit_distance(ref: Sequence[str], hyp: Sequence[str]) -> int:
    """Levenshtein distance with unit substitution/insertion/deletion costs."""
    if len(ref) < len(hyp):
        ref, hyp = hyp, ref
    previous = list(range(len(hyp) + 1))
    for i, r in enumerate(ref, start=1):
        current = [i]
        for j, h in enumerate(hyp, start=1):
            if r == h:
                current.append(previous[j - 1])
            else:
                current.append(1 + min(previous[j - 1], previous[j], current[-1]))
        previous = current
    return previous[-1]


def corpus_wer(refs: Iterable[Sequence[str] | str], hyps: Iterable[Sequence[str] | str]) -> float:
    """Corpus-level WER: summed edit distance over summed reference length.
    Raises ValueError when the two differ in count, as :func:`keyword_prf` does."""
    total_dist = 0
    total_len = 0
    for ref, hyp in zip(refs, hyps, strict=True):
        ref_words, hyp_words = _as_words(ref), _as_words(hyp)
        total_dist += edit_distance(ref_words, hyp_words)
        total_len += len(ref_words)
    return 100.0 * total_dist / max(1, total_len)


def fscore(precision: float, recall: float) -> float:
    """Harmonic mean of precision and recall, both in percent."""
    denom = precision + recall
    return 2.0 * precision * recall / denom if denom > 0 else 0.0


@dataclass
class KeywordCounts:
    hits: int = 0
    false_alarms: int = 0
    misses: int = 0

    @property
    def precision(self) -> float:
        denom = self.hits + self.false_alarms
        return 100.0 * self.hits / denom if denom else 0.0

    @property
    def recall(self) -> float:
        denom = self.hits + self.misses
        return 100.0 * self.hits / denom if denom else 0.0

    @property
    def fscore(self) -> float:
        return fscore(self.precision, self.recall)

    def to_record(self, scope: str) -> dict:
        return {
            "type": "keyword_metrics",
            "scope": scope,
            "hits": self.hits,
            "false_alarms": self.false_alarms,
            "misses": self.misses,
            "precision": self.precision,
            "recall": self.recall,
            "fscore": self.fscore,
        }


@dataclass
class KeywordReport:
    total: KeywordCounts = field(default_factory=KeywordCounts)
    per_keyword: dict[str, KeywordCounts] = field(default_factory=dict)

    def to_records(self) -> list[dict]:
        scopes = [("all", self.total), *sorted(self.per_keyword.items())]
        return [counts.to_record(scope) for scope, counts in scopes]


def _count_occurrences(
    words: list[str], phrases: list[tuple[str, tuple[str, ...]]]
) -> dict[str, int]:
    """Greedy longest-first phrase counting over one utterance."""
    used = [False] * len(words)
    counts: dict[str, int] = {}
    for surface, phrase in phrases:
        span = len(phrase)
        i = 0
        while i + span <= len(words):
            window = words[i : i + span]
            if tuple(window) == phrase and not any(used[i : i + span]):
                counts[surface] = counts.get(surface, 0) + 1
                used[i : i + span] = [True] * span
                i += span
            else:
                i += 1
    return counts


def keyword_prf(
    refs: Sequence[Sequence[str] | str],
    hyps: Sequence[Sequence[str] | str],
    surfaces: Iterable[str],
) -> KeywordReport:
    """Occurrence-level precision/recall/F-score over the bias phrase
    ``surfaces``."""
    if len(refs) != len(hyps):
        raise ValueError(f"{len(refs)} references vs {len(hyps)} hypotheses")
    phrases: list[tuple[str, tuple[str, ...]]] = []
    seen: set[tuple[str, ...]] = set()
    for surface in surfaces:
        normalized = tuple(surface.lower().split())
        if not normalized or normalized in seen:
            continue
        seen.add(normalized)
        phrases.append((surface, normalized))
    phrases.sort(key=lambda p: (-len(p[1]), p[1]))

    report = KeywordReport()
    report.per_keyword = {surface: KeywordCounts() for surface, _ in phrases}
    for ref, hyp in zip(refs, hyps):
        ref_counts = _count_occurrences([w.lower() for w in _as_words(ref)], phrases)
        hyp_counts = _count_occurrences([w.lower() for w in _as_words(hyp)], phrases)
        for surface, _ in phrases:
            rc = ref_counts.get(surface, 0)
            hc = hyp_counts.get(surface, 0)
            counts = report.per_keyword[surface]
            counts.hits += min(rc, hc)
            counts.false_alarms += max(0, hc - rc)
            counts.misses += max(0, rc - hc)
    for counts in report.per_keyword.values():
        report.total.hits += counts.hits
        report.total.false_alarms += counts.false_alarms
        report.total.misses += counts.misses
    return report


def format_keyword_table(report: KeywordReport, per_keyword: bool = False) -> str:
    lines = [
        f"{'Keyword':<28} {'Hits':>6} {'FA':>6} {'Miss':>6} {'P':>7} {'R':>7} {'F':>7}",
    ]

    def row(name: str, c: KeywordCounts) -> str:
        return (
            f"{name:<28} {c.hits:>6} {c.false_alarms:>6} {c.misses:>6} "
            f"{c.precision:>7.2f} {c.recall:>7.2f} {c.fscore:>7.2f}"
        )

    lines.append(row("ALL", report.total))
    if per_keyword:
        for surface, counts in sorted(report.per_keyword.items()):
            lines.append(row(surface, counts))
    return "\n".join(lines)


# runtime accounting ---------------------------------------------------------


@dataclass
class ChunkTiming:
    """Wall-clock cost of one chunk, milliseconds."""

    asr_ms: float
    spot_ms: float
    merge_ms: float


def _mean(xs: Sequence[float]) -> float:
    return sum(xs) / len(xs)


def p95(xs: Sequence[float]) -> float:
    """Nearest-rank 95th percentile."""
    ordered = sorted(xs)
    rank = max(1, -(-len(ordered) * 95 // 100))  # ceil(0.95 n)
    return ordered[rank - 1]


@dataclass
class RuntimeReport:
    chunk_ms: float
    n_samples: int
    asr_mean: float
    asr_p95: float
    spot_mean: float
    spot_p95: float
    merge_mean: float
    merge_p95: float
    total_mean: float
    total_p95: float
    extra_ratio: float
    extra_ratio_p95: float

    def to_record(self) -> dict:
        return {"type": "runtime_report", **self.__dict__}


def runtime_report(timings: Sequence[ChunkTiming], chunk_ms: float) -> RuntimeReport:
    """Mean and nearest-rank P95 per step, plus the extra-processing ratio
    (mean spot + merge time over the chunk duration, percent)."""
    if not timings:
        raise ValueError("need at least one timing sample")
    check_duration(chunk_ms, "chunk duration")
    for t in timings:
        if min(t.asr_ms, t.spot_ms, t.merge_ms) < 0:
            raise ValueError("negative step timing")
    asr = [t.asr_ms for t in timings]
    spot = [t.spot_ms for t in timings]
    merge = [t.merge_ms for t in timings]
    total = [t.asr_ms + t.spot_ms + t.merge_ms for t in timings]
    extra = [(s + m) for s, m in zip(spot, merge)]
    return RuntimeReport(
        chunk_ms=chunk_ms,
        n_samples=len(timings),
        asr_mean=_mean(asr),
        asr_p95=p95(asr),
        spot_mean=_mean(spot),
        spot_p95=p95(spot),
        merge_mean=_mean(merge),
        merge_p95=p95(merge),
        total_mean=_mean(total),
        total_p95=p95(total),
        extra_ratio=100.0 * (_mean(spot) + _mean(merge)) / chunk_ms,
        extra_ratio_p95=100.0 * p95(extra) / chunk_ms,
    )


def format_runtime_table(report: RuntimeReport) -> str:
    rows = [
        ("Feed Time (ms)", report.asr_mean, report.asr_p95),
        ("Spot Time (ms)", report.spot_mean, report.spot_p95),
        ("Merge Time (ms)", report.merge_mean, report.merge_p95),
        ("Total Time (ms)", report.total_mean, report.total_p95),
        ("Extra Proc. / Chunk (%)", report.extra_ratio, report.extra_ratio_p95),
    ]
    width = max(len(name) for name, _, _ in rows)
    lines = [f"{'Metric':<{width}}  mean / P95   (chunk {report.chunk_ms:g} ms)"]
    for name, mean_v, p95_v in rows:
        lines.append(f"{name:<{width}}  {mean_v:.1f} / {p95_v:.1f}")
    return "\n".join(lines)
