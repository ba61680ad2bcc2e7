"""WER, biasing-phrase precision/recall/F-score, per-chunk runtime stats.

Phrase scoring is count-based on normalized lowercase text. A bias
phrase is its surface lower-cased and split on whitespace; empty phrases
are dropped, and a phrase met again under another surface keeps its first.
Phrases rank longest first, then lexicographically. Per utterance, each
phrase is matched as a contiguous word subsequence, phrases in rank order
and each from left to right, and an occurrence counts only if it overlaps
no word claimed by an earlier one, so nested phrases are not double
counted. Looking up each n-gram of the utterance and claiming the matches
in (rank, start) order gives those counts at a cost set by the
utterance's length and the longest phrase, not by the number of phrases.
Hits are min(reference count, hypothesis count), excess hypothesis
occurrences are false alarms, excess reference occurrences are misses.
"""

from __future__ import annotations

from collections import Counter
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
    text: Sequence[str] | str, ranks: dict[tuple[str, ...], int], longest: int
) -> Counter[int]:
    """Occurrences per phrase rank in one utterance: each of its n-grams up
    to ``longest`` words is looked up in ``ranks``, and the matches are
    claimed in (rank, start) order unless they overlap a claimed word."""
    words = [w.lower() for w in _as_words(text)]
    matches = sorted(
        (rank, i, n)
        for n in range(1, longest + 1)
        for i in range(len(words) - n + 1)
        if (rank := ranks.get(tuple(words[i : i + n]))) is not None
    )
    used = [False] * len(words)
    counts: Counter[int] = Counter()
    for rank, i, n in matches:
        if not any(used[i : i + n]):
            used[i : i + n] = [True] * n
            counts[rank] += 1
    return counts


def keyword_prf(
    refs: Sequence[Sequence[str] | str],
    hyps: Sequence[Sequence[str] | str],
    surfaces: Iterable[str],
) -> KeywordReport:
    """Occurrence-level precision/recall/F-score over the bias phrase
    ``surfaces``, counted by the rule in the module docstring.

    Each utterance costs its words times the longest phrase in dict
    lookups, plus a sort of its matches; the number of phrases sets only
    the one-off ranking, since a phrase found in neither transcript of a
    pair adds nothing to its counts."""
    if len(refs) != len(hyps):
        raise ValueError(f"{len(refs)} references vs {len(hyps)} hypotheses")
    first_surface: dict[tuple[str, ...], str] = {}
    for surface in surfaces:
        if phrase := tuple(surface.lower().split()):
            first_surface.setdefault(phrase, surface)
    phrases = sorted(first_surface, key=lambda p: (-len(p), p))
    ranks = {phrase: rank for rank, phrase in enumerate(phrases)}
    longest = len(phrases[0]) if phrases else 0

    report = KeywordReport()
    tallies = [KeywordCounts() for _ in phrases]
    report.per_keyword = {first_surface[p]: c for p, c in zip(phrases, tallies)}
    for ref, hyp in zip(refs, hyps):
        ref_counts = _count_occurrences(ref, ranks, longest)
        hyp_counts = _count_occurrences(hyp, ranks, longest)
        for rank in ref_counts.keys() | hyp_counts.keys():
            rc, hc = ref_counts[rank], hyp_counts[rank]
            for counts in (tallies[rank], report.total):
                counts.hits += min(rc, hc)
                counts.false_alarms += max(0, hc - rc)
                counts.misses += max(0, rc - hc)
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
