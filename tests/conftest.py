"""Shared helpers: random normalized matrices, bias lists, partitions, and
independent mini-oracles kept deliberately separate from the package code."""

from __future__ import annotations

import numpy as np

from ctcspot import BiasEntry

MARKER = "▁"


def random_logprobs(rng: np.random.Generator, n_frames: int, vocab: int) -> np.ndarray:
    """Normalized rows with a random sharpness per matrix."""
    scale = rng.uniform(0.5, 3.0)
    x = rng.standard_normal((n_frames, vocab)) * scale
    peak = x.max(axis=1, keepdims=True) if n_frames else x
    if n_frames:
        x = x - (peak + np.log(np.exp(x - peak).sum(axis=1, keepdims=True)))
    return x


def random_entries(
    rng: np.random.Generator,
    count: int,
    vocab: int,
    blank: int,
    max_len: int = 4,
    multiword: bool = True,
) -> list[BiasEntry]:
    """Unique random token sequences with synthetic surfaces."""
    usable = [t for t in range(vocab) if t != blank]
    seen: set[tuple[int, ...]] = set()
    entries: list[BiasEntry] = []
    attempts = 0
    while len(entries) < count and attempts < count * 50:
        attempts += 1
        length = int(rng.integers(1, max_len + 1))
        tokens = tuple(int(rng.choice(usable)) for _ in range(length))
        if tokens in seen:
            continue
        seen.add(tokens)
        idx = len(entries)
        surface = f"kw{idx} extra" if (multiword and idx % 3 == 0) else f"kw{idx}"
        entries.append(BiasEntry(idx, surface, tokens))
    return entries


def random_partition(rng: np.random.Generator, total: int) -> list[int]:
    """Chunk sizes summing to total, occasionally empty."""
    sizes: list[int] = []
    remaining = total
    while remaining > 0:
        if rng.random() < 0.1:
            sizes.append(0)
        n = int(rng.integers(1, remaining + 1))
        sizes.append(n)
        remaining -= n
    if not sizes or rng.random() < 0.2:
        sizes.append(0)
    return sizes


def synthetic_vocab(vocab: int, rng: np.random.Generator | None = None) -> list[str]:
    """Token strings with a mix of word-initial and continuation pieces;
    the last token is the blank."""
    rng = rng or np.random.default_rng(0)
    letters = "abcdefghijklmnopqrstuvwxyz"
    pieces: list[str] = []
    seen: set[str] = set()
    while len(pieces) < vocab - 1:
        body = "".join(rng.choice(list(letters), size=int(rng.integers(1, 3))))
        piece = (MARKER + body) if rng.random() < 0.5 else body
        if piece in seen:
            continue
        seen.add(piece)
        pieces.append(piece)
    pieces.append("<blank>")
    return pieces


def collapse(labels, blank) -> list[int]:
    """Five-line reference CTC collapse: drop repeats, then blanks."""
    out = []
    prev = None
    for sym in labels:
        if sym != prev and sym != blank:
            out.append(sym)
        prev = sym
    return out


def cand_key(c) -> tuple:
    return (c.keyword_id, c.start_frame, c.end_frame, round(c.score, 9))


def child_map(graph, node) -> dict[int, int]:
    """{token: child node} of one trie node, walked along its sibling chain."""
    out = {}
    child = graph.first_child[node]
    while child >= 0:
        out[graph.tokens[child]] = child
        child = graph.next_sibling[child]
    return out


def reference_tables(graph) -> tuple:
    """Per-node child dicts, tokens, terminals (-1 for none) and root
    children, read from the graph's flat lists."""
    kids = [child_map(graph, n) for n in range(graph.num_nodes)]
    return kids, list(graph.tokens), list(graph.terminals), list(kids[0].items())


def reference_step_frame(state, row, t, children, tokens, terminals, root_children, cfg, blank_id):
    """The search step with full fresh-entry admission: every root child
    gets a fresh hypothesis on every frame, then recombination and pruning
    decide. The package's step admits fewer and must return the same
    (survivors, candidates)."""
    from ctcspot import SpottedCandidate

    cb = cfg.cb_weight
    lp_blank = row[blank_id]
    nxt = {}

    for key, (score, start) in state.items():
        node = key >> 1
        ntok = tokens[node]
        k = (node << 1) | 1
        s = score + lp_blank
        prev = nxt.get(k)
        if prev is None or s > prev[0] or (s == prev[0] and start < prev[1]):
            nxt[k] = (s, start)
        in_blank = key & 1
        if not in_blank:
            k = node << 1
            s = score + row[ntok]
            prev = nxt.get(k)
            if prev is None or s > prev[0] or (s == prev[0] and start < prev[1]):
                nxt[k] = (s, start)
        for ctok, cnode in children[node].items():
            if in_blank or ctok != ntok:
                k = cnode << 1
                s = score + row[ctok] + cb
                prev = nxt.get(k)
                if prev is None or s > prev[0] or (s == prev[0] and start < prev[1]):
                    nxt[k] = (s, start)

    for ctok, cnode in root_children:
        k = cnode << 1
        s = row[ctok] + cb
        prev = nxt.get(k)
        if prev is None or s > prev[0]:
            nxt[k] = (s, t)

    if not nxt:
        return {}, []

    best = max(v[0] for v in nxt.values())
    beam_floor = best - cfg.beam_threshold
    max_age = cfg.max_keyword_frames
    min_pfs = cfg.min_per_frame_score
    survivors = {}
    at_terminal = {}
    for key, val in nxt.items():
        score, start = val
        age = t - start + 1
        if score < beam_floor or age > max_age or score < min_pfs * age:
            continue
        survivors[key] = val
        node = key >> 1
        if terminals[node] >= 0:
            prev = at_terminal.get(node)
            if prev is None or score > prev[0] or (score == prev[0] and start < prev[1]):
                at_terminal[node] = val

    cands = [
        SpottedCandidate(terminals[node], start, t, score)
        for node, (score, start) in at_terminal.items()
    ]
    return survivors, cands


def overlaps(a, b) -> bool:
    """Whether two inclusive frame intervals share a frame."""
    return a.start_frame <= b.end_frame and b.start_frame <= a.end_frame


def _reference_greedy_order(c) -> tuple:
    return (-c.per_frame_score, -c.num_frames, c.keyword_id, c.start_frame, c.end_frame)


def _reference_time_order(c) -> tuple:
    return (c.start_frame, c.end_frame, c.keyword_id)


def reference_settle(pending, frontier) -> tuple:
    """The greedy de-overlap sweep by plain scans: each candidate is tested
    against every kept and held one. The package's sweep bisects sorted
    lists instead and must return the same (kept, held)."""
    kept = []
    held = []
    for cand in sorted(pending, key=_reference_greedy_order):
        if any(overlaps(cand, k) for k in kept):
            continue  # lost to a kept, better-ranked candidate
        if cand.end_frame >= frontier or any(overlaps(cand, h) for h in held):
            held.append(cand)
        else:
            kept.append(cand)
    kept.sort(key=_reference_time_order)
    held.sort(key=_reference_time_order)
    return kept, held


def _reference_overlap(c, w) -> int:
    return max(0, min(c.end_frame, w.end_frame) - max(c.start_frame, w.start_frame) + 1)


def reference_merge_region(words, candidates, policy, surfaces, stats=None) -> list:
    """The merge by plain scans: every word is tested against every
    candidate. The package's merge bisects to each candidate's run of words
    and must return the same words and ``stats``."""
    from ctcspot import WordAlignment
    from ctcspot.formats import check_intervals, check_words

    check_words(words)
    check_intervals(candidates)
    replaced = set()
    added = []
    n_replaced = n_inserted = n_discarded = 0
    for cand in candidates:
        covered = [
            i
            for i, w in enumerate(words)
            if _reference_overlap(cand, w)
            > policy.intersection_threshold * (w.end_frame - w.start_frame + 1)
        ]
        as_word = WordAlignment(
            surfaces[cand.keyword_id], cand.start_frame, cand.end_frame, cand.score
        )
        if covered:
            if cand.score >= sum(words[i].path_score for i in covered) + policy.score_margin:
                replaced.update(covered)
                added.append(as_word)
                n_replaced += 1
            else:
                n_discarded += 1
        elif policy.allow_insertion and not any(_reference_overlap(cand, w) for w in words):
            added.append(as_word)
            n_inserted += 1
        else:
            n_discarded += 1
    merged = [w for i, w in enumerate(words) if i not in replaced]
    merged.extend(added)
    merged.sort(key=lambda w: (w.start_frame, w.end_frame, w.word))
    if stats is not None:
        stats.update(replaced=n_replaced, inserted=n_inserted, discarded=n_discarded)
    return merged


def _reference_count_occurrences(words, phrases) -> dict:
    """Every phrase tried at every position: phrases in rank order, each
    from left to right, skipping a window that overlaps a claimed word."""
    used = [False] * len(words)
    counts = {}
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


def reference_keyword_prf(refs, hyps, surfaces):
    """Keyword scoring by scanning every phrase over every utterance. The
    package looks up each utterance's n-grams instead and must return the
    same report."""
    from ctcspot import KeywordCounts, KeywordReport

    if len(refs) != len(hyps):
        raise ValueError(f"{len(refs)} references vs {len(hyps)} hypotheses")
    phrases = []
    seen = set()
    for surface in surfaces:
        normalized = tuple(surface.lower().split())
        if not normalized or normalized in seen:
            continue
        seen.add(normalized)
        phrases.append((surface, normalized))
    phrases.sort(key=lambda p: (-len(p[1]), p[1]))

    def as_words(text):
        return text.split() if isinstance(text, str) else list(text)

    report = KeywordReport()
    report.per_keyword = {surface: KeywordCounts() for surface, _ in phrases}
    for ref, hyp in zip(refs, hyps):
        ref_counts = _reference_count_occurrences([w.lower() for w in as_words(ref)], phrases)
        hyp_counts = _reference_count_occurrences([w.lower() for w in as_words(hyp)], phrases)
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
