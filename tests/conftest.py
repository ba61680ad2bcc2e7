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


def child_map(table, node) -> dict[int, int]:
    """{token: child node} of one trie node, walked along its sibling chain."""
    out = {}
    child = table.first_child[node]
    while child >= 0:
        out[table.tokens[child]] = child
        child = table.next_sibling[child]
    return out


def reference_tables(graph) -> tuple:
    """Per-node child dicts, tokens, terminals (-1 for none) and root
    children, read from the graph's search table."""
    table = graph.table
    kids = [child_map(table, n) for n in range(graph.num_nodes)]
    return kids, list(table.tokens), list(table.terminals), list(kids[0].items())


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
