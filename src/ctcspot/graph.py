"""Trie context graph over tokenized biasing phrases.

Each biasing phrase is stored as a root-to-leaf path of token ids; phrases
sharing a token prefix share the prefix's node chain. :func:`build_graph`
freezes the trie into one :class:`SearchTable` of flat per-node lists,
which every search over the graph reads. The CTC rules over those lists
live in one place, the per-frame step of :mod:`ctcspot.spotter`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    DuplicateConflict,
    EmptyTokenSequence,
    TokenizationError,
    TokenOutOfRange,
)

ROOT = 0

DEFAULT_WORD_MARKER = "▁"  # the leading-space convention of BPE vocabularies


@dataclass(frozen=True)
class BiasEntry:
    """One biasing phrase: canonical surface text plus its token ids."""

    keyword_id: int
    surface: str
    tokens: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class SearchTable:
    """The trie frozen into flat per-node lists, the only form the search reads.

    ``tokens[n]`` is the token on the edge into node n (-1 at the root),
    ``terminals[n]`` the keyword id ending at n (-1 when none). The children
    of n form a chain: ``first_child[n]``, then ``next_sibling`` of each
    child, with -1 ending it. ``root_tok[i]`` is the token of the i-th root
    child, ``root_keys[i]`` that child's non-blank search key (node << 1) and
    ``root_slot`` maps the key back to i.
    """

    tokens: list[int]
    first_child: list[int]
    next_sibling: list[int]
    terminals: list[int]
    root_tok: np.ndarray
    root_keys: list[int]
    root_slot: dict[int, int]


class ContextGraph:
    """Immutable token trie built by :func:`build_graph`.

    Node 0 is the root and carries no token (token id -1). Safe for
    concurrent readers once built; the search reads ``table``, and
    ``surfaces`` maps each keyword id to its surface text.
    """

    def __init__(self, table: SearchTable, entries: list[BiasEntry]) -> None:
        self.table = table
        self.entries = entries
        self.surfaces = {e.keyword_id: e.surface for e in entries}

    # queries --------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.table.tokens)

    @property
    def num_terminals(self) -> int:
        return sum(1 for k in self.table.terminals if k >= 0)

    @cached_property
    def max_token_id(self) -> int:
        """Largest token id stored in the trie, -1 for an empty graph."""
        return max(self.table.tokens)


def build_graph(
    entries: Iterable[BiasEntry],
    vocab_size: int | None = None,
    blank_id: int | None = None,
) -> ContextGraph:
    """Build the trie from biasing entries and freeze its search table.

    Entries with identical token sequences are deduplicated silently when
    their surfaces match and rejected otherwise. When ``vocab_size`` or
    ``blank_id`` are given, token ids are validated against them.
    """
    tokens, first_child, next_sibling, terminals = [-1], [-1], [-1], [-1]
    # child lookup while building, keyed by token << 32 | parent (node ids
    # stay below 2**32); dropped on return, so only the flat lists remain
    edges: dict[int, int] = {}
    kept: list[BiasEntry] = []
    by_tokens: dict[tuple[int, ...], BiasEntry] = {}
    seen_ids: set[int] = set()
    for entry in entries:
        if not entry.tokens:
            raise EmptyTokenSequence(f"entry {entry.keyword_id} ({entry.surface!r}) has no tokens")
        if not entry.surface:
            raise ValueError(f"entry {entry.keyword_id} has an empty surface")
        for tok in entry.tokens:
            if tok < 0 or (vocab_size is not None and tok >= vocab_size):
                raise TokenOutOfRange(
                    f"entry {entry.surface!r}: token {tok} outside vocabulary of size {vocab_size}"
                )
            if blank_id is not None and tok == blank_id:
                raise TokenOutOfRange(
                    f"entry {entry.surface!r}: blank id {blank_id} inside a phrase"
                )
        prev = by_tokens.get(entry.tokens)
        if prev is not None:
            if prev.surface == entry.surface:
                continue  # silent dedup of repeated phrases
            raise DuplicateConflict(
                f"entries {prev.surface!r} and {entry.surface!r} share tokens {list(entry.tokens)}"
            )
        if entry.keyword_id in seen_ids:
            raise DuplicateConflict(f"keyword id {entry.keyword_id} used twice")
        seen_ids.add(entry.keyword_id)
        by_tokens[entry.tokens] = entry
        node = ROOT
        for tok in entry.tokens:
            key = tok << 32 | node
            child = edges.get(key)
            if child is None:
                child = edges[key] = len(tokens)
                tokens.append(tok)
                first_child.append(-1)
                next_sibling.append(first_child[node])
                first_child[node] = child
                terminals.append(-1)
            node = child
        terminals[node] = entry.keyword_id
        kept.append(entry)

    root_children = []
    child = first_child[ROOT]
    while child >= 0:
        root_children.append(child)
        child = next_sibling[child]
    root_keys = [c << 1 for c in root_children]
    table = SearchTable(
        tokens=tokens,
        first_child=first_child,
        next_sibling=next_sibling,
        terminals=terminals,
        root_tok=np.array([tokens[c] for c in root_children], dtype=np.intp),
        root_keys=root_keys,
        root_slot={k: i for i, k in enumerate(root_keys)},
    )
    return ContextGraph(table, kept)


# vocabulary and bias-list files ------------------------------------------


def load_vocab(path: str) -> list[str]:
    """Vocabulary file: one token string per line, line number = token id."""
    with open(path, "r", encoding="utf-8") as fp:
        return [line.rstrip("\r\n") for line in fp]


def tokenize(
    text: str,
    vocab: Sequence[str],
    marker: str = DEFAULT_WORD_MARKER,
    skip_ids: Iterable[int] = (),
) -> list[int]:
    """Greedy longest-match tokenization of ``text`` against ``vocab``.

    Spaces are mapped to the word-boundary marker before matching, so a
    phrase like "justin bieber" matches marker-prefixed pieces.
    """
    skip = set(skip_ids)
    table: dict[str, int] = {}
    for tid, piece in enumerate(vocab):
        if tid in skip or not piece:
            continue
        table.setdefault(piece, tid)
    if not table:
        raise TokenizationError("vocabulary has no usable pieces")
    longest = max(len(p) for p in table)
    normalized = marker + text.strip().replace(" ", marker)
    out: list[int] = []
    i = 0
    while i < len(normalized):
        for span in range(min(longest, len(normalized) - i), 0, -1):
            tid = table.get(normalized[i : i + span])
            if tid is not None:
                out.append(tid)
                i += span
                break
        else:
            raise TokenizationError(f"no vocabulary piece matches {normalized[i:]!r}")
    return out


def _bias_lines(path: str) -> Iterator[tuple[int, str, str | None]]:
    """(line number, surface, token id column or None) per bias-list entry."""
    with open(path, "r", encoding="utf-8") as fp:
        for lineno, raw in enumerate(fp, start=1):
            line = raw.rstrip("\r\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            surface, tab, id_col = line.partition("\t")
            yield lineno, surface, id_col if tab else None


def load_bias_surfaces(path: str) -> list[str]:
    """The surfaces of a bias list, ignoring any token columns."""
    return [surface.strip() for _, surface, _ in _bias_lines(path)]


def load_bias_list(
    path: str,
    vocab: Sequence[str] | None = None,
    marker: str = DEFAULT_WORD_MARKER,
    blank_id: int | None = None,
) -> list[BiasEntry]:
    """Read a bias list: ``surface<TAB>token_id,token_id,...`` per line.

    Lines starting with ``#`` and blank lines are ignored. Lines without a
    token column are tokenized against ``vocab`` (required in that case).
    """
    entries: list[BiasEntry] = []
    skip = {blank_id} if blank_id is not None else set()
    for lineno, surface, id_col in _bias_lines(path):
        if id_col is not None:
            try:
                tokens = tuple(int(x) for x in id_col.split(",") if x.strip())
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad token id list {id_col!r}") from exc
        else:
            if vocab is None:
                raise ValueError(
                    f"{path}:{lineno}: entry {surface!r} has no token ids and no vocabulary was given"
                )
            tokens = tuple(tokenize(surface, vocab, marker, skip))
        entries.append(BiasEntry(len(entries), surface.strip(), tokens))
    return entries
