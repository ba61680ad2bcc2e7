"""Trie context graph over tokenized biasing phrases.

Each biasing phrase is stored as a root-to-leaf path of token ids; phrases
sharing a token prefix share the prefix's node chain. :func:`build_graph`
freezes the trie into a :class:`ContextGraph`, a frozen table of flat
per-node lists that every search reads directly. The CTC rules over those
lists live in one place, the chunk search ``_search`` of
:mod:`ctcspot.spotter`; the graph describes only the trie.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    BadTokenList,
    DuplicateConflict,
    EmptySurface,
    EmptyTokenSequence,
    TokenizationError,
    TokenOutOfRange,
)

ROOT = 0

DEFAULT_WORD_MARKER = "▁"  # the leading-space convention of BPE vocabularies


@dataclass(frozen=True, slots=True)
class BiasEntry:
    """One biasing phrase: canonical surface text plus its token ids."""

    keyword_id: int
    surface: str
    tokens: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class ContextGraph:
    """The token trie frozen into flat per-node lists by :func:`build_graph`;
    the search reads these lists directly. Safe for concurrent readers.

    Node 0 is the root. ``tokens[n]`` is the token on the edge into node n
    (-1 at the root), ``terminals[n]`` the keyword id ending at n (-1 when
    none). The children of n form a chain: ``first_child[n]``, then
    ``next_sibling`` of each child, with -1 ending it. ``root_tok[i]`` is
    the token of the i-th root child, ``root_keys[i]`` that child's
    non-blank search key (node << 1) and ``root_slot`` maps the key back to
    i. ``heights[n]`` is how many tokens below n its deepest terminal lies
    (0 when n is a leaf). ``surfaces`` maps each keyword id to its surface
    text.
    """

    tokens: list[int]
    first_child: list[int]
    next_sibling: list[int]
    terminals: list[int]
    heights: list[int]
    root_tok: np.ndarray
    root_keys: list[int]
    root_slot: dict[int, int]
    surfaces: dict[int, str]

    @property
    def num_nodes(self) -> int:
        return len(self.tokens)

    @cached_property
    def token_ids(self) -> frozenset[int]:
        """Every token id stored in the trie."""
        return frozenset(self.tokens[1:])  # node 0, the root, carries none

    @cached_property
    def max_token_id(self) -> int:
        """Largest token id stored in the trie, -1 for an empty graph."""
        return max(self.token_ids, default=-1)

    @cached_property
    def root_nodes(self) -> np.ndarray:
        """The node of each root child, ``root_keys[i] >> 1``, as an np.intp
        array."""
        return np.array(self.root_keys, dtype=np.intp) >> 1

    @cached_property
    def root_steps(self) -> tuple[np.ndarray, np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
        """The trie below the root children: ``(final, first, more)``.
        ``final[i]`` is True when the i-th root child ends a keyword and
        ``first[i]`` is the token of its first child; a leaf, which ends a
        keyword, gives its own token as a placeholder. ``more[k]`` is
        ``(cols, toks)``: the root children with more than k + 1 children
        and the token of each one's child k + 2, so one gather per rank of
        child reaches every child. Which of these tokens a hypothesis may
        step to is a rule of the search; listing them all gives an upper
        bound on its best step."""
        final, first = [], []
        more: list[tuple[list[int], list[int]]] = []
        for i, key in enumerate(self.root_keys):
            node = key >> 1
            final.append(self.terminals[node] >= 0)
            child = self.first_child[node]
            first.append(self.tokens[child if child >= 0 else node])
            child = self.next_sibling[child] if child >= 0 else -1
            k = 0
            while child >= 0:
                if k == len(more):
                    more.append(([], []))
                more[k][0].append(i)
                more[k][1].append(self.tokens[child])
                k += 1
                child = self.next_sibling[child]
        return (
            np.array(final, dtype=bool),
            np.array(first, dtype=np.intp),
            [(np.array(c, dtype=np.intp), np.array(t, dtype=np.intp)) for c, t in more],
        )


def build_graph(entries: Iterable[BiasEntry], vocab_size: int | None = None) -> ContextGraph:
    """Build the trie from biasing entries and freeze it.

    Entries with identical token sequences are deduplicated silently when
    their surfaces match and rejected otherwise. A negative keyword id,
    which the table could not tell from "no keyword", raises
    ``ValueError``. Token ids must not be negative, too large to index an
    array nor, when ``vocab_size`` is given, reach it; the walk that adds a
    phrase checks each token as it reaches it and raises
    :class:`~ctcspot.errors.TokenOutOfRange` at the first bad one.
    :func:`ctcspot.spotter.check_graph` rejects a phrase holding the blank.
    """
    # largest token id allowed: root_tok holds ids in an np.intp array
    top = sys.maxsize if vocab_size is None else min(vocab_size - 1, sys.maxsize)
    tokens, first_child, next_sibling, terminals, heights = [-1], [-1], [-1], [-1], [0]
    # child lookup while building, keyed by token << 32 | parent (node ids
    # stay below 2**32); dropped on return, so only the flat lists remain
    edges: dict[int, int] = {}
    surfaces: dict[int, str] = {}
    for entry in entries:
        if entry.keyword_id < 0:  # terminals use -1 for "no keyword"
            raise ValueError(f"entry {entry.surface!r}: keyword id {entry.keyword_id} is negative")
        if not entry.tokens:
            raise EmptyTokenSequence(f"entry {entry.keyword_id} ({entry.surface!r}) has no tokens")
        if not entry.surface:
            raise EmptySurface(f"entry {entry.keyword_id} has an empty surface")
        node = ROOT
        below = len(entry.tokens)  # tokens of the phrase below the current node
        if heights[ROOT] < below:
            heights[ROOT] = below
        for tok in entry.tokens:
            if not 0 <= tok <= top:
                raise _token_out_of_range(entry.surface, tok, vocab_size)
            below -= 1
            n = len(tokens)
            child = edges.setdefault(tok << 32 | node, n)
            if child == n:
                tokens.append(tok)
                first_child.append(-1)
                next_sibling.append(first_child[node])
                first_child[node] = child
                terminals.append(-1)
                heights.append(below)
            elif heights[child] < below:
                heights[child] = below
            node = child
        prev = terminals[node]  # a keyword already ends here: same tokens
        if prev >= 0:
            if surfaces[prev] == entry.surface:
                continue  # silent dedup of repeated phrases
            raise DuplicateConflict(
                f"entries {surfaces[prev]!r} and {entry.surface!r} share tokens {list(entry.tokens)}"
            )
        if entry.keyword_id in surfaces:
            raise DuplicateConflict(f"keyword id {entry.keyword_id} used twice")
        surfaces[entry.keyword_id] = entry.surface
        terminals[node] = entry.keyword_id

    root_children = []
    child = first_child[ROOT]
    while child >= 0:
        root_children.append(child)
        child = next_sibling[child]
    root_keys = [c << 1 for c in root_children]
    return ContextGraph(
        tokens=tokens,
        first_child=first_child,
        next_sibling=next_sibling,
        terminals=terminals,
        heights=heights,
        root_tok=np.array([tokens[c] for c in root_children], dtype=np.intp),
        root_keys=root_keys,
        root_slot={k: i for i, k in enumerate(root_keys)},
        surfaces=surfaces,
    )


def _token_out_of_range(surface: str, tok: int, vocab_size: int | None) -> TokenOutOfRange:
    """The error for a token id that fails :func:`build_graph`'s range
    check, naming the rule it breaks."""
    if tok < 0:
        rule = "is negative"
    elif vocab_size is not None and tok >= vocab_size:
        rule = f"outside vocabulary of size {vocab_size}"
    else:
        rule = "too large to index"
    return TokenOutOfRange(f"entry {surface!r}: token {tok} {rule}")


# vocabulary and bias-list files ------------------------------------------


def load_vocab(path: str) -> list[str]:
    """Vocabulary file: one token string per line, line number = token id."""
    with open(path, "r", encoding="utf-8-sig") as fp:
        return [line.rstrip("\r\n") for line in fp]


class Tokenizer:
    """Greedy longest-match tokenization against one vocabulary.

    The ``{piece: first token id}`` table over the non-empty pieces outside
    ``skip_ids`` is built once, so tokenizing many texts costs one pass
    over the vocabulary. Each run of whitespace between words is mapped to
    one word-boundary marker before matching, so a phrase like "justin
    bieber" matches marker-prefixed pieces.
    """

    def __init__(
        self, vocab: Sequence[str], marker: str = DEFAULT_WORD_MARKER, skip_ids: Iterable[int] = ()
    ) -> None:
        skip = set(skip_ids)
        table: dict[str, int] = {}
        for tid, piece in enumerate(vocab):
            if tid in skip or not piece:
                continue
            table.setdefault(piece, tid)
        if not table:
            raise TokenizationError("vocabulary has no usable pieces")
        self.marker = marker
        self._table = table
        self._longest = max(len(p) for p in table)

    def __call__(self, text: str) -> list[int]:
        table, longest = self._table, self._longest
        normalized = self.marker + self.marker.join(text.split())
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
    """(line number, surface, token id column or None) per bias-list
    entry; an empty surface raises :class:`EmptySurface`. The surface is
    stripped and each inner run of whitespace becomes one space, so the
    graph, the tokenizer and :func:`ctcspot.metrics.keyword_prf` read the
    same words."""
    with open(path, "r", encoding="utf-8-sig") as fp:
        for lineno, raw in enumerate(fp, start=1):
            line = raw.rstrip("\r\n")
            text = line.lstrip()
            if not text or text[0] == "#":
                continue
            surface, tab, id_col = line.partition("\t")
            surface = " ".join(surface.split())
            if not surface:
                raise EmptySurface(f"{path}:{lineno}: empty surface")
            yield lineno, surface, id_col if tab else None


def load_bias_surfaces(path: str) -> list[str]:
    """The surfaces of a bias list, ignoring any token columns."""
    return [surface for _, surface, _ in _bias_lines(path)]


def load_bias_list(
    path: str,
    vocab: Sequence[str] | None = None,
    marker: str = DEFAULT_WORD_MARKER,
    blank_id: int | None = None,
) -> list[BiasEntry]:
    """Read a bias list: ``surface<TAB>token_id,token_id,...`` per line.

    Lines starting with ``#`` and blank lines are ignored, and so are blank
    items in a token column. Lines without a token column are tokenized
    against ``vocab``; without one, such a line raises
    :class:`~ctcspot.errors.BadTokenList`.
    """
    entries: list[BiasEntry] = []
    tokenizer = None  # built at the first line that needs it
    for lineno, surface, id_col in _bias_lines(path):
        if id_col is not None:
            # one map(int) per column; only a column where it raises, for a
            # bad item or a blank one ("3,,7", "3,7,"), which is skipped, is
            # parsed again: filtering every column's items made the bench's
            # 10k-entry set-up 5% slower
            try:
                tokens = tuple(map(int, id_col.split(",")))
            except ValueError:
                try:
                    tokens = tuple(map(int, filter(str.strip, id_col.split(","))))
                except ValueError as exc:
                    raise BadTokenList(f"{path}:{lineno}: bad token id list {id_col!r}") from exc
        else:
            if vocab is None:
                raise BadTokenList(
                    f"{path}:{lineno}: entry {surface!r} has no token ids and no vocabulary was given"
                )
            if tokenizer is None:
                tokenizer = Tokenizer(vocab, marker, () if blank_id is None else (blank_id,))
            tokens = tuple(tokenizer(surface))
        entries.append(BiasEntry(len(entries), surface, tokens))
    return entries
