import itertools
import sys

import numpy as np
import pytest

from ctcspot import (
    BiasEntry,
    SpotterConfig,
    Tokenizer,
    build_graph,
    keyword_prf,
    load_bias_list,
    load_vocab,
)
from ctcspot.errors import (
    BadTokenList,
    DuplicateConflict,
    EmptySurface,
    EmptyTokenSequence,
    TokenizationError,
    TokenOutOfRange,
)
from ctcspot.graph import load_bias_surfaces
from ctcspot.spotter import check_graph

from conftest import MARKER, child_map, random_entries


def test_empty_bias_list():
    g = build_graph([])
    assert g.num_nodes == 1
    assert sum(k >= 0 for k in g.terminals) == 0
    assert g.max_token_id == -1


def test_shared_prefix_structure():
    entries = [BiasEntry(0, "a", (1, 2)), BiasEntry(1, "b", (1, 3))]
    g = build_graph(entries)
    assert g.num_nodes == 4
    assert sum(k >= 0 for k in g.terminals) == 2
    mid = child_map(g, 0)[1]
    assert set(child_map(g, mid)) == {2, 3}
    for entry in entries:
        node = 0
        for tok in entry.tokens:
            node = child_map(g, node)[tok]
            assert g.tokens[node] == tok
        assert g.terminals[node] == entry.keyword_id
    assert g.surfaces == {0: "a", 1: "b"}


def test_bias_list_at_production_scale():
    rng = np.random.default_rng(11)
    entries = random_entries(rng, 1107, vocab=1024, blank=1023, max_len=8)
    assert len(entries) == 1107
    g = build_graph(entries, vocab_size=1024)
    assert sum(k >= 0 for k in g.terminals) == 1107
    assert g.num_nodes <= 1 + sum(len(e.tokens) for e in entries)


def test_duplicate_phrase_dedup_and_conflict():
    g = build_graph([BiasEntry(0, "same", (1, 2)), BiasEntry(1, "same", (1, 2))])
    assert sum(k >= 0 for k in g.terminals) == 1
    assert g.surfaces == {0: "same"}
    with pytest.raises(DuplicateConflict):
        build_graph([BiasEntry(0, "one", (1, 2)), BiasEntry(1, "two", (1, 2))])
    with pytest.raises(DuplicateConflict):
        build_graph([BiasEntry(0, "one", (1,)), BiasEntry(0, "two", (2,))])


def test_build_validation_errors():
    with pytest.raises(EmptyTokenSequence):
        build_graph([BiasEntry(0, "x", ())])
    with pytest.raises(EmptySurface):
        build_graph([BiasEntry(0, "", (1,))])
    with pytest.raises(TokenOutOfRange):
        build_graph([BiasEntry(0, "x", (9,))], vocab_size=4)
    with pytest.raises(TokenOutOfRange):
        build_graph([BiasEntry(0, "x", (-1,))])
    graph = build_graph([BiasEntry(0, "x", (3,))], vocab_size=8)
    with pytest.raises(TokenOutOfRange):  # the blank inside a phrase is check_graph's rule
        check_graph(graph, 8, SpotterConfig(blank_id=3))
    with pytest.raises(ValueError, match="keyword id -1"):  # -1 marks "no keyword"
        build_graph([BiasEntry(-1, "x", (1,))])


def test_prefix_sharing_matches_longest_common_prefix():
    rng = np.random.default_rng(5)
    entries = random_entries(rng, 24, vocab=5, blank=4, max_len=4)
    g = build_graph(entries)
    for a, b in itertools.combinations(entries, 2):
        lcp = 0
        for x, y in zip(a.tokens, b.tokens):
            if x != y:
                break
            lcp += 1
        node_a, node_b, shared = 0, 0, 0
        for x, y in zip(a.tokens, b.tokens):
            node_a = child_map(g, node_a)[x]
            node_b = child_map(g, node_b)[y]
            if node_a == node_b:
                shared += 1
            else:
                break
        assert shared == lcp


def test_bias_file_round_trip(tmp_path):
    path = tmp_path / "bias.tsv"
    path.write_text(
        "# comment line\n"
        "justin bieber\t1,2,3\n"
        "\n"
        "halsey\t4\n",
        encoding="utf-8",
    )
    entries = load_bias_list(str(path))
    assert [e.surface for e in entries] == ["justin bieber", "halsey"]
    assert entries[0].tokens == (1, 2, 3)
    assert entries[1].keyword_id == 1


def test_bias_file_tokenized_via_vocab(tmp_path):
    vocab_path = tmp_path / "vocab.txt"
    vocab_path.write_text(f"{MARKER}hal\nsey\n{MARKER}x\n<blank>\n", encoding="utf-8")
    vocab = load_vocab(str(vocab_path))
    bias_path = tmp_path / "bias.txt"
    bias_path.write_text("halsey\n", encoding="utf-8")
    entries = load_bias_list(str(bias_path), vocab=vocab, blank_id=3)
    assert entries[0].tokens == (0, 1)


class _CountingVocab(list):
    """A vocabulary that counts the passes made over it."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def test_surface_only_bias_list_loads_as_tokenize_reads_each_line(tmp_path):
    rng = np.random.default_rng(23)
    letters = "abcdefghij"
    multi = {"".join(rng.choice(list(letters), size=int(rng.integers(2, 4)))) for _ in range(40)}
    pieces = [MARKER, *letters, *sorted(multi), *(MARKER + p for p in sorted(multi)[:15])]
    # the blank holds a piece no other token has, so skipping it matters
    plain = [*pieces, "abcabc"]
    blank = len(plain) - 1
    surfaces = [
        " ".join(
            "".join(rng.choice(list(letters), size=int(rng.integers(1, 8))))
            for _ in range(int(rng.integers(1, 4)))
        )
        for _ in range(200)
    ]
    surfaces.append("abcabc abcabc")
    path = tmp_path / "bias.txt"
    path.write_text("".join(f"{s}\n" for s in surfaces), encoding="utf-8")
    vocab = _CountingVocab(plain)
    entries = load_bias_list(str(path), vocab=vocab, blank_id=blank)
    tokenize = Tokenizer(plain, MARKER, {blank})
    expected = [BiasEntry(i, s, tuple(tokenize(s))) for i, s in enumerate(surfaces)]
    assert entries == expected
    assert all(blank not in e.tokens for e in entries)
    assert vocab.passes == 1  # one piece table per list, not one per line


def test_tokenizer_greedy_longest_match():
    tokenize = Tokenizer([f"{MARKER}the", f"{MARKER}there", "re", "t", "h", "e", "<b>"])
    assert tokenize("there") == [1]
    assert tokenize("thethere") == [0, 3, 4, 5, 2]
    assert tokenize("the there") == [0, 1]
    with pytest.raises(TokenizationError):
        tokenize("qqq")
    with pytest.raises(TokenizationError, match="no usable pieces"):
        Tokenizer(["", "<b>"], skip_ids={1})  # empty pieces and skipped ids match nothing


def test_whitespace_runs_in_a_surface_are_one_word_boundary(tmp_path):
    """A run of whitespace between words is one word boundary: the
    tokenizer maps it to one marker, and a bias list keeps the surface with
    one space there, as the graph, the surfaces and keyword_prf all read
    it."""
    tokenize = Tokenizer([f"{MARKER}play", f"{MARKER}now", "<b>"], skip_ids={2})
    assert tokenize("play  now") == tokenize(" play \t now ") == [0, 1]
    vocab = [f"{MARKER}play", f"{MARKER}now", MARKER, "<b>"]
    assert Tokenizer(vocab, MARKER, {3})("play   now") == [0, 1]  # no lone marker token
    path = tmp_path / "bias.txt"
    path.write_text("  play   now \nplay  later\t0,2\n", encoding="utf-8")
    entries = load_bias_list(str(path), vocab=vocab, blank_id=3)
    assert entries == [BiasEntry(0, "play now", (0, 1)), BiasEntry(1, "play later", (0, 2))]
    surfaces = load_bias_surfaces(str(path))
    assert list(build_graph(entries).surfaces.values()) == surfaces
    report = keyword_prf(["play now"], ["play  now"], surfaces)
    assert list(report.per_keyword) == ["play later", "play now"]
    assert report.per_keyword["play now"].hits == 1


def test_one_tokenizer_matches_tokenize_word_by_word():
    rng = np.random.default_rng(29)
    letters = "abcdefgh"
    pieces = [MARKER, *letters, "ab", "bca", f"{MARKER}ab", f"{MARKER}hgf", "ghab"]
    vocab = _CountingVocab([*pieces, "<blank>"])
    blank = len(vocab) - 1
    words = [
        "".join(rng.choice(list(letters), size=int(rng.integers(1, 9)))) for _ in range(300)
    ]
    tokenizer = Tokenizer(vocab, MARKER, {blank})
    assert vocab.passes == 1
    fresh = [Tokenizer(vocab, MARKER, {blank})(w) for w in words]
    assert [tokenizer(w) for w in words] == fresh
    assert vocab.passes == 1 + len(words)  # each fresh Tokenizer makes one pass


def _deepest_terminal_below(graph, node) -> int:
    """Tokens from ``node`` down to its deepest terminal (itself included),
    by a walk over the sibling chains."""
    deepest = 0 if graph.terminals[node] >= 0 else -1
    child = graph.first_child[node]
    while child >= 0:
        below = _deepest_terminal_below(graph, child)
        if below >= 0:
            deepest = max(deepest, below + 1)
        child = graph.next_sibling[child]
    return deepest


def test_heights_are_the_depth_of_the_deepest_terminal_below_each_node():
    rng = np.random.default_rng(31)
    for _ in range(40):
        entries = random_entries(rng, int(rng.integers(1, 40)), vocab=5, blank=4, max_len=6)
        graph = build_graph(entries)
        expected = [_deepest_terminal_below(graph, n) for n in range(graph.num_nodes)]
        assert graph.heights == expected
        assert min(expected) >= 0  # every node lies on a phrase, so has a terminal below
    assert build_graph([]).heights == [0]


def _reference_token_column(id_col: str) -> tuple[int, ...]:
    """The one-expression parse of a token column that ``load_bias_list``
    must keep reproducing: blank items skipped, every other one ``int``."""
    return tuple(int(x) for x in id_col.split(",") if x.strip())


@pytest.mark.parametrize(
    "id_col", ["3,7", " 3 , 7 ", "3,,7", "3,7,", ",3", " , ", "3,x", "3 7", "+3", "1_0"]
)
def test_token_column_parses_as_the_reference_expression(tmp_path, id_col):
    path = tmp_path / "bias.tsv"
    path.write_text(f"ok\t1\nkw\t{id_col}\n", encoding="utf-8")
    try:
        expected = _reference_token_column(id_col)
    except ValueError:
        with pytest.raises(BadTokenList) as excinfo:
            load_bias_list(str(path))
        assert str(excinfo.value) == f"{path}:2: bad token id list {id_col!r}"
    else:
        assert load_bias_list(str(path))[1] == BiasEntry(1, "kw", expected)


@pytest.mark.parametrize("bad,vocab_size,rule", [
    ((1, 2, 9, 10), 8, "token 9 outside vocabulary of size 8"),
    ((1, 2, -2, -3), 8, "token -2 is negative"),
    ((1, 2, -2, 9), None, "token -2 is negative"),
    ((1, 2, 2**64, 2**65), None, f"token {2**64} too large to index"),
])
def test_range_error_mid_walk_names_the_first_bad_token(bad, vocab_size, rule):
    """The range is checked during the trie walk: a bad token after a shared
    prefix raises at the first bad token, before any later entry is read."""
    kept = [BiasEntry(0, "a", (1, 2, 3)), BiasEntry(1, "b", (1, 4)), BiasEntry(3, "c", (5,))]
    read = []

    def entries():
        for entry in [*kept[:2], BiasEntry(2, "bad", bad), kept[2]]:
            read.append(entry.surface)
            yield entry

    with pytest.raises(TokenOutOfRange) as excinfo:
        build_graph(entries(), vocab_size)
    assert str(excinfo.value) == f"entry 'bad': {rule}"
    assert read == ["a", "b", "bad"]


def test_token_too_large_to_index_is_out_of_range():
    """Without a vocabulary the limit is the largest array index, which the
    root tokens' index array must hold."""
    with pytest.raises(TokenOutOfRange, match="too large to index"):
        build_graph([BiasEntry(0, "kw", (2**64,))])
    with pytest.raises(TokenOutOfRange, match="too large to index"):
        build_graph([BiasEntry(0, "kw", (1, sys.maxsize + 1))], vocab_size=2**70)
    graph = build_graph([BiasEntry(0, "kw", (sys.maxsize,))])
    assert graph.root_tok.tolist() == [sys.maxsize]


def test_byte_order_mark_is_not_read_as_text(tmp_path):
    """A UTF-8 byte-order mark before the first line of a bias list or a
    vocabulary is not part of the first comment, surface or piece."""
    for first in ("# my list\n", ""):
        text = f"{first}kw0\t1,2\nkw1\t3\n"
        plain, marked = tmp_path / "plain.tsv", tmp_path / "marked.tsv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text("\ufeff" + text, encoding="utf-8")
        assert load_bias_list(str(marked)) == load_bias_list(str(plain))
        assert load_bias_surfaces(str(marked)) == ["kw0", "kw1"]
    vocab = [f"{MARKER}hal", "sey", "<blank>"]
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text("".join(f"{v}\n" for v in vocab), encoding="utf-8")
    marked.write_text("\ufeff" + "".join(f"{v}\n" for v in vocab), encoding="utf-8")
    assert load_vocab(str(marked)) == load_vocab(str(plain)) == vocab
