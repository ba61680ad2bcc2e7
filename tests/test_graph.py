import itertools

import numpy as np
import pytest

from ctcspot import BiasEntry, build_graph, load_bias_list, load_vocab, tokenize
from ctcspot.errors import (
    DuplicateConflict,
    EmptyTokenSequence,
    TokenizationError,
    TokenOutOfRange,
)

from conftest import MARKER, child_map, random_entries


def test_empty_bias_list():
    g = build_graph([])
    assert g.num_nodes == 1
    assert g.num_terminals == 0
    assert g.max_token_id == -1


def test_shared_prefix_structure():
    g = build_graph([BiasEntry(0, "a", (1, 2)), BiasEntry(1, "b", (1, 3))])
    assert g.num_nodes == 4
    assert g.num_terminals == 2
    mid = child_map(g.table, 0)[1]
    assert set(child_map(g.table, mid)) == {2, 3}
    for entry in g.entries:
        node = 0
        for tok in entry.tokens:
            node = child_map(g.table, node)[tok]
            assert g.table.tokens[node] == tok
        assert g.table.terminals[node] == entry.keyword_id
    assert g.surfaces == {0: "a", 1: "b"}


def test_bias_list_at_production_scale():
    rng = np.random.default_rng(11)
    entries = random_entries(rng, 1107, vocab=1024, blank=1023, max_len=8)
    assert len(entries) == 1107
    g = build_graph(entries, vocab_size=1024)
    assert g.num_terminals == 1107
    assert g.num_nodes <= 1 + sum(len(e.tokens) for e in entries)


def test_duplicate_phrase_dedup_and_conflict():
    g = build_graph([BiasEntry(0, "same", (1, 2)), BiasEntry(1, "same", (1, 2))])
    assert g.num_terminals == 1
    assert len(g.entries) == 1
    with pytest.raises(DuplicateConflict):
        build_graph([BiasEntry(0, "one", (1, 2)), BiasEntry(1, "two", (1, 2))])
    with pytest.raises(DuplicateConflict):
        build_graph([BiasEntry(0, "one", (1,)), BiasEntry(0, "two", (2,))])


def test_build_validation_errors():
    with pytest.raises(EmptyTokenSequence):
        build_graph([BiasEntry(0, "x", ())])
    with pytest.raises(TokenOutOfRange):
        build_graph([BiasEntry(0, "x", (9,))], vocab_size=4)
    with pytest.raises(TokenOutOfRange):
        build_graph([BiasEntry(0, "x", (-1,))])
    with pytest.raises(TokenOutOfRange):
        build_graph([BiasEntry(0, "x", (3,))], vocab_size=8, blank_id=3)


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
            node_a = child_map(g.table, node_a)[x]
            node_b = child_map(g.table, node_b)[y]
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


def test_tokenizer_greedy_longest_match():
    vocab = [f"{MARKER}the", f"{MARKER}there", "re", "t", "h", "e", "<b>"]
    assert tokenize("there", vocab) == [1]
    assert tokenize("thethere", vocab) == [0, 3, 4, 5, 2]
    assert tokenize("the there", vocab) == [0, 1]
    with pytest.raises(TokenizationError):
        tokenize("qqq", vocab)
