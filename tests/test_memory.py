"""Memory that the streaming engine keeps: only live state, so an endless
stream runs in bounded memory and an idle pipeline costs a few objects."""

import gc
import itertools
import tracemalloc

from ctcspot import (
    BiasEntry,
    CommitState,
    MergePolicy,
    SpotterConfig,
    SpotterSession,
    StreamingAligner,
    StreamingPipeline,
    build_graph,
    commit_step,
    generate,
    make_spec,
    word_script,
)

from conftest import MARKER


def _retained(fn) -> int:
    """Bytes that tracemalloc counts as still allocated after ``fn()``
    returns and a collection, above what was allocated before it."""
    gc.collect()
    before = tracemalloc.get_traced_memory()[0]
    fn()
    gc.collect()
    return tracemalloc.get_traced_memory()[0] - before


def test_spotter_aligner_and_commit_layer_keep_no_history_on_an_endless_stream():
    """Words every few frames, some of them phrases, repeated without end:
    the live state of the three layers does not grow with the stream, so
    what 3N more chunks leave behind stays within 4 KB."""
    vocab = [f"{MARKER}w{i}" for i in range(12)] + [f"x{i}" for i in range(4)] + ["<blank>"]
    blank = len(vocab) - 1
    graph = build_graph([
        BiasEntry(0, "w1x0", (1, 12)),
        BiasEntry(1, "w3 w4", (3, 4)),
        BiasEntry(2, "w5", (5,)),
        BiasEntry(3, "w7 w8", (7, 8)),  # never spoken whole
    ])
    seqs = [(0,), (1, 12), (2,), (3,), (4,), (5, 13), (6,), (7, 14)]
    lp, _ = generate(make_spec(11, len(vocab), blank, word_script(seqs, blank)))
    chunks = itertools.cycle([lp[t : t + 4] for t in range(0, len(lp), 4)])
    cfg = SpotterConfig(blank_id=blank)
    session = SpotterSession(graph, cfg)
    aligner = StreamingAligner(vocab, blank)
    state = CommitState(MergePolicy(), graph.surfaces)
    committed = 0

    def drive(n_chunks):
        nonlocal committed
        for chunk in itertools.islice(chunks, n_chunks):
            words = aligner.feed(chunk)
            res = session.process_chunk(chunk)
            committed += len(commit_step(state, res, aligner.open_word, words=words).committed_delta)

    n = 200
    tracemalloc.start()
    try:
        _retained(lambda: drive(n))
        grown = _retained(lambda: drive(3 * n))
    finally:
        tracemalloc.stop()
    assert committed > 3 * n // 4  # the stream commits words all along
    assert abs(grown) <= 4096


def test_an_idle_pipeline_does_not_copy_the_vocabulary():
    """The aligner reads the caller's 1,024 pieces in place, so an idle
    pipeline holds a few small objects, not an 8 KB list."""
    vocab = [f"{MARKER}p{i}" for i in range(1023)] + ["<blank>"]
    graph = build_graph([BiasEntry(0, "p1 p2", (1, 2))], vocab_size=len(vocab))
    cfg = SpotterConfig(blank_id=len(vocab) - 1)
    StreamingPipeline(graph, cfg, vocab=vocab)  # fills the graph's cached properties
    pipes = []
    tracemalloc.start()
    try:
        retained = _retained(lambda: pipes.append(StreamingPipeline(graph, cfg, vocab=vocab)))
    finally:
        tracemalloc.stop()
    assert pipes[0].aligner is not None
    assert retained < 3072
