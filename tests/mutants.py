"""The mutant table for the exact shortcuts, and the runner that checks it.

Each row names a file, a source text that occurs exactly once in it, the
text that replaces it, and the one test that must fail once it is
replaced. A row with a ``reason`` is an equivalent mutant: no input can
tell it from the code, the reason says why, and it is not run.

Run from the repository root::

    python tests/mutants.py                   # every row
    python tests/mutants.py merge.py "> cut"  # only the rows whose path or
                                              # replacement holds an argument

The runner copies ``src/``, ``tests/`` and ``pyproject.toml`` into a
temporary directory, never touching the working tree. It first runs each
named test on the unchanged copy, where each must pass, then makes each
row's replacement in the copy and runs only that row's test (a node id,
which may name one case of a parametrized test), restoring the file after
it. It ends with one tally line (killed, equivalent, survived, stale) and
exits 1 unless every test passed on the unchanged copy and failed on its
mutant. ``tests/test_mutants.py`` checks in tier-1 that each row's source
text still occurs exactly once, so a refactor cannot leave the table
stale.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    path: str  # relative to the repository root
    source: str
    replacement: str
    test: str | None  # pytest node id of the test that must fail
    reason: str | None = None  # why the mutant is equivalent; None: run it


# The three expansion tie lines are the same text, so a source starts on the
# line before its tie clause, which then occurs once.
_TIE = " or (s == prev[0] and start < prev[1]):"
_BLANK = "k = key | 1\n" + " " * 16 + "prev = nxt.get(k)\n" + " " * 16 + "if prev is None or s > prev[0]"
_REPEAT = "prev = nxt.get(key)\n" + " " * 20 + "if prev is None or s > prev[0]"
_CHILD = "k = child << 1\n" + " " * 24 + "prev = nxt.get(k)\n" + " " * 24 + "if prev is None or s > prev[0]"

MUTANTS = [
    Mutant(
        "src/ctcspot/spotter.py",
        "beaten > 0 and beaten > _bound(",
        "beaten > 0 and beaten >= _bound(",
        "tests/test_dominance.py::"
        "test_frontier_waits_for_a_hypothesis_whose_bound_ties_the_candidate_it_would_pass",
    ),
    Mutant(
        "src/ctcspot/spotter.py",
        "while f >= 0 and r < ranks[f]:",
        "while f >= 0 and r <= ranks[f]:",
        None,
        reason="distinct candidates never share a rank (_rank's docstring), so the"
        " walk never meets an equal entry",
    ),
    Mutant(
        "src/ctcspot/spotter.py",
        "-(score / (t - start + 1)) > ranks[f][0]",
        "-(score / (t - start + 1)) >= ranks[f][0]",
        "tests/test_dominance.py::"
        "test_filtered_candidates_are_the_undominated_ones_and_keep_the_same",
    ),
    Mutant(
        "src/ctcspot/spotter.py",
        "held_scores + stay[offset].take(held) >= cut",
        "held_scores + stay[offset].take(held) > cut",
        "tests/test_spotter.py::"
        "test_held_entries_are_let_in_exactly_as_the_full_search_keeps_them",
    ),
    Mutant(
        "src/ctcspot/spotter.py",
        "held_scores + step[offset].take(held) + cb >= cut",
        "held_scores + step[offset].take(held) + cb > cut",
        "tests/test_spotter.py::"
        "test_held_entries_are_let_in_exactly_as_the_full_search_keeps_them",
    ),
    Mutant(
        "src/ctcspot/spotter.py",
        "top = max(top, held_top)",
        "top = top",
        "tests/test_spotter.py::"
        "test_held_entries_are_let_in_exactly_as_the_full_search_keeps_them",
    ),
    # The tie rules of recombination (_TIE after each of _BLANK, _REPEAT and
    # _CHILD, and in the prune loop's at_terminal update).
    Mutant("src/ctcspot/spotter.py", _BLANK + _TIE, _BLANK + ":",
           "tests/test_spotter.py::test_candidate_and_state_order_is_pinned"),
    Mutant("src/ctcspot/spotter.py", _BLANK + _TIE, _BLANK + _TIE.replace("<", "<="), None,
           reason="an equal score with an equal start writes the value already there;"
           " the same holds for the repeat, child and at_terminal tie clauses"),
    Mutant("src/ctcspot/spotter.py", _REPEAT + _TIE, _REPEAT + ":",
           "tests/test_spotter.py::test_exact_admission_matches_full_admission"),
    Mutant("src/ctcspot/spotter.py", _CHILD + _TIE, _CHILD + ":",
           "tests/test_spotter.py::test_candidate_and_state_order_is_pinned"),
    Mutant("src/ctcspot/spotter.py", _CHILD + _TIE, _CHILD + _TIE.replace("<", ">"),
           "tests/test_spotter.py::test_candidate_and_state_order_is_pinned"),
    Mutant(
        "src/ctcspot/spotter.py",
        "if prev is None or score > prev[0] or (score == prev[0] and start < prev[1]):",
        "if prev is None or score > prev[0]:",
        "tests/test_spotter.py::test_candidate_and_state_order_is_pinned",
    ),
    Mutant(
        "src/ctcspot/spotter.py",
        "if prev is None or score > prev[0] or (score == prev[0] and start < prev[1]):",
        "if prev is None or score > prev[0] or (score == prev[0] and start > prev[1]):",
        "tests/test_spotter.py::test_candidate_and_state_order_is_pinned",
    ),
    # The tie rules of fresh entry: a live entry below the floor is pruned only
    # under a strictly better fresh one, which replaces a filled slot only
    # when strictly better.
    Mutant(
        "src/ctcspot/spotter.py",
        "if j is not None and fresh[j] > score:",
        "if j is not None and fresh[j] >= score:",
        "tests/test_spotter.py::test_candidate_and_state_order_is_pinned",
    ),
    Mutant(
        "src/ctcspot/spotter.py",
        "if s > nxt[k][0]:",
        "if s >= nxt[k][0]:",
        "tests/test_spotter.py::test_exact_admission_matches_full_admission",
    ),
    # The held terminals of a ranked search: the in-place rule on a node already
    # at a terminal, the tie on keyword id, and the rank walk they go through.
    Mutant(
        "src/ctcspot/spotter.py",
        "if s > at_terminal[node][0]:",
        "if s < at_terminal[node][0]:",
        "tests/test_spotter.py::"
        "test_held_entries_are_let_in_exactly_as_the_full_search_keeps_them"
        "[held above its blank loop]",
    ),
    Mutant(
        "src/ctcspot/spotter.py",
        "if s > at_terminal[node][0]:",
        "if s >= at_terminal[node][0]:",
        "tests/test_spotter.py::"
        "test_held_entries_are_let_in_exactly_as_the_full_search_keeps_them"
        "[held at its blank loop]",
    ),
    Mutant(
        "src/ctcspot/spotter.py",
        "rest[cols.searchsorted(j)] = False",
        "pass",
        "tests/test_spotter.py::"
        "test_held_entries_are_let_in_exactly_as_the_full_search_keeps_them"
        "[held at its blank loop]",
    ),
    Mutant(
        "src/ctcspot/spotter.py",
        "node = min(root_nodes[cols[scores == s]].tolist(), key=terminals.__getitem__)",
        "node = root_nodes[cols[scores.argmax()]]",
        "tests/test_spotter.py::"
        "test_held_entries_are_let_in_exactly_as_the_full_search_keeps_them"
        "[held tie on score]",
    ),
    Mutant(
        "src/ctcspot/spotter.py",
        "at_terminal[node] = (float(s), t)",
        "out.append(SpottedCandidate(terminals[node], t, t, float(s)))",
        "tests/test_spotter.py::"
        "test_held_entries_are_let_in_exactly_as_the_full_search_keeps_them"
        "[recombined beats held]",
    ),
    Mutant(
        "src/ctcspot/spotter.py",
        "for cols, toks in more:",
        "for cols, toks in more[:1]:",
        "tests/test_streaming.py::test_holding_fresh_entries_changes_no_output_on_noise",
    ),
    Mutant(
        "src/ctcspot/spotter.py",
        "age > max_age or score < min_pfs * age",
        "age >= max_age or score < min_pfs * age",
        "tests/test_spotter.py::test_exact_admission_matches_full_admission",
    ),
    Mutant(
        "src/ctcspot/spotter.py",
        "for k in range(1, height + 1):",
        "for k in range(1, height):",
        "tests/test_dominance.py::"
        "test_tightened_frontier_never_trails_the_earliest_live_start_nor_regresses",
    ),
    Mutant(
        "src/ctcspot/spotter.py",
        "if e >= hold_line:",
        "if e > hold_line:",
        "tests/test_dominance.py::"
        "test_tightened_frontier_never_trails_the_earliest_live_start_nor_regresses",
    ),
    Mutant(
        "src/ctcspot/spotter.py",
        "if j >= 0 and k_end[j] >= s:",
        "if j >= 0 and k_end[j] > s:",
        "tests/test_dominance.py::"
        "test_filtered_candidates_are_the_undominated_ones_and_keep_the_same",
    ),
    Mutant(
        "src/ctcspot/merge.py",
        "if start < cut <= end:",
        "if start < cut < end:",
        "tests/test_merge.py::test_multiword_replacement_end_to_end",
    ),
    Mutant(
        "src/ctcspot/merge.py",
        "cut = min(cut, open_word.start_frame)",
        "cut = min(cut, open_word.end_frame)",
        "tests/test_merge.py::test_commit_step_waits_for_held_candidates_and_open_word",
    ),
]


def _pytest(copy: Path, test: str) -> int:
    # no bytecode cache: a mutant of the same size as the text it replaces,
    # written within the second of the last compile, would run stale bytecode
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", test]
    return subprocess.run(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL).returncode


def pick(mutants: list[Mutant], patterns: list[str]) -> list[Mutant]:
    """The rows whose path or replacement holds one of ``patterns``; every
    row when there are none."""
    if not patterns:
        return mutants
    return [m for m in mutants if any(p in m.path or p in m.replacement for p in patterns)]


def run(mutants: list[Mutant]) -> bool:
    """True when every test passes unchanged and fails on its mutant."""
    live = [m for m in mutants if m.reason is None]
    tally = dict.fromkeys(("killed", "equivalent", "survived", "stale"), 0)
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", copy / "tests", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        for test in dict.fromkeys(m.test for m in live):
            code = _pytest(copy, test)
            print(f"{'pass' if code == 0 else 'FAIL'} unchanged: {test} (exit {code})")
            ok &= code == 0
        for m in live:
            target = copy / m.path
            text = target.read_text(encoding="utf-8")
            if text.count(m.source) != 1:
                print(f"STALE {m.path}: {m.source!r} does not occur exactly once")
                tally["stale"] += 1
                continue
            target.write_text(text.replace(m.source, m.replacement), encoding="utf-8")
            try:
                code = _pytest(copy, m.test)  # exit 1: the test ran and failed
            finally:
                target.write_text(text, encoding="utf-8")
            print(f"{'killed' if code == 1 else 'SURVIVED'} (exit {code}): {m.path}: {m.replacement!r}")
            tally["killed" if code == 1 else "survived"] += 1
    for m in mutants:
        if m.reason is not None:
            print(f"equivalent, not run: {m.path}: {m.replacement!r}: {m.reason}")
            tally["equivalent"] += 1
    print(", ".join(f"{name} {n}" for name, n in tally.items()))
    return ok and not (tally["survived"] or tally["stale"])


if __name__ == "__main__":
    sys.exit(0 if run(pick(MUTANTS, sys.argv[1:])) else 1)
