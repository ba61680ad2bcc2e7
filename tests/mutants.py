"""The mutant table for the exact shortcuts, and the runner that checks it.

Each row names a file, a source text that occurs exactly once in it, the
text that replaces it, and the one test that must fail once it is
replaced. A row with a ``reason`` is an equivalent mutant: no input can
tell it from the code, the reason says why, and it is not run.

Run from the repository root::

    python tests/mutants.py

The runner copies ``src/``, ``tests/`` and ``pyproject.toml`` into a
temporary directory, never touching the working tree. It first runs each
named test on the unchanged copy, where each must pass, then makes each
row's replacement in the copy and runs only that row's test, restoring the
file after it. It exits 1 unless every test passed on the unchanged copy
and failed on its mutant. ``tests/test_mutants.py`` checks in tier-1 that
each row's source text still occurs exactly once, so a refactor cannot
leave the table stale.
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
]


def _pytest(copy: Path, test: str) -> int:
    env = {**os.environ, "PYTHONPATH": str(copy / "src")}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", test]
    return subprocess.run(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL).returncode


def run(mutants: list[Mutant]) -> bool:
    """True when every test passes unchanged and fails on its mutant."""
    live = [m for m in mutants if m.reason is None]
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
                ok = False
                continue
            target.write_text(text.replace(m.source, m.replacement), encoding="utf-8")
            try:
                code = _pytest(copy, m.test)  # exit 1: the test ran and failed
            finally:
                target.write_text(text, encoding="utf-8")
            print(f"{'killed' if code == 1 else 'SURVIVED'} (exit {code}): {m.path}: {m.replacement!r}")
            ok &= code == 1
    for m in mutants:
        if m.reason is not None:
            print(f"equivalent, not run: {m.path}: {m.replacement!r}: {m.reason}")
    return ok


if __name__ == "__main__":
    sys.exit(0 if run(MUTANTS) else 1)
