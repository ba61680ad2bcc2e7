"""The mutant table stays in step with the code it mutates."""

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("m", MUTANTS, ids=[m.replacement for m in MUTANTS])
def test_each_row_names_a_source_text_found_exactly_once_and_a_test_that_exists(m):
    assert (ROOT / m.path).read_text(encoding="utf-8").count(m.source) == 1
    assert m.replacement != m.source
    assert (m.test is None) != (m.reason is None)
    if m.test is not None:
        path, name = m.test.split("::")
        name = name.split("[")[0]  # a parametrized test's id names one case
        assert f"def {name}(" in (ROOT / path).read_text(encoding="utf-8")
