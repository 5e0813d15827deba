"""Acceptance suite: every shipped verification criterion must pass at its
stated tolerance.  One line per criterion is printed; run with -s (or read
the captured output) for the pass/fail table."""

import pytest

from monosde.acceptance import _CRITERIA


@pytest.mark.parametrize("number", sorted(_CRITERIA))
def test_criterion(number):
    result = _CRITERIA[number]()
    line = (
        f"[{result.number:>2}] {result.name}: "
        f"{'PASS' if result.passed else 'FAIL'}  {result.detail}"
    )
    print(line)
    assert result.passed, line
    # verify_values.csv writes these at full precision
    assert all(isinstance(v, float) for v in result.values.values())
