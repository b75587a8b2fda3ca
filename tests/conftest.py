"""Shared test scaffolding: the acceptance-report summary section and
the bitwise comparison of the kernel oracle tests."""

import numpy as np

ACCEPTANCE_LINES = []


def assert_same_bits(got, want, exact):
    """Equal bits when ``exact`` (so -0.0 differs from 0.0), else within
    2 ulp."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    if exact:
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        return
    same = (got == want) | (np.isnan(got) & np.isnan(want))
    with np.errstate(invalid="ignore"):
        close = np.abs(got - want) <= 2 * np.spacing(
            np.maximum(np.abs(got), np.abs(want)))
    assert np.all(same | close)


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
