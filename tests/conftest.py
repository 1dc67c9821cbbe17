"""Surfaces the per-criterion verdict lines in the terminal summary.

File-descriptor capture swallows direct writes from passing tests, so the
acceptance module records its verdicts and this hook replays them after
capture ends. Each test also starts with an empty pair-classifier fit
cache, so that its fits train whichever tests ran before it.
"""

import sys

import pytest

from domainsel import downstream


@pytest.fixture(autouse=True)
def empty_fit_cache():
    downstream._fits.clear()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance") or sys.modules.get(
        "tests.test_acceptance"
    )
    lines = getattr(mod, "VERDICT_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
