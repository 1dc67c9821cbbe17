"""Surfaces the per-criterion verdict lines in the terminal summary.

File-descriptor capture swallows direct writes from passing tests, so the
acceptance module records its verdicts and this hook replays them after
capture ends.
"""

import sys


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance") or sys.modules.get(
        "tests.test_acceptance"
    )
    lines = getattr(mod, "VERDICT_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
