"""Surfaces recorded lines in the terminal summary.

File-descriptor capture swallows direct writes from passing tests, so the
acceptance module records its per-criterion verdicts, and the digest module
the worlds whose cross-commit check it skipped; this hook replays both after
capture ends.
"""

import sys

SECTIONS = (
    ("test_acceptance", "VERDICT_LINES", "acceptance criteria"),
    ("test_digests", "SKIPPED_LINES", "byte identity across commits"),
)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    for module, attr, title in SECTIONS:
        mod = sys.modules.get(module) or sys.modules.get(f"tests.{module}")
        lines = getattr(mod, attr, None) if mod else None
        if lines:
            terminalreporter.section(title)
            for line in lines:
                terminalreporter.write_line(line)
