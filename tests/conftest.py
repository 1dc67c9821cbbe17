"""Surfaces recorded lines in the terminal summary, and reads a trigram
model's counts from its saved count file.

File-descriptor capture swallows direct writes from passing tests, so the
acceptance module records its per-criterion verdicts, and the digest module
the worlds whose cross-commit check it skipped; this hook replays both after
capture ends.
"""

import sys

import pytest

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


@pytest.fixture
def saved_counts(tmp_path):
    """`saved_counts(lm)`: the bigram and trigram counts of a `TrigramLM` as
    its count file, the model's only serialized form, states them, as
    {(v, w): count} and {(u, v, w): count}."""
    def counts(lm):
        path = tmp_path / "saved_counts.txt"
        lm.save(path)
        grams = {"2": {}, "3": {}}
        for line in path.read_text(encoding="utf-8").splitlines()[1:]:
            kind, *fields = line.split(" ")
            if kind in grams:
                grams[kind][tuple(fields[:-1])] = int(fields[-1])
        return grams["2"], grams["3"]
    return counts
