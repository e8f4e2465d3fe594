"""Shared pytest plumbing.

After any run that executed acceptance tests, print one PASS/FAIL line
per criterion in a dedicated summary section, with the details each test
chose to record (slopes, counterexample lists, elapsed times).
"""

from __future__ import annotations

import re

import pytest

_CRITERION_RE = re.compile(r"test_criterion_(\d+)_(\w+)")

_results: dict[int, tuple[str, str]] = {}
_notes: dict[int, str] = {}


@pytest.fixture
def acceptance_note(request):
    """Callable recording a detail string for this criterion's verdict line."""
    match = _CRITERION_RE.search(request.node.name)
    assert match, "acceptance_note is only for test_criterion_N_* tests"
    number = int(match.group(1))

    def note(text: str) -> None:
        _notes[number] = text

    return note


@pytest.fixture
def pool_sizes(monkeypatch):
    """The max_workers of every process pool opened, with no process started.

    Replaces ``concurrent.futures.ProcessPoolExecutor``, which
    ``sampler._pooled`` imports only when it starts a pool, by a class that
    records its size and runs the calls in this process.  The usable CPU
    count is pinned at 64, so recorded sizes do not depend on the host; a
    test that checks the CPU cap patches ``sampler._usable_cpus`` again.
    """
    from permorder import sampler

    sizes: list[int] = []

    class RecordingExecutor:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(sampler, "_usable_cpus", lambda: 64)
    return sizes


def pytest_runtest_logreport(report):
    match = _CRITERION_RE.search(report.nodeid)
    if not match:
        return
    number, label = int(match.group(1)), match.group(2).replace("_", " ")
    if report.when == "call":
        _results[number] = (label, report.outcome)
    elif report.when == "setup" and report.outcome != "passed":
        _results[number] = (label, "error")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _results:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_results):
        label, outcome = _results[number]
        verdict = "PASS" if outcome == "passed" else "FAIL"
        suffix = f" — {_notes[number]}" if number in _notes else ""
        terminalreporter.write_line(
            f"criterion {number} ({label}): {verdict}{suffix}"
        )
