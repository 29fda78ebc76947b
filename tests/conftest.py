"""Shared test configuration.

Registers a deterministic hypothesis profile, starts every test on a cold
catalog, offers a ten-second time limit and a record of the kernel's runs,
and keeps an acceptance-line recorder: the acceptance tests each record one
PASS/FAIL line, and all recorded lines are printed in a dedicated block at
the end of the pytest run.
"""
from __future__ import annotations

import signal
from typing import NamedTuple, Sequence

import pytest
from hypothesis import HealthCheck, settings

from finalg import catalog, closure

settings.register_profile(
    "deterministic",
    derandomize=True,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("deterministic")

_ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(autouse=True)
def cold_catalog():
    """Clear the cache of every catalog builder, so each test builds its own
    entries, whose algebras hold no relation an earlier test computed: a
    test runs the same kernel paths whatever ran before it."""
    for builder in vars(catalog).values():
        if hasattr(builder, "cache_clear"):
            builder.cache_clear()


@pytest.fixture
def ten_seconds():
    """Fail the test with TimeoutError if it is still running after ten
    seconds of wall-clock time (a SIGALRM timer; tests run in the main thread)."""

    def expire(signum, frame):
        raise TimeoutError("still running after 10 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 10)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


class KernelRun(NamedTuple):
    """One run of the relation-closure kernel: the `base` it grew from,
    whether it ended at one of the kept relations it was given, and how
    many folds (`closure._fold` calls) it made."""

    base: Sequence[int]
    stopped: bool
    folds: int


@pytest.fixture
def kernel_runs(monkeypatch):
    """Every run of the relation-closure kernel (`closure._close`) during
    the test, in call order, as a `KernelRun`. Each kept relation it was
    given is the last field of its entry."""
    runs, folds = [], 0
    close, fold = closure._close, closure._fold

    def counted(*args):
        nonlocal folds
        folds += 1
        fold(*args)

    def spy(closures, rows, base, known):
        before = folds
        got = close(closures, rows, base, known)
        runs.append(KernelRun(base, any(got is entry[-1] for entry in known), folds - before))
        return got

    monkeypatch.setattr(closure, "_fold", counted)
    monkeypatch.setattr(closure, "_close", spy)
    return runs


@pytest.fixture
def acceptance():
    """Record one acceptance line; returns the verdict so callers can assert it."""

    def record(name: str, ok: bool, detail: str) -> bool:
        line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
        _ACCEPTANCE_LINES.append(line)
        print(line)
        return ok

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
