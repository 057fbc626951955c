"""Shared fixtures: one `scatcomp verify all` run for the whole session.

The acceptance gate and the grouped-run test read their default-scale
reports from `verify_all`, so every suite runs at its default scale once.
`pytest --durations` charges that run to whichever test asks for it first;
the terminal summary lists each checker's `elapsed` from it instead, one
line per `_SUITES` record with its suite names together, and the session's
peak RSS in its header.
"""

import resource
import time

import pytest

from scatcomp.verify import _SUITES, available_suites, run_suites

_RUN: dict = {}  # "reports" and "wall_s" once the shared run has happened


@pytest.fixture(scope="session")
def verify_all():
    """The reports of `scatcomp verify all`: every suite at its default scale."""
    t0 = time.perf_counter()
    reports = run_suites(available_suites())
    _RUN["wall_s"] = time.perf_counter() - t0
    _RUN["reports"] = reports
    return {r.name: r for r in reports}


def pytest_terminal_summary(terminalreporter):
    if not _RUN:
        return
    tr = terminalreporter
    # ru_maxrss is in KiB on Linux: the peak of the whole session, not of this run
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tr.section(f"verify all: {_RUN['wall_s']:.1f} s, per-checker elapsed; session peak RSS {peak_mb:.1f} MB")
    tr.write_line("(each per-word table, the census or the pair table, is charged to the")
    tr.write_line(" first checker that reads it)")
    checkers: dict[tuple, list] = {}
    for r in _RUN["reports"]:
        checkers.setdefault(_SUITES[r.name].names, []).append(r)
    for reps in sorted(checkers.values(), key=lambda reps: -reps[0].elapsed):
        names = ", ".join(r.name for r in reps)
        checked = ", ".join(str(r.checked) for r in reps)
        tr.write_line(f"{reps[0].elapsed:8.2f} s  {names}  checked={checked}")
