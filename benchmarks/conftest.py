"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one table or figure of the paper.  The scale is
selected with the ``REPRO_SCALE`` environment variable (``ci`` by default,
``paper`` for the full-size runs) — see ``repro.experiments.runner``.

Every benchmark writes the regenerated table to ``benchmarks/results/`` so
the numbers can be re-inspected after a run.  Every table there is
deterministic and committed: a run must reproduce it byte for byte.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments import ExperimentResult, default_scale

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def scale():
    """The experiment scale shared by every benchmark in the session."""
    return default_scale()


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture()
def record_result(results_dir):
    """Write an ExperimentResult to disk and echo it to stdout."""

    def _record(result: ExperimentResult) -> ExperimentResult:
        text = result.to_text()
        (results_dir / f"{result.name}.txt").write_text(text + "\n")
        print("\n" + text)
        return result

    return _record
