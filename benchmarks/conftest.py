"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one table or figure of the paper.  The scale is
selected with the ``REPRO_SCALE`` environment variable (``ci`` by default,
``paper`` for the full-size runs) — see ``repro.experiments.runner``.

Every benchmark writes the regenerated table to ``benchmarks/results/`` so
the numbers referenced by EXPERIMENTS.md can be re-inspected after a run.
The deterministic tables there are committed (a run must reproduce them byte
for byte); the wall-clock tables change with every run and machine, so they
go to the git-ignored ``benchmarks/results/wallclock/`` instead.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments import ExperimentResult, default_scale

RESULTS_DIR = Path(__file__).parent / "results"

#: Tables whose cells are wall-clock measurements.
WALLCLOCK_TABLES = frozenset(
    {
        "compiled_forward",
        "parallel_serving",
        "serving_throughput",
        "overload_tail_latency",
        "threshold_sweep_fastpath",
        "fig8_telemetry_record_batch",
    }
)


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
        directory = results_dir / "wallclock" if result.name in WALLCLOCK_TABLES else results_dir
        directory.mkdir(exist_ok=True)
        (directory / f"{result.name}.txt").write_text(text + "\n")
        print("\n" + text)
        return result

    return _record
