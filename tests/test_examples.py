"""The kept examples run end to end at small sizes read from their argv."""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
SMALL = ["--train-samples", "48", "--test-samples", "24", "--epochs", "2"]

#: Example -> a line its last section prints.
LAST_SECTION = {
    "quickstart.py": "Staged inference with T = 0.8",
    "edge_hierarchy_deployment.py": "bytes by uplink",
    "fault_tolerant_deployment.py": "Devices [1, 2, 3] all failed",
    "slo_serving.py": "cloud-partition  deadline+hedge",
}


def test_every_example_is_run_here():
    assert sorted(path.name for path in EXAMPLES.glob("*.py")) == sorted(LAST_SECTION)


@pytest.mark.parametrize("name", sorted(LAST_SECTION))
def test_example_runs(name, monkeypatch, capsys):
    path = EXAMPLES / name
    monkeypatch.setattr(sys, "argv", [str(path), *SMALL])
    runpy.run_path(str(path), run_name="__main__")
    assert LAST_SECTION[name] in capsys.readouterr().out
