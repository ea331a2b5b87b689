"""Tests for the experiment command-line interface."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from repro.experiments import EXPERIMENT_REGISTRY
from repro.experiments.cli import EXPERIMENTS, build_parser, main

REPO = Path(__file__).resolve().parent.parent

#: ``vars(build_parser().parse_args([command]))`` as recorded at the commit
#: before the parser was generated from the experiment table (``run`` takes
#: its positional).  A changed default, dest or flag shows up here.
GOLDEN_DEFAULTS = {
    "list": {"command": "list"},
    "run": {"command": "run", "experiment": "all", "scale": "ci", "output_dir": None},
    "load-bench": {
        "command": "load-bench",
        "scale": "ci",
        "threshold": 0.8,
        "capacity": 48,
        "max_batch_size": 16,
        "num_requests": 400,
        "load_multipliers": None,
        "policies": None,
        "seed": 0,
        "output_dir": None,
    },
    "dist-bench": {
        "command": "dist-bench",
        "scale": "ci",
        "threshold": 0.8,
        "worker_counts": None,
        "bandwidth_scales": None,
        "threshold_sweep": None,
        "offered_x": 1.5,
        "num_requests": 240,
        "max_batch_size": 8,
        "seed": 0,
        "backend": "simulated",
        "calibrate": False,
        "output_dir": None,
    },
    "elastic-bench": {
        "command": "elastic-bench",
        "scale": "ci",
        "threshold": 0.8,
        "peak_workers": 3,
        "num_requests": 240,
        "max_batch_size": 4,
        "capacity": 32,
        "seed": 0,
        "output_dir": None,
    },
    "chaos-bench": {
        "command": "chaos-bench",
        "scale": "ci",
        "threshold": 0.8,
        "num_requests": 160,
        "max_batch_size": 4,
        "seed": 0,
        "output_dir": None,
    },
    "slo-bench": {
        "command": "slo-bench",
        "scale": "ci",
        "threshold": 0.8,
        "num_requests": 160,
        "max_batch_size": 4,
        "seed": 0,
        "wallclock_smoke": False,
        "output_dir": None,
    },
}


def _ci_command_lines():
    """Every ``python -m repro.experiments ...`` argv in the CI workflow."""
    text = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    text = re.sub(r"#.*", "", text)  # comments between steps
    # The arguments run on (over folded lines) until the next ``- name:`` step.
    for match in re.finditer(r"python -m repro\.experiments((?:\s+(?!-\s)\S+)+)", text):
        yield shlex.split(match.group(1))


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_defaults(self, tmp_path):
        args = build_parser().parse_args(["run", "fig6_dataset_stats"])
        assert args.scale == "ci"
        assert args.output_dir is None

    def test_run_command_with_options(self, tmp_path):
        args = build_parser().parse_args(
            ["run", "fig6_dataset_stats", "--scale", "paper", "--output-dir", str(tmp_path)]
        )
        assert args.scale == "paper"
        assert args.output_dir == tmp_path


class TestGeneratedParser:
    def test_covers_every_command(self):
        commands = {e.command for e in EXPERIMENTS if e.command is not None}
        assert commands | {"list", "run"} == set(GOLDEN_DEFAULTS)

    @pytest.mark.parametrize("command", sorted(GOLDEN_DEFAULTS))
    def test_defaults_match_the_recorded_parser(self, command):
        argv = [command, "all"] if command == "run" else [command]
        assert vars(build_parser().parse_args(argv)) == GOLDEN_DEFAULTS[command]

    @pytest.mark.parametrize("command", sorted(GOLDEN_DEFAULTS))
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([command, "--help"])
        assert exit_info.value.code == 0
        assert "usage:" in capsys.readouterr().out

    def test_every_ci_workflow_command_line_parses(self):
        command_lines = list(_ci_command_lines())
        assert len(command_lines) >= 7, command_lines
        parser = build_parser()
        for argv in command_lines:
            assert parser.parse_args(argv).command == argv[0]

    @pytest.mark.parametrize(
        "argv",
        [
            ["dist-bench", "--workers", "0", "--num-requests", "10"],
            ["elastic-bench", "--capacity", "0"],
            ["load-bench", "--offered-x", "-1"],
            ["chaos-bench", "--threshold", "1.5"],
            ["slo-bench", "--max-batch-size", "two"],
        ],
    )
    def test_bad_values_fail_at_the_parser_before_any_training(
        self, argv, capsys, monkeypatch
    ):
        def _no_training(*args, **kwargs):
            raise AssertionError("a model was requested before the flags were checked")

        monkeypatch.setattr("repro.experiments.runner.train_fresh_ddnn", _no_training)
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_readme_lists_every_command_with_its_registry_help(self):
        readme = " ".join((REPO / "README.md").read_text().split())
        for experiment in EXPERIMENTS:
            if experiment.command is not None:
                assert f"`{experiment.command}` — {experiment.help}" in readme


class TestMain:
    def test_list_prints_every_experiment(self, capsys):
        assert main(["list"]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert set(printed) == set(EXPERIMENT_REGISTRY)

    def test_unknown_experiment_errors(self):
        with pytest.raises(SystemExit):
            main(["run", "not_an_experiment"])

    def test_run_single_experiment_and_write_output(self, tmp_path, capsys, monkeypatch):
        # Patch in a trivial experiment so the CLI test stays fast.
        from repro.experiments.results import ExperimentResult

        def fake_experiment(scale):
            result = ExperimentResult("fake_experiment", "Table 0", columns=["a"])
            result.add_row(a=1)
            return result

        monkeypatch.setitem(EXPERIMENT_REGISTRY, "fake_experiment", fake_experiment)
        exit_code = main(["run", "fake_experiment", "--output-dir", str(tmp_path)])
        assert exit_code == 0
        assert "Table 0" in capsys.readouterr().out
        assert (tmp_path / "fake_experiment.txt").exists()
