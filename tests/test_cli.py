"""Tests for the experiment command-line interface."""

from __future__ import annotations

import inspect
import re
import shlex
from pathlib import Path

import pytest

from repro.experiments import EXPERIMENT_REGISTRY
from repro.experiments.cli import build_parser, main

REPO = Path(__file__).resolve().parent.parent

#: ``vars(build_parser().parse_args([command]))`` for the two commands
#: (``run`` takes its positional).  A changed default, dest or flag shows
#: up here.
GOLDEN_DEFAULTS = {
    "list": {"command": "list"},
    "run": {"command": "run", "experiment": "all", "scale": "ci", "output_dir": None},
}

#: The commands the registry replaced; each is now an unknown command.
FORMER_BENCH_COMMANDS = ["load-bench", "dist-bench", "elastic-bench", "chaos-bench", "slo-bench"]

#: The serving studies, whose settings are module constants.
SERVING_EXPERIMENTS = [
    "overload_tail_latency",
    "distributed_serving",
    "elastic_serving",
    "chaos_serving",
    "slo_serving",
]


def _command_helps():
    """``{command: help}`` as the parser's subcommand list shows it."""
    (subparsers,) = [a for a in build_parser()._actions if a.dest == "command"]
    return {choice.dest: choice.help for choice in subparsers._choices_actions}


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

    def test_every_ci_workflow_command_line_parses(self):
        command_lines = list(_ci_command_lines())
        assert command_lines
        parser = build_parser()
        for argv in command_lines:
            assert parser.parse_args(argv).command == argv[0]


class TestGeneratedParser:
    def test_covers_every_command(self):
        assert set(_command_helps()) == set(GOLDEN_DEFAULTS)

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

    def test_top_level_help_offers_only_list_and_run(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert "{list,run}" in out
        for command in FORMER_BENCH_COMMANDS:
            assert command not in out

    @pytest.mark.parametrize("command", FORMER_BENCH_COMMANDS)
    def test_a_former_bench_command_is_a_usage_error(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command])
        assert exit_info.value.code == 2
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run"],
            ["run", "all", "--scale", "huge"],
            ["run", "not_an_experiment"],
            ["run", "distributed_serving", "--threshold", "0.5"],
            ["list", "fig6_dataset_stats"],
        ],
    )
    def test_bad_values_fail_at_the_parser_before_any_training(
        self, argv, capsys, monkeypatch
    ):
        def _no_training(*args, **kwargs):
            raise AssertionError("a model was requested before the arguments were checked")

        monkeypatch.setattr("repro.experiments.runner.train_fresh_ddnn", _no_training)
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_readme_lists_every_command_with_its_parser_help(self):
        readme = " ".join((REPO / "README.md").read_text().split())
        for command, help_text in _command_helps().items():
            assert f"— {help_text}" in readme, command

    @pytest.mark.parametrize("name", SERVING_EXPERIMENTS)
    def test_serving_studies_take_the_scale_alone(self, name):
        """``run`` passes only the scale; a serving study with another
        parameter would be a setting no command line can reach."""
        assert list(inspect.signature(EXPERIMENT_REGISTRY[name]).parameters) == ["scale"]


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
