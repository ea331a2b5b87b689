"""The command line's vocabulary: checked value types, :class:`Flag`, and the
flags most ``*-bench`` commands share — each declared once.

:mod:`~repro.experiments.cli` builds every command's parser from these.
"""

from __future__ import annotations

import copy
from pathlib import Path
from typing import Any, Callable

from .runner import ci_scale, paper_scale

__all__ = [
    "positive_int",
    "positive_float",
    "fraction",
    "Flag",
    "SCALE",
    "OUTPUT_DIR",
    "THRESHOLD",
    "NUM_REQUESTS",
    "MAX_BATCH_SIZE",
    "SEED",
    "WORKERS",
    "CAPACITY",
]


def _checked(kind: str, convert: Callable[[str], Any], holds: Callable[[Any], bool]):
    """An argparse ``type=``: a bad value makes the parser exit with a usage
    line and ``invalid <kind> value`` (status 2) before any model is trained."""

    def parse(text: str):
        value = convert(text)
        if not holds(value):
            raise ValueError(text)
        return value

    parse.__name__ = kind
    return parse


positive_int = _checked("positive integer", int, lambda value: value >= 1)
positive_float = _checked("positive number", float, lambda value: 0.0 < value < float("inf"))
fraction = _checked("fraction in [0, 1]", float, lambda value: 0.0 <= value <= 1.0)


class Flag:
    """One command-line flag and the run-function keyword it feeds.

    ``options`` go to :meth:`argparse.ArgumentParser.add_argument` verbatim;
    a value flag that names no ``default`` takes the run function's own, so
    no default is written twice.  The parsed value reaches the run function
    as ``kwarg`` (default: the argparse dest) after ``convert``; ``None`` —
    an unset repeatable flag — is not passed at all.  ``passed=False`` marks
    a flag the dispatch itself consumes.
    """

    def __init__(self, name, help="", *, kwarg=None, convert=None, passed=True, **options):
        self.name, self.help, self.options = name, help, options
        self.dest = options.get("dest", name.lstrip("-").replace("-", "_"))
        self.kwarg, self.convert, self.passed = kwarg or self.dest, convert, passed

    def but(self, help: str) -> "Flag":
        """This flag, worded differently."""
        flag = copy.copy(self)
        flag.help = help
        return flag

    @classmethod
    def repeatable(cls, name: str, dest: str, help: str = "", **options) -> "Flag":
        return cls(name, help, action="append", dest=dest, default=None, **options)

    @classmethod
    def switch(cls, name: str, help: str, **routing) -> "Flag":
        return cls(name, help, action="store_true", **routing)


# Every bench command takes these three ...
SCALE = Flag(
    "--scale",
    "experiment scale for the model and request stream",
    choices=("ci", "paper"),
    default="ci",
    convert=lambda name: paper_scale() if name == "paper" else ci_scale(),
)
THRESHOLD = Flag("--threshold", "local-exit entropy threshold used by the cascade", type=fraction)
OUTPUT_DIR = Flag(
    "--output-dir",
    "directory to write the table as {id}.txt",
    type=Path,
    default=None,
    passed=False,
)
# ... most take these three (worded per command with ``.but(...)``) ...
NUM_REQUESTS = Flag("--num-requests", type=positive_int)
MAX_BATCH_SIZE = Flag(
    "--max-batch-size", "micro-batch ceiling of every tier's batching policy", type=positive_int
)
SEED = Flag("--seed", "seed for the arrival process, chaos draws and retry jitter", type=int)
# ... and a few take one of these.
WORKERS = Flag.repeatable("--workers", "worker_counts", type=positive_int)
CAPACITY = Flag("--capacity", type=positive_int)
