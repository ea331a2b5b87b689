"""Call audit: the public ``repro`` names that no runner of the project enters.

A *runner* is something the project runs for a reason of its own:

* ``experiments`` -- ``python -m repro.experiments run all`` (every paper
  table and figure and every serving study), ``ci`` scale;
* ``bench`` -- the set-up, one trial and the quality read-out of each
  ``bench/`` workload and the bare-layer micro phases
  (``bench.workloads.run_micro``), imported unchanged from
  ``bench.workloads``;
* ``examples`` -- every ``examples/*.py`` at small sizes.

All three run in this process under a call profiler (``sys.setprofile`` and
``threading.setprofile``: call events only, far cheaper than line tracing).
Every code object entered is mapped back, by parsing ``src/repro`` with
:mod:`ast`, to the function or method defining it.  A class counts as
entered when one of its methods ran or an instance was constructed through
a Python-level ``__init__`` / ``__new__`` -- its own or a subclass's, since
code written against a base runs through its subclasses; for the same
reason a method counts as entered when an override of it ran.  Methods of a
class nothing entered are covered by the class's row.

The result is the ``after`` section of ``tools/call_audit.md``: every public
name no runner entered, each with a one-line reason it stays.  Reasons are
kept in the table itself and carried over, by name, from both sections
whenever ``after`` is rewritten; a new name reads ``(no reason yet)``.  The
``before`` section is a fixed record: the same audit run in a checkout of
the commit before the deletions it lists, each row giving the reason the
name stayed or the change that deleted it.  It is written back verbatim.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import re
import runpy
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TABLE = ROOT / "tools" / "call_audit.md"

#: The sizes the audit runs every example at.
EXAMPLE_ARGV = ("--train-samples", "48", "--test-samples", "24", "--epochs", "2")

NO_REASON = "(no reason yet)"
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


# --------------------------------------------------------------------------- #
# What is defined: ast over src/repro
# --------------------------------------------------------------------------- #
def _first_line(node) -> int:
    """A decorated function's code object starts at its first decorator."""
    return min([node.lineno] + [decorator.lineno for decorator in node.decorator_list])


Definition = Tuple[str, Optional[str], str]  # (module, class or None, function)


def definitions() -> Tuple[Dict[Tuple[str, int], Definition], List[Tuple[str, str]]]:
    """``({(file, first line): definition}, [(public name, kind)])``.

    The first maps every module-level function and every method under
    ``src/repro`` to where it is defined; the second lists the public names
    in source order.  A name is public when neither it, its class nor any
    part of its module path starts with an underscore.
    """
    codes: Dict[Tuple[str, int], Definition] = {}
    public: List[Tuple[str, str]] = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        module = ".".join(parts)
        visible = not any(part.startswith("_") for part in parts)
        filename = os.path.realpath(path)
        for node in ast.parse(path.read_text(), filename).body:
            if isinstance(node, _FUNCTIONS):
                codes[(filename, _first_line(node))] = (module, None, node.name)
                if visible and not node.name.startswith("_"):
                    public.append((f"{module}.{node.name}", "function"))
            elif isinstance(node, ast.ClassDef):
                owner = f"{module}.{node.name}"
                shown = visible and not node.name.startswith("_")
                if shown:
                    public.append((owner, "class"))
                for item in node.body:
                    if isinstance(item, _FUNCTIONS):
                        codes[(filename, _first_line(item))] = (module, node.name, item.name)
                        if shown and not item.name.startswith("_"):
                            public.append((f"{owner}.{item.name}", "method"))
    return codes, public


# --------------------------------------------------------------------------- #
# What is entered: a call-event profiler
# --------------------------------------------------------------------------- #
class Recorder:
    """Collects every code object entered and every class constructed."""

    def __init__(self) -> None:
        self.codes: Dict[int, object] = {}
        self.built: Set[type] = set()

    def profiler(self):
        codes, built = self.codes, self.built

        def profile(frame, event, arg):
            if event == "call":
                code = frame.f_code
                codes[id(code)] = code
                # Generated dataclass initialisers and plain classes built
                # through an inherited __init__ name their class only here.
                if code.co_name in ("__init__", "__new__") and code.co_argcount:
                    first = frame.f_locals.get(code.co_varnames[0])
                    owner = first if code.co_name == "__new__" else type(first)
                    if isinstance(owner, type):
                        built.add(owner)

        return profile

    @contextlib.contextmanager
    def recording(self):
        profile = self.profiler()
        threading.setprofile(profile)
        sys.setprofile(profile)
        try:
            yield
        finally:
            sys.setprofile(None)
            threading.setprofile(None)

    def entered(self, codes: Dict[Tuple[str, int], Definition]) -> Set[str]:
        """Qualified names entered, directly or through a subclass / override."""
        names: Set[str] = set()
        classes: Set[type] = set(self.built)
        methods: Set[Tuple[type, str]] = set()
        for code in self.codes.values():
            hit = codes.get((os.path.realpath(code.co_filename), code.co_firstlineno))
            if hit is None:
                continue
            module, owner, function = hit
            if owner is None:
                names.add(f"{module}.{function}")
            else:
                methods.add((vars(sys.modules[module])[owner], function))
        for owner, function in methods:
            classes.add(owner)
            names.update(
                f"{_qualified(base)}.{function}" for base in owner.__mro__ if function in vars(base)
            )
        names.update(_qualified(base) for owner in classes for base in owner.__mro__)
        return names


def _qualified(owner: type) -> str:
    return f"{owner.__module__}.{owner.__qualname__}"


# --------------------------------------------------------------------------- #
# The runners
# --------------------------------------------------------------------------- #
def drive_experiments() -> None:
    from repro.experiments.cli import main

    main(["run", "all"])


def drive_bench() -> None:
    from bench import workloads
    from bench.trace import NullTracer

    for name, workload_class in workloads.WORKLOADS.items():
        workload = workload_class(0, workloads.FULL, NullTracer())
        workload.setup()
        trial = workload.trial()
        if not trial.verdict.ok:
            raise RuntimeError(f"bench workload {name} failed its checks: {trial.verdict.messages}")
        workload.quality()
    workloads.run_micro(workloads.FULL, 0)


def drive_examples() -> None:
    saved = sys.argv
    try:
        for path in sorted((ROOT / "examples").glob("*.py")):
            sys.argv = [str(path), *EXAMPLE_ARGV]
            runpy.run_path(str(path), run_name="__main__")
    finally:
        sys.argv = saved


RUNNERS = {"experiments": drive_experiments, "bench": drive_bench, "examples": drive_examples}


def audit() -> Tuple[List[Tuple[str, str]], int]:
    """``(public names no runner entered, number of public names)``."""
    for path in (SRC, ROOT):
        sys.path.insert(0, str(path))
    codes, public = definitions()
    recorder = Recorder()
    for name, runner in RUNNERS.items():
        started = time.perf_counter()
        with recorder.recording(), contextlib.redirect_stdout(io.StringIO()):
            runner()
        print(f"{name}: {time.perf_counter() - started:.0f} s", file=sys.stderr)
    entered = recorder.entered(codes)
    unentered_classes = {name for name, kind in public if kind == "class" and name not in entered}
    missing = [
        (name, kind)
        for name, kind in public
        if name not in entered
        and not (kind == "method" and name.rsplit(".", 1)[0] in unentered_classes)
    ]
    return missing, len(public)


# --------------------------------------------------------------------------- #
# The table
# --------------------------------------------------------------------------- #
_ROW = re.compile(r"^\| `([^`]+)` \| (\w+) \| (.*) \|$")
_PREAMBLE = """# Call audit

Public `src/repro` names that no runner enters, written by `tools/call_audit.py`
(see its docstring for the runners and how a name counts as entered).  Each
row gives the reason the name stays, or the change that deleted it.
"""


def _sections(text: str) -> Dict[str, str]:
    """``{heading: body}`` of the ``## `` sections of an existing table."""
    sections: Dict[str, str] = {}
    for chunk in re.split(r"^## ", text, flags=re.MULTILINE)[1:]:
        heading, _, body = chunk.partition("\n")
        sections[heading.strip()] = body
    return sections


def _reasons(sections: Dict[str, str]) -> Dict[str, str]:
    """``{name: reason}`` from every row; a later section's reason wins."""
    reasons: Dict[str, str] = {}
    for body in sections.values():
        for line in body.splitlines():
            match = _ROW.match(line)
            if match and match.group(3) != NO_REASON:
                reasons[match.group(1)] = match.group(3)
    return reasons


def render(missing, total: int, reasons: Dict[str, str]) -> str:
    lines = [
        f"{total} public names, {total - len(missing)} entered, {len(missing)} not "
        "entered by any runner.",
        "",
        "| name | kind | reason |",
        "|---|---|---|",
    ]
    lines += [f"| `{name}` | {kind} | {reasons.get(name, NO_REASON)} |" for name, kind in missing]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="List the public repro names no runner enters (see the module docstring).",
        epilog=(
            "Regenerate the committed table from the repository root with "
            "'python tools/call_audit.py' (rewrites the 'after' section of "
            "tools/call_audit.md; about six minutes on 2 vCPUs)."
        ),
    )
    parser.parse_args(argv)
    sections = _sections(TABLE.read_text()) if TABLE.exists() else {}
    reasons = _reasons(sections)
    missing, total = audit()
    sections["after"] = render(missing, total, reasons)
    TABLE.write_text(
        _PREAMBLE
        + "".join(
            f"\n## {name}\n\n{sections[name].strip()}\n"
            for name in ("before", "after")
            if name in sections
        )
    )
    print(f"{len(missing)} of {total} public names not entered; wrote {TABLE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
