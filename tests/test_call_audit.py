"""Tests for ``tools/call_audit.py`` and the table it keeps.

The audit itself (every runner under the profiler) takes minutes; these
tests cover how it names code, how it credits calls, and that the committed
table is complete and true of the current tree.
"""

from __future__ import annotations

import importlib
import importlib.util
import os
import re
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "call_audit.py"


@pytest.fixture(scope="module")
def audit():
    spec = importlib.util.spec_from_file_location("call_audit", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def definitions(audit):
    return audit.definitions()


@pytest.fixture(scope="module")
def sections(audit):
    return audit._sections(audit.TABLE.read_text())


def _rows(audit, body):
    return [audit._ROW.match(line) for line in body.splitlines() if line.startswith("| `")]


def _resolves(name: str) -> bool:
    """Whether a dotted ``module[.Class][.attribute]`` name exists."""
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for part in parts[split:]:
            if part not in vars(target):
                return False
            target = vars(target)[part]
        return True
    return False


def test_definitions_name_public_code_by_its_first_line(definitions):
    from repro.serving.admission import AdmissionResult
    from repro.serving.batcher import MicroBatcher

    codes, public = definitions
    assert ("repro.serving.batcher.BatchingPolicy", "class") in public
    assert ("repro.serving.batcher.MicroBatcher.ready", "method") in public
    assert not [name for name, _ in public if any(p.startswith("_") for p in name.split("."))]
    ready = MicroBatcher.ready.__code__
    assert codes[(os.path.realpath(ready.co_filename), ready.co_firstlineno)] == (
        "repro.serving.batcher",
        "MicroBatcher",
        "ready",
    )
    # A decorated function's code starts at its decorator.
    accepted = AdmissionResult.accepted.fget.__code__
    assert codes[(os.path.realpath(accepted.co_filename), accepted.co_firstlineno)][2] == "accepted"


def test_recorder_credits_overrides_bases_and_generated_inits(audit, definitions):
    from repro.serving.admission import AdmissionStats, RejectNewest

    recorder = audit.Recorder()
    with recorder.recording():
        RejectNewest().decide("client")
        AdmissionStats()  # a dataclass: its __init__ is generated code
    entered = recorder.entered(definitions[0])
    prefix = "repro.serving.admission."
    # An override credits the base method; a subclass credits its bases.
    for name in ("RejectNewest.decide", "AdmissionPolicy.decide", "AdmissionPolicy"):
        assert prefix + name in entered
    assert prefix + "AdmissionStats" in entered
    assert prefix + "DropOldest.decide" not in entered
    assert prefix + "AdmissionStats.merged" not in entered


def test_render_carries_reasons_and_marks_new_names(audit):
    table = audit.render([("a.b", "function"), ("a.C", "class")], 5, {"a.b": "kept for x"})
    assert table.splitlines()[0] == "5 public names, 3 entered, 2 not entered by any runner."
    sections = audit._sections("## after\n\n" + table + "\n")
    assert audit._reasons(sections) == {"a.b": "kept for x"}
    assert f"| `a.C` | class | {audit.NO_REASON} |" in table


@pytest.mark.parametrize("heading", ["before", "after"])
def test_committed_section_gives_every_name_a_reason(audit, sections, heading):
    body = sections[heading]
    rows = _rows(audit, body)
    assert rows and all(rows), f"malformed row in the '{heading}' section"
    assert not [row.group(1) for row in rows if row.group(3) == audit.NO_REASON]
    header = re.match(r"(\d+) public names, (\d+) entered, (\d+) not entered", body.strip())
    total, entered, missing = map(int, header.groups())
    assert missing == len(rows) == total - entered


def test_committed_table_is_true_of_this_tree(audit, sections):
    """Every name the 'after' section keeps exists; every name the 'before'
    section marks deleted is gone."""
    kept = [row.group(1) for row in _rows(audit, sections["after"])]
    assert [name for name in kept if not _resolves(name)] == []
    before = _rows(audit, sections["before"])
    deleted = [row.group(1) for row in before if row.group(3).startswith("deleted")]
    assert deleted and [name for name in deleted if _resolves(name)] == []


def test_help_names_the_regeneration_command(audit, capsys):
    with pytest.raises(SystemExit) as exit_info:
        audit.main(["--help"])
    assert exit_info.value.code == 0
    assert "python tools/call_audit.py" in " ".join(capsys.readouterr().out.split())
