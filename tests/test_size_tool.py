"""``tools/size.py`` counts the tree as ``wc -l`` does."""

from __future__ import annotations

import importlib.util
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tree_total_equals_wc_of_every_source_file():
    spec = importlib.util.spec_from_file_location("size", ROOT / "tools" / "size.py")
    size = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(size)
    counts = size.tree_counts()
    wc = subprocess.run(
        "find src -name '*.py' | xargs cat | wc -l",
        shell=True,
        cwd=ROOT,
        check=True,
        capture_output=True,
        text=True,
    )
    assert sum(lines for lines, _ in counts.values()) == int(wc.stdout)
    assert set(counts) >= {"compile", "core", "nn", "serving"}
    assert all(statements > 0 for _, statements in counts.values())
