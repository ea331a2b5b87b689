"""Lines and AST statements per ``src/repro`` package.

    python tools/size.py            # the working tree
    python tools/size.py HEAD^1     # ... and the same at a git revision, with the change

Lines are newline characters, as ``wc -l`` counts them; statements are the
``ast.stmt`` nodes of each file, so a change that only reformats code moves
the lines but not the statements.  A revision's files are read with
``git show REV:path``; the working tree's from disk, committed or not.
"""

from __future__ import annotations

import argparse
import ast
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterable, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/repro"

#: package -> (lines, statements)
Counts = Dict[str, Tuple[int, int]]


def _package(path: str) -> str:
    """``nn`` for ``src/repro/nn/layers.py``; ``repro`` for a module at the root."""
    parts = path.split("/")[2:]
    return parts[0] if len(parts) > 1 else "repro"


def _count(sources: Iterable[Tuple[str, bytes]]) -> Counts:
    counts: Counts = {}
    for path, source in sources:
        statements = sum(isinstance(node, ast.stmt) for node in ast.walk(ast.parse(source, path)))
        lines, total = counts.get(_package(path), (0, 0))
        counts[_package(path)] = (lines + source.count(b"\n"), total + statements)
    return counts


def tree_counts() -> Counts:
    """Counts of the working tree."""
    paths = sorted((ROOT / PACKAGE).rglob("*.py"))
    return _count((path.relative_to(ROOT).as_posix(), path.read_bytes()) for path in paths)


def revision_counts(revision: str) -> Counts:
    """Counts of the files ``src/repro`` holds at a git revision."""

    def git(*args: str) -> bytes:
        return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout

    paths = git("ls-tree", "-r", "--name-only", revision, "--", PACKAGE).decode().splitlines()
    return _count(
        (path, git("show", f"{revision}:{path}")) for path in paths if path.endswith(".py")
    )


def _with_total(counts: Counts) -> Counts:
    return {
        **counts,
        "total": (sum(lines for lines, _ in counts.values()), sum(s for _, s in counts.values())),
    }


def render(tree: Counts, base: Optional[Counts] = None, revision: str = "") -> str:
    """One row per package and a total: the tree's lines and statements, then
    the revision's and the change from it, when ``base`` is given."""
    tree, base = _with_total(tree), _with_total(base) if base is not None else None
    header = f"{'package':<12} {'lines':>7} {'stmts':>7}"
    if base is not None:
        header += f"  {revision + ' lines':>14} {revision + ' stmts':>14}"
        header += f"  {'lines +/-':>9} {'stmts +/-':>9}"
    rows = [header]
    names = sorted((set(tree) | set(base or {})) - {"total"}) + ["total"]
    for name in names:
        lines, statements = tree.get(name, (0, 0))
        row = f"{name:<12} {lines:>7,} {statements:>7,}"
        if base is not None:
            old_lines, old_statements = base.get(name, (0, 0))
            row += (
                f"  {old_lines:>14,} {old_statements:>14,}"
                f"  {lines - old_lines:>+9,} {statements - old_statements:>+9,}"
            )
        rows.append(row)
    return "\n".join(rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Lines and AST statements per src/repro package (see the module docstring)."
    )
    parser.add_argument(
        "revision", nargs="?", help="a git revision to compare with, e.g. HEAD^1"
    )
    args = parser.parse_args(argv)
    base = revision_counts(args.revision) if args.revision else None
    print(render(tree_counts(), base, args.revision or ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
