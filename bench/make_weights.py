#!/usr/bin/env python3
"""Regenerate the reference weights: ``python bench/make_weights.py``.

Trains the ``ci``-scale MP-CC model exactly as the experiment harness does
(``runner.train_fresh_ddnn(ci_scale())``, ~15 s) and writes
``bench/weights/ci-mpcc.npz`` with ``nn.serialization.save_module`` plus its
sha256.  The serving and evaluation workloads load this file, so they do not
depend on the training code and ``setup_s`` never includes a fit.  The
weights decide every routing and accuracy number the benchmark reports:
regenerate them only together with a new baseline.
"""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WEIGHTS = BENCH_DIR / "weights" / "ci-mpcc.npz"


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(BENCH_DIR.parent / "src"))
    from repro.experiments.runner import ci_scale, get_dataset, train_fresh_ddnn
    from repro.nn.serialization import save_module

    scale = ci_scale()
    model, trainer = train_fresh_ddnn(scale)
    WEIGHTS.parent.mkdir(exist_ok=True)
    save_module(model, WEIGHTS)
    WEIGHTS.with_suffix(".sha256").write_text(f"{digest(WEIGHTS)}  {WEIGHTS.name}\n")
    exits = trainer.evaluate_exits(get_dataset(scale)[1])
    print(f"wrote {WEIGHTS} ({WEIGHTS.stat().st_size} bytes, sha256 {digest(WEIGHTS)})")
    print(f"final loss {trainer.history.final_loss:.4f}, exit accuracy {exits}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
