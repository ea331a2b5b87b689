"""Training canary: one short joint-training run against a recording.

The benchmark's ``ci`` model, trained for one epoch on the first 64 training
samples (two Adam steps through every conv, max-pool, BatchNorm and sign of
Sec. III-C's joint loss), must reproduce, bit for bit, the ``state_dict``
recorded in ``tests/data/training_canary.npz``.  It guards every change to
the training kernels that promises not to move a trained weight, in about a
second instead of the table benchmarks' retraining.

``python tests/test_training_canary.py --record`` rewrites the recording from
whatever ``repro`` is importable (it was run against commit aeac915 with one
BLAS thread); ``--canary`` exits non-zero where BLAS does not round like the
recording host's.  The first binary conv runs over float images, so its sums
depend on GEMM rounding: there the test checks that a run replays itself and
reports itself skipped.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.datasets import mvmc
from repro.experiments.runner import ci_scale, train_fresh_ddnn

sys.path.insert(0, str(Path(__file__).resolve().parent))
from test_compile_memory_plan import _same_blas_as_recorded  # noqa: E402

RECORDED = Path(__file__).resolve().parent / "data" / "training_canary.npz"
SAMPLES = 64


def _trained_state() -> dict:
    scale = ci_scale()
    train, _ = mvmc.load_mvmc_splits(
        train_samples=scale.train_samples,
        test_samples=scale.test_samples,
        profiles=mvmc.DEFAULT_DEVICE_PROFILES[: scale.num_devices],
        seed=scale.data_seed,
    )
    model, _ = train_fresh_ddnn(
        scale,
        training=scale.training_config(epochs=1),
        train_set=train.subset(np.arange(SAMPLES)),
    )
    return model.state_dict()


def test_one_epoch_reproduces_the_recorded_weights():
    current = _trained_state()
    if _same_blas_as_recorded():
        recorded = np.load(RECORDED)
        assert sorted(current) == sorted(recorded.files)
        for name, value in current.items():
            np.testing.assert_array_equal(value, recorded[name], err_msg=name)
        return
    for name, value in _trained_state().items():
        np.testing.assert_array_equal(value, current[name], err_msg=name)
    pytest.skip(
        "BLAS canary differs from the recording host's: the run replays itself, "
        "equality with the recording NOT checked"
    )


if __name__ == "__main__":
    if sys.argv[1:] == ["--canary"]:
        sys.exit(
            None
            if _same_blas_as_recorded()
            else "BLAS canary differs from the recording host's: the training "
            "canary would skip its exact comparison"
        )
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    np.savez_compressed(RECORDED, **_trained_state())
