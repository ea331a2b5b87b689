"""Training canary: short joint-training runs against recordings.

The benchmark's ``ci`` model, trained for one epoch on the first ``samples``
training samples (Adam steps through every conv, max-pool, BatchNorm and
sign of Sec. III-C's joint loss), must reproduce, bit for bit, the
``state_dict`` recorded for that sample count in ``tests/data/``.  64
samples are two full batches of 32; 72 add a ragged last batch of 8, the
shape ``train-fit``'s last step has (200 = 6 x 32 + 8), so a kernel that
tiles the batch ends in a part-filled tile there.  They guard every change
to the training kernels that promises not to move a trained weight, in
about a second each instead of the table benchmarks' retraining.

``python tests/test_training_canary.py --record SAMPLES`` rewrites one
recording from whatever ``repro`` is importable (both were run with one
BLAS thread: the 64-sample one against commit aeac915, the 72-sample one
against commit 0533f29); ``--canary`` exits non-zero where BLAS does not
round like the recording host's.  The first binary conv runs over float
images, so its sums depend on GEMM rounding: there the test checks that a
run replays itself and reports itself skipped.
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

DATA = Path(__file__).resolve().parent / "data"
#: Training samples -> the recorded ``state_dict`` after one epoch on them.
RECORDED = {
    64: DATA / "training_canary.npz",
    72: DATA / "training_canary_ragged.npz",
}


def _trained_state(samples: int) -> dict:
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
        train_set=train.subset(np.arange(samples)),
    )
    return model.state_dict()


def test_one_epoch_reproduces_the_recorded_weights():
    _check(64)


def test_one_epoch_with_a_ragged_last_batch_reproduces_the_recorded_weights():
    _check(72)


def _check(samples: int) -> None:
    current = _trained_state(samples)
    if _same_blas_as_recorded():
        recorded = np.load(RECORDED[samples])
        assert sorted(current) == sorted(recorded.files)
        for name, value in current.items():
            np.testing.assert_array_equal(value, recorded[name], err_msg=name)
        return
    for name, value in _trained_state(samples).items():
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
    if len(sys.argv) != 3 or sys.argv[1] != "--record" or sys.argv[2] not in map(str, RECORDED):
        sys.exit(__doc__)
    samples = int(sys.argv[2])
    np.savez_compressed(RECORDED[samples], **_trained_state(samples))
