"""Dataset canary: the synthetic MVMC data against a recording.

Every table, trained weight and replayed cell of this repository starts from
:func:`repro.datasets.generate_mvmc`, so the generator must keep drawing and
rendering exactly the same arrays.  ``tests/data/mvmc_canary.json`` holds the
sha256 of ``images``, ``labels`` and ``device_labels`` (their raw bytes) for:

* the ``ci`` splits (``load_mvmc_splits(200, 80, seed=7)``) and the paper's
  default 680 / 171 splits;
* ``generate_mvmc`` at (samples, seed, image size) = (40, 5, 32),
  (57, 13, 16) and (12, 0, 8);
* a run over custom profiles (blur 0.4 and 2, a noiseless camera) whose zero
  visibilities leave the car class unseen by every device, so each car takes
  the "no device sees it" fallback.

``python tests/test_dataset_canary.py --record`` rewrites the recording from
whatever ``repro`` is importable (it was run against commit eb9b8ca, before
the renderer was vectorised); ``--canary`` exits non-zero, naming every
differing array, where the installed numpy does not reproduce it — a numpy
whose ``Generator`` draws differently would otherwise surface as a diff in
every committed table.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from repro.datasets import mvmc
from repro.datasets.mvmc import DeviceProfile, generate_mvmc, load_mvmc_splits

RECORDED = Path(__file__).resolve().parent / "data" / "mvmc_canary.json"

#: Every car is invisible to every device; buses and people are seen by some.
UNSEEN_CAR_PROFILES = (
    DeviceProfile("blurred", view_angle=0.3, noise_level=0.1, blur=0.4,
                  brightness=0.9, visibility=(0.0, 0.5, 0.0)),
    DeviceProfile("smeared", view_angle=1.7, noise_level=0.03, blur=2.0,
                  brightness=1.1, visibility=(0.0, 0.0, 0.3)),
    DeviceProfile("noiseless", view_angle=4.0, noise_level=0.0, blur=0.0,
                  brightness=1.0, visibility=(0.0, 0.2, 0.0)),
)


def _cases() -> dict:
    """Case name -> the dataset it names."""
    ci_train, ci_test = load_mvmc_splits(200, 80, seed=7)
    train, test = load_mvmc_splits()
    return {
        "ci-train": ci_train,
        "ci-test": ci_test,
        "default-train": train,
        "default-test": test,
        "generate-40-seed5-32px": generate_mvmc(40, seed=5, image_size=32),
        "generate-57-seed13-16px": generate_mvmc(57, seed=13, image_size=16),
        "generate-12-seed0-8px": generate_mvmc(12, seed=0, image_size=8),
        "unseen-car-profiles": _unseen_cars(),
    }


def _unseen_cars() -> mvmc.MVMCDataset:
    return generate_mvmc(60, profiles=UNSEEN_CAR_PROFILES, seed=3, image_size=16)


def _digest(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _fingerprints() -> dict:
    return {
        name: {
            "images": _digest(data.images),
            "labels": _digest(data.labels),
            "device_labels": _digest(data.device_labels),
        }
        for name, data in _cases().items()
    }


def _differences() -> list:
    recorded = json.loads(RECORDED.read_text())
    current = _fingerprints()
    assert sorted(current) == sorted(recorded)
    return [
        f"{name}.{array}"
        for name in recorded
        for array in recorded[name]
        if current[name][array] != recorded[name][array]
    ]


def test_the_fallback_case_takes_the_fallback():
    data = _unseen_cars()
    cars = data.labels == 0
    assert cars.any()
    # The fallback picks the first of the equally (un)likely devices.
    assert (data.device_labels[cars] == [0, -1, -1]).all()


def test_generated_data_equals_the_recording():
    assert _differences() == []


if __name__ == "__main__":
    if sys.argv[1:] == ["--canary"]:
        differing = _differences()
        sys.exit(
            f"numpy {np.__version__} does not reproduce the recorded MVMC data: "
            f"{', '.join(differing)} differ(s)"
            if differing
            else None
        )
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    RECORDED.write_text(json.dumps(_fingerprints(), indent=1, sort_keys=True) + "\n")
