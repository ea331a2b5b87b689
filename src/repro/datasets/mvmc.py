"""Synthetic multi-view multi-camera (MVMC) dataset.

The DDNN paper evaluates on a dataset of 32x32 RGB crops of three object
categories (car, bus, person) captured simultaneously by six cameras placed
at different locations, with 680 training and 171 test samples.  Each sample
is one physical object; every device contributes either a view of that object
or a blank frame (label -1) if the object is outside its field of view.

The original data is no longer available, so this module generates a
synthetic dataset with the same structure and the statistical properties the
experiments rely on (see DESIGN.md for the substitution rationale):

* per-device view angles, so devices observe genuinely different projections;
* per-device camera quality (noise / blur / exposure), so individual device
  accuracies vary widely (paper Fig. 8 reports ~40% to ~70%);
* per-device, per-class visibility probabilities, so the number of samples in
  which each device sees the object is imbalanced (paper Fig. 6);
* a class-imbalanced label distribution (cars most frequent, buses least).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .shapes import (
    CLASS_NAMES,
    IMAGE_SIZE,
    NOT_PRESENT_LABEL,
    ObjectInstance,
    _blank_views,
    _render_views,
    blank_view,
    sample_object,
)

__all__ = [
    "DeviceProfile",
    "DEFAULT_DEVICE_PROFILES",
    "DEFAULT_CLASS_PROBABILITIES",
    "MVMCSample",
    "MVMCDataset",
    "generate_mvmc",
    "load_mvmc_splits",
    "class_distribution_per_device",
]

#: Class prior used when sampling objects: cars are most common, buses least,
#: mirroring the imbalance visible in the paper's Figure 6.
DEFAULT_CLASS_PROBABILITIES = (0.45, 0.15, 0.40)  # car, bus, person


@dataclass(frozen=True)
class DeviceProfile:
    """Static description of one end device (camera).

    Attributes
    ----------
    name:
        Human-readable device name.
    view_angle:
        Camera azimuth in radians.
    noise_level, blur, brightness:
        Camera-quality parameters passed to the renderer.  Worse values lower
        the device's individual accuracy.
    visibility:
        Per-class probability that an object of that class appears in this
        camera's frame.  When the object is not visible the device receives a
        blank frame and the per-device label -1.
    """

    name: str
    view_angle: float
    noise_level: float
    blur: float
    brightness: float
    visibility: Tuple[float, float, float]


def _default_profiles() -> Tuple[DeviceProfile, ...]:
    """Six devices with a wide spread of quality and visibility.

    Devices are ordered roughly from worst to best viewing conditions so the
    scaling experiment (Fig. 8) has a meaningful worst-to-best ordering to
    discover.
    """
    return (
        DeviceProfile("camera-1", view_angle=np.deg2rad(0), noise_level=0.16, blur=1.0,
                      brightness=0.70, visibility=(0.55, 0.60, 0.50)),
        DeviceProfile("camera-2", view_angle=np.deg2rad(60), noise_level=0.20, blur=1.0,
                      brightness=0.65, visibility=(0.45, 0.55, 0.45)),
        DeviceProfile("camera-3", view_angle=np.deg2rad(120), noise_level=0.12, blur=1.0,
                      brightness=0.85, visibility=(0.65, 0.70, 0.60)),
        DeviceProfile("camera-4", view_angle=np.deg2rad(180), noise_level=0.09, blur=0.0,
                      brightness=0.95, visibility=(0.75, 0.80, 0.70)),
        DeviceProfile("camera-5", view_angle=np.deg2rad(240), noise_level=0.07, blur=0.0,
                      brightness=1.00, visibility=(0.85, 0.85, 0.80)),
        DeviceProfile("camera-6", view_angle=np.deg2rad(300), noise_level=0.05, blur=0.0,
                      brightness=1.05, visibility=(0.95, 0.95, 0.90)),
    )


DEFAULT_DEVICE_PROFILES: Tuple[DeviceProfile, ...] = _default_profiles()


@dataclass
class MVMCSample:
    """One multi-view sample: all device views of a single physical object."""

    views: np.ndarray  # (num_devices, 3, H, W)
    label: int  # ground-truth class of the object
    device_labels: np.ndarray  # (num_devices,), class label or -1 if not present
    instance: Optional[ObjectInstance] = None

    @property
    def present(self) -> np.ndarray:
        """Boolean mask of devices in which the object is visible."""
        return self.device_labels != NOT_PRESENT_LABEL


class MVMCDataset:
    """In-memory multi-view multi-camera dataset.

    Attributes
    ----------
    images:
        Array of shape ``(N, num_devices, 3, H, W)`` with values in [0, 1].
    labels:
        Ground-truth class per sample, shape ``(N,)``.
    device_labels:
        Per-device labels, shape ``(N, num_devices)``; -1 marks frames in
        which the object is not present (blank frames).
    profiles:
        The device profiles used to generate the data.
    """

    def __init__(
        self,
        images: np.ndarray,
        labels: np.ndarray,
        device_labels: np.ndarray,
        profiles: Sequence[DeviceProfile] = DEFAULT_DEVICE_PROFILES,
    ) -> None:
        images = np.asarray(images, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        device_labels = np.asarray(device_labels, dtype=np.int64)
        if images.ndim != 5:
            raise ValueError(f"images must have shape (N, D, C, H, W), got {images.shape}")
        if len(images) != len(labels) or len(images) != len(device_labels):
            raise ValueError("images, labels and device_labels must be aligned")
        if device_labels.shape[1] != images.shape[1]:
            raise ValueError("device_labels second dimension must equal the number of devices")
        self.images = images
        self.labels = labels
        self.device_labels = device_labels
        self.profiles = tuple(profiles)

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.images)

    def __getitem__(self, index: int) -> MVMCSample:
        return MVMCSample(
            views=self.images[index],
            label=int(self.labels[index]),
            device_labels=self.device_labels[index],
        )

    @property
    def num_devices(self) -> int:
        return self.images.shape[1]

    @property
    def num_classes(self) -> int:
        return len(CLASS_NAMES)

    @property
    def image_shape(self) -> Tuple[int, int, int]:
        return tuple(self.images.shape[2:])

    def device_views(self, device_index: int) -> np.ndarray:
        """All views captured by one device, shape ``(N, 3, H, W)``."""
        return self.images[:, device_index]

    def presence(self) -> np.ndarray:
        """Boolean presence matrix of shape ``(N, num_devices)``."""
        return self.device_labels != NOT_PRESENT_LABEL

    def subset(self, indices: np.ndarray) -> "MVMCDataset":
        """Return a new dataset restricted to ``indices``."""
        indices = np.asarray(indices)
        return MVMCDataset(
            self.images[indices],
            self.labels[indices],
            self.device_labels[indices],
            profiles=self.profiles,
        )

    def select_devices(self, device_indices: Sequence[int]) -> "MVMCDataset":
        """Return a dataset containing only the chosen devices (in order)."""
        device_indices = list(device_indices)
        return MVMCDataset(
            self.images[:, device_indices],
            self.labels,
            self.device_labels[:, device_indices],
            profiles=tuple(self.profiles[i] for i in device_indices),
        )

    def with_failed_devices(self, failed: Sequence[int]) -> "MVMCDataset":
        """Simulate device failures by blanking out the failed devices' views.

        The failed devices transmit nothing useful: their views are replaced
        by blank frames and their per-device labels by -1.  The device count
        (and hence the trained model's input structure) is unchanged, which is
        exactly the paper's fault-tolerance scenario (Fig. 10).
        """
        failed_set = set(int(i) for i in failed)
        images = self.images.copy()
        device_labels = self.device_labels.copy()
        blank = blank_view(size=self.images.shape[-1])
        for device_index in failed_set:
            images[:, device_index] = blank
            device_labels[:, device_index] = NOT_PRESENT_LABEL
        return MVMCDataset(images, self.labels, device_labels, profiles=self.profiles)


def _positive_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def _class_probabilities(values: Sequence[float]) -> np.ndarray:
    """``values`` normalised to sum to one: one finite, non-negative entry
    per class with a positive sum, or ``ValueError``."""
    probabilities = np.asarray(values, dtype=float)
    if (
        probabilities.shape != (len(CLASS_NAMES),)
        or not np.isfinite(probabilities).all()
        or (probabilities < 0).any()
        or probabilities.sum() <= 0
    ):
        raise ValueError(
            f"class_probabilities must be {len(CLASS_NAMES)} finite, non-negative "
            f"numbers with a positive sum (one per class in {CLASS_NAMES}), got {values!r}"
        )
    return probabilities / probabilities.sum()


def generate_mvmc(
    num_samples: int,
    profiles: Sequence[DeviceProfile] = DEFAULT_DEVICE_PROFILES,
    class_probabilities: Sequence[float] = DEFAULT_CLASS_PROBABILITIES,
    seed: int = 0,
    image_size: int = IMAGE_SIZE,
) -> MVMCDataset:
    """Generate a synthetic multi-view multi-camera dataset.

    Every sample corresponds to one object instance rendered by each device
    whose visibility draw succeeds; at least one device always sees the
    object (otherwise the sample would carry no information at all).

    **Random stream.**  Per sample, in this order: the class, the object
    (:func:`~repro.datasets.shapes.sample_object`), one visibility draw per
    device, then all of the sample's pixel noise as *one*
    ``standard_normal`` block, which the views are rendered from in one
    array pass.  The block holds, device by device, a visible device's
    background then sensor noise (each ``(size, size, 3)``) or a hidden
    device's blank-frame noise (``(3, size, size)``): the order in which one
    :func:`~repro.datasets.shapes.render_view` or
    :func:`~repro.datasets.shapes.blank_view` call per device would draw
    them.  ``Generator.normal(0, s, n)`` is ``0.0 + s * z`` over the next
    ``n`` standard normals ``z`` of the stream, so scaling each slice of the
    block the same way gives those calls' noise bit for bit, and the
    dataset of a seed is what the per-view renderer made.
    """
    rows = range(_positive_int(num_samples, "num_samples"))
    return _generate(rows, profiles, class_probabilities, seed, image_size)


def _generate(rows, profiles, class_probabilities, seed, image_size) -> MVMCDataset:
    """:func:`generate_mvmc` of ``len(rows)`` samples, the ``i``-th drawn
    written to row ``rows[i]``."""
    image_size = _positive_int(image_size, "image_size")
    profiles = tuple(profiles)
    if not profiles:
        raise ValueError("profiles must name at least one device")
    class_probabilities = _class_probabilities(class_probabilities)
    rng = np.random.default_rng(seed)

    num_samples, num_devices = len(rows), len(profiles)
    images = np.zeros((num_samples, num_devices, 3, image_size, image_size))
    labels = np.zeros(num_samples, dtype=np.int64)
    device_labels = np.full((num_samples, num_devices), NOT_PRESENT_LABEL, dtype=np.int64)
    # One frame's worth of noise: (size, size, 3) and (3, size, size) alike.
    frame = 3 * image_size * image_size

    for at in rows:
        label = int(rng.choice(len(CLASS_NAMES), p=class_probabilities))
        instance = sample_object(label, rng)
        labels[at] = label

        visible = [rng.random() < profile.visibility[label] for profile in profiles]
        if not any(visible):
            # Guarantee at least one view; pick the device most likely to see it.
            best = int(np.argmax([profile.visibility[label] for profile in profiles]))
            visible[best] = True

        # The block's frames: two per visible device, one per hidden one.
        shown, shown_frames, hidden, hidden_frames, frames = [], [], [], [], 0
        for device_index, seen in enumerate(visible):
            if seen:
                shown.append(device_index)
                shown_frames += [frames, frames + 1]
            else:
                hidden.append(device_index)
                hidden_frames.append(frames)
            frames += 1 + seen
        block = rng.standard_normal(frames * frame).reshape(frames, frame)

        cameras = [profiles[index] for index in shown]
        images[at, shown] = _render_views(
            instance,
            [camera.view_angle for camera in cameras],
            [camera.noise_level for camera in cameras],
            [camera.blur for camera in cameras],
            [camera.brightness for camera in cameras],
            block[shown_frames].reshape(len(shown), 2, image_size, image_size, 3),
            image_size,
        )
        device_labels[at, shown] = label
        if hidden:
            images[at, hidden] = _blank_views(
                block[hidden_frames].reshape(len(hidden), 3, image_size, image_size), 0.01
            )

    return MVMCDataset(images, labels, device_labels, profiles=profiles)


def load_mvmc_splits(
    train_samples: int = 680,
    test_samples: int = 171,
    profiles: Sequence[DeviceProfile] = DEFAULT_DEVICE_PROFILES,
    seed: int = 7,
    image_size: int = IMAGE_SIZE,
) -> Tuple[MVMCDataset, MVMCDataset]:
    """Generate the canonical train/test splits (defaults: 680 / 171 samples).

    Train and test samples are drawn from the same generative process with
    disjoint random streams, mirroring the paper's single-dataset split.
    """
    train_samples = _positive_int(train_samples, "train_samples")
    test_samples = _positive_int(test_samples, "test_samples")
    total = train_samples + test_samples
    order = np.random.default_rng(seed + 1).permutation(total)
    # Sample ``order[k]`` of the combined stream is row ``k``: the train split
    # is the first rows and the test split the rest, each a slice, not a copy.
    rows = np.empty(total, dtype=np.intp)
    rows[order] = np.arange(total)
    combined = _generate(
        rows.tolist(), profiles, DEFAULT_CLASS_PROBABILITIES, seed, image_size
    )
    train, test = (
        MVMCDataset(
            combined.images[split],
            combined.labels[split],
            combined.device_labels[split],
            profiles=combined.profiles,
        )
        for split in (slice(train_samples), slice(train_samples, total))
    )
    return train, test


def class_distribution_per_device(dataset: MVMCDataset) -> Dict[str, np.ndarray]:
    """Counts of person / bus / car / not-present per device (paper Fig. 6).

    Returns a mapping from category name (including ``"not-present"``) to an
    array of counts with one entry per device.
    """
    num_devices = dataset.num_devices
    counts: Dict[str, np.ndarray] = {
        name: np.zeros(num_devices, dtype=np.int64) for name in CLASS_NAMES
    }
    counts["not-present"] = np.zeros(num_devices, dtype=np.int64)
    for device_index in range(num_devices):
        labels = dataset.device_labels[:, device_index]
        for class_index, name in enumerate(CLASS_NAMES):
            counts[name][device_index] = int(np.sum(labels == class_index))
        counts["not-present"][device_index] = int(np.sum(labels == NOT_PRESENT_LABEL))
    return counts
