"""The vectorised MVMC renderer against a copy of the per-view one it replaced.

The functions in the *spec* section below are the per-view renderer and
generator as they stood before :mod:`repro.datasets` rendered a sample's
views in one array pass (``render_view``, ``blank_view``, ``_background``,
``_body_mask``, ``_box_blur``, ``generate_mvmc`` and the two geometry helpers
they use), copied verbatim apart from their names.  Hypothesis draws sample
counts, seeds, image sizes and camera profiles — default subsets, and custom
cameras with blur 0 / 0.4 / 1 / 2, noiseless sensors and classes some or all
cameras never see — and the package must produce the spec's arrays byte for
byte, and leave the random stream where the spec leaves it.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import mvmc, shapes
from repro.datasets.mvmc import (
    DEFAULT_CLASS_PROBABILITIES,
    DEFAULT_DEVICE_PROFILES,
    DeviceProfile,
    MVMCDataset,
)
from repro.datasets.shapes import (
    CLASS_NAMES,
    IMAGE_SIZE,
    NOT_PRESENT_LABEL,
    ObjectInstance,
    sample_object,
)


# --------------------------------------------------------------------------- #
# Spec: the per-view renderer, verbatim
# --------------------------------------------------------------------------- #
def _coordinate_grid(size: int) -> tuple:
    ys, xs = np.mgrid[0:size, 0:size]
    # Normalised coordinates in [-1, 1]
    return (ys - size / 2 + 0.5) / (size / 2), (xs - size / 2 + 0.5) / (size / 2)


def _rotate(y: np.ndarray, x: np.ndarray, angle: float) -> tuple:
    cos_a, sin_a = np.cos(angle), np.sin(angle)
    return y * cos_a - x * sin_a, y * sin_a + x * cos_a


def _background(rng: np.random.Generator, size: int) -> np.ndarray:
    """Ground/sky style gradient background with mild per-pixel noise."""
    ys, _ = _coordinate_grid(size)
    sky = np.array([0.55, 0.65, 0.75])
    ground = np.array([0.35, 0.38, 0.33])
    mix = ((ys + 1.0) / 2.0)[..., None]
    image = (1.0 - mix) * sky + mix * ground
    image = image + rng.normal(0.0, 0.02, size=(size, size, 3))
    return image


def _body_mask(
    instance: ObjectInstance, view_angle: float, size: int
) -> np.ndarray:
    """Binary mask of the object silhouette as seen from ``view_angle``."""
    ys, xs = _coordinate_grid(size)
    # Relative angle between the object's main axis and the camera.
    relative = instance.orientation - view_angle
    # Projected elongation: a long vehicle seen head-on looks short.
    projected = 1.0 + (instance.elongation - 1.0) * np.abs(np.cos(relative))
    # People are vertical regardless of azimuth.
    if instance.class_name == "person":
        height = instance.size * 0.95
        width = instance.size * max(instance.elongation, 0.3)
        body = (np.abs(ys / height) ** 2 + np.abs(xs / width) ** 2) <= 1.0
        # Head: a smaller disc above the body.
        head = ((ys + height * 0.95) ** 2 + xs**2) <= (0.18 * instance.size) ** 2
        return body | head
    # Vehicles: rotated rectangle-ish super-ellipse plus a cabin bump.
    y_r, x_r = _rotate(ys, xs, relative * 0.25)
    half_height = instance.size * 0.45
    half_width = instance.size * 0.5 * projected / 2.0
    half_width = np.clip(half_width, 0.2, 0.95)
    body = (np.abs(y_r / half_height) ** 4 + np.abs(x_r / half_width) ** 4) <= 1.0
    if instance.class_name == "car":
        cabin = (np.abs((y_r + half_height * 0.6) / (half_height * 0.5)) ** 2
                 + np.abs(x_r / (half_width * 0.55)) ** 2) <= 1.0
        return body | cabin
    # Bus: taller body, add window band handled in colouring.
    tall = (np.abs((y_r + half_height * 0.4) / (half_height * 1.1)) ** 4
            + np.abs(x_r / half_width) ** 4) <= 1.0
    return body | tall


def spec_render_view(
    instance: ObjectInstance,
    view_angle: float,
    rng: np.random.Generator,
    noise_level: float = 0.04,
    blur: float = 0.0,
    brightness: float = 1.0,
    size: int = IMAGE_SIZE,
) -> np.ndarray:
    image = _background(rng, size)
    mask = _body_mask(instance, view_angle, size)

    texture_rng = np.random.default_rng(instance.texture_seed)
    shading = 0.85 + 0.3 * texture_rng.random((size, size, 1))
    color = instance.base_color.reshape(1, 1, 3) * shading
    image = np.where(mask[..., None], color, image)

    # Class-specific detail: windows for buses, wheels for vehicles.
    ys, xs = _coordinate_grid(size)
    if instance.class_name == "bus":
        window_band = mask & (ys < -instance.size * 0.25) & (ys > -instance.size * 0.7)
        image[window_band] = np.array([0.75, 0.85, 0.95])
    if instance.class_name in ("car", "bus"):
        wheel_y = instance.size * 0.42
        for wheel_x in (-instance.size * 0.35, instance.size * 0.35):
            wheel = ((ys - wheel_y) ** 2 + (xs - wheel_x) ** 2) <= (0.1 * instance.size) ** 2
            image[wheel & mask] = 0.05

    image = image * brightness
    if blur > 0:
        image = _box_blur(image, radius=int(round(blur)))
    image = image + rng.normal(0.0, noise_level, size=image.shape)
    image = np.clip(image, 0.0, 1.0)
    # Channels-first layout used by the NN substrate.
    return image.transpose(2, 0, 1)


def spec_blank_view(
    rng: Optional[np.random.Generator] = None,
    noise_level: float = 0.0,
    size: int = IMAGE_SIZE,
) -> np.ndarray:
    image = np.full((3, size, size), 0.5)
    if noise_level > 0 and rng is not None:
        image = np.clip(image + rng.normal(0.0, noise_level, size=image.shape), 0.0, 1.0)
    return image


def _box_blur(image: np.ndarray, radius: int) -> np.ndarray:
    """Simple box blur applied independently per channel."""
    if radius <= 0:
        return image
    kernel = 2 * radius + 1
    padded = np.pad(image, ((radius, radius), (radius, radius), (0, 0)), mode="edge")
    out = np.zeros_like(image)
    for dy in range(kernel):
        for dx in range(kernel):
            out += padded[dy : dy + image.shape[0], dx : dx + image.shape[1], :]
    return out / (kernel * kernel)


def spec_generate_mvmc(
    num_samples: int,
    profiles: Sequence[DeviceProfile] = DEFAULT_DEVICE_PROFILES,
    class_probabilities: Sequence[float] = DEFAULT_CLASS_PROBABILITIES,
    seed: int = 0,
    image_size: int = IMAGE_SIZE,
) -> MVMCDataset:
    if num_samples <= 0:
        raise ValueError("num_samples must be positive")
    rng = np.random.default_rng(seed)
    class_probabilities = np.asarray(class_probabilities, dtype=float)
    class_probabilities = class_probabilities / class_probabilities.sum()

    num_devices = len(profiles)
    images = np.zeros((num_samples, num_devices, 3, image_size, image_size))
    labels = np.zeros(num_samples, dtype=np.int64)
    device_labels = np.full((num_samples, num_devices), NOT_PRESENT_LABEL, dtype=np.int64)

    for sample_index in range(num_samples):
        label = int(rng.choice(len(CLASS_NAMES), p=class_probabilities))
        instance = sample_object(label, rng)
        labels[sample_index] = label

        visible = np.array(
            [rng.random() < profile.visibility[label] for profile in profiles]
        )
        if not visible.any():
            # Guarantee at least one view; pick the device most likely to see it.
            best = int(np.argmax([profile.visibility[label] for profile in profiles]))
            visible[best] = True

        for device_index, profile in enumerate(profiles):
            if visible[device_index]:
                images[sample_index, device_index] = spec_render_view(
                    instance,
                    profile.view_angle,
                    rng,
                    noise_level=profile.noise_level,
                    blur=profile.blur,
                    brightness=profile.brightness,
                    size=image_size,
                )
                device_labels[sample_index, device_index] = label
            else:
                images[sample_index, device_index] = spec_blank_view(
                    rng=rng, noise_level=0.01, size=image_size
                )

    return MVMCDataset(images, labels, device_labels, profiles=profiles)


# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #
SIZES = st.sampled_from([8, 16, 32])
SEEDS = st.integers(0, 2**32 - 1)
BLURS = st.sampled_from([0.0, 0.4, 1.0, 2.0])
NOISE = st.sampled_from([0.0, 0.01, 0.05, 0.2])
VISIBILITY = st.sampled_from([0.0, 0.0, 0.3, 0.9, 1.0])

default_subsets = st.lists(
    st.sampled_from(range(len(DEFAULT_DEVICE_PROFILES))), min_size=1, max_size=6, unique=True
).map(lambda indices: tuple(DEFAULT_DEVICE_PROFILES[index] for index in indices))

custom_profile = st.builds(
    DeviceProfile,
    name=st.just("custom"),
    view_angle=st.floats(-7.0, 7.0, allow_nan=False),
    noise_level=NOISE,
    blur=BLURS,
    brightness=st.floats(0.5, 1.2),
    visibility=st.tuples(VISIBILITY, VISIBILITY, VISIBILITY),
)
custom_profiles = st.lists(custom_profile, min_size=1, max_size=4).map(tuple)


# --------------------------------------------------------------------------- #
# Properties
# --------------------------------------------------------------------------- #
@settings(max_examples=60, deadline=None)
@given(
    num_samples=st.integers(1, 12),
    seed=SEEDS,
    size=SIZES,
    profiles=st.one_of(default_subsets, custom_profiles),
    class_probabilities=st.sampled_from([DEFAULT_CLASS_PROBABILITIES, (0.2, 0.5, 0.3), (1, 0, 0)]),
)
def test_generate_mvmc_equals_the_per_view_spec(
    num_samples, seed, size, profiles, class_probabilities
):
    expected = spec_generate_mvmc(
        num_samples, profiles, class_probabilities, seed=seed, image_size=size
    )
    actual = mvmc.generate_mvmc(
        num_samples, profiles, class_probabilities, seed=seed, image_size=size
    )
    np.testing.assert_array_equal(actual.images, expected.images)
    np.testing.assert_array_equal(actual.labels, expected.labels)
    np.testing.assert_array_equal(actual.device_labels, expected.device_labels)


@settings(max_examples=60, deadline=None)
@given(
    label=st.sampled_from(range(len(CLASS_NAMES))),
    seed=SEEDS,
    size=SIZES,
    view_angle=st.floats(-7.0, 7.0, allow_nan=False),
    noise_level=NOISE,
    blur=BLURS,
    brightness=st.floats(0.5, 1.2),
)
def test_one_render_view_call_equals_the_spec(
    label, seed, size, view_angle, noise_level, blur, brightness
):
    instance = sample_object(label, np.random.default_rng(seed))
    streams = [np.random.default_rng(seed + 1) for _ in range(2)]
    kwargs = dict(noise_level=noise_level, blur=blur, brightness=brightness, size=size)
    expected = spec_render_view(instance, view_angle, streams[0], **kwargs)
    actual = shapes.render_view(instance, view_angle, streams[1], **kwargs)
    np.testing.assert_array_equal(actual, expected)
    assert actual.shape == (3, size, size)
    assert streams[1].bit_generator.state == streams[0].bit_generator.state


@settings(max_examples=30, deadline=None)
@given(seed=SEEDS, size=SIZES, noise_level=NOISE, with_rng=st.booleans())
def test_one_blank_view_call_equals_the_spec(seed, size, noise_level, with_rng):
    streams = [np.random.default_rng(seed) if with_rng else None for _ in range(2)]
    expected = spec_blank_view(streams[0], noise_level=noise_level, size=size)
    actual = shapes.blank_view(streams[1], noise_level=noise_level, size=size)
    np.testing.assert_array_equal(actual, expected)
    if with_rng:
        assert streams[1].bit_generator.state == streams[0].bit_generator.state


@settings(max_examples=25, deadline=None)
@given(
    train=st.integers(1, 8),
    test=st.integers(1, 5),
    seed=SEEDS,
    size=SIZES,
    profiles=default_subsets,
)
def test_load_mvmc_splits_equals_the_spec_split(train, test, seed, size, profiles):
    """The splits are the spec's combined draw, permuted by ``seed + 1``."""
    combined = spec_generate_mvmc(train + test, profiles, seed=seed, image_size=size)
    order = np.random.default_rng(seed + 1).permutation(train + test)
    splits = mvmc.load_mvmc_splits(train, test, profiles=profiles, seed=seed, image_size=size)
    for split, rows in zip(splits, (order[:train], order[train:])):
        expected = combined.subset(rows)
        np.testing.assert_array_equal(split.images, expected.images)
        np.testing.assert_array_equal(split.labels, expected.labels)
        np.testing.assert_array_equal(split.device_labels, expected.device_labels)
