"""Procedural sprite renderers for the synthetic multi-view multi-camera dataset.

The original MVMC dataset (Roig et al. multi-camera data, repackaged by the
DDNN authors) is no longer downloadable, so the reproduction generates
synthetic 32x32 RGB views with the same structure: three object categories
(car, bus, person) observed simultaneously by six cameras from different
azimuths, with per-camera visibility and image-quality differences.

Each renderer draws a crude but parameterised silhouette of its category.
What matters for the DDNN experiments is not photo-realism but that:

* views of the same sample share object parameters (colour, size, pose) so
  cross-device feature aggregation genuinely helps;
* different azimuths produce different projections (aspect ratio, visible
  parts) so per-device features differ;
* the categories are separable by a small CNN but not trivially so once
  noise, blur and occlusion are applied.

One renderer draws every view: it renders all of a sample's visible views
in one array pass (the coordinate grid, gradient and object texture computed
once, the per-camera masks, brightness, blur, noise and clipping broadcast
over the views), and :func:`render_view` / :func:`blank_view` are its
one-view calls.

**Random stream.**  A view's pixel noise comes from the caller's generator
as standard normals: a rendered view takes ``2 * 3 * size**2`` — the
background's, then the sensor's, each in ``(size, size, 3)`` order — and a
noisy blank frame ``3 * size**2`` in ``(3, size, size)`` order; the object
texture comes from a generator of its own (``texture_seed``).
``Generator.normal(0, s, n)`` is ``0.0 + s * z`` over the stream's next
``n`` standard normals ``z``, so drawing the ``z`` in that order — per call
here, or as one block for a whole sample in
:func:`~repro.datasets.mvmc.generate_mvmc` — and scaling each slice the same
way gives, bit for bit, the noise of one ``rng.normal`` call per view.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "IMAGE_SIZE",
    "CLASS_NAMES",
    "CLASS_TO_INDEX",
    "NOT_PRESENT_LABEL",
    "ObjectInstance",
    "sample_object",
    "render_view",
    "blank_view",
]

IMAGE_SIZE = 32
CLASS_NAMES = ("car", "bus", "person")
CLASS_TO_INDEX = {name: index for index, name in enumerate(CLASS_NAMES)}
#: Label used in the original dataset for "object not present in this frame".
NOT_PRESENT_LABEL = -1


@dataclass
class ObjectInstance:
    """Camera-independent description of one physical object.

    The same instance is rendered by every camera (device) that sees it, so
    all attributes here are shared across views of a sample.
    """

    label: int
    base_color: np.ndarray  # (3,) in [0, 1]
    size: float  # relative size in [0.6, 1.0]
    elongation: float  # how stretched the object is along its main axis
    orientation: float  # azimuth of the object itself, radians
    texture_seed: int

    @property
    def class_name(self) -> str:
        return CLASS_NAMES[self.label]


# Category priors: (color palette mean, size range, elongation range)
_CATEGORY_PRIORS: Dict[str, Dict[str, tuple]] = {
    "car": {
        "color_mean": (0.65, 0.15, 0.15),
        "size": (0.55, 0.75),
        "elongation": (1.6, 2.2),
    },
    "bus": {
        "color_mean": (0.85, 0.75, 0.15),
        "size": (0.85, 1.0),
        "elongation": (2.4, 3.2),
    },
    "person": {
        "color_mean": (0.2, 0.3, 0.8),
        "size": (0.45, 0.7),
        "elongation": (0.35, 0.5),
    },
}


def sample_object(label: int, rng: np.random.Generator) -> ObjectInstance:
    """Draw a random object instance of the given class."""
    name = CLASS_NAMES[label]
    priors = _CATEGORY_PRIORS[name]
    color = np.clip(np.asarray(priors["color_mean"]) + rng.normal(0.0, 0.12, size=3), 0.05, 0.95)
    size = rng.uniform(*priors["size"])
    elongation = rng.uniform(*priors["elongation"])
    orientation = rng.uniform(0.0, 2.0 * np.pi)
    return ObjectInstance(
        label=label,
        base_color=color,
        size=size,
        elongation=elongation,
        orientation=orientation,
        texture_seed=int(rng.integers(0, 2**31 - 1)),
    )


@lru_cache(maxsize=8)
def _canvas(size: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(ys, xs, gradient)`` for one image size: the normalised coordinate grid in
    [-1, 1] and the sky/ground gradient every background starts from.  They
    depend on nothing but the size, so each size computes them once (the
    arrays are read-only)."""
    ys, xs = np.mgrid[0:size, 0:size]
    ys = (ys - size / 2 + 0.5) / (size / 2)
    xs = (xs - size / 2 + 0.5) / (size / 2)
    sky = np.array([0.55, 0.65, 0.75])
    ground = np.array([0.35, 0.38, 0.33])
    mix = ((ys + 1.0) / 2.0)[..., None]
    gradient = (1.0 - mix) * sky + mix * ground
    for array in (ys, xs, gradient):
        array.flags.writeable = False
    return ys, xs, gradient


def _per_view(values) -> np.ndarray:
    """Per-view scalars as a ``(views, 1, 1)`` array broadcasting over images."""
    return np.asarray(values, dtype=np.float64).reshape(-1, 1, 1)


def _body_masks(instance: ObjectInstance, view_angles: Sequence[float], size: int) -> np.ndarray:
    """``(views, size, size)`` masks of the object's silhouette as seen from
    each of ``view_angles``.  The per-view scalars (projection, rotation) are
    computed one camera at a time with the scalar functions, the masks in one
    broadcast pass; a person's silhouette does not depend on the azimuth."""
    ys, xs, _ = _canvas(size)
    views = len(view_angles)
    # People are vertical regardless of azimuth.
    if instance.class_name == "person":
        height = instance.size * 0.95
        width = instance.size * max(instance.elongation, 0.3)
        body = (np.abs(ys / height) ** 2 + np.abs(xs / width) ** 2) <= 1.0
        # Head: a smaller disc above the body.
        head = ((ys + height * 0.95) ** 2 + xs**2) <= (0.18 * instance.size) ** 2
        return np.broadcast_to(body | head, (views, size, size))
    cos_a, sin_a, half_width = [], [], []
    for view_angle in view_angles:
        # Relative angle between the object's main axis and the camera.
        relative = instance.orientation - view_angle
        # Projected elongation: a long vehicle seen head-on looks short.
        projected = 1.0 + (instance.elongation - 1.0) * np.abs(np.cos(relative))
        cos_a.append(np.cos(relative * 0.25))
        sin_a.append(np.sin(relative * 0.25))
        half_width.append(min(max(instance.size * 0.5 * projected / 2.0, 0.2), 0.95))
    cos_a, sin_a, half_width = _per_view(cos_a), _per_view(sin_a), _per_view(half_width)
    # Vehicles: rotated rectangle-ish super-ellipse plus a cabin bump.
    y_r = ys * cos_a - xs * sin_a
    x_r = ys * sin_a + xs * cos_a
    half_height = instance.size * 0.45
    body = (np.abs(y_r / half_height) ** 4 + np.abs(x_r / half_width) ** 4) <= 1.0
    if instance.class_name == "car":
        cabin = (np.abs((y_r + half_height * 0.6) / (half_height * 0.5)) ** 2
                 + np.abs(x_r / (half_width * 0.55)) ** 2) <= 1.0
        return body | cabin
    # Bus: taller body, add window band handled in colouring.
    tall = (np.abs((y_r + half_height * 0.4) / (half_height * 1.1)) ** 4
            + np.abs(x_r / half_width) ** 4) <= 1.0
    return body | tall


def _box_blur(images: np.ndarray, views: Sequence[int], radius: int) -> None:
    """Box-blur ``images[views]`` (``(H, W, 3)`` each) in place, per channel,
    over edge-replicated borders; every pixel sums its window in the same
    (row, column) order, starting from zero."""
    kernel = 2 * radius + 1
    height, width, channels = images.shape[1:]
    rows = np.clip(np.arange(-radius, height + radius), 0, height - 1)
    columns = np.clip(np.arange(-radius, width + radius), 0, width - 1)
    padded = images.take(views, 0).take(rows, 1).take(columns, 2).reshape(len(views), -1)
    # Sums at every padded column of the first ``height`` rows: one window
    # offset is then one contiguous run of the flattened padded image, and
    # the ``2 * radius`` columns a row's run spills into are dropped below
    # (the last row's are never summed: the padded image ends there).
    stride = (width + 2 * radius) * channels
    run = height * stride - 2 * radius * channels
    out = np.zeros((len(views), height * stride))
    for dy in range(kernel):
        for dx in range(kernel):
            start = dy * stride + dx * channels
            out[:, :run] += padded[:, start : start + run]
    out = out.reshape(len(views), height, width + 2 * radius, channels)[:, :, :width]
    images[views] = out / (kernel * kernel)


def _render_views(
    instance: ObjectInstance,
    view_angles: Sequence[float],
    noise_levels: Sequence[float],
    blurs: Sequence[float],
    brightnesses: Sequence[float],
    noise: np.ndarray,
    size: int,
) -> np.ndarray:
    """Render one object as seen by several cameras, in one array pass.

    ``noise`` holds ``(views, 2, size, size, 3)`` standard normals: per view
    the background's, then the sensor's.  They are scaled here as
    ``rng.normal(0, s)`` scales its draws (``0.0 + s * z``, element by
    element), so a caller that draws them as one block in the order the
    per-view calls would have drawn them gets the images those calls made.
    Returns ``(views, 3, size, size)`` images in ``[0, 1]``.
    """
    ys, xs, gradient = _canvas(size)
    # Ground/sky style gradient background with mild per-pixel noise.
    image = 0.02 * noise[:, 0]
    image += 0.0  # rng.normal adds its loc 0.0 too: it turns a -0.0 into +0.0
    image += gradient
    masks = _body_masks(instance, view_angles, size)

    texture_rng = np.random.default_rng(instance.texture_seed)
    shading = 0.85 + 0.3 * texture_rng.random((size, size, 1))
    color = instance.base_color.reshape(1, 1, 3) * shading
    np.copyto(image, color, where=masks[..., None])

    # Class-specific detail: windows for buses, wheels for vehicles.
    if instance.class_name == "bus":
        band = (ys < -instance.size * 0.25) & (ys > -instance.size * 0.7)
        image[masks & band] = np.array([0.75, 0.85, 0.95])
    if instance.class_name in ("car", "bus"):
        wheel_y = instance.size * 0.42
        for wheel_x in (-instance.size * 0.35, instance.size * 0.35):
            wheel = ((ys - wheel_y) ** 2 + (xs - wheel_x) ** 2) <= (0.1 * instance.size) ** 2
            image[masks & wheel] = 0.05

    image *= _per_view(brightnesses)[..., None]
    radii = [int(round(blur)) if blur > 0 else 0 for blur in blurs]
    for radius in set(radii) - {0}:
        _box_blur(image, [index for index, each in enumerate(radii) if each == radius], radius)
    sensor = _per_view(noise_levels)[..., None] * noise[:, 1]
    sensor += 0.0
    image += sensor
    np.clip(image, 0.0, 1.0, out=image)
    # Channels-first layout used by the NN substrate.
    return image.transpose(0, 3, 1, 2)


def _blank_views(noise: np.ndarray, noise_level: float) -> np.ndarray:
    """Grey frames plus ``noise_level`` times the ``(views, 3, H, W)``
    standard normals ``noise``, scaled as ``rng.normal`` scales its draws."""
    return np.clip(0.5 + (0.0 + noise_level * noise), 0.0, 1.0)


def render_view(
    instance: ObjectInstance,
    view_angle: float,
    rng: np.random.Generator,
    noise_level: float = 0.04,
    blur: float = 0.0,
    brightness: float = 1.0,
    size: int = IMAGE_SIZE,
) -> np.ndarray:
    """Render one camera's 32x32 RGB view of an object instance.

    Parameters
    ----------
    instance:
        The shared object description.
    view_angle:
        Camera azimuth in radians.
    rng:
        Random generator for noise (per-view): the view takes ``2 * 3 *
        size**2`` standard normals from it, the background's then the
        sensor's, each ``(size, size, 3)``.
    noise_level, blur, brightness:
        Camera-quality parameters; devices with worse cameras get more noise,
        more blur and poorer exposure, which spreads their individual
        accuracies as in the paper's Figure 8.

    Returns
    -------
    Image array of shape ``(3, size, size)`` with values in ``[0, 1]``.
    """
    noise = rng.standard_normal((1, 2, size, size, 3))
    return _render_views(
        instance, [view_angle], [noise_level], [blur], [brightness], noise, size
    )[0]


def blank_view(
    rng: Optional[np.random.Generator] = None,
    noise_level: float = 0.0,
    size: int = IMAGE_SIZE,
) -> np.ndarray:
    """An all-grey frame denoting that the object is not visible to a camera.

    The paper uses blank (grey) images with label -1 for devices in which a
    given object does not appear.  With ``rng`` and a positive
    ``noise_level`` it adds sensor noise: ``3 * size**2`` standard normals,
    drawn in ``(3, size, size)`` order.
    """
    if noise_level > 0 and rng is not None:
        return _blank_views(rng.standard_normal((1, 3, size, size)), noise_level)[0]
    return np.full((3, size, size), 0.5)
