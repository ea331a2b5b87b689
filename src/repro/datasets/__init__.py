"""Dataset substrates for the DDNN reproduction."""

from .mvmc import (
    DEFAULT_CLASS_PROBABILITIES,
    DEFAULT_DEVICE_PROFILES,
    DeviceProfile,
    MVMCDataset,
    MVMCSample,
    class_distribution_per_device,
    generate_mvmc,
    load_mvmc_splits,
)
from .shapes import (
    CLASS_NAMES,
    CLASS_TO_INDEX,
    IMAGE_SIZE,
    NOT_PRESENT_LABEL,
    ObjectInstance,
    blank_view,
    render_view,
    sample_object,
)

__all__ = [
    "DeviceProfile",
    "DEFAULT_DEVICE_PROFILES",
    "DEFAULT_CLASS_PROBABILITIES",
    "MVMCDataset",
    "MVMCSample",
    "generate_mvmc",
    "load_mvmc_splits",
    "class_distribution_per_device",
    "CLASS_NAMES",
    "CLASS_TO_INDEX",
    "IMAGE_SIZE",
    "NOT_PRESENT_LABEL",
    "ObjectInstance",
    "sample_object",
    "render_view",
    "blank_view",
]
