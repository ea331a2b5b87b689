"""Baseline systems the paper compares DDNN against."""

from .cloud_only import CloudOnlyBaseline
from .individual import IndividualDeviceModel, individual_accuracies, train_individual_model

__all__ = [
    "IndividualDeviceModel",
    "train_individual_model",
    "individual_accuracies",
    "CloudOnlyBaseline",
]
