"""``repro.nn`` — a self-contained NumPy deep-learning substrate.

The DDNN reproduction does not depend on an external deep-learning framework.
This package holds what the paper's models are built and trained from: a
reverse-mode autodiff tensor; the float conv/linear/max-pool/BatchNorm/ReLU
layers and their binary (BNN/eBNN) counterparts, fused into the ConvP and FC
blocks of Fig. 3; the joint multi-exit loss; the Adam optimiser; accuracy;
and ``.npz`` weight serialisation.
"""

from . import functional
from .binary import BinaryActivation, BinaryConv2d, BinaryLinear, binarize, binary_memory_bytes
from .blocks import ConvPBlock, FCBlock, block_memory_bytes
from .layers import (
    BatchNorm1d,
    BatchNorm2d,
    Conv2d,
    Flatten,
    Linear,
    MaxPool2d,
    Module,
    Parameter,
    ReLU,
    Sequential,
)
from .losses import joint_exit_loss, softmax_cross_entropy
from .metrics import accuracy
from .optim import Adam
from .serialization import load_module, load_state, save_module, save_state
from .tensor import Tensor, concatenate, is_grad_enabled, maximum, no_grad

__all__ = [
    "functional",
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "concatenate",
    "maximum",
    "Parameter",
    "Module",
    "Sequential",
    "Linear",
    "Conv2d",
    "MaxPool2d",
    "BatchNorm1d",
    "BatchNorm2d",
    "ReLU",
    "Flatten",
    "BinaryLinear",
    "BinaryConv2d",
    "BinaryActivation",
    "binarize",
    "binary_memory_bytes",
    "FCBlock",
    "ConvPBlock",
    "block_memory_bytes",
    "softmax_cross_entropy",
    "joint_exit_loss",
    "Adam",
    "accuracy",
    "save_state",
    "load_state",
    "save_module",
    "load_module",
]
