"""Reverse-mode automatic differentiation on NumPy arrays.

This module provides the :class:`Tensor` class, the foundation of the
``repro.nn`` deep-learning substrate.  A ``Tensor`` wraps a ``numpy.ndarray``
and records the operations applied to it so that gradients can be computed
with a single call to :meth:`Tensor.backward`.

The design mirrors the small, explicit style of micrograd-like engines but
operates on whole arrays: every primitive operation builds a node in a
directed acyclic graph and stores a closure that propagates the upstream
gradient to its parents.  Broadcasting is handled by summing gradients back
to the original operand shapes.

Only the primitives required by the DDNN reproduction are implemented here;
convolution, pooling and other structured operations live in
:mod:`repro.nn.functional` and register themselves through the same
mechanism (:meth:`Tensor._make_from_op`).
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]

__all__ = ["Tensor", "no_grad", "is_grad_enabled"]


class _GradMode:
    """Process-wide switch used by :func:`no_grad` to disable graph recording."""

    enabled: bool = True


class no_grad:
    """Context manager that disables gradient tracking.

    Useful during inference and evaluation where building the autodiff graph
    would only waste memory.

    Example
    -------
    >>> with no_grad():
    ...     logits = model(x)
    """

    def __enter__(self) -> "no_grad":
        self._previous = _GradMode.enabled
        _GradMode.enabled = False
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        _GradMode.enabled = self._previous


def is_grad_enabled() -> bool:
    """Return ``True`` if operations are currently recorded for autodiff."""
    return _GradMode.enabled


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over broadcast dimensions so it matches ``shape``."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over dimensions that were 1 in the original shape.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _as_array(value: ArrayLike, dtype=np.float64) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=dtype)


class Tensor:
    """A NumPy-backed array with reverse-mode automatic differentiation.

    Parameters
    ----------
    data:
        Array-like payload.  It is converted to ``float64`` by default,
        which keeps numerical gradient checks tight.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: Optional[str] = None,
    ) -> None:
        self.data: np.ndarray = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad)
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()
        self.name = name

    # ------------------------------------------------------------------ #
    # Basic introspection
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------ #
    # Graph construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _make_from_op(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create a result tensor for an operation.

        ``backward`` receives the upstream gradient and is responsible for
        calling :meth:`_accumulate_grad` on each parent that requires it.
        """
        requires_grad = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires_grad)
        if requires_grad:
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate_grad(self, grad: np.ndarray) -> None:
        grad = _unbroadcast(np.asarray(grad, dtype=self.data.dtype), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate through the graph rooted at this tensor.

        Parameters
        ----------
        grad:
            Upstream gradient.  Defaults to ``1`` which is only valid for
            scalar tensors (e.g. a loss value).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar tensors")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)

        topo: List[Tensor] = []
        visited = set()

        def build(node: "Tensor") -> None:
            if id(node) in visited:
                return
            visited.add(id(node))
            for parent in node._parents:
                build(parent)
            topo.append(node)

        build(self)
        self._accumulate_grad(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------ #
    # Elementwise arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: ArrayLike) -> "Tensor":
        other_t = _ensure_tensor(other)
        data = self.data + other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_grad(grad)
            if other_t.requires_grad:
                other_t._accumulate_grad(grad)

        return Tensor._make_from_op(data, (self, other_t), backward)

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return self.__add__(other)

    def __neg__(self) -> "Tensor":
        data = -self.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_grad(-grad)

        return Tensor._make_from_op(data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self.__add__(_ensure_tensor(other).__neg__())

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return _ensure_tensor(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other_t = _ensure_tensor(other)
        data = self.data * other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_grad(grad * other_t.data)
            if other_t.requires_grad:
                other_t._accumulate_grad(grad * self.data)

        return Tensor._make_from_op(data, (self, other_t), backward)

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other_t = _ensure_tensor(other)
        data = self.data / other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_grad(grad / other_t.data)
            if other_t.requires_grad:
                other_t._accumulate_grad(-grad * self.data / (other_t.data ** 2))

        return Tensor._make_from_op(data, (self, other_t), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return _ensure_tensor(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_grad(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make_from_op(data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Elementwise math
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_grad(grad * data)

        return Tensor._make_from_op(data, (self,), backward)

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_grad(grad / self.data)

        return Tensor._make_from_op(data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_grad(grad * mask)

        return Tensor._make_from_op(data, (self,), backward)

    def sign_ste(self, clip_value: float = 1.0) -> "Tensor":
        """Binarize to {-1, +1} with a straight-through estimator.

        Forward: ``sign(x)`` mapping zero to ``+1``.  Backward: the gradient
        passes through unchanged where ``|x| <= clip_value`` and is zeroed
        elsewhere, following the BinaryConnect / BNN training recipe.
        """
        data = np.where(self.data >= 0, 1.0, -1.0)
        mask = np.abs(self.data) <= clip_value

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_grad(grad * mask)

        return Tensor._make_from_op(data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            grad_arr = np.asarray(grad)
            if axis is None:
                expanded = np.broadcast_to(grad_arr, self.data.shape)
            else:
                if not keepdims:
                    grad_arr = np.expand_dims(grad_arr, axis=axis)
                expanded = np.broadcast_to(grad_arr, self.data.shape)
            self._accumulate_grad(expanded)

        return Tensor._make_from_op(data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # ------------------------------------------------------------------ #
    # Shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)
        original_shape = self.data.shape

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_grad(np.asarray(grad).reshape(original_shape))

        return Tensor._make_from_op(data, (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        data = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_grad(np.asarray(grad).transpose(inverse))

        return Tensor._make_from_op(data, (self,), backward)

    def flatten(self, start_dim: int = 1) -> "Tensor":
        """Flatten all dimensions from ``start_dim`` onward."""
        leading = self.data.shape[:start_dim]
        return self.reshape(*leading, -1)

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            full = np.zeros_like(self.data)
            np.add.at(full, index, np.asarray(grad))
            self._accumulate_grad(full)

        return Tensor._make_from_op(data, (self,), backward)

    # ------------------------------------------------------------------ #
    # Linear algebra
    # ------------------------------------------------------------------ #
    def matmul(self, other: ArrayLike) -> "Tensor":
        other_t = _ensure_tensor(other)
        data = self.data @ other_t.data

        def backward(grad: np.ndarray) -> None:
            grad_arr = np.asarray(grad)
            if self.requires_grad:
                self._accumulate_grad(grad_arr @ other_t.data.T)
            if other_t.requires_grad:
                other_t._accumulate_grad(self.data.T @ grad_arr)

        return Tensor._make_from_op(data, (self, other_t), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        return self.matmul(other)

def _ensure_tensor(value: ArrayLike) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def concatenate(tensors: Iterable[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support."""
    tensor_list = [_ensure_tensor(t) for t in tensors]
    if not tensor_list:
        raise ValueError("concatenate() requires at least one tensor")
    data = np.concatenate([t.data for t in tensor_list], axis=axis)
    sizes = [t.data.shape[axis] for t in tensor_list]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        grad_arr = np.asarray(grad)
        for tensor, start, stop in zip(tensor_list, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                slicer = [slice(None)] * grad_arr.ndim
                slicer[axis] = slice(int(start), int(stop))
                tensor._accumulate_grad(grad_arr[tuple(slicer)])

    return Tensor._make_from_op(data, tensor_list, backward)


def maximum(tensors: Sequence[Tensor]) -> Tensor:
    """Elementwise maximum over a sequence of same-shaped tensors.

    Gradient flows to the (first-listed in case of exact ties, split equally)
    tensors that attain the maximum, mirroring max-pooling aggregation.
    """
    tensor_list = [_ensure_tensor(t) for t in tensors]
    if not tensor_list:
        raise ValueError("maximum() requires at least one tensor")
    stacked = np.stack([t.data for t in tensor_list], axis=0)
    data = stacked.max(axis=0)
    mask = (stacked == data[None, ...]).astype(stacked.dtype)
    mask = mask / mask.sum(axis=0, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        grad_arr = np.asarray(grad)
        for index, tensor in enumerate(tensor_list):
            if tensor.requires_grad:
                tensor._accumulate_grad(grad_arr * mask[index])

    return Tensor._make_from_op(data, tensor_list, backward)
