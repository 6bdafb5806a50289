"""Reverse-mode automatic differentiation on numpy arrays.

A :class:`Tensor` wraps a ``numpy.ndarray`` and records the operations
applied to it in a dynamic computation graph.  Calling
:meth:`Tensor.backward` on a scalar result walks the graph in reverse
topological order and accumulates gradients into every tensor created
with ``requires_grad=True``.

Only the operator set the HisRES model needs is implemented, but each
operator supports full numpy broadcasting and is validated against
finite differences in the test-suite.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from repro._obshook import profiled

Scalar = Union[int, float]
ArrayLike = Union["Tensor", np.ndarray, Scalar, Sequence]

# Grad mode is THREAD-LOCAL (as in PyTorch): a threaded server runs
# concurrent no_grad() inference on worker threads, and a process-global
# flag would let their save/restore pairs interleave — the last exit
# could restore another thread's "disabled" snapshot, permanently
# turning gradients off for the whole process.
_GRAD_STATE = threading.local()

# ----------------------------------------------------------------------
# default dtype
# ----------------------------------------------------------------------
# Every tensor the engine creates is cast to the process-wide default
# dtype.  float64 (the historical behaviour) is kept as the default so
# gradcheck stays exact; float32 halves memory traffic on the training
# and serving hot paths.
_ALLOWED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))
_DEFAULT_DTYPE = np.dtype(np.float64)


def get_default_dtype() -> np.dtype:
    """Return the dtype new tensors are created with."""
    return _DEFAULT_DTYPE


def set_default_dtype(dtype) -> np.dtype:
    """Set the engine-wide tensor dtype (``float32`` or ``float64``).

    Affects tensor creation, initialisers, and gradient accumulation.
    Existing tensors keep their dtype.  Returns the previous default.
    """
    global _DEFAULT_DTYPE
    resolved = np.dtype(dtype)
    if resolved not in _ALLOWED_DTYPES:
        raise ValueError(
            f"unsupported default dtype {dtype!r}; expected float32 or float64"
        )
    previous = _DEFAULT_DTYPE
    _DEFAULT_DTYPE = resolved
    return previous


@contextlib.contextmanager
def default_dtype(dtype):
    """Context manager that temporarily switches the default dtype."""
    previous = set_default_dtype(dtype)
    try:
        yield
    finally:
        set_default_dtype(previous)


def is_grad_enabled() -> bool:
    """Return whether gradient recording is active on this thread."""
    return getattr(_GRAD_STATE, "enabled", True)


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph construction (inference mode).

    The flag is per-thread, so concurrent inference threads cannot
    clobber each other's (or a training thread's) grad mode.
    """
    previous = is_grad_enabled()
    _GRAD_STATE.enabled = False
    try:
        yield
    finally:
        _GRAD_STATE.enabled = previous


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing broadcast dimensions."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value: ArrayLike) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=_DEFAULT_DTYPE)


def ensure_tensor(value: ArrayLike) -> "Tensor":
    """Coerce numbers/arrays to a constant :class:`Tensor`."""
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=_DEFAULT_DTYPE))


def scatter_rows_add(out: np.ndarray, indices: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Accumulate ``values`` rows into ``out`` at ``indices``, buffered.

    Drop-in replacement for ``np.add.at(out, indices, values)`` along
    axis 0, built on a stable sort + ``np.add.reduceat`` so duplicate
    indices are reduced in one buffered pass instead of numpy's slow
    unbuffered per-element loop.  Mutates and returns ``out``.
    """
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size == 0:
        return out
    if indices.size == 1:
        out[indices[0]] += values[0] if values.ndim == out.ndim else values
        return out
    order = np.argsort(indices, kind="stable")
    counts = np.bincount(indices, minlength=out.shape[0])
    nonempty = counts > 0
    starts = np.concatenate([[0], np.cumsum(counts)])[:-1][nonempty]
    out[nonempty] += np.add.reduceat(np.asarray(values)[order], starts, axis=0)
    return out


class Tensor:
    """An n-dimensional array with reverse-mode automatic differentiation."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name", "_grad_sink")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: Optional[str] = None,
    ):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=_DEFAULT_DTYPE)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: tuple = ()
        self.name = name

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4, threshold=8)}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (no copy)."""
        return self.data

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError("item() requires a single-element tensor")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data)

    def copy(self) -> "Tensor":
        """Return a constant tensor with copied data."""
        return Tensor(self.data.copy())

    # ------------------------------------------------------------------
    # graph construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Iterable["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        parents = tuple(parents)
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data)
        out.requires_grad = requires
        if requires:
            out._parents = tuple(p for p in parents if p.requires_grad)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad.astype(self.data.dtype, copy=True)
        else:
            self.grad += grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor.

        If ``grad`` is omitted the tensor must be scalar and the seed
        gradient is 1.0.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.size != 1:
                raise RuntimeError("grad must be provided for non-scalar tensors")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(topo):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node._backward is None:
                node._accumulate(node_grad)
                continue
            # Leaf-style accumulation also applies to interior nodes that
            # someone retained; cheap because grad is usually unused there.
            node._backward_dispatch(node_grad, grads)

    def _backward_dispatch(self, node_grad: np.ndarray, grads: dict) -> None:
        # _backward closures stash parent grads via this hook.
        self._grad_sink = grads  # type: ignore[attr-defined]
        try:
            self._backward(node_grad)  # type: ignore[misc]
        finally:
            del self._grad_sink  # type: ignore[attr-defined]

    # The closures below cannot see ``grads`` directly, so they call
    # ``_send`` on the output tensor which routes into the active sink.
    def _send(self, parent: "Tensor", grad: np.ndarray) -> None:
        sink = getattr(self, "_grad_sink", None)
        if sink is None:  # pragma: no cover - defensive
            parent._accumulate(grad)
            return
        key = id(parent)
        if key in sink:
            sink[key] += grad
        else:
            sink[key] = np.asarray(grad, dtype=parent.data.dtype).copy()

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = ensure_tensor(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                out._send(self, _unbroadcast(grad, self.shape))
            if other.requires_grad:
                out._send(other, _unbroadcast(grad, other.shape))

        out = Tensor._make(out_data, (self, other), backward)
        return out

    __radd__ = __add__

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = ensure_tensor(other)
        out_data = self.data - other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                out._send(self, _unbroadcast(grad, self.shape))
            if other.requires_grad:
                out._send(other, _unbroadcast(-grad, other.shape))

        out = Tensor._make(out_data, (self, other), backward)
        return out

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return ensure_tensor(other) - self

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = ensure_tensor(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                out._send(self, _unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                out._send(other, _unbroadcast(grad * self.data, other.shape))

        out = Tensor._make(out_data, (self, other), backward)
        return out

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = ensure_tensor(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                out._send(self, _unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                out._send(
                    other,
                    _unbroadcast(-grad * self.data / (other.data**2), other.shape),
                )

        out = Tensor._make(out_data, (self, other), backward)
        return out

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return ensure_tensor(other) / self

    def __neg__(self) -> "Tensor":
        out_data = -self.data

        def backward(grad: np.ndarray) -> None:
            out._send(self, -grad)

        out = Tensor._make(out_data, (self,), backward)
        return out

    def __pow__(self, exponent: Scalar) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            out._send(self, grad * exponent * self.data ** (exponent - 1))

        out = Tensor._make(out_data, (self,), backward)
        return out

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = ensure_tensor(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            a, b = self.data, other.data
            if self.requires_grad:
                if b.ndim == 1:
                    grad_a = np.multiply.outer(grad, b) if a.ndim > 1 else grad * b
                elif a.ndim == 1:
                    grad_a = grad @ b.swapaxes(-1, -2)
                else:
                    grad_a = grad @ b.swapaxes(-1, -2)
                out._send(self, _unbroadcast(np.asarray(grad_a), self.shape))
            if other.requires_grad:
                if a.ndim == 1:
                    grad_b = np.multiply.outer(a, grad) if b.ndim > 1 else a * grad
                elif b.ndim == 1:
                    grad_b = (a.swapaxes(-1, -2) @ grad[..., None])[..., 0] if a.ndim > 2 else a.T @ grad
                else:
                    grad_b = a.swapaxes(-1, -2) @ grad
                out._send(other, _unbroadcast(np.asarray(grad_b), other.shape))

        out = Tensor._make(out_data, (self, other), backward)
        return out

    # ------------------------------------------------------------------
    # elementwise non-linearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            out._send(self, grad * out_data)

        out = Tensor._make(out_data, (self,), backward)
        return out

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            out._send(self, grad / self.data)

        out = Tensor._make(out_data, (self,), backward)
        return out

    def sqrt(self) -> "Tensor":
        return self**0.5

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            out._send(self, grad * (1.0 - out_data**2))

        out = Tensor._make(out_data, (self,), backward)
        return out

    def sigmoid(self) -> "Tensor":
        # two-branch form 1/(1+e) for x >= 0, e/(1+e) for x < 0, with
        # e = exp(-|x|): exp never overflows, and its underflow to 0 is
        # the exact saturated limit.  The numerator max(e, [x >= 0])
        # picks the branch without a data-dependent select.
        x = self.data
        e = np.abs(x, out=np.empty_like(x))
        np.negative(e, out=e)
        with np.errstate(under="ignore"):
            np.exp(e, out=e)
        out_data = np.greater_equal(x, 0, out=np.empty_like(e), casting="unsafe")
        np.maximum(e, out_data, out=out_data)
        np.add(e, 1.0, out=e)
        np.divide(out_data, e, out=out_data)

        def backward(grad: np.ndarray) -> None:
            out._send(self, grad * out_data * (1.0 - out_data))

        out = Tensor._make(out_data, (self,), backward)
        return out

    def cos(self) -> "Tensor":
        out_data = np.cos(self.data)

        def backward(grad: np.ndarray) -> None:
            out._send(self, -grad * np.sin(self.data))

        out = Tensor._make(out_data, (self,), backward)
        return out

    def sin(self) -> "Tensor":
        out_data = np.sin(self.data)

        def backward(grad: np.ndarray) -> None:
            out._send(self, grad * np.cos(self.data))

        out = Tensor._make(out_data, (self,), backward)
        return out

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            out._send(self, grad * mask)

        out = Tensor._make(out_data, (self,), backward)
        return out

    def leaky_relu(self, negative_slope: float = 0.01) -> "Tensor":
        slope = np.where(self.data > 0, 1.0, negative_slope)
        out_data = self.data * slope

        def backward(grad: np.ndarray) -> None:
            out._send(self, grad * slope)

        out = Tensor._make(out_data, (self,), backward)
        return out

    def clamp(self, min_value: Optional[float] = None, max_value: Optional[float] = None) -> "Tensor":
        out_data = np.clip(self.data, min_value, max_value)
        mask = np.ones_like(self.data)
        if min_value is not None:
            mask = mask * (self.data >= min_value)
        if max_value is not None:
            mask = mask * (self.data <= max_value)

        def backward(grad: np.ndarray) -> None:
            out._send(self, grad * mask)

        out = Tensor._make(out_data, (self,), backward)
        return out

    def abs(self) -> "Tensor":
        out_data = np.abs(self.data)
        sign = np.sign(self.data)

        def backward(grad: np.ndarray) -> None:
            out._send(self, grad * sign)

        out = Tensor._make(out_data, (self,), backward)
        return out

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                for ax in sorted(a % self.ndim for a in axes):
                    g = np.expand_dims(g, ax)
            out._send(self, np.broadcast_to(g, self.shape).copy())

        out = Tensor._make(out_data, (self,), backward)
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = 1
            for ax in axes:
                count *= self.shape[ax]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = np.asarray(grad)
            expanded = self.data.max(axis=axis, keepdims=True)
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                for ax in sorted(a % self.ndim for a in axes):
                    g = np.expand_dims(g, ax)
            mask = self.data == expanded
            # Split gradient equally among ties to keep the check exact.
            counts = mask.sum(axis=axis, keepdims=True)
            out._send(self, np.broadcast_to(g, self.shape) * mask / counts)

        out = Tensor._make(out_data, (self,), backward)
        return out

    # ------------------------------------------------------------------
    # shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            out._send(self, grad.reshape(self.shape))

        out = Tensor._make(out_data, (self,), backward)
        return out

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        out_data = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward(grad: np.ndarray) -> None:
            out._send(self, grad.transpose(inverse))

        out = Tensor._make(out_data, (self,), backward)
        return out

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            out._send(self, full)

        out = Tensor._make(out_data, (self,), backward)
        return out

    # ------------------------------------------------------------------
    # indexing primitives for graph aggregation
    # ------------------------------------------------------------------
    def index_select(self, indices: np.ndarray) -> "Tensor":
        """Gather rows along axis 0 (embedding lookup)."""
        indices = np.asarray(indices, dtype=np.int64)
        out_data = self.data[indices]

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            scatter_rows_add(full, indices.reshape(-1), grad.reshape((-1,) + self.shape[1:]))
            out._send(self, full)

        out = Tensor._make(out_data, (self,), backward)
        return out

    def scatter_add(self, indices: np.ndarray, source: "Tensor") -> "Tensor":
        """Return a copy of ``self`` with ``source`` rows added at ``indices``.

        Kept for operator parity; graph aggregation hot paths should use
        the fused ops in :mod:`repro.nn.segment`, which reuse a cached
        sorted-edge layout instead of re-sorting per call.
        """
        indices = np.asarray(indices, dtype=np.int64)
        source = ensure_tensor(source)
        out_data = self.data.copy()
        scatter_rows_add(out_data, indices, source.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                out._send(self, grad)
            if source.requires_grad:
                out._send(source, grad[indices])

        out = Tensor._make(out_data, (self, source), backward)
        return out

    # comparisons produce constant tensors (no gradient)
    def __gt__(self, other: ArrayLike) -> np.ndarray:
        return self.data > _as_array(other)

    def __lt__(self, other: ArrayLike) -> np.ndarray:
        return self.data < _as_array(other)

    def __ge__(self, other: ArrayLike) -> np.ndarray:
        return self.data >= _as_array(other)

    def __le__(self, other: ArrayLike) -> np.ndarray:
        return self.data <= _as_array(other)


@profiled("concat")
def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    tensors = [ensure_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(start, stop)
                out._send(tensor, grad[tuple(slicer)])

    out = Tensor._make(out_data, tensors, backward)
    return out


@profiled("stack")
def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` with gradient routing."""
    tensors = [ensure_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        moved = np.moveaxis(grad, axis, 0)
        for i, tensor in enumerate(tensors):
            if tensor.requires_grad:
                out._send(tensor, moved[i])

    out = Tensor._make(out_data, tensors, backward)
    return out


@profiled("where")
def where(condition: np.ndarray, a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise select with gradients flowing to both branches."""
    condition = np.asarray(condition, dtype=bool)
    a = ensure_tensor(a)
    b = ensure_tensor(b)
    out_data = np.where(condition, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            out._send(a, _unbroadcast(grad * condition, a.shape))
        if b.requires_grad:
            out._send(b, _unbroadcast(grad * ~condition, b.shape))

    out = Tensor._make(out_data, (a, b), backward)
    return out
