"""Reverse-mode automatic differentiation over NumPy arrays.

This module is the foundation the whole reproduction is built on: the paper's
models were implemented in PyTorch, which is unavailable in this environment,
so we provide a compatible (small) autograd engine.  A :class:`Tensor` wraps a
``numpy.ndarray`` together with an optional gradient and a record of the
operation that produced it.  Calling :meth:`Tensor.backward` walks the
recorded graph in reverse topological order and accumulates gradients into
every leaf tensor with ``requires_grad=True``.

Design notes
------------
- All operators are broadcasting-aware: gradients flowing into an input that
  was broadcast are summed back down to the input's shape
  (:func:`_unbroadcast`).
- The graph is dynamic (define-by-run) and freed after ``backward`` unless
  ``retain_graph=True`` is passed.
- Data is kept in ``float64`` by default for numerical robustness; the
  process-wide policy (:mod:`repro.tensor.dtype`) can switch storage to
  ``float32`` for speed, with reductions optionally accumulating in
  ``float64`` under the ``"mixed"`` policy.
- Every backward pass allocates fresh gradient buffers and frees interior
  ones as it goes; the process-wide allocator policy
  (:mod:`repro.tensor.malloc`) keeps those buffers in the heap between
  steps instead of returning them to the kernel.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .dtype import accum_dtype, default_dtype, resolve_dtype
from .grad_mode import _note_tape_node, is_grad_enabled

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]

# Historical module constant, kept for external references; the live default
# is policy-driven (see repro.tensor.dtype).
_DEFAULT_DTYPE = np.float64


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, inverting NumPy broadcasting.

    When ``a + b`` broadcasts ``b`` from shape ``shape`` up to ``grad.shape``,
    the gradient with respect to ``b`` is the sum of ``grad`` over every axis
    that was added or stretched.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were prepended by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were stretched from size 1.
    stretched = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if stretched:
        grad = grad.sum(axis=stretched, keepdims=True)
    return grad.reshape(shape)


def _as_array(value: ArrayLike, dtype=None) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    if dtype is not None:
        return np.asarray(value, dtype=dtype)
    arr = np.asarray(value)
    target = resolve_dtype(arr)
    return arr if arr.dtype == target else arr.astype(target)


def ensure_tensor(value: ArrayLike) -> "Tensor":
    """Coerce ``value`` to a :class:`Tensor` (no copy if already one)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


class Tensor:
    """A NumPy-backed array with reverse-mode autodiff.

    Parameters
    ----------
    data:
        Anything convertible to a ``numpy.ndarray``.
    requires_grad:
        If ``True``, operations on this tensor are recorded so that
        :meth:`backward` can compute ``d(output)/d(this)``.
    name:
        Optional label used in ``repr`` and error messages.
    dtype:
        Explicit storage dtype.  When omitted, floating inputs keep their
        dtype unless wider than the active policy's storage (never widened,
        narrowed when wider); other inputs are cast to the policy storage.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(self, data: ArrayLike, requires_grad: bool = False,
                 name: Optional[str] = None, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        if dtype is not None:
            arr = np.asarray(data, dtype=dtype)
        else:
            arr = np.asarray(data)
            target = resolve_dtype(arr)
            if arr.dtype != target:
                arr = arr.astype(target)
        self.data: np.ndarray = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = bool(requires_grad)
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def zeros(*shape: int, requires_grad: bool = False, dtype=None) -> "Tensor":
        # The resolved dtype is passed through explicitly so an explicit
        # ``dtype=`` survives even when it is wider than the policy storage.
        dtype = dtype or default_dtype()
        return Tensor(np.zeros(shape, dtype=dtype), requires_grad,
                      dtype=dtype)

    @staticmethod
    def ones(*shape: int, requires_grad: bool = False, dtype=None) -> "Tensor":
        dtype = dtype or default_dtype()
        return Tensor(np.ones(shape, dtype=dtype), requires_grad, dtype=dtype)

    @staticmethod
    def full(shape: Sequence[int], fill_value: float,
             requires_grad: bool = False, dtype=None) -> "Tensor":
        dtype = dtype or default_dtype()
        return Tensor(np.full(shape, fill_value, dtype=dtype), requires_grad,
                      dtype=dtype)

    @staticmethod
    def eye(n: int, requires_grad: bool = False, dtype=None) -> "Tensor":
        dtype = dtype or default_dtype()
        return Tensor(np.eye(n, dtype=dtype), requires_grad, dtype=dtype)

    @staticmethod
    def randn(*shape: int, rng: Optional[np.random.Generator] = None,
              requires_grad: bool = False, scale: float = 1.0,
              dtype=None) -> "Tensor":
        gen = rng if rng is not None else np.random.default_rng()
        # Draw in float64 then narrow: the RNG stream consumption (and thus
        # seed reproducibility across policies) is dtype-independent.
        values = gen.standard_normal(shape) * scale
        return Tensor(values, requires_grad, dtype=dtype or default_dtype())

    @staticmethod
    def uniform(*shape: int, low: float = 0.0, high: float = 1.0,
                rng: Optional[np.random.Generator] = None,
                requires_grad: bool = False, dtype=None) -> "Tensor":
        gen = rng if rng is not None else np.random.default_rng()
        values = gen.uniform(low, high, shape)
        return Tensor(values, requires_grad, dtype=dtype or default_dtype())

    # ------------------------------------------------------------------
    # basic introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
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

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def astype(self, dtype) -> "Tensor":
        """Return a detached copy cast to ``dtype``."""
        return Tensor(self.data.astype(dtype), requires_grad=False)

    def __repr__(self) -> str:
        label = f" name={self.name!r}" if self.name else ""
        grad = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad}{label})\n{self.data!r}"

    def __len__(self) -> int:
        return len(self.data)

    def __hash__(self) -> int:
        return id(self)

    # ------------------------------------------------------------------
    # graph construction
    # ------------------------------------------------------------------
    def _make_child(self, data: np.ndarray, parents: Tuple["Tensor", ...],
                    backward: Callable[[np.ndarray], None]) -> "Tensor":
        """Create an op output, recording history only when appropriate."""
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = parents
            out._backward = backward
            _note_tape_node()
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            # Gradients live in the tensor's own storage dtype.  The copy
            # also guarantees no backward closure's view of another node's
            # grad buffer survives in ``self.grad``.
            self.grad = grad.astype(self.data.dtype, copy=True)
        else:
            np.add(self.grad, grad, out=self.grad, casting="same_kind")

    def backward(self, grad: Optional[ArrayLike] = None,
                 retain_graph: bool = False) -> None:
        """Run reverse-mode autodiff from this tensor.

        Parameters
        ----------
        grad:
            Gradient of the final objective with respect to this tensor.
            Defaults to ``1.0`` for scalar tensors.
        retain_graph:
            Keep the recorded graph so ``backward`` may be called again.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not "
                               "require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be specified for non-scalar "
                                   f"tensors (shape={self.shape})")
            grad = np.ones_like(self.data)
        seed = _as_array(grad)
        if seed.shape != self.data.shape:
            seed = np.broadcast_to(seed, self.data.shape).copy()

        order = self._topological_order()
        # Interior nodes must start each backward pass with a clean slate;
        # only leaves accumulate across calls (PyTorch semantics).  Without
        # this, a second backward over a retained graph double-counts.
        for node in order:
            if node._parents:
                node.grad = None
        self._accumulate(seed)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            if not retain_graph and node is not self:
                # Interior gradients are not needed by callers; free them so
                # long training loops do not grow memory.
                if node._parents:
                    node.grad = None
            if not retain_graph:
                node._backward = None
                node._parents = ()

    def _topological_order(self) -> list:
        order: list = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        return order

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = ensure_tensor(other)
        data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        return self._make_child(data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return self._make_child(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-ensure_tensor(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return ensure_tensor(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = ensure_tensor(other)
        data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return self._make_child(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = ensure_tensor(other)
        data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(
                    -grad * self.data / (other.data ** 2), other.shape))

        return self._make_child(data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return ensure_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp/log")
        data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(
                    grad * exponent * self.data ** (exponent - 1))

        return self._make_child(data, (self,), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = ensure_tensor(other)
        data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            a, b = self.data, other.data
            if self.requires_grad:
                if b.ndim == 1:
                    # (..., n) @ (n,) -> (...,): grad_a = grad[..., None] * b
                    ga = np.expand_dims(grad, -1) * b
                elif a.ndim == 1:
                    # (n,) @ (n, m) -> (m,): grad_a = grad @ b.T
                    ga = grad @ np.swapaxes(b, -1, -2)
                else:
                    ga = grad @ np.swapaxes(b, -1, -2)
                self._accumulate(_unbroadcast(ga, a.shape))
            if other.requires_grad:
                if a.ndim == 1:
                    gb = np.outer(a, grad)
                elif b.ndim == 1:
                    gb = (np.swapaxes(a, -1, -2)
                          @ np.expand_dims(grad, -1)).squeeze(-1)
                else:
                    gb = np.swapaxes(a, -1, -2) @ grad
                other._accumulate(_unbroadcast(gb, b.shape))

        return self._make_child(data, (self, other), backward)

    def __rmatmul__(self, other: ArrayLike) -> "Tensor":
        return ensure_tensor(other) @ self

    # ------------------------------------------------------------------
    # elementwise functions
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * data)

        return self._make_child(data, (self,), backward)

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return self._make_child(data, (self,), backward)

    def sqrt(self) -> "Tensor":
        data = np.sqrt(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * 0.5 / data)

        return self._make_child(data, (self,), backward)

    def abs(self) -> "Tensor":
        data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * np.sign(self.data))

        return self._make_child(data, (self,), backward)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - data ** 2))

        return self._make_child(data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        # Numerically stable logistic.
        data = np.where(self.data >= 0,
                        1.0 / (1.0 + np.exp(-np.clip(self.data, -500, 500))),
                        np.exp(np.clip(self.data, -500, 500))
                        / (1.0 + np.exp(np.clip(self.data, -500, 500))))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * data * (1.0 - data))

        return self._make_child(data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return self._make_child(data, (self,), backward)

    def leaky_relu(self, negative_slope: float = 0.01) -> "Tensor":
        mask = self.data > 0
        data = np.where(mask, self.data, self.data * negative_slope)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * np.where(mask, 1.0, negative_slope))

        return self._make_child(data, (self,), backward)

    def elu(self, alpha: float = 1.0) -> "Tensor":
        mask = self.data > 0
        expm1 = alpha * np.expm1(np.minimum(self.data, 0.0))
        data = np.where(mask, self.data, expm1)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * np.where(mask, 1.0, expm1 + alpha))

        return self._make_child(data, (self,), backward)

    def clip(self, low: Optional[float] = None,
             high: Optional[float] = None) -> "Tensor":
        data = np.clip(self.data, low, high)
        mask = np.ones_like(self.data)
        if low is not None:
            mask = mask * (self.data >= low)
        if high is not None:
            mask = mask * (self.data <= high)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return self._make_child(data, (self,), backward)

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None,
            keepdims: bool = False) -> "Tensor":
        accum = accum_dtype()
        if (self.data.dtype.kind == "f"
                and accum.itemsize > self.data.dtype.itemsize):
            # Mixed policy: accumulate reductions wide, store narrow.
            data = self.data.sum(axis=axis, keepdims=keepdims,
                                 dtype=accum).astype(self.data.dtype)
        else:
            data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                for ax in sorted(a % self.data.ndim for a in axes):
                    g = np.expand_dims(g, ax)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return self._make_child(data, (self,), backward)

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None,
             keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis: Optional[Union[int, Tuple[int, ...]]] = None,
            keepdims: bool = False) -> "Tensor":
        centered = self - self.mean(axis=axis, keepdims=True)
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    def std(self, axis: Optional[Union[int, Tuple[int, ...]]] = None,
            keepdims: bool = False, eps: float = 0.0) -> "Tensor":
        return (self.var(axis=axis, keepdims=keepdims) + eps).sqrt()

    def max(self, axis: Optional[int] = None,
            keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            d = data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
                d = np.expand_dims(d, axis)
            mask = (self.data == d)
            # Split gradient between ties, matching the subgradient convention.
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None \
                else mask.sum()
            self._accumulate(np.broadcast_to(g, self.shape) * mask / counts)

        return self._make_child(data, (self,), backward)

    def min(self, axis: Optional[int] = None,
            keepdims: bool = False) -> "Tensor":
        return -((-self).max(axis=axis, keepdims=keepdims))

    # ------------------------------------------------------------------
    # shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(self.shape))

        return self._make_child(data, (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        order = axes if axes else tuple(reversed(range(self.ndim)))
        if len(order) == 1 and isinstance(order[0], (tuple, list)):
            order = tuple(order[0])
        data = self.data.transpose(order)
        inverse = np.argsort(order)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.transpose(inverse))

        return self._make_child(data, (self,), backward)

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        data = self.data.swapaxes(axis1, axis2)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.swapaxes(axis1, axis2))

        return self._make_child(data, (self,), backward)

    def squeeze(self, axis: Optional[int] = None) -> "Tensor":
        data = self.data.squeeze(axis=axis)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(self.shape))

        return self._make_child(data, (self,), backward)

    def unsqueeze(self, axis: int) -> "Tensor":
        data = np.expand_dims(self.data, axis)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(self.shape))

        return self._make_child(data, (self,), backward)

    def broadcast_to(self, shape: Sequence[int]) -> "Tensor":
        shape = tuple(shape)
        data = np.broadcast_to(self.data, shape).copy()

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))

        return self._make_child(data, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, index, grad)
                self._accumulate(full)

        return self._make_child(data, (self,), backward)

    def pad(self, pad_width: Sequence[Tuple[int, int]],
            value: float = 0.0) -> "Tensor":
        pad_width = tuple(tuple(p) for p in pad_width)
        data = np.pad(self.data, pad_width, constant_values=value)
        slices = tuple(slice(lo, dim + lo)
                       for (lo, _), dim in zip(pad_width, self.shape))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad[slices])

        return self._make_child(data, (self,), backward)

    # ------------------------------------------------------------------
    # comparisons (no gradient — returned as plain data tensors)
    # ------------------------------------------------------------------
    def __gt__(self, other: ArrayLike) -> "Tensor":
        return Tensor(self.data > _as_array(other))

    def __lt__(self, other: ArrayLike) -> "Tensor":
        return Tensor(self.data < _as_array(other))

    def __ge__(self, other: ArrayLike) -> "Tensor":
        return Tensor(self.data >= _as_array(other))

    def __le__(self, other: ArrayLike) -> "Tensor":
        return Tensor(self.data <= _as_array(other))


# ----------------------------------------------------------------------
# module-level graph-combining functions
# ----------------------------------------------------------------------
def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    tensors = [ensure_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(int(lo), int(hi))
                t._accumulate(grad[tuple(index)])

    requires = is_grad_enabled() and any(t.requires_grad for t in tensors)
    out = Tensor(data, requires_grad=requires)
    if requires:
        out._parents = tuple(tensors)
        out._backward = backward
        _note_tape_node()
    return out


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` with gradient routing."""
    tensors = [ensure_tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        moved = np.moveaxis(grad, axis, 0)
        for t, g in zip(tensors, moved):
            if t.requires_grad:
                t._accumulate(g)

    requires = is_grad_enabled() and any(t.requires_grad for t in tensors)
    out = Tensor(data, requires_grad=requires)
    if requires:
        out._parents = tuple(tensors)
        out._backward = backward
        _note_tape_node()
    return out


def where(condition: ArrayLike, a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise select ``a`` where ``condition`` else ``b``."""
    cond = _as_array(condition).astype(bool)
    a = ensure_tensor(a)
    b = ensure_tensor(b)
    data = np.where(cond, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad * cond, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad * ~cond, b.shape))

    requires = is_grad_enabled() and (a.requires_grad or b.requires_grad)
    out = Tensor(data, requires_grad=requires)
    if requires:
        out._parents = (a, b)
        out._backward = backward
        _note_tape_node()
    return out


def maximum(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise max with subgradient split at ties."""
    a = ensure_tensor(a)
    b = ensure_tensor(b)
    data = np.maximum(a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        a_wins = a.data > b.data
        ties = a.data == b.data
        b_wins = ~a_wins & ~ties
        if a.requires_grad:
            a._accumulate(_unbroadcast(grad * (a_wins + 0.5 * ties), a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(grad * (b_wins + 0.5 * ties), b.shape))

    requires = is_grad_enabled() and (a.requires_grad or b.requires_grad)
    out = Tensor(data, requires_grad=requires)
    if requires:
        out._parents = (a, b)
        out._backward = backward
        _note_tape_node()
    return out


def einsum(subscripts: str, *operands: Tensor) -> Tensor:
    """Autodiff-aware ``numpy.einsum`` restricted to explicit-output form.

    Supports the subset used by the model code: two-or-more operand
    contractions written with an explicit ``->`` output, no ellipses and no
    repeated indices within a single operand.
    """
    if "->" not in subscripts:
        raise ValueError("einsum requires explicit '->' output subscripts")
    if "..." in subscripts:
        raise ValueError("ellipsis subscripts are not supported")
    tensors = [ensure_tensor(op) for op in operands]
    in_specs, out_spec = subscripts.split("->")
    specs = in_specs.split(",")
    if len(specs) != len(tensors):
        raise ValueError("operand count does not match subscripts")
    data = np.einsum(subscripts, *[t.data for t in tensors],
                     optimize=True)

    dim_of = {}
    for spec, t in zip(specs, tensors):
        for letter, n in zip(spec, t.shape):
            dim_of[letter] = n

    def backward(grad: np.ndarray) -> None:
        for i, t in enumerate(tensors):
            if not t.requires_grad:
                continue
            other_specs = [s for j, s in enumerate(specs) if j != i]
            other_data = [x.data for j, x in enumerate(tensors) if j != i]
            # d/d(op_i) = einsum(grad, other ops) routed to op_i's indices.
            # Letters of op_i missing from (out + others) were summed over in
            # the forward pass; recover them by broadcasting afterwards.
            known = set(out_spec)
            for s in other_specs:
                known.update(s)
            target = specs[i]
            reachable = "".join(c for c in target if c in known)
            sub = ",".join([out_spec] + other_specs) + "->" + reachable
            g = np.einsum(sub, grad, *other_data, optimize=True)
            if reachable != target:
                # Insert broadcast axes for letters that were reduced away.
                expanded_shape = []
                src_axis = 0
                for c in target:
                    if c in known:
                        expanded_shape.append(g.shape[src_axis])
                        src_axis += 1
                    else:
                        expanded_shape.append(1)
                order = [c for c in target if c in known]
                # reorder reachable letters to match their order in target
                perm = [reachable.index(c) for c in order]
                g = g.transpose(perm).reshape(expanded_shape)
                g = np.broadcast_to(g, t.shape).copy()
            else:
                # reorder axes to match target spec (einsum output follows sub)
                pass
            t._accumulate(g)

    requires = is_grad_enabled() and any(t.requires_grad for t in tensors)
    out = Tensor(data, requires_grad=requires)
    if requires:
        out._parents = tuple(tensors)
        out._backward = backward
        _note_tape_node()
    return out
