"""Functional operations built on the autograd :class:`~repro.tensor.Tensor`.

Most compose the primitive ops defined on ``Tensor`` (arithmetic,
reductions) so they are differentiable without bespoke backward code;
``conv1d`` is one tape node with a hand-written VJP.  They cover what the
paper's models need: softmax attention, causal/strided 1-D convolution
(the TCN of §IV-C), dropout and utilities.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .arena import arena_enabled
from .grad_mode import is_grad_enabled
from .tensor import (Tensor, _unbroadcast, concat, ensure_tensor, maximum,
                     stack, where)

__all__ = [
    "softmax", "log_softmax", "relu", "sigmoid", "tanh", "leaky_relu", "elu",
    "dropout", "conv1d", "linear", "one_hot", "mse_loss", "l1_loss",
    "binary_cross_entropy", "cross_entropy", "huber_loss",
]


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit: ``max(x, 0)``."""
    return ensure_tensor(x).relu()


def sigmoid(x: Tensor) -> Tensor:
    """Numerically stable logistic function."""
    return ensure_tensor(x).sigmoid()


def tanh(x: Tensor) -> Tensor:
    """Hyperbolic tangent."""
    return ensure_tensor(x).tanh()


def leaky_relu(x: Tensor, negative_slope: float = 0.01) -> Tensor:
    """ReLU with a small slope for negative inputs."""
    return ensure_tensor(x).leaky_relu(negative_slope)


def elu(x: Tensor, alpha: float = 1.0) -> Tensor:
    """Exponential linear unit (smooth negative saturation at −alpha)."""
    return ensure_tensor(x).elu(alpha)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    x = ensure_tensor(x)
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable ``log(softmax(x))``."""
    x = ensure_tensor(x)
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def dropout(x: Tensor, p: float, training: bool = True,
            rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout: zero elements with probability ``p`` and rescale.

    A no-op when ``training`` is false or ``p == 0`` so evaluation paths do
    not depend on the random generator.
    """
    if not training or p <= 0.0:
        return ensure_tensor(x)
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    x = ensure_tensor(x)
    gen = rng if rng is not None else np.random.default_rng()
    mask = (gen.uniform(size=x.shape) >= p) / (1.0 - p)
    return x * Tensor(mask)


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` (PyTorch weight layout)."""
    out = ensure_tensor(x) @ weight.swapaxes(-1, -2)
    if bias is not None:
        out = out + bias
    return out


def _normalize_padding(padding: Union[int, Tuple[int, int]]) -> Tuple[int, int]:
    if isinstance(padding, int):
        return (padding, padding)
    left, right = padding
    return (int(left), int(right))


def _conv_geometry(x_shape: Tuple[int, ...], w_shape: Tuple[int, ...],
                   stride: int, padding: Union[int, Tuple[int, int]],
                   dilation: int) -> Tuple[int, int, int]:
    """Validate a 1-D convolution; return ``(left, right, out_len)``."""
    if len(x_shape) != 3:
        raise ValueError(f"conv1d expects (B, C, L) input, got shape {x_shape}")
    if len(w_shape) != 3:
        raise ValueError("conv1d expects (C_out, C_in, k) weight, got shape "
                         f"{w_shape}")
    if x_shape[1] != w_shape[1]:
        raise ValueError(f"channel mismatch: input has {x_shape[1]}, weight "
                         f"expects {w_shape[1]}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if dilation < 1:
        raise ValueError(f"dilation must be >= 1, got {dilation}")
    left, right = _normalize_padding(padding)
    if left < 0 or right < 0:
        raise ValueError(f"padding must be non-negative, got {padding}")
    padded_len = left + x_shape[2] + right
    span = (w_shape[2] - 1) * dilation + 1
    if padded_len < span:
        raise ValueError(f"input length {padded_len} shorter than receptive "
                         f"span {span}")
    return left, right, (padded_len - span) // stride + 1


def _conv_forward(data: np.ndarray, w: np.ndarray, stride: int,
                  dilation: int, left: int, right: int,
                  out_len: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(out, cols)`` of a bias-free convolution.

    ``cols`` is im2col in channel-major order, ``(C·K, B·out_len)`` and
    C-contiguous: the input is padded into a ``(C, B, L + pad)`` buffer (or
    viewed transposed when unpadded) and one strided copy lays out, per
    channel and tap, the ``(B, out_len)`` samples that tap reads.  ``out``
    is ``W(O, C·K) @ cols`` viewed as ``(B, O, out_len)``; its memory stays
    ``(O, B, out_len)``.
    """
    batch, channels, length = data.shape
    out_channels, _, kernel = w.shape
    if left or right:
        src = np.zeros((channels, batch, left + length + right),
                       dtype=data.dtype)
        src[:, :, left:left + length] = data.transpose(1, 0, 2)
    else:
        src = data.transpose(1, 0, 2)
    s_c, s_b, s_l = src.strides
    taps = as_strided(src, shape=(channels, kernel, batch, out_len),
                      strides=(s_c, dilation * s_l, s_b, stride * s_l),
                      writeable=False)
    cols = np.ascontiguousarray(taps).reshape(channels * kernel,
                                              batch * out_len)
    out = (w.reshape(out_channels, channels * kernel) @ cols) \
        .reshape(out_channels, batch, out_len).transpose(1, 0, 2)
    return out, cols


def _conv_weight_grad(cols: np.ndarray, grad: np.ndarray,
                      w_shape: Tuple[int, ...]) -> np.ndarray:
    """Filter gradient ``cols @ g(B·L, O)``, viewed back as ``(O, C, K)``."""
    out_channels, channels, kernel = w_shape
    g_blo = grad.transpose(0, 2, 1).reshape(-1, out_channels)
    return (cols @ g_blo).reshape(channels, kernel, out_channels) \
        .transpose(2, 0, 1)


def _conv_input_grad(grad: np.ndarray, w: np.ndarray, data: np.ndarray,
                     stride: int, dilation: int, left: int,
                     right: int) -> np.ndarray:
    """Input gradient: ``Wᵀ(C·K, O) @ g(O, B·L)``, then col2im.

    The column gradients are added tap by tap, in tap order, into a zeroed
    channel-major ``(C, B, L + pad)`` buffer.  The result is laid out as
    the gather route left it: C-ordered when padded, ``data``'s own layout
    otherwise (downstream reductions are layout-sensitive).
    """
    batch, channels, length = data.shape
    out_channels, _, kernel = w.shape
    out_len = grad.shape[2]
    g_obl = grad.transpose(1, 0, 2).reshape(out_channels, batch * out_len)
    w_t = w.transpose(1, 2, 0).reshape(channels * kernel, out_channels)
    taps = (w_t @ g_obl).astype(data.dtype, copy=False) \
        .reshape(channels, kernel, batch, out_len)
    full = np.zeros((channels, batch, left + length + right),
                    dtype=data.dtype)
    for j in range(kernel):
        start = j * dilation
        full[:, :, start:start + (out_len - 1) * stride + 1:stride] += \
            taps[:, j]
    dx = (np.empty(data.shape, dtype=data.dtype) if left or right
          else np.empty_like(data))
    dx[...] = full[:, :, left:left + length].transpose(1, 0, 2)
    return dx


def conv1d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
           stride: int = 1, padding: Union[int, Tuple[int, int]] = 0,
           dilation: int = 1) -> Tensor:
    """1-D convolution (cross-correlation) over the last axis, one tape node.

    Parameters
    ----------
    x:
        Input of shape ``(batch, in_channels, length)``.
    weight:
        Filters of shape ``(out_channels, in_channels, kernel_size)``.
    bias:
        Optional per-output-channel bias ``(out_channels,)``.
    stride, dilation:
        Positive integers.
    padding:
        Either a symmetric pad or an explicit ``(left, right)`` pair, each
        non-negative; causal convolution (§IV-C of the paper,
        WaveNet-style) uses ``(dilation * (kernel_size - 1), 0)``.

    Returns
    -------
    Tensor of shape ``(batch, out_channels, out_length)``, laid out in
    memory as ``(out_channels, batch, out_length)``.

    The forward is ``W(O, C·K) @ cols(C·K, B·L)``; the backward runs
    ``cols @ g(B·L, O)`` for the filters, ``Wᵀ(C·K, O) @ g(O, B·L)`` for the
    columns, and scatters the columns back tap by tap.  These are the
    operands, operand layouts and GEMMs NumPy's einsum ran for the
    window-gather formulation this replaces, so results are bitwise
    identical to it under every dtype policy (see ``docs/performance.md``).
    """
    x = ensure_tensor(x)
    weight = ensure_tensor(weight)
    left, right, out_len = _conv_geometry(x.shape, weight.shape, stride,
                                          padding, dilation)
    out_data, cols = _conv_forward(x.data, weight.data, stride, dilation,
                                   left, right, out_len)
    if bias is not None:
        bias = ensure_tensor(bias)
        out_data = out_data + bias.data.reshape(1, -1, 1)

    def backward(grad: np.ndarray) -> None:
        if bias is not None:
            if bias.requires_grad:
                bias._accumulate(
                    _unbroadcast(grad, (1, grad.shape[1], 1)).reshape(-1))
            if arena_enabled():
                # In the gather + einsum formulation the bias add is a
                # node of its own, whose gradient the arena copies to C
                # order before the GEMMs; BLAS rounds by operand layout.
                grad = np.ascontiguousarray(grad)
        if weight.requires_grad:
            weight._accumulate(_conv_weight_grad(cols, grad, weight.shape))
        if x.requires_grad:
            x._accumulate(_conv_input_grad(grad, weight.data, x.data, stride,
                                           dilation, left, right))

    parents: Tuple[Tensor, ...] = (x, weight)
    if bias is not None:
        parents = parents + (bias,)
    return x._make_child(out_data, parents, backward)


def one_hot(indices: np.ndarray, num_classes: int) -> Tensor:
    """Return a constant one-hot tensor for integer ``indices``."""
    indices = np.asarray(indices, dtype=np.int64)
    eye = np.eye(num_classes)
    return Tensor(eye[indices])


def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared error, the paper's τ_reg (Eq. 7) averaged over elements."""
    diff = ensure_tensor(prediction) - ensure_tensor(target)
    return (diff * diff).mean()


def l1_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean absolute error."""
    return (ensure_tensor(prediction) - ensure_tensor(target)).abs().mean()


def huber_loss(prediction: Tensor, target: Tensor, delta: float = 1.0) -> Tensor:
    """Huber loss used by the DQN baseline's temporal-difference updates."""
    diff = ensure_tensor(prediction) - ensure_tensor(target)
    abs_diff = diff.abs()
    quadratic = 0.5 * diff * diff
    linear_part = delta * (abs_diff - 0.5 * delta)
    return where(abs_diff.data <= delta, quadratic, linear_part).mean()


def binary_cross_entropy(logits: Tensor, targets: Tensor) -> Tensor:
    """BCE-with-logits, numerically stable via the log-sum-exp identity."""
    logits = ensure_tensor(logits)
    targets = ensure_tensor(targets)
    # max(x, 0) - x*y + log(1 + exp(-|x|))
    positive = maximum(logits, Tensor(np.zeros_like(logits.data)))
    softplus = (1.0 + (-logits.abs()).exp()).log()
    return (positive - logits * targets + softplus).mean()


def cross_entropy(logits: Tensor, target_indices: np.ndarray) -> Tensor:
    """Mean categorical cross-entropy from logits and integer labels."""
    logp = log_softmax(logits, axis=-1)
    targets = one_hot(np.asarray(target_indices), logits.shape[-1])
    return -(logp * targets).sum(axis=-1).mean()
