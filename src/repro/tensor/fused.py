"""Fused composite tape nodes with hand-written VJPs.

The autograd engine's per-node Python dispatch dominates small-op chains:
an LSTM cell alone records ~20 tape nodes per step.  Each fused op below
collapses one such chain (affine+activation, a full LSTM/GRU cell, GCN
propagation, a TCN residual block) into one or two nodes with a
closed-form backward, cutting tape length and intermediate
materialization on both dense and sparse graph modes.

Equivalence contract
--------------------
Every fused forward/backward replicates the *exact* NumPy expression
sequence of the composed ops it replaces (same operand layouts, same
association order, same numerically-stable sigmoid), so under the
``float64`` policy results are bitwise-identical with fusion on or off;
under ``float32`` they agree to rounding (see ``docs/performance.md``).
The gradcheck + per-policy equivalence suite in
``tests/tensor/test_fused_ops.py`` gates every op.

Fusion is process-globally switchable (:func:`set_fused_enabled`,
:func:`fused_kernels`); ``repro.nn`` layers consult the switch on every
forward so benchmarks can compare paths in one process.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional, Tuple

import numpy as np

from .ops import (_conv_forward, _conv_geometry, _conv_input_grad,
                  _conv_weight_grad)
from .sparse import SparseTensor, _csr_matmul, _sampled_inner
from .tensor import Tensor, _unbroadcast, ensure_tensor

__all__ = [
    "set_fused_enabled", "fused_enabled", "fused_kernels",
    "affine_act_fused", "lstm_cell_fused", "gru_cell_fused",
    "gcn_propagate_fused", "temporal_block_fused",
]

_enabled = True


def set_fused_enabled(enabled: bool = True) -> bool:
    """Globally enable/disable the fused kernels; returns the prior state."""
    global _enabled
    previous = _enabled
    _enabled = bool(enabled)
    return previous


def fused_enabled() -> bool:
    """Whether layers currently route through the fused tape nodes."""
    return _enabled


@contextmanager
def fused_kernels(enabled: bool = True) -> Iterator[None]:
    """Context manager scoping the fusion switch to a block."""
    previous = set_fused_enabled(enabled)
    try:
        yield
    finally:
        set_fused_enabled(previous)


# ----------------------------------------------------------------------
# shared scalar kernels (identical formulas to the Tensor methods)
# ----------------------------------------------------------------------
def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Must match Tensor.sigmoid bit for bit.
    return np.where(x >= 0,
                    1.0 / (1.0 + np.exp(-np.clip(x, -500, 500))),
                    np.exp(np.clip(x, -500, 500))
                    / (1.0 + np.exp(np.clip(x, -500, 500))))


_ACTIVATIONS = ("identity", "relu", "tanh", "sigmoid", "leaky_relu")


def _activate(pre: np.ndarray, activation: str) -> np.ndarray:
    if activation == "identity":
        return pre
    if activation == "relu":
        return pre * (pre > 0)
    if activation == "tanh":
        return np.tanh(pre)
    if activation == "sigmoid":
        return _sigmoid(pre)
    if activation == "leaky_relu":
        return np.where(pre > 0, pre, pre * 0.01)
    raise ValueError(f"unknown activation {activation!r}; expected one of "
                     f"{_ACTIVATIONS}")


def _activate_vjp(grad: np.ndarray, pre: np.ndarray, out: np.ndarray,
                  activation: str) -> np.ndarray:
    """d(loss)/d(pre) given d(loss)/d(out), matching the composed backwards."""
    if activation == "identity":
        return grad
    if activation == "relu":
        return grad * (pre > 0)
    if activation == "tanh":
        return grad * (1.0 - out ** 2)
    if activation == "sigmoid":
        return grad * out * (1.0 - out)
    if activation == "leaky_relu":
        return grad * np.where(pre > 0, 1.0, 0.01)
    raise ValueError(f"unknown activation {activation!r}")


def _weight_grad(inp: np.ndarray, dgrad: np.ndarray,
                 weight: Tensor) -> np.ndarray:
    """Gradient for a PyTorch-layout ``(out, in)`` weight of ``inp @ W.T``.

    Mirrors the composed path (matmul backward on the swapaxes view, then
    the swapaxes node's transpose): ``(inpᵀ @ dgrad)`` reduced over batch
    axes, transposed back to ``(out, in)``.
    """
    gt = np.swapaxes(inp, -1, -2) @ dgrad
    gt = _unbroadcast(gt, (weight.shape[1], weight.shape[0]))
    return np.swapaxes(gt, -1, -2)


# ----------------------------------------------------------------------
# fused affine + activation (Linear layers)
# ----------------------------------------------------------------------
def affine_act_fused(x: Tensor, weight: Tensor,
                     bias: Optional[Tensor] = None,
                     activation: str = "identity") -> Tensor:
    """``act(x @ weight.T + bias)`` as a single tape node.

    Replaces the matmul + swapaxes + add + activation chain of
    ``ops.linear`` composed with an activation (4-5 nodes → 1).
    """
    x = ensure_tensor(x)
    pre = x.data @ weight.data.swapaxes(-1, -2)
    if bias is not None:
        pre = pre + bias.data
    out_data = _activate(pre, activation)

    def backward(grad: np.ndarray) -> None:
        dpre = _activate_vjp(grad, pre, out_data, activation)
        if x.requires_grad:
            x._accumulate(_unbroadcast(dpre @ weight.data, x.shape))
        if weight.requires_grad:
            weight._accumulate(_weight_grad(x.data, dpre, weight))
        if bias is not None and bias.requires_grad:
            bias._accumulate(_unbroadcast(dpre, bias.shape))

    parents: Tuple[Tensor, ...] = (x, weight)
    if bias is not None:
        parents = parents + (bias,)
    return x._make_child(out_data, parents, backward)


# ----------------------------------------------------------------------
# fused LSTM cell
# ----------------------------------------------------------------------
def lstm_cell_fused(x: Tensor, h_prev: Tensor, c_prev: Tensor,
                    w_ih: Tensor, w_hh: Tensor, bias: Tensor,
                    hidden_size: int) -> Tuple[Tensor, Tensor]:
    """One LSTM step ``(h, c)`` as two tape nodes instead of ~20.

    Gate order is ``i, f, g, o`` (matching :class:`repro.nn.LSTMCell`).
    The ``c`` node owns all six inputs; the ``h`` node depends only on
    ``c``.  ``h``'s backward runs first (reverse topological order),
    accumulates h's contribution into ``c``'s gradient through the normal
    engine path, and stashes the output-gate product for ``c``'s backward
    — a freshly computed array, never the grad buffer itself.
    """
    x = ensure_tensor(x)
    h_prev = ensure_tensor(h_prev)
    c_prev = ensure_tensor(c_prev)
    H = hidden_size
    gates = (x.data @ w_ih.data.swapaxes(-1, -2)
             + h_prev.data @ w_hh.data.swapaxes(-1, -2) + bias.data)
    i = _sigmoid(gates[..., 0 * H:1 * H])
    f = _sigmoid(gates[..., 1 * H:2 * H])
    g = np.tanh(gates[..., 2 * H:3 * H])
    o = _sigmoid(gates[..., 3 * H:4 * H])
    c_data = f * c_prev.data + i * g
    tanh_c = np.tanh(c_data)
    h_data = o * tanh_c

    ctx = {"grad_o": None}

    def backward_c(grad_c: np.ndarray) -> None:
        do = ctx["grad_o"]
        ctx["grad_o"] = None
        di = grad_c * g
        df = grad_c * c_prev.data
        dg = grad_c * i
        di_pre = di * i * (1.0 - i)
        df_pre = df * f * (1.0 - f)
        dg_pre = dg * (1.0 - g ** 2)
        do_pre = (do * o * (1.0 - o) if do is not None
                  else np.zeros_like(o))
        dgates = np.concatenate([di_pre, df_pre, dg_pre, do_pre], axis=-1)
        if x.requires_grad:
            x._accumulate(_unbroadcast(dgates @ w_ih.data, x.shape))
        if h_prev.requires_grad:
            h_prev._accumulate(_unbroadcast(dgates @ w_hh.data, h_prev.shape))
        if c_prev.requires_grad:
            c_prev._accumulate(_unbroadcast(grad_c * f, c_prev.shape))
        if w_ih.requires_grad:
            w_ih._accumulate(_weight_grad(x.data, dgates, w_ih))
        if w_hh.requires_grad:
            w_hh._accumulate(_weight_grad(h_prev.data, dgates, w_hh))
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(dgates, bias.shape))

    c = x._make_child(c_data, (x, h_prev, c_prev, w_ih, w_hh, bias),
                      backward_c)

    def backward_h(grad_h: np.ndarray) -> None:
        # h = o * tanh(c): route tanh's share into c's gradient through the
        # engine, keep the output-gate share for c's backward.
        dtanh = grad_h * o
        c._accumulate(dtanh * (1.0 - tanh_c ** 2))
        ctx["grad_o"] = grad_h * tanh_c

    h = c._make_child(h_data, (c,), backward_h)
    return h, c


# ----------------------------------------------------------------------
# fused GRU cell
# ----------------------------------------------------------------------
def gru_cell_fused(x: Tensor, h_prev: Tensor, w_ih: Tensor, w_hh: Tensor,
                   b_ih: Tensor, b_hh: Tensor, hidden_size: int) -> Tensor:
    """One GRU step as a single tape node (gate order ``r, z, n``)."""
    x = ensure_tensor(x)
    h_prev = ensure_tensor(h_prev)
    H = hidden_size
    gi = x.data @ w_ih.data.swapaxes(-1, -2) + b_ih.data
    gh = h_prev.data @ w_hh.data.swapaxes(-1, -2) + b_hh.data
    gh_n = gh[..., 2 * H:3 * H]
    r = _sigmoid(gi[..., 0 * H:1 * H] + gh[..., 0 * H:1 * H])
    z = _sigmoid(gi[..., 1 * H:2 * H] + gh[..., 1 * H:2 * H])
    n = np.tanh(gi[..., 2 * H:3 * H] + r * gh_n)
    out_data = (1.0 - z) * n + z * h_prev.data

    def backward(grad: np.ndarray) -> None:
        dz = grad * h_prev.data - grad * n
        dn = grad * (1.0 - z)
        dn_pre = dn * (1.0 - n ** 2)
        dr = dn_pre * gh_n
        dr_pre = dr * r * (1.0 - r)
        dz_pre = dz * z * (1.0 - z)
        dgi = np.concatenate([dr_pre, dz_pre, dn_pre], axis=-1)
        dgh = np.concatenate([dr_pre, dz_pre, dn_pre * r], axis=-1)
        if x.requires_grad:
            x._accumulate(_unbroadcast(dgi @ w_ih.data, x.shape))
        if h_prev.requires_grad:
            h_prev._accumulate(_unbroadcast(
                dgh @ w_hh.data + grad * z, h_prev.shape))
        if w_ih.requires_grad:
            w_ih._accumulate(_weight_grad(x.data, dgi, w_ih))
        if w_hh.requires_grad:
            w_hh._accumulate(_weight_grad(h_prev.data, dgh, w_hh))
        if b_ih.requires_grad:
            b_ih._accumulate(_unbroadcast(dgi, b_ih.shape))
        if b_hh.requires_grad:
            b_hh._accumulate(_unbroadcast(dgh, b_hh.shape))

    return x._make_child(out_data, (x, h_prev, w_ih, w_hh, b_ih, b_hh),
                         backward)


# ----------------------------------------------------------------------
# fused GCN propagation
# ----------------------------------------------------------------------
def gcn_propagate_fused(x: Tensor, adj, weight: Tensor,
                        bias: Optional[Tensor] = None,
                        activation: str = "identity") -> Tensor:
    """``act(Â (x Θᵀ) + b)`` as one tape node for dense *and* sparse ``Â``.

    Replaces the linear + (spmm|matmul) + bias-add (+ activation) chain of
    :class:`repro.nn.GraphConv`.  A dense adjacency may itself require
    grad (the time-sensitive strategy's per-step stacks); a sparse
    adjacency contributes through its value vector, with the value
    gradient computed as a sampled inner product so no dense ``(N, N)``
    gradient ever materializes.
    """
    x = ensure_tensor(x)
    support = x.data @ weight.data.swapaxes(-1, -2)
    if isinstance(adj, SparseTensor):
        pattern, values = adj.pattern, adj.values
        pre = _csr_matmul(pattern, values.data, support)
        if bias is not None:
            pre = pre + bias.data
        out_data = _activate(pre, activation)

        def backward(grad: np.ndarray) -> None:
            dpre = _activate_vjp(grad, pre, out_data, activation)
            if x.requires_grad or weight.requires_grad:
                dsupport = _csr_matmul(pattern, values.data, dpre,
                                       transpose=True)
                dsupport = _unbroadcast(dsupport, support.shape)
                if x.requires_grad:
                    x._accumulate(_unbroadcast(dsupport @ weight.data,
                                               x.shape))
                if weight.requires_grad:
                    weight._accumulate(_weight_grad(x.data, dsupport, weight))
            if values.requires_grad:
                grad_values = _sampled_inner(pattern, dpre, support)
                values._accumulate(_unbroadcast(grad_values, values.shape))
            if bias is not None and bias.requires_grad:
                bias._accumulate(_unbroadcast(dpre, bias.shape))

        parents: Tuple[Tensor, ...] = (x, weight, values)
    else:
        adj = ensure_tensor(adj)
        pre = adj.data @ support
        if bias is not None:
            pre = pre + bias.data
        out_data = _activate(pre, activation)

        def backward(grad: np.ndarray) -> None:
            dpre = _activate_vjp(grad, pre, out_data, activation)
            if x.requires_grad or weight.requires_grad:
                dsupport = _unbroadcast(
                    np.swapaxes(adj.data, -1, -2) @ dpre, support.shape)
                if x.requires_grad:
                    x._accumulate(_unbroadcast(dsupport @ weight.data,
                                               x.shape))
                if weight.requires_grad:
                    weight._accumulate(_weight_grad(x.data, dsupport, weight))
            if adj.requires_grad:
                adj._accumulate(_unbroadcast(
                    dpre @ np.swapaxes(support, -1, -2), adj.shape))
            if bias is not None and bias.requires_grad:
                bias._accumulate(_unbroadcast(dpre, bias.shape))

        parents = (x, weight, adj)
    if bias is not None:
        parents = parents + (bias,)
    return x._make_child(out_data, parents, backward)


# ----------------------------------------------------------------------
# fused TCN residual block
# ----------------------------------------------------------------------
def _mul_(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a * b`` for an ``a`` the caller owns, written over ``a`` when
    NumPy would lay the product out like ``a`` anyway: a C-ordered
    operand makes the product C-ordered whatever ``b``'s layout."""
    if a.flags.c_contiguous and np.result_type(a, b) == a.dtype:
        return np.multiply(a, b, out=a)
    return a * b


def _conv_bias(out: np.ndarray, bias: Optional[Tensor]) -> np.ndarray:
    """``out + bias`` over channels, in ``out``'s buffer when the dtype
    allows (a broadcast bias leaves the sum in ``out``'s layout anyway)."""
    if bias is None:
        return out
    bias = bias.data.reshape(1, -1, 1)
    if np.result_type(out, bias) != out.dtype:
        return out + bias
    return np.add(out, bias, out=out)


def _relu_(pre: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(relu(pre), pre > 0)``, the ReLU written over ``pre``."""
    mask = pre > 0
    return np.multiply(pre, mask, out=pre), mask


def _conv_bias_vjp(grad: np.ndarray, dtype: np.dtype,
                   bias: Optional[Tensor]) -> np.ndarray:
    """Accumulate the bias gradient of ``out = conv + bias``; return the
    gradient of ``out`` in its node's storage dtype."""
    grad = grad.astype(dtype, copy=False)
    if bias is not None and bias.requires_grad:
        bias._accumulate(_unbroadcast(grad, (1, grad.shape[1], 1))
                         .reshape(-1))
    return grad


def temporal_block_fused(x: Tensor, w1: Tensor, b1: Optional[Tensor],
                         w2: Tensor, b2: Optional[Tensor],
                         wd: Optional[Tensor] = None,
                         bd: Optional[Tensor] = None, stride: int = 1,
                         dilation: int = 1,
                         masks: Tuple[Optional[np.ndarray],
                                      Optional[np.ndarray]] = (None, None)
                         ) -> Tensor:
    """The TCN residual block of §IV-C (Eq. 6) as one tape node.

    Computes ``relu(d2 + res)`` with ``d2 = m2 * relu(conv2(d1))``,
    ``d1 = m1 * relu(conv1(x))`` and ``res = x`` or the 1×1 strided
    downsample ``conv(x, wd) + bd``.  ``conv1`` (stride ``stride``) and
    ``conv2`` (stride 1) are causal: left-padded by ``dilation * (k - 1)``.
    ``masks`` are the scaled spatial-dropout masks ``(B, C_out, 1)`` in
    storage dtype, or ``None`` where dropout is off; the caller draws them
    in the composed block's order so the RNG stream is unchanged.

    Each bias add and ReLU runs in its convolution GEMM's ``(C, B, L)``
    output buffer.  Every array that reaches a GEMM or an axis sum has the
    layout it had in the composed block, and the backward replays the
    composed VJPs in the engine's order, so results are bitwise equal to
    the composed block under ``float64``.  The weights are plain inputs:
    weight normalization stays composed in front of this node.
    """
    x = ensure_tensor(x)
    m1, m2 = masks
    pad = dilation * (w1.shape[2] - 1)
    _, _, len1 = _conv_geometry(x.shape, w1.shape, stride, (pad, 0),
                                dilation)
    h1_raw, cols1 = _conv_forward(x.data, w1.data, stride, dilation, pad, 0,
                                  len1)
    r1, mask_h1 = _relu_(_conv_bias(h1_raw, b1))
    d1 = r1 if m1 is None else r1 * m1
    pad2 = dilation * (w2.shape[2] - 1)
    _, _, len2 = _conv_geometry(d1.shape, w2.shape, 1, (pad2, 0), dilation)
    h2_raw, cols2 = _conv_forward(d1, w2.data, 1, dilation, pad2, 0, len2)
    r2, mask_h2 = _relu_(_conv_bias(h2_raw, b2))
    d2 = r2 if m2 is None else r2 * m2
    if wd is None:
        res = x.data
    else:
        _, _, len_d = _conv_geometry(x.shape, wd.shape, stride, 0, 1)
        res_raw, cols_d = _conv_forward(x.data, wd.data, stride, 1, 0, 0,
                                        len_d)
        res = _conv_bias(res_raw, bd)
    if d2.shape != res.shape:
        raise ValueError(f"residual shape {res.shape} does not match block "
                         f"output {d2.shape}; give a downsample")
    out_data, mask_s = _relu_(d2 + res)

    dt_out, dt_d1, dt_r1, dt_r2, dt_res = (
        out_data.dtype, d1.dtype, r1.dtype, r2.dtype, res.dtype)

    def backward(grad: np.ndarray) -> None:
        g_s = (grad * mask_s).astype(dt_out, copy=False)
        dx_res = None
        if wd is None:
            if x.requires_grad:
                x._accumulate(g_s)
        else:
            g_res = _conv_bias_vjp(g_s, dt_res, bd)
            if wd.requires_grad:
                wd._accumulate(_conv_weight_grad(cols_d, g_res, wd.shape))
            if x.requires_grad:
                dx_res = _conv_input_grad(g_res, wd.data, x.data, stride, 1,
                                          0, 0)
        # g_s is spent: the conv branch may overwrite it from here on.
        g_r2 = g_s if m2 is None else _mul_(g_s, m2).astype(dt_r2, copy=False)
        g_h2 = _conv_bias_vjp(_mul_(g_r2, mask_h2), dt_r2, b2)
        if w2.requires_grad:
            w2._accumulate(_conv_weight_grad(cols2, g_h2, w2.shape))
        g_d1 = _conv_input_grad(g_h2, w2.data, d1, 1, dilation, pad2,
                                0).astype(dt_d1, copy=False)
        g_r1 = (g_d1 if m1 is None
                else _mul_(g_d1, m1).astype(dt_r1, copy=False))
        g_h1 = _conv_bias_vjp(_mul_(g_r1, mask_h1), dt_r1, b1)
        if w1.requires_grad:
            w1._accumulate(_conv_weight_grad(cols1, g_h1, w1.shape))
        if x.requires_grad:
            # the composed engine reaches the conv branch's input gradient
            # before the downsample's
            x._accumulate(_conv_input_grad(g_h1, w1.data, x.data, stride,
                                           dilation, pad, 0))
            if dx_res is not None:
                x._accumulate(dx_res)

    # ``x`` goes last: the engine walks the last parent first, which puts
    # the weights' backward ahead of the input's, as in the composed block.
    parents = tuple(t for t in (w1, b1, w2, b2, wd, bd) if t is not None)
    return x._make_child(out_data, parents + (x,), backward)
