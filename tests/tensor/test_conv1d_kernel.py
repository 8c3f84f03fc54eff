"""``conv1d`` as one tape node: bitwise equal to the gather + einsum route.

The oracle below is the formulation ``conv1d`` used before it became a
single node: pad, gather ``(B, C, L, K)`` windows (with a tap-by-tap
slice scatter as backward), ``einsum("bilk,oik->bol")``, then a reshaped
bias add.  The kernel must reproduce its output and all three gradients
bit for bit, under every dtype policy.
"""

import numpy as np
import pytest

from repro.tensor import Tensor, conv1d, dtype_policy, gradcheck
from repro.tensor.tensor import einsum, ensure_tensor


def _oracle_windows(x, out_len, kernel, stride, dilation):
    starts = np.arange(out_len) * stride
    taps = np.arange(kernel) * dilation
    data = x.data[:, :, starts[:, None] + taps[None, :]]

    def backward(grad):
        if not x.requires_grad:
            return
        full = np.zeros_like(x.data)
        for j in range(kernel):
            tap_slice = slice(j * dilation,
                              j * dilation + (out_len - 1) * stride + 1,
                              stride)
            full[:, :, tap_slice] += grad[:, :, :, j]
        x._accumulate(full)

    return x._make_child(data, (x,), backward)


def oracle_conv1d(x, weight, bias=None, stride=1, padding=0, dilation=1):
    left, right = (padding, padding) if isinstance(padding, int) else padding
    k = weight.shape[2]
    if left or right:
        x = x.pad(((0, 0), (0, 0), (left, right)))
    out_len = (x.shape[2] - (k - 1) * dilation - 1) // stride + 1
    windows = _oracle_windows(x, out_len, k, stride, dilation)
    out = einsum("bilk,oik->bol", windows, weight)
    if bias is not None:
        out = out + ensure_tensor(bias).reshape(1, -1, 1)
    return out


def _leaves(rng, batch, c_in, c_out, length, k, with_bias):
    x = Tensor(rng.standard_normal((batch, c_in, length)), requires_grad=True)
    w = Tensor(rng.standard_normal((c_out, c_in, k)) * 0.3,
               requires_grad=True)
    b = (Tensor(rng.standard_normal(c_out), requires_grad=True)
         if with_bias else None)
    return x, w, b


def _run(fn, x, w, b, upstream, **kwargs):
    for leaf in (x, w, b):
        if leaf is not None:
            leaf.zero_grad()
    out = fn(x, w, b, **kwargs)
    # ``upstream`` picks the seed gradient's memory layout as well as its
    # values: BLAS and NumPy's axis sums round differently by layout
    out.backward(upstream(out.shape))
    grads = [None if t is None else t.grad.copy() for t in (x, w, b)]
    return out.data.copy(), grads


def _assert_bitwise(a, b):
    out_a, grads_a = a
    out_b, grads_b = b
    assert out_a.dtype == out_b.dtype
    np.testing.assert_array_equal(out_a, out_b)
    for ga, gb in zip(grads_a, grads_b):
        if ga is None:
            assert gb is None
            continue
        assert ga.dtype == gb.dtype
        np.testing.assert_array_equal(ga, gb)


GEOMETRY = [
    # stride, dilation, padding
    (1, 1, 0), (1, 1, (2, 0)), (1, 2, (4, 0)), (1, 3, (6, 0)),
    (2, 1, (2, 0)), (2, 2, 1), (3, 1, (1, 3)), (3, 3, 0), (2, 3, (0, 2)),
]


@pytest.mark.parametrize("policy", ["float64", "float32", "mixed"])
@pytest.mark.parametrize("stride,dilation,padding", GEOMETRY)
@pytest.mark.parametrize("with_bias", [True, False])
def test_bitwise_equal_to_gather_einsum(policy, stride, dilation, padding,
                                        with_bias):
    rng = np.random.default_rng(100 * stride + 10 * dilation + with_bias)
    with dtype_policy(policy):
        x, w, b = _leaves(rng, 6, 4, 5, 17, 3, with_bias)
        g = rng.standard_normal((5, 6, 17))

        def upstream(shape):
            return g[:, :, :shape[2]].transpose(1, 0, 2)

        kwargs = dict(stride=stride, padding=padding, dilation=dilation)
        _assert_bitwise(_run(conv1d, x, w, b, upstream, **kwargs),
                        _run(oracle_conv1d, x, w, b, upstream, **kwargs))


@pytest.mark.parametrize("batch,c_in,c_out,length,k", [
    (1, 3, 3, 9, 3),       # B = 1
    (1, 1, 4, 5, 2),       # one channel in
    (4, 7, 2, 11, 1),      # 1x1 conv, C_in != C_out
    (3, 2, 6, 4, 4),       # kernel as long as the unpadded input
    (500, 32, 32, 15, 3),  # the benchmark shape
])
@pytest.mark.parametrize("policy", ["float64", "float32"])
def test_shapes_bitwise(batch, c_in, c_out, length, k, policy):
    rng = np.random.default_rng(batch * 1000 + c_in * 10 + k)
    with dtype_policy(policy):
        x, w, b = _leaves(rng, batch, c_in, c_out, length, k, True)
        g = rng.standard_normal((batch, c_out, length))

        def upstream(shape):
            return g[:, :, :shape[2]]

        for padding, stride in [((k - 1, 0), 1), (0, 1), ((k - 1, 0), 2)]:
            if length + sum(padding if isinstance(padding, tuple)
                            else (padding, padding)) < k:
                continue
            kwargs = dict(stride=stride, padding=padding)
            _assert_bitwise(_run(conv1d, x, w, b, upstream, **kwargs),
                            _run(oracle_conv1d, x, w, b, upstream, **kwargs))


def test_strided_input_layout_bitwise(rng):
    """A transposed input view (the TCN's ``(T, N, C) -> (N, C, T)``)."""
    base = Tensor(rng.standard_normal((9, 5, 4)), requires_grad=True)
    w = Tensor(rng.standard_normal((6, 4, 1)), requires_grad=True)
    b = Tensor(rng.standard_normal(6), requires_grad=True)
    results = []
    for fn in (conv1d, oracle_conv1d):
        for leaf in (base, w, b):
            leaf.zero_grad()
        out = fn(base.transpose(1, 2, 0), w, b, stride=2)
        (out * out).sum().backward()
        results.append((out.data.copy(),
                        [base.grad.copy(), w.grad.copy(), b.grad.copy()]))
    _assert_bitwise(*results)


def test_mixed_operand_dtypes_bitwise(rng):
    """float32 input against float64 filters: same promotion and casts."""
    x = Tensor(rng.standard_normal((3, 4, 10)), dtype=np.float32,
               requires_grad=True)
    w = Tensor(rng.standard_normal((2, 4, 3)), dtype=np.float64,
               requires_grad=True)
    b = Tensor(rng.standard_normal(2), dtype=np.float64, requires_grad=True)
    g = rng.standard_normal((3, 2, 10))
    kwargs = dict(padding=(2, 0), dilation=1)
    _assert_bitwise(_run(conv1d, x, w, b, lambda s: g, **kwargs),
                    _run(oracle_conv1d, x, w, b, lambda s: g, **kwargs))


def test_records_one_tape_node(rng):
    from repro.tensor import tape_node_count

    x, w, b = _leaves(rng, 2, 3, 4, 8, 3, True)
    before = tape_node_count()
    conv1d(x, w, b, padding=(2, 0))
    assert tape_node_count() - before == 1


def test_no_grad_inputs_record_nothing(rng):
    x = Tensor(rng.standard_normal((2, 3, 8)))
    w = Tensor(rng.standard_normal((4, 3, 3)))
    out = conv1d(x, w, padding=1)
    assert not out.requires_grad and out._backward is None


@pytest.mark.parametrize("stride,dilation,padding",
                         [(1, 1, (2, 0)), (2, 2, 1), (3, 1, (0, 2))])
def test_gradcheck(stride, dilation, padding):
    rng = np.random.default_rng(7)
    x = Tensor(rng.standard_normal((2, 3, 9)), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 3, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal(4), requires_grad=True)
    r = rng.standard_normal((2, 4, 9))

    def loss():
        out = conv1d(x, w, b, stride=stride, padding=padding,
                     dilation=dilation)
        return (out * Tensor(r[:, :, :out.shape[2]])).sum()

    gradcheck(loss, [x, w, b])
