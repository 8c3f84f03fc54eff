"""Fused tape nodes: gradcheck and fused-vs-composed equivalence.

Every fused kernel is gated twice, per the equivalence contract of
``repro.tensor.fused``:

- **gradcheck** under both dtype policies (analytic VJPs vs central
  differences, tolerances chosen per dtype);
- **equivalence** against the composed-op path: bitwise under ``float64``
  (identical expression order), tolerance-bounded under ``float32``.
"""

import numpy as np
import pytest

from repro.nn import GRUCell, GraphConv, LSTMCell, Linear, TemporalBlock
from repro.tensor import (Tensor, SparsePattern, SparseTensor,
                          affine_act_fused, arena, dtype_policy,
                          fused_kernels, gcn_propagate_fused, gradcheck,
                          gru_cell_fused, lstm_cell_fused,
                          tape_node_count, temporal_block_fused)

#: relative tolerance documented for float32 fused-vs-composed agreement
#: (see docs/performance.md) — rounding differs only through fp32 noise.
FLOAT32_RTOL = 1e-4
FLOAT32_ATOL = 1e-5

POLICIES = ["float64", "float32"]


def _t(rng, shape, scale=1.0):
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=True)


def _grads(tensors):
    return [None if t.grad is None else t.grad.copy() for t in tensors]


def _compare(policy, fused_out, composed_out, fused_grads, composed_grads):
    if policy == "float64":
        np.testing.assert_array_equal(fused_out, composed_out)
        for fg, cg in zip(fused_grads, composed_grads):
            np.testing.assert_array_equal(fg, cg)
    else:
        np.testing.assert_allclose(fused_out, composed_out,
                                   rtol=FLOAT32_RTOL, atol=FLOAT32_ATOL)
        for fg, cg in zip(fused_grads, composed_grads):
            np.testing.assert_allclose(fg, cg, rtol=FLOAT32_RTOL,
                                       atol=FLOAT32_ATOL)


def _run_both_paths(build_loss, leaves):
    """Loss + grads with fusion on, then off, on the same leaves."""
    results = []
    for enabled in (True, False):
        for leaf in leaves:
            leaf.zero_grad()
        with fused_kernels(enabled):
            loss = build_loss()
        loss.backward()
        results.append((loss.data.copy(), _grads(leaves)))
    return results


class TestAffineActFused:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_gradcheck(self, rng, policy):
        with dtype_policy(policy):
            x = _t(rng, (3, 4))
            w = _t(rng, (2, 4))
            b = _t(rng, (2,))
            gradcheck(lambda: affine_act_fused(x, w, b).sum(), [x, w, b])

    @pytest.mark.parametrize("activation",
                             ["identity", "relu", "tanh", "sigmoid",
                              "leaky_relu"])
    def test_gradcheck_activations(self, rng, activation):
        x = _t(rng, (3, 4))
        w = _t(rng, (2, 4))
        # inputs shifted off 0 so relu/leaky_relu kinks don't break the
        # finite-difference comparison
        x.data += 0.05
        gradcheck(lambda: affine_act_fused(x, w, activation=activation)
                  .sum(), [x, w])

    @pytest.mark.parametrize("policy", POLICIES)
    def test_matches_composed_linear(self, rng, policy):
        with dtype_policy(policy):
            layer = Linear(5, 3, rng=np.random.default_rng(0))
            layer.astype(np.dtype(np.float64 if policy == "float64"
                                  else np.float32))
            x = _t(rng, (2, 7, 5))
            leaves = [x, layer.weight, layer.bias]
            (f_loss, f_grads), (c_loss, c_grads) = _run_both_paths(
                lambda: (layer(x) * layer(x)).sum(), leaves)
            _compare(policy, f_loss, c_loss, f_grads, c_grads)


class TestLSTMCellFused:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_gradcheck(self, rng, policy):
        with dtype_policy(policy):
            H = 3
            x = _t(rng, (2, 4))
            h0 = _t(rng, (2, H))
            c0 = _t(rng, (2, H))
            w_ih = _t(rng, (4 * H, 4), scale=0.5)
            w_hh = _t(rng, (4 * H, H), scale=0.5)
            b = _t(rng, (4 * H,))

            def loss():
                h, c = lstm_cell_fused(x, h0, c0, w_ih, w_hh, b, H)
                return (h * h).sum() + c.sum()

            gradcheck(loss, [x, h0, c0, w_ih, w_hh, b])

    def test_gradcheck_h_unused(self, rng):
        """The c-node backward must tolerate the h node never receiving a
        gradient (its stash stays ``None``)."""
        H = 3
        x = _t(rng, (2, 4))
        h0 = _t(rng, (2, H))
        c0 = _t(rng, (2, H))
        w_ih = _t(rng, (4 * H, 4), scale=0.5)
        w_hh = _t(rng, (4 * H, H), scale=0.5)
        b = _t(rng, (4 * H,))

        def loss():
            _, c = lstm_cell_fused(x, h0, c0, w_ih, w_hh, b, H)
            return c.sum()

        gradcheck(loss, [x, h0, c0, w_ih, w_hh, b])

    @pytest.mark.parametrize("policy", POLICIES)
    def test_matches_composed_cell(self, rng, policy):
        with dtype_policy(policy):
            cell = LSTMCell(4, 3, rng=np.random.default_rng(0))
            cell.astype(np.dtype(np.float64 if policy == "float64"
                                 else np.float32))
            x = _t(rng, (5, 4))
            h0, c0 = cell.initial_state(5)
            leaves = [x] + list(cell.parameters())

            def loss():
                h, c = cell(x, (h0, c0))
                h, c = cell(x, (h, c))     # two chained steps
                return (h * c).sum()

            (f_loss, f_grads), (c_loss, c_grads) = _run_both_paths(loss,
                                                                   leaves)
            _compare(policy, f_loss, c_loss, f_grads, c_grads)


class TestGRUCellFused:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_gradcheck(self, rng, policy):
        with dtype_policy(policy):
            H = 3
            x = _t(rng, (2, 4))
            h0 = _t(rng, (2, H))
            w_ih = _t(rng, (3 * H, 4), scale=0.5)
            w_hh = _t(rng, (3 * H, H), scale=0.5)
            b_ih = _t(rng, (3 * H,))
            b_hh = _t(rng, (3 * H,))
            gradcheck(lambda: (gru_cell_fused(x, h0, w_ih, w_hh, b_ih, b_hh,
                                              H) ** 2).sum(),
                      [x, h0, w_ih, w_hh, b_ih, b_hh])

    @pytest.mark.parametrize("policy", POLICIES)
    def test_matches_composed_cell(self, rng, policy):
        with dtype_policy(policy):
            cell = GRUCell(4, 3, rng=np.random.default_rng(0))
            cell.astype(np.dtype(np.float64 if policy == "float64"
                                 else np.float32))
            x = _t(rng, (5, 4))
            h0 = cell.initial_state(5)
            leaves = [x] + list(cell.parameters())

            def loss():
                h = cell(x, h0)
                h = cell(x, h)
                return (h * h).sum()

            (f_loss, f_grads), (c_loss, c_grads) = _run_both_paths(loss,
                                                                   leaves)
            _compare(policy, f_loss, c_loss, f_grads, c_grads)


class TestGCNPropagateFused:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_gradcheck_dense(self, rng, policy):
        with dtype_policy(policy):
            x = _t(rng, (4, 3))
            adj = _t(rng, (4, 4))
            w = _t(rng, (2, 3))
            b = _t(rng, (2,))
            gradcheck(lambda: gcn_propagate_fused(x, adj, w, b).sum(),
                      [x, adj, w, b])

    def test_gradcheck_sparse_values(self, rng):
        mask = rng.random((5, 5)) < 0.5
        np.fill_diagonal(mask, True)
        pattern = SparsePattern.from_mask(mask)
        values = Tensor(rng.standard_normal(pattern.nnz),
                        requires_grad=True)
        x = _t(rng, (5, 3))
        w = _t(rng, (2, 3))
        gradcheck(lambda: gcn_propagate_fused(
            x, SparseTensor(pattern, values), w).sum(), [x, values, w])

    @pytest.mark.parametrize("policy", POLICIES)
    def test_matches_composed_dense(self, rng, policy):
        with dtype_policy(policy):
            layer = GraphConv(3, 2, rng=np.random.default_rng(0))
            layer.astype(np.dtype(np.float64 if policy == "float64"
                                  else np.float32))
            x = _t(rng, (2, 6, 3))          # batched features
            adj = _t(rng, (2, 6, 6))        # batched adjacency, needs grad
            leaves = [x, adj, layer.weight, layer.bias]
            (f_loss, f_grads), (c_loss, c_grads) = _run_both_paths(
                lambda: (layer(x, adj) ** 2).sum(), leaves)
            _compare(policy, f_loss, c_loss, f_grads, c_grads)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_matches_composed_sparse(self, rng, policy):
        with dtype_policy(policy):
            layer = GraphConv(3, 2, rng=np.random.default_rng(0))
            layer.astype(np.dtype(np.float64 if policy == "float64"
                                  else np.float32))
            mask = rng.random((6, 6)) < 0.4
            np.fill_diagonal(mask, True)
            pattern = SparsePattern.from_mask(mask)
            values = Tensor(rng.standard_normal(pattern.nnz),
                            requires_grad=True)
            x = _t(rng, (6, 3))
            leaves = [x, values, layer.weight, layer.bias]
            (f_loss, f_grads), (c_loss, c_grads) = _run_both_paths(
                lambda: (layer(x, SparseTensor(pattern, values)) ** 2)
                .sum(), leaves)
            _compare(policy, f_loss, c_loss, f_grads, c_grads)


class TestTemporalBlockFused:
    """The TCN residual block (conv → ReLU → spatial dropout, twice, plus
    the residual) as one node, against the composed block."""

    @staticmethod
    def _block(policy, c_in, c_out, stride, dilation, dropout=0.3):
        block = TemporalBlock(c_in, c_out, kernel_size=3, stride=stride,
                              dilation=dilation, dropout=dropout,
                              rng=np.random.default_rng(5))
        block.astype(np.dtype(np.float64 if policy == "float64"
                              else np.float32))
        return block

    @staticmethod
    def _run(block, base, weights, enabled):
        """Loss, grads and the dropout RNG state after one pass.

        The input is a transposed view, and the loss reads the output
        through a transpose, as ``core.TemporalConvolution`` does."""
        leaves = [base] + list(block.parameters())
        for leaf in leaves:
            leaf.zero_grad()
        rng = np.random.default_rng(11)
        block.drop1._rng = block.drop2._rng = rng
        with fused_kernels(enabled):
            out = block(base.transpose(1, 2, 0))
            loss = (out.transpose(2, 0, 1) ** 2 * weights[:out.shape[2]]).sum()
        loss.backward()
        return (out.data.copy(), _grads(leaves),
                rng.bit_generator.state["state"]["state"])

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("c_in,c_out,stride,dilation", [
        (4, 4, 1, 1),     # identity residual
        (3, 5, 2, 1),     # stride 2 + downsample
        (5, 5, 1, 2),     # dilation 2, identity residual
        (4, 6, 2, 2),     # both, downsample
    ])
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("use_arena", [False, True])
    def test_matches_composed_block(self, rng, policy, c_in, c_out, stride,
                                    dilation, training, use_arena):
        block = self._block(policy, c_in, c_out, stride, dilation)
        block.train(training)
        with dtype_policy(policy), arena(use_arena):
            base = _t(rng, (12, 7, c_in))       # (T, N, C)
            weights = Tensor(rng.standard_normal((12, 7, c_out)))
            fused = self._run(block, base, weights, True)
            composed = self._run(block, base, weights, False)
        _compare(policy, fused[0], composed[0], fused[1], composed[1])
        assert fused[2] == composed[2], "dropout RNG stream moved"

    # float64 only: float32 central differences straddle the ReLU kinks.
    @pytest.mark.parametrize("stride,downsample", [(1, False), (2, True)])
    def test_gradcheck(self, rng, stride, downsample):
        with dtype_policy("float64"):
            c_out = 3 if downsample else 2
            x = _t(rng, (2, 2, 9))
            w1 = _t(rng, (c_out, 2, 3), 0.5)
            b1 = _t(rng, (c_out,))
            w2 = _t(rng, (c_out, c_out, 3), 0.5)
            b2 = _t(rng, (c_out,))
            extra = [_t(rng, (c_out, 2, 1)), _t(rng, (c_out,))] \
                if downsample else [None, None]
            masks = tuple(Tensor((rng.random((2, c_out, 1)) > 0.3) / 0.7)
                          .data for _ in range(2))
            r = Tensor(rng.standard_normal((2, c_out, 9)))
            leaves = [t for t in (x, w1, b1, w2, b2, *extra)
                      if t is not None]

            def loss():
                out = temporal_block_fused(x, w1, b1, w2, b2, *extra,
                                           stride=stride, dilation=2,
                                           masks=masks)
                return (out * Tensor(r.data[:, :, :out.shape[2]])).sum()

            gradcheck(loss, leaves)

    def test_records_one_tape_node(self, rng):
        block = self._block("float64", 3, 5, 2, 1)
        x = _t(rng, (4, 3, 10))
        weights_norm = [block.conv1._weight(), block.conv2._weight()]
        before = tape_node_count()
        temporal_block_fused(x, weights_norm[0], block.conv1.bias,
                             weights_norm[1], block.conv2.bias,
                             block.downsample.weight, block.downsample.bias,
                             stride=2)
        assert tape_node_count() - before == 1

    def test_shortens_tape(self, rng):
        block = self._block("float64", 3, 5, 2, 1)
        x = _t(rng, (4, 3, 10))

        def nodes(enabled):
            with fused_kernels(enabled):
                before = tape_node_count()
                block(x).sum().backward()
                return tape_node_count() - before

        assert nodes(True) < nodes(False)


class TestFusedSwitch:
    def test_context_restores(self):
        from repro.tensor import fused_enabled
        assert fused_enabled()
        with fused_kernels(False):
            assert not fused_enabled()
            with fused_kernels(True):
                assert fused_enabled()
            assert not fused_enabled()
        assert fused_enabled()

    def test_fused_shortens_tape(self, rng):
        from repro.tensor import tape_node_count
        cell = LSTMCell(4, 8, rng=np.random.default_rng(0))
        x = _t(rng, (2, 4))

        def nodes(enabled):
            with fused_kernels(enabled):
                before = tape_node_count()
                h, c = cell(x, cell.initial_state(2))
                (h * c).sum().backward()
                return tape_node_count() - before

        assert nodes(True) < nodes(False)
