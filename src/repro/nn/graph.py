"""Graph neural-network layers: spectral graph convolution and attention.

:class:`GraphConv` implements Kipf & Welling's first-order convolution
(paper Eq. 2): ``Z = Â X Θ`` for a pre-normalized adjacency ``Â``.  The
adjacency is an input of ``forward`` rather than a constructor argument
because the paper's time-sensitive strategy (Eq. 5) supplies a *different*
adjacency at every time-step.  The layer dispatches on the adjacency's
type: a dense :class:`Tensor` propagates through batched matmul, a
:class:`~repro.tensor.sparse.SparseTensor` through the CSR ``spmm``
primitive — callers pick the representation (usually via a strategy's
``graph_mode``), the layer follows.

:class:`GraphAttention` is the GAT layer (Veličković et al., 2018) used by
the RT-GAT baseline of Table IV.  All heads are computed in one batched
einsum rather than a per-head Python loop, and the layer carries its own
``graph_mode``: the sparse path evaluates attention logits only on the
masked edges and normalizes with a per-row segment softmax — exactly equal
to the dense masked softmax, because masked dense logits sit at ``-1e9``
where ``exp`` underflows to zero.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..tensor import Tensor, einsum, ensure_tensor, linear, softmax
from ..tensor.fused import fused_enabled, gcn_propagate_fused
from ..tensor.sparse import (SparsePattern, SparseTensor, resolve_graph_mode,
                             sparse_gather, sparse_segment_sum, spmm)
from . import init
from .module import Module, Parameter
from .random import get_rng


def set_graph_mode(module: Module, mode: str) -> int:
    """Set ``graph_mode`` on every submodule that has one.

    Walks ``module.modules()`` and updates relation strategies, attention
    layers and any future module exposing a ``graph_mode`` attribute.
    Returns the number of modules updated.  This is how
    :class:`~repro.core.trainer.TrainConfig.graph_mode` reaches models
    built by the baseline factories without changing their protocol.
    """
    if mode not in ("auto", "dense", "sparse"):
        raise ValueError(f"unknown graph mode {mode!r}; expected "
                         "auto/dense/sparse")
    count = 0
    for submodule in module.modules():
        if hasattr(submodule, "graph_mode"):
            submodule.graph_mode = mode
            count += 1
    return count


class GraphConv(Module):
    """First-order spectral graph convolution ``Z = Â X Θ (+ b)``.

    ``forward(x, adj)`` accepts ``x`` of shape ``(..., N, C_in)`` and ``adj``
    either dense — shape ``(N, N)`` or batched ``(..., N, N)``, broadcast
    by NumPy matmul rules — or sparse (a
    :class:`~repro.tensor.sparse.SparseTensor`, optionally with a batch of
    value vectors), in which case propagation runs through ``spmm``.
    """

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        gen = rng if rng is not None else get_rng()
        self.weight = Parameter(np.zeros((out_features, in_features)))
        init.xavier_uniform_(self.weight, rng=gen)
        if bias:
            self.bias = Parameter(np.zeros(out_features))
        else:
            self.bias = None

    def forward(self, x: Tensor, adj) -> Tensor:
        x = ensure_tensor(x)
        if x.shape[-1] != self.in_features:
            raise ValueError(f"expected {self.in_features} input features, "
                             f"got {x.shape[-1]}")
        if isinstance(adj, SparseTensor):
            if adj.pattern.shape[1] != x.shape[-2]:
                raise ValueError(f"adjacency size {adj.pattern.shape[1]} "
                                 f"does not match node count {x.shape[-2]}")
            if fused_enabled():
                return gcn_propagate_fused(x, adj, self.weight, self.bias)
            support = linear(x, self.weight)  # (..., N, C_out)
            out = spmm(adj, support)          # (..., N, C_out)
        else:
            adj = ensure_tensor(adj)
            if adj.shape[-1] != x.shape[-2]:
                raise ValueError(f"adjacency size {adj.shape[-1]} does not "
                                 f"match node count {x.shape[-2]}")
            if fused_enabled():
                return gcn_propagate_fused(x, adj, self.weight, self.bias)
            support = linear(x, self.weight)      # (..., N, C_out)
            out = adj @ support                   # (..., N, C_out)
        if self.bias is not None:
            out = out + self.bias
        return out

    def __repr__(self) -> str:
        return (f"GraphConv(in_features={self.in_features}, "
                f"out_features={self.out_features})")


class GraphAttention(Module):
    """Single-layer multi-head graph attention (GAT).

    Attention coefficients ``e_ij = LeakyReLU(aᵀ[W h_i ‖ W h_j])`` are
    masked to the 1-hop neighborhood (plus self-loops) and normalized with a
    softmax.  Heads are concatenated (or averaged when ``concat_heads`` is
    false, as for an output layer).

    ``graph_mode`` selects the masked-softmax backend: ``dense`` computes
    full ``(N, N)`` logit matrices, ``sparse`` only per-edge logits with a
    segment softmax, ``auto`` picks by mask density (both give identical
    numbers; see ``docs/performance.md``).
    """

    def __init__(self, in_features: int, out_features: int, n_heads: int = 1,
                 concat_heads: bool = True, negative_slope: float = 0.2,
                 graph_mode: str = "auto",
                 density_threshold: Optional[float] = None,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        if concat_heads and out_features % n_heads != 0:
            raise ValueError(f"out_features={out_features} not divisible by "
                             f"n_heads={n_heads}")
        self.in_features = in_features
        self.out_features = out_features
        self.n_heads = n_heads
        self.concat_heads = concat_heads
        self.negative_slope = negative_slope
        self.graph_mode = graph_mode
        self.density_threshold = density_threshold
        resolve_graph_mode(graph_mode, 1.0, density_threshold)
        head_dim = out_features // n_heads if concat_heads else out_features
        self.head_dim = head_dim
        gen = rng if rng is not None else get_rng()
        self.weight = Parameter(np.zeros((n_heads, head_dim, in_features)))
        self.attn_src = Parameter(np.zeros((n_heads, head_dim)))
        self.attn_dst = Parameter(np.zeros((n_heads, head_dim)))
        for h in range(n_heads):
            bound = np.sqrt(6.0 / (in_features + head_dim))
            self.weight.data[h] = gen.uniform(-bound, bound,
                                              size=(head_dim, in_features))
        init.xavier_uniform_(self.attn_src, rng=gen)
        init.xavier_uniform_(self.attn_dst, rng=gen)
        self.bias = Parameter(np.zeros(out_features if concat_heads
                                       else out_features))
        # (mask object, pattern) pairs; keeping the mask reference pins its
        # id so identity-keyed reuse can never alias a recycled array.
        self._pattern_cache: list = []

    # ------------------------------------------------------------------
    def _edge_pattern(self, key, mask: np.ndarray) -> SparsePattern:
        """CSR pattern of ``mask ∪ I``, cached per *caller* mask instance.

        ``key`` is the mask object the caller passed (stable across
        forwards, e.g. RT-GAT's relation mask); ``mask`` is the derived
        boolean array including self-loops, which is rebuilt per call and
        therefore useless as a cache key.
        """
        for cached_key, pattern in self._pattern_cache:
            if cached_key is key:
                return pattern
        pattern = SparsePattern.from_mask(mask)
        self._pattern_cache.append((key, pattern))
        del self._pattern_cache[:-4]
        return pattern

    def _attend_dense(self, proj: Tensor, src: Tensor, dst: Tensor,
                      mask: np.ndarray) -> Tensor:
        """Masked softmax attention on full matrices: ``(B, H, N, d)``."""
        neg_inf = np.where(mask, 0.0, -1e9)
        logits = src.unsqueeze(-1) + dst.unsqueeze(-2)      # (B, H, N, N)
        logits = logits.leaky_relu(self.negative_slope) + Tensor(neg_inf)
        alpha = softmax(logits, axis=-1)
        return alpha @ proj

    def _attend_sparse(self, proj: Tensor, src: Tensor, dst: Tensor,
                       pattern: SparsePattern) -> Tensor:
        """Segment softmax attention on stored edges only.

        Exactly equals the dense masked softmax: the dense row max is
        always attained on a stored edge (the self-loop guarantees one),
        and ``exp(-1e9 - max)`` underflows to exactly 0.0, so the dense
        denominator is the same sum over stored edges.
        """
        logits = (sparse_gather(src, pattern, axis="row")
                  + sparse_gather(dst, pattern, axis="col"))  # (B, H, nnz)
        logits = logits.leaky_relu(self.negative_slope)
        # Row-max shift (a softmax-invariant constant, like the dense op).
        starts = pattern.indptr[:-1]
        row_max = np.maximum.reduceat(logits.data, starts, axis=-1)
        shifted = logits - Tensor(row_max[..., pattern.rows])
        weights = shifted.exp()
        denom = sparse_segment_sum(weights, pattern)          # (B, H, N)
        alpha = weights / sparse_gather(denom, pattern, axis="row")
        return spmm(SparseTensor(pattern, alpha), proj)

    def forward(self, x: Tensor, mask: np.ndarray) -> Tensor:
        """Apply attention over nodes.

        Parameters
        ----------
        x:
            Node features ``(..., N, C_in)``.
        mask:
            Boolean/0-1 array ``(N, N)``; entry ``(i, j)`` true when node
            ``j`` may send messages to node ``i``.  Self-loops are added
            automatically.
        """
        x = ensure_tensor(x)
        n = x.shape[-2]
        mask_key = mask
        mask = np.asarray(ensure_tensor(mask).data, dtype=bool) \
            | np.eye(n, dtype=bool)
        lead = x.shape[:-2]
        flat = x.reshape((-1, n, self.in_features))           # (B, N, C_in)

        # All heads at once; no ellipsis in this engine's einsum, hence
        # the explicit flattened batch axis.
        proj = einsum("bni,hdi->bhnd", flat, self.weight)     # (B, H, N, d)
        src = einsum("bhnd,hd->bhn", proj, self.attn_src)     # (B, H, N)
        dst = einsum("bhnd,hd->bhn", proj, self.attn_dst)     # (B, H, N)

        mode = resolve_graph_mode(self.graph_mode, mask.mean(),
                                  self.density_threshold)
        if mode == "sparse":
            out = self._attend_sparse(proj, src, dst,
                                      self._edge_pattern(mask_key, mask))
        else:
            out = self._attend_dense(proj, src, dst, mask)    # (B, H, N, d)

        batch = out.shape[0]
        if self.concat_heads:
            # (B, H, N, d) → (B, N, H·d); head-major feature order matches
            # the concatenation of per-head outputs.
            out = out.swapaxes(1, 2).reshape(
                (batch, n, self.n_heads * self.head_dim))
        else:
            out = out.mean(axis=1)                            # (B, N, d)
        out = out.reshape(lead + (n, self.out_features))
        return out + self.bias

    def __repr__(self) -> str:
        return (f"GraphAttention(in_features={self.in_features}, "
                f"out_features={self.out_features}, n_heads={self.n_heads})")
