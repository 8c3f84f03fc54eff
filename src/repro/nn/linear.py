"""Affine layers."""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..tensor import Tensor, linear
from ..tensor.fused import affine_act_fused, fused_enabled
from . import init
from .module import Module, Parameter
from .random import get_rng


class Linear(Module):
    """Fully connected layer ``y = x W^T + b``.

    Parameters
    ----------
    in_features, out_features:
        Input/output dimensionality of the last axis.
    bias:
        Whether to learn an additive bias.
    rng:
        Optional generator for reproducible initialization.
    """

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("feature sizes must be positive, got "
                             f"({in_features}, {out_features})")
        self.in_features = in_features
        self.out_features = out_features
        gen = rng if rng is not None else get_rng()
        self.weight = Parameter(np.zeros((out_features, in_features)))
        init.kaiming_uniform_(self.weight, rng=gen)
        if bias:
            self.bias = Parameter(np.zeros(out_features))
            init.bias_uniform_(self.bias, in_features, rng=gen)
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.in_features:
            raise ValueError(f"expected last dim {self.in_features}, got "
                             f"{x.shape[-1]}")
        if fused_enabled():
            return affine_act_fused(x, self.weight, self.bias)
        return linear(x, self.weight, self.bias)

    def __repr__(self) -> str:
        return (f"Linear(in_features={self.in_features}, "
                f"out_features={self.out_features}, "
                f"bias={self.bias is not None})")
