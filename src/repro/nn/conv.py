"""1-D convolution layers, including the causal/weight-normalized variants
used by the paper's temporal convolution network (§IV-C).
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from ..tensor import Tensor, conv1d
from . import init
from .module import Module, Parameter
from .random import get_rng


class Conv1d(Module):
    """Standard 1-D convolution over ``(batch, channels, length)`` input."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: Union[int, Tuple[int, int]] = 0,
                 dilation: int = 1, bias: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        if kernel_size <= 0:
            raise ValueError(f"kernel_size must be positive, got {kernel_size}")
        if stride <= 0 or dilation <= 0:
            raise ValueError("stride and dilation must be positive")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.dilation = dilation
        gen = rng if rng is not None else get_rng()
        self.weight = Parameter(
            np.zeros((out_channels, in_channels, kernel_size)))
        init.kaiming_uniform_(self.weight, rng=gen)
        if bias:
            self.bias = Parameter(np.zeros(out_channels))
            init.bias_uniform_(self.bias, in_channels * kernel_size, rng=gen)
        else:
            self.bias = None

    def _weight(self) -> Tensor:
        return self.weight

    def forward(self, x: Tensor) -> Tensor:
        return conv1d(x, self._weight(), self.bias, stride=self.stride,
                      padding=self.padding, dilation=self.dilation)

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({self.in_channels}, "
                f"{self.out_channels}, kernel_size={self.kernel_size}, "
                f"stride={self.stride}, padding={self.padding}, "
                f"dilation={self.dilation})")


class CausalConv1d(Conv1d):
    """Left-padded convolution so output at time ``t`` sees only ``≤ t``.

    This is the paper's Eq. (6)/Figure 4 building block: the receptive field
    is expanded through dilation and there is no leakage from the future to
    the past.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, dilation: int = 1, bias: bool = True,
                 rng: Optional[np.random.Generator] = None):
        left_pad = dilation * (kernel_size - 1)
        super().__init__(in_channels, out_channels, kernel_size,
                         stride=stride, padding=(left_pad, 0),
                         dilation=dilation, bias=bias, rng=rng)


class WeightNormConv1d(Conv1d):
    """Conv1d with weight normalization (Salimans & Kingma, 2016).

    Reparameterizes each output-channel filter as ``w = g · v/‖v‖`` so the
    direction and magnitude are learned separately; the paper applies this to
    every TCN filter.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: Union[int, Tuple[int, int]] = 0,
                 dilation: int = 1, bias: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__(in_channels, out_channels, kernel_size,
                         stride=stride, padding=padding, dilation=dilation,
                         bias=bias, rng=rng)
        # Re-register the raw weight as the direction `v`, and add `g`
        # initialized to the current norms so the initial function is
        # unchanged.
        v = self.weight.data
        norms = np.sqrt((v.reshape(v.shape[0], -1) ** 2).sum(axis=1))
        self.weight_g = Parameter(norms.reshape(-1, 1, 1))
        self.weight_v = Parameter(v.copy())
        del self._parameters["weight"]
        object.__setattr__(self, "weight", None)

    def _weight(self) -> Tensor:
        v = self.weight_v
        norm = (v * v).sum(axis=(1, 2), keepdims=True).sqrt()
        return self.weight_g * v / (norm + 1e-12)


class CausalWeightNormConv1d(WeightNormConv1d):
    """Causal + weight-normalized convolution, the exact TCN filter of §IV-C."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, dilation: int = 1, bias: bool = True,
                 rng: Optional[np.random.Generator] = None):
        left_pad = dilation * (kernel_size - 1)
        super().__init__(in_channels, out_channels, kernel_size,
                         stride=stride, padding=(left_pad, 0),
                         dilation=dilation, bias=bias, rng=rng)
