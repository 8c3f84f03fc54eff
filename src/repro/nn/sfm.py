"""State Frequency Memory recurrent network (Zhang, Aggarwal & Qi, KDD 2017).

The SFM baseline in the paper's Table IV decomposes the cell memory into
``n_freq`` frequency components, keeping a complex-valued state whose real
and imaginary parts rotate at fixed frequencies.  Short and long trading
patterns then live in different components of the amplitude spectrum.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from ..tensor import Tensor, linear, sigmoid, stack, tanh
from . import init
from .module import Module, Parameter
from .random import get_rng


class SFMCell(Module):
    """One step of the state-frequency-memory recurrence.

    State is ``(h, Re S, Im S)`` with ``S`` of shape
    ``(batch, hidden, n_freq)``.
    """

    def __init__(self, input_size: int, hidden_size: int, n_freq: int = 4,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        if n_freq < 1:
            raise ValueError("n_freq must be >= 1")
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.n_freq = n_freq
        gen = rng if rng is not None else get_rng()
        # Gates: input i, state-forget f_ste (H), frequency-forget f_fre (K),
        # modulation c~, output o.
        gate_rows = 3 * hidden_size + n_freq + hidden_size  # i, f_ste, c~, o, + f_fre
        self.weight_ih = Parameter(np.zeros((gate_rows, input_size)))
        self.weight_hh = Parameter(np.zeros((gate_rows, hidden_size)))
        self.bias = Parameter(np.zeros(gate_rows))
        init.xavier_uniform_(self.weight_ih, rng=gen)
        init.xavier_uniform_(self.weight_hh, rng=gen)
        # Amplitude-combination weights: per hidden unit, mix the K frequency
        # amplitudes into one memory value.
        self.weight_amp = Parameter(np.zeros((hidden_size, n_freq)))
        self.bias_amp = Parameter(np.zeros(hidden_size))
        init.xavier_uniform_(self.weight_amp, rng=gen)
        # Fixed rotation frequencies ω_k = 2πk/K.
        self.omegas = 2.0 * math.pi * np.arange(n_freq) / n_freq

    def initial_state(self, batch_size: int) -> Tuple[Tensor, Tensor, Tensor]:
        h = Tensor(np.zeros((batch_size, self.hidden_size)))
        re = Tensor(np.zeros((batch_size, self.hidden_size, self.n_freq)))
        im = Tensor(np.zeros((batch_size, self.hidden_size, self.n_freq)))
        return h, re, im

    def forward(self, x: Tensor, state: Tuple[Tensor, Tensor, Tensor],
                step: int) -> Tuple[Tensor, Tensor, Tensor]:
        h_prev, re_prev, im_prev = state
        H, K = self.hidden_size, self.n_freq
        gates = (linear(x, self.weight_ih)
                 + linear(h_prev, self.weight_hh) + self.bias)
        i = sigmoid(gates[..., 0 * H:1 * H])
        f_ste = sigmoid(gates[..., 1 * H:2 * H])
        c_tilde = tanh(gates[..., 2 * H:3 * H])
        o = sigmoid(gates[..., 3 * H:4 * H])
        f_fre = sigmoid(gates[..., 4 * H:4 * H + K])
        # Joint forget gate F = f_ste ⊗ f_fre : (B, H, K).
        forget = f_ste.unsqueeze(-1) * f_fre.unsqueeze(-2)
        update = (i * c_tilde).unsqueeze(-1)          # (B, H, 1)
        cos_t = Tensor(np.cos(self.omegas * step))    # (K,)
        sin_t = Tensor(np.sin(self.omegas * step))
        re = forget * re_prev + update * cos_t
        im = forget * im_prev + update * sin_t
        amplitude = (re * re + im * im + 1e-12).sqrt()
        combined = tanh((amplitude * self.weight_amp).sum(axis=-1)
                        + self.bias_amp)
        h = o * combined
        return h, re, im


class SFM(Module):
    """Sequence-level SFM encoder over ``(B, T, D)`` input.

    Returns per-step hidden states ``(B, T, H)`` and the final hidden state.
    """

    def __init__(self, input_size: int, hidden_size: int, n_freq: int = 4,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.cell = SFMCell(input_size, hidden_size, n_freq=n_freq, rng=rng)
        self.hidden_size = hidden_size

    def forward(self, x: Tensor) -> Tuple[Tensor, Tensor]:
        if x.ndim != 3:
            raise ValueError(f"SFM expects (B, T, D) input, got {x.shape}")
        batch, steps, _ = x.shape
        h, re, im = self.cell.initial_state(batch)
        outputs = []
        for t in range(steps):
            h, re, im = self.cell(x[:, t, :], (h, re, im), step=t + 1)
            outputs.append(h)
        return stack(outputs, axis=1), h
