"""DA-RNN: dual-stage attention-based recurrent network (Qin et al. [5]).

The paper's related work singles out DA-RNN as "a novel model to capture
long-term temporal dependencies with a dual attention mechanism"; it is
not in Table IV but is the strongest attention-RNN of the era, so this
repository includes it as an *extra* relation-blind baseline.

Two attention stages per the original design, adapted to the ranking
protocol (one sequence per stock):

1. **Input attention** — at each time-step, a learned attention over the
   ``D`` driving features re-weights the input before the encoder LSTM
   consumes it (which feature matters varies through time).
2. **Temporal attention** — a decoder context vector attends over all
   encoder hidden states, so distant time-steps can contribute directly
   to the prediction instead of being squeezed through the last state.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn import LSTMCell, Linear
from ..nn.module import Module, Parameter
from ..nn import init
from ..nn.random import get_rng
from ..tensor import Tensor, concat, ensure_tensor, softmax, stack, tanh


class InputAttention(Module):
    """Stage 1: per-step attention over the input features."""

    def __init__(self, num_features: int, hidden_size: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        gen = rng if rng is not None else get_rng()
        self.state_proj = Linear(2 * hidden_size, num_features, rng=gen)
        self.feature_gate = Parameter(np.zeros(num_features))
        init.uniform_(self.feature_gate, -0.1, 0.1, rng=gen)

    def forward(self, x_t: Tensor, h: Tensor, c: Tensor) -> Tensor:
        """Re-weight features of ``x_t (B, D)`` given encoder state."""
        state = concat([h, c], axis=-1)                  # (B, 2H)
        logits = tanh(self.state_proj(state)) * self.feature_gate \
            + x_t * self.feature_gate
        weights = softmax(logits, axis=-1)               # (B, D)
        # The original multiplies each driving series by its weight; the
        # D-fold rescale keeps the input magnitude comparable.
        return x_t * weights * float(weights.shape[-1])


class TemporalAttention(Module):
    """Stage 2: attention over the encoder's hidden-state history."""

    def __init__(self, hidden_size: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        gen = rng if rng is not None else get_rng()
        self.score = Linear(hidden_size, 1, rng=gen)
        self.query = Linear(hidden_size, hidden_size, rng=gen)

    def forward(self, states: Tensor) -> Tensor:
        """Pool ``(B, T, H)`` encoder states into a ``(B, H)`` context."""
        queried = tanh(self.query(states))               # (B, T, H)
        logits = self.score(queried).squeeze(-1)         # (B, T)
        weights = softmax(logits, axis=-1)
        return (weights.unsqueeze(-1) * states).sum(axis=1)


class DARNN(Module):
    """Dual-stage attention RNN scorer for the ranking protocol."""

    uses_relations = False

    def __init__(self, num_features: int = 4, hidden_size: int = 32,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        gen = rng if rng is not None else get_rng()
        self.hidden_size = hidden_size
        self.input_attention = InputAttention(num_features, hidden_size,
                                              rng=gen)
        self.encoder = LSTMCell(num_features, hidden_size, rng=gen)
        self.temporal_attention = TemporalAttention(hidden_size, rng=gen)
        self.scorer = Linear(2 * hidden_size, 1, rng=gen)

    def forward(self, x: Tensor) -> Tensor:
        """Window features ``(T, N, D)`` → scores ``(N,)``."""
        x = ensure_tensor(x)
        if x.ndim != 3:
            raise ValueError(f"expected (T, N, D) input, got {x.shape}")
        steps, batch = x.shape[0], x.shape[1]
        h, c = self.encoder.initial_state(batch)
        states = []
        for t in range(steps):
            weighted = self.input_attention(x[t], h, c)
            h, c = self.encoder(weighted, (h, c))
            states.append(h)
        history = stack(states, axis=1)                  # (N, T, H)
        context = self.temporal_attention(history)       # (N, H)
        return self.scorer(concat([context, h], axis=-1)).squeeze(-1)
