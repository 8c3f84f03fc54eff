"""Building a layer under the float32 policy casts no uninitialised memory.

Each layer used to allocate its parameters with ``np.empty`` (float64)
and let the initializer overwrite them; the ``Parameter`` cast to float32
in between read whatever the allocator returned, and a huge leftover
value raised ``RuntimeWarning: overflow encountered in cast``.  Here
``np.empty`` hands out ``1e300``-filled float64 arrays, so a layer that
still casts an uninitialised buffer fails every time, not by chance.
"""

import numpy as np
import pytest

from repro.baselines.darnn import InputAttention
from repro.baselines.rsr import RSR
from repro.baselines.sthan import HawkesAttention
from repro.graph import RelationMatrix
from repro.graph.strategies import TimeSensitiveStrategy, WeightStrategy
from repro.nn import (Conv1d, GRUCell, GraphAttention, GraphConv, Linear,
                      LSTMCell, SFMCell, TemporalBlock)
from repro.tensor import dtype_policy

RELATIONS = RelationMatrix.from_edges(4, ["a", "b"], [(0, 1, 0), (2, 3, 1)])

LAYERS = {
    "Linear": lambda: Linear(3, 2),
    "Conv1d": lambda: Conv1d(2, 3, 3),
    "TemporalBlock": lambda: TemporalBlock(4, 4),
    "GraphConv": lambda: GraphConv(3, 2),
    "GraphAttention": lambda: GraphAttention(3, 4, n_heads=2),
    "LSTMCell": lambda: LSTMCell(3, 4),
    "GRUCell": lambda: GRUCell(3, 4),
    "SFMCell": lambda: SFMCell(3, 4),
    "WeightStrategy": lambda: WeightStrategy(RELATIONS),
    "TimeSensitiveStrategy": lambda: TimeSensitiveStrategy(RELATIONS),
    "RSR-explicit": lambda: RSR(RELATIONS, hidden_size=4),
    "RSR-implicit": lambda: RSR(RELATIONS, hidden_size=4, mode="implicit"),
    "HawkesAttention": lambda: HawkesAttention(4),
    "InputAttention": lambda: InputAttention(3, 4),
}


@pytest.fixture
def dirty_empty(monkeypatch):
    """``np.empty`` returns float64 arrays full of ``1e300``."""
    real_empty = np.empty

    def empty(shape, dtype=float, *args, **kwargs):
        out = real_empty(shape, dtype, *args, **kwargs)
        if out.dtype == np.float64:
            out.fill(1e300)
        return out

    monkeypatch.setattr(np, "empty", empty)


@pytest.mark.parametrize("name", sorted(LAYERS))
@pytest.mark.filterwarnings("error")
def test_builds_under_float32_without_warnings(dirty_empty, name):
    with dtype_policy("float32"):
        layer = LAYERS[name]()
    params = list(layer.parameters())
    assert params
    for param in params:
        assert param.data.dtype == np.float32
        assert np.isfinite(param.data).all()
