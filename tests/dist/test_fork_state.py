"""Process-global tensor state across fork(): what a dist worker inherits.

The dist workers fork from a parent whose process-global tensor state —
dtype policy, RNG streams — is mid-training.  These tests pin the
inheritance contract: the dtype policy carries over (workers re-enter it
from config anyway), and per-shard reseeding realigns every RNG stream
so a forked worker and the inline path draw identical dropout masks.
"""

import multiprocessing

import numpy as np
import pytest

from repro.nn import Dropout, Sequential, Linear
from repro.nn.random import get_rng, manual_seed
from repro.dist import reseed_shard
from repro.dist.worker import shard_rngs
from repro.parallel import fork_available
from repro.tensor import Tensor, default_dtype, dtype_policy

pytestmark = pytest.mark.skipif(not fork_available(),
                                reason="needs the fork start method")

_CTX = multiprocessing.get_context("fork")


def _in_child(target):
    """Run ``target`` in a forked child; returns what it sends back."""
    parent_conn, child_conn = _CTX.Pipe(duplex=False)

    def main():
        child_conn.send(target())

    process = _CTX.Process(target=main, daemon=True)
    process.start()
    try:
        assert parent_conn.poll(30.0), "child produced no result"
        return parent_conn.recv()
    finally:
        process.join(timeout=10.0)


class TestDtypePolicyAcrossFork:
    def test_policy_carries_over_fork(self):
        with dtype_policy("float32"):
            assert _in_child(lambda: default_dtype().str) == \
                np.dtype(np.float32).str
        assert default_dtype() == np.float64


class TestShardRngAlignment:
    def _model(self):
        # one module aliasing the global stream, one with its own
        manual_seed(123)
        return Sequential(
            Linear(4, 4, rng=np.random.default_rng(5)),
            Dropout(0.5),
            Dropout(0.5, rng=np.random.default_rng(11)),
        )

    def test_global_alias_deduplicated(self):
        model = self._model()
        streams = shard_rngs(model)
        names = [name for name, _ in streams]
        assert names[0] == "<global>"
        # Dropout without an explicit rng aliases the global generator —
        # it must appear once, not once per module
        assert len(streams) == len({id(gen) for _, gen in streams})
        assert len([n for n in names if n == "<global>"]) == 1

    def test_forked_worker_draws_parent_identical_masks(self):
        model = self._model()

        def draw():
            reseed_shard(model, seed=42, epoch=1, step=3, shard=2)
            model.train()
            out = model(Tensor(np.ones((5, 4))))
            return out.data

        # parent advances its streams arbitrarily before each side draws
        get_rng().standard_normal(17)
        inline = draw()
        get_rng().standard_normal(31)
        forked = _in_child(draw)
        assert np.array_equal(inline, forked)      # bitwise masks

    def test_distinct_shards_get_distinct_streams(self):
        model = self._model()
        reseed_shard(model, seed=42, epoch=0, step=0, shard=0)
        first = get_rng().standard_normal(8)
        reseed_shard(model, seed=42, epoch=0, step=0, shard=1)
        second = get_rng().standard_normal(8)
        reseed_shard(model, seed=42, epoch=0, step=0, shard=0)
        replay = get_rng().standard_normal(8)
        assert not np.array_equal(first, second)
        assert np.array_equal(first, replay)
