"""Shared fixtures: seeded RNGs and cached mini datasets."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import load_market


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def nasdaq_mini():
    """One NASDAQ-like mini dataset shared across the whole session."""
    return load_market("nasdaq-mini", seed=7)


@pytest.fixture(scope="session")
def csi_mini():
    """A CSI-like mini dataset (no wiki relations)."""
    return load_market("csi-mini", seed=7)


@pytest.fixture
def unpinned_blas():
    """Run this process's BLAS at 2 threads for the test, then re-pin.

    A forked worker started under it that reports one thread proves the
    fork-child re-pin (:func:`repro.parallel.pool.die_with_parent`)
    rather than mere inheritance of the parent's pin.
    """
    from repro.tensor import blas

    libraries = blas._openblas_libraries()
    if not libraries:
        pytest.skip("no OpenBLAS thread control in this process")
    for _, set_threads, _ in libraries:
        set_threads(2)
    try:
        yield
    finally:
        blas.pin_blas_threads()
