"""The one-BLAS-thread policy: pinned at import, host-independent bits.

OpenBLAS splits long-K GEMMs across its threads, so before the policy a
500-stock RT-GCN (T) step gave different parameters under
``OPENBLAS_NUM_THREADS=1`` and ``=2`` on a multi-core host.  The
subprocess tests below start fresh interpreters with each setting and
require bitwise-equal results; on a single-core host OpenBLAS caps
itself at one thread and they pass trivially.
"""

import json
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import pytest

import repro
from repro.parallel import PoolTelemetry
from repro.tensor import BLAS_THREADS, blas, blas_threads, pin_blas_threads

REPO_ROOT = Path(__file__).resolve().parents[2]

#: one optimizer step of the paper-sparsity 500-stock universe, plus the
#: conv weight-gradient GEMM shape it contains, digested
STEP_SCRIPT = textwrap.dedent("""
    import hashlib, json

    import numpy as np

    from repro.core import RTGCN, TrainConfig, Trainer
    from repro.data import load_market
    from repro.tensor import blas_threads

    rng = np.random.default_rng(0)
    grad_out = rng.standard_normal((32, 7500))
    columns = rng.standard_normal((7500, 96))
    gemm = hashlib.sha256((grad_out @ columns).tobytes()).hexdigest()

    dataset = load_market("nasdaq", seed=1001, spec_overrides=dict(
        num_stocks=500, num_industries=60, industry_pair_ratio=0.025,
        wiki_types=20, wiki_pair_ratio=0.003, train_days=32, test_days=8))
    config = TrainConfig(epochs=1, max_train_days=1, seed=0)
    model = RTGCN(dataset.relations, num_features=config.num_features,
                  strategy="time", rng=np.random.default_rng(0))
    Trainer(model, dataset, config).fit()
    digest = hashlib.sha256()
    for name, array in sorted(model.state_dict().items()):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    print(json.dumps({"threads": blas_threads(), "gemm": gemm,
                      "params": digest.hexdigest()}))
""")


def run_with_thread_env(threads: int) -> dict:
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = str(threads)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run([sys.executable, "-c", STEP_SCRIPT],
                            cwd=REPO_ROOT, env=env, capture_output=True,
                            text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


@pytest.fixture
def no_openblas(monkeypatch):
    """Make the library lookup find nothing, as on a non-OpenBLAS build."""
    monkeypatch.setattr(blas, "_openblas_libraries", lambda: [])
    monkeypatch.setattr(blas, "_warned", False)


class TestPolicy:
    def test_import_pins_one_thread(self):
        assert repro.tensor.blas_threads() == BLAS_THREADS == 1
        assert pin_blas_threads() == 1                 # idempotent
        assert blas_threads() == 1

    def test_inherited_thread_env_is_overridden_bitwise(self):
        """``OPENBLAS_NUM_THREADS=1`` and ``=2`` give identical bits."""
        one, two = run_with_thread_env(1), run_with_thread_env(2)
        assert one["threads"] == two["threads"] == 1
        assert one["gemm"] == two["gemm"]
        assert one["params"] == two["params"]


class TestNoOpenBLAS:
    def test_warns_once_and_records_null(self, no_openblas):
        with pytest.warns(RuntimeWarning, match="NOT pinned"):
            assert pin_blas_threads() is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pin_blas_threads() is None      # no second warning
        assert blas_threads() is None

    def test_warning_names_numpy_blas(self, no_openblas, monkeypatch):
        monkeypatch.setattr(blas, "_numpy_blas_name", lambda: "mkl-sdl")
        with pytest.warns(RuntimeWarning, match=r"\(mkl-sdl\)"):
            pin_blas_threads()

    def test_reports_record_null(self, no_openblas):
        report = PoolTelemetry(workers=1).report()
        assert "blas_threads" in report.metrics
        assert report.metrics["blas_threads"] is None
        assert report.to_dict()["metrics"]["blas_threads"] is None
