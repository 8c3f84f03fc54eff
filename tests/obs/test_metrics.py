"""Metrics sink: schema round-trip, validation, telemetry callback."""

import json

import numpy as np
import pytest

from repro.core import RTGCN, TrainConfig, Trainer
from repro.obs import (SCHEMA_VERSION, MetricsSink, RunReport,
                       TelemetryCallback, Tracer, new_run_id, use_tracer,
                       validate_report)


def sample_report():
    return RunReport(
        run_id=new_run_id("test"), kind="train",
        config={"market": "nasdaq-mini", "window": 8},
        epoch_losses=[0.5, 0.4],
        phases={"forward": {"count": 10, "seconds": 1.25}},
        ops=[{"op": "matmul", "pass": "forward", "count": 10,
              "seconds": 0.9, "bytes": 1024}],
        metrics={"MRR": 0.12})


class TestSchema:
    def test_roundtrip_through_sink(self, tmp_path):
        sink = MetricsSink(tmp_path / "runs")
        report = sample_report()
        path = sink.write(report)
        assert path.name == f"{report.run_id}.json"
        loaded = sink.read(path)
        assert loaded == report

    def test_read_by_run_id(self, tmp_path):
        sink = MetricsSink(tmp_path / "runs")
        report = sample_report()
        sink.write(report)
        assert sink.read(report.run_id) == report

    def test_written_json_is_schema_v1(self, tmp_path):
        sink = MetricsSink(tmp_path)
        path = sink.write(sample_report())
        payload = json.loads(path.read_text())
        assert payload["schema_version"] == SCHEMA_VERSION
        for key in ("run_id", "kind", "created_at", "config",
                    "epoch_losses", "phases", "ops", "metrics"):
            assert key in payload

    def test_missing_key_rejected(self):
        payload = sample_report().to_dict()
        del payload["phases"]
        with pytest.raises(ValueError, match="phases"):
            validate_report(payload)

    def test_wrong_version_rejected(self):
        payload = sample_report().to_dict()
        payload["schema_version"] = 99
        with pytest.raises(ValueError, match="schema_version"):
            RunReport.from_dict(payload)

    def test_malformed_op_row_rejected(self):
        payload = sample_report().to_dict()
        payload["ops"] = [{"op": "matmul"}]
        with pytest.raises(ValueError, match="op row"):
            validate_report(payload)

    def test_numpy_values_serialised(self, tmp_path):
        report = sample_report()
        report.metrics["IRR"] = np.float64(0.25)
        report.config["days"] = np.int64(60)
        path = MetricsSink(tmp_path).write(report)
        payload = json.loads(path.read_text())
        assert payload["metrics"]["IRR"] == 0.25
        assert payload["config"]["days"] == 60

    def test_run_ids_unique(self):
        assert new_run_id() != new_run_id()

    def test_list_runs(self, tmp_path):
        sink = MetricsSink(tmp_path)
        assert sink.list_runs() == []
        sink.write(sample_report())
        sink.write(sample_report())
        assert len(sink.list_runs()) == 2


class TestTelemetryCallback:
    def test_collects_losses_and_phases(self, nasdaq_mini):
        model = RTGCN(nasdaq_mini.relations, relational_filters=4,
                      rng=np.random.default_rng(0))
        trainer = Trainer(model, nasdaq_mini, TrainConfig(
            window=8, epochs=2, max_train_days=4, seed=0))
        telemetry = TelemetryCallback(kind="train",
                                      config=trainer.config)
        with use_tracer(Tracer()):
            losses = trainer.fit(callbacks=[telemetry])
        report = telemetry.report
        assert report.epoch_losses == losses
        assert telemetry.num_batches == 8     # 2 epochs x 4 days
        assert report.metrics["blas_threads"] == 1
        assert report.phases["forward"]["count"] == 8
        assert "backward" in report.phases
        assert report.config["window"] == 8
        # the accumulated report is a valid schema-v1 document
        validate_report(report.to_dict())
