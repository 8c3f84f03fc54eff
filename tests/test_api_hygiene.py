"""Public-API hygiene: exports resolve, are documented, and stay stable."""

import importlib
import inspect

import pytest

PUBLIC_MODULES = [
    "repro",
    "repro.tensor",
    "repro.nn",
    "repro.optim",
    "repro.graph",
    "repro.data",
    "repro.core",
    "repro.baselines",
    "repro.eval",
    "repro.stats",
    "repro.signal",
    "repro.obs",
    "repro.ckpt",
    "repro.serve",
    "repro.dist",
]


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_all_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    assert hasattr(module, "__all__"), f"{module_name} lacks __all__"
    for name in module.__all__:
        assert hasattr(module, name), \
            f"{module_name}.__all__ lists missing symbol {name!r}"


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_public_classes_and_functions_documented(module_name):
    module = importlib.import_module(module_name)
    undocumented = []
    for name in module.__all__:
        obj = getattr(module, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not (inspect.getdoc(obj) or "").strip():
                undocumented.append(name)
    assert not undocumented, \
        f"{module_name} exports undocumented symbols: {undocumented}"


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_module_docstrings_present(module_name):
    module = importlib.import_module(module_name)
    assert (module.__doc__ or "").strip(), f"{module_name} has no docstring"


def test_version_string():
    import repro
    assert repro.__version__.count(".") == 2


def test_key_paper_symbols_reachable_from_top_level():
    import repro
    for symbol in ["RTGCN", "Trainer", "TrainConfig", "load_market",
                   "RelationMatrix", "RelationTemporalGraph"]:
        assert hasattr(repro, symbol)


#: entry points removed after their deprecation release; none may return
REMOVED_SERVE_NAMES = ("ModelRegistry", "InferenceEngine", "MicroBatcher",
                       "RankingService", "RankingHTTPServer", "serve_forever",
                       "LEGACY", "LegacyRemovedError", "guard_legacy",
                       "sanctioned")


class TestServeLegacyRemoval:
    """The hand-construction surface and its removal guard are gone:
    build(ServeConfig(...)) is the public path, and the layers it
    composes are ordinary internals of their submodules."""

    def test_legacy_names_are_not_exported(self):
        import repro.serve as serve
        for name in REMOVED_SERVE_NAMES:
            assert name not in serve.__all__, \
                f"removed legacy name {name!r} back in repro.serve.__all__"
            assert not hasattr(serve, name), \
                f"removed legacy name {name!r} importable from repro.serve"
        for module in ("repro.serve._deprecation", "repro.io"):
            with pytest.raises(ModuleNotFoundError):
                importlib.import_module(module)

    def test_direct_construction_works(self, tmp_path):
        from repro.serve.registry import ModelRegistry
        assert ModelRegistry(tmp_path).discover() == []

    def test_blessed_build_path_never_raises(self, tmp_path):
        from repro.serve import ServeConfig, build
        handle = build(ServeConfig(checkpoint_dir=str(tmp_path), port=0))
        handle.close()


#: the backward buffer arena and its switches, replaced by the process-wide
#: allocator policy (repro.tensor.malloc); none may return
REMOVED_ARENA_NAMES = ("arena", "enable_arena", "arena_enabled",
                       "arena_stats", "reset_arena", "clear_arena")


class TestArenaRemoval:
    def test_arena_names_are_gone(self):
        import repro.tensor as tensor
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.tensor.arena")
        for name in REMOVED_ARENA_NAMES:
            assert name not in tensor.__all__, \
                f"removed name {name!r} back in repro.tensor.__all__"
            assert not hasattr(tensor, name), \
                f"removed name {name!r} importable from repro.tensor"

    def test_no_buffer_arena_config_or_flag(self):
        import dataclasses
        from repro.cli import build_parser
        from repro.core import TrainConfig
        assert "buffer_arena" not in {
            spec.name for spec in dataclasses.fields(TrainConfig)}
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--buffer-arena"])


class TestServeConfigCliRoundTrip:
    """Every ServeConfig field is reachable from repro.cli serve flags and
    survives the args -> ServeConfig -> to_dict round trip."""

    def _parse(self, argv):
        import argparse
        from repro.cli import _add_serve_options, _serve_config_from_args
        parser = argparse.ArgumentParser()
        _add_serve_options(parser)
        return _serve_config_from_args(parser.parse_args(argv))

    def test_cli_covers_every_field(self):
        import argparse
        import dataclasses
        from repro.cli import _add_serve_options
        from repro.serve import ServeConfig
        parser = argparse.ArgumentParser()
        _add_serve_options(parser)
        dests = {action.dest for action in parser._actions}
        missing = [spec.name for spec in dataclasses.fields(ServeConfig)
                   if spec.name not in dests]
        assert not missing, f"ServeConfig fields without a CLI flag: {missing}"

    def test_defaults_round_trip(self, tmp_path):
        from repro.serve import ServeConfig
        config = self._parse(["--checkpoint-dir", str(tmp_path)])
        assert config == ServeConfig(checkpoint_dir=str(tmp_path))
        assert ServeConfig.from_dict(config.to_dict()) == config

    def test_non_default_flags_round_trip(self, tmp_path):
        config = self._parse([
            "--checkpoint-dir", str(tmp_path),
            "--mode", "cluster", "--cluster-workers", "3",
            "--max-queue", "64", "--slo-p99-ms", "50",
            "--timeout", "2.5", "--workers", "2",
            "--straggler-poll-ms", "0.5", "--watch-interval-s", "1.0",
            "--store", "exp.sqlite", "--port", "0",
        ])
        assert config.mode == "cluster"
        assert config.cluster_workers == 3
        assert config.max_queue == 64
        assert config.slo_p99_ms == 50.0
        assert config.default_timeout == 2.5
        assert config.batch_workers == 2
        assert config.straggler_poll_ms == 0.5
        assert config.watch_interval_s == 1.0
        assert config.store == "exp.sqlite"
        from repro.serve import ServeConfig
        assert ServeConfig.from_dict(config.to_dict()) == config

    def test_legacy_flag_spellings_still_parse(self, tmp_path):
        config = self._parse(["--checkpoint-dir", str(tmp_path),
                              "--serve-mode", "cluster",
                              "--batch-workers", "4",
                              "--default-timeout", "7.0"])
        assert config.mode == "cluster"
        assert config.batch_workers == 4
        assert config.default_timeout == 7.0
