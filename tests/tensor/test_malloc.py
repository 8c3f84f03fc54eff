"""The process-wide allocator policy (``repro.tensor.malloc``)."""

import platform
import warnings

import pytest

from repro.tensor import malloc


@pytest.fixture
def fresh_warning(monkeypatch):
    """Let the one-time warning fire again within this test."""
    monkeypatch.setattr(malloc, "_warned", False)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the thresholds are glibc mallopt parameters")
def test_reports_thresholds_on_glibc():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert malloc.set_malloc_policy() == (32 << 20, 256 << 20)


def test_missing_mallopt_warns_once_and_reports_none(monkeypatch,
                                                     fresh_warning):
    monkeypatch.setattr(malloc, "_mallopt", lambda: None)
    with pytest.warns(RuntimeWarning, match="no working mallopt"):
        assert malloc.set_malloc_policy() is None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert malloc.set_malloc_policy() is None


def test_refused_threshold_reports_none(monkeypatch, fresh_warning):
    """A libc whose mallopt is a stub returning 0 sets nothing."""
    calls = []

    def stub(param, value):
        calls.append(param)
        return 0

    monkeypatch.setattr(malloc, "_mallopt", lambda: stub)
    with pytest.warns(RuntimeWarning, match="no working mallopt"):
        assert malloc.set_malloc_policy() is None
    assert calls == [malloc._M_MMAP_THRESHOLD]
