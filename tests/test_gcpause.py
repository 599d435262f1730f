"""The one GC pause every allocation burst runs under."""

from __future__ import annotations

import gc

import pytest

from repro.gcpause import paused_gc


@pytest.fixture(autouse=True)
def collection_enabled():
    gc.enable()
    yield
    gc.enable()


def test_nested_pause_leaves_collection_disabled():
    with paused_gc():
        with paused_gc():
            assert not gc.isenabled()
        assert not gc.isenabled()  # the inner exit must not resume it
    assert gc.isenabled()


def test_pause_resumes_after_an_error():
    with pytest.raises(ValueError):
        with paused_gc():
            raise ValueError("boom")
    assert gc.isenabled()


def test_pause_keeps_collection_off_when_it_was_off():
    gc.disable()
    with paused_gc():
        pass
    assert not gc.isenabled()
