"""Tests for pausing the cyclic garbage collector around bulk phases."""

import gc

from repro.gcpause import paused_gc


def test_pause_disables_the_collector_and_restores_it():
    assert gc.isenabled()
    with paused_gc():
        assert not gc.isenabled()
        with paused_gc():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()


def test_pause_restores_the_collector_when_the_block_raises():
    try:
        with paused_gc():
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert gc.isenabled()


def test_pause_leaves_a_disabled_collector_disabled():
    gc.disable()
    try:
        with paused_gc():
            assert not gc.isenabled()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_decorated_calls_each_pause_once():
    @paused_gc()
    def enabled_inside():
        return gc.isenabled()

    assert enabled_inside() is False
    assert enabled_inside() is False
    assert gc.isenabled()
