"""The cyclic-collector pause around ``evaluate_workload``.

The evaluation pipeline runs with the cyclic garbage collector paused
(:class:`repro.experiments.common.CollectorPause`).  That is only safe
while a cold evaluation creates no reference cycles: anything cyclic
would sit in memory until the collector resumes.  The guard test below
turns a new cycle into a tier-1 failure instead of a silent leak; the
state tests pin that the caller's collector state always comes back.
"""

import gc
import sys
import threading

import pytest

from repro.baselines.accelerators import SHARP
from repro.experiments import common
from repro.experiments.common import (
    CollectorPause,
    DesignPoint,
    clear_cache,
    evaluate_workload,
)
from repro.fhe.params import CKKSParams
from repro.hw.config import CROPHE_36
from repro.sched.plan_memo import MEMO

TINY = CKKSParams(
    log_n=12, max_level=7, boot_levels=5, dnum=2, alpha=4,
    word_bits=36, name="tiny",
)


@pytest.fixture(autouse=True)
def _restore_collector():
    """Leave the collector as each test found it."""
    was_enabled = gc.isenabled()
    flags = gc.get_debug()
    yield
    gc.set_debug(flags)
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


def _cold_garbage(point):
    """Cyclic garbage left behind by one cold evaluation of ``point``."""
    clear_cache()
    MEMO.clear()
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        evaluate_workload(point, "bootstrapping", TINY)
        gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        clear_cache()
        MEMO.clear()
    return garbage


@pytest.mark.parametrize(
    "point",
    [DesignPoint("CROPHE-36", CROPHE_36),
     DesignPoint("SHARP+MAD", SHARP, dataflow="mad")],
    ids=["crophe", "mad"],
)
def test_cold_evaluation_leaves_no_cyclic_garbage(point):
    """After a warm-up (imports, lazily built tables), a cold evaluation
    frees everything it drops by reference counting alone."""
    evaluate_workload(point, "bootstrapping", TINY, use_cache=False)
    garbage = _cold_garbage(point)
    kinds = sorted({type(obj).__name__ for obj in garbage})
    assert not garbage, f"{len(garbage)} cyclic objects: {kinds[:20]}"


def test_enabled_stays_enabled():
    gc.enable()
    with CollectorPause():
        assert not gc.isenabled()
    assert gc.isenabled()


def test_disabled_stays_disabled():
    gc.disable()
    with CollectorPause():
        assert not gc.isenabled()
    assert not gc.isenabled()


def test_nested_entry_resumes_at_the_outermost_exit():
    gc.enable()
    pause = CollectorPause()
    with pause:
        with pause:
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()


def test_threads_share_one_pause():
    """The collector resumes only when the last thread leaves."""
    gc.enable()
    pause = CollectorPause()
    entered = threading.Event()
    release = threading.Event()

    def worker():
        with pause:
            entered.set()
            release.wait(timeout=10)

    thread = threading.Thread(target=worker)
    thread.start()
    assert entered.wait(timeout=10)
    with pause:
        assert not gc.isenabled()
    assert not gc.isenabled()  # the worker is still inside
    release.set()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert gc.isenabled()


def test_stress_more_threads_than_cores():
    """Many threads entering and leaving under a short switch interval:
    the collector stays off while any of them is inside, and comes back
    once all have left (a lost depth update would break one or the
    other)."""
    gc.enable()
    pause = CollectorPause()
    violations = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def worker():
            for _ in range(300):
                with pause:
                    with pause:
                        if gc.isenabled():
                            violations.append("enabled inside")

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert violations == []
    assert gc.isenabled()


def test_state_restored_when_the_evaluation_raises(monkeypatch):
    seen = []

    def boom(*args, **kwargs):
        seen.append(gc.isenabled())
        raise RuntimeError("boom")

    monkeypatch.setattr(common, "_evaluate_once", boom)
    gc.enable()
    with pytest.raises(RuntimeError, match="boom"):
        evaluate_workload(
            DesignPoint("CROPHE-36", CROPHE_36), "bootstrapping", TINY,
            use_cache=False,
        )
    assert seen == [False]
    assert gc.isenabled()
