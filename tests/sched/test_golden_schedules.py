"""Golden schedule digests and cross-workload plan-memo sharing.

The first half pins the scheduler's output against committed data
(``golden_digests.json`` next to this file): sha256 digests of
``schedule_to_doc`` over a fixed grid of tiny-parameter segments,
hardware configs and search knobs, searched with the structural plan
memo both on and off, plus one case each for the MAD baseline, the
budget-degraded greedy fallback, a checkpoint interrupt/resume, and
``Scheduler.replay``.  Any change to the DP transition, the residency
rules or the pricing function that moves a single float shows up as a
digest mismatch.  The same file holds per-cell digests of the quick
experiment suite's artifact, which CI checks after its cold pass.

Regenerate (only for an intended change of results) with::

    PYTHONPATH=src python -m tests.sched.test_golden_schedules --write

The second half pins the memo's generalization: structurally congruent
windows hit the same stored plan skeletons across *workloads*
(ResNet-20 warming ResNet-110) and across *hardware variants* that
differ only in fields plan construction never reads (clock, bandwidths,
SRAM capacity) — with schedules identical to a cold search.
"""

import dataclasses
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from repro.baselines.mad import MadScheduler
from repro.fhe.params import CKKSParams
from repro.hw.config import CROPHE_36, CROPHE_64
from repro.resilience.errors import SearchBudgetExceeded
from repro.sched.plan_memo import MEMO
from repro.sched.scheduler import Scheduler, SchedulerConfig
from repro.sched.serialize import schedule_to_doc
from repro.workloads import build_bootstrapping
from repro.workloads.resnet import build_resnet20, build_resnet110

GOLDEN_PATH = Path(__file__).with_name("golden_digests.json")

TINY_DEEP = CKKSParams(
    log_n=12, max_level=13, boot_levels=3, dnum=2, alpha=7, word_bits=36,
    name="tiny-deep",
)
TINY_BOOT = CKKSParams(
    log_n=12, max_level=7, boot_levels=5, dnum=2, alpha=4, word_bits=36,
    name="tiny",
)

HARDWARE = {"CROPHE_36": CROPHE_36, "CROPHE_64": CROPHE_64}
#: (max_group_size, stream_window) pairs of the grid.
KNOBS = [(1, 1), (3, 2), (7, 6)]


@pytest.fixture(autouse=True)
def _fresh(monkeypatch):
    """Default env (memo on, no disk tier), empty memo."""
    from repro.dse.cache import CACHE

    monkeypatch.delenv("REPRO_PLAN_MEMO", raising=False)
    monkeypatch.delenv("REPRO_DSE_CACHE", raising=False)
    MEMO.clear()
    CACHE.clear_memory()
    yield
    MEMO.clear()
    CACHE.clear_memory()


def _doc(schedule, **kwargs):
    return json.dumps(schedule_to_doc(schedule, **kwargs), sort_keys=True)


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _distinct_segment_graphs(workload):
    seen, graphs = set(), []
    for seg in workload.segments:
        sig = seg.graph.subgraph_signature(
            tuple(seg.graph.operators_topological())
        )
        if sig not in seen:
            seen.add(sig)
            graphs.append(seg.graph)
    return graphs


_GRAPHS = {}


def _grid_graphs(workload):
    """First three distinct tiny-parameter segments of a workload."""
    graphs = _GRAPHS.get(workload)
    if graphs is None:
        if workload == "resnet20":
            built = build_resnet20(TINY_DEEP)
        else:
            built = build_bootstrapping(TINY_BOOT)
        graphs = _distinct_segment_graphs(built)[:3]
        _GRAPHS[workload] = graphs
    return graphs


def _schedule(graph, hw, memo=True, fresh_memo=True, **knobs):
    os.environ["REPRO_PLAN_MEMO"] = "1" if memo else "0"
    try:
        if fresh_memo:
            MEMO.clear()
        sched = Scheduler(graph, hw, SchedulerConfig(**knobs))
        return sched, sched.schedule()
    finally:
        os.environ.pop("REPRO_PLAN_MEMO", None)


def _grid_digest(workload, seg, hw_name, knobs, memo):
    graph = _grid_graphs(workload)[seg]
    max_group_size, stream_window = knobs
    _, schedule = _schedule(
        graph, HARDWARE[hw_name], memo=memo,
        max_group_size=max_group_size, stream_window=stream_window,
    )
    return _digest(_doc(schedule))


def _grid_key(workload, seg, hw_name, knobs):
    return f"{workload}[{seg}]/{hw_name}/mgs{knobs[0]}-sw{knobs[1]}"


def _mad_digest():
    graph = _grid_graphs("bootstrapping")[0]
    MEMO.clear()
    schedule = MadScheduler(graph, CROPHE_64, SchedulerConfig()).schedule()
    return _digest(_doc(schedule, dataflow="mad"))


def _degraded_digest():
    """A node budget too small for the DP: the greedy fallback runs.

    The degradation reason carries the measured wall time, so it is
    checked for its prefix and left out of the digest.
    """
    graph = _grid_graphs("bootstrapping")[0]
    _, schedule = _schedule(graph, CROPHE_64, max_search_nodes=5)
    assert schedule.degraded
    assert schedule.degraded_reason.startswith("search budget exceeded")
    doc = schedule_to_doc(schedule)
    doc.pop("degraded_reason")
    return _digest(json.dumps(doc, sort_keys=True))


def _resume_digest():
    """Interrupt a search at half its node count, resume from the
    checkpoint, and digest the resumed schedule together with the
    number of windows the resumed half explored."""
    graph = _grid_graphs("resnet20")[0]
    full, _ = _schedule(graph, CROPHE_64)
    budget = max(2, int(full.stats["windows_explored"]) // 2)
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = os.path.join(tmp, "search.ckpt")
        MEMO.clear()
        interrupted = Scheduler(
            graph, CROPHE_64,
            SchedulerConfig(max_search_nodes=budget,
                            fallback_on_budget=False),
            checkpoint_path=ckpt,
        )
        with pytest.raises(SearchBudgetExceeded):
            interrupted.schedule()
        MEMO.clear()
        resumed = Scheduler(graph, CROPHE_64, SchedulerConfig(),
                            checkpoint_path=ckpt)
        schedule = resumed.schedule()
    explored = int(resumed.stats["windows_explored"])
    return _digest(f"{explored}\n{_doc(schedule)}")


def _replay_digest():
    """Replay a searched cover through a fresh scheduler (cold memo)."""
    graph = _grid_graphs("bootstrapping")[1]
    _, searched = _schedule(graph, CROPHE_36, max_group_size=3,
                            stream_window=2)
    MEMO.clear()
    replayed = Scheduler(
        graph, CROPHE_36,
        SchedulerConfig(max_group_size=3, stream_window=2),
    ).replay([len(step.plan.ops) for step in searched.steps])
    return _digest(_doc(replayed))


_SPECIAL_CASES = {
    "mad/bootstrapping[0]/CROPHE_64": _mad_digest,
    "degraded/bootstrapping[0]/CROPHE_64/nodes5": _degraded_digest,
    "resume/resnet20[0]/CROPHE_64": _resume_digest,
    "replay/bootstrapping[1]/CROPHE_36/mgs3-sw2": _replay_digest,
}


def _golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def _grid_cases():
    for workload in ("bootstrapping", "resnet20"):
        for seg in range(3):
            for hw_name in HARDWARE:
                for knobs in KNOBS:
                    yield workload, seg, hw_name, knobs


# ---------------------------------------------------------------------
# Golden digests
# ---------------------------------------------------------------------


class TestGoldenDigests:
    @pytest.mark.parametrize("memo", [True, False], ids=["memo", "nomemo"])
    @pytest.mark.parametrize("knobs", KNOBS, ids=lambda k: f"mgs{k[0]}-sw{k[1]}")
    @pytest.mark.parametrize("hw_name", list(HARDWARE))
    @pytest.mark.parametrize("workload", ["bootstrapping", "resnet20"])
    def test_grid(self, workload, hw_name, knobs, memo):
        """Each grid schedule — memo on or off — matches its digest."""
        golden = _golden()["schedules"]
        assert len(_grid_graphs(workload)) == 3
        for seg in range(3):
            key = _grid_key(workload, seg, hw_name, knobs)
            got = _grid_digest(workload, seg, hw_name, knobs, memo)
            assert got == golden[key], key

    @pytest.mark.parametrize("case", sorted(_SPECIAL_CASES))
    def test_special_case(self, case):
        assert _SPECIAL_CASES[case]() == _golden()["schedules"][case], case

    def test_quick_suite_cells_recorded(self):
        """The quick suite's per-cell digests cover its seven cells."""
        cells = _golden()["quick_suite_cells"]
        assert sorted(cells) == [
            "fig10", "fig11", "fig9", "table1", "table2", "table3", "table4",
        ]
        assert all(len(digest) == 64 for digest in cells.values())


def cell_digest(cell):
    """Digest of one artifact cell's ``(status, output)`` pair."""
    return _digest(
        json.dumps((cell["status"], cell["output"]), sort_keys=True)
    )


# ---------------------------------------------------------------------
# Cross-workload memo sharing
# ---------------------------------------------------------------------


class TestCrossWorkloadMemo:
    def test_resnet20_warms_resnet110(self):
        """ResNet-110 segments are structural twins of ResNet-20's:
        after scheduling ResNet-20, a ResNet-110 segment search runs
        memo-hot and yields the byte-identical schedule a cold search
        produces."""
        graphs110 = _distinct_segment_graphs(build_resnet110(TINY_DEEP))
        target = graphs110[0]
        _, cold = _schedule(target, CROPHE_36)
        # Warm the memo with ResNet-20 only, then search the
        # ResNet-110 segment without clearing.
        MEMO.clear()
        for graph in _distinct_segment_graphs(build_resnet20(TINY_DEEP)):
            _schedule(graph, CROPHE_36, fresh_memo=False)
        warm, hot = _schedule(target, CROPHE_36, fresh_memo=False)
        assert warm.stats["plan_memo_hits"] >= 1
        assert warm.stats["plan_memo_misses"] == 0
        assert _doc(hot) == _doc(cold)

    def test_hw_variants_share_skeletons(self):
        """Configs differing only in timing fields (clock, bandwidths,
        SRAM capacity label) share plan skeletons: construction reads
        none of them, and timing always evaluates against the live
        config — so the variant search runs miss-free yet prices with
        its own clock."""
        graph = _distinct_segment_graphs(build_bootstrapping(TINY_BOOT))[0]
        first, base = _schedule(graph, CROPHE_64)
        assert first.stats["plan_memo_misses"] >= 1
        variant = dataclasses.replace(
            CROPHE_64, name="variant-2x",
            frequency_ghz=CROPHE_64.frequency_ghz * 2,
        )
        second, out = _schedule(graph, variant, fresh_memo=False)
        assert second.stats["plan_memo_misses"] == 0
        assert second.stats["plan_memo_hits"] >= 1
        # Same windows (structure is config-independent here), faster
        # or equal steps under the doubled clock.
        assert [len(s.plan.ops) for s in out.steps] \
            == [len(s.plan.ops) for s in base.steps]
        assert out.total_seconds <= base.total_seconds

    def test_word_bits_still_split_the_memo(self):
        """Fields plan construction *does* read (word size) must keep
        separate memo entries — the projection only widens over timing
        fields."""
        graph = _distinct_segment_graphs(build_bootstrapping(TINY_BOOT))[0]
        _schedule(graph, CROPHE_64)
        second, _ = _schedule(graph, CROPHE_36, fresh_memo=False)
        assert second.stats["plan_memo_misses"] >= 1


# ---------------------------------------------------------------------
# Regeneration
# ---------------------------------------------------------------------


def _write(artifact_path=None):
    """Recompute every schedule digest (memo on) and write the golden
    file; with an artifact path, also refresh the quick-suite cells."""
    golden = _golden() if GOLDEN_PATH.exists() else {}
    schedules = {}
    for workload, seg, hw_name, knobs in _grid_cases():
        key = _grid_key(workload, seg, hw_name, knobs)
        schedules[key] = _grid_digest(workload, seg, hw_name, knobs, True)
        MEMO.clear()
    for case, fn in sorted(_SPECIAL_CASES.items()):
        schedules[case] = fn()
        MEMO.clear()
    golden["schedules"] = schedules
    if artifact_path is not None:
        with open(artifact_path) as fh:
            cells = json.load(fh)["cells"]
        golden["quick_suite_cells"] = {
            name: cell_digest(cell) for name, cell in sorted(cells.items())
        }
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:2] != ["--write"]:
        sys.exit("usage: python -m tests.sched.test_golden_schedules "
                 "--write [quick-suite-artifact.json]")
    _write(sys.argv[2] if len(sys.argv) > 2 else None)
