"""Structural plan memoization and DP-loop fixes.

The hard requirement the first two classes pin: the memo (on/off, warm
or cold, or seeded from a schedule document) must be **invisible** in
the output — float-identical schedules, identical serialized window
covers.  The later classes are regression
tests for two DP-loop bugs: an infeasible window size silently pruning
every larger candidate at its frontier, and mid-size-loop budget
interruptions resuming at the wrong window size (double-charging the
budget and re-exploring candidates).
"""

import dataclasses
import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.mad import MadScheduler
from repro.dse.cache import scan_entries
from repro.experiments.common import _schedule_segment, clear_cache
from repro.fhe.params import CKKSParams, parameter_set
from repro.hw.config import CROPHE_36, CROPHE_64
from repro.ir.builders import GraphBuilder
from repro.ir.operators import OpKind
from repro.resilience.checkpoint import SearchCheckpoint
from repro.resilience.errors import CacheError, SearchBudgetExceeded
from repro.sched.dataflow import SpatialGroupPlan
from repro.sched.plan_memo import (
    MEMO,
    WindowTables,
    instantiate,
    memo_context,
    skeleton_from_doc,
    skeleton_of,
    skeleton_to_doc,
)
from repro.sched.scheduler import Scheduler, SchedulerConfig
from repro.sched.serialize import schedule_to_doc
from repro.workloads import build_bootstrapping
from repro.workloads.resnet import build_resnet20

ARK = parameter_set("ARK")

TINY_DEEP = CKKSParams(
    log_n=12, max_level=13, boot_levels=3, dnum=2, alpha=7, word_bits=36,
    name="tiny-deep",
)
TINY_BOOT = CKKSParams(
    log_n=12, max_level=7, boot_levels=5, dnum=2, alpha=4, word_bits=36,
    name="tiny",
)


@pytest.fixture(autouse=True)
def _fresh_memo(monkeypatch):
    """Each test starts memo-enabled with empty tiers and no disk root.

    The evaluation pipeline's in-memory fronts also get dropped:
    schedule fingerprints are structural, so same-shaped graphs would
    otherwise share entries between tests.
    """
    monkeypatch.delenv("REPRO_PLAN_MEMO", raising=False)
    monkeypatch.delenv("REPRO_DSE_CACHE", raising=False)
    MEMO.clear()
    clear_cache()
    yield
    MEMO.clear()
    clear_cache()


def _hmult_graph():
    b = GraphBuilder(ARK)
    b.hmult(b.input_ciphertext("x", ARK.max_level),
            b.input_ciphertext("y", ARK.max_level))
    return b.graph


def _doc(schedule):
    return json.dumps(schedule_to_doc(schedule), sort_keys=True)


def _cached_schedule(graph):
    """One segment schedule through the DSE cache's schedule tier."""
    return _schedule_segment(graph, CROPHE_64, "crophe", SchedulerConfig(), None)


def _schedule(graph, hw, monkeypatch, memo=True, **knobs):
    monkeypatch.setenv("REPRO_PLAN_MEMO", "1" if memo else "0")
    MEMO.clear()
    sched = Scheduler(graph, hw, SchedulerConfig(**knobs))
    return sched, sched.schedule()


# ---------------------------------------------------------------------
# Structural window ids
# ---------------------------------------------------------------------


def reference_window_key(graph, ops):
    """The nested-tuple structural window key the interned ids replace.

    Per operator: its signature, each input as (window-local alias,
    in-window producer position or -1, kind, bytes), and each output as
    (alias, escapes, in-window consumer positions, kind, bytes).  Window
    ids must partition windows exactly as these keys do.
    """
    index = {op.uid: i for i, op in enumerate(ops)}
    local = {}
    parts = []
    for op in ops:
        ins = []
        for t in op.inputs:
            producer = graph.producer_of(t)
            ins.append((
                local.setdefault(t.uid, len(local)),
                index.get(producer.uid, -1) if producer is not None else -1,
                t.kind.value, t.bytes,
            ))
        outs = []
        for t in op.outputs:
            consumers = [c.uid for c in graph.consumers_of(t)]
            internal = tuple(sorted(index[c] for c in consumers if c in index))
            escapes = not consumers or len(internal) != len(consumers)
            outs.append((
                local.setdefault(t.uid, len(local)), escapes, internal,
                t.kind.value, t.bytes,
            ))
        parts.append((op.signature(), tuple(ins), tuple(outs)))
    return tuple(parts)


def _window_id(graph, start, size):
    return WindowTables(graph.operators_topological()).window_id(start, size)


def _add_chain(consumers_of_first):
    """``a = x + y`` followed by ``consumers_of_first`` ops ``a + y``."""
    b = GraphBuilder(ARK)
    limbs = ARK.max_level + 1
    ct = b.input_ciphertext("x", ARK.max_level)
    first = b.ew(OpKind.EW_ADD, [ct.b, ct.a], limbs, "first")
    for k in range(consumers_of_first):
        b.ew(OpKind.EW_ADD, [first, ct.a], limbs, f"next{k}")
    return b.graph


class TestWindowKey:
    def test_structural_twins_share_keys_across_graphs(self):
        """Two independently built hmult graphs have disjoint uids but
        identical window structures — every window id matches."""
        g1, g2 = _hmult_graph(), _hmult_graph()
        o1 = g1.operators_topological()
        o2 = g2.operators_topological()
        assert len(o1) == len(o2)
        assert {op.uid for op in o1}.isdisjoint(op.uid for op in o2)
        t1, t2 = WindowTables(o1), WindowTables(o2)
        for start in range(len(o1)):
            for size in range(1, min(7, len(o1) - start) + 1):
                assert t1.window_id(start, size) == t2.window_id(start, size)

    def test_escape_fate_is_part_of_the_key(self):
        """The same two operators, whose first output stays inside the
        window in one graph and is also read after it in the other,
        differ only in that output's escape fate — and get different
        ids."""
        inside, escaping = _add_chain(1), _add_chain(2)
        w_in = tuple(inside.operators_topological()[:2])
        w_out = tuple(escaping.operators_topological()[:2])

        def strip_escapes(key):
            return tuple(
                (sig, ins, tuple(o[:1] + o[2:] for o in outs))
                for sig, ins, outs in key
            )

        ref_in = reference_window_key(inside, w_in)
        ref_out = reference_window_key(escaping, w_out)
        assert ref_in != ref_out
        assert strip_escapes(ref_in) == strip_escapes(ref_out)
        assert _window_id(inside, 0, 2) != _window_id(escaping, 0, 2)

    def test_memoized_plan_is_bitwise_equal(self):
        """An instantiated twin carries the exact nests, allocation,
        and metrics of the originally constructed plan."""
        g1, g2 = _hmult_graph(), _hmult_graph()
        w1 = tuple(g1.operators_topological()[:3])
        w2 = tuple(g2.operators_topological()[:3])
        p1 = SpatialGroupPlan(g1, w1, CROPHE_64)
        twin = instantiate(skeleton_of(p1), g2, w2, CROPHE_64, None)
        direct = SpatialGroupPlan(g2, w2, CROPHE_64)
        assert twin.pe_allocation == direct.pe_allocation
        assert twin.metrics.__dict__ == direct.metrics.__dict__
        # Insertion order of the byte dicts matters downstream.
        assert list(twin.metrics.constant_bytes) == list(
            direct.metrics.constant_bytes
        )
        assert list(twin.metrics.external_read_bytes) == list(
            direct.metrics.external_read_bytes
        )
        assert twin.execution_seconds() == direct.execution_seconds()


class TestWindowIdPartition:
    def test_ids_partition_windows_like_reference_keys(self):
        """Over every window up to ``max_group_size`` of the golden
        bootstrapping and ResNet-20 segments, searched on CROPHE-36,
        CROPHE-64 (with and without an NTT split) and as MAD, equal memo
        keys hold exactly the windows whose reference keys — the five
        construction fields of the hardware, the split, the match-depth
        clamp and :func:`reference_window_key` — are equal."""
        from tests.sched.test_golden_schedules import _grid_graphs

        searches = (
            lambda g: Scheduler(g, CROPHE_36),
            lambda g: Scheduler(g, CROPHE_64),
            lambda g: Scheduler(g, CROPHE_64, n_split=(64, 64)),
            lambda g: MadScheduler(g, CROPHE_64),
        )
        new_to_ref, ref_to_new = {}, {}
        windows = 0
        for workload in ("bootstrapping", "resnet20"):
            for graph in _grid_graphs(workload):
                order = graph.operators_topological()
                for make in searches:
                    sched = make(graph)
                    sched._prepare(order)
                    hw = sched.hw
                    context = (
                        hw.word_bits, hw.lanes_per_pe, hw.num_pes,
                        hw.fu_mix, hw.transpose_unit_mb, sched.n_split,
                        sched.match_depth,
                    )
                    for start in range(len(order)):
                        top = min(sched.config.max_group_size,
                                  len(order) - start)
                        for size in range(1, top + 1):
                            new = sched._memo_key(start, size)
                            ref = (context, reference_window_key(
                                graph, order[start: start + size]
                            ))
                            assert new_to_ref.setdefault(new, ref) == ref
                            assert ref_to_new.setdefault(ref, new) == new
                            windows += 1
        assert len(new_to_ref) == len(ref_to_new)
        # Structural twins recur: far fewer keys than windows.
        assert len(new_to_ref) < windows // 2

    def test_timing_fields_share_the_context(self):
        """Hardware variants differing only in fields plan construction
        never reads share one memo context; word size splits it."""
        variant = dataclasses.replace(
            CROPHE_64, name="variant", frequency_ghz=2.5,
            dram_bandwidth_tbs=0.125, sram_capacity_mb=12.0,
        )
        assert memo_context(variant, None, None) == memo_context(
            CROPHE_64, None, None
        )
        assert memo_context(CROPHE_36, None, None) != memo_context(
            CROPHE_64, None, None
        )
        assert memo_context(CROPHE_64, None, 1) != memo_context(
            CROPHE_64, None, None
        )


# ---------------------------------------------------------------------
# Determinism: the memo must be invisible
# ---------------------------------------------------------------------


class TestDeterminism:
    @pytest.mark.parametrize("workload", ["resnet20", "bootstrapping"])
    def test_memo_and_jobs_invisible(self, workload, monkeypatch):
        """Memo off/on: float-identical schedules, identical serialized
        window covers."""
        if workload == "resnet20":
            segments = build_resnet20(TINY_DEEP).segments
        else:
            segments = build_bootstrapping(TINY_BOOT).segments
        # Distinct segment structures only; one is plenty per structure.
        seen, graphs = set(), []
        for seg in segments:
            sig = seg.graph.subgraph_signature(
                tuple(seg.graph.operators_topological())
            )
            if sig not in seen:
                seen.add(sig)
                graphs.append(seg.graph)
        assert graphs
        for graph in graphs[:3]:
            _, base = _schedule(graph, CROPHE_36, monkeypatch, memo=False)
            sched_on, on = _schedule(graph, CROPHE_36, monkeypatch)
            assert on.total_seconds == base.total_seconds
            assert _doc(on) == _doc(base)
            assert sched_on.stats["plan_memo_misses"] >= 1

    def test_warm_memo_all_hits_and_identical(self, monkeypatch):
        graph = _hmult_graph()
        _, first = _schedule(graph, CROPHE_64, monkeypatch)
        monkeypatch.setenv("REPRO_PLAN_MEMO", "1")
        warm = Scheduler(graph, CROPHE_64, SchedulerConfig())
        second = warm.schedule()
        assert warm.stats["plan_memo_misses"] == 0
        assert warm.stats["plan_memo_hits"] >= 1
        assert _doc(second) == _doc(first)

    @settings(
        max_examples=8, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        max_group_size=st.integers(min_value=1, max_value=6),
        stream_window=st.integers(min_value=1, max_value=4),
    )
    def test_property_identical_under_any_knobs(
        self, max_group_size, stream_window
    ):
        """Any (window, stream) knob combination: the memo reproduces
        the memo-free schedule exactly."""
        graph = _hmult_graph()
        knobs = dict(
            max_group_size=max_group_size, stream_window=stream_window
        )
        os.environ["REPRO_PLAN_MEMO"] = "0"
        try:
            MEMO.clear()
            base = Scheduler(
                graph, CROPHE_64, SchedulerConfig(**knobs)
            ).schedule()
            os.environ["REPRO_PLAN_MEMO"] = "1"
            MEMO.clear()
            fast = Scheduler(
                graph, CROPHE_64, SchedulerConfig(**knobs)
            ).schedule()
        finally:
            os.environ.pop("REPRO_PLAN_MEMO", None)
            MEMO.clear()
        assert fast.total_seconds == base.total_seconds
        assert _doc(fast) == _doc(base)


# ---------------------------------------------------------------------
# Disk tier
# ---------------------------------------------------------------------


class TestDiskTier:
    def test_skeleton_doc_round_trip(self):
        g = _hmult_graph()
        w = tuple(g.operators_topological()[:4])
        skeleton = skeleton_of(SpatialGroupPlan(g, w, CROPHE_64))
        doc = json.loads(json.dumps(skeleton_to_doc(skeleton)))
        assert skeleton_from_doc(doc) == skeleton

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda d: d.pop("nests"),
            lambda d: d["metrics"].pop("noc_bytes"),
            lambda d: d.update(nests="not-a-list"),
            lambda d: d["edge_matches"].append(["x", 0, 1]),
        ],
    )
    def test_corrupt_doc_degrades_to_miss(self, mangle):
        g = _hmult_graph()
        w = tuple(g.operators_topological()[:4])
        doc = skeleton_to_doc(skeleton_of(SpatialGroupPlan(g, w, CROPHE_64)))
        mangle(doc)
        assert skeleton_from_doc(doc) is None

    def test_disk_tier_serves_new_process_identically(
        self, tmp_path, monkeypatch
    ):
        """Clearing every in-memory tier simulates a fresh process: the
        schedule document's skeletons serve the replay (seeded hits,
        zero construction misses) and it is byte-identical."""
        monkeypatch.setenv("REPRO_DSE_CACHE", str(tmp_path))
        graph = _hmult_graph()
        first = _cached_schedule(graph)
        assert MEMO.stats["memo_miss"] >= 1
        clear_cache()  # disk entries survive
        MEMO.clear()
        second = _cached_schedule(graph)
        assert second is not first
        assert MEMO.stats["memo_miss"] == 0
        assert MEMO.stats["disk_hit"] >= 1
        assert _doc(second) == _doc(first)

    def test_cold_search_writes_no_plan_files(self, tmp_path, monkeypatch):
        """Per-window skeletons are never persisted: a cold search that
        constructs plans leaves one schedule entry and nothing else."""
        monkeypatch.setenv("REPRO_DSE_CACHE", str(tmp_path))
        _cached_schedule(_hmult_graph())
        assert MEMO.stats["memo_miss"] >= 1
        assert not (tmp_path / "plan").exists()
        entries = list(scan_entries(str(tmp_path)))
        assert [entry.kind for entry in entries] == ["schedule"]

    def test_corrupt_disk_entry_falls_back_to_construction(
        self, tmp_path, monkeypatch
    ):
        """Wrong-shaped skeletons inside an otherwise valid schedule
        document degrade to a fresh search, never an exception."""
        monkeypatch.setenv("REPRO_DSE_CACHE", str(tmp_path))
        graph = _hmult_graph()
        first = _cached_schedule(graph)
        victims = list((tmp_path / "schedule").rglob("*.json"))
        assert victims
        for path in victims:
            doc = json.loads(path.read_text())
            for step in doc["payload"]["steps"]:
                step["skeleton"] = {"nests": "gone"}
            path.write_text(json.dumps(doc))
        clear_cache()
        MEMO.clear()
        with pytest.warns(CacheError, match="re-searching"):
            second = _cached_schedule(graph)
        assert MEMO.stats["memo_miss"] >= 1
        assert _doc(second) == _doc(first)

    @pytest.mark.parametrize(
        "field, column", [("boundary_ins", 1), ("pe_allocation", 0)]
    )
    def test_out_of_range_ref_falls_back_to_search(
        self, field, column, tmp_path, monkeypatch
    ):
        """A well-formed skeleton whose reference points outside its
        window (here: one op position or input index pushed to 99) is
        rejected when seeded and re-searched, instead of crashing the
        replay with an IndexError."""
        monkeypatch.setenv("REPRO_DSE_CACHE", str(tmp_path))
        graph = _hmult_graph()
        first = _cached_schedule(graph)
        (path,) = (tmp_path / "schedule").rglob("*.json")
        doc = json.loads(path.read_text())
        victim = next(
            step["skeleton"] for step in doc["payload"]["steps"]
            if step["skeleton"][field]
        )
        victim[field][0][column] = 99
        path.write_text(json.dumps(doc))
        clear_cache()
        MEMO.clear()
        with pytest.warns(CacheError, match="does not fit its window"):
            second = _cached_schedule(graph)
        assert MEMO.stats["memo_miss"] >= 1
        assert _doc(second) == _doc(first)


# ---------------------------------------------------------------------
# Bugfix: infeasible size must not prune larger candidates
# ---------------------------------------------------------------------


class _SizeInfeasibleScheduler(Scheduler):
    """Test double: reports windows of the given sizes PE-infeasible.

    ``feasible_allocation`` is currently monotone in window growth (the
    compute-op count never shrinks), so the pre-fix ``break`` was
    latently safe; this double models any future allocator for which it
    is not, and records which window sizes the DP actually asked for —
    the discriminator between ``break`` and ``continue``.
    """

    def __init__(self, *args, infeasible_sizes=(2,), **kwargs):
        super().__init__(*args, **kwargs)
        self._infeasible_sizes = set(infeasible_sizes)
        self.requested_sizes = set()

    def _plan_for(self, window):
        self.requested_sizes.add(len(window))
        plan = super()._plan_for(window)
        if len(window) in self._infeasible_sizes:
            return SpatialGroupPlan.from_parts(
                self.graph, window, self.hw, self.n_split,
                assignment=plan.assignment,
                pe_allocation={},
                metrics=plan.metrics,
            )
        return plan


class TestInfeasibleSizeContinues:
    def test_larger_sizes_still_explored(self):
        """Size 2 infeasible everywhere: the DP must still price sizes
        3+ (pre-fix it broke out of the frontier at size 2, so no
        window larger than 2 was ever requested)."""
        graph = _hmult_graph()
        sched = _SizeInfeasibleScheduler(
            graph, CROPHE_64, SchedulerConfig(max_group_size=4),
            infeasible_sizes=(2,),
        )
        schedule = sched.schedule()
        assert 3 in sched.requested_sizes
        assert 4 in sched.requested_sizes
        assert not schedule.degraded
        assert all(len(s.plan.ops) != 2 for s in schedule.steps)
        covered = sum(len(s.plan.ops) for s in schedule.steps)
        assert covered == graph.num_operators

    def test_skipping_infeasible_size_matches_plain_search(self):
        """With every size feasible the double is inert — sanity that
        the subclass itself does not perturb the search."""
        graph = _hmult_graph()
        plain = Scheduler(
            graph, CROPHE_64, SchedulerConfig(max_group_size=4)
        ).schedule()
        doubled = _SizeInfeasibleScheduler(
            graph, CROPHE_64, SchedulerConfig(max_group_size=4),
            infeasible_sizes=(),
        ).schedule()
        assert _doc(doubled) == _doc(plain)


# ---------------------------------------------------------------------
# Bugfix: mid-size-loop budget interruption resumes exactly
# ---------------------------------------------------------------------


class TestMidSizeResume:
    def _run_uninterrupted(self, graph):
        sched = Scheduler(graph, CROPHE_64, SchedulerConfig())
        return sched.schedule(), sched.stats["windows_explored"]

    def test_resume_explores_each_candidate_exactly_once(self, tmp_path):
        """Interrupted at charge B+1 mid-size-loop, the resumed search
        must charge exactly W - B more candidates (pre-fix it restarted
        the size loop at 1 and re-charged the already-explored sizes)
        and land on the uninterrupted schedule."""
        graph = _hmult_graph()
        full_schedule, total = self._run_uninterrupted(graph)
        ckpt_path = str(tmp_path / "search.ckpt")

        # Find a node budget whose trip point is mid-size-loop
        # (next_size >= 2) — the case the fix exists for.  The charge
        # sequence is deterministic, so scan small budgets.
        chosen = None
        for budget in range(2, int(total)):
            if os.path.exists(ckpt_path):
                os.unlink(ckpt_path)
            interrupted = Scheduler(
                graph, CROPHE_64,
                SchedulerConfig(
                    max_search_nodes=budget, fallback_on_budget=False
                ),
                checkpoint_path=ckpt_path,
            )
            with pytest.raises(SearchBudgetExceeded):
                interrupted.schedule()
            ckpt = SearchCheckpoint.load(
                ckpt_path, interrupted._search_fingerprint(
                    graph.operators_topological()
                )
            )
            assert ckpt is not None
            if ckpt.next_size >= 2:
                chosen = budget
                break
        assert chosen is not None, "no budget tripped mid-size-loop"

        resumed = Scheduler(
            graph, CROPHE_64, SchedulerConfig(),
            checkpoint_path=ckpt_path,
        )
        schedule = resumed.schedule()
        assert resumed.stats["resumed_from"] >= 0
        # Exactly-once exploration: interrupted charged `chosen` full
        # candidates (its tripping charge explored nothing), so the
        # remainder is total - chosen.  The pre-fix scheduler re-charged
        # next_size - 1 already-explored sizes on top.
        assert resumed.stats["windows_explored"] == total - chosen
        assert _doc(schedule) == _doc(full_schedule)
        assert schedule.total_seconds == full_schedule.total_seconds
