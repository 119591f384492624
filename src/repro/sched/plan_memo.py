"""Structural memoization of :class:`~repro.sched.dataflow.SpatialGroupPlan`.

The DP search constructs one plan per candidate window, and the same
window *structure* — a KeySwitch ladder, a BSGS rotation diamond, an
NTT phase pair — recurs dozens of times per graph and across every
graph of a sweep.  Plan construction (loop-nest assignment, PE
allocation, traffic metrics) reads nothing but the window's structure,
the hardware configuration, the NTT split and the match-depth clamp, so
one construction can serve every structurally identical window.

:data:`MEMO` (process-wide, thread-safe) is memory-only, keyed by
``(hw projection id, n_split id, match depth, window id)`` — four small
integers (:func:`memo_context` plus :meth:`WindowTables.window_id`).
Nothing is persisted per priced window: the only skeletons a later
process needs are the winning cover's, and those travel inside the
schedule document (:mod:`repro.sched.serialize`), which seeds them back
into the memo (:meth:`PlanMemo.seed`) before a replay.

What is stored is a :class:`PlanSkeleton`: the plan's chosen loop
nests, edge match depths, PE allocation, and metrics with every
operator/tensor reference translated from process-local uids to window
positions.  :func:`instantiate` rebuilds a live plan from a skeleton on
any structurally identical window via
:meth:`~repro.sched.dataflow.SpatialGroupPlan.from_parts` — pure dict
re-keying, no search, no float arithmetic — so a memoized plan is
**identical** (not merely equivalent) to the one direct construction
would produce: same nests, same integer metrics in the same dict
order, and therefore float-identical schedules downstream.  The
determinism tests in ``tests/sched/test_plan_memo.py`` pin this.

``REPRO_PLAN_MEMO=0`` disables the memo (every window constructs
fresh) — the comparison baseline for those tests and for benchmarking.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, replace
from typing import (
    Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple,
)

from repro.hw.config import HardwareConfig
from repro.ir.graph import OperatorGraph
from repro.ir.loops import Axis, Loop, LoopNest
from repro.ir.operators import Operator
from repro.obs.tracer import span as _span
from repro.resilience.errors import InvariantViolation
from repro.sched.dataflow import GroupMetrics, SpatialGroupPlan
from repro.sched.tiling import NestAssignment

__all__ = [
    "MEMO",
    "METRIC_FIELDS",
    "PlanMemo",
    "PlanSkeleton",
    "WindowTables",
    "instantiate",
    "memo_context",
    "memo_enabled",
    "skeleton_from_doc",
    "skeleton_of",
    "skeleton_to_doc",
]

#: Set to ``0``/``false``/``off`` to disable structural memoization.
MEMO_ENV = "REPRO_PLAN_MEMO"


def memo_enabled() -> bool:
    """Whether structural plan memoization is on (the default)."""
    return os.environ.get(MEMO_ENV, "").strip().lower() not in (
        "0", "false", "off", "no",
    )


class _Interner:
    """Thread-safe map from a hashable structure to a dense small int.

    Ids are process-wide and never reused, so an id stays valid for as
    long as any memo key holding it does.
    """

    __slots__ = ("_ids", "_lock")

    def __init__(self) -> None:
        self._ids: Dict[Hashable, int] = {}
        self._lock = threading.Lock()

    def __call__(self, key: Hashable) -> int:
        found = self._ids.get(key)
        if found is None:
            with self._lock:
                found = self._ids.setdefault(key, len(self._ids))
        return found


#: Hardware construction projections (see :func:`memo_context`).
_HW_IDS = _Interner()
#: NTT splits (``None`` or ``(n1, n2)``).
_SPLIT_IDS = _Interner()
#: Per-operator structure: signature plus input/output byte sizes.
_SIGNATURE_IDS = _Interner()
#: Window prefixes: ``(parent prefix id, one operator's token)``.
_PREFIX_IDS = _Interner()
#: Whole windows: ``(prefix id, escape mask)``.
_WINDOW_IDS = _Interner()


def memo_context(
    hw: HardwareConfig,
    n_split: Optional[Tuple[int, int]],
    match_depth: Optional[int],
) -> Tuple[int, int, int]:
    """The ``(hw projection id, n_split id, match depth)`` key prefix.

    Computed once per :class:`~repro.sched.scheduler.Scheduler`.  Plan
    *construction* (loop-nest assignment, PE allocation, the metrics
    walk) reads exactly five config fields: ``word_bits``,
    ``lanes_per_pe``, ``num_pes``, ``fu_mix``, and ``transpose_unit_mb``
    (the transpose unit's capacity bounds a buffer term).  Everything
    else — the label, clock frequency, DRAM/SRAM/NoC bandwidths, SRAM
    capacity, mesh shape, register file, area/power — only enters at
    *timing and feasibility* evaluation, which always runs against the
    live config the instantiated plan carries.  Projecting all of it to
    canonical values lets structural twins share skeletons across
    Figure 10's SRAM sweep points, across Table I's bandwidth/frequency
    variants, and across the workloads of a whole sweep.
    ``match_depth`` is the scheduler's clamp on in-window match depths
    (``None`` = unclamped; the MAD baseline clamps to one level).
    """
    projection = replace(
        hw,
        name="",
        frequency_ghz=1.0,
        dram_bandwidth_tbs=1.0,
        sram_bandwidth_tbs=1.0,
        sram_capacity_mb=1.0,
        register_file_kb=0,
        noc_link_bytes_per_cycle=1,
        mesh_dims=None,
        area_mm2=0.0,
        power_w=0.0,
    )
    return (
        _HW_IDS(projection),
        _SPLIT_IDS(n_split),
        -1 if match_depth is None else match_depth,
    )


# ---------------------------------------------------------------------
# Structural window ids
# ---------------------------------------------------------------------


class WindowTables:
    """Position-indexed structure of one topological order.

    Built once per search (:meth:`~repro.sched.scheduler.Scheduler.
    _prepare`).  Per position ``p`` of ``order``:

    * ``sig_ids[p]`` — the operator's interned structure
      (:meth:`~repro.ir.operators.Operator.signature` plus its tensors'
      byte sizes);
    * ``ins[p]`` — the input tensor uids;
    * ``outs[p]`` — ``(tensor uid, last consumer position or -1)`` per
      output.

    Per tensor uid: ``last_use`` (the last consuming position; dead
    intermediates leave the DP's resident pool after it),
    ``producer_pos`` and ``consumer_pos`` (every consuming position,
    ascending; the DP's streamability checks read these).

    :meth:`window_id` names a window's structure by a small interned
    integer.  Equal ids mean equal per-operator structure, equal tensor
    *aliasing* within the window (two operators sharing one constant is
    cheaper than two distinct constants — signatures alone cannot see
    this) and with it equal in-window producers, and equal escape fate of
    every output (consumed outside the window or a graph result) — in
    the same graph or in different ones — so equal ids yield
    byte-identical plan skeletons.
    """

    __slots__ = (
        "sig_ids", "ins", "outs", "last_use", "producer_pos",
        "consumer_pos", "_start", "_local", "_prefix", "_mask", "_dying",
        "_bits", "_ids",
    )

    def __init__(self, order: Sequence[Operator]) -> None:
        producer_pos: Dict[int, int] = {}
        consumer_pos: Dict[int, List[int]] = {}
        last_use: Dict[int, int] = {}
        sig_ids: List[int] = []
        ins: List[Tuple[int, ...]] = []
        for pos, op in enumerate(order):
            for t in op.inputs:
                consumer_pos.setdefault(t.uid, []).append(pos)
                last_use[t.uid] = pos
            ins.append(tuple(t.uid for t in op.inputs))
            for t in op.outputs:
                producer_pos[t.uid] = pos
            sig_ids.append(_SIGNATURE_IDS((
                op.signature(),
                tuple(t.bytes for t in op.inputs),
                tuple(t.bytes for t in op.outputs),
            )))
        self.sig_ids = sig_ids
        self.ins = ins
        self.outs = [
            tuple((t.uid, last_use.get(t.uid, -1)) for t in op.outputs)
            for op in order
        ]
        self.last_use = last_use
        self.producer_pos = producer_pos
        self.consumer_pos = {
            uid: tuple(positions) for uid, positions in consumer_pos.items()
        }
        self._start = -1

    def window_id(self, start: int, size: int) -> int:
        """The interned structural id of ``order[start:start + size]``.

        Windows are grown one operator at a time from ``start``, the
        way the DP frontier requests them (sizes 1, 2, ...), so each
        operator's token is built once per frontier.  The token holds
        the operator's signature id and, per input and output tensor,
        its window-local alias number (order of first appearance).  An
        in-window producer needs no entry of its own: the alias first
        appears among that producer's outputs.  The growing prefix is
        interned as ``(parent prefix id, token)``.  Escape
        fate is not a prefix property — growing the window can make an
        earlier output internal — so the window id interns the prefix id
        together with an escape bitmask over the window's outputs (bit
        ``k`` for the ``k``-th output; it clears once the window reaches
        that output's last consumer).
        """
        if start != self._start:
            self._start = start
            self._local: Dict[int, int] = {}
            self._prefix = -1
            self._mask = 0
            self._dying: Dict[int, int] = {}
            self._bits = 0
            self._ids: List[int] = []
        ids = self._ids
        local = self._local
        dying = self._dying
        while len(ids) < size:
            pos = start + len(ids)
            token = [self._prefix, self.sig_ids[pos]]
            for uid in self.ins[pos]:
                token.append(local.setdefault(uid, len(local)))
            mask = self._mask & ~dying.pop(pos, 0)
            for uid, last in self.outs[pos]:
                token.append(local.setdefault(uid, len(local)))
                bit = 1 << self._bits
                self._bits += 1
                mask |= bit
                if last >= 0:
                    dying[last] = dying.get(last, 0) | bit
            self._mask = mask
            self._prefix = _PREFIX_IDS(tuple(token))
            ids.append(_WINDOW_IDS((self._prefix, mask)))
        return ids[size - 1]


# ---------------------------------------------------------------------
# Skeletons: position-keyed plan descriptions
# ---------------------------------------------------------------------


#: The scalar :class:`~repro.sched.dataflow.GroupMetrics` fields, in
#: the order skeleton and schedule documents list them.
METRIC_FIELDS = (
    "compute_cycles", "buffer_bytes", "noc_bytes", "transpose_bytes",
    "sram_bytes", "dram_read_bytes", "dram_write_bytes",
)


@dataclass(frozen=True)
class PlanSkeleton:
    """A plan with every uid translated to a window position.

    Tensor references are ``(op position, input index)`` pairs naming
    one occurrence of the tensor among the window's operator inputs;
    reference *order* preserves the source dicts' insertion order, so
    an instantiated plan iterates its metrics dicts exactly as a
    freshly constructed one would (the constant-residency loop in the
    scheduler transition is order-sensitive under a tight budget).

    ``boundary_ins``/``boundary_outs`` carry the window's external
    (inputs, outputs) as positional references — inputs into the
    operator *input* lists, outputs into the operator *output* lists —
    so instantiation pre-seeds the plan's boundary cache and the DP
    transition never re-walks the graph for it.
    """

    nests: Tuple[LoopNest, ...]
    edge_matches: Tuple[Tuple[int, int, int], ...]
    pe_allocation: Tuple[Tuple[int, int], ...]
    compute_cycles: int
    buffer_bytes: int
    noc_bytes: int
    transpose_bytes: int
    sram_bytes: int
    dram_read_bytes: int
    dram_write_bytes: int
    constant_bytes: Tuple[Tuple[int, int, int], ...]
    external_read_bytes: Tuple[Tuple[int, int, int], ...]
    boundary_ins: Tuple[Tuple[int, int], ...]
    boundary_outs: Tuple[Tuple[int, int], ...]


def _tensor_refs(ops: Sequence[Operator]) -> Dict[int, Tuple[int, int]]:
    """First ``(op position, input index)`` occurrence of each input."""
    refs: Dict[int, Tuple[int, int]] = {}
    for pos, op in enumerate(ops):
        for idx, t in enumerate(op.inputs):
            refs.setdefault(t.uid, (pos, idx))
    return refs


def skeleton_of(plan: SpatialGroupPlan) -> PlanSkeleton:
    """Strip a live plan down to its position-keyed skeleton."""
    ops = plan.ops
    pos = {op.uid: i for i, op in enumerate(ops)}
    refs = _tensor_refs(ops)
    out_refs: Dict[int, Tuple[int, int]] = {}
    for p, op in enumerate(ops):
        for idx, t in enumerate(op.outputs):
            out_refs.setdefault(t.uid, (p, idx))
    b_ins, b_outs = plan.boundary()
    m = plan.metrics
    return PlanSkeleton(
        nests=tuple(plan.assignment.nests[op.uid] for op in ops),
        edge_matches=tuple(
            (pos[p], pos[c], depth)
            for (p, c), depth in plan.assignment.edge_matches.items()
        ),
        pe_allocation=tuple(
            (pos[uid], pes) for uid, pes in plan.pe_allocation.items()
        ),
        **{name: getattr(m, name) for name in METRIC_FIELDS},
        constant_bytes=tuple(
            (*refs[uid], nbytes) for uid, nbytes in m.constant_bytes.items()
        ),
        external_read_bytes=tuple(
            (*refs[uid], nbytes)
            for uid, nbytes in m.external_read_bytes.items()
        ),
        boundary_ins=tuple(refs[t.uid] for t in b_ins),
        boundary_outs=tuple(out_refs[t.uid] for t in b_outs),
    )


def instantiate(
    skeleton: PlanSkeleton,
    graph: OperatorGraph,
    ops: Sequence[Operator],
    hw: HardwareConfig,
    n_split: Optional[Tuple[int, int]],
) -> SpatialGroupPlan:
    """Rebuild a live plan from a skeleton onto a structural twin."""
    ops = tuple(ops)
    assignment = NestAssignment(
        nests={op.uid: nest for op, nest in zip(ops, skeleton.nests)},
        edge_matches={
            (ops[p].uid, ops[c].uid): depth
            for p, c, depth in skeleton.edge_matches
        },
    )
    # Built via __new__: the dataclass __init__ is measurable at the
    # hundreds of thousands of instantiations a cold search performs.
    metrics = GroupMetrics.__new__(GroupMetrics)
    metrics.compute_cycles = skeleton.compute_cycles
    metrics.buffer_bytes = skeleton.buffer_bytes
    metrics.noc_bytes = skeleton.noc_bytes
    metrics.transpose_bytes = skeleton.transpose_bytes
    metrics.sram_bytes = skeleton.sram_bytes
    metrics.dram_read_bytes = skeleton.dram_read_bytes
    metrics.dram_write_bytes = skeleton.dram_write_bytes
    metrics.constant_bytes = {
        ops[p].inputs[idx].uid: nbytes
        for p, idx, nbytes in skeleton.constant_bytes
    }
    metrics.external_read_bytes = {
        ops[p].inputs[idx].uid: nbytes
        for p, idx, nbytes in skeleton.external_read_bytes
    }
    plan = SpatialGroupPlan.from_parts(
        graph, ops, hw, n_split,
        assignment=assignment,
        pe_allocation={
            ops[p].uid: pes for p, pes in skeleton.pe_allocation
        },
        metrics=metrics,
    )
    boundary_ins: List[Any] = [
        ops[p].inputs[idx] for p, idx in skeleton.boundary_ins
    ]
    boundary_outs: List[Any] = [
        ops[p].outputs[idx] for p, idx in skeleton.boundary_outs
    ]
    plan._boundary = (boundary_ins, boundary_outs)
    return plan


# ---------------------------------------------------------------------
# Document round trip (carried by schedule documents)
# ---------------------------------------------------------------------


#: Skeleton fields stored as lists of integer rows, with each row's arity.
_ROW_FIELDS = {
    "edge_matches": 3, "pe_allocation": 2, "constant_bytes": 3,
    "external_read_bytes": 3, "boundary_ins": 2, "boundary_outs": 2,
}


def skeleton_to_doc(skeleton: PlanSkeleton) -> Dict[str, Any]:
    """JSON document form of a skeleton (one per schedule step)."""
    doc: Dict[str, Any] = {
        name: [list(row) for row in getattr(skeleton, name)]
        for name in _ROW_FIELDS
    }
    doc["nests"] = [
        [[loop.axis.value, loop.size] for loop in nest.loops]
        for nest in skeleton.nests
    ]
    doc["metrics"] = {name: getattr(skeleton, name) for name in METRIC_FIELDS}
    return doc


def skeleton_from_doc(doc: Any) -> Optional[PlanSkeleton]:
    """Parse a skeleton document back into a skeleton.

    Returns ``None`` for anything malformed.  Only types and shapes are
    checked here; whether the references fit a concrete window is
    :meth:`PlanMemo.seed`'s job.
    """
    try:
        fields: Dict[str, Any] = {
            name: int(doc["metrics"][name]) for name in METRIC_FIELDS
        }
        for name, arity in _ROW_FIELDS.items():
            rows = tuple(tuple(int(x) for x in row) for row in doc[name])
            if any(len(row) != arity for row in rows):
                return None
            fields[name] = rows
        fields["nests"] = tuple(
            LoopNest(Loop(Axis(axis), int(size)) for axis, size in nest)
            for nest in doc["nests"]
        )
        return PlanSkeleton(**fields)
    except (KeyError, TypeError, ValueError):
        return None


# ---------------------------------------------------------------------
# The process-wide memo
# ---------------------------------------------------------------------


def _ref_problem(
    skeleton: PlanSkeleton, ops: Sequence[Operator]
) -> Optional[str]:
    """The first reference of ``skeleton`` that ``ops`` cannot resolve
    (``None`` when all fit — :func:`instantiate` indexes unchecked)."""
    n = len(ops)
    if len(skeleton.nests) != n:
        return f"{len(skeleton.nests)} nests for {n} operators"
    positions = [p for p, _ in skeleton.pe_allocation]
    positions += [x for edge in skeleton.edge_matches for x in edge[:2]]
    if not all(0 <= p < n for p in positions):
        return "operator position out of range"
    ins = [r[:2] for r in skeleton.constant_bytes + skeleton.external_read_bytes]
    for side, refs in (("inputs", ins + list(skeleton.boundary_ins)),
                       ("outputs", skeleton.boundary_outs)):
        for p, i in refs:
            if not (0 <= p < n and 0 <= i < len(getattr(ops[p], side))):
                return f"{side} reference ({p}, {i}) out of range"
    return None


class PlanMemo:
    """Memory-only structural plan store (thread-safe).

    ``disk_hit`` counts skeletons :meth:`seed` took from schedule
    documents.  Counters are accumulated under the lock (in-process
    sweeps may search on several threads); the scheduler stamps them
    into the metric registry once per search.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._skeletons: Dict[Tuple[int, int, int, int], PlanSkeleton] = {}
        self.stats: Dict[str, int] = {
            "memo_hit": 0, "memo_miss": 0, "disk_hit": 0,
        }

    def snapshot(self) -> Dict[str, int]:
        """Copy of the cumulative counters (for per-search deltas)."""
        with self._lock:
            return dict(self.stats)

    def clear(self) -> None:
        """Drop every skeleton and zero the counters (tests)."""
        with self._lock:
            self._skeletons.clear()
            for key in self.stats:
                self.stats[key] = 0

    def seed(
        self,
        key: Tuple[int, int, int, int],
        ops: Sequence[Operator],
        doc: Any,
    ) -> None:
        """Enter a schedule document's skeleton ``doc`` (as written by
        :func:`skeleton_to_doc`) under the memo ``key`` of the window
        ``ops``, unless the memo already holds that structure.

        Raises:
            InvariantViolation: when ``doc`` is malformed or a reference
                falls outside the window (callers re-search).
        """
        with self._lock:
            if key in self._skeletons:
                return
        skeleton = skeleton_from_doc(doc)
        problem = (
            "malformed document" if skeleton is None
            else _ref_problem(skeleton, ops)
        )
        if problem is not None:
            raise InvariantViolation(
                "repro.sched.plan_memo.PlanMemo.seed",
                f"skeleton does not fit its window: {problem}",
            )
        with self._lock:
            self._skeletons[key] = skeleton
            self.stats["disk_hit"] += 1

    def lookup(
        self,
        key: Tuple[int, int, int, int],
        build: Callable[[], SpatialGroupPlan],
    ) -> Tuple[PlanSkeleton, Optional[SpatialGroupPlan]]:
        """The skeleton stored under ``key`` plus the live plan a miss
        built.

        Hits return ``(skeleton, None)`` without instantiating a live
        plan, which is what lets the scheduler's search price windows
        straight off skeleton integers; a miss constructs the plan with
        ``build``, stores its skeleton, and returns both so the caller
        never pays construction twice.  A fresh construction runs under
        a ``sched.plan`` span so cold traces show exactly where
        structural planning time goes; hits are span-free (they are
        dict lookups).
        """
        # One lock round trip covers both the lookup and the counter —
        # this is the hot path of every priced window.
        with self._lock:
            skeleton = self._skeletons.get(key)
            if skeleton is not None:
                self.stats["memo_hit"] += 1
        if skeleton is not None:
            return skeleton, None
        with _span("sched.plan") as sp:
            plan = build()
            sp.set("ops", len(plan.ops))
        skeleton = skeleton_of(plan)
        with self._lock:
            self._skeletons[key] = skeleton
            self.stats["memo_miss"] += 1
        return skeleton, plan


#: The process-wide memo every :class:`~repro.sched.scheduler.
#: Scheduler` shares; windows ≤ ``max_group_size`` operators keep
#: skeletons tiny, so unbounded growth is not a practical concern.
MEMO = PlanMemo()
