"""Tests for the analytical cost model facade."""

import math

import pytest

from repro.baselines.accelerators import SHARP
from repro.fhe.params import parameter_set
from repro.hw.config import CROPHE_64
from repro.ir.builders import GraphBuilder
from repro.resilience.errors import ConfigError
from repro.sched.cost_model import (
    TimeBreakdown,
    arithmetic_intensity,
    group_time_breakdown,
    machine_balance,
    schedule_bottleneck_profile,
    schedule_roofline,
)
from repro.sched.dataflow import GroupMetrics
from repro.sched.scheduler import Scheduler, SchedulerConfig

PARAMS = parameter_set("ARK")


def _schedule():
    b = GraphBuilder(PARAMS)
    b.hmult(b.input_ciphertext("x", 10), b.input_ciphertext("y", 10))
    return Scheduler(b.graph, CROPHE_64).schedule()


class TestBreakdown:
    def test_total_is_max(self):
        bd = TimeBreakdown(compute=1.0, dram=2.0, sram=0.5, noc=0.1,
                           transpose=0.0)
        assert bd.total == 2.0
        assert bd.bottleneck == "dram"

    def test_group_breakdown_from_metrics(self):
        m = GroupMetrics(
            compute_cycles=1_200_000,   # 1 ms at 1.2 GHz
            dram_read_bytes=850_000_000,
            sram_bytes=0,
            noc_bytes=0,
        )
        bd = group_time_breakdown(m, CROPHE_64)
        assert bd.compute == pytest.approx(1e-3)
        assert bd.dram == pytest.approx(1e-3, rel=0.25)

    def test_specialized_hw_has_free_noc(self):
        m = GroupMetrics(noc_bytes=10 ** 9)
        assert group_time_breakdown(m, SHARP).noc == 0.0
        assert group_time_breakdown(m, CROPHE_64).noc > 0.0

    def test_schedule_profile_sums_to_total(self):
        sched = _schedule()
        profile = schedule_bottleneck_profile(sched, CROPHE_64)
        assert sum(profile.values()) == pytest.approx(
            sum(s.seconds for s in sched.steps)
        )
        assert profile  # at least one bottleneck class


def _assert_breakdown_matches_steps(workload, chained_io):
    from repro.fhe.params import CKKSParams
    from repro.workloads import build_bootstrapping
    from repro.workloads.resnet import build_resnet20

    if workload == "bootstrapping":
        params = CKKSParams(
            log_n=12, max_level=7, boot_levels=5, dnum=2, alpha=4,
            word_bits=36, name="tiny",
        )
        segments = build_bootstrapping(params).segments
    else:
        params = CKKSParams(
            log_n=12, max_level=13, boot_levels=3, dnum=2, alpha=7,
            word_bits=36, name="tiny-deep",
        )
        segments = build_resnet20(params).segments
    checked = 0
    for seg in segments[:3]:
        sched = Scheduler(
            seg.graph, CROPHE_64, SchedulerConfig(chained_io=chained_io)
        ).schedule()
        for step in sched.steps:
            bd = group_time_breakdown(step.metrics, CROPHE_64)
            assert bd.total == step.seconds
            checked += 1
    assert checked > 0


class TestBreakdownMatchesPlans:
    @pytest.mark.parametrize("workload", ["bootstrapping", "resnet20"])
    def test_total_equals_step_seconds(self, workload):
        """Across whole quick workloads, the standalone decomposition's
        ``total`` reproduces every step's priced seconds *exactly* —
        the facade and the DP transition price through one
        ``GroupPricing``, so any drift between them is a bug."""
        _assert_breakdown_matches_steps(workload, chained_io=True)

    @pytest.mark.parametrize("workload", ["bootstrapping", "resnet20"])
    def test_unchained_total_equals_step_seconds(self, workload):
        """Unchained segments charge their final outputs' writes to the
        last step, which must be re-priced through the same
        ``GroupPricing`` (HBM base latency included)."""
        _assert_breakdown_matches_steps(workload, chained_io=False)


class TestRoofline:
    def test_intensity_finite_without_dram(self):
        """Zero-DRAM groups report 0.0, not inf: they sit off the
        memory-bound axis entirely, and the finite sentinel keeps
        roofline summaries (means, sorts) well-defined."""
        assert arithmetic_intensity(GroupMetrics(compute_cycles=10), 8) \
            == 0.0

    def test_intensity_positive(self):
        m = GroupMetrics(compute_cycles=100, dram_read_bytes=50)
        assert arithmetic_intensity(m, 8) == pytest.approx(2.0)

    def test_schedule_roofline_inf_free_and_sorted(self):
        sched = _schedule()
        points = schedule_roofline(sched, CROPHE_64)
        assert len(points) == len(sched.steps)
        assert all(math.isfinite(x) and math.isfinite(y)
                   for x, y in points)
        assert points == sorted(points)
        # The summary stays aggregable: a mean over intensities is a
        # finite number even if some step never touches DRAM.
        mean = sum(x for x, _ in points) / len(points)
        assert math.isfinite(mean)

    def test_machine_balance_positive(self):
        assert machine_balance(CROPHE_64) > 0

    def test_machine_balance_rejects_no_lanes(self):
        hw = object.__new__(type(CROPHE_64))
        hw.__dict__.update(CROPHE_64.__dict__)
        hw.__dict__["num_pes"] = 0
        with pytest.raises(ConfigError) as exc:
            machine_balance(hw)
        assert "total_lanes" in str(exc.value)

    def test_machine_balance_rejects_no_dram_bandwidth(self):
        hw = object.__new__(type(CROPHE_64))
        hw.__dict__.update(CROPHE_64.__dict__)
        hw.__dict__["dram_bandwidth_tbs"] = 0.0
        with pytest.raises(ConfigError) as exc:
            machine_balance(hw)
        assert "dram_bandwidth_tbs" in str(exc.value)
