"""Fault injection: the policy registry, seeded timelines, and the
unreliable-hardware event loop (crashes, stragglers, preemption,
timeouts/retries, hedged duplicates)."""

from __future__ import annotations

from dataclasses import replace
from functools import partial

import pytest

from repro.errors import ServingError
from repro.serving import (
    Autoscaler,
    ChaosFaults,
    CrashFaults,
    FaultPolicy,
    FaultStats,
    Fleet,
    NoFaults,
    PreemptFaults,
    ServeRequest,
    ServingEngine,
    StragglerFaults,
    StreamSummary,
    ZipfLength,
    available_fault_policies,
    get_fault_policy,
    make_fault_policy,
    poisson_arrivals,
    register_fault_policy,
    serve_parallel,
)
from repro.serving.faults import unregister_fault_policy
from repro.serving.scheduler import EDFScheduler, FIFOScheduler, QueuedRequest
from repro.workloads.deepbench import task

T = task("lstm", 512, 25)
BIG = task("lstm", 1024, 25)


def _stream(n=300, rate=800.0, seed=3, t=T):
    return poisson_arrivals(t, rate_per_s=rate, n_requests=n, seed=seed)


def _with_priorities(requests, classes=3):
    return [replace(r, priority=r.request_id % classes) for r in requests]


def _ids(report):
    return sorted(r.request.request_id for r in report.responses)


class TestRegistry:
    def test_builtins_registered(self):
        names = available_fault_policies()
        for name in ("chaos", "crash", "none", "preempt", "straggler"):
            assert name in names

    def test_unknown_name_raises(self):
        with pytest.raises(ServingError, match="unknown fault policy"):
            get_fault_policy("bitrot")

    def test_register_and_unregister(self):
        @register_fault_policy("test-flaky")
        class Flaky(FaultPolicy):
            def straggler_factor(self, request):
                return 2.0

        try:
            assert "test-flaky" in available_fault_policies()
            assert get_fault_policy("test-flaky").name == "test-flaky"
            with pytest.raises(ServingError, match="already registered"):
                register_fault_policy("test-flaky")(CrashFaults)
        finally:
            unregister_fault_policy("test-flaky")
        assert "test-flaky" not in available_fault_policies()

    def test_register_rejects_non_policy(self):
        with pytest.raises(ServingError, match="FaultPolicy subclass"):
            register_fault_policy("test-bogus")(dict)

    def test_make_accepts_name_instance_factory(self):
        assert make_fault_policy("none").name == "none"
        instance = CrashFaults(mtbf_s=1.0)
        assert make_fault_policy(instance) is instance
        assert make_fault_policy(CrashFaults).name == "crash"
        with pytest.raises(ServingError, match="must return a FaultPolicy"):
            make_fault_policy(dict)
        with pytest.raises(ServingError, match="cannot build"):
            make_fault_policy(42)

    def test_seed_required_before_draws(self):
        policy = StragglerFaults(prob=1.0)
        with pytest.raises(ServingError, match="before reset"):
            policy.straggler_factor(ServeRequest(task=T))


class TestPolicies:
    def test_crash_timeline_deterministic_per_replica(self):
        policy = CrashFaults(mtbf_s=0.5, mttr_s=0.1)
        policy.reset(7)
        first = [policy.next_crash(r, 0.0) for r in range(3)]
        policy.reset(7)
        assert [policy.next_crash(r, 0.0) for r in range(3)] == first
        # Distinct replicas draw from decorrelated streams.
        assert len({crash_s for crash_s, _ in first}) == 3
        for crash_s, down_s in first:
            assert crash_s > 0.0 and down_s == 0.1

    def test_crash_timeline_advances(self):
        policy = CrashFaults(mtbf_s=0.2, mttr_s=0.05)
        policy.reset(1)
        crash_s, down_s = policy.next_crash(0, 10.0)
        assert crash_s > 10.0

    def test_straggler_factor_contract(self):
        policy = StragglerFaults(prob=1.0, alpha=1.2, max_factor=4.0)
        policy.reset(11)
        factors = [
            policy.straggler_factor(ServeRequest(task=T, request_id=i))
            for i in range(200)
        ]
        assert all(1.0 <= f <= 4.0 for f in factors)
        assert any(f > 1.0 for f in factors)
        # Pure in (seed, request_id): identical on a re-draw.
        assert factors[5] == policy.straggler_factor(
            ServeRequest(task=BIG, request_id=5, tenant="other")
        )

    def test_straggler_prob_zero_never_inflates(self):
        policy = StragglerFaults(prob=0.0)
        policy.reset(0)
        assert policy.straggler_factor(ServeRequest(task=T, request_id=9)) == 1.0

    def test_none_policy_is_inert(self):
        policy = NoFaults()
        policy.reset(0)
        assert policy.next_crash(0, 0.0) is None
        assert policy.straggler_factor(ServeRequest(task=T)) == 1.0
        assert not policy.preemptive

    def test_preempt_rank_semantics(self):
        policy = PreemptFaults()
        assert policy.preempts(2.0, 0.0)
        assert not policy.preempts(1.0, 1.0)  # strict inequality only
        entry = QueuedRequest(
            seq=0,
            request=ServeRequest(task=T, priority=3),
            result=None,
            service_s=0.0,
            deadline_s=4.5,
        )
        assert FIFOScheduler().preemption_rank(entry) == 3.0
        # EDF ranks by urgency: earlier deadline = larger rank.
        assert EDFScheduler().preemption_rank(entry) == -4.5

    @pytest.mark.parametrize(
        "build",
        [
            lambda: CrashFaults(mtbf_s=0.0),
            lambda: CrashFaults(mttr_s=-1.0),
            lambda: StragglerFaults(prob=1.5),
            lambda: StragglerFaults(alpha=0.0),
            lambda: StragglerFaults(max_factor=0.5),
            lambda: ChaosFaults(mtbf_s=-1.0),
            lambda: ChaosFaults(mttr_s=-0.1),
            lambda: ChaosFaults(prob=2.0),
            lambda: ChaosFaults(alpha=-1.0),
            lambda: ChaosFaults(max_factor=0.0),
        ],
    )
    def test_parameter_validation(self, build):
        with pytest.raises(ServingError):
            build()


class TestLoopValidation:
    def test_retries_require_timeout(self):
        with pytest.raises(ServingError, match="retries"):
            ServingEngine("gpu").serve_stream(_stream(n=5), retries=1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"timeout_ms": 0.0},
            {"timeout_ms": -5.0},
            {"hedge_ms": 0.0},
            {"timeout_ms": 1.0, "retries": -1},
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ServingError):
            ServingEngine("gpu").serve_stream(_stream(n=5), **kwargs)

    def test_bad_straggler_factor_rejected(self):
        class Shrinker(FaultPolicy):
            name = "test-shrinker"

            def straggler_factor(self, request):
                return 0.5

        with pytest.raises(ServingError, match="factor"):
            ServingEngine("gpu").serve_stream(_stream(n=5), faults=Shrinker())


#: Fault-free multi-replica configurations for the loop-agreement test:
#: (fresh fleet + serve_stream kwargs, rate, Zipf lengths, seed).
_LOOP_CASES = {
    "rr-fifo-none": (
        lambda: (
            Fleet("plasticine:3", policy="round-robin"),
            {"scheduler": "fifo", "batcher": "none"},
        ),
        60_000.0, None, 0,
    ),
    "ll-edf-size-cap": (
        lambda: (
            Fleet("plasticine:3", policy="least-loaded"),
            {"scheduler": "edf", "batcher": "size-cap"},
        ),
        60_000.0, None, 0,
    ),
    "ll-fifo-adaptive": (
        lambda: (
            Fleet("plasticine:3", policy="least-loaded"),
            {"scheduler": "fifo", "batcher": "adaptive"},
        ),
        60_000.0, None, 1,
    ),
    "mixed-edf-bucket": (
        lambda: (
            Fleet("plasticine:2,brainwave:1,gpu:1", policy="least-loaded"),
            {"scheduler": "edf", "batcher": "bucket"},
        ),
        20_000.0, ZipfLength(10, 400), 0,
    ),
    "autoscaled-size-cap": (
        lambda: (
            Fleet("plasticine:1"),
            {
                "batcher": "size-cap",
                "autoscaler": Autoscaler(
                    min_replicas=1, max_replicas=4, cooldown_s=0.0
                ),
            },
        ),
        60_000.0, None, 0,
    ),
}


class TestNoFaultParity:
    def test_none_policy_bit_identical(self):
        arrivals = _stream()
        base = ServingEngine("gpu").serve_stream(arrivals, slo_ms=5.0)
        none = ServingEngine("gpu").serve_stream(
            arrivals, slo_ms=5.0, faults="none"
        )
        assert base.responses == none.responses
        assert none.faults == "none"
        assert not none.fault_stats.any

    def test_huge_timeout_matches_faultless_timeline(self):
        # A timeout that never fires forces the general loop but
        # must reproduce the perfect-machine timeline exactly.
        arrivals = _stream()
        base = ServingEngine("gpu").serve_stream(arrivals, slo_ms=5.0)
        guarded = ServingEngine("gpu").serve_stream(
            arrivals, slo_ms=5.0, timeout_ms=1e6
        )
        assert [
            (r.request.request_id, r.start_s, r.finish_s)
            for r in base.responses
        ] == [
            (r.request.request_id, r.start_s, r.finish_s)
            for r in guarded.responses
        ]
        assert all(r.outcome == "ok" and r.attempts == 1
                   for r in guarded.responses)

    def test_summary_mode_none_policy_matches(self):
        arrivals = _stream()
        base = ServingEngine("gpu").serve_stream(
            arrivals, slo_ms=5.0, mode="summary"
        )
        none = ServingEngine("gpu").serve_stream(
            arrivals, slo_ms=5.0, mode="summary", faults="none"
        )
        assert (base.n_requests, base.p50_ms, base.p99_ms) == (
            none.n_requests, none.p50_ms, none.p99_ms,
        )

    def _serve_case(self, case, mode, **extra):
        make, rate, lengths, seed = _LOOP_CASES[case]
        fleet, kwargs = make()
        arrivals = poisson_arrivals(
            BIG, rate_per_s=rate, n_requests=2000, seed=seed, lengths=lengths
        )
        return fleet.serve_stream(
            arrivals, slo_ms=1.0, mode=mode, presorted=True, **kwargs, **extra
        )

    @pytest.mark.parametrize("case", sorted(_LOOP_CASES))
    def test_loop_agreement_full_mode(self, case):
        # Every fault-free multi-replica stream runs the one general
        # loop, so a never-firing timeout (which only adds TIMEOUT
        # events) must not move a request, assignment or scale event.
        base = self._serve_case(case, "full")
        guarded = self._serve_case(case, "full", timeout_ms=1e6)

        def timeline(report):
            return [
                (r.request.request_id, r.start_s, r.finish_s,
                 r.batch_size, r.batch_index)
                for r in report.responses
            ]

        assert timeline(base) == timeline(guarded)
        assert base.assignments == guarded.assignments
        assert base.scale_events == guarded.scale_events
        if case.startswith("autoscaled"):
            assert base.scale_events  # the autoscaler really acted

    @pytest.mark.parametrize("case", sorted(_LOOP_CASES))
    def test_loop_agreement_summary_mode(self, case):
        base = self._serve_case(case, "summary")
        guarded = self._serve_case(case, "summary", timeout_ms=1e6)
        for metric in ("mean_ms", "mean_queue_delay_ms", "energy_j", "p99_ms"):
            assert getattr(base, metric) == getattr(guarded, metric), metric


class TestCrashInjection:
    def test_fleet_crashes_and_recovers(self):
        arrivals = _stream(n=400)
        fleet = Fleet("gpu", replicas=3, policy="least-loaded")
        report = fleet.serve_stream(
            arrivals, slo_ms=5.0, faults="crash", fault_seed=7
        )
        stats = report.fault_stats
        assert stats.crashes > 0
        assert stats.downtime_s == pytest.approx(stats.crashes * 0.05)
        assert report.faults == "crash"
        assert _ids(report) == list(range(400))

    def test_single_engine_crash_no_factory(self):
        # Without a replica factory the replica recovers in place.
        report = ServingEngine("gpu").serve_stream(
            _stream(n=300, rate=1500.0),
            slo_ms=5.0,
            faults=CrashFaults(mtbf_s=0.05, mttr_s=0.02),
            fault_seed=5,
        )
        assert report.fault_stats.crashes > 0
        assert _ids(report) == list(range(300))
        for r in report.responses:
            assert r.finish_s >= r.start_s >= r.request.arrival_s - 1e-9

    def test_same_seed_identical_timeline(self):
        def run():
            return Fleet("gpu", replicas=2).serve_stream(
                _stream(), slo_ms=5.0, faults="chaos", fault_seed=13
            )

        a, b = run(), run()
        assert a.responses == b.responses
        assert a.fault_stats == b.fault_stats

    def test_different_seed_differs(self):
        def run(seed):
            return Fleet("gpu", replicas=2).serve_stream(
                _stream(), slo_ms=5.0,
                faults=CrashFaults(mtbf_s=0.05, mttr_s=0.02),
                fault_seed=seed,
            )

        a, b = run(1), run(2)
        assert a.fault_stats != b.fault_stats or a.responses != b.responses


class TestTimeoutsRetriesHedges:
    def test_tight_timeout_times_out_and_retries(self):
        arrivals = _stream(n=300, rate=2000.0, t=BIG)
        report = ServingEngine("gpu").serve_stream(
            arrivals, slo_ms=5.0, timeout_ms=3.0, retries=1
        )
        stats = report.fault_stats
        assert stats.timeouts > 0 and stats.retries > 0
        assert _ids(report) == list(range(300))
        by_outcome = report.per_outcome()
        assert sum(s.n_requests for s in by_outcome.values()) == 300
        assert stats.timeouts == by_outcome["timeout"].n_requests
        # Every retry dispatch bumped exactly one response's attempts.
        assert sum(r.attempts - 1 for r in report.responses) == stats.retries
        for r in report.responses:
            if r.outcome == "timeout":
                # Given up at the final deadline: no service interval.
                assert r.start_s == r.finish_s
                assert r.start_s >= r.request.arrival_s

    def test_hedge_wins_on_fleet(self):
        report = Fleet("gpu", replicas=2).serve_stream(
            _stream(n=300, rate=1500.0, seed=9, t=BIG),
            slo_ms=5.0,
            faults="straggler",
            fault_seed=4,
            hedge_ms=2.0,
        )
        stats = report.fault_stats
        assert stats.hedges > 0
        assert stats.hedge_wins > 0
        assert stats.hedge_wins == sum(
            1 for r in report.responses if r.outcome == "hedged"
        )
        assert _ids(report) == list(range(300))

    def test_zero_retries_goes_straight_to_timeout(self):
        report = ServingEngine("gpu").serve_stream(
            _stream(n=100, rate=5000.0, t=BIG), slo_ms=5.0, timeout_ms=2.0
        )
        assert report.fault_stats.retries == 0
        assert report.fault_stats.timeouts > 0
        assert all(r.attempts == 1 for r in report.responses)


class TestPreemption:
    def test_priority_arrivals_preempt(self):
        arrivals = _with_priorities(_stream(n=300, rate=2000.0, t=BIG))
        report = ServingEngine("gpu").serve_stream(
            arrivals, slo_ms=5.0, scheduler="priority",
            faults="preempt", fault_seed=2,
        )
        assert report.fault_stats.preemptions > 0
        assert _ids(report) == list(range(300))
        # Preempted work is re-served: timelines stay well-formed.
        for r in report.responses:
            assert r.finish_s >= r.start_s >= r.request.arrival_s - 1e-9

    def test_equal_priorities_never_preempt(self):
        report = ServingEngine("gpu").serve_stream(
            _stream(n=200, rate=2000.0), slo_ms=5.0,
            faults="preempt", fault_seed=2,
        )
        assert report.fault_stats.preemptions == 0


class TestReportsAndSummaries:
    def test_outcome_slices_and_property(self):
        report = ServingEngine("gpu").serve_stream(
            _stream(n=200, rate=2000.0, t=BIG), slo_ms=5.0,
            timeout_ms=3.0, retries=1,
        )
        assert set(report.outcomes) <= {"ok", "retried", "timeout"}
        slices = report.per_outcome()
        assert sorted(slices) == list(report.outcomes)
        for name, sub in slices.items():
            assert all(r.outcome == name for r in sub.responses)
            assert sub.faults == report.faults

    def test_summary_mode_matches_full_mode_stats(self):
        arrivals = _stream(n=300)
        kwargs = dict(slo_ms=5.0, faults="chaos", fault_seed=7)
        full = Fleet("gpu", replicas=2).serve_stream(arrivals, **kwargs)
        summary = Fleet("gpu", replicas=2).serve_stream(
            arrivals, mode="summary", **kwargs
        )
        assert summary.fault_stats == full.fault_stats
        assert summary.faults == "chaos"
        assert summary.n_requests == full.n_requests
        assert summary.slo_attainment == pytest.approx(full.slo_attainment)
        assert sum(
            s.n_requests for s in summary.per_outcome().values()
        ) == summary.n_requests
        assert set(summary.outcomes) == set(full.outcomes)

    def test_fault_stats_merge(self):
        a = FaultStats(crashes=1, downtime_s=0.5, retries=2)
        b = FaultStats(crashes=2, hedges=3, hedge_wins=1)
        merged = a.merge(b)
        assert merged == FaultStats(
            crashes=3, downtime_s=0.5, retries=2, hedges=3, hedge_wins=1
        )
        assert not FaultStats().any and merged.any

    def test_summaries_with_different_policies_do_not_merge(self):
        a = StreamSummary("gpu", faults="none")
        b = StreamSummary("gpu", faults="chaos")
        with pytest.raises(ServingError, match="faults"):
            a.merge(b)


class TestParallelFaults:
    def test_merge_is_pool_size_independent(self):
        make = partial(
            poisson_arrivals, T, rate_per_s=800.0, n_requests=200,
            seed=7, materialize=False,
        )
        a = serve_parallel(
            make, "gpu", shards=4, workers=1, slo_ms=5.0,
            faults="chaos", fault_seed=11,
        )
        b = serve_parallel(
            make, "gpu", shards=4, workers=2, slo_ms=5.0,
            faults="chaos", fault_seed=11,
        )
        assert a.n_requests == b.n_requests == 200
        assert a.fault_stats == b.fault_stats
        assert (a.p50_ms, a.p99_ms, a.slo_attainment) == (
            b.p50_ms, b.p99_ms, b.slo_attainment,
        )
        assert a.faults == "chaos"

    def test_parallel_rejects_policy_instances(self):
        make = partial(
            poisson_arrivals, T, rate_per_s=500.0, n_requests=20,
            seed=1, materialize=False,
        )
        with pytest.raises(ServingError, match="registry key"):
            serve_parallel(
                make, "gpu", shards=2, workers=1, faults=CrashFaults()
            )
