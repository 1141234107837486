"""Fleet scheduling: round-robin vs least-loaded across engine replicas."""

import pytest

from repro.errors import ServingError
from repro.serving import (
    Fleet,
    ServingEngine,
    get_fault_policy,
    mix,
    poisson_arrivals,
    uniform_arrivals,
)
from repro.workloads.deepbench import task

T = task("lstm", 512, 25)


class TestConstruction:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ServingError, match="unknown scheduling policy"):
            Fleet("gpu", replicas=2, policy="random")

    def test_zero_replicas_rejected(self):
        with pytest.raises(ServingError, match="at least one replica"):
            Fleet("gpu", replicas=0)

    def test_unknown_platform_propagates(self):
        with pytest.raises(ServingError, match="unknown platform"):
            Fleet("tpu", replicas=2)

    def test_platform_instance_with_options_rejected(self):
        from repro.serving import get_platform

        with pytest.raises(ServingError, match="by name"):
            Fleet(get_platform("gpu"), replicas=2, bits=16)


class TestSingleReplica:
    """A one-replica fleet consults no dispatcher: whatever its policy,
    it runs the engine's loop and reproduces the engine's stream."""

    @pytest.mark.parametrize("mode", ["full", "summary"])
    @pytest.mark.parametrize("policy", ["round-robin", "least-loaded", "affinity"])
    @pytest.mark.parametrize("scheduler,batcher,faults", [
        ("fifo", "none", "none"),
        ("edf", "size-cap", "none"),
        ("fifo", "none", "crash"),
    ])
    def test_matches_engine_stream(self, scheduler, batcher, faults, policy, mode):
        arrivals = mix(
            poisson_arrivals(T, rate_per_s=700.0, n_requests=240, seed=3,
                             tenant="tight", slo_ms=2.0),
            poisson_arrivals(T, rate_per_s=500.0, n_requests=160, seed=4,
                             tenant="loose", slo_ms=20.0),
        )
        kwargs = dict(slo_ms=5.0, scheduler=scheduler, batcher=batcher,
                      mode=mode)
        if faults == "crash":
            kwargs["faults"] = lambda: get_fault_policy(
                "crash", mtbf_s=0.05, mttr_s=0.01
            )
        engine_report = ServingEngine("gpu").serve_stream(arrivals, **kwargs)
        fleet_report = Fleet("gpu", replicas=1, policy=policy).serve_stream(
            arrivals, **kwargs
        )
        assert fleet_report.responses == engine_report.responses
        assert fleet_report.fault_stats == engine_report.fault_stats
        assert fleet_report.per_replica_counts == (400,)
        for figure in ("p50_ms", "p99_ms", "mean_ms", "mean_queue_delay_ms",
                       "slo_miss_rate", "mean_batch_size"):
            assert getattr(fleet_report, figure) == getattr(engine_report, figure)
        if faults == "crash":
            assert engine_report.fault_stats.crashes > 0
        if mode == "full":
            assert len(fleet_report.responses) == 400


class TestRoundRobin:
    def test_assignment_is_balanced(self):
        fleet = Fleet("brainwave", replicas=3, policy="round-robin")
        report = fleet.serve_stream(
            uniform_arrivals(T, rate_per_s=1000.0, n_requests=90)
        )
        assert report.policy == "round-robin"
        assert report.per_replica_counts == (30, 30, 30)

    def test_assignment_order(self):
        fleet = Fleet("cpu", replicas=2, policy="round-robin")
        report = fleet.serve_stream(
            uniform_arrivals(T, rate_per_s=100.0, n_requests=4)
        )
        assert report.assignments == (0, 1, 0, 1)


class TestLeastLoaded:
    def test_not_worse_than_round_robin(self):
        # On a bursty Poisson stream past one replica's capacity,
        # join-the-shortest-queue dominates load-oblivious round-robin.
        arrivals = poisson_arrivals(T, rate_per_s=2500.0, n_requests=400, seed=11)
        rr = Fleet("gpu", replicas=2, policy="round-robin").serve_stream(arrivals)
        ll = Fleet("gpu", replicas=2, policy="least-loaded").serve_stream(arrivals)
        assert ll.p99_ms <= rr.p99_ms
        assert ll.mean_ms <= rr.mean_ms

    def test_more_replicas_shrink_the_tail(self):
        arrivals = poisson_arrivals(T, rate_per_s=2500.0, n_requests=400, seed=5)
        p99s = [
            Fleet("gpu", replicas=n, policy="least-loaded")
            .serve_stream(arrivals)
            .p99_ms
            for n in (1, 2, 4)
        ]
        assert p99s[0] >= p99s[1] >= p99s[2]
        assert p99s[0] > p99s[2]  # the scale-out genuinely helps

    def test_idle_fleet_serves_at_service_time(self):
        # At a trickle rate every request finds an idle replica: sojourn
        # equals the platform service time, no queueing anywhere.
        fleet = Fleet("gpu", replicas=2, policy="least-loaded")
        report = fleet.serve_stream(
            uniform_arrivals(T, rate_per_s=10.0, n_requests=20)
        )
        service = report.responses[0].service_s
        for resp in report.responses:
            assert resp.queue_delay_s == 0.0
            assert resp.sojourn_s == pytest.approx(service)


class TestPerReplicaSchedulers:
    def test_fleet_accepts_scheduler_name(self):
        arrivals = poisson_arrivals(T, rate_per_s=2500.0, n_requests=100, seed=2)
        report = Fleet("gpu", replicas=2).serve_stream(arrivals, scheduler="edf")
        assert report.scheduler == "edf"
        assert report.n_requests == 100

    def test_fleet_rejects_shared_scheduler_instance(self):
        from repro.serving import FIFOScheduler

        with pytest.raises(ServingError, match="per replica"):
            Fleet("gpu", replicas=2).serve_stream(
                uniform_arrivals(T, rate_per_s=100.0, n_requests=4),
                scheduler=FIFOScheduler(),
            )

    def test_fleet_accepts_scheduler_factory(self):
        from repro.serving import SJFScheduler

        report = Fleet("gpu", replicas=2).serve_stream(
            uniform_arrivals(T, rate_per_s=100.0, n_requests=4),
            scheduler=SJFScheduler,
        )
        assert report.scheduler == "sjf"


class TestSharedCompileCache:
    def test_fleet_compiles_each_task_once(self):
        fleet = Fleet("plasticine", replicas=3, policy="round-robin")
        fleet.serve_stream(uniform_arrivals(T, rate_per_s=1000.0, n_requests=9))
        total_misses = sum(e.cache_stats.misses for e in fleet.engines)
        total_hits = sum(e.cache_stats.hits for e in fleet.engines)
        assert total_misses == 1  # compiled once for the whole fleet
        assert total_hits == 8
        # All replicas serve the same compiled design object.
        prepared = {id(e.prepare(T)) for e in fleet.engines}
        assert len(prepared) == 1

    def test_idle_replicas_still_count_toward_capacity(self):
        fleet = Fleet("gpu", replicas=4, policy="least-loaded")
        # Two spaced requests only ever touch replica 0, but the report
        # must still describe a 4-replica fleet.
        report = fleet.serve_stream(
            uniform_arrivals(T, rate_per_s=10.0, n_requests=2)
        )
        assert report.n_replicas == 4
        assert len(report.per_replica_counts) == 4
        assert sum(report.per_replica_counts) == 2
        single = ServingEngine("gpu").serve_stream(
            uniform_arrivals(T, rate_per_s=10.0, n_requests=2)
        )
        assert report.max_rate_per_s == pytest.approx(4 * single.max_rate_per_s)

    def test_fleet_max_rate_scales_with_replicas(self):
        single = ServingEngine("gpu").serve_stream(
            uniform_arrivals(T, rate_per_s=100.0, n_requests=20)
        )
        double = Fleet("gpu", replicas=2).serve_stream(
            uniform_arrivals(T, rate_per_s=100.0, n_requests=20)
        )
        assert double.max_rate_per_s == pytest.approx(2 * single.max_rate_per_s)
        # A rate one replica cannot sustain but two can is not saturated.
        rate = single.max_rate_per_s * 1.5
        hot = Fleet("gpu", replicas=2).serve_stream(
            uniform_arrivals(T, rate_per_s=rate, n_requests=50)
        )
        assert not hot.saturated

    def test_utilization_sums_sensibly(self):
        fleet = Fleet("brainwave", replicas=2, policy="least-loaded")
        report = fleet.serve_stream(
            uniform_arrivals(T, rate_per_s=5000.0, n_requests=100)
        )
        utils = report.replica_utilization()
        assert len(utils) == 2
        assert all(0.0 <= u <= 1.0 for u in utils)
