"""Degenerate streams and registry collisions.

Covers the satellite checklist: empty/single-request percentile edge
cases in ``StreamSummary`` (including ``per_tenant()``/``per_priority()``
slices that leave one response per class) and duplicate-name
registration errors across the platform/scheduler/batcher registries.
"""

import pytest

from repro.errors import ServingError
from repro.serving import (
    Batcher,
    Platform,
    Scheduler,
    ServeRequest,
    ServingEngine,
    StreamSummary,
    register_batcher,
    register_platform,
    register_scheduler,
)
from repro.serving.stats import percentile
from repro.workloads.deepbench import task

T = task("lstm", 512, 25)


def _single_response(tenant="default", priority=0, arrival=0.0):
    engine = ServingEngine("gpu")
    req = ServeRequest(
        task=T, arrival_s=arrival, request_id=0, tenant=tenant, priority=priority
    )
    return engine.serve(req)


class TestEmptyStreams:
    def test_empty_report_rejected(self):
        with pytest.raises(ServingError, match="no responses"):
            StreamSummary("gpu").merge(StreamSummary("gpu")).finalize()

    def test_empty_arrivals_rejected(self):
        with pytest.raises(ServingError, match="at least one request"):
            ServingEngine("gpu").serve_stream([])

    def test_percentile_of_empty_rejected(self):
        with pytest.raises(ServingError, match="empty"):
            percentile([], 50)


class TestSingleRequestStreams:
    def test_percentiles_collapse_to_the_sample(self):
        report = ServingEngine("gpu").serve_stream([ServeRequest(task=T)],
                                                   slo_ms=5.0)
        assert report.n_requests == 1
        assert report.p50_ms == report.p99_ms == report.mean_ms
        assert report.p50_ms == report.responses[0].sojourn_ms

    def test_single_request_rate_is_zero_not_nan(self):
        report = ServingEngine("gpu").serve_stream([ServeRequest(task=T)])
        assert report.offered_rate_per_s == 0.0
        assert not report.saturated

    def test_simultaneous_arrivals_are_infinite_rate(self):
        reqs = [ServeRequest(task=T, request_id=i) for i in range(3)]
        report = ServingEngine("gpu").serve_stream(reqs)
        assert report.offered_rate_per_s == float("inf")
        assert report.saturated

    def test_per_tenant_single_request_classes(self):
        reqs = [
            ServeRequest(task=T, arrival_s=0.0, request_id=0, tenant="a"),
            ServeRequest(task=T, arrival_s=0.1, request_id=1, tenant="b",
                         priority=1),
        ]
        report = ServingEngine("gpu").serve_stream(reqs, slo_ms=5.0)
        tenants = report.per_tenant()
        assert set(tenants) == {"a", "b"}
        for name, sub in tenants.items():
            assert sub.n_requests == 1
            assert sub.p50_ms == sub.p99_ms == sub.mean_ms
            assert sub.slo_ms == report.slo_ms
            assert sub.scheduler == report.scheduler
            assert sub.batcher == report.batcher
        priorities = report.per_priority()
        assert set(priorities) == {0, 1}
        assert all(sub.n_requests == 1 for sub in priorities.values())

    def test_subset_reports_do_not_inherit_scale_events(self):
        reqs = [
            ServeRequest(task=T, request_id=0, tenant="a"),
            ServeRequest(task=T, arrival_s=0.1, request_id=1, tenant="b"),
        ]
        report = ServingEngine("gpu").serve_stream(reqs)
        for sub in report.per_tenant().values():
            assert sub.scale_events == ()


class TestDuplicateRegistration:
    def test_platform_name_collision_rejected(self):
        with pytest.raises(ServingError, match="already registered"):
            @register_platform("plasticine")
            class ImpostorPlatform(Platform):
                def prepare(self, task):  # pragma: no cover
                    raise NotImplementedError

                def serve(self, prepared):  # pragma: no cover
                    raise NotImplementedError

    def test_scheduler_name_collision_rejected(self):
        with pytest.raises(ServingError, match="already registered"):
            @register_scheduler("edf")
            class ImpostorScheduler(Scheduler):
                def push(self, entry):  # pragma: no cover
                    pass

                def pop(self):  # pragma: no cover
                    raise NotImplementedError

                def __len__(self):  # pragma: no cover
                    return 0

    def test_batcher_name_collision_rejected(self):
        with pytest.raises(ServingError, match="already registered"):
            @register_batcher("adaptive")
            class ImpostorBatcher(Batcher):
                pass

    def test_re_registering_same_class_is_idempotent(self):
        from repro.serving.batching import NoneBatcher

        assert register_batcher("none")(NoneBatcher) is NoneBatcher
