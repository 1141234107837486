"""The stream report: one type for both ``serve_stream`` modes.

:class:`StreamSummary` is what ``serve_stream`` returns.  It folds every
completed request into a fixed-size set of online accumulators and
reads percentiles, SLO attainment, padding waste, energy/TCO and the
per-tenant / per-priority / per-outcome / per-length-band slices from
them, so ``serve_stream(..., mode="summary")`` can consume a
10M-request stream without ever holding it.  ``mode="full"`` builds the
same type from the run's materialized responses: it also keeps them
(``responses``, ``assignments``, ``replica_utilization()``) and reads
every quantile and ``mean_ms`` from their sorted sojourns, so those are
exact.

Design:

* **One accumulator per request class.**  Requests are grouped by
  ``(task, tenant, priority, slo_ms, outcome)``; each class keeps exact integer
  counters (count, SLO misses, batch sizes, executed/useful FLOPs),
  exact running float sums (sojourn, queueing delay, service time), and
  exact min/max.  Every report-level figure that is a sum or a count —
  ``n_requests``, ``slo_attainment``, ``mean_batch_size``,
  ``padding_waste_frac`` — therefore matches a recount over the
  responses *exactly*; float means agree to reordering (summation
  order differs).
  The root summary and every slice are rollups over class accumulators,
  so one update per request feeds all breakdowns at once.
* **Fixed-bucket log histogram for quantiles** (the mergeable
  alternative to the P² estimator, whose markers cannot be combined
  across slices).  Sojourns land in geometric buckets of ratio
  ``10^(1/128)`` (~1.8% wide), so a quantile read is within ~1% of the
  exact order statistic; each class additionally keeps its first
  :data:`EXACT_SAMPLE_CAP` sojourns verbatim, so small streams — and
  small slices of huge streams — report *exact* numpy-style
  interpolated percentiles.

Example::

    >>> from repro.serving import ServingEngine, uniform_arrivals
    >>> from repro.workloads.deepbench import task
    >>> summary = ServingEngine("gpu").serve_stream(
    ...     uniform_arrivals(task("lstm", 512, 25),
    ...                      rate_per_s=100, n_requests=50),
    ...     slo_ms=5.0, mode="summary")
    >>> (summary.n_requests, summary.scheduler, summary.batcher)
    (50, 'fifo', 'none')
    >>> summary.p50_ms <= summary.p99_ms
    True
"""

from __future__ import annotations

import math
from collections import Counter
from functools import cached_property
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.errors import ServingError
from repro.platforms import ELECTRICITY_USD_PER_KWH, device_usd_per_hour, tdp_of
from repro.serving.request import ServeRequest, ServeResponse
from repro.serving.result import FaultStats, ServingResult
from repro.serving.traffic import length_band

if TYPE_CHECKING:  # pragma: no cover
    from repro.serving.autoscaler import ScaleEvent
    from repro.workloads.deepbench import RNNTask

__all__ = ["StreamSummary", "percentile", "EXACT_SAMPLE_CAP"]

#: Per-class exact reservoir: a class (and any slice made only of such
#: classes) with at most this many requests reports exact percentiles.
EXACT_SAMPLE_CAP = 64

#: Histogram geometry: log10-spaced buckets covering sojourns from
#: 1e-4 ms to 1e7 ms at 128 buckets per decade (~1.8% bucket ratio).
_HIST_LO_EXP = -4.0
_HIST_PER_DECADE = 128
_HIST_BUCKETS = 11 * _HIST_PER_DECADE
_HIST_RATIO = 10.0 ** (1.0 / _HIST_PER_DECADE)


def _bucket_index(value_ms: float) -> int:
    """Histogram bucket for a positive sojourn (clamped at both ends)."""
    idx = int((math.log10(value_ms) - _HIST_LO_EXP) * _HIST_PER_DECADE)
    if idx < 0:
        return 0
    if idx >= _HIST_BUCKETS:
        return _HIST_BUCKETS - 1
    return idx


def percentile(sorted_values: "list[float] | tuple[float, ...]", q: float) -> float:
    """Linear-interpolation percentile (numpy's default) on sorted data.

    Example::

        >>> from repro.serving.stats import percentile
        >>> percentile([1.0, 2.0, 3.0, 4.0], 50)
        2.5
    """
    if not sorted_values:
        raise ServingError("percentile of an empty stream")
    if len(sorted_values) == 1:
        return sorted_values[0]
    rank = (q / 100.0) * (len(sorted_values) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    frac = rank - lo
    return sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac


def _class_key(request: ServeRequest, outcome: str) -> tuple:
    """The class a completed request is accumulated under."""
    return (request.task, request.tenant, request.priority, request.slo_ms,
            outcome)


class _ClassAcc:
    """Online accumulator for one request class.

    A class is the finest slice the summary can report:
    ``(task, tenant, priority, request-level slo, outcome)``.
    Everything the summary (or any of its tenant/priority/length-band/
    outcome rollups) exposes is derived by merging these.  ``outcome``
    is ``"ok"`` everywhere outside fault-injected runs, so fault-free
    grouping is unchanged.
    """

    __slots__ = (
        "tenant",
        "priority",
        "outcome",
        "slo_key",
        "eff_slo_ms",
        "timesteps",
        "useful_flops",
        "n",
        "sojourn_sum_ms",
        "queue_sum_s",
        "service_sum_s",
        "batch_sum",
        "batch_max",
        "miss",
        "exec_flops",
        "max_arrival_s",
        "max_finish_s",
        "min_sojourn_ms",
        "max_sojourn_ms",
        "samples",
        "counts",
        "plat",
    )

    def __init__(
        self,
        tenant: str,
        priority: int,
        slo_key: float | None,
        eff_slo_ms: float | None,
        timesteps: int,
        useful_flops: int,
        outcome: str = "ok",
    ) -> None:
        self.tenant = tenant
        self.priority = priority
        self.outcome = outcome
        #: The request-level ``slo_ms`` tag (before the stream fallback).
        self.slo_key = slo_key
        #: The SLO requests of this class are judged against (request
        #: tag, falling back to the stream SLO), ``None`` when neither
        #: is configured.
        self.eff_slo_ms = eff_slo_ms
        self.timesteps = timesteps
        self.useful_flops = useful_flops
        self.n = 0
        self.sojourn_sum_ms = 0.0
        self.queue_sum_s = 0.0
        self.service_sum_s = 0.0
        self.batch_sum = 0
        self.batch_max = 0
        self.miss = 0
        self.exec_flops = 0
        self.max_arrival_s = 0.0
        self.max_finish_s = 0.0
        self.min_sojourn_ms = math.inf
        self.max_sojourn_ms = 0.0
        #: Exact sojourns until the class outgrows the reservoir, then
        #: ``None`` (spilled into ``counts``).
        self.samples: list[float] | None = []
        self.counts: list[int] | None = None
        #: Executing platform -> [service_sum_s, count]: which hardware
        #: actually served this class's requests (energy attribution and
        #: per-platform capacity on mixed fleets; one entry when the
        #: fleet is homogeneous).
        self.plat: dict[str, list] = {}

    def add_sojourn(self, sojourn_ms: float) -> None:
        samples = self.samples
        if samples is not None:
            samples.append(sojourn_ms)
            if len(samples) > EXACT_SAMPLE_CAP:
                self._promote()
        else:
            self.counts[_bucket_index(sojourn_ms)] += 1  # type: ignore[index]

    def _promote(self) -> None:
        """Spill the exact reservoir into histogram buckets."""
        counts = [0] * _HIST_BUCKETS
        for value in self.samples:  # type: ignore[union-attr]
            counts[_bucket_index(value)] += 1
        self.counts = counts
        self.samples = None

    def clone(self) -> "_ClassAcc":
        """A deep-enough copy: merging into the clone never mutates the
        original (the reservoir/histogram lists are copied)."""
        new = _ClassAcc(
            tenant=self.tenant,
            priority=self.priority,
            slo_key=self.slo_key,
            eff_slo_ms=self.eff_slo_ms,
            timesteps=self.timesteps,
            useful_flops=self.useful_flops,
            outcome=self.outcome,
        )
        for name in (
            "n", "sojourn_sum_ms", "queue_sum_s", "service_sum_s",
            "batch_sum", "batch_max", "miss", "exec_flops",
            "max_arrival_s", "max_finish_s", "min_sojourn_ms",
            "max_sojourn_ms",
        ):
            setattr(new, name, getattr(self, name))
        new.samples = None if self.samples is None else list(self.samples)
        new.counts = None if self.counts is None else list(self.counts)
        new.plat = {name: list(entry) for name, entry in self.plat.items()}
        return new

    def absorb(self, other: "_ClassAcc") -> None:
        """Fold another accumulator of the *same class* into this one.

        Counters and sums add; extrema combine; the reservoir stays
        exact while the combined count fits :data:`EXACT_SAMPLE_CAP` and
        promotes to histogram buckets beyond it — the same threshold a
        single-stream accumulator applies, so a merged summary is in the
        identical samples-vs-counts state as the run it reassembles
        (which is what makes merged quantiles match the single-process
        run exactly, not just within tolerance).
        """
        self.n += other.n
        self.sojourn_sum_ms += other.sojourn_sum_ms
        plat = self.plat
        for name, entry in other.plat.items():
            mine = plat.get(name)
            if mine is None:
                plat[name] = list(entry)
            else:
                mine[0] += entry[0]
                mine[1] += entry[1]
        self.queue_sum_s += other.queue_sum_s
        self.service_sum_s += other.service_sum_s
        self.batch_sum += other.batch_sum
        self.miss += other.miss
        self.exec_flops += other.exec_flops
        if other.batch_max > self.batch_max:
            self.batch_max = other.batch_max
        if other.max_arrival_s > self.max_arrival_s:
            self.max_arrival_s = other.max_arrival_s
        if other.max_finish_s > self.max_finish_s:
            self.max_finish_s = other.max_finish_s
        if other.min_sojourn_ms < self.min_sojourn_ms:
            self.min_sojourn_ms = other.min_sojourn_ms
        if other.max_sojourn_ms > self.max_sojourn_ms:
            self.max_sojourn_ms = other.max_sojourn_ms
        if self.samples is not None and other.samples is not None:
            self.samples.extend(other.samples)
            if len(self.samples) > EXACT_SAMPLE_CAP:
                self._promote()
            return
        # At least one side already spilled: the result is a histogram.
        if self.samples is not None:
            self._promote()
        counts = self.counts
        if other.counts is not None:
            other_counts = other.counts
            for idx in range(_HIST_BUCKETS):
                c = other_counts[idx]
                if c:
                    counts[idx] += c  # type: ignore[index]
        else:
            for value in other.samples:  # type: ignore[union-attr]
                counts[_bucket_index(value)] += 1  # type: ignore[index]


class StreamSummary:
    """Aggregate outcome of a request stream against an SLO.

    Every ``serve_stream`` returns one.  The event loop (or, in
    ``mode="full"``, the run's arrival-ordered responses) feeds each
    completed request through :meth:`observe_served`, so the figures
    are rollups over per-*class* accumulators (task x tenant x priority
    x SLO tag x outcome).  Counts and sums (``n_requests``,
    ``slo_attainment``, ``mean_batch_size``, ``padding_waste_frac``,
    per-slice request counts) are exact in both modes.  In summary mode
    memory is independent of the stream length and ``p50_ms`` /
    ``p99_ms`` are histogram estimates within ~1% (exact while a slice
    holds at most :data:`EXACT_SAMPLE_CAP` requests).  In full mode the
    report also keeps ``responses`` (in arrival order, whatever order
    the scheduler served them in) and the replica ``assignments``, and
    every quantile and ``mean_ms`` is read from their exact sorted
    sojourns.

    ``per_tenant()`` / ``per_priority()`` / ``per_outcome()`` /
    ``per_length_band()`` return sub-reports over the same
    accumulators; a full-mode slice keeps its own responses.
    ``batcher`` records the batching policy that ran the stream
    (``"none"`` = the paper's batch-1 serving) and ``scale_events`` any
    autoscaler actions applied during it.

    Example::

        >>> from repro.serving import ServingEngine, poisson_arrivals
        >>> from repro.workloads.deepbench import task
        >>> report = ServingEngine("gpu").serve_stream(
        ...     poisson_arrivals(task("lstm", 512, 25), rate_per_s=500,
        ...                      n_requests=200, seed=1, tenant="tts"),
        ...     slo_ms=5.0)
        >>> (report.n_requests, report.scheduler, report.batcher)
        (200, 'fifo', 'none')
        >>> report.p50_ms <= report.p99_ms
        True
        >>> len(report.responses), report.tenants
        (200, ('tts',))
        >>> report.per_tenant()["tts"].n_requests
        200
    """

    def __init__(
        self,
        platform: str,
        *,
        slo_ms: float | None = None,
        scheduler: str = "fifo",
        batcher: str = "none",
        band_base: float = 2.0,
        faults: str = "none",
        _classes: "dict[tuple, _ClassAcc] | None" = None,
    ) -> None:
        if band_base <= 1.0:
            raise ServingError("band_base must be > 1")
        self.platform = platform
        self.slo_ms = slo_ms
        self.scheduler = scheduler
        self.batcher = batcher
        self.band_base = band_base
        self.faults = faults
        self.fault_stats = FaultStats()
        self.scale_events: "tuple[ScaleEvent, ...]" = ()
        self.policy: str | None = None
        self.replicas = 1
        self.active_replicas = 1
        #: Explicit per-replica platform roster for mixed fleets; empty
        #: means homogeneous (every replica is ``platform``).
        self.platforms: "tuple[str, ...]" = ()
        self._classes: dict[tuple, _ClassAcc] = (
            {} if _classes is None else _classes
        )
        self._replica_counts: list[int] = []
        #: Full mode only: every response in arrival order (``None`` in
        #: summary mode) and the replica each one was dispatched to
        #: (empty in summary mode and on a slice).
        self.responses: "tuple[ServeResponse, ...] | None" = None
        self.assignments: "tuple[int, ...]" = ()
        #: Cache of executed-task FLOPs (task -> flops); the ``flops``
        #: property walks the task shape, far too slow per request.
        self._flops: dict["RNNTask", int] = {}
        # Identity fast path: streams overwhelmingly repeat the same
        # (task, tenant, priority, slo) class back to back.
        self._last_task: "RNNTask | None" = None
        self._last_req_key: tuple | None = None
        self._last_acc: _ClassAcc | None = None

    # -- ingestion --------------------------------------------------------

    def _flops_of(self, task: "RNNTask") -> int:
        flops = self._flops.get(task)
        if flops is None:
            flops = task.flops
            self._flops[task] = flops
        return flops

    def _class_for(self, request: ServeRequest, outcome: str) -> _ClassAcc:
        task = request.task
        key = _class_key(request, outcome)
        acc = self._classes.get(key)
        if acc is None:
            slo = request.slo_ms
            eff = slo if slo is not None else self.slo_ms
            acc = _ClassAcc(
                tenant=request.tenant,
                priority=request.priority,
                slo_key=slo,
                eff_slo_ms=eff,
                timesteps=task.timesteps,
                useful_flops=self._flops_of(task),
                outcome=outcome,
            )
            self._classes[key] = acc
        self._last_task = task
        self._last_req_key = (
            request.tenant, request.priority, request.slo_ms, outcome
        )
        self._last_acc = acc
        return acc

    def observe_served(
        self,
        request: ServeRequest,
        result: ServingResult,
        start_s: float,
        finish_s: float,
        batch_size: int,
        outcome: str = "ok",
    ) -> None:
        """Fold one completed request into the summary.

        Called by the event loop (in any completion order) with the same
        fields a :class:`~repro.serving.request.ServeResponse` would
        carry; ``result`` is the executed (possibly padded, possibly
        batched) platform result, ``outcome`` how the request left the
        system (always ``"ok"`` outside fault-injected runs).
        """
        task = request.task
        acc = self._last_acc
        if (
            acc is None
            or task is not self._last_task
            or (request.tenant, request.priority, request.slo_ms, outcome)
            != self._last_req_key
        ):
            acc = self._class_for(request, outcome)
        arrival = request.arrival_s
        sojourn_ms = (finish_s - arrival) * 1e3
        acc.n += 1
        acc.sojourn_sum_ms += sojourn_ms
        acc.queue_sum_s += start_s - arrival
        service_s = result.latency_s / batch_size
        acc.service_sum_s += service_s
        entry = acc.plat.get(result.platform)
        if entry is None:
            acc.plat[result.platform] = [service_s, 1]
        else:
            entry[0] += service_s
            entry[1] += 1
        acc.batch_sum += batch_size
        if batch_size > acc.batch_max:
            acc.batch_max = batch_size
        exec_task = result.task
        acc.exec_flops += (
            acc.useful_flops if exec_task is task else self._flops_of(exec_task)
        )
        eff = acc.eff_slo_ms
        if eff is not None and sojourn_ms > eff:
            acc.miss += 1
        if arrival > acc.max_arrival_s:
            acc.max_arrival_s = arrival
        if finish_s > acc.max_finish_s:
            acc.max_finish_s = finish_s
        if sojourn_ms < acc.min_sojourn_ms:
            acc.min_sojourn_ms = sojourn_ms
        if sojourn_ms > acc.max_sojourn_ms:
            acc.max_sojourn_ms = sojourn_ms
        acc.add_sojourn(sojourn_ms)

    def observe_response(self, response) -> None:
        """Fold a materialized :class:`ServeResponse` into the summary.

        Example::

            >>> from repro.serving import ServingEngine
            >>> from repro.serving.stats import StreamSummary
            >>> from repro.workloads.deepbench import task
            >>> resp = ServingEngine("gpu").serve(task("lstm", 512, 25))
            >>> summary = StreamSummary("gpu", slo_ms=5.0)
            >>> summary.observe_response(resp)
            >>> summary.n_requests
            1
        """
        self.observe_served(
            response.request,
            response.result,
            response.start_s,
            response.finish_s,
            response.batch_size,
            outcome=response.outcome,
        )

    def keep_responses(
        self,
        responses: "Iterable[ServeResponse]",
        assignments: "Iterable[int]",
    ) -> None:
        """Fold a full-mode run's responses in arrival order and keep them.

        Every quantile (and ``mean_ms``) is then read from the kept
        responses' exact sorted sojourns.  ``assignments`` gives the
        replica of each response.

        Example::

            >>> from repro.serving import ServingEngine
            >>> from repro.serving.stats import StreamSummary
            >>> from repro.workloads.deepbench import task
            >>> resp = ServingEngine("gpu").serve(task("lstm", 512, 25))
            >>> report = StreamSummary("gpu", slo_ms=5.0)
            >>> report.keep_responses([resp], [0])
            >>> report.responses == (resp,), report.per_replica_counts
            (True, (1,))
        """
        self.responses = tuple(responses)
        self.assignments = tuple(assignments)
        observe = self.observe_served
        for r in self.responses:
            observe(r.request, r.result, r.start_s, r.finish_s, r.batch_size,
                    r.outcome)
        for replica, count in Counter(self.assignments).items():
            self.note_assignment(replica, count)

    def note_assignment(self, replica: int, count: int = 1) -> None:
        """Count ``count`` requests dispatched to ``replica``.

        The general event loop calls this per arrival; the FIFO fast
        path calls it once at the end with the stream total.
        """
        counts = self._replica_counts
        if replica >= len(counts):
            counts.extend([0] * (replica + 1 - len(counts)))
        counts[replica] += count

    def finalize(
        self,
        *,
        scale_events: "tuple[ScaleEvent, ...]" = (),
        replicas: int = 1,
        active_replicas: int = 1,
        policy: str | None = None,
        fault_stats: "FaultStats | None" = None,
        platforms: "tuple[str, ...]" = (),
    ) -> "StreamSummary":
        """Attach end-of-stream metadata; raises on an empty stream."""
        if not self._classes:
            raise ServingError("stream produced no responses")
        self.scale_events = scale_events
        self.replicas = replicas
        self.active_replicas = active_replicas
        self.policy = policy
        if fault_stats is not None:
            self.fault_stats = fault_stats
        self.platforms = tuple(platforms)
        return self

    # -- merging ----------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        """True when no request has been folded in yet.

        An empty summary is the merge identity: it contributes no
        classes, no replicas, and no assignments.
        """
        return not self._classes

    def _check_mergeable(self, other: "StreamSummary") -> None:
        for attr in (
            "platform", "slo_ms", "scheduler", "batcher", "band_base", "faults",
        ):
            mine, theirs = getattr(self, attr), getattr(other, attr)
            if mine != theirs:
                raise ServingError(
                    f"cannot merge summaries with different {attr}: "
                    f"{mine!r} vs {theirs!r}"
                )

    def merge(self, *others: "StreamSummary") -> "StreamSummary":
        """Combine summaries of disjoint sub-streams into one report.

        This is what makes :class:`StreamSummary` the unit of *sharded*
        simulation (:mod:`repro.serving.parallel`): run one event loop
        per shard, summarize each shard online, then reassemble.  The
        operation is associative and never mutates its inputs, so shard
        results can be merged in any grouping (a seeded fuzz test pins
        this over random splits).  All inputs must share the stream
        configuration (platform, scheduler, batcher, SLO, band base).

        Counters and sums (``n_requests``, SLO misses, batch sizes,
        padding FLOPs) add exactly.  Per-class reservoirs concatenate
        while the combined class stays within
        :data:`EXACT_SAMPLE_CAP` and spill into the (bucket-wise
        additive) log histogram beyond it — the same promotion rule a
        single-stream accumulator applies, so the merged quantile state
        equals the single-process run's.  Replica accounting
        concatenates: shard *i*'s replicas follow shard *i-1*'s in
        ``per_replica_counts``, and ``replicas``/``active_replicas``
        sum.  Empty summaries (no observed requests) are merge
        identities.  The merged report is a summary-mode report: it
        keeps no responses.

        Example::

            >>> from repro.serving import ServingEngine, uniform_arrivals
            >>> from repro.workloads.deepbench import task
            >>> t = task("lstm", 512, 25)
            >>> def run(n, start):
            ...     return ServingEngine("gpu").serve_stream(
            ...         uniform_arrivals(t, rate_per_s=100, n_requests=n,
            ...                          start_s=start),
            ...         slo_ms=5.0, mode="summary")
            >>> merged = run(30, 0.0).merge(run(20, 1.7))
            >>> (merged.n_requests, merged.n_replicas)
            (50, 2)
        """
        merged = StreamSummary(
            self.platform,
            slo_ms=self.slo_ms,
            scheduler=self.scheduler,
            batcher=self.batcher,
            band_base=self.band_base,
            faults=self.faults,
        )
        parts = (self, *others)
        events: list = []
        policies = set()
        replicas = active = 0
        counts: list[int] = []
        roster: list[str] = []
        explicit_roster = False
        fault_stats = FaultStats()
        for part in parts:
            self._check_mergeable(part)
            for key, acc in part._classes.items():
                mine = merged._classes.get(key)
                if mine is None:
                    merged._classes[key] = acc.clone()
                else:
                    mine.absorb(acc)
            events.extend(part.scale_events)
            policies.add(part.policy)
            fault_stats = fault_stats.merge(part.fault_stats)
            if not part.is_empty:
                replicas += part.replicas
                active += part.active_replicas
                counts.extend(part.per_replica_counts)
                # Rosters concatenate in shard order, exactly like
                # per_replica_counts; shards without an explicit roster
                # contribute their homogeneous expansion.
                if part.platforms:
                    explicit_roster = True
                roster.extend(part.replica_platforms)
        merged.fault_stats = fault_stats
        merged._replica_counts = counts
        if explicit_roster:
            merged.platforms = tuple(roster)
        merged.replicas = max(replicas, 1)
        merged.active_replicas = max(active, 1)
        merged.scale_events = tuple(sorted(events, key=lambda e: e.time_s))
        merged.policy = policies.pop() if len(policies) == 1 else None
        return merged

    # -- folded counters --------------------------------------------------

    def _accs(self) -> "list[_ClassAcc]":
        """The class accumulators every figure reads; an empty report has
        no figures, so this is where it raises."""
        if not self._classes:
            raise ServingError("stream produced no responses")
        return list(self._classes.values())

    @property
    def n_requests(self) -> int:
        return sum(acc.n for acc in self._classes.values())

    @property
    def n_replicas(self) -> int:
        return self.replicas

    @property
    def per_replica_counts(self) -> tuple[int, ...]:
        """Requests dispatched to each replica, in replica order.

        Example::

            >>> from repro.serving import Fleet, uniform_arrivals
            >>> from repro.workloads.deepbench import task
            >>> fleet = Fleet("gpu", replicas=2, policy="round-robin")
            >>> report = fleet.serve_stream(uniform_arrivals(
            ...     task("lstm", 512, 25), rate_per_s=100, n_requests=10))
            >>> (report.n_replicas, report.per_replica_counts)
            (2, (5, 5))
        """
        counts = list(self._replica_counts)
        counts.extend([0] * (self.replicas - len(counts)))
        return tuple(counts)

    @property
    def mean_ms(self) -> float:
        """Mean sojourn; in full mode, summed over the sorted sojourns."""
        accs = self._accs()
        if self.responses is not None:
            values = self._response_sojourns
            return sum(values) / len(values)
        return sum(acc.sojourn_sum_ms for acc in accs) / sum(
            acc.n for acc in accs
        )

    @property
    def mean_queue_delay_ms(self) -> float:
        accs = self._accs()
        return sum(acc.queue_sum_s for acc in accs) * 1e3 / sum(
            acc.n for acc in accs
        )

    @property
    def mean_service_ms(self) -> float:
        """Average per-request accelerator time (batched requests count
        their share of the batch latency)."""
        accs = self._accs()
        return sum(acc.service_sum_s for acc in accs) * 1e3 / sum(
            acc.n for acc in accs
        )

    @property
    def mean_batch_size(self) -> float:
        """Average coalesced batch size across requests (1.0 = unbatched)."""
        accs = self._accs()
        return sum(acc.batch_sum for acc in accs) / sum(acc.n for acc in accs)

    @property
    def max_batch_size(self) -> int:
        """Largest batch any request was served in."""
        return max(acc.batch_max for acc in self._accs())

    @property
    def throughput_rps(self) -> float:
        """Completed requests per second of stream makespan."""
        makespan = self.makespan_s
        if makespan <= 0:
            return math.inf
        return self.n_requests / makespan

    @property
    def padding_waste_frac(self) -> float:
        """Fraction of executed FLOPs wasted on sequence padding.

        A batched execution of mixed-length requests runs every request
        at the longest member's length (the ``pad`` / ``bucket``
        policies); the excess over each request's own work is waste.
        Unbatched (batch-1) serving — the paper's spatial-accelerator
        scenario — never pads, so this is 0.0 for ``batcher="none"``.

        Example::

            >>> from repro.serving import ServingEngine, uniform_arrivals
            >>> from repro.workloads.deepbench import task
            >>> report = ServingEngine("gpu").serve_stream(
            ...     uniform_arrivals(task("lstm", 512, 25),
            ...                      rate_per_s=100, n_requests=10))
            >>> report.padding_waste_frac
            0.0
        """
        accs = self._accs()
        executed = sum(acc.exec_flops for acc in accs)
        useful = sum(acc.n * acc.useful_flops for acc in accs)
        if executed <= 0:
            return 0.0
        return (executed - useful) / executed

    @property
    def offered_rate_per_s(self) -> float:
        """Arrival rate implied by the stream's time span.

        A single request has no rate (0.0); several requests arriving
        at the same instant are an infinite-rate burst.
        """
        span = max(acc.max_arrival_s for acc in self._accs())
        if span > 0:
            return self.n_requests / span
        return 0.0 if self.n_requests == 1 else math.inf

    @property
    def max_rate_per_s(self) -> float:
        """Sustainable rate of the serving capacity the stream used.

        Homogeneous: one over the mean service time, times the (peak)
        replica count.  A mixed fleet sums each replica's *own*
        ``1 / mean_service`` under its platform; multiplying a
        fleet-wide mean by the replica count would let a slow edge tier
        inflate the fast tier's capacity and vice versa.  Platforms that
        served nothing fall back to the fleet-wide mean.  With
        autoscaling this is the *peak* capacity the stream reached.
        """
        roster = self.replica_platforms
        if len(set(roster)) <= 1:
            return self.replicas / (self.mean_service_ms / 1e3)
        service, count = self._per_platform_service()
        fleet_mean = sum(service.values()) / self.n_requests
        rate = 0.0
        for name in roster:
            served = count.get(name, 0)
            mean = service[name] / served if served else fleet_mean
            rate += 1.0 / mean
        return rate

    @property
    def saturated(self) -> bool:
        """True when arrivals outpace what the servers can drain."""
        return self.offered_rate_per_s >= self.max_rate_per_s

    # -- energy / TCO accounting ------------------------------------------

    def _per_platform_service(self) -> "tuple[dict[str, float], dict[str, int]]":
        service: dict[str, float] = {}
        count: dict[str, int] = {}
        for acc in self._accs():
            for name, entry in acc.plat.items():
                service[name] = service.get(name, 0.0) + entry[0]
                count[name] = count.get(name, 0) + entry[1]
        return service, count

    @property
    def makespan_s(self) -> float:
        """Wall-clock span of the stream: the last observed finish."""
        return max(acc.max_finish_s for acc in self._accs())

    @property
    def replica_platforms(self) -> "tuple[str, ...]":
        """Platform key of every provisioned replica, in replica order
        (shard order after a merge)."""
        if self.platforms:
            return self.platforms
        return (self.platform,) * self.replicas

    @property
    def per_platform_counts(self) -> "dict[str, int]":
        """Requests served per *executing* platform; sums to
        ``n_requests``, so mixed fleets attribute work correctly."""
        _service, count = self._per_platform_service()
        return dict(sorted(count.items()))

    @property
    def energy_j(self) -> float:
        """Busy energy: accelerator-seconds × that platform's power draw.

        Each request is charged at the power of the platform that
        *executed* it (Table 4/5 measured peak when reported, TDP
        otherwise) — idle replicas contribute nothing here (see
        :attr:`fleet_watt_hours` for the provisioned bill).
        """
        service, _count = self._per_platform_service()
        return sum(
            seconds * tdp_of(name) for name, seconds in service.items()
        )

    @property
    def joules_per_request(self) -> float:
        """Busy energy per inference — the paper-style J/request figure."""
        return self.energy_j / self.n_requests

    @property
    def fleet_watt_hours(self) -> float:
        """Provisioned energy: every replica powered for the makespan
        (idle or not) — the electricity the TCO model bills."""
        watts = sum(tdp_of(name) for name in self.replica_platforms)
        return watts * self.makespan_s / 3600.0

    @property
    def cost_usd_per_1m_requests(self) -> float:
        """Total cost of ownership normalized to one million requests.

        Electricity for the provisioned fleet over the makespan
        (:attr:`fleet_watt_hours` at :data:`ELECTRICITY_USD_PER_KWH`)
        plus linear capital amortization of every provisioned device
        (:func:`repro.platforms.device_usd_per_hour`), divided by the
        requests actually served and scaled to 1M.  This is the
        objective the capacity planner (:mod:`repro.dse.capacity`)
        minimizes.
        """
        hours = self.makespan_s / 3600.0
        energy_usd = self.fleet_watt_hours / 1e3 * ELECTRICITY_USD_PER_KWH
        capital_usd = hours * sum(
            device_usd_per_hour(name) for name in self.replica_platforms
        )
        return (energy_usd + capital_usd) / self.n_requests * 1e6

    @property
    def slo_miss_rate(self) -> float:
        """Fraction of requests whose sojourn exceeded their SLO.

        Each request is judged against its own ``slo_ms`` when set,
        falling back to the stream-level SLO otherwise.
        """
        accs = self._accs()
        if any(acc.eff_slo_ms is None for acc in accs):
            raise ServingError("no SLO configured for this stream")
        return sum(acc.miss for acc in accs) / sum(acc.n for acc in accs)

    @property
    def slo_attainment(self) -> float:
        """Fraction of requests that met their SLO (1 - miss rate)."""
        return 1.0 - self.slo_miss_rate

    @property
    def slo_attained(self) -> bool:
        return self.slo_ms is not None and self.p99_ms <= self.slo_ms

    def uniform_slo_ms(self) -> float | None:
        """The single request-level SLO every request carried, if any.

        ``None`` when requests carry mixed (or no) per-request SLO tags —
        callers then fall back to the stream-level SLO.
        """
        tags = {acc.slo_key for acc in self._classes.values()}
        if len(tags) == 1:
            return tags.pop()
        return None

    def replica_utilization(self) -> tuple[float, ...]:
        """Busy fraction of each replica over the stream's makespan
        (needs the ``assignments`` only a full-mode report keeps)."""
        if not self.assignments:
            raise ServingError(
                "replica utilization needs a full-mode, unsliced report"
            )
        busy = [0.0] * self.replicas
        for replica, resp in zip(self.assignments, self.responses):
            busy[replica] += resp.service_s
        makespan = self.makespan_s
        return tuple(b / makespan for b in busy)

    # -- quantiles --------------------------------------------------------

    @cached_property
    def _response_sojourns(self) -> "list[float]":
        """A full-mode report's sojourns, sorted once."""
        return sorted(r.sojourn_ms for r in self.responses)

    def _sorted_sojourns(self) -> "list[float] | None":
        """Every sojourn, sorted: a full-mode report's responses, or the
        class reservoirs while none has spilled; ``None`` otherwise."""
        accs = self._accs()
        if self.responses is not None:
            return self._response_sojourns
        if any(acc.samples is None for acc in accs):
            return None
        values: list[float] = []
        for acc in accs:
            values.extend(acc.samples)  # type: ignore[arg-type]
        values.sort()
        return values

    def percentile_ms(self, q: float) -> float:
        """Sojourn percentile: exact while every class is inside its
        reservoir, histogram-estimated (~1%) beyond."""
        values = self._sorted_sojourns()
        if values is not None:
            return percentile(values, q)
        counts = [0] * _HIST_BUCKETS
        for acc in self._accs():
            if acc.counts is not None:
                bucket_counts = acc.counts
                for idx in range(_HIST_BUCKETS):
                    c = bucket_counts[idx]
                    if c:
                        counts[idx] += c
            else:
                for value in acc.samples:  # type: ignore[union-attr]
                    counts[_bucket_index(value)] += 1
        total = sum(counts)
        rank = (q / 100.0) * (total - 1)
        cum = 0
        estimate = self.max_sojourn_ms
        for idx, c in enumerate(counts):
            if not c:
                continue
            if cum + c > rank:
                frac = (rank - cum + 0.5) / c
                lo_edge = 10.0 ** (_HIST_LO_EXP + idx / _HIST_PER_DECADE)
                estimate = lo_edge * _HIST_RATIO**frac
                break
            cum += c
        lo, hi = self.min_sojourn_ms, self.max_sojourn_ms
        return min(max(estimate, lo), hi)

    @property
    def min_sojourn_ms(self) -> float:
        return min(acc.min_sojourn_ms for acc in self._accs())

    @property
    def max_sojourn_ms(self) -> float:
        return max(acc.max_sojourn_ms for acc in self._accs())

    @property
    def p50_ms(self) -> float:
        return self.percentile_ms(50)

    @property
    def p99_ms(self) -> float:
        return self.percentile_ms(99)

    # -- slices -----------------------------------------------------------

    def _slices(self, label: "Callable[[_ClassAcc], Any]") -> dict:
        """Sub-reports keyed by ``label(class)``, in sorted label order.

        Stream-wide metadata (scale events, fault counters, replica
        assignments) is not attributable to a slice; slices keep the
        identities, and a full-mode slice keeps its own responses.
        """
        groups: dict = {}
        label_of: dict[tuple, Any] = {}
        for key, acc in self._classes.items():
            label_of[key] = group = label(acc)
            groups.setdefault(group, []).append(key)
        kept: dict = {group: [] for group in groups}
        if self.responses is not None:
            for r in self.responses:
                kept[label_of[_class_key(r.request, r.outcome)]].append(r)
        slices = {}
        for group in sorted(groups):
            sub = StreamSummary(
                self.platform,
                slo_ms=self.slo_ms,
                scheduler=self.scheduler,
                batcher=self.batcher,
                band_base=self.band_base,
                faults=self.faults,
                _classes={key: self._classes[key] for key in groups[group]},
            )
            if self.responses is not None:
                sub.responses = tuple(kept[group])
            slices[group] = sub
        return slices

    @property
    def tenants(self) -> tuple[str, ...]:
        """Sorted tenant names present in the stream."""
        return tuple(sorted({acc.tenant for acc in self._classes.values()}))

    @property
    def priorities(self) -> tuple[int, ...]:
        """Sorted priority classes present in the stream."""
        return tuple(sorted({acc.priority for acc in self._classes.values()}))

    def per_tenant(self) -> "dict[str, StreamSummary]":
        """Sub-reports keyed by tenant, each over that tenant's requests."""
        return self._slices(lambda acc: acc.tenant)

    def per_priority(self) -> "dict[int, StreamSummary]":
        """Sub-reports keyed by priority class."""
        return self._slices(lambda acc: acc.priority)

    @property
    def outcomes(self) -> tuple[str, ...]:
        """Sorted outcomes present (``("ok",)`` outside fault runs)."""
        return tuple(sorted({acc.outcome for acc in self._classes.values()}))

    def per_outcome(self) -> "dict[str, StreamSummary]":
        """Sub-reports keyed by outcome: how fault-injected requests
        left the system (``"ok"``/``"retried"``/``"hedged"``/
        ``"timeout"``); counts always sum to ``n_requests``.

        Example::

            >>> from repro.serving import ServingEngine, uniform_arrivals
            >>> from repro.workloads.deepbench import task
            >>> report = ServingEngine("gpu").serve_stream(
            ...     uniform_arrivals(task("lstm", 512, 25),
            ...                      rate_per_s=100, n_requests=10))
            >>> sorted(report.per_outcome()) == ["ok"]
            True
        """
        return self._slices(lambda acc: acc.outcome)

    def per_length_band(self, band_base: float = 2.0) -> "dict[str, StreamSummary]":
        """Sub-reports keyed by geometric sequence-length band.

        Requests are grouped by their *own* ``timesteps`` into bands
        ``[base^k, base^(k+1))``, labelled ``"T16-31"`` etc., so tail
        latency can be read per length class — long requests hiding
        behind a healthy global P99 show up here.  The band base is
        fixed when the report starts accumulating (``band_base`` at
        construction); asking for a different base afterwards raises —
        the report cannot re-bucket its classes.

        Example::

            >>> from repro.serving import (ServingEngine, ZipfLength,
            ...                            poisson_arrivals)
            >>> from repro.workloads.deepbench import task
            >>> report = ServingEngine("gpu").serve_stream(poisson_arrivals(
            ...     task("lstm", 512, 25), rate_per_s=500, n_requests=40,
            ...     seed=1, lengths=ZipfLength(8, 120)))
            >>> bands = report.per_length_band()
            >>> sum(b.n_requests for b in bands.values()) == report.n_requests
            True
        """
        if band_base != self.band_base:
            raise ServingError(
                f"summary accumulated length bands at base {self.band_base}; "
                f"re-run the stream with band_base={band_base} to re-bucket"
            )
        bands = self._slices(lambda acc: length_band(acc.timesteps, band_base))
        return {f"T{lo}-{hi}": sub for (lo, hi), sub in bands.items()}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StreamSummary(platform={self.platform!r}, "
            f"n_requests={self.n_requests}, scheduler={self.scheduler!r}, "
            f"batcher={self.batcher!r})"
        )
