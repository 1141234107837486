"""The discrete-event loop shared by engine and fleet streams.

One simulation drives both :meth:`ServingEngine.serve_stream` (a single
replica) and :meth:`Fleet.serve_stream` (N replicas behind a
dispatcher).  Three event kinds carry every fault-free stream:

* ``FREE`` — a replica finishes an execution and consults its batcher
  for the next one.
* ``ARRIVAL`` — a request enters the system.  The autoscaler (if any)
  may first resize the active replica set; the dispatcher then picks a
  replica, the replica's engine prepares/serves the model (compile-once
  cache; service times are deterministic per platform+task), and the
  request joins that replica's ready queue under its scheduler.
* ``LAUNCH`` — a batcher held an idle replica open to let a batch
  accumulate (see :mod:`repro.serving.batching`); the hold expires and
  the replica launches whatever is ready.  Sorted after arrivals at
  equal timestamps so a request arriving exactly at the deadline still
  joins the batch.

Four more kinds model unreliable hardware and its mitigations, and are
only ever scheduled when a :class:`~repro.serving.faults.FaultPolicy`
other than ``"none"``, a timeout or a hedge is configured:
``CRASH``/``RECOVER`` bracket a replica's downtime (the in-flight batch
aborts and requeues; recovery rebuilds the engine through the replica
factory, re-paying compile warmup), ``TIMEOUT`` expires a request
attempt (bounded retries, then a ``"timeout"`` outcome), and ``HEDGE``
dispatches a duplicate copy whose first completion wins.  A timeout
that never fires therefore leaves every timeline, assignment and
summary bit-identical to the fault-free run.

The loop is O(n log n) in the number of requests and — this is the
million-request point — never holds the stream in memory:

* arrivals are consumed *incrementally*: the heap holds per-replica
  events (plus, with timeouts or hedges, one per request until it
  expires), and the next arrival is peeked from the (possibly lazy)
  input stream, so a generator or JSONL trace never materializes;
* with ``presorted=True``, :func:`normalize_arrivals` skips the
  materialize+sort+duplicate-set pass entirely and instead validates
  lazily that arrivals are time-ordered with strictly increasing
  ``request_id`` (what :func:`repro.serving.traffic.mix` and every
  built-in generator emit);
* with a :class:`~repro.serving.stats.StreamSummary` sink, responses
  are folded into O(1) online accumulators instead of being collected.

Every stream runs the one general loop except the paper's serving
scenario: a single fault-free replica serving FIFO at batch 1 takes one
fast path that needs no event heap and no scheduler queue, reducing each
request to a handful of float ops.  Both loops evaluate
``start = max(arrival, replica_free_at)`` with the same floats in the
same order, so the FIFO timeline stays bit-for-bit identical to the
pre-refactor sequential simulations (pinned by the golden parity tests).

A dispatcher is consulted only when there is a choice to make: with one
replica and no autoscaler every arrival goes to replica 0.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from repro.errors import ServingError
from repro.serving.autoscaler import Autoscaler, ScaleEvent
from repro.serving.batching import Batcher, NoneBatcher
from repro.serving.faults import FaultPolicy, NoFaults
from repro.serving.request import ServeRequest, ServeResponse
from repro.serving.result import FaultStats, ServingResult
from repro.serving.scheduler import FIFOScheduler, QueuedRequest, Scheduler
from repro.workloads.deepbench import RNNTask

if TYPE_CHECKING:  # pragma: no cover
    from repro.serving.engine import ServingEngine
    from repro.serving.stats import StreamSummary

__all__ = [
    "normalize_arrivals",
    "run_stream",
    "StreamOutcome",
    "StreamDispatcher",
]

#: Event kinds; FREE sorts before ARRIVAL at equal timestamps so an
#: arrival always sees the replica's settled state, and LAUNCH sorts
#: after ARRIVAL so a same-instant arrival can join the launching batch.
#: RECOVER sorts with FREE — a replica recovering at an arrival's
#: instant may take it — while CRASH/TIMEOUT/HEDGE sort after ARRIVAL,
#: so a same-instant arrival is admitted before the fault strikes.
_FREE, _RECOVER, _ARRIVAL, _LAUNCH, _CRASH, _TIMEOUT, _HEDGE = range(7)

_INF = float("inf")

#: Factory building the replica at one index slot:
#: (index) -> (engine, scheduler, batcher).  The index lets a mixed
#: fleet grow along its platform pattern and lets a crash recovery
#: rebuild a dead replica on its own platform.
ReplicaFactory = Callable[[int], "tuple[ServingEngine, Scheduler, Batcher]"]


class StreamDispatcher:
    """Incremental dispatcher protocol for fleet-scale streams.

    Rather than a snapshot of every replica's projected completion time
    per arrival — an O(replicas) copy per request that turns
    least-loaded dispatch quadratic on big fleets — a dispatcher
    receives *deltas*: the loop calls :meth:`assign` whenever one
    replica's projection changes and :meth:`resize` whenever the
    autoscaler changes the active set, so a policy can maintain its own
    O(log n) structure (see ``Fleet``'s least-loaded heap).

    Example::

        >>> from repro.serving.events import StreamDispatcher
        >>> class First(StreamDispatcher):
        ...     def choose(self, seq, request): return 0
        >>> First().choose(0, None)
        0
    """

    def choose(self, seq: int, request: ServeRequest) -> int:
        """Pick the replica for one arrival."""
        raise NotImplementedError  # pragma: no cover

    def assign(self, replica: int, work_until_s: float) -> None:
        """One replica's projected completion time advanced."""

    def resize(self, active: int, work_until: Sequence[float]) -> None:
        """The active replica set changed (autoscaler or stream start)."""

    def bind(self, engines: "Sequence[ServingEngine]") -> None:
        """The live replica list, before the stream starts.

        The loop mutates the bound list in place (autoscale growth
        appends, crash recovery replaces), so cost-aware dispatchers —
        which price each arrival under each replica's own platform —
        stay current without further calls.  Default: ignore it.
        """


class _SoleReplica(StreamDispatcher):
    """What a one-replica stream without an autoscaler dispatches with:
    every valid choice is replica 0, so the caller's dispatcher (if any)
    is never consulted."""

    def choose(self, seq: int, request: ServeRequest) -> int:
        return 0


@dataclass(frozen=True)
class StreamOutcome:
    """Everything one stream simulation produced.

    Attributes:
        responses: One response per request, in arrival order — empty
            when the stream ran against a summary sink (``mode="summary"``),
            which folds responses online instead of collecting them.
        assignments: Replica index per request, in arrival order (empty
            in summary mode; the summary tracks per-replica counts).
        scale_events: Autoscaler actions applied during the run.
        n_replicas: Total replicas that existed by the end (grown
            replicas included) — the peak capacity the run used.
        active_replicas: Replicas still active when the stream drained
            (equal to ``n_replicas`` unless the autoscaler scaled down).
        fault_stats: Injected-fault counters (all zero on a fault-free
            run).

    Example::

        >>> from repro.serving import ServingEngine, uniform_arrivals
        >>> from repro.serving.events import run_stream
        >>> from repro.serving.scheduler import make_scheduler
        >>> from repro.workloads.deepbench import task
        >>> engine = ServingEngine("gpu")
        >>> arrivals = uniform_arrivals(task("lstm", 512, 25),
        ...                             rate_per_s=100, n_requests=3)
        >>> out = run_stream(arrivals, engines=(engine,),
        ...                  schedulers=(make_scheduler("fifo"),))
        >>> (len(out.responses), out.assignments, out.n_replicas)
        (3, [0, 0, 0], 1)
    """

    responses: "list[ServeResponse]"
    assignments: list[int]
    scale_events: tuple[ScaleEvent, ...] = ()
    n_replicas: int = 1
    active_replicas: int = 1
    fault_stats: FaultStats = FaultStats()


def _presorted_stream(
    arrivals: Iterable[ServeRequest | RNNTask],
) -> Iterator[ServeRequest]:
    """Lazily validate a pre-sorted stream: non-decreasing arrival times
    and strictly increasing request ids (which rules out duplicates with
    O(1) state — no id set is ever built)."""
    prev_arrival = -_INF
    prev_id: int | None = None
    position = 0
    for item in arrivals:
        if isinstance(item, RNNTask):
            item = ServeRequest(task=item, request_id=position)
        arrival = item.arrival_s
        if arrival < prev_arrival:
            raise ServingError(
                f"presorted stream is out of order: request "
                f"{item.request_id} arrives at {arrival} after "
                f"{prev_arrival}; pass presorted=False to sort"
            )
        rid = item.request_id
        if prev_id is not None and rid <= prev_id:
            raise ServingError(
                f"presorted stream needs strictly increasing request ids "
                f"(saw {rid} after {prev_id}); merge streams with "
                f"repro.serving.traffic.mix() — it renumbers globally — "
                f"or pass presorted=False"
            )
        prev_arrival = arrival
        prev_id = rid
        position += 1
        yield item


def normalize_arrivals(
    arrivals: Iterable[ServeRequest | RNNTask],
    *,
    presorted: bool = False,
) -> "list[ServeRequest] | Iterator[ServeRequest]":
    """Sort a stream into arrival order and validate request ids.

    Bare :class:`RNNTask` items are wrapped as arrival-time-zero requests
    with ids taken from their position.  Duplicate ``request_id``s are
    rejected outright: a stream merged by hand from several generators
    almost always collides on ids (every generator numbers from 0), which
    silently breaks FIFO tie-breaking and per-request accounting — use
    :func:`repro.serving.traffic.mix`, which re-numbers globally.

    With ``presorted=True`` the materialize+sort+duplicate-set pass is
    skipped: a *lazy* validator is returned instead, which checks — in
    O(1) memory, while the event loop consumes it — that arrivals are
    time-ordered with strictly increasing ids (every built-in generator,
    :func:`~repro.serving.traffic.mix`, and recorded traces satisfy
    this; monotone ids double as the duplicate check).  This is what
    lets ``serve_stream`` run a multi-million-request generator without
    holding it.

    Example::

        >>> from repro.serving.events import normalize_arrivals
        >>> from repro.serving import ServeRequest
        >>> from repro.workloads.deepbench import task
        >>> t = task("lstm", 512, 25)
        >>> reqs = [ServeRequest(task=t, arrival_s=0.2, request_id=1),
        ...         ServeRequest(task=t, arrival_s=0.1, request_id=0)]
        >>> [r.request_id for r in normalize_arrivals(reqs)]
        [0, 1]
        >>> lazy = normalize_arrivals(sorted(reqs, key=lambda r: r.arrival_s),
        ...                           presorted=True)
        >>> [r.request_id for r in lazy]       # validated as it streams
        [0, 1]
    """
    if presorted:
        return _presorted_stream(arrivals)
    requests: list[ServeRequest] = []
    for position, item in enumerate(arrivals):
        if isinstance(item, RNNTask):
            item = ServeRequest(task=item, request_id=position)
        requests.append(item)
    if not requests:
        raise ServingError("serve_stream needs at least one request")
    ordered = sorted(requests, key=lambda r: (r.arrival_s, r.request_id))
    seen: set[int] = set()
    duplicates: set[int] = set()
    for req in ordered:
        if req.request_id in seen:
            duplicates.add(req.request_id)
        seen.add(req.request_id)
    if duplicates:
        shown = ", ".join(str(d) for d in sorted(duplicates)[:5])
        raise ServingError(
            f"duplicate request_id(s) in stream ({shown}); merge streams "
            f"with repro.serving.traffic.mix() to get globally unique ids"
        )
    return ordered


def run_stream(
    arrivals: Iterable[ServeRequest | RNNTask],
    *,
    engines: Sequence["ServingEngine"],
    schedulers: Sequence[Scheduler],
    dispatch: StreamDispatcher | None = None,
    slo_ms: float | None = None,
    batchers: Sequence[Batcher] | None = None,
    autoscaler: Autoscaler | None = None,
    replica_factory: ReplicaFactory | None = None,
    presorted: bool = False,
    summary: "StreamSummary | None" = None,
    faults: FaultPolicy | None = None,
    fault_seed: int = 0,
    timeout_ms: float | None = None,
    retries: int = 0,
    hedge_ms: float | None = None,
) -> StreamOutcome:
    """Simulate a timestamped stream over one or more replicas.

    Args:
        arrivals: The request stream — any iterable, including a lazy
            generator or trace reader (sorted internally unless
            ``presorted=True``).
        engines: One :class:`ServingEngine` per starting replica.
        schedulers: One scheduler per replica (same length as engines).
        dispatch: The :class:`StreamDispatcher` assigning each arrival
            to a replica.  Required with several replicas or an
            autoscaler; a single replica without an autoscaler never
            consults it (every arrival goes to replica 0).
        slo_ms: Stream-level SLO; per-request ``slo_ms`` overrides it
            when computing deadlines for deadline-aware schedulers and
            SLO-aware batching.
        batchers: One batching policy per replica; defaults to the
            ``"none"`` policy everywhere (classic batch-1 serving).
        autoscaler: Optional policy resizing the active replica set as
            the stream runs; evaluated on every arrival and completion.
        replica_factory: Grows the fleet on scale-up; required when
            ``autoscaler`` may target more replicas than ``engines``.
        presorted: Trust (and lazily validate) that ``arrivals`` is
            already time-ordered with strictly increasing ids, skipping
            the materialize+sort pass — see :func:`normalize_arrivals`.
        summary: Optional :class:`~repro.serving.stats.StreamSummary`
            sink.  When given, completed requests are folded into its
            O(1) accumulators instead of being collected, and the
            returned outcome carries empty ``responses``/``assignments``.
        faults: Optional :class:`~repro.serving.faults.FaultPolicy`
            instance; anything other than ``"none"`` routes the stream
            through the general loop.  The loop calls
            ``faults.reset(fault_seed)``, so a given seed reproduces the
            same crash/straggler timeline on every run.
        fault_seed: Seed for the fault policy's deterministic draws.
        timeout_ms: Per-attempt latency budget; an attempt not finished
            within it is cancelled and (with ``retries``) re-dispatched,
            else answered with outcome ``"timeout"``.
        retries: Re-dispatches allowed after timeouts (needs
            ``timeout_ms``).
        hedge_ms: Dispatch a duplicate copy if the request has not
            finished this long after arrival; first completion wins and
            the loser is cancelled.

    Returns:
        A :class:`StreamOutcome`; its responses and assignments are
        indexed by arrival order — response ``i`` answers the ``i``-th
        request in arrival order no matter when (or in which batch) the
        scheduler actually served it.

    Example::

        >>> from repro.serving import ServingEngine, uniform_arrivals
        >>> from repro.serving.events import run_stream
        >>> from repro.serving.scheduler import make_scheduler
        >>> from repro.workloads.deepbench import task
        >>> out = run_stream(
        ...     uniform_arrivals(task("lstm", 512, 25),
        ...                      rate_per_s=200, n_requests=4),
        ...     engines=(ServingEngine("gpu"),),
        ...     schedulers=(make_scheduler("fifo"),))
        >>> [r.request.request_id for r in out.responses]
        [0, 1, 2, 3]
    """
    engine_list = list(engines)
    scheduler_list = list(schedulers)
    batcher_list = (
        [NoneBatcher() for _ in engine_list] if batchers is None else list(batchers)
    )
    if not (len(engine_list) == len(scheduler_list) == len(batcher_list)):
        raise ServingError("need exactly one scheduler and batcher per replica")

    def bind_cost(replica: int) -> None:
        engine = engine_list[replica]
        batcher_list[replica].bind_cost(
            lambda task, size, _e=engine: _e.batch_latency_s(task, size)
        )

    for replica in range(len(engine_list)):
        bind_cost(replica)

    if timeout_ms is not None and timeout_ms <= 0:
        raise ServingError("timeout_ms must be positive when set")
    if hedge_ms is not None and hedge_ms <= 0:
        raise ServingError("hedge_ms must be positive when set")
    if retries < 0:
        raise ServingError("retries must be >= 0")
    if retries > 0 and timeout_ms is None:
        raise ServingError("retries need timeout_ms to be set")
    sole = len(engine_list) == 1 and autoscaler is None
    if sole:
        dispatch = _SoleReplica()
    elif dispatch is None:
        raise ServingError(
            "a stream over several replicas or with an autoscaler needs a "
            "dispatcher"
        )

    stream = normalize_arrivals(arrivals, presorted=presorted)

    # The paper's serving scenario — one fault-free replica, FIFO, batch
    # 1 — needs no event heap and no scheduler queue.  Every other
    # stream runs the general loop.
    if (
        sole
        and (faults is None or faults.name == "none")
        and timeout_ms is None
        and hedge_ms is None
        and type(scheduler_list[0]) is FIFOScheduler
        and type(batcher_list[0]) is NoneBatcher
    ):
        return _run_fifo_unbatched(stream, engine_list[0], summary)

    policy = faults if faults is not None else NoFaults()
    policy.reset(fault_seed)
    return _run_general(
        stream,
        engine_list,
        scheduler_list,
        batcher_list,
        bind_cost,
        dispatch,
        slo_ms,
        autoscaler,
        replica_factory,
        summary,
        policy,
        timeout_ms,
        retries,
        hedge_ms,
    )


def _run_fifo_unbatched(
    stream: Iterable[ServeRequest],
    engine: "ServingEngine",
    summary: "StreamSummary | None",
) -> StreamOutcome:
    """The hottest path: one replica, FIFO order, batch 1.

    Service order equals arrival order, so the whole simulation is the
    classic single-server recursion ``start = max(arrival, free_at)`` —
    no heap, no scheduler queue, no per-request :class:`QueuedRequest`.
    Identical floats in identical order to the general loop (golden
    parity holds bit for bit); with a summary sink it allocates nothing
    per request beyond the incoming request objects.
    """
    collect = summary is None
    responses: list[ServeResponse] = []
    append = responses.append
    observe = None if collect else summary.observe_served
    result_for = engine.result_for
    free_at = 0.0
    n = 0
    last_task: RNNTask | None = None
    last_result = None
    for req in stream:
        task = req.task
        if task is not last_task:
            last_result = result_for(task)
            last_task = task
        result = last_result
        latency = result.latency_s
        arrival = req.arrival_s
        start = arrival if arrival > free_at else free_at
        finish = start + latency
        free_at = finish
        if collect:
            append(
                ServeResponse(
                    request=req,
                    result=result,
                    queue_delay_s=start - arrival,
                    start_s=start,
                    finish_s=finish,
                )
            )
        else:
            observe(req, result, start, finish, 1)
        n += 1
    if n == 0:
        raise ServingError("serve_stream needs at least one request")
    if not collect:
        summary.note_assignment(0, n)
    return StreamOutcome(
        responses=responses,
        assignments=[0] * n if collect else [],
    )


def _batch_exec_task(entries: "list[QueuedRequest]", batcher: Batcher) -> RNNTask:
    """The task a coalesced batch executes at: the head's task padded to
    the longest member (the pad/bucket policies).  Same-length batches
    reduce to the head's task exactly.  Mixing task *families* is a
    batcher bug."""
    head = entries[0]
    exec_task = head.request.task
    for e in entries[1:]:
        t = e.request.task
        if t == exec_task:
            continue
        if t.family_key != exec_task.family_key:
            raise ServingError(
                f"batcher {batcher.name!r} coalesced requests from "
                f"different task families into one batch"
            )
        exec_task = exec_task.padded_to(t.timesteps)
    return exec_task


def _live(entry: "_Flight | _Copy") -> bool:
    """Whether a ready-queue entry still serves its flight's current
    attempt (stale copies are cancelled without reaching into the
    scheduler)."""
    flight = entry.flight
    return not flight.done and flight.attempts == entry.attempt


@dataclass(eq=False, slots=True)
class _Flight(QueuedRequest):
    """One request's life inside the general loop — and the ready-queue
    entry of its first dispatch (``result`` is that dispatch's batch-1
    result).

    A request may have several live *copies* (retries, hedges, requeues
    after a crash or preemption) in queues and in flight at once; the
    flight is the single source of truth for whether it already
    resolved, which attempt is current, and the straggler factor drawn
    for it.  Deleted from the pending map on resolution, so the loop's
    memory stays O(in-system), not O(stream).
    """

    index: int = 0
    factor: float = 1.0
    attempts: int = 1
    hedged: bool = False
    done: bool = False

    #: As its own first copy, a flight serves attempt 1 and is no hedge.
    attempt = 1
    hedge = False

    @property
    def flight(self) -> "_Flight":
        """The flight a copy belongs to: for the first copy, itself."""
        return self


@dataclass(eq=False, slots=True)
class _Copy(QueuedRequest):
    """A later copy of a :class:`_Flight` (retry, hedge, or requeue after
    an aborted execution): a ready-queue entry that also carries its
    flight, the attempt it serves and whether it is a hedge."""

    flight: "_Flight | None" = None
    attempt: int = 1
    hedge: bool = False


def _run_general(
    stream: Iterable[ServeRequest],
    engine_list: "list[ServingEngine]",
    scheduler_list: "list[Scheduler]",
    batcher_list: "list[Batcher]",
    bind_cost: Callable[[int], None],
    dispatch: StreamDispatcher,
    slo_ms: float | None,
    autoscaler: Autoscaler | None,
    replica_factory: ReplicaFactory | None,
    summary: "StreamSummary | None",
    policy: FaultPolicy,
    timeout_ms: float | None,
    retries: int,
    hedge_ms: float | None,
) -> StreamOutcome:
    """The general loop: N replicas, any scheduler, any batcher,
    autoscaling, and unreliable hardware (crashes, stragglers,
    preemption, timeouts, hedges).  With
    :class:`~repro.serving.faults.NoFaults` and no timeout/hedge only
    FREE and LAUNCH events ever enter the heap.

    Arrivals are peeked one at a time from the (possibly lazy) sorted
    stream, so the heap never holds the stream itself.  On top of plain
    dispatch and batching:

    * every scheduler entry is a copy of a request's :class:`_Flight` —
      the flight itself on first dispatch, a :class:`_Copy` for retries,
      hedges and requeues; stale copies (superseded attempts,
      already-resolved requests) are filtered out when a batch launches
      or completes, which is how cancellation works without reaching
      into scheduler internals.  Only retries and hedges make copies
      stale, so without them the filtering is skipped;
    * replicas carry a ``dead`` flag and a generation counter — bumping
      the generation invalidates the scheduled FREE of an aborted
      (crashed or preempted) execution, whose live members requeue;
    * responses are recorded at completion (not launch), because only
      then is it known which copy won.

    Determinism: every policy draw hashes ``(seed, replica)`` or
    ``(seed, request_id)``; the loop itself is a deterministic function
    of the stream, so a seed reproduces the identical timeline across
    runs and shard layouts.
    """
    collect = summary is None
    choose = dispatch.choose
    assign = dispatch.assign
    responses: list[ServeResponse | None] = []
    assignments: list[int] = []
    observe = None if collect else summary.observe_served
    assign_note = None if collect else summary.note_assignment
    n_start = len(engine_list)
    #: Projected completion of all work assigned to each replica: the
    #: join-the-shortest-queue dispatch signal.  The projection assumes
    #: unbatched service, so with batching it is an upper bound.
    work_until = [0.0] * n_start
    busy = [False] * n_start
    dead = [False] * n_start
    generation = [0] * n_start
    #: Pending LAUNCH deadline per replica (None = not holding); a
    #: LAUNCH event is stale unless its time matches exactly.
    hold_at: list[float | None] = [None] * n_start
    #: Per-replica in-flight execution: (live entries, start, finish,
    #: result, batch size); None when idle/aborted.
    inflight: list[tuple | None] = [None] * n_start
    active = n_start
    scale_events: list[ScaleEvent] = []
    if autoscaler is not None:
        autoscaler.reset()
    dispatch.bind(engine_list)
    dispatch.resize(active, work_until)

    timeout_s = None if timeout_ms is None else timeout_ms / 1e3
    hedge_s = None if hedge_ms is None else hedge_ms / 1e3
    #: Only retries and hedges leave a flight with two live copies, so
    #: without them no copy is ever stale and the checks are skipped.
    cancellable = timeout_s is not None or hedge_s is not None
    # Policy hooks the base class leaves as no-ops are not called per
    # arrival (a hook wrapped on the instance still is).
    straggler = policy.straggler_factor
    if getattr(straggler, "__func__", None) is FaultPolicy.straggler_factor:
        straggler = None
    preemptive = policy.preemptive

    #: request_id -> _Flight for every unresolved request.
    pending: dict[int, _Flight] = {}

    n_crashes = 0
    downtime_total = 0.0
    n_preemptions = 0
    n_retries = 0
    n_timeouts = 0
    n_hedges = 0
    n_hedge_wins = 0
    n_stragglers = 0

    events: list[tuple[float, int, int, float]] = []
    heappush = heapq.heappush
    heappop = heapq.heappop
    qseq = 0  # unique per scheduler push (copies included)
    dseq = 0  # unique per dispatch decision (retries/hedges included)

    def schedule_crash(replica: int, after_s: float) -> None:
        nxt = policy.next_crash(replica, after_s)
        if nxt is None:
            return
        crash_s, down_s = nxt
        heappush(events, (max(crash_s, after_s), _CRASH, replica, down_s))

    def add_replica(now: float) -> None:
        if replica_factory is None:
            raise ServingError("autoscaler needs a replica_factory to scale up")
        engine, scheduler, batcher = replica_factory(len(engine_list))
        engine_list.append(engine)
        scheduler_list.append(scheduler)
        batcher_list.append(batcher)
        work_until.append(0.0)
        busy.append(False)
        dead.append(False)
        generation.append(0)
        hold_at.append(None)
        inflight.append(None)
        replica = len(engine_list) - 1
        bind_cost(replica)
        schedule_crash(replica, now)

    def autoscale(now: float) -> None:
        nonlocal active
        depth = sum(len(scheduler_list[j]) for j in range(active))
        wait = min(max(work_until[j] - now, 0.0) for j in range(active))
        decision = autoscaler.decide(
            now=now,
            active=active,
            queue_depth=depth,
            projected_wait_s=wait,
            slo_ms=slo_ms,
        )
        if decision is None or decision.target == active:
            return
        while len(engine_list) < decision.target:
            add_replica(now)
        active = decision.target
        # Cooldown is charged only here, once the resize actually took
        # effect — decide() itself is side-effect free.
        autoscaler.note_applied(now)
        scale_events.append(
            ScaleEvent(
                time_s=now,
                action=decision.action,
                replicas=active,
                queue_depth=depth,
                reason=decision.reason,
            )
        )
        dispatch.resize(active, work_until)

    def respond(
        flight: _Flight,
        result: ServingResult,
        start: float,
        finish: float,
        size: int,
        index: int,
        outcome: str,
    ) -> None:
        req = flight.request
        responses[flight.index] = ServeResponse(
            request=req,
            result=result,
            queue_delay_s=start - req.arrival_s,
            start_s=start,
            finish_s=finish,
            batch_size=size,
            batch_index=index,
            outcome=outcome,
            attempts=flight.attempts,
        )

    def place(
        req: ServeRequest, factor: float, now: float
    ) -> "tuple[int, ServingResult, float]":
        """Dispatch one copy of ``req``: pick its replica and book its
        (straggler-inflated) service time on that replica's projection."""
        nonlocal dseq
        replica = choose(dseq, req)
        dseq += 1
        if not 0 <= replica < active:
            raise ServingError(f"dispatcher chose invalid replica {replica}")
        result = engine_list[replica].result_for(req.task)
        service_s = result.latency_s * factor
        free_at = work_until[replica]
        free_at = (now if now > free_at else free_at) + service_s
        work_until[replica] = free_at
        assign(replica, free_at)
        return replica, result, service_s

    def push_copy(flight: _Flight, now: float, hedge: bool) -> int:
        """Dispatch a retry or hedge copy of a flight; returns its replica."""
        nonlocal qseq
        replica, result, service_s = place(flight.request, flight.factor, now)
        scheduler_list[replica].push(
            _Copy(
                qseq,
                flight.request,
                result,
                service_s,
                flight.deadline_s,
                flight,
                flight.attempts,
                hedge,
            )
        )
        qseq += 1
        return replica

    def abort_execution(replica: int) -> None:
        """Abort the in-flight batch; live members requeue on the same
        replica (stale copies are dropped for good)."""
        nonlocal qseq
        batch = inflight[replica]
        inflight[replica] = None
        generation[replica] += 1  # the scheduled FREE goes stale
        busy[replica] = False
        queue = scheduler_list[replica]
        for entry in batch[0]:
            if not _live(entry):
                continue
            queue.push(
                _Copy(
                    qseq,
                    entry.request,
                    entry.result,
                    entry.service_s,
                    entry.deadline_s,
                    entry.flight,
                    entry.attempt,
                    entry.hedge,
                )
            )
            qseq += 1

    def launch(replica: int, now: float) -> None:
        """Start the next batch on ``replica`` — or hold it open for one.

        Callers guarantee a non-empty ready queue; a busy or dead replica
        is left alone.
        """
        if busy[replica] or dead[replica]:
            return
        queue = scheduler_list[replica]
        batcher = batcher_list[replica]
        while True:
            ready_at = batcher.hold_until(queue, now)
            if ready_at > now:
                if hold_at[replica] != ready_at:
                    # A LAUNCH for this exact deadline is not yet
                    # scheduled (re-entered holds with an unchanged
                    # deadline reuse the event already in the heap).
                    hold_at[replica] = ready_at
                    heappush(events, (ready_at, _LAUNCH, replica, 0.0))
                return
            hold_at[replica] = None
            entries = batcher.take(queue, now)
            if not entries:
                raise ServingError(
                    f"batcher {batcher.name!r} returned an empty batch"
                )
            if not cancellable:
                break
            # Copies cancelled while queued drop out here.
            entries = [e for e in entries if _live(e)]
            if entries:
                break
            if not len(queue):
                return
        head = entries[0]
        arrival = head.request.arrival_s
        start = arrival if arrival > now else now
        size = len(entries)
        if size == 1:
            # The exact batch-1 arithmetic (straggler-inflated).
            result = head.result
            finish = start + head.service_s
        else:
            exec_task = _batch_exec_task(entries, batcher)
            result = engine_list[replica].serve_batched(exec_task, size)
            if straggler is None:
                finish = start + result.latency_s
            else:
                # The batch straggles with its slowest member.
                slowest = max(e.flight.factor for e in entries)
                finish = start + result.latency_s * slowest
        busy[replica] = True
        inflight[replica] = (entries, start, finish, result, size)
        heappush(events, (finish, _FREE, replica, generation[replica]))

    for replica in range(n_start):
        schedule_crash(replica, 0.0)

    arrival_iter = iter(stream)
    next_req = next(arrival_iter, None)
    seq = 0
    while next_req is not None or pending:
        # Does the next arrival precede every heap event?  FREE and
        # RECOVER sort before ARRIVAL at equal stamps, the rest after.
        if next_req is not None:
            if events:
                top = events[0]
                arrival_s = next_req.arrival_s
                take_arrival = arrival_s < top[0] or (
                    arrival_s == top[0] and top[1] > _ARRIVAL
                )
            else:
                take_arrival = True
        else:
            take_arrival = False

        if take_arrival:
            req = next_req
            now = req.arrival_s
            if autoscaler is not None:
                autoscale(now)
            if straggler is None:
                factor = 1.0
            else:
                factor = straggler(req)
                if factor < 1.0:
                    raise ServingError(
                        f"fault policy {policy.name!r} returned straggler "
                        f"factor {factor} < 1"
                    )
                if factor > 1.0:
                    n_stragglers += 1
            replica, result, service_s = place(req, factor, now)
            flight = _Flight(
                qseq, req, result, service_s, req.deadline_s(slo_ms), seq, factor
            )
            qseq += 1
            pending[req.request_id] = flight
            scheduler_list[replica].push(flight)
            if collect:
                responses.append(None)
                assignments.append(replica)
            else:
                assign_note(replica)
            if timeout_s is not None:
                heappush(events, (now + timeout_s, _TIMEOUT, req.request_id, 1.0))
            if hedge_s is not None:
                heappush(events, (now + hedge_s, _HEDGE, req.request_id, 0.0))
            if (
                preemptive
                and busy[replica]
                and not dead[replica]
                and inflight[replica] is not None
            ):
                rank = scheduler_list[replica].preemption_rank
                running = [
                    rank(e) for e in inflight[replica][0] if not e.flight.done
                ]
                running_rank = max(running) if running else -_INF
                if policy.preempts(rank(flight), running_rank):
                    abort_execution(replica)
                    n_preemptions += 1
            if not busy[replica]:
                launch(replica, now)
            seq += 1
            next_req = next(arrival_iter, None)
            continue

        now, kind, index, payload = heappop(events)

        if kind == _FREE:
            replica = index
            if payload != generation[replica]:
                continue  # execution was aborted (crash/preemption)
            busy[replica] = False
            entries, start, finish, result, size = inflight[replica]
            inflight[replica] = None
            for position, entry in enumerate(entries):
                if cancellable and not _live(entry):
                    continue  # a sibling copy already won, or superseded
                flight = entry.flight
                flight.done = True
                del pending[entry.request.request_id]
                if entry.hedge:
                    n_hedge_wins += 1
                    outcome = "hedged"
                elif flight.attempts > 1:
                    outcome = "retried"
                else:
                    outcome = "ok"
                if collect:
                    respond(flight, result, start, finish, size, position, outcome)
                else:
                    observe(entry.request, result, start, finish, size, outcome)
            if autoscaler is not None:
                autoscale(now)
            if len(scheduler_list[replica]):
                launch(replica, now)

        elif kind == _RECOVER:
            replica = index
            dead[replica] = False
            if replica_factory is not None:
                # The replacement engine comes through the fleet's
                # factory: it shares the fleet's compile cache, so
                # recovery warmup costs exactly what a scale-up does.
                engine, _scheduler, _batcher = replica_factory(replica)
                engine_list[replica] = engine
                bind_cost(replica)
            schedule_crash(replica, now)
            work_until[replica] = max(work_until[replica], now)
            assign(replica, work_until[replica])
            if len(scheduler_list[replica]):
                launch(replica, now)

        elif kind == _LAUNCH:
            replica = index
            # Stale unless this exact hold is still pending on a live,
            # idle replica (crashes clear holds; launches reschedule).
            if busy[replica] or dead[replica] or hold_at[replica] != now:
                continue
            if len(scheduler_list[replica]):
                launch(replica, now)
            else:
                hold_at[replica] = None

        elif kind == _CRASH:
            replica = index
            n_crashes += 1
            downtime_total += payload
            hold_at[replica] = None
            dead[replica] = True
            if busy[replica]:
                abort_execution(replica)
            recover_at = now + payload
            work_until[replica] = max(work_until[replica], recover_at)
            assign(replica, work_until[replica])
            heappush(events, (recover_at, _RECOVER, replica, payload))

        elif kind == _TIMEOUT:
            flight = pending.get(index)
            if flight is None or flight.done or flight.attempts != payload:
                continue  # resolved, or a newer attempt reset the budget
            if flight.attempts <= retries:
                # Older copies (queued or in flight) go stale via the
                # attempt tag; the timeout budget restarts now.
                flight.attempts += 1
                n_retries += 1
                replica = push_copy(flight, now, False)
                heappush(
                    events,
                    (now + timeout_s, _TIMEOUT, index, float(flight.attempts)),
                )
                launch(replica, now)
            else:
                n_timeouts += 1
                flight.done = True
                del pending[index]
                if collect:
                    respond(flight, flight.result, now, now, 1, 0, "timeout")
                else:
                    observe(flight.request, flight.result, now, now, 1, "timeout")

        else:  # _HEDGE
            flight = pending.get(index)
            if flight is None or flight.done or flight.hedged:
                continue
            flight.hedged = True
            n_hedges += 1
            replica = push_copy(flight, now, True)
            launch(replica, now)

    if seq == 0:
        raise ServingError("serve_stream needs at least one request")
    return StreamOutcome(
        responses=responses,  # type: ignore[arg-type]
        assignments=assignments,
        scale_events=tuple(scale_events),
        n_replicas=len(engine_list),
        active_replicas=active,
        fault_stats=FaultStats(
            crashes=n_crashes,
            downtime_s=downtime_total,
            preemptions=n_preemptions,
            retries=n_retries,
            timeouts=n_timeouts,
            hedges=n_hedges,
            hedge_wins=n_hedge_wins,
            stragglers=n_stragglers,
        ),
    )
