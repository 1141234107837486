"""Exhaustive map-and-simulate search over a parameter space.

Each candidate's program is timing-only: it is built over zero-stride
broadcast weights (:func:`_zero_weights`), so it carries memory shapes
in no bytes, and mapping and cycle simulation never read a value.  On
top of that, the sweep is memoized, hoisted, and parallel through the
shared DSE runner (:mod:`repro.dse.runner`):

* the task *program* is built, and the config-independent prefix of
  its lowering (``PassManager.prefix``) run, once per
  :class:`LoopParams`; each pass config runs only its tail, on a
  ``MappingState.fork()`` of that prefix (the last config on the
  prefix itself);
* every mapped-and-simulated point lands in a per-process LRU
  (:class:`~repro.dse.runner.EvalMemo`) keyed by ``(task family,
  params, bits, chip, pass_config)`` — the result scales exactly with
  ``timesteps`` (``total = T * cycles_per_step``), so length variants
  of one family share entries;
* :func:`search` fans parameter points onto a worker pool
  (``workers=``) in candidate order, bit-identical to the sequential
  loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import DSEError
from repro.dse.runner import DSEStats, EvalMemo, run_jobs
from repro.dse.space import ParameterSpace
from repro.mapping.mapper import MappedDesign, map_rnn_program
from repro.mapping.passes import MappingState, PassConfig, PassManager
from repro.plasticine.chip import PlasticineConfig
from repro.plasticine.simulator import simulate_pipeline
from repro.rnn.gru_loop import build_gru_program
from repro.rnn.lstm_loop import LoopParams, build_lstm_program
from repro.rnn.params import GRUWeights, LSTMWeights
from repro.workloads.deepbench import RNNTask

__all__ = ["SearchPoint", "DSEResult", "search", "build_task_program"]


def _zero_weights(task: RNNTask):
    """Weight containers backed by zero-stride broadcast views: the
    logical weight shapes in no bytes.  Builders bind them as views
    and only the interpreter allocates, so a timing-only build allocates
    no weight storage (mapping and simulation never read values)."""
    shape = task.shape
    w = {
        g: np.broadcast_to(0.0, (shape.hidden, shape.concat_dim))
        for g in shape.gate_names
    }
    b = {g: np.broadcast_to(0.0, (shape.hidden,)) for g in shape.gate_names}
    cls = LSTMWeights if task.kind == "lstm" else GRUWeights
    return cls(shape=shape, w=w, b=b)


def build_task_program(task: RNNTask, params: LoopParams, *, weights=None, xs=None):
    """Build the loop-based program for a task (zero weights by default —
    sufficient for mapping and timing; pass real weights for functional
    runs)."""
    if weights is None:
        weights = _zero_weights(task)
    if xs is None:
        xs = np.broadcast_to(0.0, (task.timesteps, task.shape.input_dim))
    builder = build_lstm_program if task.kind == "lstm" else build_gru_program
    return builder(weights, xs, params)


@dataclass(frozen=True)
class SearchPoint:
    """One evaluated design point."""

    params: LoopParams
    cycles_per_step: int
    total_cycles: int
    fits: bool
    pcus_used: int
    pmus_used: int
    #: Which optimization passes produced this point (compiler axis).
    pass_config: PassConfig = PassConfig()

    @property
    def latency_s(self) -> float:
        return self.total_cycles / 1e9  # points are compared at 1 GHz


@dataclass(frozen=True)
class DSEResult:
    """Search outcome: best feasible point plus the full frontier."""

    task: RNNTask
    best: SearchPoint
    points: tuple[SearchPoint, ...] = field(repr=False)
    #: Execution counters (memo hits, program builds, workers).
    #: Excluded from equality: two runs at different worker counts or
    #: memo temperatures return *equal* results.
    stats: "DSEStats | None" = field(default=None, compare=False, repr=False)

    @property
    def best_params(self) -> LoopParams:
        return self.best.params

    def feasible_points(self) -> tuple[SearchPoint, ...]:
        return tuple(p for p in self.points if p.fits)


#: Per-process memo over pure map-and-simulate results.  Keyed by
#: ``(family_key, params, bits, chip, pass_config)`` — everything the
#: mapped design depends on; ``timesteps`` is deliberately absent (the
#: record stores per-step cycles and the total is ``T * cycles_per_step``,
#: the simulator's own identity), so length variants share entries.
_MEMO = EvalMemo(maxsize=4096)

#: What the memo stores per key; ``fits`` is recomputed from the stored
#: bits so one entry serves both ``require_capacity`` policies.
_MemoRecord = tuple  # (cycles_per_step, fits_cb, fits_capacity, pcus, pmus)


def _memo_key(
    task: RNNTask,
    params: LoopParams,
    chip: PlasticineConfig,
    bits: int,
    pass_config: PassConfig,
) -> tuple:
    return (task.family_key, params, bits, chip, pass_config)


def _point_from_record(
    task: RNNTask,
    params: LoopParams,
    pass_config: PassConfig,
    record: _MemoRecord,
    *,
    require_capacity: bool,
) -> SearchPoint:
    cycles_per_step, fits_cb, fits_capacity, pcus, pmus = record
    fits = fits_cb and (fits_capacity if require_capacity else True)
    return SearchPoint(
        params=params,
        cycles_per_step=cycles_per_step,
        total_cycles=task.timesteps * cycles_per_step,
        fits=fits,
        pcus_used=pcus,
        pmus_used=pmus,
        pass_config=pass_config,
    )


def _evaluate_program(
    prog,
    chip: PlasticineConfig,
    bits: int,
    pass_config: PassConfig | None,
    prefix: MappingState | None = None,
) -> _MemoRecord:
    """Map and simulate one built program: the uncached inner kernel
    (``prefix``: a prefix-lowered state to run the config's tail on)."""
    design: MappedDesign = map_rnn_program(
        prog, chip, bits=bits, pass_config=pass_config, prefix=prefix
    )
    sim = simulate_pipeline(design.graph)
    res = design.resources
    return (
        sim.cycles_per_step + sim.step_overhead,
        res.fits_compute and res.fits_bandwidth,
        res.fits_capacity,
        res.pcus_used,
        res.pmus_used,
    )


def evaluate(
    task: RNNTask,
    params: LoopParams,
    chip: PlasticineConfig,
    *,
    bits: int = 8,
    require_capacity: bool = False,
    pass_config: PassConfig | None = None,
    memoize: bool = True,
) -> SearchPoint:
    """Map and simulate one candidate point.

    ``memoize`` consults the per-process
    :class:`~repro.dse.runner.EvalMemo` first — a hit reconstructs the
    point bit-identically (per-step cycles and resources are
    length-independent; the total is ``timesteps * cycles_per_step``,
    the simulator's own identity).  ``memoize=False`` is the unmemoized
    reference.
    """
    pc = pass_config or PassConfig()
    key = _memo_key(task, params, chip, bits, pc)
    record = _MEMO.get(key) if memoize else None
    if record is None:
        program = build_task_program(task, params)
        record = _evaluate_program(program, chip, bits, pass_config)
        if memoize:
            _MEMO.put(key, record)
    return _point_from_record(
        task, params, pc, record, require_capacity=require_capacity
    )


@dataclass(frozen=True)
class _SearchJob:
    """One parameter point across the whole pass-config axis."""

    task: RNNTask
    params: LoopParams
    chip: PlasticineConfig
    bits: int
    require_capacity: bool
    pass_configs: tuple[PassConfig, ...]


def _evaluate_params(job: _SearchJob) -> tuple[list[SearchPoint], int, int]:
    """Worker entry: evaluate every pass config of one parameter point.

    Builds the task program and lowers its config-independent prefix
    (``PassManager.prefix``) at most once, lazily on the first memo
    miss (an all-memo-hit point builds nothing).  Each missed config
    runs only its tail, on a fork of the prefix; the last config runs
    on the prefix itself.  Returns ``(points, program_builds,
    memo_hits)`` in the space's pass-config order.
    """
    program = prefix = None
    points: list[SearchPoint] = []
    builds = hits = 0
    last = len(job.pass_configs) - 1
    for i, pass_config in enumerate(job.pass_configs):
        key = _memo_key(job.task, job.params, job.chip, job.bits, pass_config)
        record = _MEMO.get(key)
        if record is None:
            if program is None:
                program = build_task_program(job.task, job.params)
                builds += 1
                prefix = PassManager.prefix().run_program(
                    program, job.chip, bits=job.bits
                )
            record = _evaluate_program(
                program,
                job.chip,
                job.bits,
                pass_config,
                prefix=prefix if i == last else prefix.fork(),
            )
            _MEMO.put(key, record)
        else:
            hits += 1
        points.append(
            _point_from_record(
                job.task,
                job.params,
                pass_config,
                record,
                require_capacity=job.require_capacity,
            )
        )
    return points, builds, hits


def search(
    task: RNNTask,
    chip: PlasticineConfig | None = None,
    space: ParameterSpace | None = None,
    *,
    bits: int = 8,
    require_capacity: bool = False,
    workers: int | None = None,
) -> DSEResult:
    """Search the space, returning the latency-optimal feasible point.

    Ties break toward fewer PCUs (cheaper design, same speed).

    Args:
        require_capacity: Also require the weights to fit on-chip; off by
            default because the paper's largest tasks exceed the 31.5 MB
            scratchpad yet are still evaluated (see EXPERIMENTS.md).
        workers: Fan parameter points onto this many processes
            (:func:`~repro.dse.runner.run_jobs`; default sequential).
            The point list, best point, and every field are
            bit-identical at any worker count — purely wall clock.
    """
    chip = chip or PlasticineConfig.rnn_serving()
    space = space or ParameterSpace()
    stats = DSEStats(workers=workers or 1)
    jobs = [
        _SearchJob(
            task=task,
            params=params,
            chip=chip,
            bits=bits,
            require_capacity=require_capacity,
            pass_configs=space.pass_configs,
        )
        for params in space.candidates(task, chip, bits)
    ]
    points: list[SearchPoint] = []
    for job_points, builds, hits in run_jobs(
        _evaluate_params, jobs, workers=workers
    ):
        points.extend(job_points)
        stats.program_builds += builds
        stats.memo_hits += hits
    stats.candidates = len(points)
    stats.evaluated = len(points) - stats.memo_hits
    if not points:
        raise DSEError(f"no candidate points for {task.name}")
    feasible = [p for p in points if p.fits]
    if not feasible:
        raise DSEError(f"no feasible design for {task.name} on {chip.name}")
    best = min(feasible, key=lambda p: (p.total_cycles, p.pcus_used))
    return DSEResult(task=task, best=best, points=tuple(points), stats=stats)
