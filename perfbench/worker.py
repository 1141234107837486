"""One benchmark process: set a workload up, then measure or trace it.

``run.py`` starts this script in a fresh interpreter per job::

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE --seconds S

It prints ``READY`` once the workload is set up (the parent times
process start to that line as ``setup_s``), then, for ``--mode
measure`` or ``--mode trace``, one final ``RESULT {json}`` line.

* ``setup``: set up, print ``READY``, exit.
* ``measure``: untraced passes until ``--seconds`` is spent (at least
  ``MIN_PASSES``), each on fresh inputs (``pass_seed``) and cold as far
  as process caches go; every pass's outputs are checked, then one
  independent recomputation of the first pass runs outside the timed
  passes.
* ``trace``: alternate untraced and traced repetitions (each = set up
  + one pass on the first pass's inputs, so compile work is traced
  too); the traced outputs must equal the untraced ones, and the per-layer split comes from the
  traced repetitions.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracer  # noqa: E402
from workloads import DEFAULT_SEED, PINNED, WORKLOADS, pass_seed  # noqa: E402

MIN_PASSES = 3

#: Mapping passes reported one by one (the default pipeline plus the two
#: optimization passes the tuner's pass axis switches on).
MAPPING_PASSES = (
    "recognize_rnn",
    "plan_gates",
    "place_units",
    "route_edges",
    "fold_luts",
    "fuse_gates",
    "double_buffer",
    "report_resources",
)


def emit(tag: str, payload: object = None) -> None:
    print(tag if payload is None else f"{tag} {json.dumps(payload)}", flush=True)


def canonical(outputs: dict) -> dict:
    """Outputs as JSON sees them, so tuples and lists compare equal."""
    return json.loads(json.dumps(outputs))


def verify(workload, outputs: dict, seed: int) -> list[str]:
    """Invariant violations, plus any difference from the pinned outputs."""
    problems = workload.check(outputs)
    pinned = PINNED.get(workload.name)
    applies = seed == DEFAULT_SEED or getattr(workload, "seed_free", False)
    if pinned is not None and applies and outputs != pinned:
        problems.append(f"outputs differ from the pinned seed-{seed} outputs: {outputs}")
    return problems


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: tracer.Tracer, counters: dict, wall_s: float) -> dict:
    """The per-layer metrics of one traced repetition."""
    hits = sum(e.cache_stats.hits for e in tr.engines)
    lookups = sum(e.cache_stats.total for e in tr.engines)
    builds = tr.calls("rnn.build")
    candidates = counters.get("candidates", 0)
    metrics = {
        "traffic.gen_s": tr.self_s("traffic."),
        "traffic.requests": tr.counts["traffic.next.items"],
        "stats.fold_s": tr.self_s("stats."),
        "stats.folds": tr.calls("stats."),
        "events.self_s": tr.self_s("events."),
        "scheduler.s": tr.self_s("scheduler."),
        "scheduler.ops": tr.calls("scheduler."),
        "batching.s": tr.self_s("batching."),
        "batching.launches": tr.calls("batching.take"),
        "faults.s": tr.self_s("faults."),
        "faults.calls": tr.calls("faults."),
        "engine.cost_s": tr.self_s("engine.cost."),
        "engine.cost_calls": tr.calls("engine.cost.", from_outside=True),
        "engine.memo_hit_ratio": _ratio(hits, lookups),
        "engine.compile_s": tr.self_s("engine.compile"),
        "engine.compiles": tr.calls("engine.compile"),
        "rnn.build_s": tr.self_s("rnn."),
        "rnn.builds": builds,
    }
    for name in MAPPING_PASSES:
        metrics[f"mapping.{name}_s"] = tr.counts[f"mapping.{name}_s"]
    # report_resources builds the design before its own timing is taken,
    # so it never shows in pass_timings: read it as the rest of the map
    # span's self time (which also holds the pass manager's bookkeeping).
    metrics["mapping.report_resources_s"] = max(
        0.0, tr.self_s("mapping.map") - sum(metrics[f"mapping.{n}_s"] for n in MAPPING_PASSES)
    )
    metrics.update(
        {
            "mapping.verify_s": tr.self_s("mapping.verify"),
            "mapping.maps": tr.calls("mapping.map"),
            "plasticine.sim_s": tr.self_s("plasticine."),
            "plasticine.sims": tr.calls("plasticine."),
            "dse.self_s": tr.self_s("dse."),
            "dse.candidates": candidates,
            "dse.memo_hit_ratio": _ratio(counters.get("memo_hits", 0), candidates),
            "dse.builds_per_candidate": _ratio(builds, candidates),
            "trace.wall_s": wall_s,
        }
    )
    return metrics


def measure(workload, seed: int, seconds: float) -> dict:
    state = workload.setup()
    emit("READY")
    pass_s: list[float] = []
    items: list[int] = []
    failed: list[bool] = []
    problems: list[str] = []
    first = None
    start = time.perf_counter()
    while len(pass_s) < MIN_PASSES or time.perf_counter() - start + statistics.median(pass_s) <= seconds:
        workload.reset()
        t0 = time.perf_counter()
        try:
            outputs, _ = workload.run(state, pass_seed(seed, len(pass_s)))
            elapsed = time.perf_counter() - t0
            outputs = canonical(outputs)
            found = verify(workload, outputs, pass_seed(seed, len(pass_s)))
            items.append(workload.items(outputs))
            first = outputs if first is None else first
        except Exception as exc:  # a failed pass is counted, not fatal
            elapsed = time.perf_counter() - t0
            traceback.print_exc()
            found = [f"pass raised {exc!r}"]
            items.append(0)
        pass_s.append(elapsed)
        failed.append(bool(found))
        problems.extend(found)
    # ru_maxrss is a high-water mark: read it before the recomputation
    # below, which holds far more than a summary-mode pass does.
    rss = rss_mb()
    if first is not None and not failed[0]:
        found = workload.reference(state, pass_seed(seed, 0), first)
        failed[0] = bool(found)
        problems.extend(found)
    return {
        "pass_s": pass_s,
        "items": items,
        "rss_mb": rss,
        "attempted": len(pass_s),
        "failed": sum(failed),
        "problems": problems[:10],
        "outputs": first,
    }


def trace(workload, seed: int, seconds: float) -> dict:
    emit("READY")
    input_seed = pass_seed(seed, 0)
    plain_s: list[float] = []
    runs: list[dict] = []
    last: dict = {}
    pairs = failed = 0
    problems: list[str] = []
    start = time.perf_counter()
    pair_s = 0.0
    while pairs == 0 or time.perf_counter() - start + pair_s <= seconds:
        pair_start = time.perf_counter()
        # Alternate which side goes first, so drift hits both equally.
        reps = [False, True] if pairs % 2 == 0 else [True, False]
        pairs += 1
        outputs = {}
        try:
            for traced in reps:
                workload.reset()
                tr = tracer.Tracer().install() if traced else None
                t0 = time.perf_counter()
                try:
                    out, counters = workload.run(workload.setup(), input_seed)
                finally:
                    wall = time.perf_counter() - t0
                    if tr is not None:
                        tr.uninstall()
                outputs[traced] = canonical(out)
                if traced:
                    runs.append(layer_metrics(tr, counters, wall))
                    last = {"wall_s": wall, "layers_self_s": tr.layer_self_s(), "spans": tr.span_rows()}
                else:
                    plain_s.append(wall)
            found = verify(workload, outputs[False], input_seed)
            if outputs[True] != outputs[False]:
                found.append("traced outputs differ from the untraced run")
        except Exception as exc:  # a failed repetition is counted, not fatal
            traceback.print_exc()
            found = [f"repetition raised {exc!r}"]
        if found:
            failed += 1
            problems.extend(found)
        pair_s = time.perf_counter() - pair_start
    metrics = {name: statistics.median(run[name] for run in runs) for name in (runs[:1] or [{}])[0]}
    if metrics and plain_s:
        metrics["trace.overhead_frac"] = metrics["trace.wall_s"] / statistics.median(plain_s) - 1.0
    return {
        "metrics": metrics,
        "plain_wall_s": plain_s,
        "last_traced": last,
        "attempted": pairs,
        "failed": failed,
        "problems": problems[:10],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    if args.mode == "setup":
        workload.setup()
        emit("READY")
    elif args.mode == "measure":
        emit("RESULT", measure(workload, args.seed, args.seconds))
    else:
        emit("RESULT", trace(workload, args.seed, args.seconds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
