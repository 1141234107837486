"""Host-time benchmark of the RNN-serving simulator: one command, three workloads.

Run one workload (from the root of a checkout)::

    python3 perfbench/run.py --workload replay-summary --seed 0 --seconds 32 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off:
``setup_s`` (process start to ready, median of several fresh
processes), ``items_per_s`` (simulated requests, or scored candidates,
per host second: the median over the passes of one fresh process) and
``peak_rss_mb`` (that process's ``ru_maxrss``).  ``--trace 1`` runs the traced repetitions instead and
reports the per-layer split.  Either way every simulated output is
checked, the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``, and the full result
record (stamped with commit, nproc, Python/numpy versions, seed and run
length) is written to ``--out`` (default ``perfbench/out/``).

Compare two result records metric by metric::

    python3 perfbench/run.py --compare OLD.json NEW.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("replay-summary", "fleet-chaos", "tune-cold")

#: Fresh processes that only set up, for the setup_s median (the
#: measuring process adds one more sample).
SETUP_PROBES = 4
#: Seconds a worker may run past the measured interval before it is killed.
GRACE_S = 100.0

#: Each metric's unit, as BENCHMARK.json declares it.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"] + SPEC["per_layer"]}


def spawn(workload: str, seed: int, mode: str, seconds: float) -> tuple[float | None, dict | None]:
    """Run one worker process to completion.

    Returns (seconds from process start to its READY line, its RESULT
    payload); either is None when the worker never printed it.
    """
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--mode", mode,
        "--seconds", str(seconds),
    ]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(seconds + GRACE_S, proc.kill)
    watchdog.start()
    ready = result = None
    try:
        for line in proc.stdout:
            if line.startswith("READY") and ready is None:
                ready = time.perf_counter() - start
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
    finally:
        watchdog.cancel()
        proc.stdout.close()
        proc.wait()
    if proc.returncode != 0:
        return ready, None
    return ready, result


def stamp() -> dict:
    """Where and on what a result was measured."""
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
    }


def run_untraced(workload: str, seed: int, seconds: float) -> tuple[dict, dict, dict]:
    setups = [spawn(workload, seed, "setup", seconds)[0] for _ in range(SETUP_PROBES)]
    ready, result = spawn(workload, seed, "measure", seconds)
    setups.append(ready)
    if result is None or None in setups:
        raise RuntimeError(f"{workload}: a worker process failed")
    # The median pass, not the total: a burst of load from other tenants
    # of a shared host that slows a few passes does not move it.
    rates = [items / pass_s for items, pass_s in zip(result["items"], result["pass_s"])]
    metrics = {
        "setup_s": statistics.median(setups),
        "items_per_s": statistics.median(rates),
        "peak_rss_mb": result["rss_mb"],
    }
    detail = {
        "setup_samples_s": setups,
        "pass_s": result["pass_s"],
        "items_per_pass": result["items"],
        "outputs": result["outputs"],
    }
    return metrics, result, detail


def run_traced(workload: str, seed: int, seconds: float) -> tuple[dict, dict, dict]:
    _, result = spawn(workload, seed, "trace", seconds)
    if result is None:
        raise RuntimeError(f"{workload}: the traced worker failed")
    detail = {"untraced_wall_s": result["plain_wall_s"], "last_traced": result["last_traced"]}
    return result["metrics"], result, detail


def print_layers(last: dict) -> None:
    """Each layer's share of the last traced repetition's wall time."""
    if not last:
        return
    wall, layers = last["wall_s"], last["layers_self_s"]
    print(f"layer split of the last traced repetition ({wall:.3f} s wall):")
    rows = sorted(layers.items(), key=lambda kv: -kv[1])
    rows.append(("(outside spans)", wall - sum(layers.values())))
    for layer, self_s in rows:
        print(f"  {layer:<18} {self_s:9.4f} s  {100.0 * self_s / wall:6.2f} %")
    print("spans (self time, heaviest first):")
    for row in last["spans"]:
        print(
            f"  {row['span']:<30} <- {row['parent']:<26} "
            f"{row['calls']:>9} calls {row['incl_s']:9.4f} s incl {row['self_s']:9.4f} s self"
        )


def compare(old_path: str, new_path: str) -> int:
    old = json.loads(Path(old_path).read_text())
    new = json.loads(Path(new_path).read_text())
    for key in ("workload", "seed", "seconds", "trace", "commit", "src_sha256", "nproc", "python", "numpy"):
        marker = "" if old.get(key) == new.get(key) else "   <- differs"
        print(f"{key:<12} {old.get(key)!s:<42} {new.get(key)!s}{marker}")
    print(f"{'metric':<30} {'unit':<6} {'old':>14} {'new':>14} {'change':>9}")
    for name in sorted(set(old["metrics"]) | set(new["metrics"])):
        a = old["metrics"].get(name)
        b = new["metrics"].get(name)
        change = f"{100.0 * (b - a) / abs(a):+8.2f}%" if a and b is not None else "       -"
        print(f"{name:<30} {UNITS.get(name, '?'):<6} {a!s:>14.14} {b!s:>14.14} {change}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="result record path (default perfbench/out/...)")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    runner = run_traced if args.trace else run_untraced
    try:
        metrics, result, detail = runner(args.workload, args.seed, args.seconds)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    error_rate = result["failed"] / max(result["attempted"], 1)
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: "
        f"{result['attempted']} runs checked, {result['failed']} failed, "
        f"error_rate {error_rate:g} ({time.perf_counter() - started:.1f} s)"
    )
    if args.trace:
        print_layers(detail["last_traced"])
    else:
        print(
            f"  items_per_s is the median of {len(detail['pass_s'])} passes; setup_s the median of "
            f"{len(detail['setup_samples_s'])} processes"
        )
    for name, value in metrics.items():
        print(f"  {name:<30} {value:>16.6g} {UNITS[name]}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **stamp(),
        "metrics": metrics,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "error_rate": error_rate,
        "problems": result["problems"],
        **detail,
    }
    out = Path(args.out) if args.out else HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")

    summary = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
