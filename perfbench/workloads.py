"""The benchmark's three workloads.

Each workload is driven the same way by ``worker.py``:

* ``setup()`` makes the process ready to serve (engine or fleet built
  and compiled for the serving workloads; nothing beyond imports for
  the search workload) and returns its state;
* ``reset()`` drops process-level caches so each pass starts as cold as
  a fresh command-line run would;
* ``run(state, seed)`` performs one pass on the inputs made from
  ``seed`` and returns ``(outputs, counters)``: ``outputs`` are the
  simulated results (compared between the traced and untraced run, and
  against ``PINNED`` for ``DEFAULT_SEED``); ``counters`` are execution
  counts that feed the traced run's per-layer metrics;
* ``check(outputs)`` returns the invariant violations (any seed),
  ``reference(state, seed, outputs)`` those found by an independent
  recomputation (run once per benchmark run, outside the timed passes).

Load comes from seeded arrival schedules consumed as fast as the
simulator can go: no clients, threads or sockets.  Every workload runs
the default sequential path (``workers`` unset).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import tracer

#: The input seed whose simulated outputs ``PINNED`` fixes exactly.
DEFAULT_SEED = 0


def pass_seed(seed: int, index: int) -> int:
    """Input seed of pass ``index`` in a run given ``--seed seed``.

    Each pass replays fresh inputs, so one run averages over several
    arrival schedules and fault timelines instead of timing just one;
    pass 0 of ``--seed 0`` is ``DEFAULT_SEED``.
    """
    return seed * 10_000 + index


class ReplaySummary:
    """One Plasticine replica serving lstm-1024 from a lazy Poisson stream
    (FIFO, batch 1, summary mode, presorted): the paper's batch-1
    serving scenario at million-request scale."""

    name = "replay-summary"
    N_REQUESTS = 1_000_000
    #: ~89% utilization of the 30.6 us lstm-1024 service time, so queues
    #: form and the SLO below is missed by a small, seed-dependent share.
    RATE_PER_S = 29_000.0
    SLO_MS = 0.25

    def setup(self) -> dict:
        from repro.serving import ServingEngine
        from repro.workloads.deepbench import task

        engine = tracer.watch("engine", ServingEngine("plasticine"))
        rnn = task("lstm", 1024, 25)
        engine.prepare(rnn)
        return {"engine": engine, "task": rnn}

    def reset(self) -> None:
        pass

    def arrivals(self, state: dict, seed: int):
        from repro.serving import poisson_arrivals

        return poisson_arrivals(
            state["task"],
            rate_per_s=self.RATE_PER_S,
            n_requests=self.N_REQUESTS,
            seed=seed,
            materialize=False,
        )

    def run(self, state: dict, seed: int) -> tuple[dict, dict]:
        summary = state["engine"].serve_stream(
            tracer.stream(self.arrivals(state, seed)),
            slo_ms=self.SLO_MS,
            mode="summary",
            presorted=True,
        )
        outputs = {
            "n": summary.n_requests,
            "slo_attainment": summary.slo_attainment,
            "mean_ms": summary.mean_ms,
            "p99_ms": summary.p99_ms,
        }
        return outputs, {}

    def items(self, outputs: dict) -> int:
        return outputs["n"]

    def check(self, outputs: dict) -> list[str]:
        problems = []
        if outputs["n"] != self.N_REQUESTS:
            problems.append(f"served {outputs['n']} of {self.N_REQUESTS} arrivals")
        if not 0.0 <= outputs["slo_attainment"] <= 1.0:
            problems.append(f"SLO attainment {outputs['slo_attainment']} outside [0, 1]")
        return problems

    def reference(self, state: dict, seed: int, outputs: dict) -> list[str]:
        """Recompute the replay with the single-server recursion
        ``start = max(arrival, free_at)`` over the same arrivals: n, SLO
        misses and the mean must match exactly, P99 to the summary's
        histogram resolution."""
        import numpy as np

        latency = state["engine"].result_for(state["task"]).latency_s
        free_at = 0.0
        total_ms = 0.0
        misses = 0
        sojourns = []
        for request in self.arrivals(state, seed):
            arrival = request.arrival_s
            finish = (arrival if arrival > free_at else free_at) + latency
            free_at = finish
            sojourn_ms = (finish - arrival) * 1e3
            total_ms += sojourn_ms
            misses += sojourn_ms > self.SLO_MS
            sojourns.append(sojourn_ms)
        n = len(sojourns)
        expected = {
            "n": n,
            "slo_attainment": 1.0 - misses / n,
            "mean_ms": total_ms / n,
        }
        problems = [
            f"{key}: simulated {outputs[key]!r}, recomputed {value!r}"
            for key, value in expected.items()
            if outputs[key] != value
        ]
        p99 = float(np.percentile(np.asarray(sojourns), 99.0))
        if abs(outputs["p99_ms"] - p99) > 0.02 * p99:
            problems.append(f"p99_ms: simulated {outputs['p99_ms']!r}, recomputed {p99!r}")
        return problems


class FleetChaos:
    """A mixed fleet under chaos faults, EDF scheduling and bucket
    batching, serving two tenants with Zipf sequence lengths."""

    name = "fleet-chaos"
    FLEET = "plasticine:2,brainwave:1,gpu:1"
    N_PER_TENANT = 20_000
    #: Per tenant.  High enough that batches form (mean batch ~1.2) and
    #: every outcome (ok, retried, hedged, timeout) shows on any seed.
    RATE_PER_S = 12_000.0
    SLO_MS = 5.0
    TIMEOUT_MS = 2.0
    RETRIES = 1
    HEDGE_MS = 1.0
    OUTCOMES = ("hedged", "ok", "retried", "timeout")

    def setup(self) -> dict:
        from repro.serving import Fleet, ZipfLength
        from repro.workloads.deepbench import task

        fleet = tracer.watch("fleet", Fleet(self.FLEET, policy="least-loaded"))
        tenants = (
            ("speech", task("lstm", 1024, 25)),
            ("translate", task("gru", 1024, 1500)),
        )
        for engine in fleet.engines:
            for _, rnn in tenants:
                engine.prepare(rnn)
        return {
            "fleet": fleet,
            "tenants": tenants,
            "lengths": ZipfLength(10, 400),
        }

    def reset(self) -> None:
        pass

    def arrivals(self, state: dict, seed: int):
        from repro.serving import mix, poisson_arrivals

        return mix(
            *(
                poisson_arrivals(
                    rnn,
                    rate_per_s=self.RATE_PER_S,
                    n_requests=self.N_PER_TENANT,
                    seed=2 * seed + i,
                    tenant=tenant,
                    lengths=state["lengths"],
                    materialize=False,
                )
                for i, (tenant, rnn) in enumerate(state["tenants"])
            ),
            presorted=True,
        )

    def _serve(self, state: dict, seed: int, arrivals, mode: str):
        return state["fleet"].serve_stream(
            arrivals,
            slo_ms=self.SLO_MS,
            scheduler="edf",
            batcher="bucket",
            mode=mode,
            presorted=True,
            faults="chaos",
            fault_seed=seed,
            timeout_ms=self.TIMEOUT_MS,
            retries=self.RETRIES,
            hedge_ms=self.HEDGE_MS,
        )

    @staticmethod
    def _outputs(report) -> dict:
        return {
            "n": report.n_requests,
            "outcomes": {k: v.n_requests for k, v in sorted(report.per_outcome().items())},
            "mean_batch": report.mean_batch_size,
            "p99_ms": report.p99_ms,
        }

    def run(self, state: dict, seed: int) -> tuple[dict, dict]:
        stream = tracer.stream(self.arrivals(state, seed))
        summary = self._serve(state, seed, stream, "summary")
        return self._outputs(summary), {}

    def items(self, outputs: dict) -> int:
        return outputs["n"]

    def check(self, outputs: dict) -> list[str]:
        problems = []
        arrivals = 2 * self.N_PER_TENANT
        if sum(outputs["outcomes"].values()) != arrivals or outputs["n"] != arrivals:
            problems.append(f"outcomes {outputs['outcomes']} do not add up to {arrivals} arrivals")
        missing = [o for o in self.OUTCOMES if not outputs["outcomes"].get(o)]
        if missing:
            problems.append(f"outcomes never seen: {missing}")
        if not outputs["mean_batch"] > 1.05:
            problems.append(f"mean batch {outputs['mean_batch']} too close to 1: batches do not form")
        return problems

    def reference(self, state: dict, seed: int, outputs: dict) -> list[str]:
        """Replay the same stream in full mode (every response kept):
        the summary's counts and mean batch must match it exactly."""
        full = self._outputs(self._serve(state, seed, self.arrivals(state, seed), "full"))
        return [
            f"{key}: summary {outputs[key]!r}, full replay {full[key]!r}"
            for key in ("n", "outcomes", "mean_batch")
            if outputs[key] != full[key]
        ]


class TuneCold:
    """Cold ``tune(..., pass_axis=True)`` over two Table 6/7 tasks: empty
    evaluation memo, no on-disk cache.  The seed does not change the
    inputs: the search is deterministic."""

    name = "tune-cold"
    seed_free = True
    TASKS = (("lstm", 2048, 25), ("gru", 1024, 1500))

    def setup(self) -> dict:
        from repro.workloads.deepbench import task

        return {"tasks": [task(*spec) for spec in self.TASKS]}

    def reset(self) -> None:
        # The per-process evaluation memo; a command-line run starts empty.
        import importlib

        importlib.import_module("repro.dse.search")._MEMO.clear()

    def run(self, state: dict, seed: int) -> tuple[dict, dict]:
        from repro.dse import tune
        from repro.harness.paper_data import paper_row

        outputs: dict = {"tasks": {}}
        counters = {"candidates": 0, "memo_hits": 0}
        errors = []
        for rnn in state["tasks"]:
            result = tracer.call("dse.tune", tune, rnn, pass_axis=True)
            best = result.best
            outputs["tasks"][rnn.name] = {
                "params": [best.params.hu, best.params.ru, best.params.rv, best.params.hv],
                "pass_config": [best.pass_config.fuse_gates, best.pass_config.double_buffer],
                "total_cycles": best.total_cycles,
                "candidates": len(result.points),
            }
            paper_ms = paper_row(rnn.kind, rnn.hidden).latency_plasticine_ms
            errors.append(abs(best.latency_s * 1e3 - paper_ms) / paper_ms * 100.0)
            counters["candidates"] += result.stats.candidates
            counters["memo_hits"] += result.stats.memo_hits
        #: Mean |simulated - Table 6| / Table 6 latency of the tuned
        #: designs, in percent: a model output a speed change must keep.
        outputs["model_err_pct"] = sum(errors) / len(errors)
        return outputs, counters

    def items(self, outputs: dict) -> int:
        return sum(t["candidates"] for t in outputs["tasks"].values())

    def check(self, outputs: dict) -> list[str]:
        problems = []
        if not math.isfinite(outputs["model_err_pct"]):
            problems.append("model error is not finite")
        for name, result in outputs["tasks"].items():
            if result["total_cycles"] <= 0:
                problems.append(f"{name}: non-positive cycle count")
        return problems

    def reference(self, state: dict, seed: int, outputs: dict) -> list[str]:
        return []


WORKLOADS = {w.name: w for w in (ReplaySummary(), FleetChaos(), TuneCold())}

#: Exact simulated outputs for ``DEFAULT_SEED`` (tune-cold: any seed),
#: per workload.  Regenerate only for a change that is meant to move
#: the model's answers, and say so in that change.
PINNED: dict[str, dict] = json.loads((Path(__file__).parent / "pinned.json").read_text())
