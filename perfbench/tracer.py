"""Span tracer for the benchmark's traced run.

Nothing here edits the simulator.  The tracer times calls into each
layer's public functions from outside: it wraps methods on *instances*
(engines, fleets, schedulers, batchers, fault policies, stream
summaries) and swaps *module attributes* (the names a layer looks up at
call time, e.g. ``repro.dse.search.build_task_program``).  It never
overrides a type-level method, so ``run_stream`` picks the same loop
(its fast paths test ``type(batcher).hold_until`` and the exact
FIFO/``NoneBatcher`` types) and the traced run simulates exactly what
the untraced run does.

Spans nest: each one records the span that was open when it started.
Per ``(parent, name)`` pair the tracer keeps the call count, the
inclusive time and the *self* time (inclusive minus the time of the
spans it caused), so memory stays O(distinct pairs) even over a
million-request stream, and summing self times counts no layer twice.
A span is named ``<layer>.<operation>``.

With no tracer active, :func:`watch` and :func:`call` hand objects back
unchanged, so the untraced run pays nothing.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from typing import Callable, Iterable, Iterator

#: The tracer of the traced repetition in progress, or None.
ACTIVE: "Tracer | None" = None

#: Methods wrapped on each kind of instance, with the span they open.
_METHODS = {
    "engine": (
        ("result_for", "engine.cost.result_for"),
        ("batch_latency_s", "engine.cost.batch_latency_s"),
        ("serve_batched", "engine.cost.serve_batched"),
        ("serve_stream", "events.serve_stream"),
    ),
    "fleet": (("serve_stream", "events.serve_stream"),),
    "summary": (("observe_served", "stats.fold"),),
    "scheduler": (
        ("push", "scheduler.push"),
        ("pop", "scheduler.pop"),
        ("peek", "scheduler.peek"),
    ),
    "batcher": (("hold_until", "batching.hold_until"), ("take", "batching.take")),
    "faults": (
        ("next_crash", "faults.next_crash"),
        ("straggler_factor", "faults.straggler_factor"),
        ("preempts", "faults.preempts"),
    ),
}


class Tracer:
    """Aggregated nested spans plus named counters."""

    def __init__(self) -> None:
        #: (parent span name, span name) -> [calls, inclusive_s, self_s]
        self.spans: dict[tuple[str, str], list] = {}
        self.counts: Counter = Counter()
        #: Every engine the traced run created (for memo hit ratios).
        self.engines: list = []
        self._stack: list[list] = [["", 0.0]]
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------

    def _close(self, parent: list, name: str, elapsed: float, child_s: float) -> None:
        parent[1] += elapsed
        key = (parent[0], name)
        record = self.spans.get(key)
        if record is None:
            self.spans[key] = [1, elapsed, elapsed - child_s]
        else:
            record[0] += 1
            record[1] += elapsed
            record[2] += elapsed - child_s

    def span(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so every call records one ``name`` span."""
        stack = self._stack
        clock = time.perf_counter
        close = self._close

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            parent = stack[-1]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                close(parent, name, elapsed, frame[1])

        return traced

    def iterate(self, name: str, iterable: Iterable) -> Iterator:
        """Re-yield ``iterable``, timing each ``next()`` as a span.

        Only the time spent producing an item counts; the consumer's
        work between items belongs to the consumer's own span.
        """
        advance = self.span(name, iter(iterable).__next__)
        counts = self.counts
        while True:
            try:
                item = advance()
            except StopIteration:
                return
            counts[name + ".items"] += 1
            yield item

    # -- instances --------------------------------------------------------

    def watch(self, kind: str, obj):
        """Wrap ``obj``'s layer methods on the instance; returns ``obj``."""
        for attr, name in _METHODS[kind]:
            setattr(obj, attr, self.span(name, getattr(obj, attr)))
        if kind == "engine":
            platform = obj.platform
            platform.prepare = self.span("engine.compile", platform.prepare)
            self.engines.append(obj)
        # A fleet's engines come from the patched ``ServingEngine``.
        return obj

    def _made(self, kind: str) -> Callable[[Callable], Callable]:
        """Wrap a constructor/factory so what it makes is watched."""

        def wrap(make: Callable) -> Callable:
            return lambda *args, **kwargs: self.watch(kind, make(*args, **kwargs))

        return wrap

    def _mapped(self, fn: Callable) -> Callable:
        """``map_rnn_program`` that also banks the per-pass timings the
        pass manager records on every design it returns."""
        counts = self.counts

        def mapped(*args, **kwargs):
            design = fn(*args, **kwargs)
            for timing in design.pass_timings:
                counts[f"mapping.{timing.name}_s"] += timing.seconds
            return design

        return self.span("mapping.map", mapped)

    # -- module attributes --------------------------------------------------

    def _patch(self, owner: object, attr: str, wrap: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    def install(self) -> "Tracer":
        """Swap the traced module attributes in and make this tracer active."""
        global ACTIVE
        # import_module, not ``import a.b as c``: ``repro.dse`` re-exports
        # a *function* named ``search`` that shadows the submodule.
        search, verify, engine_mod, fleet_mod, platforms = (
            importlib.import_module(f"repro.{name}")
            for name in (
                "dse.search",
                "mapping.passes.verify",
                "serving.engine",
                "serving.fleet",
                "serving.platforms",
            )
        )

        build = lambda fn: self.span("rnn.build", fn)  # noqa: E731
        simulate = lambda fn: self.span("plasticine.sim", fn)  # noqa: E731
        self._patch(search, "build_task_program", build)
        for module in (search, platforms):
            self._patch(module, "map_rnn_program", self._mapped)
            self._patch(module, "simulate_pipeline", simulate)
        self._patch(verify, "verify_state", lambda fn: self.span("mapping.verify", fn))
        for module in (engine_mod, fleet_mod):
            self._patch(module, "StreamSummary", self._made("summary"))
            self._patch(module, "make_scheduler", self._made("scheduler"))
            self._patch(module, "make_batcher", self._made("batcher"))
            self._patch(module, "make_fault_policy", self._made("faults"))
        self._patch(fleet_mod, "ServingEngine", self._made("engine"))
        ACTIVE = self
        return self

    def uninstall(self) -> None:
        global ACTIVE
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        ACTIVE = None

    # -- readout ------------------------------------------------------------

    def self_s(self, prefix: str) -> float:
        """Summed self time of every span whose name starts with ``prefix``."""
        return sum(r[2] for (_, name), r in self.spans.items() if name.startswith(prefix))

    def calls(self, prefix: str, *, from_outside: bool = False) -> int:
        """Calls of spans named ``prefix*``; with ``from_outside``, only
        calls whose parent is not itself a ``prefix*`` span (so
        ``batch_latency_s`` -> ``serve_batched`` counts once)."""
        return sum(
            r[0]
            for (parent, name), r in self.spans.items()
            if name.startswith(prefix)
            and not (from_outside and parent.startswith(prefix))
        )

    def layer_self_s(self) -> dict[str, float]:
        """Self time per layer (the span name's first component)."""
        out: dict[str, float] = {}
        for (_, name), record in self.spans.items():
            layer = name.split(".")[0]
            out[layer] = out.get(layer, 0.0) + record[2]
        return out

    def span_rows(self) -> list[dict]:
        """Every (parent, span) pair, heaviest self time first."""
        rows = [
            {"span": name, "parent": parent or "-", "calls": r[0], "incl_s": r[1], "self_s": r[2]}
            for (parent, name), r in self.spans.items()
        ]
        return sorted(rows, key=lambda row: -row["self_s"])


def watch(kind: str, obj):
    """Instrument ``obj`` when a traced run is in progress."""
    return obj if ACTIVE is None else ACTIVE.watch(kind, obj)


def call(name: str, fn: Callable, *args, **kwargs):
    """Call ``fn`` inside a ``name`` span when tracing, plainly otherwise."""
    if ACTIVE is None:
        return fn(*args, **kwargs)
    return ACTIVE.span(name, fn)(*args, **kwargs)


def stream(iterable: Iterable) -> Iterable:
    """The arrival iterator, timed as the traffic layer when tracing."""
    return iterable if ACTIVE is None else ACTIVE.iterate("traffic.next", iterable)
