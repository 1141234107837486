"""Queue-depth/SLO-driven fleet autoscaling for stream simulations.

The ROADMAP's north star is elastic capacity for "heavy traffic from
millions of users": a fixed replica count either over-provisions the
quiet hours or saturates under bursts.  An :class:`Autoscaler` attached
to :meth:`Fleet.serve_stream <repro.serving.fleet.Fleet.serve_stream>`
grows and shrinks the *active* replica set while the discrete-event loop
runs:

* **scale up** when the ready-queue backlog exceeds
  ``depth_per_replica`` waiting requests per active replica, or (with an
  SLO configured) when the projected wait for a new arrival eats more
  than ``slo_headroom`` of the latency budget;
* **scale down**, one replica at a time, when the backlog is empty and
  at least one active replica is idle;
* both directions respect ``min_replicas``/``max_replicas`` bounds and a
  ``cooldown_s`` between consecutive scale events.

Scaling is deterministic — it is part of the simulation, driven only by
simulated time and queue state, so a given stream always produces the
same :class:`ScaleEvent` log (recorded on the resulting
:class:`~repro.serving.stats.StreamSummary`).  Replicas added during a
run share the fleet's prepared-model cache, so scaling up never
recompiles a task the fleet has already seen.

Example::

    >>> from repro.serving import Autoscaler
    >>> scaler = Autoscaler(min_replicas=1, max_replicas=4)
    >>> scaler.reset()
    >>> d = scaler.decide(now=0.1, active=1, queue_depth=9,
    ...                   projected_wait_s=0.0, slo_ms=None)
    >>> (d.target, d.action)
    (3, 'up')
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ServingError

__all__ = ["Autoscaler", "ScaleDecision", "ScaleEvent"]


@dataclass(frozen=True)
class ScaleDecision:
    """What the policy wants: a target active-replica count and why.

    Example::

        >>> from repro.serving import ScaleDecision
        >>> ScaleDecision(target=3, action="up", reason="backlog").target
        3
    """

    target: int
    action: str  # "up" | "down"
    reason: str


@dataclass(frozen=True)
class ScaleEvent:
    """One applied scaling action, recorded on the stream report.

    Attributes:
        time_s: Simulated time the fleet resized.
        action: ``"up"`` or ``"down"``.
        replicas: Active replica count *after* the action.
        queue_depth: Requests waiting across active replicas at the time.
        reason: Human-readable trigger from the policy.

    Example::

        >>> from repro.serving import ScaleEvent
        >>> e = ScaleEvent(0.25, "up", 3, 12, "queue depth 12 > 4.0/replica")
        >>> (e.action, e.replicas, e.queue_depth)
        ('up', 3, 12)
    """

    time_s: float
    action: str
    replicas: int
    queue_depth: int
    reason: str


class Autoscaler:
    """The built-in queue-depth/SLO-driven scaling policy.

    Args:
        min_replicas: Floor for the active replica count (also the
            fleet's starting size when autoscaling a stream).
        max_replicas: Ceiling for the active replica count.
        depth_per_replica: Waiting requests per active replica the
            policy tolerates before growing; the scale-up target is
            ``ceil(queue_depth / depth_per_replica)``.
        slo_headroom: With an SLO configured, scale up when the
            projected queueing wait for a new arrival exceeds this
            fraction of the SLO budget.
        cooldown_s: Minimum simulated time between scale events.

    Example::

        >>> from repro.serving import Autoscaler
        >>> scaler = Autoscaler(min_replicas=2, max_replicas=8,
        ...                     depth_per_replica=4.0, cooldown_s=0.0)
        >>> scaler.reset()
        >>> scaler.decide(now=0.0, active=2, queue_depth=0,
        ...               projected_wait_s=0.0, slo_ms=None)  # nothing to do
        >>> scaler.decide(now=1.0, active=4, queue_depth=0,
        ...               projected_wait_s=0.0, slo_ms=None).action
        'down'
    """

    def __init__(
        self,
        *,
        min_replicas: int = 1,
        max_replicas: int = 8,
        depth_per_replica: float = 4.0,
        slo_headroom: float = 0.5,
        cooldown_s: float = 0.02,
    ) -> None:
        if min_replicas < 1:
            raise ServingError("min_replicas must be >= 1")
        if max_replicas < min_replicas:
            raise ServingError("max_replicas must be >= min_replicas")
        if depth_per_replica <= 0:
            raise ServingError("depth_per_replica must be positive")
        if not 0 < slo_headroom <= 1:
            raise ServingError("slo_headroom must be in (0, 1]")
        if cooldown_s < 0:
            raise ServingError("cooldown_s must be >= 0")
        self.min_replicas = min_replicas
        self.max_replicas = max_replicas
        self.depth_per_replica = depth_per_replica
        self.slo_headroom = slo_headroom
        self.cooldown_s = cooldown_s
        self._last_event_s = -math.inf

    def reset(self) -> None:
        """Clear cooldown state; called by the event loop per stream."""
        self._last_event_s = -math.inf

    def decide(
        self,
        *,
        now: float,
        active: int,
        queue_depth: int,
        projected_wait_s: float,
        slo_ms: float | None,
    ) -> ScaleDecision | None:
        """Evaluate the policy at one instant of the simulation.

        Args:
            now: Simulated time.
            active: Current active replica count.
            queue_depth: Requests waiting (not yet serving) across the
                active replicas.
            projected_wait_s: Queueing wait a new arrival would face on
                the least-loaded active replica.
            slo_ms: The stream-level SLO, if any.

        Returns:
            A :class:`ScaleDecision` with a target different from
            ``active``, or ``None`` to leave the fleet alone.

        Deciding is side-effect free: the cooldown clock only advances
        when the caller actually applies the resize and says so via
        :meth:`note_applied`.  (It used to be charged here, so a
        decision the loop could not honor — scale-up with no replica
        factory — silently suppressed every later decision for a
        cooldown window.)
        """
        if now - self._last_event_s < self.cooldown_s:
            return None
        return self._evaluate(
            active=active,
            queue_depth=queue_depth,
            projected_wait_s=projected_wait_s,
            slo_ms=slo_ms,
        )

    def note_applied(self, now: float) -> None:
        """Start the cooldown window: the fleet resized at ``now``.

        Example::

            >>> from repro.serving import Autoscaler
            >>> scaler = Autoscaler(min_replicas=1, max_replicas=4,
            ...                     cooldown_s=1.0)
            >>> scaler.reset()
            >>> scaler.note_applied(0.0)
            >>> scaler.decide(now=0.5, active=1, queue_depth=99,
            ...               projected_wait_s=0.0, slo_ms=None) is None
            True
        """
        self._last_event_s = now

    def _evaluate(
        self,
        *,
        active: int,
        queue_depth: int,
        projected_wait_s: float,
        slo_ms: float | None,
    ) -> ScaleDecision | None:
        # Scale up: backlog beyond the per-replica depth budget, sized to
        # absorb the whole backlog in one step.
        if queue_depth > self.depth_per_replica * active:
            target = min(
                self.max_replicas,
                max(active + 1, math.ceil(queue_depth / self.depth_per_replica)),
            )
            if target > active:
                return ScaleDecision(
                    target,
                    "up",
                    f"queue depth {queue_depth} > "
                    f"{self.depth_per_replica:g}/replica across {active}",
                )
        # Scale up: the SLO budget is being eaten by queueing alone.
        if slo_ms is not None:
            budget_s = self.slo_headroom * slo_ms / 1e3
            if projected_wait_s > budget_s and active < self.max_replicas:
                return ScaleDecision(
                    active + 1,
                    "up",
                    f"projected wait {projected_wait_s * 1e3:.3g} ms > "
                    f"{self.slo_headroom:g} of {slo_ms:g} ms SLO",
                )
        # Scale down: no backlog and spare capacity — shed one replica.
        if (
            queue_depth == 0
            and projected_wait_s <= 0.0
            and active > self.min_replicas
        ):
            return ScaleDecision(active - 1, "down", "idle capacity, empty queue")
        return None
