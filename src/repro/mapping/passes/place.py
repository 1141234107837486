"""``place_units``: allocate physical grid units for every stage.

Replays the monolith's greedy nearest-available allocation order
exactly — the :class:`~repro.mapping.mapper._Placer` is stateful, so the
*order* of takes determines every coordinate: per gate, dot PCUs near
the load anchor, then weight PMUs and ``[x, h]`` PMUs near the first dot
PCU, then accumulate PCUs near the dot centroid and LUT PMUs beside
them; finally the element-wise PCUs near the accumulate centroid.  Any
deviation here is caught by the differential parity suite.

Each take stable-sorts the free pool by Manhattan distance to its
anchor (ties keep pool order), with the distance inlined in the sort
key; it dominated the cold-tune profile when it called
``GridLayout.manhattan`` per coordinate.  Placement is
config-independent, so the chip tuner runs this pass once per
parameter point and every pass config's tail works on a
``MappingState.fork()``, which copies the placer's free lists.
"""

from __future__ import annotations

from repro.mapping.mapper import _centroid, _Placer
from repro.mapping.passes.core import MappingPass, MappingState, register_pass
from repro.plasticine.network import Coord

__all__ = ["PlaceUnits"]


@register_pass("place_units")
class PlaceUnits(MappingPass):
    """Greedy locality-aware placement of all stage drafts on the grid."""

    requires = ("plan_gates",)

    def run(self, state: MappingState) -> None:
        chip = state.chip
        placer = _Placer(chip)
        state.placer = placer
        hu = state.hu
        anchor: Coord = (chip.layout.rows // 2, 0)
        state.anchor = anchor
        state.stage("load_x").coord = anchor

        for plan in state.gate_plans:
            dot = state.stage(plan.dot_name)
            dot_pcus = placer.take_pcus(plan.n_dot_pcus * hu, anchor)
            state.pcus_allocated += len(dot_pcus)
            # Two PMUs per dot PCU: the weight slice and the [x, h] copy.
            weight_pmus = placer.take_pmus(plan.n_dot_pcus * hu, dot_pcus[0])
            xh_pmus = placer.take_pmus(plan.n_dot_pcus * hu, dot_pcus[0])
            state.pmus_allocated += len(weight_pmus) + len(xh_pmus)
            state.state_pmu_coords.extend(xh_pmus)
            dot.coord = _centroid(dot_pcus)
            dot.units_pcu = tuple(dot_pcus)
            dot.units_pmu = tuple(weight_pmus) + tuple(xh_pmus)
            plan.dot_pcus = tuple(dot_pcus)
            plan.replica0 = tuple(dot_pcus[: plan.n_dot_pcus])
            plan.weight_pmus = tuple(weight_pmus)
            plan.xh_pmus = tuple(xh_pmus)

            accum = state.stage(plan.accum_name)
            accum_units = placer.take_pcus(plan.accum_pcus * hu, dot.coord)
            state.pcus_allocated += len(accum_units)
            lut_pmus = placer.take_pmus(hu, accum_units[0])
            state.pmus_allocated += len(lut_pmus)
            accum.coord = accum_units[0]
            accum.units_pcu = tuple(accum_units)
            accum.units_pmu = tuple(lut_pmus)
            plan.accum_units = tuple(accum_units)
            plan.lut_pmus = tuple(lut_pmus)
            state.accum_coords.append(accum_units[0])

        ew = state.stage("ew")
        ew_plan = state.ew_plan
        ew_anchor = _centroid(state.accum_coords)
        state.ew_anchor = ew_anchor
        ew_units = placer.take_pcus(ew_plan.ew_pcus * hu, ew_anchor)
        state.pcus_allocated += len(ew_units)
        ew_pmu_units = placer.take_pmus(ew_plan.ew_n_pmus * hu, ew_units[0])
        state.pmus_allocated += len(ew_pmu_units)
        ew.coord = ew_units[0]
        ew.units_pcu = tuple(ew_units)
        ew.units_pmu = tuple(ew_pmu_units)
        ew_plan.ew_units = tuple(ew_units)
        ew_plan.ew_pmu_units = tuple(ew_pmu_units)

        state.stage("writeback").coord = ew_units[0]
        state.log(
            f"placed {state.pcus_allocated} PCUs and {state.pmus_allocated} PMUs "
            f"(overflow: {placer.overflow_pcus} PCU / {placer.overflow_pmus} PMU)"
        )
