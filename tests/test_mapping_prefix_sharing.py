"""Lowering one parameter point once: the shared mapping prefix.

The DSE lowers the config-independent prefix of the default pipeline
(``DEFAULT_PIPELINE[:-1]``) once per parameter point and runs each pass
config's tail on a ``MappingState.fork()`` of it (the last config on
the prefix itself).  Every result must equal an independent
``map_rnn_program`` + ``simulate_pipeline`` of the same config, whatever
the config order, and running the forks must leave the prefix as it was.
"""

import pytest

from repro.dse.search import (
    _MEMO,
    _evaluate_params,
    _evaluate_program,
    _memo_key,
    _SearchJob,
    build_task_program,
)
from repro.dse.space import ParameterSpace
from repro.errors import MappingError
from repro.mapping.mapper import map_rnn_program
from repro.mapping.passes import DEFAULT_PIPELINE, PassConfig, PassManager, diff_designs
from repro.mapping.passes.optimize import FuseGates
from repro.plasticine.chip import PlasticineConfig
from repro.rnn.lstm_loop import LoopParams
from repro.workloads.deepbench import RNNTask, task

CHIP = PlasticineConfig.rnn_serving()
CONFIGS = ParameterSpace.with_pass_axis().pass_configs

#: The ``bench_pass_pipeline.py`` parity matrix: kind, hidden, bits, (hu, ru).
PARITY_MATRIX = (
    ("lstm", 256, 8, (2, 2)),
    ("lstm", 1024, 8, (4, 8)),
    ("lstm", 1152, 16, (4, 8)),
    ("gru", 512, 8, (4, 4)),
    ("gru", 1536, 32, (2, 4)),
)


def _parity_program(kind, hidden, hu, ru):
    return build_task_program(
        RNNTask(kind, hidden, 4), LoopParams(hu=hu, ru=ru, rv=64)
    )


def _job(rnn, params, configs=CONFIGS, bits=8):
    return _SearchJob(
        task=rnn,
        params=params,
        chip=CHIP,
        bits=bits,
        require_capacity=False,
        pass_configs=tuple(configs),
    )


def _shared_records(job):
    """Run one job on a cold memo and read back what it stored."""
    _MEMO.clear()
    _evaluate_params(job)
    return {
        pc: _MEMO.get(_memo_key(job.task, job.params, job.chip, job.bits, pc))
        for pc in job.pass_configs
    }


def _snapshot(state):
    """Everything a tail pass could mutate, as plain values."""
    return (
        [(n, d.ii, d.latency, d.n_pcus, d.n_pmus, d.coord, d.units_pcu, d.units_pmu)
         for n, d in state.stages.items()],
        [(e.src, e.dst, e.route) for e in state.edges],
        [(p.accum_name, p.accum_units, p.fused_into) for p in state.gate_plans],
        list(state.placer.free_pcus),
        list(state.placer.free_pmus),
        (state.placer.overflow_pcus, state.placer.overflow_pmus),
        (state.pcus_allocated, state.pmus_allocated),
        list(state.state_pmu_coords),
        list(state.completed),
        list(state.trace_log),
    )


@pytest.mark.parametrize("spec", [("lstm", 2048, 25), ("gru", 1024, 1500)])
def test_shared_prefix_records_equal_independent_mapping(spec):
    rnn = task(*spec)
    for params in ParameterSpace.with_pass_axis().candidates(rnn, CHIP):
        job = _job(rnn, params)
        shared = _shared_records(job)
        for pc in CONFIGS:
            fresh = _evaluate_program(build_task_program(rnn, params), CHIP, 8, pc)
            assert shared[pc] == fresh, (params, pc.key)


@pytest.mark.parametrize(
    "kind,hidden,bits,shape",
    PARITY_MATRIX,
    ids=[f"{k}-{h}-{b}b-hu{s[0]}-ru{s[1]}" for k, h, b, s in PARITY_MATRIX],
)
def test_forked_designs_match_independent_designs(kind, hidden, bits, shape):
    prog = _parity_program(kind, hidden, *shape)
    prefix = PassManager.prefix().run_program(prog, CHIP, bits=bits)
    for i, pc in enumerate(CONFIGS):
        state = prefix if i == len(CONFIGS) - 1 else prefix.fork()
        shared = map_rnn_program(prog, CHIP, bits=bits, pass_config=pc, prefix=state)
        alone = map_rnn_program(prog, CHIP, bits=bits, pass_config=pc)
        assert diff_designs(shared, alone) == [], pc.key
        assert shared.passes_applied == alone.passes_applied


@pytest.mark.parametrize(
    "configs",
    [tuple(reversed(CONFIGS))] + [(pc,) for pc in CONFIGS],
    ids=["reversed"] + [f"only-{pc.key}" for pc in CONFIGS],
)
def test_config_order_does_not_change_results(configs):
    rnn = task("lstm", 1024, 25)
    params = LoopParams(hu=4, ru=8, rv=64)
    in_order = _shared_records(_job(rnn, params))
    reordered = _shared_records(_job(rnn, params, configs))
    assert reordered == {pc: in_order[pc] for pc in configs}


def test_forks_leave_the_prefix_unchanged():
    prog = _parity_program("lstm", 1152, 4, 8)
    prefix = PassManager.prefix().run_program(prog, CHIP, bits=16)
    before = _snapshot(prefix)
    for pc in CONFIGS:
        map_rnn_program(prog, CHIP, bits=16, pass_config=pc, prefix=prefix.fork())
    assert _snapshot(prefix) == before
    assert prefix.completed == list(DEFAULT_PIPELINE[:-1])


def test_fork_shares_only_the_immutable_parts():
    prog = _parity_program("gru", 512, 4, 4)
    prefix = PassManager.prefix().run_program(prog, CHIP)
    fork = prefix.fork()
    assert fork.prog is prefix.prog and fork.chip is prefix.chip
    assert fork.gates is prefix.gates and fork.cell is prefix.cell
    assert fork.placer is not prefix.placer
    assert fork.placer.free_pcus is not prefix.placer.free_pcus
    for name, draft in fork.stages.items():
        assert draft is not prefix.stages[name] and draft == prefix.stages[name]
    assert all(a is not b for a, b in zip(fork.edges, prefix.edges))
    assert all(a is not b for a, b in zip(fork.gate_plans, prefix.gate_plans))
    assert fork.timings == prefix.timings and fork.timings is not prefix.timings


def test_corrupting_tail_pass_on_a_fork_is_named(monkeypatch):
    prog = _parity_program("lstm", 1024, 4, 8)
    prefix = PassManager.prefix().run_program(prog, CHIP)

    def corrupt(self, state):
        state.stage("ew").latency = -1

    monkeypatch.setattr(FuseGates, "run", corrupt)
    with pytest.raises(MappingError, match="IR verifier after fuse_gates"):
        map_rnn_program(
            prog, CHIP, pass_config=PassConfig(fuse_gates=True), prefix=prefix.fork()
        )
    # The fork took the damage; the prefix still lowers cleanly.
    monkeypatch.undo()
    assert map_rnn_program(prog, CHIP, prefix=prefix).resources.pcus_used > 0


def test_prefix_must_match_the_call():
    prog = _parity_program("lstm", 256, 2, 2)
    other = _parity_program("lstm", 256, 2, 2)
    prefix = PassManager.prefix().run_program(prog, CHIP)
    with pytest.raises(MappingError, match="another program"):
        map_rnn_program(other, CHIP, prefix=prefix.fork())
    with pytest.raises(MappingError, match="another program"):
        map_rnn_program(prog, CHIP, bits=16, prefix=prefix.fork())
    with pytest.raises(MappingError, match="drop passes="):
        map_rnn_program(prog, CHIP, passes=DEFAULT_PIPELINE, prefix=prefix.fork())
    tail_done = map_rnn_program(prog, CHIP, prefix=prefix)
    assert tail_done.passes_applied == DEFAULT_PIPELINE
    with pytest.raises(MappingError, match="already ran"):
        map_rnn_program(prog, CHIP, prefix=prefix)
