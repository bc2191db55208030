"""ChaosEngine unit behaviour on a bare simulation environment."""

import pytest

from repro.chaos import (
    DELIVER,
    DROP,
    DUPLICATE,
    ChaosEngine,
    FaultPlan,
    LinkDegrade,
    MessageDuplication,
    MessageLoss,
    NodeCrash,
    NodeStall,
)
from repro.errors import ChaosError
from repro.sim import Environment


def attached(plan):
    env = Environment()
    return env, ChaosEngine(plan).attach(env)


def advance(env, until):
    env.run(until=env.timeout(until - env.now))


def test_attach_installs_on_env():
    env, engine = attached(FaultPlan())
    assert env.chaos is engine


def test_engine_is_single_use():
    env, engine = attached(FaultPlan())
    with pytest.raises(ChaosError):
        engine.attach(Environment())
    with pytest.raises(ChaosError):
        ChaosEngine(FaultPlan()).attach(env)  # env already has one


def test_empty_plan_delivers_untouched():
    _env, engine = attached(FaultPlan())
    assert engine.on_wire(0, 1, 1e-5, 1e9) == (DELIVER, 1e-5, 1e9)


def test_crash_marks_node_dead_and_drops_its_traffic():
    env, engine = attached(FaultPlan(faults=(NodeCrash(node=1, at_s=0.01),)))
    assert engine.on_wire(0, 1, 1e-5, 1e9)[0] == DELIVER
    advance(env, 0.02)
    assert engine.is_dead_node(1)
    assert engine.crash_log == [(1, 0.01)]
    assert engine.on_wire(0, 1, 1e-5, 1e9)[0] == DROP  # to the dead node
    assert engine.on_wire(1, 0, 1e-5, 1e9)[0] == DROP  # from the dead node
    assert engine.on_wire(0, 2, 1e-5, 1e9)[0] == DELIVER  # bystanders fine
    assert engine.messages_dropped == 2


def test_degrade_window_scales_wire_parameters_inside_window_only():
    plan = FaultPlan(faults=(
        LinkDegrade(at_s=0.01, duration_s=0.01, latency_factor=3.0,
                    bandwidth_factor=2.0),
    ))
    env, engine = attached(plan)
    assert engine.on_wire(0, 1, 1e-5, 1e9) == (DELIVER, 1e-5, 1e9)  # before
    advance(env, 0.015)
    verdict, latency, bandwidth = engine.on_wire(0, 1, 1e-5, 1e9)
    assert verdict == DELIVER
    assert latency == pytest.approx(3e-5)
    assert bandwidth == pytest.approx(5e8)
    advance(env, 0.025)
    assert engine.on_wire(0, 1, 1e-5, 1e9) == (DELIVER, 1e-5, 1e9)  # after
    assert engine.messages_delayed == 1


def test_stall_holds_messages_until_the_window_closes():
    plan = FaultPlan(faults=(NodeStall(node=2, at_s=0.01, duration_s=0.004),))
    env, engine = attached(plan)
    advance(env, 0.011)
    _verdict, latency, _bw = engine.on_wire(2, 0, 1e-5, 1e9)
    # Remaining window (3 ms) is added to the latency.
    assert latency == pytest.approx(0.003 + 1e-5)
    # Other node pairs are unaffected.
    assert engine.on_wire(0, 1, 1e-5, 1e9)[1] == 1e-5


def test_loss_and_duplication_draws_are_seed_deterministic():
    plan = FaultPlan(
        faults=(MessageLoss(probability=0.3), MessageDuplication(probability=0.3)),
        seed=11,
    )
    _env1, engine1 = attached(plan)
    _env2, engine2 = attached(plan)
    verdicts1 = [engine1.on_wire(0, 1, 1e-5, 1e9)[0] for _ in range(200)]
    verdicts2 = [engine2.on_wire(0, 1, 1e-5, 1e9)[0] for _ in range(200)]
    assert verdicts1 == verdicts2
    assert DROP in verdicts1 and DUPLICATE in verdicts1 and DELIVER in verdicts1
    assert engine1.messages_dropped == verdicts1.count(DROP)
    assert engine1.messages_duplicated == verdicts1.count(DUPLICATE)


def test_loss_window_bounds_the_draws():
    plan = FaultPlan(
        faults=(MessageLoss(probability=0.999999, start_s=0.01, end_s=0.02),),
        seed=1,
    )
    env, engine = attached(plan)
    assert engine.on_wire(0, 1, 1e-5, 1e9)[0] == DELIVER  # before the window
    advance(env, 0.015)
    assert engine.on_wire(0, 1, 1e-5, 1e9)[0] == DROP  # inside
    advance(env, 0.025)
    assert engine.on_wire(0, 1, 1e-5, 1e9)[0] == DELIVER  # after


def test_crash_is_idempotent():
    plan = FaultPlan(faults=(
        NodeCrash(node=1, at_s=0.01), NodeCrash(node=1, at_s=0.012),
    ))
    env, engine = attached(plan)
    advance(env, 0.02)
    assert engine.crash_log == [(1, 0.01)]


def test_summary_reports_counters():
    plan = FaultPlan(faults=(NodeCrash(node=1, at_s=0.001),))
    env, engine = attached(plan)
    advance(env, 0.002)
    engine.on_wire(0, 1, 1e-5, 1e9)
    assert engine.summary() == {
        "crashes": [(1, 0.001)],
        "dead_nodes": [1],
        "messages_dropped": 1,
        "messages_duplicated": 0,
        "messages_delayed": 0,
    }


def test_crash_plan_requires_fault_tolerant_runtime():
    from repro.core import DSMTXSystem, SystemConfig
    from tests.core.toys import ToyDoall

    system = DSMTXSystem(
        ToyDoall(iterations=8).dsmtx_plan(), SystemConfig(total_cores=8)
    )
    ChaosEngine(FaultPlan(faults=(NodeCrash(node=0, at_s=0.001),))).attach(
        system.env
    )
    with pytest.raises(ChaosError, match="fault_tolerance"):
        system.run()


def test_checkpoint_corruption_requires_a_standby():
    from repro.chaos import StateCorruption
    from repro.core import DSMTXSystem, SystemConfig
    from tests.core.toys import ToyDoall

    system = DSMTXSystem(
        ToyDoall(iterations=8).dsmtx_plan(),
        SystemConfig(total_cores=8, fault_tolerance=True),
    )
    plan = FaultPlan(faults=(StateCorruption("checkpoint", at_s=0.001),))
    ChaosEngine(plan).attach(system.env)
    with pytest.raises(ChaosError, match="no standby"):
        system.run()


def _specfor_system(**config):
    from repro.core import SystemConfig
    from repro.paradigms import SpecForSystem
    from repro.workloads import SpanningForest

    return SpecForSystem(
        SpanningForest(iterations=16, density=0.7),
        SystemConfig(total_cores=4, **config),
        workers=2,
    )


def test_speculative_corruption_requires_speculative_worker_spaces():
    # speculative_for workers compute on snapshots of committed state:
    # a "speculative" flip would find no word to flip, and a plan that
    # silently does nothing must not pass for a tested fault.
    from repro.chaos import StateCorruption

    system = _specfor_system()
    plan = FaultPlan(faults=(StateCorruption("speculative", at_s=1e-6),))
    ChaosEngine(plan).attach(system.env)
    with pytest.raises(ChaosError, match="no speculative worker"):
        system.run()


def test_memory_corruption_under_integrity_requires_a_scrubber():
    # Without a committed-page scrubber the flip would commit with
    # integrity on and nothing detected, contradicting what integrity
    # promises; without integrity, silent corruption is the documented
    # outcome and the plan stays legal.
    from repro.chaos import StateCorruption

    plan = FaultPlan(faults=(StateCorruption("memory", at_s=1e-6),))
    system = _specfor_system(fault_tolerance=True, integrity=True)
    ChaosEngine(plan).attach(system.env)
    with pytest.raises(ChaosError, match="no committed-page scrubber"):
        system.run()
    system = _specfor_system(fault_tolerance=True)
    engine = ChaosEngine(plan).attach(system.env)
    system.run()
    assert engine.state_corruption_log[0][2] == 1
