"""The round engine's pending queue against the list-slicing model.

``_RoundEngine`` and the ``ReservationStandby`` shadow keep the pending
iterations in a deque: a round pops its batch off the front and pushes
the carried iterations back in front of the rest, so a round costs
O(batch).  ``ListModel`` is the shape it replaced — the whole pending
list re-sliced and re-concatenated every round — kept here as the
reference.  Random rounds, with aborted attempts, resumed engines and a
promotion, must give the same batches, carried sets, pending queues and
standby shadow as the model.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SystemConfig
from repro.core.messages import SF_REPL_ROUND
from repro.paradigms import DONE, TRY_AGAIN, TRY_COMMIT, SpecForSystem
from repro.paradigms.specfor import _RoundEngine
from repro.workloads import ALL_BENCHMARKS


class ListModel:
    """The pending list of the list-slicing engine."""

    def __init__(self, iterations):
        self.pending = list(range(iterations))
        self._rest = []

    def begin_round(self, size):
        attempted = min(size, len(self.pending))
        self._rest = self.pending[attempted:]
        return self.pending[:attempted]

    def complete(self, carried):
        self.pending = carried + self._rest


def shadow_model(shadow, attempted, carried):
    """The standby's list-slicing shadow update."""
    return list(carried) + shadow[attempted:]


def play_round(engine, rng, slots):
    """One round of random decisions, sometimes aborted and re-adjudicated
    first; returns its batch, its record and the carried list the
    decisions imply."""
    batch, _delta = engine.begin_round()
    statuses = {i: rng.choice((DONE, TRY_COMMIT, TRY_COMMIT, TRY_AGAIN)) for i in batch}
    decisions = [
        (i, status, tuple(rng.sample(range(slots), rng.randint(1, min(3, slots))))
         if status == TRY_COMMIT else ())
        for i, status in statuses.items()
    ]
    rng.shuffle(decisions)
    winners = engine.adjudicate(decisions)
    rest = list(engine.pending)
    while rng.random() < 0.3:
        # A worker died mid-round: void the attempt, re-issue the batch.
        engine.abort_round()
        assert list(engine.pending) == rest
        assert engine.adjudicate(decisions) == winners
    ok = {i: rng.random() < 0.8 for i in winners}
    record = engine.complete([
        (i, ok[i], ((8 * rng.randrange(64), rng.randrange(1000)),)) for i in winners
    ])
    carried = sorted(
        [i for i in batch if statuses[i] == TRY_AGAIN]
        + [i for i in batch if statuses[i] == TRY_COMMIT and not ok.get(i, False)]
    )
    return batch, record, carried


@settings(max_examples=60, deadline=None)
@given(
    iterations=st.integers(min_value=1, max_value=160),
    granularity=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_deque_queue_matches_the_list_slicing_model(iterations, granularity, seed):
    rng = random.Random(seed)
    workload = ALL_BENCHMARKS["spanning_forest"](iterations=iterations, density=0.5)
    config = SystemConfig(total_cores=6, fault_tolerance=True, commit_replication=True)
    system = SpecForSystem(workload, config, workers=4, granularity=granularity)
    standby = system.standby
    standby.seed_image(system.service.master)
    engine = _RoundEngine(system.service, iterations, granularity)
    model = ListModel(iterations)
    shadow = list(range(iterations))
    while True:
        size = engine.size
        expected_batch = model.begin_round(size)
        if not expected_batch:
            assert engine.begin_round() is None
            break
        engine_before = engine
        batch, record, carried = play_round(engine, rng, system.site_slots)
        assert batch == expected_batch
        assert engine.last_carried == carried
        model.complete(carried)
        assert list(engine.pending) == model.pending
        if standby is not None:
            standby._ingest_round((
                SF_REPL_ROUND, record.as_tuple(), tuple(engine.delta),
                tuple(engine.last_carried), engine.service.table.counters(),
            ))
            shadow = shadow_model(shadow, record.attempted, carried)
            assert list(standby.shadow_pending) == shadow == model.pending
            assert standby.shadow_size == engine.size
        choice = rng.random()
        if choice < 0.1:
            engine = _RoundEngine.resume(
                engine.service, iterations, granularity, pending=engine.pending,
                size=engine.size, round_index=engine.round_index, delta=engine.delta,
            )
        elif choice < 0.2 and standby is not None:
            # Promotion: the standby's shadow becomes the scheduler.
            _service, engine = system.promote_reservation_service(standby)
            standby = None
        if engine is not engine_before:
            assert list(engine.pending) == model.pending
            assert engine.pending is not engine_before.pending
