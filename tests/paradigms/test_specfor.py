"""The speculative_for paradigm: round protocol, determinism, validation.

Three layers of assurance:

* hand-computed small cases — the round scheduler's batching, carry,
  and adaptive sizing pinned against arithmetic done on paper;
* pure-vs-simulated equality — :class:`SpecForSystem` must produce the
  identical committed image and identical ``ReservationStats`` as the
  host-level :func:`speculative_for` reference at *every* worker count;
* plan validation — ``speculative_for`` on a workload without a
  reservation site is rejected with the did-you-mean error.
"""

import pytest

from repro.core import SystemConfig
from repro.errors import ConfigurationError, ParadigmError, PlanSyntaxError
from repro.memory import AddressSpace
from repro.paradigms import (
    DONE,
    TRY_AGAIN,
    TRY_COMMIT,
    SpecForSystem,
    StepContext,
    ensure_reservation_site,
    parse_plan,
    speculative_for,
    validate_plan,
)
from repro.workloads import (
    Crc32,
    ListContraction,
    MaximalIndependentSet,
    SpanningForest,
)


class AllSameSlot:
    """Toy step: every iteration fights over slot 0, then writes one
    word.  Maximal contention — exactly one winner per round."""

    def reserve(self, ctx, iteration):
        ctx.reserve(0)
        return TRY_COMMIT

    def commit(self, ctx, iteration):
        ctx.write(iteration * 8, iteration + 100)
        return True


class EvensOnly:
    """Toy step: odd iterations have no work (DONE); evens are
    conflict-free (each reserves its own slot)."""

    def reserve(self, ctx, iteration):
        if iteration % 2:
            return DONE
        ctx.reserve(iteration)
        return TRY_COMMIT

    def commit(self, ctx, iteration):
        ctx.write(iteration * 8, iteration)
        return True


def test_hand_computed_rounds_all_same_slot():
    """4 iterations, granularity 1 -> max_round 5, initial size 2.

    round 0: batch [0,1], 0 wins slot 0, 1 carried; carry >= 1/4 of the
             batch halves the size to 1.
    round 1: batch [1], wins; zero carry doubles the size to 2.
    round 2: batch [2,3], 2 wins, 3 carried; size back to 1.
    round 3: batch [3], wins.
    """
    master, stats = speculative_for(AllSameSlot(), 4, slots=1, granularity=1)
    assert stats.num_rounds == 4
    assert [r.attempted for r in stats.rounds] == [2, 1, 2, 1]
    assert [r.carried for r in stats.rounds] == [1, 0, 1, 0]
    assert [r.reservation_failures for r in stats.rounds] == [1, 0, 1, 0]
    assert stats.reservation_failures == 2
    assert stats.carried_total == 2
    assert stats.commit_failures == 0
    assert stats.committed == 4
    assert stats.words_committed == 4
    for i in range(4):
        assert master.read(i * 8) == i + 100


def test_hand_computed_done_iterations_complete_without_reserving():
    """8 iterations, granularity 1 -> size 4; no conflicts anywhere, so
    two rounds of 4 finish everything (odds DONE, evens commit)."""
    master, stats = speculative_for(EvensOnly(), 8, slots=8, granularity=1)
    assert stats.num_rounds == 2
    assert [r.attempted for r in stats.rounds] == [4, 4]
    assert [r.carried for r in stats.rounds] == [0, 0]
    assert stats.committed == 8
    assert stats.words_committed == 4  # only the evens wrote
    for i in range(0, 8, 2):
        assert master.read(i * 8) == i


def test_round_size_doubles_after_clean_rounds():
    """Conflict-free steps grow the batch geometrically up to the
    1/granularity cap."""
    master, stats = speculative_for(EvensOnly(), 64, slots=64, granularity=8)
    # max_round = 64 // 8 + 1 = 9, initial size 4, then 8, then capped 9.
    assert [r.attempted for r in stats.rounds][:3] == [4, 8, 9]
    assert stats.committed == 64


@pytest.mark.parametrize("fault_tolerance", [False, True])
def test_simulated_matches_pure_reference_at_every_worker_count(fault_tolerance):
    # Both runtimes take the same round loop: framing only changes how
    # the messages travel, never what the rounds decide.
    for workers in (1, 2, 3, 4, 8):
        workload = SpanningForest(iterations=32, density=0.6)
        ref_master, ref_stats = _pure_run(SpanningForest(iterations=32, density=0.6))
        config = SystemConfig(
            total_cores=max(3, workers + 1), fault_tolerance=fault_tolerance
        )
        system = SpecForSystem(workload, config, workers=workers)
        system.run()
        assert system.service.stats == ref_stats, f"workers={workers}"
        assert _image(system.commit.master) == _image(ref_master), (
            f"workers={workers}"
        )


@pytest.mark.parametrize("cls", [SpanningForest, MaximalIndependentSet,
                                 ListContraction])
def test_worker_count_never_changes_stats_or_image(cls):
    runs = []
    for workers in (1, 4, 8):
        system = SpecForSystem(cls(iterations=24, density=0.8), workers=workers)
        system.run()
        runs.append((system.service.stats, _image(system.commit.master)))
    first_stats, first_image = runs[0]
    for stats, image in runs[1:]:
        assert stats == first_stats
        assert image == first_image


def test_stats_surface_into_run_stats():
    system = SpecForSystem(ListContraction(iterations=24, density=0.9), workers=4)
    result = system.run()
    stats = result.stats
    assert stats.specfor_rounds == system.service.stats.num_rounds
    assert stats.specfor_reservations == system.service.stats.reservations
    assert (stats.specfor_reservation_failures
            == system.service.stats.reservation_failures)
    assert stats.specfor_carried == system.service.stats.carried_total
    assert stats.committed_mtxs == 24
    assert stats.elapsed_seconds > 0
    assert stats.queue_bytes_by_purpose["specfor_round"] > 0
    assert stats.queue_bytes_by_purpose["specfor_reserve"] > 0
    assert stats.queue_bytes_by_purpose["specfor_commit"] > 0


# -- step-context discipline -------------------------------------------------------


def test_write_outside_commit_phase_is_rejected():
    ctx = StepContext(AddressSpace("t"), 0, StepContext.RESERVE)
    with pytest.raises(ParadigmError):
        ctx.write(0, 1)


def test_reserve_outside_reserve_phase_is_rejected():
    ctx = StepContext(AddressSpace("t"), 0, StepContext.COMMIT)
    with pytest.raises(ParadigmError):
        ctx.reserve(0)


def test_commit_phase_reads_own_writes():
    space = AddressSpace("t")
    space.write(0, 7)
    ctx = StepContext(space, 0, StepContext.COMMIT)
    assert ctx.read(0) == 7
    ctx.write(0, 9)
    assert ctx.read(0) == 9
    assert space.read(0) == 7  # buffered, not applied


def test_invalid_status_is_rejected():
    class BadStatus:
        def reserve(self, ctx, iteration):
            return 17

        def commit(self, ctx, iteration):
            return True

    with pytest.raises(ParadigmError):
        speculative_for(BadStatus(), 2, slots=1)


def test_reserving_then_backing_off_is_rejected():
    class ReservesButRetries:
        def reserve(self, ctx, iteration):
            ctx.reserve(0)
            return TRY_AGAIN

        def commit(self, ctx, iteration):
            return True

    with pytest.raises(ParadigmError):
        speculative_for(ReservesButRetries(), 2, slots=1)


class AlwaysTryAgain:
    """Toy step that never makes progress."""

    def reserve(self, ctx, iteration):
        return TRY_AGAIN

    def commit(self, ctx, iteration):
        return True


class StuckForest(SpanningForest):
    def specfor_step(self):
        return AlwaysTryAgain()


@pytest.mark.parametrize("granularity", [1, 2])
@pytest.mark.parametrize("entry", ["pure", "system"])
def test_a_loop_without_progress_raises_after_the_bound(entry, granularity):
    """100 + 200 x granularity consecutive rounds that complete no
    iteration end the loop with an error naming the carried
    iterations, in the reference and in the simulated runtime alike."""
    with pytest.raises(ParadigmError) as excinfo:
        if entry == "pure":
            speculative_for(AlwaysTryAgain(), 6, slots=1, granularity=granularity)
        else:
            SpecForSystem(StuckForest(iterations=6), workers=2,
                          granularity=granularity).run()
    bound = 100 + 200 * granularity
    message = str(excinfo.value)
    assert f"no progress in {bound} consecutive rounds" in message
    assert "carried iterations: [0" in message


def test_the_bound_counts_rounds_without_progress_not_all_rounds():
    class StallsThenCommits:
        """Each iteration retries ``stall`` times, then commits."""

        def __init__(self, stall):
            self.stall = stall
            self.tries = {}

        def reserve(self, ctx, iteration):
            self.tries[iteration] = self.tries.get(iteration, 0) + 1
            return TRY_AGAIN if self.tries[iteration] <= self.stall else TRY_COMMIT

        def commit(self, ctx, iteration):
            ctx.write(iteration * 8, iteration + 1)
            return True

    bound = 100 + 200 * 1
    master, stats = speculative_for(
        StallsThenCommits(bound - 1), 3, slots=1, granularity=1
    )
    assert stats.committed == 3 and stats.num_rounds > bound
    assert [master.read(i * 8) for i in range(3)] == [1, 2, 3]


# -- plan validation ----------------------------------------------------------------


def test_plan_notation_accepts_speculative_for_spellings():
    for text in ("speculative_for", "SPECFOR", "Spec-SPECFOR",
                 "speculative-for"):
        plan = parse_plan(text)
        assert plan.technique == "SPECFOR"
        assert plan.speculative


def test_plan_without_site_rejected_with_did_you_mean():
    plan = parse_plan("speculative_for")
    validate_plan(plan, SpanningForest(iterations=4))  # fine
    with pytest.raises(ParadigmError) as excinfo:
        validate_plan(plan, Crc32(iterations=4))
    message = str(excinfo.value)
    assert "no reservation site" in message
    assert "spanning_forest" in message


def test_did_you_mean_hint_on_near_miss():
    class Misspelled:
        name = "spanning_forrest"

        def reservation_site(self):
            return None

    with pytest.raises(ParadigmError) as excinfo:
        ensure_reservation_site(Misspelled())
    assert "did you mean 'spanning_forest'?" in str(excinfo.value)


def test_system_rejects_bad_configurations():
    with pytest.raises(ConfigurationError):
        SpecForSystem(SpanningForest(iterations=4), workers=0)
    with pytest.raises(ParadigmError):
        SpecForSystem(Crc32(iterations=4))
    with pytest.raises(ConfigurationError):
        speculative_for(AllSameSlot(), 0, slots=1)
    with pytest.raises(ConfigurationError):
        speculative_for(AllSameSlot(), 4, slots=1, granularity=0)
    with pytest.raises(PlanSyntaxError):
        parse_plan("DOACROSS+[S,DOALL]")


def test_system_rejects_coa_replicas():
    # COA read replicas are DSMTX units: a speculative_for run would
    # neither build nor use them, so asking for them is an error, as
    # the campaign schema already says for scheme 'specfor'.
    with pytest.raises(ConfigurationError,
                       match="COA read replicas belong to the DSMTX runtime"):
        SpecForSystem(SpanningForest(iterations=16, density=0.7),
                      SystemConfig(total_cores=8, coa_replicas=2), workers=4)


# -- helpers ------------------------------------------------------------------------


def _pure_run(workload):
    from repro.memory import UnifiedVirtualAddressSpace
    from repro.workloads.base import WriteThroughStore

    uva = UnifiedVirtualAddressSpace(owners=1)
    master = AddressSpace("pure.master")
    workload.build(uva, 0, WriteThroughStore(master))
    return speculative_for(
        workload.specfor_step(), workload.iterations,
        workload.reservation_site().slots, master,
    )


def _image(space):
    from repro.analysis.resilience import memory_fingerprint

    return memory_fingerprint(space)
