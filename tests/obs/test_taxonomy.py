"""Both paradigms report the same runtime events in one taxonomy."""

import pytest

from repro.core import DSMTXSystem, SystemConfig
from repro.obs import instrument
from repro.obs.tracer import CAT_FT_CHECKPOINT
from repro.paradigms import SpecForSystem
from repro.workloads import Crc32, SpanningForest


def _replicated(paradigm):
    """An FT run with a standby, checkpointing every 8 iterations."""
    config = dict(
        fault_tolerance=True, commit_replication=True, placement="spread",
        checkpoint_interval_mtxs=8,
    )
    if paradigm == "dsmtx":
        return DSMTXSystem(Crc32(iterations=96).dsmtx_plan(),
                           SystemConfig(total_cores=8, **config))
    return SpecForSystem(SpanningForest(iterations=96, density=0.7),
                         SystemConfig(total_cores=6, **config), workers=4)


@pytest.mark.parametrize("paradigm", ["dsmtx", "specfor"])
def test_every_checkpoint_is_counted_and_traced_on_its_owners_track(paradigm):
    # The commit unit and the reservation service take their epoch
    # checkpoints through one PrimaryImage: each record is one
    # ``ft.checkpoints`` count and one ``checkpoint:<n>`` instant on
    # the track of the unit that owns committed memory.
    system = _replicated(paradigm)
    hub = instrument(system)
    owner = system.commit_tid
    records = system.run().stats.checkpoints
    assert records
    assert hub.metrics.snapshot()["ft.checkpoints"] == len(records)
    instants = [event for event in hub.tracer.events
                if event.ph == "i" and event.cat == CAT_FT_CHECKPOINT]
    assert [(event.name, event.tid, event.args) for event in instants] == [
        (f"checkpoint:{record.iteration}", owner,
         {"iteration": record.iteration, "words": record.words})
        for record in records
    ]
