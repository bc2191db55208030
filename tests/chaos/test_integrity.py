"""End-to-end data integrity under injected silent corruption.

The acceptance bar for the integrity layer (docs/RESILIENCE.md):

* **Wire.**  Under probabilistic frame corruption, an ``integrity``
  run finishes with committed memory byte-identical to the fault-free
  run — checksums convert each corrupted frame into *loss*, and the
  reliable transport's retransmit machinery re-delivers the intact
  original.  The same plan without ``integrity`` commits silently
  wrong results, which is the hazard the checksums exist for.
* **Committed memory.**  The periodic scrubber audits the pages of
  the commit unit, or of the ``speculative_for`` reservation service,
  against their digest table, detects flipped words, and repairs them
  from the hot standby's replicated image.
* **Durable state.**  A standby whose checkpoint image fails its
  digest check refuses promotion (fail-stop) instead of resurrecting
  corrupted state as the new truth — the DSMTX commit standby and the
  ``speculative_for`` reservation-service standby alike.
* **Speculative state.**  A flipped clean word in a worker's cache is
  caught by value-based read validation on the next speculative load
  and repaired through ordinary misspeculation recovery.
* **Zero cost off.**  A run without ``integrity`` carries no
  integrity state at all.

Every episode is seed-deterministic: the same plan reproduces the
same run digest, corruption and repair included.
"""

import os
import sys
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import memory_fingerprint, run_digest
from repro.chaos import (
    ChaosEngine,
    FaultPlan,
    MessageCorruption,
    NodeCrash,
    StateCorruption,
)
from repro.cli import main
from repro.core import DSMTXSystem, SystemConfig, integrity, standby
from repro.core.config import PipelineConfig
from repro.core.integrity import empty_page_digest, page_digest, payload_checksum
from repro.core.messages import (
    CTL_COA_RESPONSE,
    END_SUBTX,
    WRITE,
    BatchEnvelope,
    ControlEnvelope,
)
from repro.core.transport import IngestBox
from repro.errors import ClusterFailedError
from repro.memory import Page
from repro.memory.layout import PAGE_SHIFT
from repro.memory.page import ZERO_WORDS
from repro.paradigms import SpecForSystem
from repro.workloads import Crc32, H264Ref, SpanningForest
from repro.workloads.base import ParallelPlan
from tests.core.toys import ToyDoall

ITERATIONS = 96

# Small batches so commits are progressive and the replication stream
# is genuinely exercised; spread placement so runtime traffic crosses
# node boundaries, where the chaos engine adjudicates corruption.
CONFIG = dict(
    total_cores=8,
    fault_tolerance=True,
    commit_replication=True,
    placement="spread",
    batch_bytes=64,
    checkpoint_interval_mtxs=16,
    integrity=True,
)


class SharedReader(ToyDoall):
    """Every iteration speculatively reads one shared seed word.

    ``ToyDoall`` never issues a *speculative* load, so its read set is
    empty and value-based validation has nothing to check.  This
    variant routes one shared word through ``ctx.load(...,
    speculative=True)`` per iteration — the footprint the
    ``"speculative"`` corruption target needs to be observable.
    """

    name = "shared-reader"
    description = "speculative shared-seed reader"
    speculation = ("MV",)

    def build(self, uva, owner, store):
        self.seed_addr = uva.malloc_page_aligned(owner, 8)
        self.out_base = uva.malloc_page_aligned(owner, self.iterations * 8)
        store.write(self.seed_addr, 1000)

    def sequential_body(self, ctx):
        i = ctx.iteration
        seed = yield from ctx.load(self.seed_addr)
        ctx.compute(self.work_cycles)
        yield from ctx.store(self.out_base + 8 * i, seed + i)

    def _body(self, ctx):
        i = ctx.iteration
        seed = yield from ctx.load(self.seed_addr, speculative=True)
        ctx.compute(self.work_cycles)
        yield from ctx.store(self.out_base + 8 * i, seed + i, forward=False)

    def dsmtx_plan(self):
        return ParallelPlan(
            self,
            scheme="dsmtx",
            pipeline=PipelineConfig.from_kinds(["DOALL"]),
            stage_bodies=[self._body],
            label="Spec-DOALL",
        )

    tls_plan = dsmtx_plan


def build(plan=None, workload_cls=ToyDoall, **overrides):
    config = dict(CONFIG)
    config.update(overrides)
    workload = workload_cls(iterations=ITERATIONS)
    system = DSMTXSystem(workload.dsmtx_plan(), SystemConfig(**config))
    engine = None
    if plan is not None:
        engine = ChaosEngine(plan).attach(system.env)
    return system, engine


def build_specfor(plan=None, iterations=ITERATIONS, **overrides):
    """The ``speculative_for`` counterpart of :func:`build`: a
    reservation service with a hot standby, checkpointing every 8
    committed iterations, on spread cores."""
    config = SystemConfig(**{
        "total_cores": 6,
        "fault_tolerance": True,
        "commit_replication": True,
        "placement": "spread",
        "checkpoint_interval_mtxs": 8,
        "integrity": True,
        **overrides,
    })
    workload = SpanningForest(iterations=iterations, density=0.7)
    system = SpecForSystem(workload, config, workers=4)
    engine = None
    if plan is not None:
        engine = ChaosEngine(plan).attach(system.env)
    return system, engine


@pytest.fixture(scope="module")
def reference():
    """Fault-free run of the same integrity-enabled configuration."""
    system, _ = build()
    result = system.run()
    return system, result


@pytest.fixture(scope="module")
def specfor_reference():
    """Fault-free run of the integrity-enabled ``speculative_for``
    configuration."""
    system, _ = build_specfor()
    result = system.run()
    return system, result


def promotion_case(paradigm, request):
    """``(build function, reference run)`` of one paradigm's
    replicated configuration: DSMTX's commit standby or the
    reservation-service standby of ``speculative_for``."""
    if paradigm == "dsmtx":
        return build, request.getfixturevalue("reference")
    return build_specfor, request.getfixturevalue("specfor_reference")


def corruption_plan(probability=0.05, seed=7):
    return FaultPlan(
        faults=(MessageCorruption(probability=probability),), seed=seed)


def assert_same_results(system, result, reference):
    ref_system, ref_result = reference
    assert result.stats.committed_mtxs == ref_result.stats.committed_mtxs
    assert memory_fingerprint(system.commit.master) == memory_fingerprint(
        ref_system.commit.master
    )


# -- wire corruption: detect, drop, retransmit ------------------------------------


def test_wire_corruption_is_repaired_end_to_end(reference):
    system, engine = build(corruption_plan())
    result = system.run()
    # The plan must have actually corrupted frames for this to mean
    # anything, and every detection must have been absorbed.
    assert engine.messages_corrupted > 0
    assert result.stats.ft_corruptions_detected > 0
    assert result.stats.ft_corruptions_unrepairable == 0
    assert_same_results(system, result, reference)


def test_corruption_episode_is_seed_deterministic():
    digests = []
    for _ in range(2):
        system, engine = build(corruption_plan())
        system.run()
        digests.append(
            run_digest(system.stats, master=system.commit.master, chaos=engine))
    assert digests[0] == digests[1]


@pytest.mark.parametrize("replicate", [False, True])
def test_fault_free_run_detects_no_corruption(replicate):
    # No chaos engine, so nothing corrupts anything.  A COA response can
    # be retransmitted after its first copy arrived; the worker must
    # not have installed (and then written) the very page object the
    # sender's retransmit buffer holds, or the duplicate checksums over
    # the worker's stores and reads as corrupted.
    config = SystemConfig(
        total_cores=8, placement="spread", fault_tolerance=True,
        integrity=True, commit_replication=replicate,
    )
    system = DSMTXSystem(H264Ref(iterations=32).dsmtx_plan(), config)
    stats = system.run().stats
    assert stats.ft_duplicates_dropped > 0  # retransmits raced originals
    assert stats.ft_corruptions_detected == 0
    assert stats.ft_corruptions_unrepairable == 0


def test_detected_counts_at_least_match_repairs(reference):
    # A corrupted duplicate of an already-delivered frame is detected
    # and dropped but repairs nothing (nothing was lost), so detected
    # >= repaired always; equality holds when every corruption hit a
    # first delivery.
    system, _ = build(corruption_plan())
    result = system.run()
    stats = result.stats
    assert stats.ft_corruptions_detected >= stats.ft_corruptions_repaired
    assert stats.ft_corruptions_repaired > 0


def test_without_integrity_corruption_commits_silently(reference):
    # The hazard run: same fault plan, checksums off.  The corrupted
    # values sail through the transport and commit; nothing detects
    # anything, and committed memory is silently wrong.
    system, engine = build(corruption_plan(), integrity=False)
    result = system.run()
    assert engine.messages_corrupted > 0
    assert result.stats.ft_corruptions_detected == 0
    ref_system, _ref_result = reference
    assert memory_fingerprint(system.commit.master) != memory_fingerprint(
        ref_system.commit.master
    )


@pytest.mark.parametrize("cores", [8, 12, 16])
def test_repair_holds_at_any_worker_count(cores):
    # The repair property is a property of the transport, not of one
    # lucky layout: whatever the worker count, the corrupted run's
    # memory matches its own fault-free reference.
    ref_system, _ = build(total_cores=cores)
    ref_result = ref_system.run()
    system, engine = build(corruption_plan(), total_cores=cores)
    result = system.run()
    assert engine.messages_corrupted > 0
    assert_same_results(system, result, (ref_system, ref_result))


class Inbox(list):
    """A unit inbox that keeps what the ingest box delivers."""

    put_nowait = list.append


def changeable_payload(target, sender):
    """A fresh envelope and a function that changes it in place: a
    value in a ``BatchEnvelope`` write entry, or a word of the page
    snapshot a COA response carries."""
    if target == "batch entry value":
        value = [7, 8]
        envelope = BatchEnvelope(
            "log", 0, 0, ((WRITE, 4096, value), (END_SUBTX, 0, 0)), 24)
        return envelope, lambda: value.__setitem__(0, 7 ^ 1 << 3)
    page = Page(1, {5: 42}).snapshot()
    envelope = ControlEnvelope(CTL_COA_RESPONSE, 0, sender, (1, None, page))
    return envelope, lambda: page.writable_words(5).__setitem__(5, 42 ^ 1 << 3)


@pytest.mark.parametrize("target", ["batch entry value", "coa page word"])
def test_payload_changed_after_stamp_is_dropped_as_corrupt(target):
    # The receiver recomputes the checksum from the payload it got; it
    # never reuses one computed at stamp.  So a payload that changes
    # after ``stamp`` (as when a receiver once wrote the very page a
    # retransmit buffer held) reads as corruption.  The change is in
    # place: the frame and its envelope stay the objects the sender
    # stamped.
    system, _ = build()
    transport = system.transport
    src, dst = system.commit_tid, system.workers[0].tid
    inbox = Inbox()
    box = IngestBox(transport, dst, inbox)
    intact, _ = changeable_payload(target, src)
    box.put_nowait(transport.stamp(src, dst, intact, 64))
    changed, change = changeable_payload(target, src)
    frame = transport.stamp(src, dst, changed, 64)
    change()
    detected = system.stats.ft_corruptions_detected
    box.put_nowait(frame)
    assert inbox == [intact]
    assert system.stats.ft_corruptions_detected == detected + 1


# -- committed memory: the scrubber -----------------------------------------------


def test_page_digest_sums_the_crcs_of_its_header_and_of_each_word():
    # An empty page digests its header alone.  A written page adds the
    # CRC32 of each present word's encoding, mod 2**32: "i<index>;"
    # then the value, "i<int>;" or "s<length>:<text>".  The digest
    # misses a change only if the changed words' CRC differences sum
    # to 0 mod 2**32 (about 2**-32 per audit; never for one word whose
    # encoding keeps its length and differs within 32 bits).  A frame
    # still checksums the page's whole encoding.
    empty = Page(7)
    assert page_digest(empty) == empty_page_digest(7) == zlib.crc32(b"P7[]")
    written = Page(7, {0: 5, 3: "x"})
    words = zlib.crc32(b"i0;i5;") + zlib.crc32(b"i3;s1:x")
    assert page_digest(written) == (zlib.crc32(b"P7[]") + words) % 2**32
    assert payload_checksum(written) == zlib.crc32(b"P7[i0;i5;i3;s1:x]")


def test_scrubber_detects_and_repairs_memory_corruption():
    # The simulated run lasts tens of microseconds, so the audit
    # cadence must be far below the 5 ms default for sweeps to fire.
    interval = dict(scrub_interval_s=5e-6)
    ref_system, _ = build(**interval)
    ref_result = ref_system.run()
    plan = FaultPlan(
        faults=(StateCorruption(
            "memory", at_s=0.5 * ref_result.elapsed_seconds, words=2),),
        seed=7,
    )
    system, engine = build(plan, **interval)
    result = system.run()
    stats = result.stats
    assert engine.state_corruption_log  # the flip actually landed
    assert stats.ft_scrub_rounds > 0
    assert stats.ft_scrub_pages > 0
    assert stats.ft_corruptions_detected >= 1
    assert stats.ft_corruptions_repaired >= 1
    assert stats.ft_corruptions_unrepairable == 0
    assert_same_results(system, result, (ref_system, ref_result))


def test_scrubber_counts_zero_pages_and_catches_a_word_flipped_into_one():
    """Never-written pages are counted once per sweep, whether master
    holds them or a COA serve answered them from outside it.  A
    never-written master page (the shared zero array, materialized by a
    master read) is audited in O(1), and still caught when a word
    appears in it, or when its table entry is not the empty page's
    digest."""
    system, _ = build(workload_cls=Crc32)
    system.run()
    commit = system.commit
    stats = system.stats
    master = commit.master
    # A COA serve of a never-written page adds nothing to master.
    served = commit.image.served_pages
    assert served and not served & set(master.pages)
    covered = len(set(master.pages) | served)
    audited = stats.ft_scrub_pages
    assert commit.image.scrub_once() == 0
    assert stats.ft_scrub_pages == audited + covered

    # Master reads of served pages materialize them: counted once.
    for number in sorted(served)[::8]:
        assert master.read(number << PAGE_SHIFT) == 0
    zero = [page for page in master.iter_pages() if page.words is ZERO_WORDS]
    assert zero and len(zero) < len(master.pages)
    audited = stats.ft_scrub_pages
    assert commit.image.scrub_once() == 0
    assert len(set(master.pages) | served) == covered
    assert stats.ft_scrub_pages == audited + covered

    # A bit flipped into a never-written page, with no bookkeeping: the
    # page gets a private array and a present word, nothing else.
    victim = zero[len(zero) // 2]
    victim.writable_words(5)[5] ^= 1 << 3
    victim.present_mask |= 1 << 5
    detected = stats.ft_corruptions_detected
    repaired = stats.ft_corruptions_repaired
    assert commit.image.scrub_once() == 1
    assert stats.ft_corruptions_detected == detected + 1
    assert stats.ft_corruptions_repaired == repaired + 1
    assert not victim.present_mask and not any(victim.words)
    assert commit.image.scrub_once() == 0

    # A zero page whose authoritative digest is not the empty page's.
    stale = zero[0]
    commit.image._page_digests[stale.number] = empty_page_digest(stale.number) ^ 1
    unrepairable = stats.ft_corruptions_unrepairable
    assert commit.image.scrub_once() == 1
    assert stats.ft_corruptions_unrepairable == unrepairable + 1
    assert stale.words is ZERO_WORDS


def test_scrubber_is_quiet_on_a_clean_run():
    system, _ = build(scrub_interval_s=5e-6)
    result = system.run()
    assert result.stats.ft_scrub_rounds > 0
    assert result.stats.ft_corruptions_detected == 0
    assert result.stats.ft_corruptions_repaired == 0


def test_scrubber_catches_a_flip_that_shares_a_page_with_a_later_commit(capsys):
    # 052.alvinn, 2048 iterations: four words flip at 32.854 ms, and
    # commits land on a flipped page before the next sweep (35.93 ms).
    # The table takes each committed word's term in place of the term
    # the unit recorded for that address, so the flip is not digested
    # into the table with the commit: the sweep finds three corrupted
    # pages and repairs them from the standby.  The fourth detection is
    # the standby's image failing the checkpoint taken over the flipped
    # master (34.3 ms), healed by a later fold.  Re-digesting whole
    # pages from master at commit vouched for the flip: three
    # detections, two repairs and a wrong committed image.
    status = main(["scrub", "052.alvinn", "--iterations", "2048", "--words", "4",
                   "--seed", "0", "--corrupt-at", "32.8539"])
    out = capsys.readouterr().out
    assert "4 detected, 4 repaired from the standby, 0 unrepairable" in out
    assert "committed memory matches fault-free run: True" in out
    assert status == 0


def test_a_flipped_master_page_is_audited_before_it_is_coa_served():
    # crc32, 96 iterations on 8 spread cores: four committed words flip
    # at 7.35 ms (plan seed 2), and a worker faults on a flipped page
    # before the next sweep reaches it.  COA serves committed state, so
    # the commit unit audits the page and repairs it first.  Serving the
    # page unaudited let the worker compute from a flipped word: the
    # sweeps still found and repaired all four pages, and a wrong image
    # committed.
    config = SystemConfig(total_cores=8, fault_tolerance=True,
                          commit_replication=True, placement="spread",
                          integrity=True)
    reference = DSMTXSystem(Crc32(iterations=ITERATIONS).dsmtx_plan(), config)
    reference.run()
    system = DSMTXSystem(Crc32(iterations=ITERATIONS).dsmtx_plan(), config)
    plan = FaultPlan(
        faults=(StateCorruption("memory", at_s=7.35e-3, words=4),), seed=2)
    engine = ChaosEngine(plan).attach(system.env)
    stats = system.run().stats
    assert engine.state_corruption_log == [("memory", 7.35e-3, 4)]
    assert stats.ft_corruptions_detected == 4
    assert stats.ft_corruptions_repaired == 4
    assert stats.ft_corruptions_unrepairable == 0
    assert stats.committed_mtxs == ITERATIONS
    assert (memory_fingerprint(system.commit.master)
            == memory_fingerprint(reference.commit.master))


@pytest.fixture(scope="module")
def specfor_scrub_reference():
    """``(scrub interval, fault-free system, its result)`` of a
    192-iteration integrity ``speculative_for`` run whose sweep interval
    is a sixteenth of a probe run's simulated time, as ``repro scrub``
    sizes it (the 5 ms default would never sweep a 1.5 ms run)."""
    probe, _ = build_specfor(iterations=192)
    interval = probe.run().elapsed_seconds / 16
    system, _ = build_specfor(iterations=192, scrub_interval_s=interval)
    return interval, system, system.run()


@pytest.mark.parametrize("seed", range(4))
def test_specfor_scrubber_repairs_master_flips(seed, specfor_scrub_reference):
    # The reservation service owns committed memory as the commit unit
    # does, and the same PrimaryImage sweeps it: four words of the
    # service's master flip at 30% of the run, the sweeps find the
    # flipped pages and repair them from the reservation standby's
    # copy, and the run commits the fault-free image.
    interval, ref_system, ref_result = specfor_scrub_reference
    plan = FaultPlan(
        faults=(StateCorruption(
            "memory", at_s=0.3 * ref_result.elapsed_seconds, words=4),),
        seed=seed,
    )
    system, engine = build_specfor(plan, iterations=192, scrub_interval_s=interval)
    result = system.run()
    stats = result.stats
    assert engine.state_corruption_log[0][2] == 4
    assert stats.ft_scrub_rounds >= 1
    assert stats.ft_corruptions_detected >= 1
    assert stats.ft_corruptions_unrepairable == 0
    assert_same_results(system, result, (ref_system, ref_result))


#: Twelve words on three pages, for commit groups that repeat addresses.
TABLE_ADDRESSES = tuple(
    page * 4096 + index * 8 for page in (2, 3, 5) for index in (0, 1, 7, 511))

_table_writes = st.lists(
    st.tuples(st.sampled_from(TABLE_ADDRESSES),
              st.one_of(st.integers(-10**6, 10**6), st.text(max_size=2))),
    min_size=1, max_size=6,
)
_table_steps = st.lists(
    st.one_of(
        st.tuples(st.just("commit"), _table_writes, st.booleans()),
        st.tuples(st.just("seq"), _table_writes, st.booleans()),
        st.tuples(st.just("flip"), st.integers(0, 63), st.integers(0, 15)),
        st.tuples(st.just("sweep")),
    ),
    max_size=24,
)


def page_contents(space):
    """page number -> {index: value} of the pages holding a word."""
    return {page.number: dict(page.items())
            for page in space.iter_pages() if page.present_mask}


def model_pages(model):
    pages = {}
    for address, value in model.items():
        pages.setdefault(address >> 12, {})[(address & 4095) >> 3] = value
    return pages


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.sampled_from(TABLE_ADDRESSES),
                       st.integers(-10**6, 10**6), max_size=4),
       _table_steps)
def test_digest_table_tracks_a_flip_free_model(prologue, steps):
    """Differential test of the page-digest table against a model of
    what master should hold, over commit groups (repeated addresses,
    last write wins), SEQ-style writes, silent flips and scrub sweeps
    with their ``_repair_page`` installs.  After every step each table
    entry is the digest of the model's page, and a sweep flags exactly
    the pages whose content differs from the model.  A write the
    standby has not yet received can leave its copy of a page stale; a
    sweep then refuses to repair that page (the standby gets the write
    at the next replicated step) and repairs every other one."""
    system, _ = build()
    commit, replica = system.commit, system.standby
    master = commit.master
    for address, value in prologue.items():
        master.write(address, value)
    commit.image.seed_digests()
    replica.seed_image(master)
    model = dict(prologue)
    unreplicated = []
    flagged = []
    repair = commit.image._repair_page

    def recording_repair(page, expected):
        flagged.append(page.number)
        return repair(page, expected)

    commit.image._repair_page = recording_repair
    for step in steps:
        kind = step[0]
        if kind in ("commit", "seq"):
            _, writes, replicated = step
            if kind == "commit":
                commit._apply_group([(WRITE, a, v) for a, v in writes])
            else:  # SEQ writes master directly, then digests its words
                for address, value in writes:
                    master.write(address, value)
                commit.image.digest_writes(writes)
            model.update(writes)
            unreplicated.extend(writes)
            if replicated:
                replica.replay_log.extend(unreplicated)
                unreplicated.clear()
        elif kind == "flip":
            _, pick, bit = step
            words = [(page, index) for page in master.iter_pages()
                     for index, value in page.items() if type(value) is int]
            if words:
                page, index = words[pick % len(words)]
                page.writable_words(index)[index] ^= 1 << bit
        else:
            expected = model_pages(model)
            actual = page_contents(master)
            differs = {n for n in expected.keys() | actual.keys()
                       if expected.get(n, {}) != actual.get(n, {})}
            copy = page_contents(replica.image)
            for address, value in replica.replay_log:
                copy.setdefault(address >> 12, {})[(address & 4095) >> 3] = value
            stale = {n for n in differs if copy.get(n, {}) != expected.get(n, {})}
            flagged.clear()
            unrepairable = system.stats.ft_corruptions_unrepairable
            assert commit.image.scrub_once() == len(differs)
            assert sorted(flagged) == sorted(differs)
            actual = page_contents(master)
            assert {n for n in expected.keys() | actual.keys()
                    if expected.get(n, {}) != actual.get(n, {})} == stale
            assert (system.stats.ft_corruptions_unrepairable
                    == unrepairable + len(stale))
        pages = model_pages(model)
        assert commit.image._page_digests == {
            number: page_digest(Page(number, words))
            for number, words in pages.items()
        }


# -- durable state: promotion refusal ---------------------------------------------


@pytest.mark.parametrize("paradigm", ["dsmtx", "specfor"])
def test_corrupt_checkpoint_image_refuses_promotion(paradigm, request):
    # Flip a word in the standby's image just before the node holding
    # the committed state (the commit unit, or the reservation service)
    # dies: the standby must refuse to promote corrupted state into the
    # new truth, failing the run loudly instead.
    build_system, reference = promotion_case(paradigm, request)
    ref_system, ref_result = reference
    elapsed = ref_result.elapsed_seconds
    plan = FaultPlan(
        faults=(
            StateCorruption("checkpoint", at_s=0.89 * elapsed, words=1),
            NodeCrash(node=ref_system.node_of(ref_system.commit_tid),
                      at_s=0.9 * elapsed),
        ),
        seed=7,
    )
    system, _ = build_system(plan)
    with pytest.raises(ClusterFailedError, match="refuses promotion"):
        system.run()
    stats = system.stats
    assert stats.ft_corruptions_unrepairable == 1
    assert stats.failures and stats.failures[-1].corrupt_image


@pytest.mark.parametrize("paradigm", ["dsmtx", "specfor"])
def test_clean_promotion_still_succeeds_under_integrity(paradigm, request):
    # Integrity must not get in the way of a legitimate failover: with
    # an intact image the standby's digests verify and promotion
    # completes with byte-identical results.
    build_system, reference = promotion_case(paradigm, request)
    ref_system, ref_result = reference
    plan = FaultPlan(
        faults=(NodeCrash(node=ref_system.node_of(ref_system.commit_tid),
                          at_s=0.5 * ref_result.elapsed_seconds),),
        seed=7,
    )
    system, _ = build_system(plan)
    result = system.run()
    assert result.stats.ft_promotions == 1
    assert result.stats.ft_corruptions_unrepairable == 0
    assert_same_results(system, result, reference)


# -- speculative state: read validation --------------------------------------------


def test_speculative_read_corruption_misspeculates_and_repairs():
    ref_system, _ = build(workload_cls=SharedReader)
    ref_result = ref_system.run()
    # The reference must actually validate reads, or the "detection"
    # below would be vacuous (ToyDoall's read set is empty).
    assert ref_result.stats.reads_checked > 0
    # words=10_000 flips every clean resident word in every live
    # worker cache — deterministically including the shared seed copy,
    # whatever else the caches hold at that instant.
    plan = FaultPlan(
        faults=(StateCorruption(
            "speculative", at_s=0.4 * ref_result.elapsed_seconds,
            words=10_000),),
        seed=5,
    )
    system, engine = build(plan, workload_cls=SharedReader)
    result = system.run()
    assert engine.state_corruption_log[0][2] > 0  # words actually flipped
    assert result.stats.misspeculations >= 1
    assert_same_results(system, result, (ref_system, ref_result))


# -- zero cost when disabled -------------------------------------------------------


def test_integrity_off_leaves_no_integrity_state():
    system, _ = build(integrity=False)
    result = system.run()
    stats = result.stats
    assert stats.ft_corruptions_detected == 0
    assert stats.ft_corruptions_repaired == 0
    assert stats.ft_corruptions_unrepairable == 0
    assert stats.ft_scrub_rounds == 0
    assert stats.ft_scrub_pages == 0


def calls_into(module, fn):
    """Run ``fn()`` under a profiler; return its result and the names of
    the functions in ``module`` it entered."""
    target = os.path.abspath(module.__file__)
    entered = set()

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code.co_filename == target:
            entered.add(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, entered


def test_integrity_off_runs_no_integrity_code():
    # The profiler sees integrity code when it runs...
    _, entered = calls_into(integrity, lambda: payload_checksum(("W", 8, 1)))
    assert "payload_checksum" in entered

    # ... and an FT crc32 job with a commit standby but integrity off
    # calls none of it, neither while building nor while running.
    def job():
        config = SystemConfig(total_cores=8, fault_tolerance=True,
                              commit_replication=True, placement="spread",
                              integrity=False)
        return DSMTXSystem(Crc32(iterations=48).dsmtx_plan(), config).run()

    result, entered = calls_into(integrity, job)
    assert result.stats.committed_mtxs == 48
    assert entered == set()

    # The same holds for an FT speculative_for job with a standby.
    def specfor_job():
        system, _ = build_specfor(integrity=False)
        return system.run()

    result, entered = calls_into(integrity, specfor_job)
    assert result.stats.committed_mtxs == ITERATIONS
    assert entered == set()


def test_replication_off_runs_no_standby_code():
    # The exact form of "commit replication costs nothing when off"
    # (tests/chaos/test_replication_overhead.py times it).  The profiler
    # sees standby code when a standby is built...
    def replicated():
        config = SystemConfig(total_cores=8, fault_tolerance=True,
                              commit_replication=True, placement="spread")
        return DSMTXSystem(Crc32(iterations=48).dsmtx_plan(), config)

    _, entered = calls_into(standby, replicated)
    assert "__init__" in entered

    # ... and an FT crc32 job without one, integrity on, calls none of
    # it, neither while building nor while running.
    def job():
        config = SystemConfig(total_cores=8, fault_tolerance=True,
                              commit_replication=False, placement="spread",
                              integrity=True)
        return DSMTXSystem(Crc32(iterations=48).dsmtx_plan(), config).run()

    result, entered = calls_into(standby, job)
    assert result.stats.committed_mtxs == 48
    assert result.stats.ft_scrub_rounds > 0
    assert entered == set()

    # The same holds for an FT speculative_for job, whose scrubber
    # sweeps the reservation service's master.
    def specfor_job():
        system, _ = build_specfor(commit_replication=False, scrub_interval_s=1e-4)
        return system.run()

    result, entered = calls_into(standby, specfor_job)
    assert result.stats.committed_mtxs == ITERATIONS
    assert result.stats.ft_scrub_rounds > 0
    assert entered == set()


def test_plain_ft_run_is_untouched_by_the_feature():
    # Two fresh integrity-off builds simulate the exact same run — the
    # integrity hooks read no global state and schedule no processes
    # when disabled (the golden-digest suite pins this across
    # versions; this pins it in-process).
    fingerprints = []
    for _ in range(2):
        system, _ = build(integrity=False)
        result = system.run()
        fingerprints.append((
            result.stats.elapsed_seconds,
            result.stats.committed_mtxs,
            result.stats.queue_bytes,
            system.env.events_processed,
        ))
    assert fingerprints[0] == fingerprints[1]
