"""Unit tests for protocol building blocks: interval sealing, notice
incorporation, concurrent-last-modifier analysis, copyset upkeep."""

import numpy as np
import pytest

from repro.core import Machine, MachineConfig, NetworkConfig
from repro.mem.intervals import IntervalRecord, WriteNotice
from repro.mem.timestamps import VectorClock
from repro.protocols.base import ProtocolError


def make_node(protocol="lh", nprocs=4):
    machine = Machine(MachineConfig(nprocs=nprocs,
                                    network=NetworkConfig.ideal()),
                      protocol=protocol)
    machine.allocate("seg", machine.config.words_per_page * 4)
    return machine, machine.nodes[0]


def record(proc, index, vc_components, pages, nprocs=4):
    return IntervalRecord(proc=proc, index=index,
                          vc=VectorClock(vc_components),
                          pages=frozenset(pages),
                          pending_ranges={p: [(0, 4)] for p in pages})


class TestSealing:
    def test_seal_noop_when_clean(self):
        machine, node = make_node()
        assert node.protocol.seal_interval() == 0.0
        assert node.vc == VectorClock.zero(4)

    def test_seal_creates_diff_and_record(self):
        machine, node = make_node()
        copy = node.pagetable.get(0)
        copy.values[3] = 9.0
        node.protocol.record_write(0, 3, 4)
        cost = node.protocol.seal_interval()
        assert cost == node.diff_creation_cost()
        assert node.vc[0] == 1
        assert node.diff_store.has(0, 1, 0)
        assert (0, 1) in node.interval_log
        rec = node.interval_log.get((0, 1))
        assert rec.pages == {0}
        assert node.protocol.unpropagated[(0, 1)] == {0}
        assert not copy.dirty
        assert copy.is_applied(0, 1)

    def test_seal_covers_multiple_pages_in_one_interval(self):
        machine, node = make_node()
        for page in (0, 1):
            copy = node.pagetable.get(page) or \
                node.pagetable.install(page)
            copy.valid = True
            node.protocol.record_write(page, 0, 2)
        cost = node.protocol.seal_interval()
        assert cost == 2 * node.diff_creation_cost()
        assert node.vc[0] == 1
        assert node.interval_log.get((0, 1)).pages == {0, 1}

    def test_single_proc_seal_skips_diffs(self):
        machine, node = make_node(nprocs=1)
        copy = node.pagetable.get(0)
        node.protocol.record_write(0, 0, 4)
        assert node.protocol.seal_interval() == 0.0
        assert len(node.diff_store) == 0
        assert not copy.dirty


class TestIncorporate:
    def test_new_record_attaches_notices(self):
        machine, node = make_node()
        rec = record(proc=1, index=1, vc_components=(0, 1, 0, 0),
                     pages=[0])
        node.protocol.incorporate_records([rec])
        copy = node.pagetable.get(0)
        assert [n.interval_id for n in copy.pending_notices] == [(1, 1)]
        assert node.copysets.believes_cached(0, 1)

    def test_duplicate_record_ignored(self):
        machine, node = make_node()
        rec = record(1, 1, (0, 1, 0, 0), [0])
        node.protocol.incorporate_records([rec])
        node.protocol.incorporate_records([rec])
        assert len(node.pagetable.get(0).pending_notices) == 1

    def test_own_records_skipped(self):
        machine, node = make_node()
        rec = record(0, 1, (1, 0, 0, 0), [0])
        node.protocol.incorporate_records([rec])
        assert node.pagetable.get(0).pending_notices == []

    def test_uncached_page_goes_to_orphans(self):
        machine, node = make_node()
        # Page 37 was never allocated/cached at node 0.
        rec = record(1, 1, (0, 1, 0, 0), [37])
        node.protocol.incorporate_records([rec])
        assert [n.interval_id for n in
                node.protocol.orphan_notices[37].values()] == [(1, 1)]


class TestConcurrentLastModifiers:
    def make(self):
        return make_node()[1].protocol

    def notice(self, proc, index, vc):
        return WriteNotice(page=0, proc=proc, index=index,
                           vc=VectorClock(vc))

    def test_single_writer_chain_collapses_to_latest(self):
        proto = self.make()
        notices = [self.notice(1, 1, (0, 1, 0, 0)),
                   self.notice(1, 2, (0, 2, 0, 0)),
                   self.notice(2, 1, (0, 2, 1, 0))]  # saw 1's writes
        assert proto.concurrent_last_modifiers(notices) == [2]

    def test_truly_concurrent_writers_all_reported(self):
        proto = self.make()
        notices = [self.notice(1, 1, (0, 1, 0, 0)),
                   self.notice(2, 1, (0, 0, 1, 0)),
                   self.notice(3, 2, (0, 0, 0, 2))]
        assert proto.concurrent_last_modifiers(notices) == [1, 2, 3]

    def test_mixed_chain_and_concurrent(self):
        proto = self.make()
        notices = [self.notice(1, 1, (0, 1, 0, 0)),
                   self.notice(2, 1, (0, 1, 1, 0)),  # after 1's
                   self.notice(3, 1, (0, 0, 0, 1))]  # concurrent
        assert proto.concurrent_last_modifiers(notices) == [2, 3]


class TestDueNotices:
    def test_notice_outside_cone_not_due(self):
        machine, node = make_node()
        copy = node.pagetable.get(0)
        ahead = WriteNotice(page=0, proc=1, index=3,
                            vc=VectorClock((0, 3, 0, 0)))
        copy.add_notice(ahead)
        assert node.protocol.due_notices(copy) == []
        # Once the acquirer's clock covers it, it becomes due.
        node.vc = node.vc.merged(VectorClock((0, 3, 0, 0)))
        assert node.protocol.due_notices(copy) == [ahead]

    def test_apply_pending_leaves_undue_notices(self):
        machine, node = make_node()
        copy = node.pagetable.get(0)
        ahead = WriteNotice(page=0, proc=1, index=3,
                            vc=VectorClock((0, 3, 0, 0)))
        copy.add_notice(ahead)
        assert node.protocol.apply_pending(copy)  # vacuously succeeds
        assert copy.pending_notices == [ahead]
        assert copy.valid


class TestInvalidation:
    def test_invalidate_dirty_page_rejected(self):
        machine, node = make_node()
        node.protocol.record_write(0, 0, 1)
        with pytest.raises(ProtocolError, match="dirty"):
            node.protocol.invalidate_page(0)

    def test_invalidate_counts_metric(self):
        machine, node = make_node()
        node.protocol.invalidate_page(0)
        assert not node.pagetable.get(0).valid
        assert node.ins.invalidations.value == 1
        node.protocol.invalidate_page(0)  # idempotent
        assert node.ins.invalidations.value == 1


class TestGrantPayload:
    def test_lazy_grant_ships_unknown_records_only(self):
        machine, node = make_node("li")
        copy = node.pagetable.get(0)
        copy.values[0] = 5.0
        node.protocol.record_write(0, 0, 1)
        node.protocol.seal_interval()
        node.protocol.record_write(0, 1, 2)
        node.protocol.seal_interval()
        # Requester already knows interval (0, 1).
        info, data = node.protocol.grant_payload(
            1, VectorClock((1, 0, 0, 0)))
        assert [r.interval_id for r in info.records] == [(0, 2)]
        assert info.diffs == []
        assert data == 0

    def test_hybrid_grant_attaches_diffs_for_believed_cachers(self):
        machine, node = make_node("lh")
        copy = node.pagetable.get(0)
        copy.values[0] = 5.0
        node.protocol.record_write(0, 0, 1)
        node.protocol.seal_interval()
        node.copysets.add(0, 1)  # we believe proc 1 caches page 0
        info, data = node.protocol.grant_payload(
            1, VectorClock.zero(4))
        assert [iid for iid, _d in info.diffs] == [(0, 1)]
        assert data > 0
        # A requester we do NOT believe caches the page gets notices
        # only.
        info2, data2 = node.protocol.grant_payload(
            2, VectorClock.zero(4))
        assert info2.diffs == []
        assert data2 == 0

    def test_eager_grant_is_empty(self):
        machine, node = make_node("eu")
        payload, data = node.protocol.grant_payload(
            1, VectorClock.zero(4))
        assert payload is None
        assert data == 0
