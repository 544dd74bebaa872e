"""Tests for the issue queues, pseudo-ROB and the SLIQ machinery."""

import pytest

from repro.common.config import SLIQConfig
from repro.common.errors import StructuralHazardError
from repro.core.iq import InstructionQueue, WakeupNetwork
from repro.core.pseudo_rob import PseudoROB
from repro.core.regfile import PhysicalRegisterFile
from repro.core.sliq import LongLatencyTracker, SlowLaneQueue
from repro.isa.instruction import DynInst, InstState, Instruction, RetireClass
from repro.isa.opcodes import OpClass


def dyn(seq, dest=None, srcs=(), phys_dest=None, phys_srcs=()):
    instr = Instruction(pc=seq * 4, op=OpClass.FP_ALU, dest=dest, srcs=tuple(srcs))
    inst = DynInst(seq=seq, trace_index=seq, instr=instr)
    inst.state = InstState.DISPATCHED
    inst.dispatch_cycle = 0
    inst.phys_dest = phys_dest
    inst.phys_srcs = list(phys_srcs)
    return inst


@pytest.fixture
def prf(stats):
    prf = PhysicalRegisterFile(32, stats)
    for _ in range(32):
        prf.allocate()
    return prf


class TestInstructionQueue:
    def test_ready_at_insert_when_sources_ready(self, stats, prf):
        queue = InstructionQueue("iq", 4, stats)
        wakeup = WakeupNetwork()
        prf.set_ready(3)
        inst = dyn(1, phys_srcs=(3,))
        queue.insert(inst, prf, wakeup)
        assert queue.pop_ready() is inst

    def test_waits_for_wakeup(self, stats, prf):
        queue = InstructionQueue("iq", 4, stats)
        wakeup = WakeupNetwork()
        inst = dyn(1, phys_srcs=(3,))
        queue.insert(inst, prf, wakeup)
        assert queue.pop_ready() is None
        prf.set_ready(3)
        woken = wakeup.notify_ready(3)
        assert woken == [inst]
        queue.mark_ready(inst)
        assert queue.pop_ready() is inst

    def test_oldest_first_selection(self, stats, prf):
        queue = InstructionQueue("iq", 4, stats)
        wakeup = WakeupNetwork()
        young = dyn(9)
        old = dyn(2)
        queue.insert(young, prf, wakeup)
        queue.insert(old, prf, wakeup)
        assert queue.pop_ready() is old
        assert queue.pop_ready() is young

    def test_capacity_enforced(self, stats, prf):
        queue = InstructionQueue("iq", 1, stats)
        wakeup = WakeupNetwork()
        queue.insert(dyn(1), prf, wakeup)
        assert queue.is_full
        with pytest.raises(StructuralHazardError):
            queue.insert(dyn(2), prf, wakeup)

    def test_remove_frees_entry(self, stats, prf):
        queue = InstructionQueue("iq", 1, stats)
        wakeup = WakeupNetwork()
        inst = dyn(1)
        queue.insert(inst, prf, wakeup)
        queue.remove(inst)
        assert queue.occupancy == 0
        assert not inst.in_iq

    def test_removed_instruction_not_selected(self, stats, prf):
        queue = InstructionQueue("iq", 4, stats)
        wakeup = WakeupNetwork()
        inst = dyn(1)
        queue.insert(inst, prf, wakeup)
        queue.remove(inst)
        assert queue.pop_ready() is None

    def test_unpop_returns_candidate(self, stats, prf):
        queue = InstructionQueue("iq", 4, stats)
        wakeup = WakeupNetwork()
        inst = dyn(1)
        queue.insert(inst, prf, wakeup)
        popped = queue.pop_ready()
        queue.unpop(popped)
        assert queue.pop_ready() is popped

    def test_duplicate_wakeup_subscription_does_not_double_wake(self, stats, prf):
        """Regression test: re-registration after a SLIQ round trip must not
        produce two ready-heap entries (which would issue the instruction twice)."""
        queue = InstructionQueue("iq", 4, stats)
        wakeup = WakeupNetwork()
        inst = dyn(1, phys_srcs=(5,))
        queue.insert(inst, prf, wakeup)
        # Simulate a SLIQ round trip: leave the queue, come back, re-subscribe.
        queue.remove(inst)
        queue.insert(inst, prf, wakeup)
        prf.set_ready(5)
        woken_first = wakeup.notify_ready(5)
        woken_second = wakeup.notify_ready(5)
        assert woken_first.count(inst) <= 1
        assert woken_second == []

    def test_youngest_waiting(self, stats, prf):
        queue = InstructionQueue("iq", 4, stats)
        wakeup = WakeupNetwork()
        assert queue.youngest_waiting() is None
        older = dyn(2, phys_srcs=(7,))
        ready = dyn(5)
        younger = dyn(3, phys_srcs=(8,))
        for inst in (older, ready, younger):
            queue.insert(inst, prf, wakeup)
        assert queue.youngest_waiting() is younger
        queue.remove(younger)
        assert queue.youngest_waiting() is older
        prf.set_ready(7)
        for woken in wakeup.notify_ready(7):
            queue.mark_ready(woken)
        assert queue.youngest_waiting() is None


class TestPseudoROB:
    def test_fifo_order(self, stats):
        prob = PseudoROB(4, stats)
        first, second = dyn(1), dyn(2)
        prob.insert(first)
        prob.insert(second)
        assert prob.oldest() is first
        assert prob.retire_oldest() is first
        assert prob.retire_oldest() is second

    def test_membership_flag(self, stats):
        prob = PseudoROB(4, stats)
        inst = dyn(1)
        prob.insert(inst)
        assert prob.contains(inst)
        prob.retire_oldest()
        assert not prob.contains(inst)

    def test_capacity(self, stats):
        prob = PseudoROB(1, stats)
        prob.insert(dyn(1))
        assert prob.is_full
        with pytest.raises(StructuralHazardError):
            prob.insert(dyn(2))

    def test_retire_from_empty_rejected(self, stats):
        with pytest.raises(StructuralHazardError):
            PseudoROB(2, stats).retire_oldest()

    def test_remove_squashed(self, stats):
        prob = PseudoROB(4, stats)
        keep, squash = dyn(1), dyn(2)
        prob.insert(keep)
        prob.insert(squash)
        squash.mark_squashed()
        removed = prob.remove_squashed()
        assert removed == [squash]
        assert prob.occupancy == 1

    def test_classification_histogram(self, stats):
        prob = PseudoROB(4, stats)
        prob.record_classification(RetireClass.MOVED)
        prob.record_classification(RetireClass.MOVED)
        prob.record_classification(RetireClass.STORE)
        histogram = stats.histogram("pseudo_rob.retire_class")
        assert histogram.buckets["moved"] == 2
        assert histogram.fraction("store") == pytest.approx(1 / 3)


class TestLongLatencyTracker:
    def test_mark_and_detect_dependence(self):
        tracker = LongLatencyTracker()
        load = dyn(1, dest=10, phys_dest=70)
        tracker.mark_long_latency_load(load)
        consumer = dyn(2, dest=11, srcs=(10,))
        assert tracker.dependence_root(consumer) == 70

    def test_transitive_propagation(self):
        tracker = LongLatencyTracker()
        load = dyn(1, dest=10, phys_dest=70)
        tracker.mark_long_latency_load(load)
        middle = dyn(2, dest=11, srcs=(10,))
        tracker.mark_dependent(middle, 70)
        consumer = dyn(3, dest=12, srcs=(11,))
        assert tracker.dependence_root(consumer) == 70

    def test_redefinition_clears_mark(self):
        tracker = LongLatencyTracker()
        load = dyn(1, dest=10, phys_dest=70)
        tracker.mark_long_latency_load(load)
        redefiner = dyn(2, dest=10, srcs=(5,))
        tracker.clear_redefinition(redefiner)
        consumer = dyn(3, dest=12, srcs=(10,))
        assert tracker.dependence_root(consumer) is None

    def test_clear_root(self):
        tracker = LongLatencyTracker()
        load = dyn(1, dest=10, phys_dest=70)
        tracker.mark_long_latency_load(load)
        tracker.mark_dependent(dyn(2, dest=11, srcs=(10,)), 70)
        tracker.clear_root(70)
        assert not tracker.marked_registers

    def test_reset(self):
        tracker = LongLatencyTracker()
        tracker.mark_long_latency_load(dyn(1, dest=10, phys_dest=70))
        tracker.reset()
        assert not tracker.is_marked(10)


class TestSlowLaneQueue:
    def make(self, stats, size=8, delay=2, width=2, ready_fn=None):
        config = SLIQConfig(size=size, pseudo_rob_size=4, reinsert_width=width, reinsert_delay=delay)
        return SlowLaneQueue(config, stats, ready_fn=ready_fn)

    def test_insert_and_occupancy(self, stats):
        sliq = self.make(stats)
        inst = dyn(1, phys_srcs=(5,))
        sliq.insert(inst, wakeup_preg=5, cycle=0)
        assert sliq.occupancy == 1
        assert inst.in_sliq
        assert sliq.has_waiters(5)

    def test_overflow_rejected_unless_forced(self, stats):
        sliq = self.make(stats, size=1)
        sliq.insert(dyn(1), wakeup_preg=5, cycle=0)
        with pytest.raises(StructuralHazardError):
            sliq.insert(dyn(2), wakeup_preg=5, cycle=0)
        sliq.insert(dyn(3), wakeup_preg=5, cycle=0, force=True)
        assert sliq.occupancy == 2

    def test_wakeup_moves_to_stream_and_paces_reinsertion(self, stats):
        sliq = self.make(stats, delay=2, width=2)
        instructions = [dyn(i, phys_srcs=(5,)) for i in range(1, 6)]
        for inst in instructions:
            sliq.insert(inst, wakeup_preg=5, cycle=0)
        sliq.notify_ready(5)
        reinserted = []

        def accept(inst):
            reinserted.append(inst)
            return True

        # Two cycles of start-up delay: nothing flows.
        assert sliq.step(accept) == 0
        assert sliq.step(accept) == 0
        # Then two per cycle.
        assert sliq.step(accept) == 2
        assert sliq.step(accept) == 2
        assert sliq.step(accept) == 1
        assert reinserted == instructions
        assert sliq.is_empty

    def test_wakeup_only_wakes_matching_key(self, stats):
        sliq = self.make(stats, delay=0)
        a = dyn(1, phys_srcs=(5,))
        b = dyn(2, phys_srcs=(6,))
        sliq.insert(a, wakeup_preg=5, cycle=0)
        sliq.insert(b, wakeup_preg=6, cycle=0)
        sliq.notify_ready(5)
        out = []
        sliq.step(lambda inst: out.append(inst) or True)
        assert out == [a]
        assert sliq.has_waiters(6)

    def test_ready_fn_short_circuits_wait(self, stats, prf):
        prf.set_ready(5)
        sliq = self.make(stats, delay=0, ready_fn=prf.is_ready)
        inst = dyn(1, phys_srcs=(5,))
        sliq.insert(inst, wakeup_preg=5, cycle=0)
        out = []
        sliq.step(lambda i: out.append(i) or True)
        assert out == [inst]

    def test_stalled_reinsertion_retries(self, stats):
        sliq = self.make(stats, delay=0)
        inst = dyn(1)
        sliq.insert(inst, wakeup_preg=5, cycle=0)
        sliq.notify_ready(5)
        assert sliq.step(lambda i: False) == 0
        assert sliq.occupancy == 1
        out = []
        sliq.step(lambda i: out.append(i) or True)
        assert out == [inst]

    def test_refile_via_callback_result(self, stats):
        sliq = self.make(stats, delay=0)
        inst = dyn(1, phys_srcs=(5, 9))
        sliq.insert(inst, wakeup_preg=5, cycle=0)
        sliq.notify_ready(5)
        # The callback reports the instruction still depends on register 9.
        sliq.step(lambda i: 9)
        assert sliq.has_waiters(9)
        assert not sliq.has_waiters(5)
        assert sliq.occupancy == 1

    def test_parked_dest_tracking(self, stats):
        sliq = self.make(stats, delay=0)
        inst = dyn(1, dest=3, phys_dest=44, phys_srcs=(5,))
        sliq.insert(inst, wakeup_preg=5, cycle=0)
        assert sliq.is_parked_dest(44)
        sliq.notify_ready(5)
        assert sliq.is_parked_dest(44)  # still parked while in the stream
        sliq.step(lambda i: True)
        assert not sliq.is_parked_dest(44)

    def test_remove_squashed(self, stats):
        sliq = self.make(stats)
        keep = dyn(1, phys_srcs=(5,))
        squash = dyn(2, phys_srcs=(5,))
        sliq.insert(keep, wakeup_preg=5, cycle=0)
        sliq.insert(squash, wakeup_preg=5, cycle=0)
        squash.mark_squashed()
        removed = sliq.remove_squashed()
        assert removed == [squash]
        assert sliq.occupancy == 1

    def test_squashed_entries_skipped_in_stream(self, stats):
        sliq = self.make(stats, delay=0)
        first = dyn(1, phys_srcs=(5,))
        second = dyn(2, phys_srcs=(5,))
        sliq.insert(first, wakeup_preg=5, cycle=0)
        sliq.insert(second, wakeup_preg=5, cycle=0)
        sliq.notify_ready(5)
        first.mark_squashed()
        out = []
        sliq.step(lambda i: out.append(i) or True)
        assert out == [second]
