"""Unit tests for direction predictors, BTB and confidence estimation."""

import pytest

from repro.bpred import (
    BranchTargetBuffer,
    CounterTable,
    FrontEndPredictor,
    GAgPredictor,
    HybridPredictor,
    JrsConfidenceEstimator,
    PAgPredictor,
    SaturatingCounter,
    ShadowCheckpointPool,
)
from repro.config import BranchPredictorConfig
from repro.isa import Instruction, Opcode


class TestSaturatingCounter:
    def test_initial_weakly_taken(self):
        c = SaturatingCounter(bits=2)
        assert c.value == 2
        assert c.taken

    def test_saturates_high(self):
        c = SaturatingCounter(bits=2)
        for _ in range(10):
            c.update(True)
        assert c.value == 3

    def test_saturates_low(self):
        c = SaturatingCounter(bits=2)
        for _ in range(10):
            c.update(False)
        assert c.value == 0
        assert not c.taken

    def test_bad_bits(self):
        with pytest.raises(ValueError):
            SaturatingCounter(bits=0)


class TestCounterTable:
    def test_power_of_two_enforced(self):
        with pytest.raises(ValueError):
            CounterTable(100)

    def test_trains_per_index(self):
        t = CounterTable(16)
        for _ in range(3):
            t.update(5, True)
            t.update(6, False)
        assert t.predict(5)
        assert not t.predict(6)

    def test_index_wraps(self):
        t = CounterTable(16)
        t.update(5 + 16, True)
        assert t.value(5) == 3


class TestGAg:
    def test_learns_alternating_pattern(self):
        """A T/NT alternation is perfectly predictable from history."""
        g = GAgPredictor(entries=256)
        outcome = True
        correct = 0
        for i in range(400):
            predicted = g.predict(0)
            if i >= 200 and predicted == outcome:
                correct += 1
            g.update(0, outcome)
            outcome = not outcome
        assert correct == 200

    def test_history_width(self):
        g = GAgPredictor(entries=4096)
        assert g.history_bits == 12
        for _ in range(100):
            g.update(0, True)
        assert g.history == (1 << 12) - 1


class TestPAg:
    def test_per_branch_histories_independent(self):
        p = PAgPredictor(history_entries=64, history_bits=4)
        # Branch A always taken, branch B always not-taken.
        for _ in range(50):
            p.update(0, True)
            p.update(4, False)
        assert p.predict(0)
        assert not p.predict(4)
        assert p.history_of(0) == 0b1111
        assert p.history_of(4) == 0

    def test_power_of_two_enforced(self):
        with pytest.raises(ValueError):
            PAgPredictor(history_entries=100)


class TestHybrid:
    def test_learns_biased_branch(self):
        h = HybridPredictor(256, 64, 6, 256)
        for _ in range(50):
            h.update(8, True)
        assert h.predict(8)

    def test_selector_picks_better_component(self):
        """Period-3 per-branch pattern: PAg learns it, GAg struggles when
        the global history is polluted by another random-ish branch."""
        h = HybridPredictor(64, 64, 8, 64)
        pattern = [True, True, False]
        noise = [True, False, False, True, False, True, True, False]
        correct = 0
        total = 0
        for i in range(1200):
            h.update(20, noise[i % len(noise)])  # pollutes global history
            predicted = h.predict(8)
            outcome = pattern[i % 3]
            if i > 600:
                total += 1
                correct += predicted == outcome
            h.update(8, outcome)
        assert correct / total > 0.95


class TestBtb:
    def test_miss_then_hit(self):
        btb = BranchTargetBuffer(sets=16, assoc=2)
        assert btb.lookup(100) is None
        btb.update(100, 400, taken=True)
        assert btb.lookup(100) == 400

    def test_not_taken_never_allocates(self):
        btb = BranchTargetBuffer(sets=16, assoc=2)
        btb.update(100, 400, taken=False)
        assert btb.lookup(100) is None
        assert btb.occupancy() == 0

    def test_not_taken_preserves_existing_entry(self):
        btb = BranchTargetBuffer(sets=16, assoc=2)
        btb.update(100, 400, taken=True)
        btb.update(100, 999, taken=False)
        assert btb.lookup(100) == 400

    def test_taken_updates_target(self):
        btb = BranchTargetBuffer(sets=16, assoc=2)
        btb.update(100, 400, taken=True)
        btb.update(100, 800, taken=True)
        assert btb.lookup(100) == 800

    def test_lru_eviction(self):
        btb = BranchTargetBuffer(sets=1, assoc=2)
        btb.update(0, 10, True)
        btb.update(4, 20, True)
        btb.lookup(0)            # refresh 0 -> LRU is 4
        btb.update(8, 30, True)  # evicts 4
        assert btb.lookup(0) == 10
        assert btb.lookup(4) is None
        assert btb.lookup(8) == 30

    def test_set_conflicts_only_within_set(self):
        btb = BranchTargetBuffer(sets=2, assoc=1)
        btb.update(0, 10, True)   # set 0
        btb.update(4, 20, True)   # set 1
        assert btb.lookup(0) == 10
        assert btb.lookup(4) == 20

    def test_hit_rate(self):
        btb = BranchTargetBuffer(sets=16, assoc=2)
        btb.lookup(0)
        btb.update(0, 8, True)
        btb.lookup(0)
        assert btb.hit_rate == pytest.approx(0.5)

    def test_geometry_validated(self):
        with pytest.raises(ValueError):
            BranchTargetBuffer(sets=100)
        with pytest.raises(ValueError):
            BranchTargetBuffer(sets=16, assoc=0)


class TestConfidence:
    def test_starts_low_confidence(self):
        c = JrsConfidenceEstimator(entries=64, threshold=4)
        assert c.is_low_confidence(0)

    def test_correct_streak_builds_confidence(self):
        c = JrsConfidenceEstimator(entries=64, threshold=4)
        for _ in range(5):
            c.update(0, correct=True)
        assert not c.is_low_confidence(0)

    def test_mispredict_resets(self):
        c = JrsConfidenceEstimator(entries=64, threshold=4, maximum=15)
        for _ in range(20):
            c.update(0, correct=True)
        assert c.value(0) == 15
        c.update(0, correct=False)
        assert c.value(0) == 0
        assert c.is_low_confidence(0)

    def test_validation(self):
        with pytest.raises(ValueError):
            JrsConfidenceEstimator(entries=100)
        with pytest.raises(ValueError):
            JrsConfidenceEstimator(threshold=99)


class TestShadowPool:
    """The pool's budget, taken and returned by the front-end facade."""

    @staticmethod
    def _frontend(slots):
        return FrontEndPredictor(
            BranchPredictorConfig(shadow_checkpoint_slots=slots))

    def test_unlimited(self):
        fe = self._frontend(None)
        branch = Instruction(Opcode.BNEZ, rs=1, target=64)
        assert all(fe.predict(4 * i, branch).has_slot for i in range(1000))
        assert fe.shadow_pool.in_use == 1000
        assert fe.shadow_pool.exhausted_count == 0

    def test_limited_exhausts(self):
        fe = self._frontend(2)
        branch = Instruction(Opcode.BNEZ, rs=1, target=64)
        first = fe.predict(0, branch)
        assert first.has_slot
        assert fe.predict(4, branch).has_slot
        assert not fe.predict(8, branch).has_slot
        assert fe.shadow_pool.exhausted_count == 1
        fe.release(first)
        assert fe.predict(12, branch).has_slot
        assert fe.shadow_pool.in_use == 2

    def test_release_without_acquire(self):
        """Releasing a prediction that holds no slot returns nothing."""
        fe = self._frontend(1)
        branch = Instruction(Opcode.BNEZ, rs=1, target=64)
        holder = fe.predict(0, branch)
        starved = fe.predict(4, branch)
        direct = fe.predict(8, Instruction(Opcode.J, target=0))
        fe.release(starved)
        fe.release(direct)
        assert fe.shadow_pool.in_use == 1
        fe.release(holder)
        assert fe.shadow_pool.in_use == 0

    def test_negative_slots_rejected(self):
        with pytest.raises(ValueError):
            ShadowCheckpointPool(-1)
