"""Unit tests for workload generation and characterisation."""

import pytest

from repro.emu import Emulator
from repro.errors import WorkloadError
from repro.isa.opcodes import ControlClass
from repro.workloads import (
    BENCHMARK_NAMES,
    DeterministicRng,
    build_workload,
    dispatch_kernel,
    profile_for,
    stack_stress_kernel,
)
from repro.workloads.characterize import characterize
from repro.workloads.generator import WorkloadGenerator, _depth_mask
from repro.workloads.profiles import all_profiles


class TestRng:
    def test_determinism(self):
        a = DeterministicRng(7)
        b = DeterministicRng(7)
        assert [a.randint(0, 100) for _ in range(20)] == [
            b.randint(0, 100) for _ in range(20)
        ]

    def test_seeds_differ(self):
        a = DeterministicRng(1)
        b = DeterministicRng(2)
        assert [a.bits(32) for _ in range(4)] != [b.bits(32) for _ in range(4)]

    def test_randint_bounds(self):
        rng = DeterministicRng(3)
        values = [rng.randint(5, 9) for _ in range(200)]
        assert min(values) == 5
        assert max(values) == 9

    def test_randint_empty_range(self):
        with pytest.raises(ValueError):
            DeterministicRng(1).randint(3, 2)

    def test_random_in_unit_interval(self):
        rng = DeterministicRng(4)
        assert all(0.0 <= rng.random() < 1.0 for _ in range(100))

    def test_weighted_choice_respects_weights(self):
        rng = DeterministicRng(5)
        picks = [rng.weighted_choice([("a", 0.99), ("b", 0.01)])
                 for _ in range(200)]
        assert picks.count("a") > 150

    def test_weighted_choice_bad_weights(self):
        with pytest.raises(ValueError):
            DeterministicRng(1).weighted_choice([("a", 0.0)])

    def test_shuffle_is_permutation(self):
        rng = DeterministicRng(6)
        items = list(range(30))
        shuffled = list(items)
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items

    def test_sample_indices_distinct(self):
        rng = DeterministicRng(7)
        sample = rng.sample_indices(50, 10)
        assert len(set(sample)) == 10

    def test_sample_too_large(self):
        with pytest.raises(ValueError):
            DeterministicRng(1).sample_indices(3, 4)

    def test_choice_empty(self):
        with pytest.raises(ValueError):
            DeterministicRng(1).choice([])


class TestProfiles:
    def test_all_eight_benchmarks(self):
        assert len(BENCHMARK_NAMES) == 8
        assert set(BENCHMARK_NAMES) == {
            "compress", "gcc", "go", "ijpeg", "li", "m88ksim", "perl", "vortex",
        }

    def test_profile_lookup(self):
        assert profile_for("li").recursive_functions > 0

    def test_unknown_profile(self):
        with pytest.raises(WorkloadError):
            profile_for("nonesuch")

    def test_all_profiles_order(self):
        assert [p.name for p in all_profiles()] == list(BENCHMARK_NAMES)

    def test_footprints_are_powers_of_two(self):
        # the generator masks heap indices, which requires powers of two.
        for profile in all_profiles():
            n = profile.mem_footprint_words
            assert n & (n - 1) == 0, profile.name


class TestDepthMask:
    @pytest.mark.parametrize("max_depth,expected", [
        (1, 1), (2, 1), (3, 3), (6, 3), (7, 7), (24, 15), (31, 31),
    ])
    def test_mask_never_exceeds(self, max_depth, expected):
        assert _depth_mask(max_depth) == expected


class TestGenerator:
    def test_deterministic_across_calls(self):
        a = build_workload("li", seed=9)
        b = build_workload("li", seed=9)
        assert len(a) == len(b)
        assert [repr(i) for i in a.text[:200]] == [repr(i) for i in b.text[:200]]

    def test_seeds_change_program(self):
        a = build_workload("li", seed=1)
        b = build_workload("li", seed=2)
        assert [repr(i) for i in a.text] != [repr(i) for i in b.text]

    def test_scale_changes_dynamic_length_only(self):
        short = characterize(build_workload("m88ksim", seed=1, scale=0.25),
                             max_instructions=2_000_000)
        long = characterize(build_workload("m88ksim", seed=1, scale=1.0),
                            max_instructions=2_000_000)
        assert long.instructions > 2 * short.instructions
        assert long.static_instructions == short.static_instructions

    def test_bad_scale_rejected(self):
        with pytest.raises(WorkloadError):
            WorkloadGenerator(profile_for("li"), scale=0.0)

    @pytest.mark.parametrize("name", BENCHMARK_NAMES)
    def test_every_benchmark_terminates(self, name):
        # Small scale keeps the suite fast; termination at any scale is
        # structural (DAG call graph + bounded recursion).
        program = build_workload(name, seed=1, scale=0.1)
        stats = Emulator(program, max_instructions=2_000_000).run()
        assert stats.halted
        assert stats.calls == stats.returns

    def test_calls_and_returns_balance_across_seeds(self):
        for seed in (3, 4):
            program = build_workload("vortex", seed=seed, scale=0.1)
            stats = Emulator(program, max_instructions=2_000_000).run()
            assert stats.calls == stats.returns

    def test_li_is_call_dense_and_deep(self):
        li = characterize(build_workload("li", seed=1, scale=0.5),
                          max_instructions=2_000_000)
        ijpeg = characterize(build_workload("ijpeg", seed=1, scale=0.5),
                             max_instructions=2_000_000)
        assert li.call_pct > 2 * ijpeg.call_pct
        assert li.max_call_depth > ijpeg.max_call_depth

    def test_vortex_chains_deep(self):
        vortex = characterize(build_workload("vortex", seed=1, scale=0.5),
                              max_instructions=2_000_000)
        assert vortex.max_call_depth >= 8

    def test_indirect_jumps_present_in_perl(self):
        # at least one seed exercises the dispatch tables
        total = 0.0
        for seed in (1, 2, 3):
            c = characterize(build_workload("perl", seed=seed, scale=0.5),
                             max_instructions=2_000_000)
            total += c.indirect_jump_pct
        assert total > 0.0


class TestKernelPrograms:
    def test_stack_stress_depth(self):
        program = stack_stress_kernel(depth=16, repeats=2)
        stats = Emulator(program).run()
        # the initial call to dive is depth 1; recursion adds `depth` more.
        assert stats.call_depth.max_key == 17
        assert stats.calls == 2 * 17

    def test_dispatch_kernel_indirect_jumps(self):
        program = dispatch_kernel(iterations=64, table_size=8)
        stats = Emulator(program).run()
        assert stats.indirect_jumps >= 64

    def test_dispatch_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            dispatch_kernel(table_size=6)

    def test_kernels_have_balanced_calls(self):
        for program in (stack_stress_kernel(8, 2), dispatch_kernel(32, 4)):
            stats = Emulator(program).run()
            assert stats.calls == stats.returns


class TestCharacterize:
    def test_character_fields(self):
        c = characterize(build_workload("go", seed=1, scale=0.1),
                         max_instructions=2_000_000)
        assert c.instructions > 500
        assert 0 < c.cond_branch_pct < 30
        assert c.call_pct == pytest.approx(c.return_pct, rel=0.01)
        row = c.as_row()
        assert row[0] == "go"
        assert len(row) == 11
