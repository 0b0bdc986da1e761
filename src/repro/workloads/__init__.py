"""Synthetic SPECint95-inspired workloads.

The paper evaluates on SPECint95 binaries; we have neither the binaries
nor a MIPS compiler, so each benchmark is replaced by a synthetic
program generated from a behavioural *profile* (call density, call
depth, recursion, branch predictability, indirect-jump mix) chosen to
mimic the published character of that benchmark. See DESIGN.md for the
substitution argument.
"""

from repro.workloads.rng import DeterministicRng
from repro.workloads.profiles import (
    WorkloadProfile,
    BENCHMARK_NAMES,
    profile_for,
    all_profiles,
)
from repro.workloads.generator import WorkloadGenerator, build_workload
from repro.workloads.kernels import (
    ackermann_kernel,
    dispatch_kernel,
    fibonacci_kernel,
    hanoi_kernel,
    loop_sum_kernel,
    mutual_recursion_kernel,
    stack_stress_kernel,
    tree_sum_kernel,
)

__all__ = [
    "BENCHMARK_NAMES",
    "DeterministicRng",
    "WorkloadGenerator",
    "WorkloadProfile",
    "ackermann_kernel",
    "all_profiles",
    "build_workload",
    "dispatch_kernel",
    "fibonacci_kernel",
    "hanoi_kernel",
    "loop_sum_kernel",
    "mutual_recursion_kernel",
    "profile_for",
    "stack_stress_kernel",
    "tree_sum_kernel",
]
