"""Multipath execution (the paper's Section 5).

Rather than predicting a low-confidence conditional branch, the
processor *forks*: both sides fetch, dispatch and execute concurrently,
sharing fetch/dispatch bandwidth and the RUU; when the branch resolves,
the losing side's RUU entries are selectively invalidated and retire as
bubbles (the paper's footnote 3). The return-address stack is the
interesting casualty: concurrent paths interleave pushes and pops on a
unified stack, corrupting it beyond what any checkpoint can repair —
the fix the paper lands on is one stack per path context, copied on
fork.
"""

from repro.multipath.path import PathContext
from repro.multipath.stacks import StackOrganizer


def __getattr__(name: str) -> object:
    # the reference CPU loads on first access: the columnar engine
    # imports this package for ``path`` and ``stacks`` alone, and should
    # not pay for it
    if name == "MultipathCPU":
        from repro.multipath.cpu import MultipathCPU
        return MultipathCPU
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = ["MultipathCPU", "PathContext", "StackOrganizer"]
