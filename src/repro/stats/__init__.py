"""Statistics-gathering primitives used by every simulator in the package.

This mirrors the role of SimpleScalar's statistics module: simulators
declare named counters, rates and histograms up front, update them during
simulation, and render them as text tables afterwards.
"""

from repro.stats.counters import Counter, Gauge, Histogram, Rate, StatGroup
from repro.stats.tables import format_table, format_stat_group

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Rate",
    "StatGroup",
    "format_stat_group",
    "format_table",
]
