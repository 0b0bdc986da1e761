"""Counter, rate and histogram primitives.

These are deliberately tiny, allocation-free objects: simulators update
them on hot paths (every fetched instruction), so they avoid any clever
indirection.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple


class Counter:
    """A monotonically increasing event counter."""

    __slots__ = ("name", "description", "value")

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self.value = 0

    def increment(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Rate:
    """A hits-over-events ratio, e.g. a predictor hit rate.

    The rate is undefined (reported as ``None``) until at least one event
    has been recorded; callers that format rates render undefined values
    as ``"n/a"`` rather than silently reporting 0.0.
    """

    __slots__ = ("name", "description", "hits", "events")

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self.hits = 0
        self.events = 0

    def record(self, hit: bool) -> None:
        self.events += 1
        if hit:
            self.hits += 1

    def record_many(self, hits: int, events: int) -> None:
        self.hits += hits
        self.events += events

    @property
    def value(self) -> Optional[float]:
        if self.events == 0:
            return None
        return self.hits / self.events

    @property
    def misses(self) -> int:
        return self.events - self.hits

    def reset(self) -> None:
        self.hits = 0
        self.events = 0

    def __repr__(self) -> str:
        value = self.value
        shown = "n/a" if value is None else f"{value:.4f}"
        return f"Rate({self.name}={shown}, {self.hits}/{self.events})"


class Histogram:
    """A sparse integer-keyed histogram (e.g. call-depth distribution)."""

    __slots__ = ("name", "description", "buckets")

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self.buckets: Dict[int, int] = {}

    def record(self, key: int, amount: int = 1) -> None:
        self.buckets[key] = self.buckets.get(key, 0) + amount

    @property
    def total(self) -> int:
        return sum(self.buckets.values())

    @property
    def mean(self) -> Optional[float]:
        total = self.total
        if total == 0:
            return None
        return sum(key * count for key, count in self.buckets.items()) / total

    @property
    def max_key(self) -> Optional[int]:
        if not self.buckets:
            return None
        return max(self.buckets)

    def percentile(self, fraction: float) -> Optional[int]:
        """Return the smallest key at or below which ``fraction`` of mass lies."""
        total = self.total
        if total == 0:
            return None
        threshold = fraction * total
        running = 0
        for key in sorted(self.buckets):
            running += self.buckets[key]
            if running >= threshold:
                return key
        return max(self.buckets)

    def reset(self) -> None:
        self.buckets.clear()

    def items(self) -> Iterator[Tuple[int, int]]:
        return iter(sorted(self.buckets.items()))

    def __repr__(self) -> str:
        return f"Histogram({self.name}, n={self.total})"


class StatGroup:
    """A named collection of statistics owned by one simulator component.

    Components create their stats through the group so that a simulator
    can enumerate and print everything it measured without knowing each
    component's internals.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._stats: "Dict[str, object]" = {}

    def counter(self, name: str, description: str = "") -> Counter:
        stat = Counter(name, description)
        self._register(name, stat)
        return stat

    def rate(self, name: str, description: str = "") -> Rate:
        stat = Rate(name, description)
        self._register(name, stat)
        return stat

    def histogram(self, name: str, description: str = "") -> Histogram:
        stat = Histogram(name, description)
        self._register(name, stat)
        return stat

    def _register(self, name: str, stat: object) -> None:
        if name in self._stats:
            raise ValueError(f"duplicate stat name {name!r} in group {self.name!r}")
        self._stats[name] = stat

    def __getitem__(self, name: str) -> object:
        return self._stats[name]

    def __contains__(self, name: str) -> bool:
        return name in self._stats

    def names(self) -> List[str]:
        return list(self._stats)

    def all_stats(self) -> List[object]:
        return list(self._stats.values())

    def reset(self) -> None:
        for stat in self._stats.values():
            stat.reset()  # type: ignore[attr-defined]
