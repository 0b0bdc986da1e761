"""Labelled metrics with deterministic snapshot/merge semantics.

:class:`MetricsRegistry` generalises the flat
:mod:`repro.stats.counters` primitives the simulators use on their hot
paths: the same ``Counter``/``Rate``/``Histogram`` objects (plus
``Gauge``), but keyed by a *metric key* — a name plus sorted labels,
encoded Prometheus-style as ``name{k=v,k2=v2}`` — and equipped with
``snapshot``/``merge`` so metrics gathered in different places (serial
loop, pool workers, separate sweeps) aggregate to bit-identical state
regardless of arrival order:

* counters and histograms **add**,
* rates add ``hits`` and ``events`` (a weighted aggregate, never a
  mean of means),
* gauges keep the **max** — the one order-independent aggregate of
  per-worker levels.

Snapshots are plain sorted-key dicts of JSON types, so they embed
directly in run-ledger entries (:mod:`repro.telemetry.ledger`) and
compare with ``==``.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from repro.stats.counters import Counter, Gauge, Histogram, Rate

Snapshot = Dict[str, Dict[str, object]]

#: Snapshot sections, in emission order.
_SECTIONS = ("counters", "gauges", "rates", "histograms")


def metric_key(name: str, labels: Mapping[str, object]) -> str:
    """Canonical key for ``name`` + ``labels``: ``name{k=v}``.

    Labels are sorted by key, so every construction order yields the
    same key — the property snapshot equality rests on.
    """
    if not labels:
        return name
    inner = ",".join(f"{key}={labels[key]}" for key in sorted(labels))
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """A set of labelled metrics that snapshots and merges deterministically."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._rates: Dict[str, Rate] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- metric access (creates on first use) --------------------------

    def counter(self, name: str, **labels: object) -> Counter:
        key = metric_key(name, labels)
        stat = self._counters.get(key)
        if stat is None:
            stat = self._counters[key] = Counter(key)
        return stat

    def gauge(self, name: str, **labels: object) -> Gauge:
        key = metric_key(name, labels)
        stat = self._gauges.get(key)
        if stat is None:
            stat = self._gauges[key] = Gauge(key)
        return stat

    def rate(self, name: str, **labels: object) -> Rate:
        key = metric_key(name, labels)
        stat = self._rates.get(key)
        if stat is None:
            stat = self._rates[key] = Rate(key)
        return stat

    def histogram(self, name: str, **labels: object) -> Histogram:
        key = metric_key(name, labels)
        stat = self._histograms.get(key)
        if stat is None:
            stat = self._histograms[key] = Histogram(key)
        return stat

    # -- snapshot / merge ----------------------------------------------

    def snapshot(self) -> Snapshot:
        """Plain-dict view with sorted keys (JSON-ready, ``==``-able)."""
        return {
            "counters": {key: self._counters[key].value
                         for key in sorted(self._counters)},
            "gauges": {key: self._gauges[key].value
                       for key in sorted(self._gauges)},
            "rates": {key: {"hits": rate.hits, "events": rate.events}
                      for key, rate in sorted(self._rates.items())},
            "histograms": {
                key: {str(bucket): hist.buckets[bucket]
                      for bucket in sorted(hist.buckets)}
                for key, hist in sorted(self._histograms.items())
            },
        }

    def merge(self, snapshot: Optional[Mapping[str, object]]) -> "MetricsRegistry":
        """Fold a snapshot in (see the module docstring for semantics).

        Accepts any snapshot-shaped mapping — including one loaded back
        from a ledger entry's JSON — and returns ``self`` for chaining.
        Because each metric kind merges with an associative, commutative
        operation, merging per-worker snapshots in *any* order produces
        the same state.
        """
        if not snapshot:
            return self
        for key, value in snapshot.get("counters", {}).items():  # type: ignore[union-attr]
            self.counter(key).increment(int(value))
        for key, value in snapshot.get("gauges", {}).items():  # type: ignore[union-attr]
            gauge = self.gauge(key)
            gauge.set(max(gauge.value, float(value)))
        for key, value in snapshot.get("rates", {}).items():  # type: ignore[union-attr]
            self.rate(key).record_many(int(value["hits"]), int(value["events"]))
        for key, buckets in snapshot.get("histograms", {}).items():  # type: ignore[union-attr]
            hist = self.histogram(key)
            for bucket, count in buckets.items():
                hist.record(int(bucket), int(count))
        return self

    @classmethod
    def from_snapshot(cls, snapshot: Mapping[str, object]) -> "MetricsRegistry":
        return cls().merge(snapshot)

    def merge_registry(self, other: "MetricsRegistry") -> "MetricsRegistry":
        return self.merge(other.snapshot())

    def __len__(self) -> int:
        return (len(self._counters) + len(self._gauges)
                + len(self._rates) + len(self._histograms))

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self)} metrics)"
