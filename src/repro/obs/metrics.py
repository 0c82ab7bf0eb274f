"""Metric primitives and the per-run registry.

The paper's evaluation is an argument about *per-stage* behaviour:
sorter occupancy (Section 3.3), DMC merge rates (Figure 12), CRQ fill
time (Figure 13), MSHR case A/B/C outcomes (Section 3.2.3) and HMC
bandwidth utilization (Figure 9).  This module gives every stage one
shared vocabulary for those numbers:

* :class:`Counter` -- a monotonically increasing total, optionally
  split by labels (e.g. ``sorter_sequences_total{reason=timeout}``);
* :class:`Gauge` -- a point-in-time value (e.g. the derived
  ``sim_bandwidth_efficiency`` of a finished run);
* :class:`Histogram` -- a bucketed distribution with sum/count/min/max
  (e.g. ``dmc_packet_lines``, ``crq_depth``);
* :class:`MetricsRegistry` -- the per-run container that owns all
  metrics plus a cycle-stamped :class:`repro.obs.timeline.StageTimeline`.

Registries from separate runs (or shards of one run) merge with
:meth:`MetricsRegistry.merge`: counters add, gauges take the incoming
value, histograms add bucket counts.  Exporters live in
:mod:`repro.obs.export`.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Iterator, Sequence

from repro.obs.timeline import StageTimeline

#: Canonical label-set key: sorted (name, value) pairs.
LabelKey = tuple[tuple[str, str], ...]

#: The (only) key of an unlabelled sample.  Most samples carry no
#: labels, so the write paths bypass :func:`label_key` entirely for
#: this case.
_EMPTY_KEY: LabelKey = ()


def label_key(labels: dict[str, str]) -> LabelKey:
    """Canonical hashable key for one label set."""
    if len(labels) == 1:
        # Hot path: almost every labelled sample carries one label, and
        # a one-pair tuple needs no sort.
        [(k, v)] = labels.items()
        return ((k if type(k) is str else str(k), v if type(v) is str else str(v)),)
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Metric:
    """Common identity of all metric kinds."""

    kind = "metric"

    def __init__(self, name: str, help: str = "", unit: str = ""):
        if not name or not name.replace("_", "").isalnum():
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self.unit = unit

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"


class Counter(Metric):
    """A monotonically increasing total, split by label sets."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", unit: str = ""):
        super().__init__(name, help, unit)
        self._values: dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = label_key(labels) if labels else _EMPTY_KEY
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        """Value of one label set (0 if never incremented)."""
        return self._values.get(label_key(labels), 0.0)

    def total(self) -> float:
        """Sum over every label set."""
        return sum(self._values.values())

    def samples(self) -> Iterator[tuple[dict[str, str], float]]:
        for key, value in sorted(self._values.items()):
            yield dict(key), value

    def _merge(self, other: "Counter") -> None:
        for key, value in other._values.items():
            self._values[key] = self._values.get(key, 0.0) + value


class Gauge(Metric):
    """A point-in-time value, split by label sets."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", unit: str = ""):
        super().__init__(name, help, unit)
        self._values: dict[LabelKey, float] = {}

    def set(self, value: float, **labels: str) -> None:
        key = label_key(labels) if labels else _EMPTY_KEY
        self._values[key] = float(value)

    def set_max(self, value: float, **labels: str) -> None:
        """Keep the running maximum (high-water-mark gauges)."""
        key = label_key(labels) if labels else _EMPTY_KEY
        if key not in self._values or value > self._values[key]:
            self._values[key] = float(value)

    def value(self, **labels: str) -> float:
        return self._values.get(label_key(labels), 0.0)

    def samples(self) -> Iterator[tuple[dict[str, str], float]]:
        for key, value in sorted(self._values.items()):
            yield dict(key), value

    def _merge(self, other: "Gauge") -> None:
        # Last writer wins: the incoming registry is the newer run.
        self._values.update(other._values)


class _HistogramSeries:
    """Bucket counts plus summary stats for one label set."""

    __slots__ = ("counts", "sum", "count", "min", "max")

    def __init__(self, num_buckets: int):
        self.counts = [0] * (num_buckets + 1)  # final slot is +inf
        self.sum = 0.0
        self.count = 0
        self.min: float | None = None
        self.max: float | None = None


class Histogram(Metric):
    """A bucketed distribution (upper-bound buckets plus overflow)."""

    kind = "histogram"

    #: Generic default: powers of two up to 64 Ki.
    DEFAULT_BUCKETS: tuple[float, ...] = tuple(2.0**k for k in range(17))

    def __init__(
        self,
        name: str,
        buckets: Iterable[float] | None = None,
        help: str = "",
        unit: str = "",
    ):
        super().__init__(name, help, unit)
        bounds = tuple(sorted(set(float(b) for b in (buckets or self.DEFAULT_BUCKETS))))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.buckets = bounds
        self._series: dict[LabelKey, _HistogramSeries] = {}

    def _get(self, labels: dict[str, str]) -> _HistogramSeries:
        key = label_key(labels) if labels else _EMPTY_KEY
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistogramSeries(len(self.buckets))
        return series

    def observe(self, value: float, **labels: str) -> None:
        series = self._get(labels)
        # First bound with value <= bound; the final (len(buckets))
        # slot of ``counts`` is the overflow bucket.
        series.counts[bisect_left(self.buckets, value)] += 1
        series.sum += value
        series.count += 1
        if series.min is None or value < series.min:
            series.min = value
        if series.max is None or value > series.max:
            series.max = value

    def observe_bulk(self, value: float, count: int, **labels: str) -> None:
        """Record ``count`` identical observations of ``value`` at once.

        Equivalent to calling :meth:`observe` ``count`` times (buckets,
        sum, count and min/max are all multiset functions, so repeats
        collapse to one bucket lookup).  ``count <= 0`` records nothing
        and materializes no series -- the stages' publish methods rely
        on that to create exactly the samples a per-event run would.
        """
        if count <= 0:
            return
        series = self._get(labels)
        series.counts[bisect_left(self.buckets, value)] += count
        series.sum += value * count
        series.count += count
        if series.min is None or value < series.min:
            series.min = value
        if series.max is None or value > series.max:
            series.max = value

    def observe_counts(self, counts: dict[float, int], **labels: str) -> None:
        """Record a ``{value: count}`` tally, one :meth:`observe_bulk`
        per value in sorted value order.

        For integer values this is bit-exact against observing each
        value one at a time: every partial sum is an integer below
        2**53, so the float sum does not depend on the order.
        """
        for value in sorted(counts):
            self.observe_bulk(value, counts[value], **labels)

    def observe_each(self, values: Sequence[float], **labels: str) -> None:
        """Observe every value of ``values``, in order, in one call.

        Equal to one :meth:`observe` per value: the same buckets, the
        same left-fold sum, and min/max taken over the sequence.  An
        empty sequence records nothing and materializes no series.
        """
        if not values:
            return
        series = self._get(labels)
        counts = series.counts
        buckets = self.buckets
        total = series.sum
        for value in values:
            counts[bisect_left(buckets, value)] += 1
            total += value
        series.sum = total
        series.count += len(values)
        lo = min(values)
        hi = max(values)
        if series.min is None or lo < series.min:
            series.min = lo
        if series.max is None or hi > series.max:
            series.max = hi

    # -- per-label-set reads ------------------------------------------------

    def count(self, **labels: str) -> int:
        s = self._series.get(label_key(labels))
        return s.count if s else 0

    def total(self, **labels: str) -> float:
        s = self._series.get(label_key(labels))
        return s.sum if s else 0.0

    def mean(self, **labels: str) -> float:
        s = self._series.get(label_key(labels))
        return s.sum / s.count if s and s.count else 0.0

    def bucket_counts(self, **labels: str) -> list[int]:
        """Per-bucket counts; the final entry is the overflow bucket."""
        s = self._series.get(label_key(labels))
        return list(s.counts) if s else [0] * (len(self.buckets) + 1)

    def samples(self) -> Iterator[tuple[dict[str, str], _HistogramSeries]]:
        for key, series in sorted(self._series.items()):
            yield dict(key), series

    def _merge(self, other: "Histogram") -> None:
        if other.buckets != self.buckets:
            raise ValueError(
                f"cannot merge histogram {self.name!r}: bucket bounds differ"
            )
        for key, theirs in other._series.items():
            mine = self._series.get(key)
            if mine is None:
                mine = self._series[key] = _HistogramSeries(len(self.buckets))
            for i, c in enumerate(theirs.counts):
                mine.counts[i] += c
            mine.sum += theirs.sum
            mine.count += theirs.count
            for bound_attr in ("min", "max"):
                val = getattr(theirs, bound_attr)
                if val is None:
                    continue
                cur = getattr(mine, bound_attr)
                if cur is None:
                    setattr(mine, bound_attr, val)
                elif bound_attr == "min":
                    setattr(mine, "min", min(cur, val))
                else:
                    setattr(mine, "max", max(cur, val))


class MetricsRegistry:
    """Per-run container of metrics plus the stage timeline.

    Every simulated component takes an optional registry; the driver
    hands one registry to all components of a run so their counters
    land in one namespace, and attaches it to the
    :class:`repro.sim.driver.SimulationResult`.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}
        self.timeline = StageTimeline()

    # -- get-or-create ------------------------------------------------------

    def _register(self, cls, name: str, help: str, unit: str, **kwargs) -> Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if type(existing) is not cls:
                raise TypeError(
                    f"metric {name!r} already registered as {existing.kind}"
                )
            return existing
        metric = cls(name, help=help, unit=unit, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "", unit: str = "") -> Counter:
        return self._register(Counter, name, help, unit)

    def gauge(self, name: str, help: str = "", unit: str = "") -> Gauge:
        return self._register(Gauge, name, help, unit)

    def histogram(
        self,
        name: str,
        buckets: Iterable[float] | None = None,
        help: str = "",
        unit: str = "",
    ) -> Histogram:
        return self._register(Histogram, name, help, unit, buckets=buckets)

    # -- introspection -------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def get(self, name: str) -> Metric | None:
        return self._metrics.get(name)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def metrics(self) -> Iterator[Metric]:
        for name in sorted(self._metrics):
            yield self._metrics[name]

    # -- merge ---------------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other`` into this registry (returns self).

        Counters add, gauges take the incoming value, histograms add
        bucket counts (bounds must match), timelines concatenate.
        """
        for name, theirs in other._metrics.items():
            mine = self._metrics.get(name)
            if mine is None:
                mine = self._register(
                    type(theirs), name, theirs.help, theirs.unit,
                    **({"buckets": theirs.buckets} if isinstance(theirs, Histogram) else {}),
                )
            elif type(mine) is not type(theirs):
                raise TypeError(
                    f"cannot merge metric {name!r}: {mine.kind} vs {theirs.kind}"
                )
            mine._merge(theirs)
        self.timeline.merge(other.timeline)
        return self

    # -- flat view (benchmark consumption) -----------------------------------

    def as_flat_dict(self) -> dict[str, float]:
        """Flatten to ``name{label=value,...} -> number``.

        Histograms contribute ``_count``, ``_sum`` and ``_mean``
        entries so benchmark assertions never have to touch buckets.
        """
        out: dict[str, float] = {}
        for metric in self.metrics():
            if isinstance(metric, Histogram):
                for labels, series in metric.samples():
                    base = _flat_name(metric.name, labels)
                    out[base + "_count"] = float(series.count)
                    out[base + "_sum"] = series.sum
                    out[base + "_mean"] = (
                        series.sum / series.count if series.count else 0.0
                    )
            else:
                for labels, value in metric.samples():
                    out[_flat_name(metric.name, labels)] = value
        return out


def _flat_name(name: str, labels: dict[str, str]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return f"{name}{{{inner}}}"


# -- no-op sink ---------------------------------------------------------------
#
# Every simulated component counts its events in its own *Stats
# dataclass and tallies, and writes its registry series once, from its
# publish method at the end of a run.  A component constructed
# standalone (unit tests, microbenchmarks, library use without
# observability) is handed the shared :data:`NULL_REGISTRY` instead: its
# timeline drops events as they happen, and a publish into it writes
# into throwaway metrics that are never registered.


class _NullTimeline(StageTimeline):
    """Timeline that drops every event."""

    def record(self, cycle, stage, event, value=None) -> None:  # noqa: D102
        return None


class NullMetricsRegistry(MetricsRegistry):
    """A registry that registers nothing and records nothing.

    ``counter``/``gauge``/``histogram`` hand back a fresh, unregistered
    metric on every call, so writes land nowhere the registry can see.
    The registry itself always stays empty; merging into it is a no-op.
    Use the module-level :data:`NULL_REGISTRY` singleton instead of
    constructing new ones.
    """

    def __init__(self) -> None:
        super().__init__()
        self.timeline = _NullTimeline(max_events=0)

    def _register(self, cls, name: str, help: str, unit: str, **kwargs) -> Metric:
        return cls(name, help=help, unit=unit, **kwargs)

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        return self


#: Shared no-op sink handed to components constructed without a registry.
NULL_REGISTRY = NullMetricsRegistry()
