"""Tests for the metric primitives and registry semantics."""

import math

import pytest

from repro.obs import Counter, Gauge, Histogram, MetricsRegistry, StageTimeline


class TestCounter:
    def test_starts_at_zero(self):
        c = Counter("requests_total")
        assert c.value() == 0.0
        assert c.total() == 0.0

    def test_inc_accumulates(self):
        c = Counter("requests_total")
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5

    def test_labels_are_independent_series(self):
        c = Counter("requests_total")
        c.inc(kind="read")
        c.inc(3, kind="write")
        assert c.value(kind="read") == 1
        assert c.value(kind="write") == 3
        assert c.value(kind="atomic") == 0
        assert c.total() == 4

    def test_label_order_is_canonical(self):
        c = Counter("x")
        c.inc(a="1", b="2")
        c.inc(b="2", a="1")
        assert c.value(a="1", b="2") == 2
        assert len(list(c.samples())) == 1

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)

    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError):
            Counter("has space")
        with pytest.raises(ValueError):
            Counter("")


class TestGauge:
    def test_set_overwrites(self):
        g = Gauge("depth")
        g.set(5)
        g.set(2)
        assert g.value() == 2

    def test_set_max_keeps_high_water_mark(self):
        g = Gauge("depth")
        g.set_max(5)
        g.set_max(2)
        g.set_max(9)
        assert g.value() == 9


class TestHistogram:
    def test_empty_series_reads_as_zero(self):
        h = Histogram("lat", buckets=(1, 2, 4))
        assert h.count() == 0
        assert h.total() == 0.0
        assert h.mean() == 0.0
        assert h.bucket_counts() == [0, 0, 0, 0]

    def test_single_sample(self):
        h = Histogram("lat", buckets=(1, 2, 4))
        h.observe(3)
        assert h.count() == 1
        assert h.mean() == 3.0
        # 3 falls in the (2, 4] bucket.
        assert h.bucket_counts() == [0, 0, 1, 0]

    def test_boundary_lands_in_lower_bucket(self):
        h = Histogram("lat", buckets=(1, 2, 4))
        h.observe(2)
        assert h.bucket_counts() == [0, 1, 0, 0]

    def test_overflow_bucket(self):
        h = Histogram("lat", buckets=(1, 2, 4))
        h.observe(100)
        assert h.bucket_counts() == [0, 0, 0, 1]

    def test_min_max_tracking(self):
        h = Histogram("lat", buckets=(10,))
        for v in (5, 1, 8):
            h.observe(v)
        (_, series), = h.samples()
        assert series.min == 1
        assert series.max == 8

    def test_bounds_sorted_and_deduped(self):
        h = Histogram("lat", buckets=(4, 1, 4, 2))
        assert h.buckets == (1.0, 2.0, 4.0)

    def test_empty_bounds_fall_back_to_defaults(self):
        assert Histogram("lat", buckets=()).buckets == Histogram.DEFAULT_BUCKETS

    def test_observe_counts_matches_one_at_a_time(self):
        # The stages publish integer histograms from value -> count
        # tallies; the result must equal per-event observation exactly,
        # zero counts included (they create no series).
        values = [7, 0, 3, 7, 300, 3, 3, 12]
        one = Histogram("lat", buckets=(1, 4, 16))
        for v in values:
            one.observe(v, stage="x")
        tally = {0: 0, 99: 0}
        for v in values:
            tally[v] = tally.get(v, 0) + 1
        bulk = Histogram("lat", buckets=(1, 4, 16))
        bulk.observe_counts(tally, stage="x")
        bulk.observe_counts({5: 0}, stage="y")
        [(labels, a)], [(_, b)] = list(one.samples()), list(bulk.samples())
        assert labels == {"stage": "x"}
        assert (a.counts, a.sum, a.count, a.min, a.max) == (
            b.counts, b.sum, b.count, b.min, b.max
        )


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TypeError):
            reg.gauge("a")

    def test_introspection(self):
        reg = MetricsRegistry()
        reg.counter("b")
        reg.gauge("a")
        assert "a" in reg
        assert "missing" not in reg
        assert len(reg) == 2
        assert reg.names() == ["a", "b"]
        assert reg.get("missing") is None

    def test_flat_dict(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2, kind="read")
        reg.gauge("g").set(7)
        reg.histogram("h", buckets=(1, 2)).observe(2)
        flat = reg.as_flat_dict()
        assert flat["c{kind=read}"] == 2
        assert flat["g"] == 7
        assert flat["h_count"] == 1
        assert flat["h_sum"] == 2
        assert flat["h_mean"] == 2

    def test_flat_dict_of_empty_run(self):
        reg = MetricsRegistry()
        reg.counter("never_incremented")
        reg.histogram("never_observed")
        assert reg.as_flat_dict() == {}


class TestRegistryMerge:
    def test_counters_add(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(2, op="read")
        b.counter("c").inc(3, op="read")
        b.counter("c").inc(1, op="write")
        assert a.merge(b) is a
        assert a.counter("c").value(op="read") == 5
        assert a.counter("c").value(op="write") == 1

    def test_gauges_take_incoming_value(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("g").set(1)
        b.gauge("g").set(9)
        a.merge(b)
        assert a.gauge("g").value() == 9

    def test_histograms_add_bucket_counts(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", buckets=(1, 2)).observe(1)
        b.histogram("h", buckets=(1, 2)).observe(2)
        b.histogram("h", buckets=(1, 2)).observe(5)
        a.merge(b)
        h = a.histogram("h", buckets=(1, 2))
        assert h.count() == 3
        assert h.bucket_counts() == [1, 1, 1]
        (_, series), = h.samples()
        assert series.min == 1
        assert series.max == 5

    def test_histogram_bucket_mismatch_raises(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", buckets=(1, 2)).observe(1)
        b.histogram("h", buckets=(1, 4)).observe(1)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_kind_mismatch_raises(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("x").inc()
        b.gauge("x").set(1)
        with pytest.raises(TypeError):
            a.merge(b)

    def test_merge_brings_unknown_metrics_across(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        b.counter("only_in_b", help="h", unit="u").inc(4)
        a.merge(b)
        assert a.counter("only_in_b").value() == 4
        assert a.get("only_in_b").unit == "u"

    def test_merge_of_empty_registries(self):
        a = MetricsRegistry()
        a.merge(MetricsRegistry())
        assert len(a) == 0

    def test_timelines_concatenate(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.timeline.record(1, "sorter", "full")
        b.timeline.record(2, "crq", "fill", 10)
        a.merge(b)
        assert len(a.timeline) == 2
        assert a.timeline.stages() == ["sorter", "crq"]


class TestTimeline:
    def test_record_and_filter(self):
        tl = StageTimeline()
        tl.record(1, "sorter", "full", 16)
        tl.record(2, "crq", "fill")
        tl.record(3, "sorter", "timeout", 4)
        assert len(tl) == 3
        assert [e.cycle for e in tl.iter_events(stage="sorter")] == [1, 3]
        assert [e.event for e in tl.iter_events(event="fill")] == ["fill"]

    def test_bounded_capacity_counts_drops(self):
        tl = StageTimeline(max_events=2)
        for cycle in range(5):
            tl.record(cycle, "s", "e")
        assert len(tl) == 2
        assert tl.dropped == 3

    def test_event_as_dict_omits_missing_value(self):
        tl = StageTimeline()
        tl.record(1, "s", "e")
        tl.record(2, "s", "e", 7)
        first, second = tl.events
        assert "value" not in first.as_dict()
        assert second.as_dict()["value"] == 7


class TestBoundHandles:
    """``Histogram.observe_each`` took over the one job the per-label
    bound handles still had: publishing a vault's queue waits in one
    pass.  It must be observationally identical to one ``observe`` per
    value -- same buckets, sum, count, min and max -- since the result
    digest covers the output."""

    def test_histogram_observe_each_matches_one_at_a_time(self):
        # Bucket edges, repeats, 0.0, overflow, and an order whose
        # left-fold sum differs from the sorted or exact sum.
        values = [0.0, 1.0, 2.0, 2.0, 0.0, 0.1, 0.3, 300.0, 0.2, 0.7, 0.001]
        assert sum(values) != math.fsum(values)
        a = Histogram("h", buckets=(0.0, 1.0, 2.0, 256.0))
        b = Histogram("h", buckets=(0.0, 1.0, 2.0, 256.0))
        a.observe_each(values, vault="0")
        for v in values:
            b.observe(v, vault="0")
        # A second batch folds onto the existing series.
        a.observe_each([0.5, 0.0], vault="0")
        b.observe(0.5, vault="0")
        b.observe(0.0, vault="0")
        [(ka, sa)] = a.samples()
        [(kb, sb)] = b.samples()
        assert ka == kb
        assert (sa.counts, sa.sum, sa.count, sa.min, sa.max) == (
            sb.counts, sb.sum, sb.count, sb.min, sb.max
        )

    def test_histogram_observe_each_of_nothing_creates_no_series(self):
        h = Histogram("h")
        h.observe_each([], vault="0")
        assert not list(h.samples())
