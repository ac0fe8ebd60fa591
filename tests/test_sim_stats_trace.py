"""Tests for simulation statistics."""

import pytest

from repro.sim.stats import Counter, Histogram, StatsRegistry


class TestCounter:
    def test_accumulates(self):
        counter = Counter("hits")
        counter.add()
        counter.add(4)
        assert counter.value == 5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("x").add(-1)

    def test_reset(self):
        counter = Counter("x")
        counter.add(3)
        counter.reset()
        assert counter.value == 0


class TestHistogram:
    def test_statistics(self):
        histogram = Histogram("lat")
        for sample in (4, 10, 1):
            histogram.record(sample)
        assert histogram.count == 3
        assert histogram.total == 15
        assert histogram.minimum == 1
        assert histogram.maximum == 10
        assert histogram.mean == 5.0

    def test_empty_mean_is_zero(self):
        assert Histogram("x").mean == 0.0

    def test_bucket_boundaries(self):
        # bucket 0 holds <= 0; bucket i holds 2**(i-1) <= s < 2**i
        histogram = Histogram("b")
        for sample in (0, 1, 2, 3, 4, 7, 8):
            histogram.record(sample)
        assert histogram.buckets == [1, 1, 2, 2, 1]
        assert Histogram.bucket_bounds(0) == (0, 0)
        assert Histogram.bucket_bounds(1) == (1, 1)
        assert Histogram.bucket_bounds(3) == (4, 7)
        assert Histogram.bucket_bounds(4) == (8, 15)

    def test_bucket_edges_land_in_correct_bucket(self):
        for index in range(1, 12):
            low, high = Histogram.bucket_bounds(index)
            histogram = Histogram("e")
            histogram.record(low)
            histogram.record(high)
            assert histogram.buckets[index] == 2, f"bucket {index}"

    def test_percentile_extremes_are_exact(self):
        histogram = Histogram("p")
        for sample in (3, 100, 17, 9, 250):
            histogram.record(sample)
        assert histogram.percentile(0) == 3.0
        assert histogram.percentile(100) == 250.0

    def test_percentile_single_sample(self):
        histogram = Histogram("s")
        histogram.record(42)
        for p in (0, 50, 99, 100):
            assert histogram.percentile(p) == 42.0

    def test_percentile_within_one_bucket(self):
        # all percentile estimates must stay inside the observed range
        histogram = Histogram("r")
        samples = [5, 6, 90, 100, 120, 1000]
        for sample in samples:
            histogram.record(sample)
        for p in (10, 25, 50, 75, 90, 99):
            value = histogram.percentile(p)
            assert min(samples) <= value <= max(samples)

    def test_percentile_monotone_in_p(self):
        histogram = Histogram("m")
        for sample in (1, 2, 4, 8, 16, 32, 64, 128):
            histogram.record(sample)
        estimates = [histogram.percentile(p) for p in range(0, 101, 5)]
        assert estimates == sorted(estimates)

    def test_percentile_empty_and_bad_p(self):
        histogram = Histogram("x")
        assert histogram.percentile(50) == 0.0
        with pytest.raises(ValueError):
            histogram.percentile(101)
        with pytest.raises(ValueError):
            histogram.percentile(-1)

    def test_reset_clears_buckets(self):
        histogram = Histogram("x")
        histogram.record(9)
        histogram.reset()
        assert histogram.buckets == []
        assert histogram.percentile(50) == 0.0


class TestStatsRegistry:
    def test_counter_identity(self):
        registry = StatsRegistry()
        assert registry.counter("a") is registry.counter("a")

    def test_value_of_untouched_counter(self):
        assert StatsRegistry().value("never") == 0

    def test_counters_snapshot_sorted(self):
        registry = StatsRegistry()
        registry.counter("z").add(1)
        registry.counter("a").add(2)
        assert list(registry.counters()) == ["a", "z"]

    def test_reset_all(self):
        registry = StatsRegistry()
        registry.counter("a").add(5)
        registry.histogram("h").record(3)
        registry.reset()
        assert registry.value("a") == 0
        assert registry.histogram("h").count == 0
