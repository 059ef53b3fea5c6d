"""Tests for the shared utility helpers."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShapeError
from repro.util import (
    check_index,
    check_nonnegative,
    check_positive,
    check_probability,
    check_same_length,
    geomean,
    human_bytes,
    safe_div,
)
from repro.util.numeric import left_sum


class TestValidation:
    def test_check_positive(self):
        check_positive("x", 1)
        with pytest.raises(ValueError, match="x must be positive"):
            check_positive("x", 0)

    def test_check_nonnegative(self):
        check_nonnegative("x", 0)
        with pytest.raises(ValueError):
            check_nonnegative("x", -1)

    def test_check_probability(self):
        check_probability("p", 0.0)
        check_probability("p", 1.0)
        with pytest.raises(ValueError):
            check_probability("p", 1.1)

    def test_check_index(self):
        check_index("i", 0, 3)
        check_index("i", 2, 3)
        with pytest.raises(IndexError):
            check_index("i", 3, 3)
        with pytest.raises(IndexError):
            check_index("i", -1, 3)

    def test_check_same_length(self):
        check_same_length("a", [1], "b", [2])
        with pytest.raises(ShapeError):
            check_same_length("a", [1], "b", [2, 3])


class TestNumeric:
    def test_geomean_basic(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)
        assert geomean([5.0]) == pytest.approx(5.0)

    def test_geomean_empty_rejected(self):
        with pytest.raises(ValueError):
            geomean([])

    def test_geomean_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])

    def test_safe_div(self):
        assert safe_div(6, 3) == 2.0
        assert safe_div(6, 0) == 0.0
        assert safe_div(6, 0, default=-1.0) == -1.0

    def test_human_bytes(self):
        assert human_bytes(512) == "512.00 B"
        assert human_bytes(1536) == "1.50 KB"
        assert human_bytes(3 * 1024**2) == "3.00 MB"
        assert human_bytes(2 * 1024**4) == "2.00 TB"

    def test_human_bytes_negative(self):
        with pytest.raises(ValueError):
            human_bytes(-1)


#: Summed in order, 1e16 + 1.0 rounds back to 1e16, so the += loop
#: ends on 2.0; a compensated sum (``sum()`` from Python 3.12 on) gives
#: the exact 3.0.
CANCELLING = (1e16, 1.0, -1e16, 1.0, 1.0)


class TestLeftSum:
    """Byte totals that reach results, metrics and traces are left folds,
    so they do not depend on the Python version."""

    def test_left_sum_is_the_loop_total(self):
        total = 0.0
        for value in CANCELLING:
            total += value
        assert total == 2.0
        assert left_sum(CANCELLING) == total
        assert left_sum([]) == 0.0

    def test_traffic_and_metric_totals_fold_left(self):
        from repro.arch.stats import TRAFFIC_CATEGORIES, TrafficBreakdown
        from repro.obs.metrics import MetricsRegistry, dram_metric

        traffic = TrafficBreakdown()
        registry = MetricsRegistry()
        for category, n_bytes in zip(TRAFFIC_CATEGORIES, CANCELLING):
            traffic.add(category, n_bytes)
            registry.gauge(dram_metric(category)).set(n_bytes)
        assert traffic.total_bytes == 2.0
        assert registry.dram_bytes_total() == 2.0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0.01, 100.0), min_size=1, max_size=20))
def test_property_geomean_between_min_and_max(values):
    g = geomean(values)
    assert min(values) - 1e-9 <= g <= max(values) + 1e-9


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(0.01, 100.0), min_size=1, max_size=10),
    st.floats(0.01, 100.0),
)
def test_property_geomean_scale_invariance(values, scale):
    scaled = geomean([v * scale for v in values])
    assert scaled == pytest.approx(geomean(values) * scale, rel=1e-9)
