"""Memo-table tests: canonical value keys and cross-check comparison."""

import math

import pytest

from repro.cfront.fingerprint import IncrementalMismatch, forced_mode
from repro.memo import AnalysisCache, canonical_value


class TestCanonicalValue:
    @pytest.mark.parametrize("left, right", [
        (0.0, -0.0),
        (1, 1.0),
        (1, True),
        (1.0, True),
        (0, False),
        (float("nan"), -float("nan")),
        ([1, 2], (1, 2)),
        ([[1]], [1]),
        ({"a": 1, "b": 2}, {"b": 2, "a": 1}),
        (None, 0),
        ("1", 1),
    ])
    def test_separates_values_the_interpreter_can_tell_apart(
        self, left, right
    ):
        assert canonical_value(left) != canonical_value(right)

    def test_float_keyed_by_bit_pattern(self):
        nan = float("nan")
        assert canonical_value([nan, 1.5]) == canonical_value([nan, 1.5])
        assert canonical_value(math.inf) == canonical_value(math.inf)
        assert canonical_value(0.1 + 0.2) != canonical_value(0.3)

    def test_equal_values_get_equal_hashable_keys(self):
        value = [[1, 2.5, -3], {"x": True, "y": None}, ("ptr", 4)]
        copy = [[1, 2.5, -3], {"x": True, "y": None}, ("ptr", 4)]
        assert canonical_value(value) == canonical_value(copy)
        assert hash(canonical_value(value)) == hash(canonical_value(copy))


class TestCrossCheckComparison:
    def test_recomputed_nan_is_not_a_mismatch(self):
        cache = AnalysisCache("test.cross_nan")
        with forced_mode("cross"):
            first = cache.get_or_compute(lambda: "k", lambda: (float("nan"),))
            again = cache.get_or_compute(lambda: "k", lambda: (float("nan"),))
            assert again is first
            with pytest.raises(IncrementalMismatch):
                cache.get_or_compute(lambda: "k", lambda: (-0.0,))


class TestModeGate:
    def test_off_mode_builds_no_key_and_touches_no_table(self):
        cache = AnalysisCache("test.off_gate")

        def no_key():
            raise AssertionError("off mode built a memo key")

        with forced_mode("off"):
            assert cache.get_or_compute(no_key, lambda: 7) == 7
            assert cache.get_or_compute(no_key, lambda: 8) == 8
        assert (cache.hits, cache.misses, len(cache)) == (0, 0, 0)

    def test_none_key_computes_uncached(self):
        cache = AnalysisCache("test.none_key")
        with forced_mode("on"):
            assert cache.get_or_compute(lambda: None, lambda: 1) == 1
            assert cache.get_or_compute(lambda: None, lambda: 2) == 2
        assert (cache.hits, cache.misses, len(cache)) == (0, 0, 0)

    def test_on_mode_memoizes_by_key(self):
        cache = AnalysisCache("test.on_gate")
        with forced_mode("on"):
            assert cache.get_or_compute(lambda: "k", lambda: 1) == 1
            assert cache.get_or_compute(lambda: "k", lambda: 2) == 1
        assert (cache.hits, cache.misses, len(cache)) == (1, 1, 1)
