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
            first = cache.get_or_compute("k", lambda: (float("nan"),))
            again = cache.get_or_compute("k", lambda: (float("nan"),))
            assert again is first
            with pytest.raises(IncrementalMismatch):
                cache.get_or_compute("k", lambda: (-0.0,))
