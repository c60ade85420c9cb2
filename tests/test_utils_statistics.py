"""Unit tests for the event counter."""

from __future__ import annotations

from repro.utils.statistics import Counter


class TestCounter:
    def test_starts_at_zero(self):
        counter = Counter()
        assert counter.get("anything") == 0
        assert "anything" not in counter

    def test_add_and_get(self):
        counter = Counter()
        counter.add("hits")
        counter.add("hits", 4)
        assert counter["hits"] == 5
        assert "hits" in counter

    def test_initial_values(self):
        counter = Counter({"misses": 3})
        assert counter.get("misses") == 3

    def test_as_dict_is_a_snapshot(self):
        counter = Counter({"a": 1})
        snapshot = counter.as_dict()
        counter.add("a")
        assert snapshot == {"a": 1}
