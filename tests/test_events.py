"""Event model: attribute fields, events, windows, frozen stores, frequencies."""
from __future__ import annotations

import numpy as np
import pytest

from proxystream.events import (
    BOOLEAN,
    CATEGORICAL,
    NUMERIC,
    AttributeField,
    Event,
    EventStore,
    SchemaError,
    TimeWindow,
    frequencies_from_codes,
)


# -- attribute fields ------------------------------------------------------

def test_attribute_field_kinds():
    assert AttributeField("x", NUMERIC).encode("2.5") == 2.5
    f = AttributeField("c", CATEGORICAL, ("red", "green"))
    assert f.encode("green") == 1.0
    assert f.decode(0.0) == "red"
    b = AttributeField("b", BOOLEAN)
    assert b.encode(True) == 1.0
    assert b.encode("false") == 0.0
    assert b.encode("Yes") == 1.0
    assert b.decode(1.0) is True


def test_attribute_field_rejects_bad_declarations():
    with pytest.raises(SchemaError):
        AttributeField("x", "interval")
    with pytest.raises(SchemaError):
        AttributeField("c", CATEGORICAL)  # categorical needs categories
    with pytest.raises(SchemaError):
        AttributeField("c", CATEGORICAL, ("a", "a"))


def test_attribute_field_rejects_bad_values():
    with pytest.raises(SchemaError):
        AttributeField("x", NUMERIC).encode("not a number")
    with pytest.raises(SchemaError):
        AttributeField("c", CATEGORICAL, ("a", "b")).encode("z")
    with pytest.raises(SchemaError):
        AttributeField("b", BOOLEAN).encode("maybe")


def test_event_rejects_negative_time():
    with pytest.raises(ValueError):
        Event("e", "visit", -0.5)


# -- time windows ----------------------------------------------------------

def test_window_is_half_open():
    w = TimeWindow(1.0, 2.0)
    assert w.contains(1.0)
    assert w.contains(1.9)
    assert not w.contains(2.0)
    assert not w.contains(0.999)


def test_window_requires_positive_length():
    with pytest.raises(ValueError):
        TimeWindow(2.0, 2.0)
    with pytest.raises(ValueError):
        TimeWindow(3.0, 1.0)


def test_window_slice_excludes_right_edge():
    store = EventStore([
        Event("a", "visit", 1.0),
        Event("b", "visit", 1.9),
        Event("c", "visit", 2.0),
    ])
    lo, hi = store.window_bounds(TimeWindow(1.0, 2.0))
    assert [store.event_at(row).time for row in range(lo, hi)] == [1.0, 1.9]


# -- stores ----------------------------------------------------------------

def _tiny_store() -> EventStore:
    schema = (AttributeField("value", NUMERIC),)
    return EventStore(
        [
            Event("b", "visit", 3.0, {"value": 30.0}),
            Event("a", "visit", 1.0, {"value": 10.0}),
            Event("a", "pay", 2.0, {"value": 20.0}),
        ],
        event_schema=schema,
    )


def test_store_sorts_by_time():
    store = _tiny_store()
    assert np.array_equal(store.times, [1.0, 2.0, 3.0])
    assert np.array_equal(store.event_attribute("value"), [10.0, 20.0, 30.0])


def test_store_sort_is_stable():
    events = [Event("a", "visit", 1.0, {"value": float(i)}) for i in range(5)]
    store = EventStore(events, event_schema=(AttributeField("value", NUMERIC),))
    assert np.array_equal(store.event_attribute("value"), np.arange(5.0))


def test_entity_codes_follow_first_appearance_in_time():
    store = _tiny_store()
    # "a" appears first at t=1 even though "b" came first in the input list
    assert store.entity_ids == ["a", "b"]
    assert np.array_equal(store.entity_codes, [0, 0, 1])
    assert store.entity_code("b") == 1
    with pytest.raises(KeyError):
        store.entity_code("nobody")


def test_alphabet_defaults_to_sorted_labels():
    assert _tiny_store().alphabet == ("pay", "visit")


def test_explicit_alphabet_is_validated():
    with pytest.raises(SchemaError):
        EventStore([Event("a", "visit", 0.0)], alphabet=("pay",))
    with pytest.raises(SchemaError):
        EventStore([Event("a", "visit", 0.0)], alphabet=("visit", "visit"))


def test_store_arrays_are_frozen():
    store = _tiny_store()
    for arr in (store.times, store.entity_codes, store.activity_codes,
                store.event_attribute("value"), store.first_times):
        with pytest.raises(ValueError):
            arr[0] = 99


def test_event_attribute_schema_enforced():
    schema = (AttributeField("value", NUMERIC),)
    with pytest.raises(SchemaError):
        EventStore([Event("a", "visit", 0.0)], event_schema=schema)  # missing
    with pytest.raises(SchemaError):
        EventStore(
            [Event("a", "visit", 0.0, {"value": 1.0, "extra": 2.0})],
            event_schema=schema,
        )


def test_entity_attributes_are_per_entity():
    schema = (AttributeField("tier", CATEGORICAL, ("basic", "plus")),)
    store = EventStore(
        [Event("a", "visit", 0.0), Event("b", "visit", 1.0), Event("a", "visit", 2.0)],
        entity_schema=schema,
        entity_attributes={"a": {"tier": "plus"}, "b": {"tier": "basic"}},
    )
    assert np.array_equal(store.entity_attribute("tier"), [1.0, 0.0])
    with pytest.raises(SchemaError):
        EventStore([Event("a", "visit", 0.0)], entity_schema=schema)
    with pytest.raises(SchemaError):
        EventStore([Event("a", "visit", 0.0)], entity_schema=schema,
                   entity_attributes={"a": {}})


def test_event_at_round_trips_attributes():
    store = _tiny_store()
    e = store.event_at(1)
    assert e == Event("a", "pay", 2.0, {"value": 20.0})
    assert [ev.activity for ev in store] == ["visit", "pay", "visit"]


def test_first_times_and_entities_in_window():
    store = _tiny_store()
    assert np.array_equal(store.first_times, [1.0, 3.0])
    assert np.array_equal(store.entities_in_window(TimeWindow(0.0, 2.5)), [0])
    assert np.array_equal(store.entities_in_window(TimeWindow(0.0, 3.5)), [0, 1])
    lo, hi = store.window_bounds(TimeWindow(0.0, 10.0))
    rows = np.nonzero(store.entity_codes[lo:hi] == store.entity_code("a"))[0] + lo
    assert [store.event_at(int(row)) for row in rows] == [
        Event("a", "visit", 1.0, {"value": 10.0}),
        Event("a", "pay", 2.0, {"value": 20.0}),
    ]


def test_from_arrays_sorts_and_validates():
    store = EventStore.from_arrays(
        np.array([2.0, 1.0]), np.array([0, 1]), np.array([1, 0]),
        ["x", "y"], ("pay", "visit"),
    )
    assert np.array_equal(store.times, [1.0, 2.0])
    assert np.array_equal(store.entity_codes, [1, 0])
    with pytest.raises(SchemaError):
        EventStore.from_arrays(np.array([0.0]), np.array([0]), np.array([5]),
                               ["x"], ("pay",))
    with pytest.raises(SchemaError):
        EventStore.from_arrays(np.array([0.0]), np.array([3]), np.array([0]),
                               ["x"], ("pay",))


def test_empty_store():
    store = EventStore([])
    assert len(store) == 0
    assert store.alphabet == ()
    assert store.entity_count == 0
    assert store.window_bounds(TimeWindow(0.0, 1.0)) == (0, 0)


# -- activity frequencies --------------------------------------------------

def _store_frequencies(events, alphabet) -> np.ndarray:
    """Label frequencies of ``events`` through a store's activity codes."""
    store = EventStore(events, alphabet=alphabet)
    return frequencies_from_codes(store.activity_codes, len(store.alphabet))


def test_activity_frequencies_fixture():
    events = [Event("e", "a", 0.0), Event("e", "a", 1.0), Event("e", "b", 2.0)]
    got = _store_frequencies(events, ("a", "b", "c"))
    assert np.allclose(got, [2 / 3, 1 / 3, 0.0])
    assert got.sum() == pytest.approx(1.0)


def test_activity_frequencies_empty_is_zero():
    assert np.array_equal(_store_frequencies([], ("a", "b")), [0.0, 0.0])
    assert np.array_equal(frequencies_from_codes(np.array([], dtype=int), 2), [0.0, 0.0])


def test_activity_frequencies_rejects_unknown_label():
    with pytest.raises(SchemaError):
        _store_frequencies([Event("e", "z", 0.0)], ("a", "b"))
    for code in (-1, 2):
        with pytest.raises(SchemaError):
            frequencies_from_codes(np.array([0, code]), 2)


def test_frequencies_sum_to_one():
    rng = np.random.default_rng(7)
    alphabet = tuple("abcde")
    for _ in range(20):
        codes = rng.integers(0, 5, rng.integers(1, 40))
        events = [Event("e", alphabet[c], float(i)) for i, c in enumerate(codes)]
        freq = _store_frequencies(events, alphabet)
        assert freq.sum() == pytest.approx(1.0)
        assert (freq >= 0).all()
        assert np.allclose(freq, np.bincount(codes, minlength=5) / len(codes))
