"""Event model: attribute fields, windows, frozen stores, frequencies."""
from __future__ import annotations

import numpy as np
import pytest
from conftest import Event, store_from_events

from proxystream.events import (
    BOOLEAN,
    CATEGORICAL,
    NUMERIC,
    AttributeField,
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
    for value in ("nan", "inf", float("-inf")):
        with pytest.raises(SchemaError, match="not finite"):
            AttributeField("x", NUMERIC).encode(value)


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
    store = EventStore([1.0, 1.9, 2.0], [0, 1, 2], [0, 0, 0], ["a", "b", "c"], ("visit",))
    lo, hi = np.searchsorted(store.times, (1.0, 2.0))
    assert list(store.times[lo:hi]) == [1.0, 1.9]
    assert list(store.entity_codes[lo:hi]) == [0, 1]


# -- stores ----------------------------------------------------------------

def _tiny_store() -> EventStore:
    """"a" visits at t=1 and pays at t=2, "b" visits at t=3; given out of time order."""
    return EventStore([1.0, 3.0, 2.0], [0, 1, 0], [1, 1, 0], ["a", "b"], ("pay", "visit"),
                      event_schema=(AttributeField("value", NUMERIC),),
                      event_attrs={"value": [10.0, 30.0, 20.0]})


def _columns(**overrides) -> dict:
    """Constructor arguments of a valid two-event store, with overrides."""
    return {"times": np.array([2.0, 1.0]), "entity_codes": np.array([0, 1]),
            "activity_codes": np.array([1, 0]), "entity_ids": ["x", "y"],
            "alphabet": ("pay", "visit"), "event_schema": (AttributeField("value", NUMERIC),),
            "event_attrs": {"value": np.array([20.0, 10.0])},
            "entity_schema": (AttributeField("vip", BOOLEAN),),
            "entity_attrs": {"vip": np.array([1.0, 0.0])}, **overrides}


def test_store_sorts_by_time():
    store = _tiny_store()
    assert np.array_equal(store.times, [1.0, 2.0, 3.0])
    assert np.array_equal(store.event_attribute("value"), [10.0, 20.0, 30.0])


def test_store_sort_is_stable():
    events = [Event("a", "visit", 1.0, {"value": float(i)}) for i in range(5)]
    store = store_from_events(events, event_schema=(AttributeField("value", NUMERIC),))
    assert np.array_equal(store.event_attribute("value"), np.arange(5.0))


def test_entity_codes_are_kept_as_given():
    store = EventStore([1.0, 0.0], [0, 1], [0, 0], ["late", "early"], ("visit",))
    assert store.entity_ids == ["late", "early"]
    assert np.array_equal(store.entity_codes, [1, 0])
    assert store.entity_code("early") == 1
    with pytest.raises(KeyError):
        store.entity_code("nobody")


def test_explicit_alphabet_is_validated():
    for overrides in ({"alphabet": ("pay",)},
                      {"alphabet": ("pay", "pay")},
                      {"activity_codes": np.array([-1, 0])},
                      {"activity_codes": np.array([5, 0])}):
        with pytest.raises(SchemaError):
            EventStore(**_columns(**overrides))


def test_store_arrays_are_frozen():
    store = _tiny_store()
    for arr in (store.times, store.entity_codes, store.activity_codes,
                store.event_attribute("value"), store.first_times):
        with pytest.raises(ValueError):
            arr[0] = 99


def test_event_attribute_schema_enforced():
    for event_attrs in ({},  # declared, no column
                        None,
                        {"value": np.array([20.0, 10.0]), "extra": np.array([0.0, 0.0])}):
        with pytest.raises(SchemaError):
            EventStore(**_columns(event_attrs=event_attrs))


def test_entity_attributes_are_per_entity():
    schema = (AttributeField("tier", CATEGORICAL, ("basic", "plus")),)
    store = store_from_events(
        [Event("a", "visit", 0.0), Event("b", "visit", 1.0), Event("a", "visit", 2.0)],
        entity_schema=schema,
        entity_attributes={"a": {"tier": "plus"}, "b": {"tier": "basic"}},
    )
    assert np.array_equal(store.entity_attribute("tier"), [1.0, 0.0])
    for entity_attrs in ({},  # declared, no column
                         None,
                         {"vip": np.array([1.0, 0.0]), "extra": np.array([0.0, 0.0])}):
        with pytest.raises(SchemaError):
            EventStore(**_columns(entity_attrs=entity_attrs))


def test_store_rows_decode_to_their_columns():
    store = _tiny_store()
    assert [store.alphabet[c] for c in store.activity_codes] == ["visit", "pay", "visit"]
    assert [store.entity_ids[c] for c in store.entity_codes] == ["a", "a", "b"]
    value = store.event_schema[0]
    assert [value.decode(v) for v in store.event_attribute("value")] == [10.0, 20.0, 30.0]


def test_first_times_and_window_entities():
    store = _tiny_store()
    assert np.array_equal(store.first_times, [1.0, 3.0])
    for end, entities in ((2.5, [0]), (3.5, [0, 1])):
        lo, hi = np.searchsorted(store.times, (0.0, end))
        assert np.array_equal(np.unique(store.entity_codes[lo:hi]), entities)
    rows = np.flatnonzero(store.entity_codes == store.entity_code("a"))
    assert np.array_equal(store.times[rows], [1.0, 2.0])
    assert np.array_equal(store.event_attribute("value")[rows], [10.0, 20.0])
    assert [store.alphabet[c] for c in store.activity_codes[rows]] == ["visit", "pay"]


def test_store_sorts_columns_and_validates_codes():
    kwargs = _columns()
    store = EventStore(**kwargs)
    assert np.array_equal(store.times, [1.0, 2.0])
    assert np.array_equal(store.entity_codes, [1, 0])
    assert np.array_equal(store.activity_codes, [0, 1])
    assert np.array_equal(store.event_attribute("value"), [10.0, 20.0])
    assert np.array_equal(store.entity_attribute("vip"), [1.0, 0.0])  # per entity, unsorted
    assert kwargs["times"].flags.writeable  # the store froze copies, not the inputs
    assert kwargs["entity_attrs"]["vip"].flags.writeable
    with pytest.raises(SchemaError):
        EventStore(**_columns(entity_codes=np.array([0, 3])))
    with pytest.raises(ValueError):
        EventStore(**_columns(times=np.array([-1.0, 1.0])))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(SchemaError, match="finite"):
            EventStore(**_columns(times=np.array([0.0, bad])))


@pytest.mark.parametrize("overrides", [
    {"times": np.array([2.0, 1.0, 0.0])},
    {"entity_codes": np.array([0])},
    {"activity_codes": np.array([1, 0, 0])},
    {"event_attrs": {"value": np.array([20.0])}},
    {"event_attrs": {"value": np.array([20.0, 10.0, 0.0])}},
    {"entity_attrs": {"vip": np.array([1.0])}},
    {"entity_attrs": {"vip": np.array([1.0, 0.0, 1.0])}},
], ids=["times-long", "entity-codes-short", "activity-codes-long", "event-attr-short",
        "event-attr-long", "entity-attr-short", "entity-attr-long"])
def test_store_rejects_columns_of_the_wrong_length(overrides):
    with pytest.raises(SchemaError, match="length"):
        EventStore(**_columns(**overrides))


def test_empty_store():
    store = store_from_events([])
    assert len(store) == 0
    assert store.alphabet == ()
    assert store.entity_count == 0
    assert list(np.searchsorted(store.times, (0.0, 1.0))) == [0, 0]


# -- activity frequencies --------------------------------------------------

def test_activity_frequencies_fixture():
    got = frequencies_from_codes(np.array([0, 0, 1]), 3)
    assert np.allclose(got, [2 / 3, 1 / 3, 0.0])
    assert got.sum() == pytest.approx(1.0)


def test_activity_frequencies_empty_is_zero():
    assert np.array_equal(frequencies_from_codes(np.array([], dtype=int), 2), [0.0, 0.0])


def test_activity_frequencies_rejects_unknown_label():
    for code in (-1, 2):
        with pytest.raises(SchemaError):
            frequencies_from_codes(np.array([0, code]), 2)


def test_frequencies_sum_to_one():
    rng = np.random.default_rng(7)
    for _ in range(20):
        codes = rng.integers(0, 5, rng.integers(1, 40))
        freq = frequencies_from_codes(codes, 5)
        assert freq.sum() == pytest.approx(1.0)
        assert (freq >= 0).all()
        assert np.allclose(freq, np.bincount(codes, minlength=5) / len(codes))
