"""CSV event-log reading/writing and timestamp conversion."""
from __future__ import annotations

import csv
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import schema_for_store

from proxystream.events import (
    BOOLEAN,
    CATEGORICAL,
    NUMERIC,
    AttributeField,
    EventStore,
    SchemaError,
)
from proxystream import logio
from proxystream.logio import (
    ColumnSpec,
    LogSchema,
    days_to_iso,
    parse_iso_to_days,
    read_event_log,
    write_event_log,
)


# -- timestamp conversion --------------------------------------------------

def test_epoch_is_day_zero():
    assert parse_iso_to_days("1970-01-01T00:00:00Z") == 0.0
    assert parse_iso_to_days("1970-01-02T00:00:00Z") == 1.0
    assert parse_iso_to_days("1970-01-01T12:00:00Z") == 0.5


def test_naive_timestamps_are_utc():
    assert parse_iso_to_days("1970-01-02 06:00:00") == 1.25
    # explicit offset is honoured
    assert parse_iso_to_days("1970-01-02T06:00:00+06:00") == 1.0


def test_iso_round_trip():
    for text in ("2018-01-01T00:00:00Z", "2018-06-15T13:45:30Z"):
        assert days_to_iso(parse_iso_to_days(text)) == text


def test_known_date():
    # 2018-01-01 is 17532 days after the epoch (12 leap years in 1970..2017)
    assert parse_iso_to_days("2018-01-01T00:00:00Z") == 17532.0


# -- reading ---------------------------------------------------------------

def _write(tmp_path, text, name="log.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_read_numeric_log(tmp_path):
    p = _write(tmp_path, "entity_id,activity,timestamp\n" "a,visit,1.5\n" "b,pay,0.5\n")
    store = read_event_log(p, LogSchema())
    assert np.array_equal(store.times, [0.5, 1.5])
    assert store.entity_ids == ("b", "a")
    assert store.alphabet == ("pay", "visit")
    assert store.time_origin is None


def test_entity_codes_follow_first_appearance_in_time(tmp_path):
    # file order c, a, b, a; time order a (t=1), b (t=2), c (t=3), a (t=5)
    p = _write(tmp_path, "entity_id,activity,timestamp,region\n"
               "c,visit,3,south\n" "a,visit,5,north\n" "b,pay,2,south\n" "a,pay,1,north\n")
    schema = LogSchema(entity_attributes=(ColumnSpec("region", CATEGORICAL, None),))
    store = read_event_log(p, schema)
    assert store.entity_ids == ("a", "b", "c")
    assert np.array_equal(store.entity_codes, [0, 1, 2, 0])
    assert np.array_equal(store.first_times, [1.0, 2.0, 3.0])
    assert np.array_equal(store.entity_attribute("region"), [0.0, 1.0, 1.0])
    assert store.entity_code("c") == 2
    with pytest.raises(KeyError):
        store.entity_code("nobody")


@pytest.mark.parametrize("stamp", ["nan", "inf", "-inf"])
def test_non_finite_timestamps_are_rejected(tmp_path, stamp):
    p = _write(tmp_path, f"entity_id,activity,timestamp\na,visit,1\nb,visit,{stamp}\n")
    with pytest.raises(SchemaError, match="row 3"):
        read_event_log(p, LogSchema())


def test_read_iso_log_sets_epoch_days_origin(tmp_path):
    p = _write(
        tmp_path,
        "entity_id,activity,timestamp\n"
        "a,visit,2018-01-01T00:00:00Z\n"
        "a,visit,2018-01-02T12:00:00Z\n",
    )
    store = read_event_log(p, LogSchema(time_format="iso8601"))
    assert store.time_origin == "epoch_days"
    assert np.array_equal(store.times, [17532.0, 17533.5])


def test_read_with_attributes(tmp_path):
    p = _write(
        tmp_path,
        "case,act,ts,amount,region\n"
        "c1,open,1,10.5,north\n"
        "c1,close,2,11.0,north\n"
        "c2,open,3,7.25,south\n",
    )
    schema = LogSchema(
        entity_column="case", activity_column="act", time_column="ts",
        event_attributes=(ColumnSpec("amount", NUMERIC),),
        entity_attributes=(ColumnSpec("region", CATEGORICAL, None),),
    )
    store = read_event_log(p, schema)
    assert np.array_equal(store.event_attribute("amount"), [10.5, 11.0, 7.25])
    # open categorical list is collected and sorted
    assert store.entity_schema[0].categories == ("north", "south")
    assert np.array_equal(store.entity_attribute("region"), [0.0, 1.0])


def test_read_errors_name_row_and_column(tmp_path):
    p = _write(tmp_path, "entity_id,activity,timestamp\n" "a,visit,soon\n")
    with pytest.raises(SchemaError, match="row 2"):
        read_event_log(p, LogSchema())

    p2 = _write(tmp_path, "entity_id,activity,when\n" "a,visit,1\n", "c.csv")
    with pytest.raises(SchemaError, match="missing columns"):
        read_event_log(p2, LogSchema())

    p3 = _write(
        tmp_path,
        "entity_id,activity,timestamp,region\n" "a,visit,1,north\n" "a,pay,2,south\n",
        "vary.csv",
    )
    schema = LogSchema(entity_attributes=(ColumnSpec("region", CATEGORICAL, None),))
    with pytest.raises(SchemaError, match="varies within"):
        read_event_log(p3, schema)


@pytest.mark.parametrize("text, schema, message", [
    ("entity_id,activity,timestamp,amount\n" "a,visit,1,2.5\n" "b,visit,2,lots\n",
     LogSchema(event_attributes=(ColumnSpec("amount", NUMERIC),)),
     "row 3: column 'amount': 'lots' is not numeric"),
    ("entity_id,activity,timestamp,region\n" "a,visit,1,north\n" "b,visit,2,west\n",
     LogSchema(entity_attributes=(ColumnSpec("region", CATEGORICAL, ("north", "south")),)),
     "row 3: column 'region': 'west' not in declared categories"),
    ("entity_id,activity,timestamp,vip\n" "a,visit,1,yes\n" "a,pay,2,yes\n" "b,visit,3,maybe\n",
     LogSchema(entity_attributes=(ColumnSpec("vip", BOOLEAN),)),
     "row 4: column 'vip': 'maybe' is not a boolean"),
], ids=["numeric-event-attribute", "pinned-category", "boolean-entity-attribute"])
def test_attribute_errors_name_row_and_column(tmp_path, text, schema, message):
    with pytest.raises(SchemaError, match=re.escape(message)):
        read_event_log(_write(tmp_path, text), schema)


@pytest.mark.parametrize("text, schema, message", [
    ("entity_id,activity,timestamp,region\n" "a,visit,1,north\n" "b,visit,2\n",
     LogSchema(entity_attributes=(ColumnSpec("region", CATEGORICAL, None),)),
     "row 3: 3 fields, the header has 4"),
    ("entity_id,activity,timestamp\n" "a,visit,1\n" "b,visit\n",
     LogSchema(), "row 3: 2 fields, the header has 3"),
    ("entity_id,activity,timestamp\n" "a,visit,1,extra\n" "b,visit,2\n",
     LogSchema(), "row 2: 4 fields, the header has 3"),
], ids=["short-open-categorical", "short", "long"])
def test_ragged_rows_are_rejected(tmp_path, text, schema, message):
    with pytest.raises(SchemaError, match=re.escape(message)):
        read_event_log(_write(tmp_path, text), schema)


def test_blank_lines_are_skipped_and_not_counted(tmp_path):
    p = _write(tmp_path, "entity_id,activity,timestamp\n\n" "a,visit,1\n\n" "b,visit,soon\n")
    with pytest.raises(SchemaError, match="row 3: cannot parse timestamp 'soon'"):
        read_event_log(p, LogSchema())


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("kind", ["event", "entity"])
def test_non_finite_numeric_attributes_are_rejected(tmp_path, kind, value):
    # every row of entity "b" reads the same non-finite value
    p = _write(tmp_path, "entity_id,activity,timestamp,amount\n"
               "a,visit,1,2.5\n" f"b,visit,2,{value}\n" f"b,pay,3,{value}\n")
    spec = {f"{kind}_attributes": (ColumnSpec("amount", NUMERIC),)}
    message = f"row 3: column 'amount': '{value}' is not finite"
    with pytest.raises(SchemaError, match=re.escape(message)):
        read_event_log(p, LogSchema(**spec))


def assert_same_store(a: EventStore, b: EventStore) -> None:
    """Equal in every column, id list, alphabet, schema and time origin."""
    for name in ("times", "entity_codes", "activity_codes", "first_times"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert (a.entity_ids, a.alphabet, a.time_origin) == (b.entity_ids, b.alphabet, b.time_origin)
    assert (a.event_schema, a.entity_schema) == (b.event_schema, b.entity_schema)
    for f in a.event_schema:
        assert np.array_equal(a.event_attribute(f.name), b.event_attribute(f.name)), f.name
    for f in a.entity_schema:
        assert np.array_equal(a.entity_attribute(f.name), b.entity_attribute(f.name)), f.name


def test_chunked_reading_matches_one_chunk(tmp_path, monkeypatch):
    rows = [f"e{i % 4},{('visit', 'pay')[i % 2]},{7 * i % 11},{i / 4!r},"
            f"{('north', 'south')[i % 4 // 2]}" for i in range(11)]
    text = "entity_id,activity,timestamp,amount,region\n\n" + "\n\n".join(rows) + "\n"
    schema = LogSchema(event_attributes=(ColumnSpec("amount", NUMERIC),),
                       entity_attributes=(ColumnSpec("region", CATEGORICAL, None),))
    whole = read_event_log(_write(tmp_path, text), schema)
    monkeypatch.setattr(logio, "_CHUNK_ROWS", 3)  # blank lines fall inside chunks too
    assert_same_store(read_event_log(_write(tmp_path, text), schema), whole)
    # rows count from the header as row 1, skipping blank lines, across chunks
    for bad, message in (("e9,visit,soon,0.5,north", "row 10: cannot parse timestamp 'soon'"),
                         ("e9,visit,3,lots,north", "row 10: column 'amount': 'lots'"),
                         ("e9,visit,3,0.5", "row 10: 4 fields, the header has 5"),
                         ("e1,visit,3,0.5,west", "row 10: entity attribute 'region' varies")):
        broken = text.replace(rows[8], bad)
        with pytest.raises(SchemaError, match=re.escape(message)):
            read_event_log(_write(tmp_path, broken), schema)


_ORDER_SCHEMA = LogSchema(
    event_attributes=(ColumnSpec("amount", NUMERIC),),
    entity_attributes=(ColumnSpec("region", CATEGORICAL, None), ColumnSpec("vip", BOOLEAN)),
)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 25))
def test_row_order_does_not_change_the_store(data, n):
    times = data.draw(st.lists(st.floats(0.0, 1e4), min_size=n, max_size=n, unique=True))
    ents = data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    acts = data.draw(st.lists(st.sampled_from(["visit", "pay", "leave"]), min_size=n, max_size=n))
    amounts = data.draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n))
    rows = [[f"e{e}", a, repr(t), repr(x), ("north", "south", "east")[e % 3], str(e % 2 == 0)]
            for e, a, t, x in zip(ents, acts, times, amounts)]
    order = data.draw(st.permutations(range(n)))
    with tempfile.TemporaryDirectory() as tmp:
        stores = []
        for name, body in (("file.csv", rows), ("shuffled.csv", [rows[i] for i in order])):
            path = Path(tmp) / name
            with path.open("w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["entity_id", "activity", "timestamp", "amount", "region", "vip"])
                writer.writerows(body)
            stores.append(read_event_log(path, _ORDER_SCHEMA))
    assert_same_store(*stores)


def test_pinned_alphabet_rejects_unknown_activity(tmp_path):
    p = _write(tmp_path, "entity_id,activity,timestamp\n" "a,skydive,1\n")
    with pytest.raises(SchemaError, match="not in alphabet"):
        read_event_log(p, LogSchema(alphabet=("visit", "pay")))


def test_missing_file_raises_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_event_log(tmp_path / "nope.csv", LogSchema())


# -- writing and round trips ----------------------------------------------

def _attr_store() -> EventStore:
    return EventStore(
        [0.125, 2.75], [0, 1], [1, 0], ["a", "b"], ("pay", "visit"),
        event_schema=(AttributeField("amount", NUMERIC),), event_attrs={"amount": [1 / 3, 0.1]},
        entity_schema=(AttributeField("region", CATEGORICAL, ("north", "south")),),
        entity_attrs={"region": [1.0, 0.0]},  # a is south, b is north
    )


def test_round_trip_is_value_exact(tmp_path):
    store = _attr_store()
    p = tmp_path / "out.csv"
    write_event_log(store, p)
    back = read_event_log(p, schema_for_store(store))
    assert np.array_equal(back.times, store.times)
    assert np.array_equal(back.event_attribute("amount"), store.event_attribute("amount"))
    assert np.array_equal(back.entity_attribute("region"), store.entity_attribute("region"))
    assert back.entity_ids == store.entity_ids
    assert back.alphabet == store.alphabet


def test_write_is_deterministic(tmp_path):
    store = _attr_store()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_event_log(store, a)
    write_event_log(store, b)
    assert a.read_bytes() == b.read_bytes()


def test_iso_round_trip_for_epoch_days_store(tmp_path):
    src = _write(
        tmp_path,
        "entity_id,activity,timestamp\n" "a,visit,2018-03-04T05:06:07Z\n",
    )
    store = read_event_log(src, LogSchema(time_format="iso8601"))
    out = tmp_path / "round.csv"
    write_event_log(store, out)
    assert "2018-03-04T05:06:07" in out.read_text()
    back = read_event_log(out, schema_for_store(store))
    assert np.array_equal(back.times, store.times)


def test_bad_time_format_rejected():
    with pytest.raises(SchemaError):
        LogSchema(time_format="unix")
