"""CSV event-log loading and writing.

The on-disk shape is one row per event: entity id, activity label, timestamp,
then any declared event attributes, then any declared entity attributes
(repeated on each of the entity's rows, constant per entity). Categorical
columns may declare ``categories=None`` to take the column's sorted distinct
values as the closed list.
"""
from __future__ import annotations

import csv
import datetime as _dt
import math
from dataclasses import dataclass
from itertools import islice
from operator import itemgetter
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .events import (
    BOOLEAN,
    CATEGORICAL,
    NUMERIC,
    SECONDS_PER_DAY,
    AttributeField,
    EventStore,
    SchemaError,
)

TIME_FORMATS = ("number", "iso8601")


@dataclass(frozen=True)
class ColumnSpec:
    """One attribute column as it appears in the file. ``categories=None`` on a
    categorical column takes the column's sorted distinct values as the list."""

    name: str
    kind: str
    categories: tuple[str, ...] | None = None

    def to_field(self, observed: Sequence[str] = ()) -> AttributeField:
        cats = self.categories if self.categories is not None else tuple(sorted(observed))
        if self.kind == CATEGORICAL:
            return AttributeField(self.name, self.kind, cats)
        return AttributeField(self.name, self.kind)


@dataclass(frozen=True)
class LogSchema:
    """Column layout of a CSV event log."""

    entity_column: str = "entity_id"
    activity_column: str = "activity"
    time_column: str = "timestamp"
    time_format: str = "number"  # one of TIME_FORMATS
    event_attributes: tuple[ColumnSpec, ...] = ()
    entity_attributes: tuple[ColumnSpec, ...] = ()
    alphabet: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.time_format not in TIME_FORMATS:
            raise SchemaError(f"unknown time format {self.time_format!r}")


def parse_iso_to_days(text: str) -> float:
    """ISO-8601 timestamp -> fractional days since the Unix epoch, UTC.

    Naive timestamps are taken as UTC; a trailing Z is accepted.
    """
    raw = text.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    stamp = _dt.datetime.fromisoformat(raw)
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=_dt.timezone.utc)
    return stamp.timestamp() / SECONDS_PER_DAY


def days_to_iso(days: float) -> str:
    stamp = _dt.datetime.fromtimestamp(days * SECONDS_PER_DAY, tz=_dt.timezone.utc)
    return stamp.isoformat().replace("+00:00", "Z")


def _parse_time(raw: str, fmt: str) -> float:
    try:
        stamp = parse_iso_to_days(raw) if fmt == "iso8601" else float(raw)
    except (ValueError, TypeError):
        raise SchemaError(f"cannot parse timestamp {raw!r}") from None
    if not math.isfinite(stamp):
        raise SchemaError(f"timestamp {raw!r} is not finite")
    return stamp


_CHUNK_ROWS = 1 << 12  # rows held as strings at a time while reading


def _code(values: list, index: dict) -> np.ndarray:
    """Each value's code in ``index``, which numbers new values by first appearance."""
    for value in dict.fromkeys(values):
        index.setdefault(value, len(index))
    return np.fromiter(map(index.__getitem__, values), dtype=np.int64, count=len(values))


def _spread(distinct: list[str], codes: np.ndarray, convert: Callable[[str], float],
            first_row: int = 2) -> np.ndarray:
    """``convert`` each distinct value once and spread the results over the rows.

    A :class:`SchemaError` from ``convert`` is raised again naming the first
    row holding the value, counting ``codes[0]`` as row ``first_row``.
    """
    out = np.empty(len(distinct))
    for code, raw in enumerate(distinct):
        try:
            out[code] = convert(raw)
        except SchemaError as exc:
            raise SchemaError(f"row {first_row + int(np.argmax(codes == code))}: {exc}") from None
    return out[codes]


def _read_columns(path: Path, columns: Sequence[tuple[str, Callable[[str], float] | None]],
                  time_column: str):
    """Read the CSV once, in chunks of rows, and return the named columns in order.

    The time column comes back as a float array with each row's value
    converted. Another column with a converter comes back as a float array,
    each distinct value of a chunk converted once; one without comes back as
    its distinct values in order of first appearance and each row's code into
    them. Blank lines are skipped and not counted; the header is row 1.
    """
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        position = {name: i for i, name in enumerate(header)}
        missing = [name for name, _ in columns if name not in position]
        if missing:
            raise SchemaError(f"missing columns {missing} in {path.name}")
        out = [({}, [np.empty(0, dtype=np.int64)]) for _ in columns]
        done = 1
        while chunk := list(islice(reader, _CHUNK_ROWS)):
            rows = [row for row in chunk if row]
            if set(map(len, rows)) - {len(header)}:
                n, row = next((n, row) for n, row in enumerate(rows, start=done + 1)
                              if len(row) != len(header))
                raise SchemaError(f"row {n}: {len(row)} fields, the header has {len(header)}")
            for (name, convert), (index, parts) in zip(columns, out):
                values = list(map(itemgetter(position[name]), rows))
                if name == time_column:
                    parts.append(_spread(values, np.arange(len(values)), convert, done + 1))
                    continue
                index = {} if convert else index
                codes = _code(values, index)
                parts.append(_spread(list(index), codes, convert, done + 1) if convert else codes)
            done += len(rows)
    return [np.concatenate(parts) if convert else (list(index), np.concatenate(parts))
            for (_, convert), (index, parts) in zip(columns, out)]


def read_event_log(path: str | Path, schema: LogSchema) -> EventStore:
    """Load a CSV event log into an :class:`EventStore`, reading the file once.

    Timestamps and attributes of a fixed field are converted while reading;
    entity ids, activities and open categorical columns afterwards. A
    :class:`SchemaError` names the row (and the column of an attribute); of
    several faults, the first found is reported, not always the first row's.
    """
    specs = (*schema.event_attributes, *schema.entity_attributes)
    (distinct_ids, id_codes), (labels, label_codes), times, *attr_columns = _read_columns(
        Path(path),
        [(schema.entity_column, None), (schema.activity_column, None),
         (schema.time_column, lambda raw: _parse_time(raw, schema.time_format)),
         *((c.name, None if c.kind == CATEGORICAL and c.categories is None
            else c.to_field().encode) for c in specs)],
        schema.time_column)

    def attribute(spec: ColumnSpec, column) -> tuple[AttributeField, np.ndarray]:
        if isinstance(column, np.ndarray):  # converted while reading
            return spec.to_field(), column
        distinct, codes = column
        field_ = spec.to_field(distinct)
        return field_, _spread(distinct, codes, field_.encode)

    alphabet = tuple(schema.alphabet if schema.alphabet is not None else sorted(labels))
    lookup = {a: i for i, a in enumerate(alphabet)}

    def activity_code(label: str) -> int:
        if label not in lookup:
            raise SchemaError(f"activity {label!r} not in alphabet")
        return lookup[label]

    act_codes = _spread(labels, label_codes, activity_code).astype(np.int64)

    # Number entities by first appearance in time; equal timestamps keep file order.
    order = np.argsort(times, kind="stable")
    in_time: dict[int, int] = {}
    ent_codes = np.empty_like(id_codes)
    ent_codes[order] = _code(id_codes[order].tolist(), in_time)
    ids = [distinct_ids[code] for code in in_time]
    first_row = np.unique(ent_codes, return_index=True)[1]  # each entity's first row in the file

    n_event = len(schema.event_attributes)
    event_cols = dict(map(attribute, schema.event_attributes, attr_columns[:n_event]))
    entity_cols = {}
    for field_, per_row in map(attribute, schema.entity_attributes, attr_columns[n_event:]):
        entity_cols[field_] = per_row[first_row]
        varies = per_row != entity_cols[field_][ent_codes]
        if varies.any():
            n = int(np.argmax(varies))
            raise SchemaError(f"row {n + 2}: entity attribute {field_.name!r} varies within "
                              f"entity {ids[ent_codes[n]]!r}")

    return EventStore(
        times, ent_codes, act_codes, ids, alphabet,
        event_schema=list(event_cols),
        event_attrs={f.name: col for f, col in event_cols.items()},
        entity_schema=list(entity_cols),
        entity_attrs={f.name: col for f, col in entity_cols.items()},
        time_origin="epoch_days" if schema.time_format == "iso8601" else None,
    )


def write_event_log(store: EventStore, path: str | Path, *, time_format: str | None = None) -> None:
    """Write a store back to flat CSV, one row per event, in time order.

    Float timestamps and numeric attributes are written with ``repr`` so a
    read/write round trip is value-exact. ``time_format`` defaults to
    iso8601 for absolute-dated stores and plain numbers otherwise.
    """
    if time_format is None:
        time_format = "iso8601" if store.time_origin == "epoch_days" else "number"
    stamp = days_to_iso if time_format == "iso8601" else repr
    event_cols = [(f, store.event_attribute(f.name)) for f in store.event_schema]
    entity_cols = [(f, store.entity_attribute(f.name)) for f in store.entity_schema]
    ids = store.entity_ids
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["entity_id", "activity", "timestamp",
                         *(f.name for f, _ in (*event_cols, *entity_cols))])
        for row, (t, code, act) in enumerate(zip(store.times.tolist(), store.entity_codes.tolist(),
                                                 store.activity_codes.tolist())):
            writer.writerow([str(ids[code]), store.alphabet[act], stamp(t),
                             *(_format_value(f, col[row]) for f, col in event_cols),
                             *(_format_value(f, col[code]) for f, col in entity_cols)])


def _format_value(field_: AttributeField, stored: float) -> str:
    decoded = field_.decode(stored)
    if field_.kind == NUMERIC:
        return repr(float(decoded))
    if field_.kind == BOOLEAN:
        return "true" if decoded else "false"
    return str(decoded)

