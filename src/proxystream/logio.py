"""CSV event-log loading and writing.

The on-disk shape is one row per event: entity id, activity label, timestamp,
then any declared event attributes, then any declared entity attributes
(repeated on each of the entity's rows, constant per entity). Categorical
columns may declare ``categories=None`` to have the closed list collected in a
scan pass before loading.
"""
from __future__ import annotations

import csv
import datetime as _dt
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

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


@dataclass(frozen=True)
class ColumnSpec:
    """One attribute column as it appears in the file.

    ``categories=None`` on a categorical column means "collect the observed
    values in a scan pass"; the resulting store schema carries the closed,
    sorted list.
    """

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
    time_format: str = "number"  # "number" | "iso8601"
    event_attributes: tuple[ColumnSpec, ...] = ()
    entity_attributes: tuple[ColumnSpec, ...] = ()
    alphabet: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.time_format not in ("number", "iso8601"):
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


def _parse_time(raw: str, fmt: str, row: int) -> float:
    try:
        stamp = parse_iso_to_days(raw) if fmt == "iso8601" else float(raw)
    except (ValueError, TypeError):
        raise SchemaError(f"row {row}: cannot parse timestamp {raw!r}") from None
    if not math.isfinite(stamp):
        raise SchemaError(f"row {row}: timestamp {raw!r} is not finite")
    return stamp


def _scan_categories(path: Path, schema: LogSchema) -> dict[str, set[str]]:
    open_cols = [
        c for c in (*schema.event_attributes, *schema.entity_attributes)
        if c.kind == CATEGORICAL and c.categories is None
    ]
    observed: dict[str, set[str]] = {c.name: set() for c in open_cols}
    if not open_cols:
        return observed
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            for c in open_cols:
                observed[c.name].add(row[c.name])
    return observed


def read_event_log(path: str | Path, schema: LogSchema) -> EventStore:
    """Load a CSV event log into an :class:`EventStore`.

    Raises :class:`SchemaError` naming the offending column and row for
    malformed values, undeclared activities (when the schema pins an
    alphabet), and entity attributes that vary within an entity.
    """
    path = Path(path)
    observed = _scan_categories(path, schema)
    ev_fields = [c.to_field(observed.get(c.name, ())) for c in schema.event_attributes]
    ent_fields = [c.to_field(observed.get(c.name, ())) for c in schema.entity_attributes]

    needed = [schema.entity_column, schema.activity_column, schema.time_column]
    needed += [f.name for f in (*ev_fields, *ent_fields)]

    times: list[float] = []
    ent_codes: list[int] = []
    act_strings: list[str] = []
    ev_cols: dict[str, list[float]] = {f.name: [] for f in ev_fields}
    ent_index: dict[str, int] = {}
    ent_values: dict[str, list[float]] = {f.name: [] for f in ent_fields}

    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in needed if c not in header]
        if missing:
            raise SchemaError(f"missing columns {missing} in {path.name}")
        for n, row in enumerate(reader, start=2):  # header is line 1
            times.append(_parse_time(row[schema.time_column], schema.time_format, n))
            act_strings.append(row[schema.activity_column])
            eid = row[schema.entity_column]
            code = ent_index.get(eid)
            if code is None:
                code = len(ent_index)
                ent_index[eid] = code
                for f in ent_fields:
                    try:
                        ent_values[f.name].append(f.encode(row[f.name]))
                    except SchemaError as exc:
                        raise SchemaError(f"row {n}: {exc}") from None
            else:
                for f in ent_fields:
                    try:
                        val = f.encode(row[f.name])
                    except SchemaError as exc:
                        raise SchemaError(f"row {n}: {exc}") from None
                    if val != ent_values[f.name][code]:
                        raise SchemaError(
                            f"row {n}: entity attribute {f.name!r} varies within "
                            f"entity {eid!r}"
                        )
            ent_codes.append(code)
            for f in ev_fields:
                try:
                    ev_cols[f.name].append(f.encode(row[f.name]))
                except SchemaError as exc:
                    raise SchemaError(f"row {n}: {exc}") from None

    if schema.alphabet is not None:
        alphabet = tuple(schema.alphabet)
    else:
        alphabet = tuple(sorted(set(act_strings)))
    act_lookup = {a: i for i, a in enumerate(alphabet)}
    act_codes = np.empty(len(act_strings), dtype=np.int64)
    for i, a in enumerate(act_strings):
        try:
            act_codes[i] = act_lookup[a]
        except KeyError:
            raise SchemaError(f"row {i + 2}: activity {a!r} not in alphabet") from None

    times_arr = np.asarray(times, dtype=float)
    codes_arr = np.asarray(ent_codes, dtype=np.int64)
    n_ent = len(ent_index)
    # Renumber entities by first appearance in time order so the row order
    # of the file cannot leak into entity codes.
    order = np.argsort(times_arr, kind="stable")
    first_pos = np.full(n_ent, len(order), dtype=np.int64)
    np.minimum.at(first_pos, codes_arr[order], np.arange(len(order)))
    old_in_new_order = np.argsort(first_pos, kind="stable")
    remap = np.empty(n_ent, dtype=np.int64)
    remap[old_in_new_order] = np.arange(n_ent)
    ids_in_file_order = list(ent_index)

    return EventStore(
        times_arr,
        remap[codes_arr],
        act_codes,
        [ids_in_file_order[i] for i in old_in_new_order],
        alphabet,
        event_schema=tuple(ev_fields),
        event_attrs={name: np.asarray(col) for name, col in ev_cols.items()},
        entity_schema=tuple(ent_fields),
        entity_attrs={name: np.asarray(col)[old_in_new_order]
                      for name, col in ent_values.items()},
        time_origin="epoch_days" if schema.time_format == "iso8601" else None,
    )


def write_event_log(store: EventStore, path: str | Path, *, time_format: str | None = None) -> None:
    """Write a store back to flat CSV, one row per event, in time order.

    Float timestamps and numeric attributes are written with ``repr`` so a
    read/write round trip is value-exact. ``time_format`` defaults to
    iso8601 for absolute-dated stores and plain numbers otherwise.
    """
    path = Path(path)
    if time_format is None:
        time_format = "iso8601" if store.time_origin == "epoch_days" else "number"
    ev_fields = store.event_schema
    ent_fields = store.entity_schema
    header = ["entity_id", "activity", "timestamp"]
    header += [f.name for f in ev_fields] + [f.name for f in ent_fields]

    ids = store.entity_ids
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in range(len(store)):
            t = store.times[row]
            stamp = days_to_iso(float(t)) if time_format == "iso8601" else repr(float(t))
            code = int(store.entity_codes[row])
            out = [str(ids[code]), store.alphabet[store.activity_codes[row]], stamp]
            for f in ev_fields:
                out.append(_format_value(f, store.event_attribute(f.name)[row]))
            for f in ent_fields:
                out.append(_format_value(f, store.entity_attribute(f.name)[code]))
            writer.writerow(out)


def _format_value(field_: AttributeField, stored: float) -> str:
    decoded = field_.decode(stored)
    if field_.kind == NUMERIC:
        return repr(float(decoded))
    if field_.kind == BOOLEAN:
        return "true" if decoded else "false"
    return str(decoded)


def schema_for_store(store: EventStore) -> LogSchema:
    """Schema that reads back what :func:`write_event_log` produced."""
    return LogSchema(
        time_format="iso8601" if store.time_origin == "epoch_days" else "number",
        event_attributes=tuple(
            ColumnSpec(f.name, f.kind, f.categories if f.kind == CATEGORICAL else None)
            for f in store.event_schema
        ),
        entity_attributes=tuple(
            ColumnSpec(f.name, f.kind, f.categories if f.kind == CATEGORICAL else None)
            for f in store.entity_schema
        ),
        alphabet=store.alphabet,
    )
