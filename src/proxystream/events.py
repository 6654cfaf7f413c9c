"""Core event-stream model: attribute fields, frozen stores, time windows.

An :class:`EventStore` is a time-ordered, immutable collection of events over a
fixed activity alphabet, with optional per-event and per-entity attribute
tables. All downstream selection, encoding and filtering code works against
this one container. Its columns are sorted by time, so the rows of a time
window are the slice ``np.searchsorted(store.times, (start, end))``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

NUMERIC = "numeric"
CATEGORICAL = "categorical"
BOOLEAN = "boolean"
_KINDS = (NUMERIC, CATEGORICAL, BOOLEAN)

SECONDS_PER_DAY = 86400.0


class SchemaError(ValueError):
    """A value, label, or column violates the declared schema."""


@dataclass(frozen=True)
class AttributeField:
    """Declared name, kind and (for categoricals) closed category list."""

    name: str
    kind: str
    categories: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise SchemaError(f"unknown attribute kind {self.kind!r} for column {self.name!r}")
        if self.kind == CATEGORICAL and not self.categories:
            raise SchemaError(f"categorical column {self.name!r} needs a category list")
        if self.kind == CATEGORICAL and len(set(self.categories)) != len(self.categories):
            raise SchemaError(f"duplicate categories in column {self.name!r}")

    def encode(self, value: Any) -> float:
        """Raw value -> stored float (plain value, category code, or 0/1 flag)."""
        if self.kind == NUMERIC:
            try:
                number = float(value)
            except (TypeError, ValueError):
                raise SchemaError(f"column {self.name!r}: {value!r} is not numeric") from None
            if not math.isfinite(number):
                raise SchemaError(f"column {self.name!r}: {value!r} is not finite")
            return number
        if self.kind == BOOLEAN:
            if isinstance(value, str):
                low = value.strip().lower()
                if low in ("true", "1", "yes"):
                    return 1.0
                if low in ("false", "0", "no"):
                    return 0.0
                raise SchemaError(f"column {self.name!r}: {value!r} is not a boolean")
            return 1.0 if value else 0.0
        try:
            return float(self.categories.index(str(value)))
        except ValueError:
            raise SchemaError(
                f"column {self.name!r}: {value!r} not in declared categories"
            ) from None

    def decode(self, stored: float) -> Any:
        if self.kind == NUMERIC:
            return float(stored)
        if self.kind == BOOLEAN:
            return bool(stored)
        return self.categories[int(stored)]


@dataclass(frozen=True)
class TimeWindow:
    """Half-open interval [start, end)."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if not self.start < self.end:
            raise ValueError(f"window start must precede end, got [{self.start}, {self.end})")


class EventStore:
    """Frozen event collection with columnar access.

    A store is built from columns: event times, entity codes into
    ``entity_ids`` and activity codes into ``alphabet``, plus one stored-float
    column per declared event attribute (one value per event) and per declared
    entity attribute (one value per entity id). The columns are copied and
    stably sorted by time (equal timestamps keep input order), and the store
    is immutable afterwards; ``entity_ids`` is kept as one tuple, so
    ``store.entity_ids[code]`` is a plain lookup. Entity codes are kept as
    given; the CSV loader numbers entities by first appearance in time.
    ``time_origin`` tags the meaning of the time axis: ``"epoch_days"`` for
    absolute calendar time (days since the Unix epoch, UTC), ``None`` for
    relative step counts as produced by the synthetic generators.
    """

    def __init__(
        self,
        times: Sequence[float] | np.ndarray,
        entity_codes: Sequence[int] | np.ndarray,
        activity_codes: Sequence[int] | np.ndarray,
        entity_ids: Sequence[Any],
        alphabet: Sequence[str],
        *,
        event_schema: Sequence[AttributeField] = (),
        event_attrs: Mapping[str, np.ndarray] | None = None,
        entity_schema: Sequence[AttributeField] = (),
        entity_attrs: Mapping[str, np.ndarray] | None = None,
        time_origin: str | None = None,
    ) -> None:
        times = np.asarray(times, dtype=float)
        ent_codes = np.asarray(entity_codes, dtype=np.int64)
        act_codes = np.asarray(activity_codes, dtype=np.int64)
        self._entity_ids = tuple(entity_ids)
        self._alphabet = tuple(alphabet)
        self._event_schema = tuple(event_schema)
        self._entity_schema = tuple(entity_schema)
        self._time_origin = time_origin
        if len(set(self._alphabet)) != len(self._alphabet):
            raise SchemaError("alphabet contains duplicate labels")
        if not np.isfinite(times).all():
            raise SchemaError("event times must be finite")
        for name, codes, size in (("entity", ent_codes, len(self._entity_ids)),
                                  ("activity", act_codes, len(self._alphabet))):
            if codes.shape != times.shape:
                raise SchemaError(
                    f"{name} code column has length {len(codes)}, expected {len(times)}")
            if codes.size and (codes.min() < 0 or codes.max() >= size):
                raise SchemaError(f"{name} code out of range")
        order = np.argsort(times, kind="stable")
        self._times = times[order]
        self._ent_codes = ent_codes[order]
        self._act_codes = act_codes[order]
        if len(times) and self._times[0] < 0:
            raise ValueError("event times must be >= 0")
        self._event_attrs = _attribute_columns("event", self._event_schema, event_attrs, order)
        self._entity_attrs = _attribute_columns(
            "entity", self._entity_schema, entity_attrs, np.arange(len(self._entity_ids)))
        self._first_times = np.full(len(self._entity_ids), np.inf)
        np.minimum.at(self._first_times, self._ent_codes, self._times)
        for arr in (self._times, self._ent_codes, self._act_codes, self._first_times,
                    *self._event_attrs.values(), *self._entity_attrs.values()):
            arr.setflags(write=False)

    # -- basic accessors ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._times)

    @property
    def alphabet(self) -> tuple[str, ...]:
        return self._alphabet

    @property
    def event_schema(self) -> tuple[AttributeField, ...]:
        return self._event_schema

    @property
    def entity_schema(self) -> tuple[AttributeField, ...]:
        return self._entity_schema

    @property
    def entity_ids(self) -> tuple[Any, ...]:
        return self._entity_ids

    @property
    def entity_count(self) -> int:
        return len(self._entity_ids)

    @property
    def time_origin(self) -> str | None:
        return self._time_origin

    @property
    def times(self) -> np.ndarray:
        return self._times

    @property
    def entity_codes(self) -> np.ndarray:
        return self._ent_codes

    @property
    def activity_codes(self) -> np.ndarray:
        return self._act_codes

    @property
    def first_times(self) -> np.ndarray:
        """First event time per entity code (inf for entities with no events)."""
        return self._first_times

    def entity_code(self, entity_id: Any) -> int:
        try:
            return self._entity_ids.index(entity_id)
        except ValueError:
            raise KeyError(f"unknown entity {entity_id!r}") from None

    def event_attribute(self, name: str) -> np.ndarray:
        try:
            return self._event_attrs[name]
        except KeyError:
            raise SchemaError(f"no event attribute column {name!r}") from None

    def entity_attribute(self, name: str) -> np.ndarray:
        try:
            return self._entity_attrs[name]
        except KeyError:
            raise SchemaError(f"no entity attribute column {name!r}") from None


def _attribute_columns(kind: str, schema: tuple[AttributeField, ...],
                       columns: Mapping[str, Any] | None, rows: np.ndarray) -> dict[str, np.ndarray]:
    """One float column per declared field, checked for length and taken at ``rows``."""
    columns = columns or {}
    declared = [f.name for f in schema]
    if set(columns) != set(declared):
        raise SchemaError(f"{kind} attribute columns {sorted(columns)} differ from the "
                          f"declared {declared}")
    out = {}
    for name in declared:
        col = np.asarray(columns[name], dtype=float)
        if col.shape != rows.shape:
            raise SchemaError(
                f"{kind} attribute {name!r} has length {len(col)}, expected {len(rows)}")
        out[name] = col[rows]
    return out

