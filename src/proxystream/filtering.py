"""Invoice-case filtering for procurement event logs.

Keeps exactly the cases usable for duration prediction: one invoice-creation
event, one receipt-recording event, creation strictly before receipt, and
(for absolute-dated logs) the whole case inside a calendar window. Entity
attributes are cut down to the declared analysis set.
"""
from __future__ import annotations

import datetime as _dt
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .events import BOOLEAN, CATEGORICAL, SECONDS_PER_DAY, EventStore, TimeWindow
from .logio import ColumnSpec, LogSchema

VCI_LABEL = "Vendor creates invoice"
RIR_LABEL = "Record Invoice Receipt"

# The eight case attributes kept for the paint-factory analysis.
INVOICE_ATTRIBUTES = (
    "Company",
    "Document Type",
    "GR-Based Inv. Verif.",
    "Goods Receipt",
    "Item Category",
    "Item Type",
    "Spend area text",
    "Spend classification text",
)

INVOICE_BOOLEAN_ATTRIBUTES = ("GR-Based Inv. Verif.", "Goods Receipt")

RULE_MULTIPLICITY = "multiplicity"
RULE_ORDER = "order"
RULE_DATE_RANGE = "date_range"


def _epoch_days(year: int, month: int, day: int) -> float:
    stamp = _dt.datetime(year, month, day, tzinfo=_dt.timezone.utc)
    return stamp.timestamp() / SECONDS_PER_DAY

DEFAULT_DATE_WINDOW = TimeWindow(_epoch_days(2018, 1, 1), _epoch_days(2019, 1, 1))


@dataclass
class FilterReport:
    """Per-rule accounting for one filter pass."""

    cases_in: int = 0
    cases_kept: int = 0
    events_kept: int = 0
    labels_kept: int = 0
    cases_dropped_by_rule: dict[str, int] = field(default_factory=dict)

    @property
    def cases_dropped(self) -> int:
        return sum(self.cases_dropped_by_rule.values())

    def as_dict(self) -> dict:
        return {
            "cases_in": self.cases_in,
            "cases_kept": self.cases_kept,
            "events_kept": self.events_kept,
            "labels_kept": self.labels_kept,
            "cases_dropped_by_rule": dict(self.cases_dropped_by_rule),
        }

    def write_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.as_dict(), indent=2) + "\n")


def filter_invoice_cases(
    store: EventStore,
    *,
    date_window: TimeWindow | None = None,
) -> tuple[EventStore, FilterReport]:
    """Drop unusable cases and rebuild the store.

    Rules, applied in order with each case counted against the first rule it
    fails: (1) exactly one ``VCI_LABEL`` event and exactly one ``RIR_LABEL``
    event; (2) creation strictly before receipt; (3) the case's first event
    at or after the window start and its last event strictly before the
    window end. Rule 3 defaults to calendar 2018 on absolute-dated stores
    and is skipped for relative-time stores unless ``date_window`` is given.

    The kept store's alphabet is the sorted set of labels actually present
    after filtering, and its entity attributes are reduced to
    ``INVOICE_ATTRIBUTES`` (intersected with what the store declares). The
    operation is idempotent.
    """
    if date_window is None and store.time_origin == "epoch_days":
        date_window = DEFAULT_DATE_WINDOW

    alphabet = store.alphabet
    n = store.entity_count
    counts = {RULE_MULTIPLICITY: 0, RULE_ORDER: 0, RULE_DATE_RANGE: 0}

    vci_time = label_times(store, VCI_LABEL)
    rir_time = label_times(store, RIR_LABEL)
    label_codes = [alphabet.index(label) if label in alphabet else -1
                   for label in (VCI_LABEL, RIR_LABEL)]
    vci_count, rir_count = (np.bincount(store.entity_codes[store.activity_codes == code],
                                        minlength=n) for code in label_codes)

    keep = np.ones(n, dtype=bool)
    bad = (vci_count != 1) | (rir_count != 1)
    counts[RULE_MULTIPLICITY] = int(bad.sum())
    keep &= ~bad

    bad = keep & ~(vci_time < rir_time)
    counts[RULE_ORDER] = int(bad.sum())
    keep &= ~bad

    if date_window is not None:
        last = np.full(n, -np.inf)
        np.maximum.at(last, store.entity_codes, store.times)
        bad = keep & ~((store.first_times >= date_window.start) & (last < date_window.end))
        counts[RULE_DATE_RANGE] = int(bad.sum())
        keep &= ~bad

    row_mask = keep[store.entity_codes]
    kept_codes = np.nonzero(keep)[0]
    recode = np.full(n, -1, dtype=np.int64)
    recode[kept_codes] = np.arange(len(kept_codes))
    ids = store.entity_ids
    kept_ids = [ids[c] for c in kept_codes]

    kept_act = store.activity_codes[row_mask]
    present = np.unique(kept_act)
    new_alphabet = tuple(sorted(alphabet[c] for c in present))
    act_recode = np.empty(len(alphabet), dtype=np.int64)
    for new_code, label in enumerate(new_alphabet):
        act_recode[alphabet.index(label)] = new_code

    kept_fields = tuple(f for f in store.entity_schema if f.name in INVOICE_ATTRIBUTES)

    filtered = EventStore(
        store.times[row_mask],
        recode[store.entity_codes[row_mask]],
        act_recode[kept_act],
        kept_ids,
        new_alphabet,
        event_schema=store.event_schema,
        event_attrs={f.name: store.event_attribute(f.name)[row_mask] for f in store.event_schema},
        entity_schema=kept_fields,
        entity_attrs={f.name: store.entity_attribute(f.name)[kept_codes] for f in kept_fields},
        time_origin=store.time_origin,
    )

    report = FilterReport(cases_in=n, cases_kept=len(kept_ids), events_kept=len(filtered),
                          labels_kept=len(new_alphabet), cases_dropped_by_rule=counts)
    assert report.cases_in == report.cases_kept + report.cases_dropped
    return filtered, report


def invoice_log_schema(time_format: str = "number", *,
                       entity_column: str = "entity_id",
                       activity_column: str = "activity",
                       time_column: str = "timestamp") -> LogSchema:
    """CSV layout for invoice logs: the eight case attributes as entity
    columns, categorical lists taken from the file."""
    specs = tuple(
        ColumnSpec(name, BOOLEAN) if name in INVOICE_BOOLEAN_ATTRIBUTES
        else ColumnSpec(name, CATEGORICAL)
        for name in INVOICE_ATTRIBUTES
    )
    return LogSchema(
        entity_column=entity_column,
        activity_column=activity_column,
        time_column=time_column,
        time_format=time_format,
        entity_attributes=specs,
    )


def bpic19_log_schema(entity_column: str = "case",
                      activity_column: str = "activity",
                      time_column: str = "timestamp") -> LogSchema:
    """Invoice layout with absolute ISO-8601 timestamps, as exported from
    the public procurement log."""
    return invoice_log_schema(
        "iso8601",
        entity_column=entity_column,
        activity_column=activity_column,
        time_column=time_column,
    )


def label_times(store: EventStore, label: str) -> np.ndarray:
    """First occurrence time of ``label`` per entity code (inf where absent)."""
    first = np.full(store.entity_count, np.inf)
    if label in store.alphabet:
        code = store.alphabet.index(label)
        mask = store.activity_codes == code
        np.minimum.at(first, store.entity_codes[mask], store.times[mask])
    return first
