"""Invoice-case filtering rules, precedence, reports, idempotence."""
from __future__ import annotations

import json

import numpy as np
import pytest
from conftest import Event, store_from_events

from proxystream.events import (
    CATEGORICAL,
    AttributeField,
    EventStore,
    SchemaError,
    TimeWindow,
)
from proxystream.filtering import (
    DEFAULT_DATE_WINDOW,
    INVOICE_ATTRIBUTES,
    RIR_LABEL,
    RULE_DATE_RANGE,
    RULE_MULTIPLICITY,
    RULE_ORDER,
    VCI_LABEL,
    filter_invoice_cases,
    invoice_log_schema,
    label_times,
)


def _case(cid: str, base: float, *labels: str) -> list[Event]:
    return [Event(cid, lab, base + 0.1 * i) for i, lab in enumerate(labels)]


def _five_case_store() -> EventStore:
    """Five cases: three usable, one multiplicity failure, one order failure."""
    events = (
        _case("keep1", 0.0, "Create PO", VCI_LABEL, RIR_LABEL)
        + _case("dup", 10.0, VCI_LABEL, VCI_LABEL, RIR_LABEL)
        + _case("keep2", 20.0, VCI_LABEL, RIR_LABEL, "Clear Invoice")
        + _case("swap", 30.0, RIR_LABEL, VCI_LABEL)
        + _case("keep3", 40.0, VCI_LABEL, RIR_LABEL)
    )
    return store_from_events(events)


def test_five_case_fixture_keeps_three():
    filtered, report = filter_invoice_cases(_five_case_store())
    assert report.cases_in == 5
    assert report.cases_kept == 3
    assert filtered.entity_ids == ("keep1", "keep2", "keep3")
    assert report.cases_dropped_by_rule == {
        RULE_MULTIPLICITY: 1,
        RULE_ORDER: 1,
        RULE_DATE_RANGE: 0,
    }
    # every event of a kept case survives, including non-milestone labels
    assert report.events_kept == 8
    assert report.labels_kept == 4


def test_kept_alphabet_is_sorted_surviving_labels():
    filtered, _ = filter_invoice_cases(_five_case_store())
    assert filtered.alphabet == tuple(
        sorted(["Create PO", "Clear Invoice", VCI_LABEL, RIR_LABEL])
    )


def test_missing_milestone_counts_as_multiplicity():
    store = store_from_events(_case("a", 0.0, VCI_LABEL) + _case("b", 1.0, RIR_LABEL, VCI_LABEL))
    _, report = filter_invoice_cases(store)
    assert report.cases_kept == 0
    assert report.cases_dropped_by_rule[RULE_MULTIPLICITY] == 1
    assert report.cases_dropped_by_rule[RULE_ORDER] == 1


def test_rule_precedence_multiplicity_before_order():
    # fails both rules; must be counted against multiplicity only
    store = store_from_events(_case("x", 0.0, RIR_LABEL, VCI_LABEL, VCI_LABEL))
    _, report = filter_invoice_cases(store)
    assert report.cases_dropped_by_rule == {
        RULE_MULTIPLICITY: 1,
        RULE_ORDER: 0,
        RULE_DATE_RANGE: 0,
    }


def test_simultaneous_milestones_fail_order():
    store = store_from_events([Event("t", VCI_LABEL, 5.0), Event("t", RIR_LABEL, 5.0)])
    _, report = filter_invoice_cases(store)
    assert report.cases_dropped_by_rule[RULE_ORDER] == 1


def test_date_window_defaults_to_2018_for_absolute_stores():
    start, end = DEFAULT_DATE_WINDOW.start, DEFAULT_DATE_WINDOW.end
    events = (
        # first event exactly at the window start: kept (closed left edge)
        _case("edge", start, VCI_LABEL, RIR_LABEL)
        + _case("inside", start + 100.0, VCI_LABEL, RIR_LABEL)
        # last event lands exactly on the window end: dropped (open right edge)
        + [Event("late", VCI_LABEL, end - 1.0), Event("late", RIR_LABEL, end)]
        + _case("early", start - 5.0, VCI_LABEL, RIR_LABEL)
    )
    store = store_from_events(events, time_origin="epoch_days")
    filtered, report = filter_invoice_cases(store)
    assert filtered.entity_ids == ("edge", "inside")
    assert report.cases_dropped_by_rule[RULE_DATE_RANGE] == 2


def test_relative_stores_skip_date_rule_unless_given():
    store = _five_case_store()  # times 0..40, far outside calendar 2018
    _, report = filter_invoice_cases(store)
    assert report.cases_dropped_by_rule[RULE_DATE_RANGE] == 0
    _, report2 = filter_invoice_cases(store, date_window=TimeWindow(0.0, 25.0))
    # keep1 and keep2 fit inside [0, 25); keep3 starts at 40
    assert report2.cases_kept == 2
    assert report2.cases_dropped_by_rule[RULE_DATE_RANGE] == 1


def test_filter_is_idempotent():
    first, _ = filter_invoice_cases(_five_case_store())
    second, report = filter_invoice_cases(first)
    assert report.cases_dropped == 0
    assert report.cases_kept == first.entity_count
    assert np.array_equal(second.times, first.times)
    assert np.array_equal(second.entity_codes, first.entity_codes)
    assert np.array_equal(second.activity_codes, first.activity_codes)
    assert second.alphabet == first.alphabet
    assert second.entity_ids == first.entity_ids


def test_entity_attributes_reduced_to_analysis_set():
    schema = (
        AttributeField("Company", CATEGORICAL, ("acme", "zenith")),
        AttributeField("Clerk", CATEGORICAL, ("ann", "bob")),  # not an analysis column
    )
    store = store_from_events(
        _case("a", 0.0, VCI_LABEL, RIR_LABEL) + _case("b", 1.0, VCI_LABEL, RIR_LABEL),
        entity_schema=schema,
        entity_attributes={
            "a": {"Company": "acme", "Clerk": "ann"},
            "b": {"Company": "zenith", "Clerk": "bob"},
        },
    )
    filtered, _ = filter_invoice_cases(store)
    assert [f.name for f in filtered.entity_schema] == ["Company"]
    assert np.array_equal(filtered.entity_attribute("Company"), [0.0, 1.0])
    with pytest.raises(SchemaError):
        filtered.entity_attribute("Clerk")


def test_report_accounting_and_json(tmp_path):
    _, report = filter_invoice_cases(_five_case_store())
    assert report.cases_in == report.cases_kept + report.cases_dropped
    out = tmp_path / "report.json"
    report.write_json(out)
    data = json.loads(out.read_text())
    assert data["cases_kept"] == 3
    assert data["cases_dropped_by_rule"][RULE_MULTIPLICITY] == 1


def test_invoice_schema_declares_eight_attributes():
    schema = invoice_log_schema()
    assert len(INVOICE_ATTRIBUTES) == 8
    assert tuple(c.name for c in schema.entity_attributes) == INVOICE_ATTRIBUTES
    kinds = {c.name: c.kind for c in schema.entity_attributes}
    assert kinds["GR-Based Inv. Verif."] == "boolean"
    assert kinds["Goods Receipt"] == "boolean"
    assert kinds["Company"] == "categorical"


def test_label_times_first_occurrence_and_inf():
    store = store_from_events(
        [
            Event("a", VCI_LABEL, 3.0),
            Event("a", VCI_LABEL, 1.0),
            Event("b", "Create PO", 2.0),
        ]
    )
    got = label_times(store, VCI_LABEL)
    assert got[store.entity_code("a")] == 1.0
    assert np.isinf(got[store.entity_code("b")])
    assert np.isinf(label_times(store, "never seen")).all()
