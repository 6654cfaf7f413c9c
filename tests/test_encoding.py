"""Journey matrices, linear-fit summaries, invoice feature views."""
from __future__ import annotations

import numpy as np
import pytest
from conftest import Event, linear_fit_rowwise, standardize_rowwise, store_from_events
from hypothesis import example, given, settings
from hypothesis import strategies as st

from proxystream.encoding import (
    JOURNEY_AGGREGATE_ROWS,
    encode_journeys,
    invoice_encoding,
    journey_row_count,
    journey_row_names,
    linear_fit_batch,
    one_hot_width,
    prefix_label_counts,
    standardize_columns,
    weekly_spend,
)
from proxystream.events import EventStore
from proxystream.filtering import RIR_LABEL, VCI_LABEL
from proxystream.synthetic import (
    SHOPPER_EVENT_SCHEMA,
    archetype_invoice_spec,
    generate_invoice_stream,
    invoice_entity_schema,
)
from proxystream.usecases import PaintFactoryContext

ALPHABET = ("bakery", "dairy", "produce")


def _visit(ent, label, t, freshness, item_value, density, total, items):
    return Event(ent, label, t, {
        "freshness": freshness, "item_value": item_value,
        "product_density": density, "total_value": total,
        "total_item_count": items,
    })


def _shopper_store(events) -> EventStore:
    return store_from_events(events, alphabet=ALPHABET, event_schema=SHOPPER_EVENT_SCHEMA)


def _journey(store: EventStore, entity_id, window_end: float, n_weeks: int) -> np.ndarray:
    """One entity's (F, n_weeks) journey matrix from the batch encoder."""
    codes = np.array([store.entity_code(entity_id)])
    return encode_journeys(store, codes, window_end, n_weeks)[0]


def _fit(matrix: np.ndarray):
    """(slope, intercept, residual) rows of one matrix from the batch fit."""
    return np.split(linear_fit_batch(matrix[None])[0], 3)


# -- journey matrices ------------------------------------------------------

def test_row_layout():
    assert journey_row_count(8) == 14
    names = journey_row_names(ALPHABET)
    assert names[:6] == JOURNEY_AGGREGATE_ROWS
    assert names[6:] == ("freq_bakery", "freq_dairy", "freq_produce")


def test_single_visit_column():
    store = _shopper_store([_visit("a", "dairy", 0.4, 0.5, 2.0, 1.0, 20.0, 10.0)])
    journey = _journey(store, "a", window_end=1.0, n_weeks=1)
    assert journey.shape == (9, 1)
    assert np.array_equal(journey[:, 0], [0.5, 2.0, 1.0, 20.0, 10.0, 1.0, 0.0, 1.0, 0.0])


def test_empty_weeks_are_zero_columns():
    store = _shopper_store([_visit("a", "dairy", 2.5, 0.5, 2.0, 1.0, 20.0, 10.0)])
    journey = _journey(store, "a", window_end=3.0, n_weeks=3)
    assert np.array_equal(journey[:, 0], np.zeros(9))
    assert np.array_equal(journey[:, 1], np.zeros(9))
    assert journey[5, 2] == 1.0
    assert not np.isnan(journey).any()


def test_multi_visit_week_aggregates():
    store = _shopper_store([
        _visit("a", "bakery", 0.1, 0.2, 1.0, 2.0, 10.0, 5.0),
        _visit("a", "dairy", 0.6, 0.8, 3.0, 4.0, 30.0, 15.0),
    ])
    journey = _journey(store, "a", window_end=1.0, n_weeks=1)
    assert journey[0, 0] == pytest.approx(0.5)    # mean freshness
    assert journey[1, 0] == pytest.approx(2.0)    # mean item value
    assert journey[2, 0] == pytest.approx(3.0)    # mean density
    assert journey[3, 0] == pytest.approx(40.0)   # summed spend
    assert journey[4, 0] == pytest.approx(20.0)   # summed items
    assert journey[5, 0] == 2.0                   # visit count
    assert np.allclose(journey[6:, 0], [0.5, 0.5, 0.0])
    assert journey[6:, 0].sum() == pytest.approx(1.0)


def test_window_excludes_right_edge_and_earlier_weeks():
    store = _shopper_store([
        _visit("a", "dairy", 0.5, 0.5, 2.0, 1.0, 20.0, 10.0),   # before window
        _visit("a", "dairy", 1.5, 0.5, 2.0, 1.0, 7.0, 10.0),    # week 0 of window
        _visit("a", "dairy", 3.0, 0.5, 2.0, 1.0, 9.0, 10.0),    # at window_end
    ])
    journey = _journey(store, "a", window_end=3.0, n_weeks=2)
    assert journey[3, 0] == 7.0
    assert np.array_equal(journey[:, 1], np.zeros(9))


def test_batch_matches_single_and_ignores_other_entities():
    store = _shopper_store([
        _visit("a", "dairy", 0.2, 0.5, 2.0, 1.0, 20.0, 10.0),
        _visit("b", "bakery", 0.3, 0.1, 1.0, 1.0, 5.0, 5.0),
        _visit("b", "produce", 1.2, 0.9, 4.0, 2.0, 8.0, 2.0),
    ])
    codes = np.array([store.entity_code("b"), store.entity_code("a")])
    batch = encode_journeys(store, codes, window_end=2.0, n_weeks=2)
    assert batch.shape == (2, 9, 2)
    assert np.array_equal(batch[0], _journey(store, "b", 2.0, 2))
    assert np.array_equal(batch[1], _journey(store, "a", 2.0, 2))
    empty = encode_journeys(store, np.array([], dtype=int), 2.0, 2)
    assert empty.shape == (0, 9, 2)


@pytest.mark.parametrize("codes, window_end", [
    ([0, 1], 10.0),   # the window holds no event at all
    ([0], 4.0),       # the window holds only another entity's event
    ([], 4.0),        # an empty batch
], ids=["empty_window", "no_batch_event", "empty_batch"])
def test_windows_without_batch_events_encode_to_zeros(codes, window_end):
    store = _shopper_store([
        _visit("a", "dairy", 0.2, 0.5, 2.0, 1.0, 20.0, 10.0),
        _visit("b", "bakery", 3.5, 0.1, 1.0, 1.0, 5.0, 5.0),
    ])
    got = encode_journeys(store, np.array(codes, dtype=np.int64), window_end, 2)
    assert got.tobytes() == np.zeros((len(codes), 9, 2)).tobytes()
    assert got.shape == (len(codes), 9, 2)


def test_encode_journeys_rejects_empty_window():
    store = _shopper_store([_visit("a", "dairy", 0.2, 0.5, 2.0, 1.0, 20.0, 10.0)])
    with pytest.raises(ValueError):
        encode_journeys(store, np.array([0]), 1.0, 0)


def test_weekly_spend_window():
    store = _shopper_store([
        _visit("a", "dairy", 0.5, 0.5, 2.0, 1.0, 20.0, 10.0),
        _visit("a", "dairy", 1.5, 0.5, 2.0, 1.0, 7.0, 10.0),
        _visit("a", "dairy", 2.0, 0.5, 2.0, 1.0, 9.0, 10.0),
        _visit("b", "bakery", 1.1, 0.5, 2.0, 1.0, 100.0, 10.0),
    ])
    got = weekly_spend(store, np.array([0, 1]), 1.0, 2.0)
    assert np.array_equal(got, [7.0, 100.0])


# -- linear fits -----------------------------------------------------------

def test_linear_fit_peak_fixture():
    slope, intercept, residual = _fit(np.array([[0.0, 1.0, 0.0]]))
    assert slope[0] == pytest.approx(0.0, abs=1e-12)
    assert intercept[0] == pytest.approx(1 / 3, abs=1e-12)
    assert residual[0] == pytest.approx(np.sqrt(2 / 9), abs=1e-12)


def test_linear_fit_recovers_exact_line():
    weeks = np.arange(5.0)
    slope, intercept, residual = _fit(np.array([2.0 * weeks - 1.0, np.full(5, 4.0)]))
    assert np.allclose(slope, [2.0, 0.0], atol=1e-12)
    assert np.allclose(intercept, [-1.0, 4.0], atol=1e-12)
    assert np.allclose(residual, [0.0, 0.0], atol=1e-12)


def test_linear_fit_batch_layout_and_consistency():
    rng = np.random.default_rng(3)
    mats = rng.normal(size=(4, 6, 5))
    flat = linear_fit_batch(mats)
    assert flat.shape == (4, 18)
    for i in range(4):
        # a batch of one has the same layout
        single = linear_fit_batch(mats[i:i + 1])
        assert single.shape == (1, 18)
        assert np.allclose(flat[i], single[0], atol=1e-12)
        slope, intercept, residual = _fit(mats[i])
        assert np.array_equal(single[0], np.concatenate([slope, intercept, residual]))


def test_linear_fit_is_least_squares():
    rng = np.random.default_rng(8)
    row = rng.normal(size=(1, 7))
    fit_slope, fit_intercept, _ = _fit(row)
    weeks = np.arange(7.0)

    def sse(slope, intercept):
        return ((row[0] - slope * weeks - intercept) ** 2).sum()

    best = sse(fit_slope[0], fit_intercept[0])
    for ds in (-1e-4, 1e-4):
        assert sse(fit_slope[0] + ds, fit_intercept[0]) > best
        assert sse(fit_slope[0], fit_intercept[0] + ds) > best


def test_linear_fit_needs_two_columns():
    with pytest.raises(ValueError, match="two week columns"):
        linear_fit_batch(np.ones((1, 3, 1)))


@pytest.mark.parametrize("shape", [(5,), (3, 5), (1, 2, 3, 5)], ids=["row", "matrix", "4d"])
def test_linear_fit_takes_only_a_batch_of_matrices(shape):
    with pytest.raises(ValueError, match=r"\(batch, rows, weeks\)"):
        linear_fit_batch(np.ones(shape))


def _mixed_values(rng: np.random.Generator, shape) -> np.ndarray:
    """Signed values with magnitudes from 1e-6 to 1e6, a fifth of them exact
    zeros (some -0.0), so sums over rows of one scale and over rows that
    span twelve decades both occur."""
    x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-6, 6, shape)
    zeros = rng.random(shape) < 0.2
    x[zeros] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[zeros]
    return x


@settings(max_examples=120, deadline=None)
@example(weeks=3, batch=2000, rows=14, seed=0)      # the supermarket shape
@example(weeks=8, batch=5, rows=2, seed=1)          # eight running sums, no rest
@example(weeks=17, batch=5, rows=2, seed=2)         # two rounds of eight and a rest
@example(weeks=40, batch=3000, rows=1, seed=3)
@example(weeks=150, batch=4, rows=2, seed=4)        # halves past 128 weeks
@example(weeks=300, batch=2, rows=1, seed=5)
@example(weeks=5, batch=0, rows=3, seed=6)          # an empty batch
@given(weeks=st.integers(2, 40), batch=st.integers(0, 3000), rows=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_linear_fit_batch_has_the_rowwise_bytes(weeks, batch, rows, seed):
    # the week-plane fit adds planes in numpy's pairwise order, so it must
    # give the bytes of numpy's reductions over a C-ordered week axis
    mats = _mixed_values(np.random.default_rng(seed), (batch, rows, weeks))
    got = linear_fit_batch(mats)
    assert got.shape == (batch, 3 * rows)
    assert got.tobytes() == linear_fit_rowwise(mats).tobytes()


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 300), cols=st.integers(1, 20), seed=st.integers(0, 2**32 - 1),
       layout=st.sampled_from(["C", "F", "strided"]))
def test_standardize_columns_has_the_mean_and_std_bytes(n, cols, seed, layout):
    rng = np.random.default_rng(seed)
    x = _mixed_values(rng, (2 * n, cols)) + rng.integers(-3, 4, cols)
    x[:, rng.random(cols) < 0.2] = 2.5          # constant columns
    x = {"C": x[:n], "F": np.asfortranarray(x[:n]), "strided": x[::2]}[layout]
    assert standardize_columns(x).tobytes() == standardize_rowwise(x).tobytes()


def test_standardize_columns():
    rng = np.random.default_rng(0)
    x = rng.normal(5.0, 3.0, size=(50, 4))
    x[:, 2] = 7.5  # constant column
    z = standardize_columns(x)
    assert np.allclose(z.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(z.std(axis=0), [1.0, 1.0, 0.0, 1.0], atol=1e-12)
    assert np.array_equal(z[:, 2], np.zeros(50))


# -- invoice features ------------------------------------------------------

def _invoice_store():
    store, _ = generate_invoice_stream(archetype_invoice_spec(n_entities=60, seed=2))
    return store


def test_one_hot_width_synthetic_is_49():
    assert one_hot_width(_invoice_store()) == 49


def test_one_hot_width_with_forty_labels_is_81():
    schema = invoice_entity_schema()
    alphabet = tuple(f"act_{i:02d}" for i in range(40))
    store = EventStore(
        np.array([0.0]), np.array([0]), np.array([0]), ["c0"], alphabet,
        entity_schema=schema,
        entity_attrs={f.name: np.array([0.0]) for f in schema},
    )
    assert one_hot_width(store) == 81


def test_prefix_counts_are_strictly_before_creation():
    events = [
        Event("a", "prep", 0.0),
        Event("a", "prep", 1.0),
        Event("a", VCI_LABEL, 2.0),
        Event("a", "prep", 2.0),   # not strictly before creation
        Event("a", RIR_LABEL, 3.0),
        Event("b", "prep", 0.5),
    ]
    store = store_from_events(events, alphabet=("prep", RIR_LABEL, VCI_LABEL))
    creation = np.array([2.0, np.inf])
    counts = prefix_label_counts(store, creation)
    assert counts.shape == (2, 3)
    assert np.array_equal(counts[0], [2.0, 0.0, 0.0])
    # inf creation sees the whole history
    assert np.array_equal(counts[1], [1.0, 0.0, 0.0])


def test_invoice_encoding_shapes_and_frequencies():
    store = _invoice_store()
    codes = np.arange(store.entity_count)
    enc = invoice_encoding(store, codes)
    n_labels = len(store.alphabet)
    assert enc.mixed.shape == (60, n_labels + 8)
    assert enc.onehot.shape == (60, 49)
    # the Gower mask of the paint context marks exactly the attribute columns
    mask = PaintFactoryContext(store).distance.categorical_mask
    assert mask.shape == (enc.mixed.shape[1],)
    assert not mask[:n_labels].any()
    assert mask[n_labels:].all()
    sums = enc.mixed[:, :n_labels].sum(axis=1)
    assert np.allclose(sums[sums > 0], 1.0)
    assert np.array_equal(enc.mixed[:, :n_labels], enc.onehot[:, :n_labels])
    # six categorical attributes contribute one indicator each; the two
    # boolean columns add 0 or 1 on top
    attr_sums = enc.onehot[:, n_labels:].sum(axis=1)
    assert ((attr_sums >= 6.0) & (attr_sums <= 8.0)).all()


def test_invoice_onehot_indicators():
    store = _invoice_store()
    enc = invoice_encoding(store, np.arange(store.entity_count))
    n_labels = len(store.alphabet)
    offset = n_labels
    for f in store.entity_schema:
        if f.kind == "categorical":
            block = enc.onehot[:, offset:offset + len(f.categories)]
            assert np.array_equal(block.sum(axis=1), np.ones(60))
            assert np.array_equal(
                block.argmax(axis=1).astype(float), store.entity_attribute(f.name)
            )
            offset += len(f.categories)
        else:
            assert np.array_equal(enc.onehot[:, offset], store.entity_attribute(f.name))
            offset += 1
    assert offset == 49


def test_zero_prefix_entity_encodes_to_zero_frequencies():
    events = [Event("a", VCI_LABEL, 1.0), Event("a", RIR_LABEL, 2.0)]
    store = store_from_events(events, alphabet=(RIR_LABEL, VCI_LABEL))
    enc = invoice_encoding(store, np.array([0]))
    assert np.array_equal(enc.mixed[0, :2], [0.0, 0.0])
    assert not np.isnan(enc.mixed).any()


def test_encode_invoice_single_entity():
    store = _invoice_store()
    code = store.entity_code(store.entity_ids[0])
    enc = invoice_encoding(store, np.array([code]))
    n_labels = len(store.alphabet)
    freqs, attrs = enc.mixed[0, :n_labels], enc.mixed[0, n_labels:]
    assert freqs.shape == (n_labels,)
    assert freqs.sum() == pytest.approx(1.0)
    assert attrs.shape == (len(store.entity_schema),)
    # attribute columns hold the raw category codes and flags
    assert np.array_equal(attrs, [store.entity_attribute(f.name)[code]
                                  for f in store.entity_schema])
