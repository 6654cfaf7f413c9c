"""Synthetic stream generators: determinism, structure, spec validation."""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from proxystream import synthetic
from proxystream.filtering import RIR_LABEL, VCI_LABEL, filter_invoice_cases
from proxystream.sweep import generate_from_dict
from proxystream.synthetic import (
    PREFIX_SPAN_DAYS,
    SHOPPER_EVENT_SCHEMA,
    SHOPPER_LABELS,
    InvoiceStreamSpec,
    ShopperArchetype,
    ShopperStreamSpec,
    archetype_invoice_spec,
    archetype_shopper_spec,
    default_invoice_archetypes,
    default_shopper_archetypes,
    generate_invoice_stream,
    generate_shopper_stream,
    noise_dominated_shopper_spec,
)


def _small_shopper_spec(**kw) -> ShopperStreamSpec:
    base = dict(
        archetypes=default_shopper_archetypes(3),
        n_entities=40,
        horizon=6,
        noise_scale=2.0,
        entity_spread=1.0,
        attr_noise=0.2,
        seed=11,
    )
    base.update(kw)
    return ShopperStreamSpec(**base)


def test_label_draws_match_a_searchsorted_loop():
    rng = np.random.default_rng(2)
    cdf = np.cumsum(rng.dirichlet(np.ones(5), size=3), axis=1)
    cdf[1, 1] = cdf[1, 0]  # a zero weight: two equal cdf entries
    cdf[2, -1] = 0.97      # weights summing to less than 1
    arch = rng.integers(0, 3, 500)
    u = rng.random(500)
    u[:6] = [cdf[0, 0], cdf[1, 0], cdf[2, 2], cdf[2, -1], 0.99, 0.0]
    arch[:6] = [0, 1, 2, 2, 2, 1]
    want = np.empty(500, dtype=np.int64)
    for a in range(3):
        want[arch == a] = np.searchsorted(cdf[a], u[arch == a], side="right")
    want = np.minimum(want, 4)
    got = synthetic._draw_labels(cdf[arch], u, 5)
    assert np.array_equal(got, want)
    assert list(got[:5]) == [1, 2, 3, 4, 4]


# -- shopper streams -------------------------------------------------------

def test_shopper_stream_is_deterministic():
    a, ta = generate_shopper_stream(_small_shopper_spec())
    b, tb = generate_shopper_stream(_small_shopper_spec())
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.entity_codes, b.entity_codes)
    assert np.array_equal(a.activity_codes, b.activity_codes)
    for f in SHOPPER_EVENT_SCHEMA:
        assert np.array_equal(a.event_attribute(f.name), b.event_attribute(f.name))
    assert np.array_equal(ta.expected_spend, tb.expected_spend)
    assert np.array_equal(ta.archetypes, tb.archetypes)


def test_different_seed_changes_stream():
    a, _ = generate_shopper_stream(_small_shopper_spec(seed=1))
    b, _ = generate_shopper_stream(_small_shopper_spec(seed=2))
    assert not np.array_equal(a.times, b.times)


def test_shopper_schema_and_alphabet():
    store, _ = generate_shopper_stream(_small_shopper_spec())
    assert store.alphabet == SHOPPER_LABELS
    assert len(SHOPPER_LABELS) == 8
    assert [f.name for f in store.event_schema] == [
        "freshness", "item_value", "product_density", "total_value", "total_item_count",
    ]
    assert store.time_origin is None


def test_week_w_events_fall_in_week_w():
    store, _ = generate_shopper_stream(_small_shopper_spec())
    weeks = np.floor(store.times)
    assert weeks.min() == 0
    assert weeks.max() == 5
    assert (store.times >= 0).all()


def test_visit_counts_follow_archetype():
    spec = _small_shopper_spec()
    store, truth = generate_shopper_stream(spec)
    per_week = np.array([a.visits_per_week for a in spec.archetypes])
    weeks = np.floor(store.times).astype(int)
    for ent in range(spec.n_entities):
        mask = store.entity_codes == ent
        counts = np.bincount(weeks[mask], minlength=spec.horizon)
        assert (counts == per_week[truth.archetypes[ent]]).all()


def test_weekly_spend_sums_match_truth_when_noiseless():
    spec = _small_shopper_spec(noise_scale=0.0, attr_noise=0.0)
    store, truth = generate_shopper_stream(spec)
    weeks = np.floor(store.times).astype(int)
    total = store.event_attribute("total_value")
    realized = np.zeros((spec.n_entities, spec.horizon))
    np.add.at(realized, (store.entity_codes, weeks), total)
    assert np.allclose(realized, truth.expected_spend, atol=1e-9)


def test_start_spread_delays_first_event():
    spec = _small_shopper_spec(start_spread=3, n_entities=120, seed=5)
    store, truth = generate_shopper_stream(spec)
    assert truth.start_weeks.max() == 3
    assert truth.start_weeks.min() == 0
    for ent in range(spec.n_entities):
        first = store.first_times[ent]
        assert np.floor(first) == truth.start_weeks[ent]


def test_expected_spend_is_floored_at_zero():
    arch = ShopperArchetype(
        name="broke", spend_base=1.0, spend_slope=-1.0, visits_per_week=1,
        freshness=0.5, product_density=1.0, items_per_visit=4.0,
        label_weights=tuple([1.0 / 8] * 8),
    )
    spec = ShopperStreamSpec(archetypes=(arch,), n_entities=5, horizon=6, seed=0)
    _, truth = generate_shopper_stream(spec)
    assert (truth.expected_spend >= 0).all()
    assert truth.expected_spend[0, 5] == 0.0


def test_shopper_spec_validation():
    with pytest.raises(ValueError):
        _small_shopper_spec(n_entities=0)
    with pytest.raises(ValueError):
        _small_shopper_spec(horizon=0)
    with pytest.raises(ValueError):
        _small_shopper_spec(noise_scale=-1.0)
    with pytest.raises(ValueError):
        _small_shopper_spec(entity_spread=-0.1)
    with pytest.raises(ValueError):
        _small_shopper_spec(attr_noise=-0.1)
    with pytest.raises(ValueError):
        _small_shopper_spec(start_spread=-1)
    with pytest.raises(ValueError):
        _small_shopper_spec(archetypes=())
    with pytest.raises(ValueError):
        ShopperArchetype("bad", 10.0, 0.0, 0, 0.5, 1.0, 4.0, tuple([1 / 8] * 8))
    with pytest.raises(ValueError):
        ShopperArchetype("bad", 10.0, 0.0, 1, 0.5, 1.0, 4.0, tuple([0.5] * 8))


def test_archetype_preset_has_distinct_spend_lines():
    spec = archetype_shopper_spec(n_entities=10, horizon=5)
    bases = [a.spend_base for a in spec.archetypes]
    assert len(set(bases)) == len(bases)
    assert max(bases) - min(bases) >= 10.0


def test_noise_dominated_preset_buries_structure_in_noise():
    spec = noise_dominated_shopper_spec()
    bases = [a.spend_base for a in spec.archetypes]
    slopes = [abs(a.spend_slope) for a in spec.archetypes]
    # persistent differences are a small fraction of the weekly noise scale
    assert max(bases) - min(bases) <= spec.noise_scale / 4
    assert max(slopes) * spec.horizon <= spec.noise_scale / 10
    assert spec.entity_spread <= spec.noise_scale / 10


# -- invoice streams -------------------------------------------------------

def test_invoice_stream_is_deterministic():
    spec = archetype_invoice_spec(n_entities=300, horizon=30.0, seed=3)
    a, ta = generate_invoice_stream(spec)
    b, tb = generate_invoice_stream(spec)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.activity_codes, b.activity_codes)
    assert np.array_equal(ta.receipt_times, tb.receipt_times)


def test_invoice_stream_passes_filter_by_construction():
    store, _ = generate_invoice_stream(archetype_invoice_spec(n_entities=500, seed=9))
    filtered, report = filter_invoice_cases(store)
    assert report.cases_kept == 500
    assert report.cases_dropped == 0
    assert filtered.entity_count == store.entity_count


def test_invoice_milestones_and_prefix_order():
    spec = archetype_invoice_spec(n_entities=200, horizon=40.0, seed=4)
    store, truth = generate_invoice_stream(spec)
    vci = store.alphabet.index(VCI_LABEL)
    rir = store.alphabet.index(RIR_LABEL)
    for ent in range(store.entity_count):
        mask = store.entity_codes == ent
        acts = store.activity_codes[mask]
        times = store.times[mask]
        assert (acts == vci).sum() == 1
        assert (acts == rir).sum() == 1
        t_vci = times[acts == vci][0]
        t_rir = times[acts == rir][0]
        assert t_vci == truth.creation_times[ent]
        assert t_rir == truth.receipt_times[ent]
        assert t_vci < t_rir
        prefix_times = times[(acts != vci) & (acts != rir)]
        assert (prefix_times < t_vci).all()
        assert (prefix_times > t_vci - PREFIX_SPAN_DAYS).all()
    assert (truth.durations > 0).all()


def test_pure_attributes_follow_archetype_preferences():
    spec = InvoiceStreamSpec(
        archetypes=default_invoice_archetypes(4),
        n_entities=100, attribute_purity=1.0, seed=6,
    )
    store, truth = generate_invoice_stream(spec)
    for f in store.entity_schema:
        col = store.entity_attribute(f.name)
        for ent in range(store.entity_count):
            preferred = spec.archetypes[truth.archetypes[ent]].preferred[f.name]
            assert f.decode(col[ent]) == preferred


def test_invoice_spec_validation():
    archs = default_invoice_archetypes(2)
    with pytest.raises(ValueError):
        InvoiceStreamSpec(archetypes=archs, n_entities=0)
    with pytest.raises(ValueError):
        InvoiceStreamSpec(archetypes=archs, n_entities=10, noise_scale=-0.5)
    with pytest.raises(ValueError):
        InvoiceStreamSpec(archetypes=archs, n_entities=10, horizon=0.0)
    with pytest.raises(ValueError):
        InvoiceStreamSpec(archetypes=archs, n_entities=10, attribute_purity=1.5)
    with pytest.raises(ValueError):
        InvoiceStreamSpec(archetypes=(), n_entities=10)
    for weights, match in [((0.5, 0.5), "length"), ((0.2,) * 5, "length"),
                           ((0.3,) * 6, "sum to 1"), ((0.2,) * 6 + (0.0,), "length")]:
        with pytest.raises(ValueError, match=match):
            replace(archs[0], prefix_weights=weights)


@pytest.mark.parametrize("kind, key, value", [
    ("shopper", "noise_scale", float("nan")),
    ("shopper", "noise_scale", float("inf")),
    ("shopper", "entity_spread", float("nan")),
    ("shopper", "seed", True),
    ("shopper", "n_entities", True),
    ("shopper", "n_entities", 40.0),
    ("shopper", "horizon", 12.5),
    ("invoice", "horizon", float("inf")),
    ("invoice", "horizon", float("nan")),
    ("invoice", "noise_scale", float("nan")),
    ("invoice", "seed", True),
    ("invoice", "n_entities", True),
    ("shopper", "n_archetypes", True),
    ("shopper", "n_archetypes", 2.5),
    ("invoice", "n_archetypes", True),
    ("invoice", "n_archetypes", 2.5),
])
def test_generator_blocks_name_a_bad_field(kind, key, value):
    block = {"kind": kind, "n_entities": 40, "horizon": 12, "seed": 0, key: value}
    with pytest.raises(ValueError, match=key):
        generate_from_dict(block)


@pytest.mark.parametrize("key, value", [
    ("attr_noise", float("nan")), ("attr_noise", -0.1), ("start_spread", 1.5),
    ("start_spread", True), ("horizon", True),
])
def test_shopper_spec_names_a_bad_field(key, value):
    with pytest.raises(ValueError, match=key):
        _small_shopper_spec(**{key: value})


@pytest.mark.parametrize("key, value", [
    ("n_entities", 10.0),
    ("attribute_purity", True), ("attribute_purity", float("nan")),
    ("attribute_purity", 1.5), ("attribute_purity", -0.1),
])
def test_invoice_spec_names_a_bad_field(key, value):
    with pytest.raises(ValueError, match=key):
        InvoiceStreamSpec(archetypes=default_invoice_archetypes(2),
                          **{"n_entities": 10, key: value})


@pytest.mark.parametrize("value", [1.5, True, 0, np.float64(2.0)])
def test_shopper_archetype_names_a_bad_visit_count(value):
    with pytest.raises(ValueError, match="visits_per_week"):
        ShopperArchetype("bad", 10.0, 0.0, value, 0.5, 1.0, 4.0, tuple([1 / 8] * 8))


def test_truth_tables_write_csv(tmp_path):
    _, shopper_truth = generate_shopper_stream(_small_shopper_spec())
    _, invoice_truth = generate_invoice_stream(archetype_invoice_spec(n_entities=20))
    sp, ip = tmp_path / "shoppers.csv", tmp_path / "invoices.csv"
    shopper_truth.write_csv(sp)
    invoice_truth.write_csv(ip)
    assert sp.read_text().startswith("entity_id,archetype,start_week,week,expected_spend")
    assert ip.read_text().startswith(
        "entity_id,archetype,creation_time,receipt_time,duration,expected_duration"
    )
