"""Synthetic event-stream generators with archetype-level ground truth.

Two families mirror the two use cases: weekly shopper visit streams with a
spend outcome, and invoice lifecycles with a creation-to-receipt duration
outcome. Both are pure functions of their spec (including the seed): same
spec, same stream, byte for byte. Ground-truth tables carry the archetype
assignment and the noiseless expected outcome so tests can score against
what the generator intended rather than against realized noise.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace as _replace
from pathlib import Path
from typing import Mapping

import numpy as np

from .events import BOOLEAN, CATEGORICAL, NUMERIC, AttributeField, EventStore
from .filtering import (
    INVOICE_ATTRIBUTES,
    INVOICE_BOOLEAN_ATTRIBUTES,
    RIR_LABEL,
    VCI_LABEL,
)
from .logio import ColumnSpec, LogSchema
from .models import check_finite, check_int

SHOPPER_LABELS = (
    "bakery", "beverages", "dairy", "frozen",
    "household", "produce", "snacks", "staples",
)

SHOPPER_EVENT_SCHEMA = (
    AttributeField("freshness", NUMERIC),
    AttributeField("item_value", NUMERIC),
    AttributeField("product_density", NUMERIC),
    AttributeField("total_value", NUMERIC),
    AttributeField("total_item_count", NUMERIC),
)

INVOICE_PREFIX_LABELS = (
    "Approve purchase order",
    "Change price",
    "Change quantity",
    "Create purchase order item",
    "Create purchase requisition item",
    "Record goods receipt",
)

# prefix events fall up to this many days before their case's creation
PREFIX_SPAN_DAYS = 10.0


def shopper_log_schema() -> LogSchema:
    """CSV layout matching :func:`generate_shopper_stream` output."""
    return LogSchema(
        event_attributes=tuple(ColumnSpec(f.name, f.kind) for f in SHOPPER_EVENT_SCHEMA),
    )


# -- shopper streams -------------------------------------------------------

@dataclass(frozen=True)
class ShopperArchetype:
    """One latent customer type: a spend line plus visit habits."""

    name: str
    spend_base: float
    spend_slope: float
    visits_per_week: int
    freshness: float
    product_density: float
    items_per_visit: float
    label_weights: tuple[float, ...]

    def __post_init__(self) -> None:
        check_int("visits_per_week", self.visits_per_week, 1)
        total = sum(self.label_weights)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"label weights must sum to 1, got {total}")


@dataclass(frozen=True)
class ShopperStreamSpec:
    archetypes: tuple[ShopperArchetype, ...]
    n_entities: int
    horizon: int
    noise_scale: float = 0.0
    entity_spread: float = 0.0
    attr_noise: float = 0.0
    start_spread: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        check_int("n_entities", self.n_entities, 1)
        check_int("horizon", self.horizon, 1)
        check_int("start_spread", self.start_spread, 0)
        check_int("seed", self.seed, 0)
        for name in ("noise_scale", "entity_spread", "attr_noise"):
            check_finite(name, getattr(self, name), positive=False)
        if not self.archetypes:
            raise ValueError("need at least one archetype")
        for a in self.archetypes:
            if len(a.label_weights) != len(SHOPPER_LABELS):
                raise ValueError(f"archetype {a.name!r} has wrong label_weights length")


@dataclass(frozen=True)
class ShopperTruth:
    """Per-entity archetype and noiseless expected weekly spend."""

    entity_ids: tuple[int, ...]
    archetypes: np.ndarray          # (n,) archetype index
    start_weeks: np.ndarray         # (n,) first active week
    expected_spend: np.ndarray      # (n, horizon)

    def write_csv(self, path: str | Path) -> None:
        with Path(path).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["entity_id", "archetype", "start_week", "week", "expected_spend"])
            for i, eid in enumerate(self.entity_ids):
                for w in range(self.expected_spend.shape[1]):
                    writer.writerow([
                        eid, int(self.archetypes[i]), int(self.start_weeks[i]),
                        w, repr(float(self.expected_spend[i, w])),
                    ])


def default_shopper_archetypes(n_archetypes: int) -> tuple[ShopperArchetype, ...]:
    """Evenly spread spend lines with one preferred department each."""
    check_int("n_archetypes", n_archetypes, 1)
    slopes = (-0.6, 0.3, 0.0, -0.3, 0.6)
    visits = (1, 2, 4, 2, 1)
    n_labels = len(SHOPPER_LABELS)
    out = []
    for i in range(n_archetypes):
        pref = i % n_labels
        rest = (1.0 - 0.58) / (n_labels - 1)
        weights = tuple(0.58 if j == pref else rest for j in range(n_labels))
        out.append(ShopperArchetype(
            name=f"shopper_{i}",
            spend_base=10.0 + 10.0 * i,
            spend_slope=slopes[i % len(slopes)],
            visits_per_week=visits[i % len(visits)],
            freshness=0.15 + 0.7 * (i / max(n_archetypes - 1, 1)),
            product_density=1.0 + 0.5 * i,
            items_per_visit=6.0 + 4.0 * i,
            label_weights=weights,
        ))
    return tuple(out)


def archetype_shopper_spec(n_entities: int = 5000, horizon: int = 30,
                           n_archetypes: int = 5, noise_scale: float = 3.0,
                           entity_spread: float = 2.0, seed: int = 0) -> ShopperStreamSpec:
    """Structured population: distinct spend lines, moderate weekly noise."""
    return ShopperStreamSpec(
        archetypes=default_shopper_archetypes(n_archetypes),
        n_entities=n_entities, horizon=horizon,
        noise_scale=noise_scale, entity_spread=entity_spread,
        attr_noise=0.3, seed=seed,
    )


def noise_dominated_shopper_spec(n_entities: int = 400, horizon: int = 26,
                                 n_archetypes: int = 5, seed: int = 0) -> ShopperStreamSpec:
    """Weekly noise dwarfs every persistent spend difference.

    Spend lines are packed almost on top of each other (bases a quarter unit
    apart, near-flat slopes, small entity offsets) while the weekly noise
    stays large, so per-entity spend histories are mostly noise and
    averaging a couple of entities into a proxy denoises more than it
    blurs. Visit habits and department preferences keep their archetype
    structure so clustering still has something to hold on to.
    """
    slopes = (-0.02, 0.01, 0.0, -0.01, 0.02)
    archetypes = tuple(
        _replace(a, spend_base=30.0 + 0.25 * i, spend_slope=slopes[i % len(slopes)])
        for i, a in enumerate(default_shopper_archetypes(n_archetypes))
    )
    return ShopperStreamSpec(
        archetypes=archetypes,
        n_entities=n_entities, horizon=horizon,
        noise_scale=8.0, entity_spread=0.3,
        attr_noise=0.3, seed=seed,
    )


def _draw_labels(cdf: np.ndarray, u: np.ndarray, n_labels: int) -> np.ndarray:
    """Label of each draw: the count of its row of cumulative weights ``cdf``
    at or below its uniform ``u`` (``searchsorted(row, u, side="right")``),
    capped at the last of ``n_labels`` labels."""
    return np.minimum((cdf <= u[:, None]).sum(axis=1), n_labels - 1)


def generate_shopper_stream(spec: ShopperStreamSpec) -> tuple[EventStore, ShopperTruth]:
    """Sample a weekly visit stream.

    Each active entity makes its archetype's number of visits per week; the
    week's realized spend (archetype line + persistent entity offset + noise,
    floored at 0) is split across the visits so that recomputing the weekly
    sum from events returns the realized spend. Week w visits carry times in
    [w, w+1).
    """
    rng = np.random.default_rng(spec.seed)
    n, horizon = spec.n_entities, spec.horizon
    n_arch = len(spec.archetypes)

    arch = rng.integers(0, n_arch, n)
    offsets = rng.normal(0.0, 1.0, n) * spec.entity_spread
    if spec.start_spread > 0:
        starts = rng.integers(0, spec.start_spread + 1, n)
    else:
        starts = np.zeros(n, dtype=np.int64)

    base = np.array([a.spend_base for a in spec.archetypes])
    slope = np.array([a.spend_slope for a in spec.archetypes])
    visits = np.array([a.visits_per_week for a in spec.archetypes], dtype=np.int64)
    fresh = np.array([a.freshness for a in spec.archetypes])
    density = np.array([a.product_density for a in spec.archetypes])
    items = np.array([a.items_per_visit for a in spec.archetypes])
    cdf = np.cumsum(np.array([a.label_weights for a in spec.archetypes]), axis=1)

    weeks = np.arange(horizon)
    expected = np.maximum(base[arch, None] + slope[arch, None] * weeks[None, :]
                          + offsets[:, None], 0.0)

    times_parts: list[np.ndarray] = []
    ents_parts: list[np.ndarray] = []
    acts_parts: list[np.ndarray] = []
    attr_parts: dict[str, list[np.ndarray]] = {f.name: [] for f in SHOPPER_EVENT_SCHEMA}

    for w in range(horizon):
        active = np.nonzero(starts <= w)[0]
        noise = rng.normal(0.0, 1.0, n)
        if active.size == 0:
            continue
        spend = np.maximum(expected[active, w] + spec.noise_scale * noise[active], 0.0)
        counts = visits[arch[active]]
        total = int(counts.sum())
        ent_of_visit = np.repeat(active, counts)
        arch_of_visit = arch[ent_of_visit]
        times = w + rng.random(total)
        # per-visit department label from the visit's archetype distribution
        labels = _draw_labels(cdf[arch_of_visit], rng.random(total), len(SHOPPER_LABELS))

        value = np.repeat(spend / counts, counts)
        n_items = items[arch_of_visit]
        visit_fresh = fresh[arch_of_visit]
        visit_density = density[arch_of_visit]
        if spec.attr_noise > 0:
            n_items = n_items + spec.attr_noise * rng.normal(0.0, 1.0, total)
            visit_fresh = visit_fresh + 0.1 * spec.attr_noise * rng.normal(0.0, 1.0, total)
            visit_density = visit_density + spec.attr_noise * rng.normal(0.0, 1.0, total)
        n_items = np.maximum(np.rint(n_items), 1.0)
        visit_fresh = np.clip(visit_fresh, 0.0, 1.0)
        visit_density = np.maximum(visit_density, 0.01)

        times_parts.append(times)
        ents_parts.append(ent_of_visit)
        acts_parts.append(labels)
        attr_parts["freshness"].append(visit_fresh)
        attr_parts["item_value"].append(value / n_items)
        attr_parts["product_density"].append(visit_density)
        attr_parts["total_value"].append(value)
        attr_parts["total_item_count"].append(n_items)

    store = EventStore(
        np.concatenate(times_parts),
        np.concatenate(ents_parts),
        np.concatenate(acts_parts),
        list(range(n)),
        SHOPPER_LABELS,
        event_schema=SHOPPER_EVENT_SCHEMA,
        event_attrs={k: np.concatenate(v) for k, v in attr_parts.items()},
        time_origin=None,
    )
    truth = ShopperTruth(
        entity_ids=tuple(range(n)),
        archetypes=arch,
        start_weeks=starts,
        expected_spend=expected,
    )
    return store, truth


# -- invoice streams -------------------------------------------------------

def invoice_category_lists() -> dict[str, tuple[str, ...]]:
    """Synthetic closed category lists, sized like the published attributes."""
    sizes = {
        "Company": 3,
        "Document Type": 3,
        "Item Category": 3,
        "Item Type": 5,
        "Spend area text": 21,
        "Spend classification text": 4,
    }
    prefix = {
        "Company": "company",
        "Document Type": "doc",
        "Item Category": "cat",
        "Item Type": "type",
        "Spend area text": "area",
        "Spend classification text": "class",
    }
    return {
        name: tuple(f"{prefix[name]}_{i:02d}" for i in range(size))
        for name, size in sizes.items()
    }

def invoice_entity_schema() -> tuple[AttributeField, ...]:
    cats = invoice_category_lists()
    fields = []
    for name in INVOICE_ATTRIBUTES:
        if name in INVOICE_BOOLEAN_ATTRIBUTES:
            fields.append(AttributeField(name, BOOLEAN))
        else:
            fields.append(AttributeField(name, CATEGORICAL, cats[name]))
    return tuple(fields)


@dataclass(frozen=True)
class InvoiceArchetype:
    """One latent invoice type: a duration level plus attribute preferences."""

    name: str
    duration_mean: float
    prefix_length: int
    prefix_weights: tuple[float, ...]
    preferred: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.duration_mean <= 0:
            raise ValueError("duration_mean must be positive")
        if self.prefix_length < 0:
            raise ValueError("prefix_length must be >= 0")
        if len(self.prefix_weights) != len(INVOICE_PREFIX_LABELS):
            raise ValueError(f"archetype {self.name!r} has wrong prefix_weights length")
        total = sum(self.prefix_weights)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"prefix weights must sum to 1, got {total}")


@dataclass(frozen=True)
class InvoiceStreamSpec:
    archetypes: tuple[InvoiceArchetype, ...]
    n_entities: int
    horizon: float = 60.0
    noise_scale: float = 1.0
    attribute_purity: float = 0.9
    seed: int = 0

    def __post_init__(self) -> None:
        check_int("n_entities", self.n_entities, 1)
        check_int("seed", self.seed, 0)
        check_finite("noise_scale", self.noise_scale, positive=False)
        check_finite("horizon", self.horizon, positive=True)
        check_finite("attribute_purity", self.attribute_purity, positive=False)
        if self.attribute_purity > 1:
            raise ValueError(f"attribute_purity must be at most 1, got {self.attribute_purity!r}")
        if not self.archetypes:
            raise ValueError("need at least one archetype")


@dataclass(frozen=True)
class InvoiceTruth:
    entity_ids: tuple[int, ...]
    archetypes: np.ndarray
    creation_times: np.ndarray
    receipt_times: np.ndarray
    expected_duration: np.ndarray

    @property
    def durations(self) -> np.ndarray:
        return self.receipt_times - self.creation_times

    def write_csv(self, path: str | Path) -> None:
        with Path(path).open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["entity_id", "archetype", "creation_time",
                             "receipt_time", "duration", "expected_duration"])
            for i, eid in enumerate(self.entity_ids):
                writer.writerow([
                    eid, int(self.archetypes[i]),
                    repr(float(self.creation_times[i])),
                    repr(float(self.receipt_times[i])),
                    repr(float(self.durations[i])),
                    repr(float(self.expected_duration[i])),
                ])


def default_invoice_archetypes(n_archetypes: int) -> tuple[InvoiceArchetype, ...]:
    """Duration levels spread over [3, 15] days with distinct attribute habits."""
    check_int("n_archetypes", n_archetypes, 1)
    cats = invoice_category_lists()
    means = np.linspace(3.0, 15.0, n_archetypes)
    n_prefix = len(INVOICE_PREFIX_LABELS)
    out = []
    for i in range(n_archetypes):
        pref_label = i % n_prefix
        rest = (1.0 - 0.6) / (n_prefix - 1)
        weights = tuple(0.6 if j == pref_label else rest for j in range(n_prefix))
        preferred: dict[str, object] = {
            name: values[i % len(values)] for name, values in cats.items()
        }
        preferred["GR-Based Inv. Verif."] = bool(i % 2)
        preferred["Goods Receipt"] = bool((i // 2) % 2)
        out.append(InvoiceArchetype(
            name=f"invoice_{i}",
            duration_mean=float(means[i]),
            prefix_length=2 + i % 5,
            prefix_weights=weights,
            preferred=preferred,
        ))
    return tuple(out)


def archetype_invoice_spec(n_entities: int = 2000, horizon: float = 60.0,
                           n_archetypes: int = 5, noise_scale: float = 1.0,
                           seed: int = 0) -> InvoiceStreamSpec:
    return InvoiceStreamSpec(
        archetypes=default_invoice_archetypes(n_archetypes),
        n_entities=n_entities, horizon=horizon,
        noise_scale=noise_scale, seed=seed,
    )


def generate_invoice_stream(spec: InvoiceStreamSpec) -> tuple[EventStore, InvoiceTruth]:
    """Sample invoice lifecycles.

    Every case gets its prelude events strictly before exactly one creation
    event, followed by exactly one receipt event after a positive duration,
    so the whole stream passes the invoice filter by construction. Case
    attributes are drawn from the archetype's preferences with probability
    ``attribute_purity``, otherwise uniformly from the remaining values.
    """
    rng = np.random.default_rng(spec.seed)
    n_arch = len(spec.archetypes)
    n = spec.n_entities

    arch = rng.integers(0, n_arch, n)
    creation = rng.uniform(0.0, spec.horizon, n)
    means = np.array([a.duration_mean for a in spec.archetypes])
    durations = np.maximum(means[arch] + spec.noise_scale * rng.normal(0.0, 1.0, n), 0.05)
    receipt = creation + durations

    prefix_len = np.array([a.prefix_length for a in spec.archetypes], dtype=np.int64)
    counts = prefix_len[arch]
    total = int(counts.sum())
    ent_of_prefix = np.repeat(np.arange(n), counts)
    lags = rng.uniform(0.01, PREFIX_SPAN_DAYS, total)
    prefix_times = np.maximum(creation[ent_of_prefix] - lags, 0.0)

    prefix_cdf = np.cumsum(np.array([a.prefix_weights for a in spec.archetypes]), axis=1)
    prefix_labels = _draw_labels(prefix_cdf[arch[ent_of_prefix]], rng.random(total),
                                 len(INVOICE_PREFIX_LABELS))

    alphabet = tuple(sorted((*INVOICE_PREFIX_LABELS, VCI_LABEL, RIR_LABEL)))
    label_code = {a: i for i, a in enumerate(alphabet)}
    prefix_codes = np.array([label_code[INVOICE_PREFIX_LABELS[i]] for i in range(len(INVOICE_PREFIX_LABELS))])

    times = np.concatenate([prefix_times, creation, receipt])
    ents = np.concatenate([ent_of_prefix, np.arange(n), np.arange(n)])
    acts = np.concatenate([
        prefix_codes[prefix_labels],
        np.full(n, label_code[VCI_LABEL], dtype=np.int64),
        np.full(n, label_code[RIR_LABEL], dtype=np.int64),
    ])

    schema = invoice_entity_schema()
    entity_attrs: dict[str, np.ndarray] = {}
    for f in schema:
        pref = np.array([spec.archetypes[a].preferred[f.name] for a in range(n_arch)], dtype=object)
        take_pref = rng.random(n) < spec.attribute_purity
        if f.kind == BOOLEAN:
            pref_flag = np.array([bool(v) for v in pref])
            values = np.where(take_pref, pref_flag[arch], ~pref_flag[arch])
            entity_attrs[f.name] = values.astype(float)
        else:
            pref_code = np.array([f.categories.index(str(v)) for v in pref])
            alt = rng.integers(0, len(f.categories) - 1, n)
            codes = pref_code[arch]
            # shift the uniform draw past the preferred value
            alt = np.where(alt >= codes, alt + 1, alt)
            entity_attrs[f.name] = np.where(take_pref, codes, alt).astype(float)

    store = EventStore(
        times, ents, acts, list(range(n)), alphabet,
        entity_schema=schema,
        entity_attrs=entity_attrs,
        time_origin=None,
    )
    truth = InvoiceTruth(
        entity_ids=tuple(range(n)),
        archetypes=arch,
        creation_times=creation,
        receipt_times=receipt,
        expected_duration=means[arch],
    )
    return store, truth
