"""Feature encodings for the two entity families.

Shopper entities become journey matrices (one column per week, one row per
visit aggregate or department frequency) summarised by per-row linear fits.
Invoice entities become prefix label frequencies plus fixed case attributes,
with a one-hot view for averaging and a mixed view for Gower distances.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .events import CATEGORICAL, EventStore
from .filtering import VCI_LABEL, label_times

JOURNEY_AGGREGATE_ROWS = (
    "freshness_mean",
    "item_value_mean",
    "product_density_mean",
    "total_value_sum",
    "total_item_count_sum",
    "visit_count",
)


def journey_row_names(alphabet: Sequence[str]) -> tuple[str, ...]:
    """Row labels of the journey matrix: aggregates, then label frequencies."""
    return JOURNEY_AGGREGATE_ROWS + tuple(f"freq_{a}" for a in alphabet)


def journey_row_count(n_labels: int) -> int:
    return len(JOURNEY_AGGREGATE_ROWS) + n_labels


def encode_journeys(store: EventStore, entity_codes: np.ndarray,
                    window_end: float, n_weeks: int) -> np.ndarray:
    """Journey matrices for a batch of entities.

    Week k of the result covers [window_end - n_weeks + k,
    window_end - n_weeks + k + 1). Weeks without visits are all-zero columns
    (means and frequencies included, no NaNs). Returns (m, F, n_weeks).
    """
    if n_weeks < 1:
        raise ValueError("n_weeks must be >= 1")
    entity_codes = np.asarray(entity_codes, dtype=np.int64)
    m = len(entity_codes)
    n_labels = len(store.alphabet)
    rows = journey_row_count(n_labels)
    out = np.zeros((m, rows, n_weeks))

    start = window_end - n_weeks
    lo = int(np.searchsorted(store.times, start, side="left"))
    hi = int(np.searchsorted(store.times, window_end, side="left"))
    pos = np.full(store.entity_count, -1, dtype=np.int64)
    pos[entity_codes] = np.arange(m)
    keep = pos[store.entity_codes[lo:hi]] >= 0
    idx = np.nonzero(keep)[0] + lo
    week = np.floor(store.times[idx] - start).astype(np.int64)
    key = pos[store.entity_codes[idx]] * n_weeks + week
    size = m * n_weeks

    counts = np.bincount(key, minlength=size).astype(float)
    sums = {
        name: np.bincount(key, weights=store.event_attribute(name)[idx], minlength=size)
        for name in ("freshness", "item_value", "product_density",
                     "total_value", "total_item_count")
    }
    safe = np.where(counts > 0, counts, 1.0)
    shape = (m, n_weeks)
    out[:, 0] = (sums["freshness"] / safe).reshape(shape)
    out[:, 1] = (sums["item_value"] / safe).reshape(shape)
    out[:, 2] = (sums["product_density"] / safe).reshape(shape)
    out[:, 3] = sums["total_value"].reshape(shape)
    out[:, 4] = sums["total_item_count"].reshape(shape)
    out[:, 5] = counts.reshape(shape)

    label_key = key * n_labels + store.activity_codes[idx]
    label_counts = np.bincount(label_key, minlength=size * n_labels).astype(float)
    freqs = (label_counts.reshape(size, n_labels) / safe[:, None]).reshape(m, n_weeks, n_labels)
    out[:, len(JOURNEY_AGGREGATE_ROWS):] = np.swapaxes(freqs, 1, 2)
    return out


def weekly_spend(store: EventStore, entity_codes: np.ndarray,
                 start: float, end: float) -> np.ndarray:
    """Sum of total_value per selected entity over [start, end)."""
    entity_codes = np.asarray(entity_codes, dtype=np.int64)
    lo = int(np.searchsorted(store.times, start, side="left"))
    hi = int(np.searchsorted(store.times, end, side="left"))
    totals = np.bincount(store.entity_codes[lo:hi],
                         weights=store.event_attribute("total_value")[lo:hi],
                         minlength=store.entity_count)
    return totals[entity_codes]


# -- linear-fit summaries --------------------------------------------------

def _pairwise_sum(terms: np.ndarray) -> np.ndarray:
    """Sum ``terms`` over its first axis in the order that numpy's
    ``add.reduce`` (its ``pairwise_sum``) uses along a contiguous axis; the
    order is written out in :func:`linear_fit_batch`. Each running sum here
    starts from 0.0, where numpy adds its pairwise result to 0.0 at the end:
    the two differ only in the sign of a zero before that last addition,
    which it removes, so every entry has numpy's bits.
    """
    n = len(terms)
    if n < 8:
        return np.add.reduce(terms, axis=0)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise_sum(terms[:half]) + _pairwise_sum(terms[half:])
    body = n - n % 8
    r = np.add.reduce(terms[:body].reshape(body // 8, 8, *terms.shape[1:]), axis=0)
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for term in terms[body:]:
        total += term
    return total


def linear_fit_batch(matrices: np.ndarray) -> np.ndarray:
    """Fit each row of each of a (batch, rows, weeks) array of matrices;
    returns (batch, 3 * rows) as [slopes|intercepts|residuals].

    The fit works on week planes, one (batch, rows) array per week, so each
    step is one pass over the batch and each sum over n weeks adds whole
    planes. Every value has the bits of the row-wise fit (``mean`` and
    ``sum`` over the last axis of a C-ordered batch), because the sums add
    the planes in numpy's pairwise order:

    - below 8 weeks, a running sum from 0.0 in week order; for the usual 3
      weeks, ((0.0 + w0) + w1) + w2;
    - from 8 to 128 weeks, eight running sums r0..r7, where rj adds weeks j,
      j + 8, j + 16, ..., then ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 +
      r7)), then the last n mod 8 weeks one at a time;
    - past 128 weeks, the first n // 2 weeks rounded down to a multiple of
      8 and the rest, each summed by these rules, then added.
    """
    matrices = np.asarray(matrices, dtype=float)
    if matrices.ndim != 3:
        raise ValueError(f"expected a (batch, rows, weeks) array, got shape {matrices.shape}")
    batch, rows, n_weeks = matrices.shape
    if n_weeks < 2:
        raise ValueError("need at least two week columns to fit a line")
    x = np.arange(n_weeks, dtype=float)
    xc = x - x.mean()
    var = float(xc @ xc)
    weeks = np.moveaxis(matrices, 2, 0).copy()
    out = np.empty((3, batch, rows))
    slope, intercept, residual = out
    terms = weeks * xc[:, None, None]
    np.divide(_pairwise_sum(terms), var, out=slope)
    np.divide(_pairwise_sum(weeks), n_weeks, out=intercept)
    intercept -= slope * x.mean()
    # fitted values slope * x + intercept, then squared residuals, in place
    np.multiply.outer(x, slope, out=terms)
    terms += intercept
    weeks -= terms
    weeks *= weeks
    np.divide(_pairwise_sum(weeks), n_weeks, out=residual)
    np.sqrt(residual, out=residual)
    return np.moveaxis(out, 0, 1).reshape(batch, 3 * rows)


def standardize_columns(x: np.ndarray) -> np.ndarray:
    """Z-score per column; constant columns map to zero.

    The column sums are taken once and the centred matrix serves both the
    deviation and the result. These are ``np.std``'s own steps (sum, divide,
    subtract, square, sum, divide, sqrt), so the values keep the bits of
    ``(x - x.mean(axis=0)) / x.std(axis=0)``.
    """
    x = np.asarray(x, dtype=float)
    centred = x - x.sum(axis=0) / len(x)
    sd = np.sqrt((centred * centred).sum(axis=0) / len(x))
    centred /= np.where(sd > 0, sd, 1.0)
    return centred


# -- invoice features ------------------------------------------------------

@dataclass(frozen=True)
class InvoiceEncoding:
    """Two aligned views of the same invoice batch.

    ``mixed`` holds label frequencies plus raw category codes / boolean flags
    (for Gower distances, which treat the attribute columns as categorical);
    ``onehot`` expands the same attributes into indicator columns (for
    averaging into proxies).
    """

    mixed: np.ndarray
    onehot: np.ndarray


def one_hot_width(store: EventStore) -> int:
    width = len(store.alphabet)
    for f in store.entity_schema:
        width += len(f.categories) if f.kind == CATEGORICAL else 1
    return width


def prefix_label_counts(store: EventStore, creation_times: np.ndarray) -> np.ndarray:
    """Per entity, counts of events strictly before its creation time.

    Entities with creation time inf count their whole history; the creation
    event itself is excluded by the strict inequality. Returns
    (entity_count, len(alphabet)).
    """
    n = store.entity_count
    n_labels = len(store.alphabet)
    mask = store.times < creation_times[store.entity_codes]
    key = store.entity_codes[mask] * n_labels + store.activity_codes[mask]
    return np.bincount(key, minlength=n * n_labels).reshape(n, n_labels).astype(float)


def invoice_encoding(store: EventStore, entity_codes: np.ndarray,
                     prefix_counts: np.ndarray | None = None) -> InvoiceEncoding:
    """Encode a batch of invoice entities; see :class:`InvoiceEncoding`.

    ``prefix_counts`` is a per-entity-code array over the whole store,
    derived here from each entity's VCI time when not supplied.
    """
    entity_codes = np.asarray(entity_codes, dtype=np.int64)
    if prefix_counts is None:
        prefix_counts = prefix_label_counts(store, label_times(store, VCI_LABEL))
    m = len(entity_codes)
    n_labels = len(store.alphabet)

    counts = prefix_counts[entity_codes]
    totals = counts.sum(axis=1, keepdims=True)
    freqs = counts / np.where(totals > 0, totals, 1.0)

    schema = store.entity_schema
    mixed = np.zeros((m, n_labels + len(schema)))
    mixed[:, :n_labels] = freqs

    onehot = np.zeros((m, one_hot_width(store)))
    onehot[:, :n_labels] = freqs
    offset = n_labels
    for j, f in enumerate(schema):
        col = store.entity_attribute(f.name)[entity_codes]
        mixed[:, n_labels + j] = col
        if f.kind == CATEGORICAL:
            onehot[np.arange(m), offset + col.astype(np.int64)] = 1.0
            offset += len(f.categories)
        else:
            onehot[:, offset] = col
            offset += 1
    return InvoiceEncoding(mixed=mixed, onehot=onehot)
