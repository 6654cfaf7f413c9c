"""Partitioning entities into clusters and averaging them into proxies.

The partitioner is a medoid-based Lloyd alternation: assign every point to
its nearest medoid, then move each medoid to the member minimising the
cluster's summed distance, until the medoid set is stable. Three distance
kinds are supported: plain Euclidean, Euclidean over per-dimension bin
centers (with exact duplicates collapsed into weighted points), and Gower
dissimilarity for mixed numeric/categorical rows. A caller chooses only the
kind, the bin count and Gower's categorical columns; every batch statistic
(bin edges, numeric ranges) is taken from the rows being compared, which is
how Gower (Biometrics 27, 1971) defines the coefficient.

Gower distances come from column planes. The handler stores its kept
numeric columns and its categorical columns column-major, so a call gathers
each operand once, forms every numeric term |a - b| / range in one array and
every categorical mismatch in one comparison, one plane per column of the
block's shape. The planes are then added one at a time, numeric columns and
then categorical ones, each in ascending column order, to a sum that starts
at 0.0, and divided by the column count: the additions of a per-column
loop, in its order, so every distance has that loop's bits.

Assignment is incremental. The first round finds every point's nearest
medoid in row blocks of at most ``_BATCH_LIMIT`` elements and keeps only
that cluster and its distance per point, never the n x k matrix. A later
round computes distances only to the medoids that moved: a point whose own
medoid moved gets a full row; every other point switches to a moved cluster
only if that distance is strictly smaller than its kept one, or equal with a
lower cluster index. That explicit rule gives the same clusters as an argmin
over the whole row. A medoid point gets no distance row in any round: it
belongs to its own cluster at distance 0, so at ``rho=2``, where half the
points are medoids, round 1 computes half the rows.

The medoid update is incremental too. Only clusters that gained or lost a
point in the latest assignment are recomputed; every other cluster keeps its
medoid, which is what a recompute over the same members would return. One
kernel sums every cluster: its members are cut into slices of
``_BATCH_LIMIT // s`` members, s the cluster size, and the tiles on and
above the diagonal of its s x s matrix are summed, since d(i, j) == d(j, i):
each member pair is computed once. A cluster of at most 512 members at the
default limit is one diagonal tile, its own ``cross(m, m)``, and clusters of
that size are stacked up to the limit per block.

Determinism contract: identical inputs and seed give identical partitions.
Ties in assignment go to the lowest cluster index, ties in the medoid update
to the lowest member index, and the k == n and k == 1 paths never draw from
the RNG. At k == n, point i is cluster i for every distance kind, and
``random_partition`` gives the same identity, so ``rho = 1`` is the
per-entity path whichever kind and partitioner a run uses.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .models import check_int

logger = logging.getLogger(__name__)

EUCLIDEAN = "euclidean"
BINNED = "binned_euclidean"
GOWER = "gower"
_KINDS = (EUCLIDEAN, BINNED, GOWER)

# Cap on the elements of one distance block, in assignment and medoid update:
# 2^18 float64 values, 2 MiB, half of a 4 MiB L2 cache, so the elementwise
# passes after each product stay in cache. Swept on perfbench run_s (one BLAS
# thread, medians of 3): 2^18 was best on shop-rho2 and shop-rho1024; 2^15
# was 2% and 17% slower, 2^19 18% and 4%, and 2^21 3% and 23%, which gave
# back 38% of the shop-rho1024 gain over 30 M-element (240 MB) blocks.
# Gower's scratch space is (kept columns) x (block) elements, one plane per
# column: 14 columns at the limit are 3.7 M values, 28 MiB.
_BATCH_LIMIT = 1 << 18


@dataclass(frozen=True, eq=False)
class DistanceSpec:
    """What a caller chooses about a distance: its kind, the bin count of the
    binned kind and the categorical columns of Gower (none when unset).

    Bin edges and Gower's numeric ranges are not settable: :func:`k_medoids`
    takes them from the points it partitions and :func:`cross_distances` from
    the stacked rows of both sets.
    """

    kind: str = EUCLIDEAN
    n_bins: int = 20
    categorical_mask: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown distance kind {self.kind!r}")
        if self.kind == BINNED:
            check_int("n_bins", self.n_bins, 1)


def euclidean_spec() -> DistanceSpec:
    return DistanceSpec(EUCLIDEAN)


def binned_spec(n_bins: int = 20) -> DistanceSpec:
    return DistanceSpec(BINNED, n_bins=n_bins)


def gower_spec(categorical_mask: np.ndarray | Sequence[bool]) -> DistanceSpec:
    return DistanceSpec(GOWER, categorical_mask=np.asarray(categorical_mask, dtype=bool))


def bin_centers(points: np.ndarray, n_bins: int) -> np.ndarray:
    """Snap each value to the center of its equal-width bin over [lo, hi],
    the column's min and max over ``points``.

    Values at the upper edge fall into the last bin; zero-width dimensions
    collapse to their single value.
    """
    points = np.asarray(points, dtype=float)
    lo, hi = points.min(axis=0), points.max(axis=0)
    width = (hi - lo) / n_bins
    safe = np.where(width > 0, width, 1.0)
    idx = np.clip(np.floor((points - lo) / safe), 0, n_bins - 1)
    return np.where(width > 0, lo + (idx + 0.5) * safe, lo)


# -- distance handlers -----------------------------------------------------

class _EuclideanHandler:
    """Cross distances via the Gram expansion ||x||^2 + ||y||^2 - 2 x.y.

    Assignment uses squared distances (argmin-equivalent); true distances
    take a sqrt after clamping the expansion at zero. BLAS may round a
    product over a subset of rows or medoids differently in the last bit
    from the same entries of the whole product.
    """

    def __init__(self, points: np.ndarray) -> None:
        self.points = np.ascontiguousarray(points, dtype=float)
        self.norms = np.einsum("ij,ij->i", self.points, self.points)
        self._sums = np.empty(0)

    def assign_values(self, medoids: np.ndarray, rows) -> np.ndarray:
        """Squared distances from the points at ``rows`` to the medoids."""
        sq = self.points[rows] @ self.points[medoids].T
        sq *= -2.0
        sq += self.norms[rows][:, None]
        sq += self.norms[medoids][None, :]
        np.maximum(sq, 0.0, out=sq)
        return sq

    @staticmethod
    def finalize(values: np.ndarray) -> np.ndarray:
        return np.sqrt(values)

    def cross(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """True distances between index sets, broadcast over leading axes.

        When ``cols is rows`` both matmul operands are one array, so BLAS
        takes its symmetric path and d(i, j) == d(j, i) bit for bit.
        """
        a = self.points[rows]
        b = a if cols is rows else self.points[cols]
        d = a @ np.swapaxes(b, -1, -2)
        d *= 2.0
        # the norm sums go to a buffer kept across calls, so that a block
        # allocates one array: freeing two block-sized arrays at once lets
        # malloc return them to the system and fault them in again next block
        if self._sums.size < d.size:
            self._sums = np.empty(d.size)
        sums = self._sums[:d.size].reshape(d.shape)
        np.add(self.norms[rows][..., :, None], self.norms[cols][..., None, :], out=sums)
        np.subtract(sums, d, out=d)
        np.maximum(d, 0.0, out=d)
        return np.sqrt(d, out=d)


class _GowerHandler:
    """Mean per-dimension dissimilarity over included dimensions.

    Numeric dimensions contribute |x - y| / range, with the range (max - min)
    taken over the handler's points, and are dropped when it is zero;
    categorical and boolean dimensions contribute a 0/1 mismatch. Values land
    in [0, 1].

    The columns are kept as planes: row i of ``num`` is the i-th kept numeric
    column over all points and row j of ``cat`` the j-th categorical one, so
    a call gathers each operand once, for every column.
    """

    def __init__(self, points: np.ndarray, mask: np.ndarray) -> None:
        points = np.asarray(points, dtype=float)
        num = np.nonzero(~mask)[0]
        ranges = points[:, num].max(axis=0) - points[:, num].min(axis=0)
        keep = ranges > 0
        self.num = np.ascontiguousarray(points[:, num[keep]].T)
        self.ranges = ranges[keep]
        self.cat = np.ascontiguousarray(points[:, mask].T)
        self.denom = max(len(self.num) + len(self.cat), 1)

    def cross(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Distances between index sets, broadcast over leading axes.

        Each kept column fills one plane of the output's shape: the numeric
        terms first, then the categorical mismatches as 0.0 or 1.0, each in
        ascending column order. The planes are added one at a time to a sum
        that starts at 0.0, the order of Gower's per-column mean. Adding them
        with ``np.add.reduce`` over the plane axis would not keep it: numpy
        sums a one-element block pairwise.
        """
        a = self.num[:, rows]
        b = a if cols is rows else self.num[:, cols]
        n = len(self.num)
        planes = np.empty((n + len(self.cat), *a.shape[1:], b.shape[-1]))
        terms = planes[:n]
        np.subtract(a[..., :, None], b[..., None, :], out=terms)
        np.abs(terms, out=terms)
        terms /= self.ranges.reshape(-1, *(1,) * (terms.ndim - 1))
        a = self.cat[:, rows]
        b = a if cols is rows else self.cat[:, cols]
        np.not_equal(a[..., :, None], b[..., None, :], out=planes[n:])
        out = np.zeros(planes.shape[1:])
        for plane in planes:
            out += plane
        out /= self.denom
        return out

    def assign_values(self, medoids: np.ndarray, rows) -> np.ndarray:
        """Distances from the points at ``rows`` to the medoids; any subset
        equals the same entries of the whole matrix, bit for bit."""
        return self.cross(rows, medoids)

    @staticmethod
    def finalize(values: np.ndarray) -> np.ndarray:
        return values


def _medoid_update(handler, assignment: np.ndarray, k: int, weights: np.ndarray,
                   medoids: np.ndarray | None = None,
                   dirty: np.ndarray | None = None) -> np.ndarray:
    """Move each medoid to the member with the least weighted distance sum.

    Only the clusters flagged in the boolean mask ``dirty`` are recomputed;
    every other cluster keeps its entry of ``medoids``. Without a mask every
    cluster is recomputed.

    Block shapes depend on the cluster size s alone, never on how many
    clusters share it, so a cluster's medoid is the same bits whichever
    clusters are recomputed with it. Clusters of one size are summed by
    :func:`_tiled_sums` in groups of ``_BATCH_LIMIT // (s * s)`` (one at
    least), in slices of ``_BATCH_LIMIT // s`` members (one at least). Ties
    go to the lowest member index.
    """
    sizes = np.bincount(assignment, minlength=k)
    if (sizes == 0).any():
        raise ValueError("empty cluster in medoid update")
    if dirty is None:
        dirty, medoids = np.ones(k, dtype=bool), np.empty(k, dtype=np.int64)
    new = medoids.copy()
    listed = np.nonzero(dirty[assignment])[0]
    order = listed[np.argsort(assignment[listed], kind="stable")]
    todo = np.where(dirty, sizes, 0)
    starts = np.cumsum(todo) - todo
    for s in np.unique(todo[todo > 0]):
        clusters = np.nonzero(todo == s)[0]
        per_block = max(1, _BATCH_LIMIT // (s * s))
        step = max(1, _BATCH_LIMIT // s)
        for first in range(0, len(clusters), per_block):
            group = clusters[first:first + per_block]
            members = order[starts[group][:, None] + np.arange(s)]
            sums = _tiled_sums(handler, members, weights[members][..., None], step)
            new[group] = members[np.arange(len(group)), np.argmin(sums, axis=1)]
    return new


def _tiled_sums(handler, members: np.ndarray, w: np.ndarray, step: int) -> np.ndarray:
    """Weighted distance sums of a group of equal-size clusters, ``members``
    of shape (g, s), from the tiles on and above the diagonal of each
    cluster's s x s matrix.

    The members are cut into slices of ``step``. A diagonal tile is
    ``cross(m_i, m_i)``, one operand for BLAS's symmetric path; an
    off-diagonal tile ``cross(m_i, m_j)`` adds its row sums to slice i and
    its column sums to slice j, as d(i, j) == d(j, i). Each member pair is
    computed once. When ``step >= s`` the one tile is ``cross(m, m) @ w``,
    and adding it to zeros keeps its bits, as distance sums are never
    negative.
    """
    s = members.shape[1]
    sums = np.zeros(members.shape)
    for i in range(0, s, step):
        rows = members[:, i:i + step]
        for j in range(i, s, step):
            cols = rows if j == i else members[:, j:j + step]
            d = handler.cross(rows, cols)
            sums[:, i:i + step] += (d @ w[:, j:j + step])[..., 0]
            if j > i:
                sums[:, j:j + step] += (np.swapaxes(d, -1, -2) @ w[:, i:i + step])[..., 0]
    return sums


def _handler(points: np.ndarray, spec: DistanceSpec):
    if spec.kind == GOWER:
        width = points.shape[1]
        mask = (np.zeros(width, dtype=bool) if spec.categorical_mask is None
                else np.asarray(spec.categorical_mask, dtype=bool))
        if mask.shape != (width,):
            raise ValueError(f"categorical mask has shape {mask.shape}, need ({width},)")
        return _GowerHandler(points, mask)
    return _EuclideanHandler(points)


def cross_distances(x: np.ndarray, y: np.ndarray, spec: DistanceSpec | None = None) -> np.ndarray:
    """True distance matrix between two row sets under ``spec``.

    Bin edges and Gower ranges come from the stacked rows of both sets.
    """
    spec = spec or euclidean_spec()
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    stacked = np.vstack([x, y])
    if spec.kind == BINNED:
        stacked = bin_centers(stacked, spec.n_bins)
    handler = _handler(stacked, spec)
    rows = np.arange(len(x))
    cols = np.arange(len(x), len(stacked))
    return handler.cross(rows, cols)


# -- partitions ------------------------------------------------------------

@dataclass
class Partition:
    """Cluster assignment over n points, with medoid indices when available."""

    n_points: int
    k: int
    assignment: np.ndarray
    medoids: np.ndarray | None = None
    cost_history: list[float] | None = None

    def validate(self) -> None:
        """Raise ValueError unless this is a well-formed partition."""
        if self.assignment.shape != (self.n_points,):
            raise ValueError("assignment shape mismatch")
        if self.n_points:
            if self.assignment.min() < 0 or self.assignment.max() >= self.k:
                raise ValueError("cluster index out of range")
            sizes = np.bincount(self.assignment, minlength=self.k)
            if (sizes == 0).any():
                raise ValueError("empty cluster")
        if self.medoids is not None:
            if len(self.medoids) != self.k or len(np.unique(self.medoids)) != self.k:
                raise ValueError("medoids must be k distinct indices")
            if (self.medoids < 0).any() or (self.medoids >= self.n_points).any():
                raise ValueError("medoid index out of range")
            if not np.array_equal(self.assignment[self.medoids], np.arange(self.k)):
                raise ValueError("medoid not a member of its own cluster")

    def sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.k)


def cluster_count(n_entities: int, rho: int) -> int:
    """Number of clusters for a batch: ceil(n / rho)."""
    if rho < 1:
        raise ValueError("rho must be >= 1")
    if n_entities < 1:
        raise ValueError("n_entities must be >= 1")
    return -(-int(n_entities) // int(rho))


def random_partition(n_points: int, k: int,
                     seed: int | np.random.SeedSequence | np.random.Generator = 0) -> Partition:
    """Uniform assignment with one anchor point per cluster, so no cluster
    is empty by construction. No medoids. At k == n_points every point is
    its own cluster, in index order, and nothing is drawn."""
    check_int("k", k, 1)
    if k > n_points:
        raise ValueError(f"need 1 <= k <= n_points, got k={k}, n={n_points}")
    if k == n_points:
        return Partition(n_points=n_points, k=k, assignment=np.arange(k, dtype=np.int64))
    rng = np.random.default_rng(seed)
    assignment = rng.integers(0, k, n_points)
    anchors = rng.choice(n_points, size=k, replace=False)
    assignment[anchors] = np.arange(k)
    return Partition(n_points=n_points, k=k, assignment=assignment.astype(np.int64))


def _singleton_partition(n: int, init: np.ndarray | None) -> Partition:
    if init is None:
        order = np.arange(n, dtype=np.int64)
    else:
        order = np.asarray(init, dtype=np.int64)
    assignment = np.empty(n, dtype=np.int64)
    assignment[order] = np.arange(n)
    return Partition(n_points=n, k=n, assignment=assignment,
                     medoids=order.copy(), cost_history=[0.0])


def k_medoids(points: np.ndarray, k: int, spec: DistanceSpec | None = None, *,
              seed: int | np.random.SeedSequence | np.random.Generator = 0,
              max_iter: int = 100,
              init_medoids: Sequence[int] | np.ndarray | None = None,
              weights: np.ndarray | None = None) -> Partition:
    """Partition ``points`` into k clusters around medoids.

    Initial medoids are k distinct uniform draws unless ``init_medoids``
    pins them. The alternation stops when the medoid set is stable or after
    ``max_iter`` rounds; the recorded cost history (weighted sum of true
    member-to-medoid distances) is non-increasing.

    For the binned kind, bin edges come from ``points``, and points sharing a
    bin-center representative are collapsed into one weighted point first;
    distances and costs are then measured between representatives. If fewer
    distinct representatives than k exist, the uncollapsed
    representative-valued points are clustered instead. At k == n every
    point is its own cluster, numbered in index order (or in
    ``init_medoids`` order), for every distance kind. The k == n and k == 1
    paths are deterministic and draw nothing from the RNG.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError("points must be a 2d array")
    n = len(points)
    check_int("k", k, 1)
    if k > n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    check_int("max_iter", max_iter, 1)
    if weights is None:
        weights = np.ones(n)
    else:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (n,) or not (np.isfinite(weights) & (weights >= 0)).all():
            raise ValueError("weights must be n finite non-negative values")
    if init_medoids is not None:
        init_medoids = np.asarray(init_medoids, dtype=np.int64)
        if (init_medoids.shape != (k,) or len(np.unique(init_medoids)) != k
                or init_medoids.min() < 0 or init_medoids.max() >= n):
            raise ValueError("init_medoids must be k distinct indices into points")

    spec = spec or euclidean_spec()
    if k == n:
        return _singleton_partition(n, init_medoids)

    # binned kind: collapse duplicate representatives into weighted points,
    # each standing for its first member
    work, work_weights, work_init, firsts = points, weights, init_medoids, None
    if spec.kind == BINNED:
        work = bin_centers(points, spec.n_bins)
        uniq, first, inverse = np.unique(work, axis=0, return_index=True, return_inverse=True)
        if len(uniq) >= k:
            work, firsts = uniq, first
            work_weights = np.bincount(inverse, weights=weights)
            if init_medoids is not None:
                work_init = inverse[init_medoids]
                if len(np.unique(work_init)) != k:
                    raise ValueError("init_medoids collapse to duplicate representatives")

    part = _k_medoids_work(work, k, spec, seed, max_iter, work_init, work_weights)
    if firsts is None:
        return part
    return Partition(n_points=n, k=k, assignment=part.assignment[inverse],
                     medoids=firsts[part.medoids], cost_history=part.cost_history)


def _k_medoids_work(points: np.ndarray, k: int, spec: DistanceSpec, seed,
                    max_iter: int, init: np.ndarray | None,
                    weights: np.ndarray) -> Partition:
    n = len(points)
    if k == n:
        return _singleton_partition(n, init)
    handler = _handler(points, spec)
    # round 1 is an incremental round in which every cluster has moved, so
    # every point but a medoid gets a full row
    assignment, best, moved = np.zeros(n, dtype=np.int64), np.zeros(n), np.arange(k)

    if k == 1:
        medoids = _medoid_update(handler, assignment, 1, weights)
        cost = _reassign(handler, medoids, weights, assignment, best, moved)
        return Partition(n, 1, assignment, medoids, [cost])

    if init is None:
        rng = np.random.default_rng(seed)
        medoids = rng.choice(n, size=k, replace=False).astype(np.int64)
    else:
        medoids = init.copy()

    history: list[float] = []
    # a cluster whose members did not change since its medoid was computed
    # would get the same medoid again; no medoid is computed before round 1
    dirty = np.ones(k, dtype=bool)
    for _ in range(max_iter):
        before = assignment.copy()
        history.append(_reassign(handler, medoids, weights, assignment, best, moved))
        changed = before != assignment
        dirty[before[changed]] = True
        dirty[assignment[changed]] = True
        new = _medoid_update(handler, assignment, k, weights, medoids, dirty)
        dirty[:] = False
        moved = np.nonzero(new != medoids)[0]
        if not len(moved):
            break
        medoids = new
    else:
        logger.warning("k-medoids reached max_iter=%d without a stable medoid set "
                       "(n=%d, k=%d)", max_iter, n, k)
        history.append(_reassign(handler, medoids, weights, assignment, best, moved))
    return Partition(n, k, assignment, medoids, history)


def _nearest(handler, medoids: np.ndarray, rows: np.ndarray):
    """Each row's nearest medoid column (lowest index among ties) and its value.

    Rows are taken in blocks of at most ``_BATCH_LIMIT`` elements, one row at
    least; only the argmin column and its value are kept per row.
    """
    cols = np.empty(len(rows), dtype=np.int64)
    values = np.empty(len(rows))
    step = max(1, _BATCH_LIMIT // len(medoids))
    for start in range(0, len(rows), step):
        block = slice(start, start + step)
        dist = handler.assign_values(medoids, rows[block])
        cols[block] = np.argmin(dist, axis=1)
        values[block] = dist[np.arange(len(dist)), cols[block]]
    return cols, values


def _reassign(handler, medoids: np.ndarray, weights: np.ndarray,
              assignment: np.ndarray, best: np.ndarray, moved: np.ndarray) -> float:
    """Assign every point to its nearest medoid and return the cost.

    Only the clusters in ``moved`` (ascending) have a new medoid since the
    previous round: a point whose cluster is among them gets a full row, and
    every other point keeps its cluster and value ``best`` unless a moved
    column is strictly smaller, or equal with a lower cluster index, which is
    argmin's lowest-index rule over the whole row. A medoid point gets no
    distance row: its cluster is its own and its value 0. No row is lost, as
    a medoid that stays one is set back every round, and one whose cluster's
    medoid moved is in a moved cluster at the next call, so it gets a full
    row then. ``assignment`` and ``best`` are updated in place.
    """
    k = len(medoids)
    stale = np.zeros(k, dtype=bool)
    stale[moved] = True
    stale = stale[assignment]
    # a medoid gets no row: it belongs to its own cluster at distance 0, even
    # among exact duplicates
    other = np.ones(len(assignment), dtype=bool)
    other[medoids] = False
    kept = np.nonzero(other & ~stale)[0]
    cols, values = _nearest(handler, medoids[moved], kept)
    cols = moved[cols]
    take = (values < best[kept]) | ((values == best[kept]) & (cols < assignment[kept]))
    assignment[kept[take]] = cols[take]
    best[kept[take]] = values[take]
    rows = np.nonzero(other & stale)[0]
    assignment[rows], best[rows] = _nearest(handler, medoids, rows)
    assignment[medoids] = np.arange(k)
    best[medoids] = 0.0
    return float(handler.finalize(best) @ weights)


# -- proxies ---------------------------------------------------------------

def proxy_matrices(partition: Partition, features: np.ndarray,
                   outcomes: np.ndarray | None = None):
    """Average features (and outcomes) per cluster.

    Returns (proxy_features, proxy_outcomes, sizes), where row j is cluster j
    and ``sizes[j]`` its member count; proxy_outcomes is None when no
    outcomes are given. An empty cluster has no mean and raises ValueError.
    """
    features = np.asarray(features, dtype=float)
    if features.shape[0] != partition.n_points:
        raise ValueError("features row count does not match the partition")
    sizes = partition.sizes()
    if (sizes == 0).any():
        raise ValueError("empty cluster: a proxy needs at least one member")

    # bincount sums each cluster's rows in index order from 0.0, as np.add.at does
    sums = np.empty((partition.k, features.shape[1]))
    for j, column in enumerate(features.T):
        sums[:, j] = np.bincount(partition.assignment, weights=column, minlength=partition.k)
    proxy_features = sums / sizes[:, None]

    proxy_outcomes = None
    if outcomes is not None:
        outcomes = np.asarray(outcomes, dtype=float)
        proxy_outcomes = np.bincount(partition.assignment, weights=outcomes,
                                     minlength=partition.k) / sizes
    return proxy_features, proxy_outcomes, sizes


def mean_medoid_gap(n: int, d: int, samples: int = 1000, seed: int = 0) -> float:
    """Monte Carlo mean distance between sample mean and medoid.

    Each sample draws n uniform points in the unit d-cube, finds the medoid
    with k-medoids' own Euclidean medoid update (minimum summed distance;
    of members whose sums tie in floating point, the lowest index) and
    measures its distance to the sample mean. Draws come in chunks of
    ``_BATCH_LIMIT // (n * d)`` samples, one at least, each sample one
    cluster of the chunk.
    """
    check_int("n", n, 1)
    check_int("d", d, 1)
    check_int("samples", samples, 1)
    rng = np.random.default_rng(seed)
    chunk = max(1, _BATCH_LIMIT // (n * d))
    gaps = np.empty(samples)
    for start in range(0, samples, chunk):
        x = rng.random((min(chunk, samples - start), n, d))
        b, flat = len(x), x.reshape(-1, d)
        med = _medoid_update(_EuclideanHandler(flat), np.repeat(np.arange(b), n), b,
                             np.ones(b * n))
        gaps[start:start + b] = np.linalg.norm(x.mean(axis=1) - flat[med], axis=1)
    return float(gaps.sum()) / samples
