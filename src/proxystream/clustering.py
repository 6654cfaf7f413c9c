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
numeric columns and its categorical columns column-major, so an operand is
one gather of each, and a call forms every numeric term |a - b| / range in
one array and every categorical mismatch in one comparison, one plane per
column of the block's shape. The planes are then added one at a time,
numeric columns and then categorical ones, each in ascending column order,
to a sum that starts at 0.0, and divided by the column count: the additions
of a per-column loop, in its order, so every distance has that loop's bits.

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
medoid, which is what a recompute over the same members would return. Each
member pair is computed once, since d(i, j) == d(j, i). A round lays out its
clusters of at most 512 members (s * s <= ``_BATCH_LIMIT`` at the default
limit) once, by size and then cluster index, in groups of one size stacked
up to the limit per block, and the handler fills their s x s blocks in
batches of at most the limit: Euclidean blocks are one ``cross(m, m)`` per
group, whose shape fixes BLAS's bits; Gower blocks come from one elementwise
pass over the member pairs i < j of every cluster in the batch, each value
written to (i, j) and (j, i). Each group's sums are then ``d @ w`` over its
(g, s, s) block. A larger cluster's operand is gathered once and cut into
slices of ``_BATCH_LIMIT // s`` members, and the tiles on and above the
diagonal of its s x s matrix are summed.

Every kernel fixes its floating-point operations and their order, since a
last-bit change can decide a tie. Euclidean values are the Gram expansion
``(nx + nm) - 2 x.m`` for true distances and ``(-2 x.m + nx) + nm`` for
assignment, with ``x.m`` one BLAS product per block or tile; Gower values
are the column terms added in column order from 0.0, then divided. The
kernels reach those values with few passes, and each shortcut is exact:

- a factor 2 or -2 is folded into one operand of an off-diagonal product
  (and into the medoid operand of an assignment, built once per call):
  scaling by a power of two is exact, so BLAS's products and partial sums
  are the unscaled ones times the factor, barring overflow or subnormal
  products; a diagonal tile keeps ``a @ a.T``, BLAS's symmetric path, and
  doubles it after;
- ``nx + nm`` is the K = 2 product ``[nx, 1] @ [1, nm]``, whose two products
  are by 1.0, so each entry is the one rounded sum;
- Gower planes are added by one ``np.add.reduce`` over the plane axis, which
  numpy does one plane at a time unless a plane has one element, where it
  would sum pairwise, so a one-element block or a pair batch of one pair is
  added in a loop; ``cross`` and the pair pass share that plane arithmetic;
- a Gower pair pass gives the bits of ``cross(m, m)``: |a - b| == |b - a|,
  mismatches are symmetric and d(i, i) is +0.0, so each value is written to
  both of its entries of a zero-filled block;
- a stacked cluster's sums are its block's ``d @ w`` with no add to zeros,
  and a one-member cluster keeps its member with no distance at all.

Block and tile shapes stay fixed: BLAS may round the same entry differently
in products of other shapes, or at another row offset.

Determinism contract: identical inputs and seed give identical partitions.
Ties in assignment go to the lowest cluster index, ties in the medoid update
to the lowest member index. The two trivial partitions are known before any
distance, so neither computes one or draws from the RNG, for every distance
kind and both partitioners. At k == n, point i is cluster i and its own
medoid, so ``rho = 1`` is the per-entity path whichever kind and partitioner
a run uses. At k == 1 every point is in cluster 0, with no medoid and an
empty cost history.
"""
from __future__ import annotations

import logging
import math
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
# column: 14 columns at the limit are 3.7 M values, 28 MiB. A medoid-update
# batch at the limit holds under limit / 2 member pairs, whose planes and two
# gathered operands are three values per column and pair: 42 MiB at 14.
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
    from the same entries of the whole product, and a row's bits may depend
    on its offset inside the product, so block and tile shapes are part of
    the results.

    Every value is computed as ``fl(fl(nx + nm) - fl(2 x.m))`` (a true
    distance) or ``fl(fl(-2 x.m + nx) + nm)`` (an assignment value), where
    ``x.m`` is the BLAS product of the block. Two rewrites keep those bits
    with fewer passes:

    - The factor 2 or -2 is folded into one operand of an off-diagonal
      product: 2 a in ``cross``, -2 m in the medoid operand of
      :meth:`assigner`. Scaling by a power of two is exact, so every product
      and partial sum inside BLAS is the unscaled one times that factor,
      unless one overflows or turns subnormal: products of coordinates
      beyond about 1e154 or below about 1e-154, far from z-scored features.
      A diagonal tile ``cross(a, a)`` keeps ``a @ a.T``, BLAS's symmetric
      path, which gives d(i, j) == d(j, i) bit for bit, and doubles it
      afterwards.
    - ``nx + nm`` is the K = 2 product ``[nx, 1] @ [1, nm]``: both products
      are by 1.0 and exact, so each entry is the one rounded sum, whatever
      order BLAS adds the two terms in.
    """

    def __init__(self, points: np.ndarray) -> None:
        self.points = np.ascontiguousarray(points, dtype=float)
        self.norms = np.einsum("ij,ij->i", self.points, self.points)
        self._sums = np.empty(0)

    def take(self, idx) -> tuple[np.ndarray, np.ndarray]:
        """The operand of :meth:`cross` for the points at ``idx``."""
        return self.points[idx], self.norms[idx]

    @staticmethod
    def tile(operand, part: slice) -> tuple[np.ndarray, np.ndarray]:
        """Members ``part`` of every cluster of an operand from :meth:`take`."""
        rows, norms = operand
        return rows[..., part, :], norms[..., part]

    def assigner(self, medoids: np.ndarray):
        """Squared distances from the points at ``rows`` to the medoids, as a
        function of ``rows``. The medoid operand -2 m is gathered once per
        call, so each block is one product and three in-place passes."""
        scaled = self.points[medoids]
        scaled *= -2.0
        scaled = scaled.T
        norms = self.norms[medoids]

        def values(rows) -> np.ndarray:
            sq = self.points[rows] @ scaled
            sq += self.norms[rows][:, None]
            sq += norms
            np.maximum(sq, 0.0, out=sq)
            return sq
        return values

    @staticmethod
    def finalize(values: np.ndarray) -> np.ndarray:
        return np.sqrt(values)

    def cross(self, a, b) -> np.ndarray:
        """True distances between two operands from :meth:`take`, broadcast
        over leading axes.

        When ``b is a`` both matmul operands are one array, so BLAS takes its
        symmetric path and d(i, j) == d(j, i) bit for bit.
        """
        rows, row_norms = a
        cols, col_norms = b
        if b is a:
            d = rows @ np.swapaxes(rows, -1, -2)
            d *= 2.0
        else:
            d = (2.0 * rows) @ np.swapaxes(cols, -1, -2)
        # the norm sums go to a buffer kept across calls, so that a block
        # allocates one array: freeing two block-sized arrays at once lets
        # malloc return them to the system and fault them in again next block
        if self._sums.size < d.size:
            self._sums = np.empty(d.size)
        sums = self._sums[:d.size].reshape(d.shape)
        left = np.ones((*row_norms.shape, 2))
        left[..., 0] = row_norms
        right = np.ones((*col_norms.shape[:-1], 2, col_norms.shape[-1]))
        right[..., 1, :] = col_norms
        np.matmul(left, right, out=sums)
        np.subtract(sums, d, out=d)
        np.maximum(d, 0.0, out=d)
        return np.sqrt(d, out=d)

    def self_blocks(self, groups):
        """The s x s blocks of each group of equal-size clusters, members
        (g, s), as one ``cross(m, m)`` per group: the product's shape fixes
        its bits."""
        for members in groups:
            taken = self.take(members)
            yield self.cross(taken, taken)


class _GowerHandler:
    """Mean per-dimension dissimilarity over included dimensions.

    Numeric dimensions contribute |x - y| / range, with the range (max - min)
    taken over the handler's points, and are dropped when it is zero;
    categorical and boolean dimensions contribute a 0/1 mismatch. Values land
    in [0, 1].

    The columns are kept as planes: row i of ``num`` is the i-th kept numeric
    column over all points and row j of ``cat`` the j-th categorical one, so
    an operand is one gather of each, for every column.
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

    def take(self, idx) -> tuple[np.ndarray, np.ndarray]:
        """The operand of :meth:`cross` for the points at ``idx``."""
        return self.num[:, idx], self.cat[:, idx]

    @staticmethod
    def tile(operand, part: slice) -> tuple[np.ndarray, np.ndarray]:
        """Members ``part`` of every cluster of an operand from :meth:`take`."""
        return tuple(planes[..., part] for planes in operand)

    def _distances(self, num_a, num_b, cat_a, cat_b, shape: tuple) -> np.ndarray:
        """Gower values of the column operands, broadcast to ``shape``.

        Each kept column fills one plane of ``shape``: the numeric terms
        first, then the categorical mismatches as 0.0 or 1.0, each in
        ascending column order. The planes are added in that order to a sum
        that starts at 0.0, the order of Gower's per-column mean, and the sum
        is divided by the column count. ``np.add.reduce`` over the plane axis
        adds them one plane at a time when a plane holds two or more
        elements; a one-element plane stack is a contiguous run, which numpy
        would sum pairwise, so it is added in a loop.
        """
        n = len(num_a)
        planes = np.empty((n + len(cat_a), *shape))
        terms = planes[:n]
        np.subtract(num_a, num_b, out=terms)
        np.abs(terms, out=terms)
        terms /= self.ranges.reshape(-1, *(1,) * len(shape))
        np.not_equal(cat_a, cat_b, out=planes[n:])
        if math.prod(shape) == 1:
            out = np.zeros(shape)
            for plane in planes:
                out += plane
        else:
            out = np.add.reduce(planes, axis=0)
        out /= self.denom
        return out

    def cross(self, a, b) -> np.ndarray:
        """Distances between two operands from :meth:`take`, broadcast over
        leading axes: every row of ``a`` against every row of ``b``."""
        (num_a, cat_a), (num_b, cat_b) = a, b
        return self._distances(num_a[..., :, None], num_b[..., None, :],
                               cat_a[..., :, None], cat_b[..., None, :],
                               (*num_a.shape[1:], num_b.shape[-1]))

    def self_blocks(self, groups):
        """The s x s blocks of each group of equal-size clusters, members
        (g, s), as views of one buffer, from one elementwise pass over the
        member pairs i < j of every cluster.

        Each value is written to (i, j) and (j, i) of a zero-filled buffer:
        |a - b| == |b - a| and the mismatches are symmetric, so d(i, j) ==
        d(j, i), and d(i, i) is +0.0, bit for bit as in ``cross(m, m)``.
        """
        g = np.array([m.shape[0] for m in groups])
        s = np.array([m.shape[1] for m in groups])
        members = np.concatenate([m.ravel() for m in groups])
        per_group, area = g * s, g * s * s
        ends = np.cumsum(area)
        # per member: its cluster's size, its row in the cluster, and the
        # offset of the cluster's block in the buffer
        size = np.repeat(s, per_group)
        local = np.arange(len(members)) - np.repeat(np.cumsum(per_group) - per_group, per_group)
        row = local % size
        diagonal = np.repeat(ends - area, per_group) + (local - row) * size + row * (size + 1)
        # row i pairs with rows i + 1 .. s - 1 of its cluster
        after = size - 1 - row
        left = np.repeat(np.arange(len(members)), after)
        step = np.arange(len(left)) - np.repeat(np.cumsum(after) - after, after) + 1
        right = members[left + step]
        left_at = members[left]
        values = self._distances(self.num.take(left_at, axis=1), self.num.take(right, axis=1),
                                 self.cat.take(left_at, axis=1), self.cat.take(right, axis=1),
                                 (len(left),))
        out = np.zeros(int(ends[-1]))
        at = diagonal[left]
        out[at + step] = values
        out[at + step * size[left]] = values
        return [out[end - a:end].reshape(k, t, t)
                for end, a, k, t in zip(ends.tolist(), area.tolist(), g.tolist(), s.tolist())]

    def assigner(self, medoids: np.ndarray):
        """Distances from the points at ``rows`` to the medoids, as a function
        of ``rows``; the medoid columns are gathered once per call. Any
        subset equals the same entries of the whole matrix, bit for bit."""
        m = self.take(medoids)
        return lambda rows: self.cross(self.take(rows), m)

    @staticmethod
    def finalize(values: np.ndarray) -> np.ndarray:
        return values


def _medoid_update(handler, assignment: np.ndarray, k: int, weights: np.ndarray,
                   medoids: np.ndarray | None = None,
                   dirty: np.ndarray | None = None) -> np.ndarray:
    """Move each medoid to the member with the least weighted distance sum.

    Only the clusters flagged in the boolean mask ``dirty`` are recomputed;
    every other cluster keeps its entry of ``medoids``. Without a mask every
    cluster is recomputed. Ties go to the lowest member index.

    A one-member cluster keeps its member. The clusters whose s x s block
    fits ``_BATCH_LIMIT`` are laid out once, ordered by (size, cluster
    index), in groups of one size of at most ``_BATCH_LIMIT // (s * s)``
    clusters; the handler fills the groups' blocks in batches of at most
    ``_BATCH_LIMIT`` elements, and each group's sums are ``d @ w`` over its
    (g, s, s) block. Larger clusters are summed one at a time by
    :func:`_tiled_sums` in slices of ``_BATCH_LIMIT // s`` members (one at
    least). Block shapes depend on the cluster size alone, never on how many
    clusters share it, so a cluster's medoid is the same bits whichever
    clusters are recomputed with it.
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
    # a one-member cluster keeps its member, with no distance to sum
    ones = np.nonzero(todo == 1)[0]
    new[ones] = order[starts[ones]]
    for c in np.nonzero(todo * todo > _BATCH_LIMIT)[0]:
        members = order[starts[c]:starts[c] + todo[c]][None]
        sums = _tiled_sums(handler, members, weights[members][..., None],
                           max(1, _BATCH_LIMIT // todo[c]))
        new[c] = members[0, np.argmin(sums[0])]
    stacked = np.nonzero((todo > 1) & (todo * todo <= _BATCH_LIMIT))[0]
    if not len(stacked):
        return new
    stacked = stacked[np.argsort(todo[stacked], kind="stable")]
    # the stacked clusters' members, cluster after cluster, and the row of
    # each cluster's first member in that layout
    size = todo[stacked]
    first = np.cumsum(size) - size
    laid = order[np.arange(size.sum()) - np.repeat(first - starts[stacked], size)]
    # groups of one size as (position of the first cluster in ``stacked``,
    # clusters, size), in batches of at most _BATCH_LIMIT block elements
    batches, used = [[]], 0
    runs = (np.flatnonzero(np.diff(size)) + 1).tolist()
    for lo, hi in zip([0, *runs], [*runs, len(size)]):
        s = int(size[lo])
        per_block = _BATCH_LIMIT // (s * s)
        for c in range(lo, hi, per_block):
            g = min(per_block, hi - c)
            if used + g * s * s > _BATCH_LIMIT:
                batches.append([])
                used = 0
            batches[-1].append((c, g, s))
            used += g * s * s
    picks = np.empty(len(stacked), dtype=np.intp)
    for batch in batches:
        groups = [laid[first[c]:first[c] + g * s].reshape(g, s) for c, g, s in batch]
        for (c, g, _), members, d in zip(batch, groups, handler.self_blocks(groups)):
            sums = (d @ weights[members][..., None])[..., 0]
            sums.argmin(axis=1, out=picks[c:c + g])
    new[stacked] = laid[first + picks]
    return new


def _tiled_sums(handler, members: np.ndarray, w: np.ndarray, step: int) -> np.ndarray:
    """Weighted distance sums of a group of equal-size clusters, ``members``
    of shape (g, s), from the tiles on and above the diagonal of each
    cluster's s x s matrix, for ``step < s``.

    The group's operand is taken once and its tiles are slices of it, cut
    every ``step`` members. A diagonal tile is ``cross(m_i, m_i)``, one
    operand for BLAS's symmetric path; an off-diagonal tile
    ``cross(m_i, m_j)`` adds its row sums to slice i and its column sums to
    slice j, as d(i, j) == d(j, i). Each member pair is computed once.
    """
    s = members.shape[1]
    taken = handler.take(members)
    sums = np.zeros(members.shape)
    for i in range(0, s, step):
        rows = handler.tile(taken, slice(i, i + step))
        for j in range(i, s, step):
            cols = rows if j == i else handler.tile(taken, slice(j, j + step))
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

    Bin edges and Gower ranges come from the stacked rows of both sets, so
    every value must be finite: one NaN would void a column's range for
    every row.
    """
    spec = spec or euclidean_spec()
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    stacked = np.vstack([x, y])
    if not np.isfinite(stacked).all():
        raise ValueError("points must be finite")
    if spec.kind == BINNED:
        stacked = bin_centers(stacked, spec.n_bins)
    handler = _handler(stacked, spec)
    return handler.cross(handler.take(np.arange(len(x))),
                         handler.take(np.arange(len(x), len(stacked))))


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
    its own cluster, in index order, and at k == 1 every point is in
    cluster 0; neither draws anything."""
    check_int("k", k, 1)
    if k > n_points:
        raise ValueError(f"need 1 <= k <= n_points, got k={k}, n={n_points}")
    if k == n_points:
        return Partition(n_points=n_points, k=k, assignment=np.arange(k, dtype=np.int64))
    if k == 1:
        return Partition(n_points=n_points, k=1, assignment=np.zeros(n_points, dtype=np.int64))
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

    Every point must be finite. For the binned kind, bin edges come from
    ``points``, and points sharing a bin-center representative are collapsed
    into one weighted point first; distances and costs are then measured
    between representatives. If fewer distinct representatives than k exist,
    the uncollapsed representative-valued points are clustered instead.

    The trivial partitions compute no distance and draw nothing from the
    RNG, for every distance kind, so their ``points`` may have no columns.
    At k == n every point is its own cluster and medoid, numbered in index
    order (or in ``init_medoids`` order), with cost history ``[0.0]``. At
    k == 1 every point is in cluster 0, with ``medoids=None`` and an empty
    cost history.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError("points must be a 2d array")
    if not np.isfinite(points).all():
        raise ValueError("points must be finite")
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
    if k == 1:
        return Partition(n_points=n, k=1, assignment=np.zeros(n, dtype=np.int64),
                         cost_history=[])

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

    The medoid operand is built once per call. Rows are taken in blocks of at
    most ``_BATCH_LIMIT`` elements, one row at least; only the argmin column
    and its value are kept per row.
    """
    cols = np.empty(len(rows), dtype=np.int64)
    values = np.empty(len(rows))
    values_to = handler.assigner(medoids)
    step = max(1, _BATCH_LIMIT // len(medoids))
    for start in range(0, len(rows), step):
        block = slice(start, start + step)
        dist = values_to(rows[block])
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

    Each cluster's rows are summed in index order from 0.0, as ``np.add.at``
    does, and divided by the size. At k == n each cluster is one row, whose
    mean is that sum, the row plus 0.0 (which turns -0.0 into 0.0), so the
    row is written into place and nothing is summed or divided.
    """
    features = np.asarray(features, dtype=float)
    if features.shape[0] != partition.n_points:
        raise ValueError("features row count does not match the partition")
    if outcomes is not None:
        outcomes = np.asarray(outcomes, dtype=float)
        if outcomes.shape != (partition.n_points,):
            raise ValueError("outcomes must hold one value per row of the partition")
    sizes = partition.sizes()
    if (sizes == 0).any():
        raise ValueError("empty cluster: a proxy needs at least one member")

    proxy_outcomes = None if outcomes is None else _cluster_means(partition, outcomes, sizes)
    return _cluster_means(partition, features, sizes), proxy_outcomes, sizes


def _cluster_means(partition: Partition, values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Mean of the rows of ``values`` (1-d or 2-d) in each cluster."""
    assignment, k = partition.assignment, partition.k
    if k == partition.n_points:
        out = np.empty_like(values)
        out[assignment] = values + 0.0
        return out
    if values.ndim == 1:
        return np.bincount(assignment, weights=values, minlength=k) / sizes
    sums = np.empty((k, values.shape[1]))
    for j, column in enumerate(values.T):
        sums[:, j] = np.bincount(assignment, weights=column, minlength=k)
    return sums / sizes[:, None]


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
