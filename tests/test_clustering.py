"""Cluster sizing, distances, k-medoids, random partitions, proxies, gaps."""
from __future__ import annotations

import logging
from itertools import combinations

import numpy as np
import pytest
from conftest import euclidean_assign_direct, euclidean_cross_direct
from hypothesis import example, given, settings
from hypothesis import strategies as st

from proxystream import clustering
from proxystream.clustering import (
    BINNED,
    GOWER,
    DistanceSpec,
    Partition,
    bin_centers,
    binned_spec,
    cluster_count,
    cross_distances,
    euclidean_spec,
    gower_spec,
    k_medoids,
    mean_medoid_gap,
    proxy_matrices,
    random_partition,
)


# -- cluster sizing --------------------------------------------------------

def test_cluster_count_rounds_up():
    assert cluster_count(100, 8) == 13
    assert cluster_count(96, 8) == 12
    assert cluster_count(97, 8) == 13


def test_cluster_count_extremes():
    for n in (1, 7, 1000):
        assert cluster_count(n, 1) == n
        assert cluster_count(n, n) == 1
    assert cluster_count(7, 100) == 1


def test_cluster_count_rejects_bad_arguments():
    with pytest.raises(ValueError):
        cluster_count(0, 5)
    with pytest.raises(ValueError):
        cluster_count(5, 0)
    with pytest.raises(ValueError):
        cluster_count(-3, 2)


# -- distances -------------------------------------------------------------

def test_euclidean_three_four_five():
    assert cross_distances(np.array([0.0, 0.0]), np.array([3.0, 4.0]))[0, 0] == 5.0


def test_gower_mixed_fixture():
    # the row [12, 1] fixes the numeric range of the compared rows at 10
    d = cross_distances(np.array([[2.0, 1.0]]),
                        np.array([[7.0, 1.0], [7.0, 2.0], [12.0, 1.0]]),
                        gower_spec([False, True]))[0]
    # numeric dimension: |2-7|/range 10 = 0.5; categorical match: 0 -> mean 0.25
    assert d[0] == pytest.approx(0.25)
    # categorical mismatch adds a full unit on that dimension
    assert d[1] == pytest.approx(0.75)
    assert d[2] == pytest.approx(0.5)


def test_gower_drops_zero_range_dimensions():
    # the second column is constant over the rows, so its range is zero and
    # it leaves the mean: 0.5 over one dimension, not 0.25 over two
    d = cross_distances(np.array([[2.0, 5.0]]), np.array([[7.0, 5.0], [12.0, 5.0]]),
                        gower_spec([False, False]))[0]
    assert d[0] == pytest.approx(0.5)
    assert d[1] == pytest.approx(1.0)


def test_gower_stays_in_unit_interval():
    rng = np.random.default_rng(4)
    pts = np.column_stack([rng.normal(size=30), rng.integers(0, 3, 30).astype(float)])
    spec = gower_spec([False, True])
    d = cross_distances(pts, pts, spec)
    assert (d >= 0).all() and (d <= 1.0 + 1e-12).all()
    assert np.allclose(np.diag(d), 0.0)


def test_binned_same_bin_is_zero():
    # the rows [0, 0] and [20, 20] span the edges, so 20 bins are 1 wide
    d = cross_distances(np.array([[0.2, 5.3]]),
                        np.array([[0.7, 5.9], [0.7, 6.9], [0.0, 0.0], [20.0, 20.0]]),
                        binned_spec(n_bins=20))[0]
    assert d[0] == 0.0
    assert d[1] > 0.0


def test_bin_centers_edges_and_flat_dims():
    # the rows span [0, 1] in the first column; the second is flat at 3
    centers = bin_centers(np.array([[0.0, 3.0], [1.0, 3.0], [0.49, 3.0]]), 10)
    assert np.allclose(centers[0], [0.05, 3.0])
    assert np.allclose(centers[1], [0.95, 3.0])  # top edge joins the last bin
    assert np.allclose(centers[2], [0.45, 3.0])


def test_binned_error_shrinks_as_bins_double():
    rng = np.random.default_rng(12)
    x = rng.random((500, 3))
    y = rng.random((500, 3))
    true = np.linalg.norm(x - y, axis=1)
    errs = []
    for n_bins in (5, 10, 20, 40, 80):
        # x and y binned on one set of edges, as cross_distances does
        centers = bin_centers(np.vstack([x, y]), n_bins)
        approx = np.linalg.norm(centers[:500] - centers[500:], axis=1)
        errs.append(np.abs(approx - true).mean())
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_distance_validates_inputs():
    with pytest.raises(ValueError):
        cross_distances(np.array([1.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        DistanceSpec("cosine")
    for n_bins in (0, 2.5):
        with pytest.raises(ValueError):
            DistanceSpec(BINNED, n_bins=n_bins)
    with pytest.raises(ValueError):
        cross_distances(np.zeros((1, 2)), np.zeros((1, 2)), gower_spec([False]))


def _cross(handler, rows, cols):
    """A handler's ``cross`` between index sets, on one operand when ``cols
    is rows``."""
    a = handler.take(rows)
    return handler.cross(a, a if cols is rows else handler.take(cols))


def _gower_column_loop(points, mask, rows, cols):
    """Gower distances one column at a time, numeric columns then categorical
    ones, each added to a sum that starts at 0.0: the oracle for the bits of
    ``_GowerHandler.cross``."""
    num = np.nonzero(~mask)[0]
    ranges = points[:, num].max(axis=0) - points[:, num].min(axis=0)
    keep = ranges > 0
    cat_cols = np.nonzero(mask)[0]
    a, b = points[rows], points[cols]
    out = np.zeros((*a.shape[:-1], b.shape[-2]))
    for col, rng in zip(num[keep], ranges[keep]):
        out += np.abs(a[..., col, None] - b[..., None, :, col]) / rng
    for col in cat_cols:
        out += a[..., col, None] != b[..., None, :, col]
    out /= max(len(cat_cols) + int(keep.sum()), 1)
    return out


@st.composite
def _gower_matrices(draw):
    """Mixed rows whose numeric cells carry full 53-bit fractions, so a sum
    in another order rounds differently; some columns are constant (zero
    range) and some cells NaN or infinite."""
    n = draw(st.integers(1, 7))
    d = draw(st.integers(1, 14))
    kinds = draw(st.sampled_from(["mixed", "numeric", "categorical"]))
    if kinds == "mixed":
        mask = np.array(draw(st.lists(st.booleans(), min_size=d, max_size=d)))
    else:
        mask = np.full(d, kinds == "categorical")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = np.where(mask, rng.integers(0, 3, (n, d)), rng.normal(size=(n, d)) * 10.0)
    constant = np.array(draw(st.lists(st.booleans(), min_size=d, max_size=d)))
    pts[:, constant] = pts[0, constant]
    special = draw(st.sampled_from([None, np.nan, np.inf, -np.inf]))
    if special is not None:
        pts[rng.random((n, d)) < 0.2] = special
    return pts, mask


def _gower_example(n, n_num, n_cat, seed, constant=False):
    rng = np.random.default_rng(seed)
    num = np.ones((n, n_num)) if constant else rng.normal(size=(n, n_num)) * 10.0
    pts = np.column_stack([num, rng.integers(0, 3, (n, n_cat))])
    return pts, np.array([False] * n_num + [True] * n_cat)


@settings(max_examples=150, deadline=None)
@example(case=_gower_example(7, 10, 3, seed=1))       # 1x1 blocks of 13 columns
@example(case=_gower_example(5, 4, 0, seed=2))        # all numeric
@example(case=_gower_example(5, 0, 4, seed=3))        # all categorical
@example(case=_gower_example(4, 3, 0, seed=4, constant=True))  # no kept column
@example(case=(np.array([[1.0, np.nan, 0.0], [np.inf, 2.0, np.nan], [3.0, 2.0, 1.0]]),
               np.array([False, False, True])))      # NaN and infinite cells
@given(case=_gower_matrices())
def test_gower_cross_matches_the_column_loop(case):
    # by bytes and shape: 1-D and stacked (g, s) blocks, with ``cols is
    # rows`` and without, down to every single pair as its own 1x1 block
    pts, mask = case
    n = len(pts)
    idx = np.arange(n)
    blocks = [(idx, idx), (idx, idx[::-1].copy()), (slice(None), idx[::-1].copy())]
    blocks += [(idx[i:i + 1], idx[j:j + 1]) for i in range(n) for j in range(n)]
    blocks += [(idx[i:i + 1, None], idx[j:j + 1, None]) for i in range(n) for j in range(n)]
    for s in range(1, n + 1):
        members = idx[:n - n % s].reshape(-1, s)
        blocks += [(members, members), (members, members[:, ::-1].copy()),
                   (members, members[:, :1].copy())]
    with np.errstate(invalid="ignore"):  # inf - inf in a numeric column
        handler = clustering._handler(pts, gower_spec(mask))
        results = [(_cross(handler, rows, cols), _gower_column_loop(pts, mask, rows, cols))
                   for rows, cols in blocks]
    for (rows, cols), (got, want) in zip(blocks, results):
        assert got.shape == want.shape, (rows, cols)
        assert got.tobytes() == want.tobytes(), (rows, cols)


# -- k-medoids -------------------------------------------------------------

def _brute_cost(points: np.ndarray, medoid_set: tuple[int, ...]) -> float:
    d = np.linalg.norm(points[:, None, :] - points[list(medoid_set)][None, :, :], axis=2)
    return float(d.min(axis=1).sum())


def _brute_best(points: np.ndarray, k: int) -> float:
    return min(_brute_cost(points, m) for m in combinations(range(len(points)), k))


def test_two_blob_fixture_recovers_groups():
    pts = np.array([
        [0.0, 0.0], [0.1, 0.0], [0.0, 0.1],
        [10.0, 10.0], [10.1, 10.0], [10.0, 10.1],
    ])
    part = k_medoids(pts, 2, seed=0)
    part.validate()
    a = part.assignment
    assert len(set(a[:3])) == 1 and len(set(a[3:])) == 1 and a[0] != a[3]
    assert part.cost_history[-1] == pytest.approx(_brute_best(pts, 2), abs=1e-12)


def test_exhaustive_oracle_on_small_instances():
    rng = np.random.default_rng(77)
    for trial in range(12):
        n = int(rng.integers(4, 9))
        k = int(rng.integers(2, 4))
        pts = rng.normal(size=(n, 2))
        best = min(
            k_medoids(pts, k, init_medoids=np.array(init)).cost_history[-1]
            for init in combinations(range(n), k)
        )
        assert best == pytest.approx(_brute_best(pts, k), abs=1e-9)


def test_k_equals_n_gives_singletons_without_rng():
    pts = np.random.default_rng(1).normal(size=(5, 3))
    gen = np.random.default_rng(42)
    before = gen.bit_generator.state
    part = k_medoids(pts, 5, seed=gen)
    assert gen.bit_generator.state == before
    part.validate()
    assert np.array_equal(part.assignment, np.arange(5))
    assert np.array_equal(part.medoids, np.arange(5))
    assert part.cost_history == [0.0]


@pytest.mark.parametrize("spec", [binned_spec(4), gower_spec([False, False, True])],
                         ids=["binned", "gower"])
def test_k_equals_n_is_the_identity_for_every_kind(spec):
    # binned representatives sort in another order than the points, which
    # must not renumber the singleton clusters
    pts = np.array([[3.0, 1.0, 0.0], [0.0, 2.0, 1.0], [2.0, 0.0, 1.0], [1.0, 3.0, 0.0]])
    part = k_medoids(pts, 4, spec, seed=5)
    assert np.array_equal(part.assignment, np.arange(4))
    assert np.array_equal(part.medoids, np.arange(4))
    init = np.array([2, 0, 3, 1])
    part = k_medoids(pts, 4, spec, init_medoids=init)
    assert np.array_equal(part.medoids, init)
    assert np.array_equal(part.assignment[init], np.arange(4))


def _one_cluster(pts, spec=None, weights=None) -> Partition:
    """Every point in cluster 0, with the medoid and cost that k-medoids' own
    medoid update and assignment give that cluster. ``k_medoids`` returns
    k == 1 with neither, so a test of the one-cluster medoid calls the
    kernels here. Binned points are snapped to their bin centres, with no
    duplicate collapse."""
    spec = spec or euclidean_spec()
    n = len(pts)
    work = bin_centers(pts, spec.n_bins) if spec.kind == BINNED else pts
    handler = clustering._handler(work, spec)
    weights = np.ones(n) if weights is None else weights
    assignment = np.zeros(n, dtype=np.int64)
    medoids = clustering._medoid_update(handler, assignment, 1, weights)
    cost = clustering._reassign(handler, medoids, weights, assignment, np.zeros(n),
                                np.arange(1))
    return Partition(n, 1, assignment, medoids, [cost])


@pytest.mark.parametrize("spec", [euclidean_spec(), binned_spec(4),
                                  gower_spec([False, False, True]), None],
                         ids=["kmedoids-euclidean", "kmedoids-binned", "kmedoids-gower",
                              "random"])
def test_k_equals_one_is_all_zeros_without_distance_or_rng(spec, monkeypatch):
    def no_distance(*args):
        raise AssertionError("k == 1 built a distance handler")
    monkeypatch.setattr(clustering, "_handler", no_distance)
    rng = np.random.default_rng(9)
    pts = np.column_stack([rng.normal(size=(20, 2)), rng.integers(0, 3, 20)])
    for points in (pts, np.empty((20, 0))):  # no columns, as the pipeline passes
        gen = np.random.default_rng(42)
        before = gen.bit_generator.state
        part = (random_partition(20, 1, seed=gen) if spec is None
                else k_medoids(points, 1, spec, seed=gen))
        assert gen.bit_generator.state == before
        part.validate()
        assert np.array_equal(part.assignment, np.zeros(20))
        assert part.assignment.dtype == np.int64
        assert part.medoids is None
        assert part.cost_history == (None if spec is None else [])


def test_k_equals_one_matches_brute_force_without_rng():
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(20, 4))
    gen = np.random.default_rng(42)
    before = gen.bit_generator.state
    k_medoids(pts, 1, seed=gen)
    assert gen.bit_generator.state == before
    part = _one_cluster(pts)
    sums = np.linalg.norm(pts[:, None] - pts[None, :], axis=2).sum(axis=1)
    assert part.medoids[0] == np.argmin(sums)
    assert part.cost_history[-1] == pytest.approx(sums.min(), abs=1e-9)


def test_medoid_tie_goes_to_lowest_index():
    pts = np.array([[0.0], [0.0], [10.0]])
    part = _one_cluster(pts)
    assert part.medoids[0] == 0


def test_assignment_tie_goes_to_lowest_cluster():
    pts = np.array([[0.0], [2.0], [4.0]])
    part = k_medoids(pts, 2, init_medoids=[0, 2])
    # the middle point is equidistant; it must join the lower cluster index
    assert np.array_equal(part.assignment, [0, 0, 1])


def test_duplicate_medoid_stays_in_own_cluster():
    pts = np.array([[0.0], [0.0], [1.0]])
    part = k_medoids(pts, 2, init_medoids=[0, 1])
    part.validate()
    assert part.assignment[0] == 0
    assert part.assignment[1] == 1


def test_seed_determinism_and_cost_monotonicity():
    rng = np.random.default_rng(15)
    pts = rng.normal(size=(60, 5))
    for k in (2, 7, 59):
        a = k_medoids(pts, k, seed=123)
        b = k_medoids(pts, k, seed=123)
        assert np.array_equal(a.assignment, b.assignment)
        assert np.array_equal(a.medoids, b.medoids)
        a.validate()
        hist = a.cost_history
        assert all(y <= x + 1e-9 for x, y in zip(hist, hist[1:]))


def test_weights_pull_the_medoid():
    pts = np.array([[0.0], [1.0], [10.0]])
    part = _one_cluster(pts, weights=np.array([1.0, 1.0, 100.0]))
    assert part.medoids[0] == 2


def test_k_medoids_validates_arguments():
    pts = np.zeros((4, 2))
    for k in (0, 5, 2.5):
        with pytest.raises(ValueError):
            k_medoids(pts, k)
    with pytest.raises(ValueError):
        k_medoids(np.zeros(4), 2)
    with pytest.raises(ValueError):
        k_medoids(pts, 2, init_medoids=[0, 0])
    with pytest.raises(ValueError):
        k_medoids(pts, 2, init_medoids=[0, 9])
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            k_medoids(pts, 2, weights=np.array([1.0, bad, 1.0, 1.0]))
    for max_iter in (0, -3, 2.5):
        with pytest.raises(ValueError):
            k_medoids(pts, 2, max_iter=max_iter)


@pytest.mark.parametrize("spec", [euclidean_spec(), binned_spec(4),
                                  gower_spec([False, False, True])],
                         ids=["euclidean", "binned", "gower"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_points_are_rejected(spec, bad):
    # one bad cell would make a partition's cost nan (Euclidean, binned) or
    # void a Gower column's range for every row
    rng = np.random.default_rng(4)
    pts = np.column_stack([rng.normal(size=(30, 2)), rng.integers(0, 3, 30)])
    k_medoids(pts, 5, spec, seed=0).validate()
    pts[7, 1] = bad
    for k in (1, 5, 30):
        with pytest.raises(ValueError, match="finite"):
            k_medoids(pts, k, spec, seed=0)
    clean = np.delete(pts, 7, axis=0)
    cross_distances(clean[:3], clean[3:6], spec)
    for x, y in ((pts[6:9], clean[:3]), (clean[:3], pts[5:9])):
        with pytest.raises(ValueError, match="finite"):
            cross_distances(x, y, spec)


def test_binned_collapse_groups_identical_points():
    rng = np.random.default_rng(3)
    values = rng.integers(0, 5, 100).astype(float)[:, None]
    part = k_medoids(values, 3, binned_spec(n_bins=5), seed=7)
    part.validate()
    for v in np.unique(values):
        idx = np.nonzero(values[:, 0] == v)[0]
        assert len(set(part.assignment[idx])) == 1
    # a medoid mapped back from representative space is the first original
    # point carrying its value
    for med in part.medoids:
        first = np.nonzero(values[:, 0] == values[med, 0])[0][0]
        assert med == first


def test_binned_fallback_when_fewer_bins_than_k():
    pts = np.full((6, 2), 3.14)
    part = k_medoids(pts, 2, binned_spec(n_bins=4), seed=5)
    part.validate()
    assert part.k == 2
    assert (part.sizes() >= 1).all()


def test_gower_k_medoids_clusters_mixed_rows():
    numeric = np.concatenate([np.zeros(4), np.full(4, 1000.0)])
    cat = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0])
    pts = np.column_stack([numeric, cat])
    part = k_medoids(pts, 2, gower_spec([False, True]), seed=2)
    part.validate()
    assert len(set(part.assignment[:4])) == 1
    assert len(set(part.assignment[4:])) == 1
    assert part.assignment[0] != part.assignment[-1]



# -- medoid update ---------------------------------------------------------

def _direct_pairwise(points: np.ndarray, spec: DistanceSpec) -> np.ndarray:
    """Full distance matrix from direct per-pair differences (no Gram expansion)."""
    diff = points[:, None, :] - points[None, :, :]
    if spec.kind != GOWER:
        return np.sqrt((diff ** 2).sum(axis=2))
    mask = spec.categorical_mask
    ranges = points.max(axis=0) - points.min(axis=0)
    num = ~mask & (ranges > 0)
    total = (np.abs(diff[:, :, num]) / ranges[num]).sum(axis=2)
    total += (diff[:, :, mask] != 0).sum(axis=2)
    return total / max(int(num.sum() + mask.sum()), 1)


def _oracle_medoids(points, assignment, k, weights, spec) -> np.ndarray:
    full = _direct_pairwise(points, spec)
    medoids = np.empty(k, dtype=np.int64)
    for c in range(k):
        members = np.nonzero(assignment == c)[0]
        sums = full[np.ix_(members, members)] @ weights[members]
        # ties (up to rounding) go to the lowest member index
        medoids[c] = members[np.nonzero(sums <= sums.min() * (1 + 1e-9))[0][0]]
    return medoids


def _medoid_case(kind: str, seed: int):
    """Points with duplicates, an assignment rich in 2-member clusters, weights.

    Euclidean coordinates are small integers (binned ones land on half-integer
    bin centres), so the Gram expansion is exact and a tie in exact arithmetic
    is a tie in floating point too.
    """
    rng = np.random.default_rng(seed)
    n = 60
    if kind == "gower":
        pts = np.column_stack([rng.normal(size=n), rng.normal(size=n) * 50,
                               rng.integers(0, 3, n), rng.integers(0, 2, n)]).astype(float)
        spec = gower_spec([False, False, True, True])
    else:
        pts = rng.integers(0, 7, size=(n, 3)).astype(float)
        pts[:2] = [[0.0, 0.0, 0.0], [6.0, 6.0, 6.0]]
        spec = euclidean_spec()
    dup = rng.choice(n, size=15, replace=False)
    pts[dup[5:]] = pts[dup[:10]]
    if kind == "binned":
        spec = binned_spec(n_bins=6)
        pts = bin_centers(pts, spec.n_bins)
        weights = rng.integers(1, 4, n).astype(float)
    else:
        weights = np.ones(n)
    sizes = [2] * 12 + [1, 3, 5, 7, 8, 12]
    k = len(sizes)
    assignment = rng.permutation(np.repeat(np.arange(k), sizes))
    return pts, assignment, k, weights, spec


@pytest.mark.parametrize("kind", ["euclidean", "binned", "gower"])
@pytest.mark.parametrize("seed", range(5))
def test_medoid_update_matches_brute_force_oracle(kind, seed):
    pts, assignment, k, weights, spec = _medoid_case(kind, seed)
    got = clustering._medoid_update(clustering._handler(pts, spec), assignment, k, weights)
    assert np.array_equal(got, _oracle_medoids(pts, assignment, k, weights, spec))


def test_self_cross_distances_are_exactly_symmetric():
    # in a 2-member cluster with equal weights the medoid is decided by
    # d(a, b) against d(b, a), so they must agree to the last bit
    pts = np.random.default_rng(8).normal(size=(400, 7)) * 1e3
    members = np.arange(400).reshape(50, 8)
    for handler in (clustering._EuclideanHandler(pts),
                    clustering._handler(pts, gower_spec([False] * 6 + [True]))):
        d = _cross(handler, members, members)
        assert d.shape == (50, 8, 8)
        assert np.array_equal(d, np.swapaxes(d, 1, 2))


def _exact_case(kind: str):
    """Points whose distance sums are exact in any summation order.

    Euclidean and binned points lie on the line t * (2, 3, 6), so every
    distance is 7 |t - u|; Gower uses integer numerics over a range of 8 and
    four columns, so every distance is a multiple of 1/32.
    """
    rng = np.random.default_rng(11)
    t = rng.integers(0, 21, 120).astype(float)
    if kind == "gower":
        pts = np.column_stack([t % 9, (t * 5) % 9, t % 3, rng.integers(0, 2, 120)])
        return pts, gower_spec([False, False, True, True])
    pts = t[:, None] * np.array([2.0, 3.0, 6.0])
    return pts, binned_spec(n_bins=20) if kind == "binned" else euclidean_spec()


@pytest.mark.parametrize("kind", ["euclidean", "binned", "gower"])
def test_chunked_medoid_update_gives_the_same_partition(kind, monkeypatch):
    pts, spec = _exact_case(kind)

    def partition(k):
        return _one_cluster(pts, spec) if k == 1 else k_medoids(pts, k, spec, seed=3)
    for k in (1, 4, 15):
        whole = partition(k)
        # smaller than one s x s tensor of every group: forces row chunks
        monkeypatch.setattr(clustering, "_BATCH_LIMIT", 7)
        chunked = partition(k)
        monkeypatch.undo()
        assert np.array_equal(chunked.assignment, whole.assignment)
        assert np.array_equal(chunked.medoids, whole.medoids)
        assert chunked.cost_history == whole.cost_history


@pytest.mark.parametrize("limit", [7, 200, 2000])
def test_chunked_medoid_update_matches_the_oracle(limit, monkeypatch):
    pts, spec = _exact_case("euclidean")
    rng = np.random.default_rng(5)
    assignment = rng.permutation(np.repeat(np.arange(12), [2] * 6 + [10, 10, 20, 20, 20, 22]))
    weights = np.ones(len(pts))
    monkeypatch.setattr(clustering, "_BATCH_LIMIT", limit)
    got = clustering._medoid_update(clustering._handler(pts, spec), assignment, 12, weights)
    assert np.array_equal(got, _oracle_medoids(pts, assignment, 12, weights, spec))


def test_max_iter_without_convergence_logs_a_warning(caplog):
    pts = np.random.default_rng(4).normal(size=(50, 2))
    with caplog.at_level(logging.WARNING, logger="proxystream.clustering"):
        part = k_medoids(pts, 5, seed=1, max_iter=1)
    assert len(part.cost_history) == 2
    [record] = caplog.records
    assert record.levelno == logging.WARNING
    assert "max_iter=1" in record.getMessage()
    assert "n=50" in record.getMessage() and "k=5" in record.getMessage()
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="proxystream.clustering"):
        k_medoids(pts, 5, seed=1)
    assert not caplog.records


# -- incremental assignment ------------------------------------------------

def _full_recompute_work(points, k, spec, seed, max_iter, init, weights):
    """Reference: k-medoids that rebuilds the whole n x k assignment matrix
    every round and takes its row argmin."""
    n = len(points)
    if k == n:
        return clustering._singleton_partition(n, init)
    handler = clustering._handler(points, spec)

    def assign(medoids):
        values = handler.assigner(medoids)(slice(None))
        assignment = np.argmin(values, axis=1).astype(np.int64)
        assignment[medoids] = np.arange(len(medoids))
        mind = handler.finalize(values[np.arange(n), assignment])
        mind[medoids] = 0.0
        return assignment, float(mind @ weights)

    if init is None:
        medoids = np.random.default_rng(seed).choice(n, size=k, replace=False).astype(np.int64)
    else:
        medoids = init.copy()
    history = []
    for _ in range(max_iter):
        assignment, cost = assign(medoids)
        history.append(cost)
        new = clustering._medoid_update(handler, assignment, k, weights)
        if np.array_equal(new, medoids):
            break
        medoids = new
    else:
        assignment, cost = assign(medoids)
        history.append(cost)
    return Partition(n, k, assignment, medoids, history)


@st.composite
def _kmedoids_cases(draw):
    """Small-integer points, so the Gram expansion is exact and equal distances
    (duplicates, mirror images) tie in floating point. Bin counts of 1, 2 and
    4 over ranges of at most 4 keep bin centres on multiples of 1/8."""
    kind = draw(st.sampled_from(["euclidean", "binned", "gower"]))
    n = draw(st.integers(2, 30))
    d = draw(st.integers(1, 3))
    pts = np.array(draw(st.lists(st.lists(st.integers(0, 4), min_size=d, max_size=d),
                                 min_size=n, max_size=n)), dtype=float)
    if kind == "gower":
        spec = gower_spec(draw(st.lists(st.booleans(), min_size=d, max_size=d)))
    else:
        spec = binned_spec(n_bins=draw(st.sampled_from([1, 2, 4]))) if kind == "binned" else None
    k = draw(st.integers(1, n))
    init = draw(st.none() | st.permutations(range(n)).map(lambda p: p[:k]))
    weights = np.array(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)), dtype=float)
    max_iter = draw(st.sampled_from([1, 2, 100]))
    limit = draw(st.sampled_from([None, 1, 5, 40]))
    return pts, k, spec, init, weights, max_iter, limit


@settings(max_examples=300, deadline=None)
@given(case=_kmedoids_cases(), seed=st.integers(0, 2**16))
def test_incremental_assignment_matches_full_recompute(case, seed):
    pts, k, spec, init, weights, max_iter, limit = case
    args = dict(seed=seed, max_iter=max_iter, init_medoids=init, weights=weights)
    with pytest.MonkeyPatch.context() as mp:
        if limit is not None:  # row blocks of a few elements, down to one row
            mp.setattr(clustering, "_BATCH_LIMIT", limit)
        mp.setattr(clustering, "_k_medoids_work", _full_recompute_work)
        try:
            want = k_medoids(pts, k, spec, **args)
        except ValueError:  # binned init_medoids sharing a representative
            want = None
        mp.undo()
        if limit is not None:
            mp.setattr(clustering, "_BATCH_LIMIT", limit)
        if want is None:
            with pytest.raises(ValueError):
                k_medoids(pts, k, spec, **args)
            return
        got = k_medoids(pts, k, spec, **args)
    assert np.array_equal(got.assignment, want.assignment)
    assert np.array_equal(got.medoids, want.medoids)
    assert len(got.cost_history) == len(want.cost_history)
    assert got.cost_history == want.cost_history
    got.validate()


@pytest.mark.parametrize("kind", ["euclidean", "binned", "gower"])
def test_assignment_blocks_stay_within_the_batch_limit(kind, monkeypatch):
    limit = 50
    shapes = []
    for cls in (clustering._EuclideanHandler, clustering._GowerHandler):
        def record(self, medoids, _orig=cls.assigner):
            values = _orig(self, medoids)

            def recorded(rows):
                block = values(rows)
                shapes.append(block.shape)
                return block
            return recorded
        monkeypatch.setattr(cls, "assigner", record)
    monkeypatch.setattr(clustering, "_BATCH_LIMIT", limit)
    pts, spec = _exact_case(kind)
    for k in (1, 4, 15, 70):
        shapes.clear()
        part = _one_cluster(pts, spec) if k == 1 else k_medoids(pts, k, spec, seed=3)
        part.validate()
        assert shapes
        # one row at least, else no block past the limit: memory grows with
        # the block size, never with n x k
        assert all(r * c <= max(limit, c) for r, c in shapes), shapes
        assert max(r for r, _ in shapes) < part.n_points


def _record_reassign(monkeypatch):
    """Per ``_reassign`` call, its medoids and every assignment block it
    requests from a handler's ``assigner``, as (rows, medoid count)."""
    calls = []

    def reassign(handler, medoids, *args, _orig=clustering._reassign):
        calls.append((medoids.copy(), []))
        return _orig(handler, medoids, *args)
    monkeypatch.setattr(clustering, "_reassign", reassign)
    for cls in (clustering._EuclideanHandler, clustering._GowerHandler):
        def record(self, medoids, _orig=cls.assigner):
            values = _orig(self, medoids)

            def recorded(rows):
                calls[-1][1].append((np.asarray(rows).copy(), len(medoids)))
                return values(rows)
            return recorded
        monkeypatch.setattr(cls, "assigner", record)
    return calls


def _assignment_case(kind: str):
    rng = np.random.default_rng(9)
    if kind == "gower":
        pts = np.column_stack([rng.normal(size=(200, 2)), rng.integers(0, 4, (200, 2))])
        return pts, gower_spec([False, False, True, True])
    pts = rng.normal(size=(200, 3))
    return pts, binned_spec(n_bins=6) if kind == "binned" else euclidean_spec()


@pytest.mark.parametrize("kind", ["euclidean", "binned", "gower"])
def test_assignment_requests_no_medoid_row(kind, monkeypatch):
    calls = _record_reassign(monkeypatch)
    pts, spec = _assignment_case(kind)
    for k in (1, 7, 60, 100):
        calls.clear()
        part = _one_cluster(pts, spec) if k == 1 else k_medoids(pts, k, spec, seed=2)
        part.validate()
        assert len(calls) > 1 or k == 1
        for medoids, blocks in calls:
            assert blocks
            for rows, _ in blocks:
                assert not np.isin(rows, medoids).any()


def test_first_assignment_round_requests_only_non_medoid_rows(monkeypatch):
    calls = _record_reassign(monkeypatch)
    n, k = 200, 100
    k_medoids(np.random.default_rng(3).normal(size=(n, 5)), k, seed=0)
    _, first_round = calls[0]
    assert sum(len(rows) * width for rows, width in first_round) == (n - k) * k


def _matches_full_recompute(pts, k, spec=None, **kwargs):
    got = k_medoids(pts, k, spec, **kwargs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(clustering, "_k_medoids_work", _full_recompute_work)
        want = k_medoids(pts, k, spec, **kwargs)
    assert np.array_equal(got.assignment, want.assignment)
    assert np.array_equal(got.medoids, want.medoids)
    assert got.cost_history == want.cost_history
    got.validate()
    return got


def _integer_points(kind: str, n: int, seed: int):
    pts = np.random.default_rng(seed).integers(0, 5, (n, 2)).astype(float)
    spec = {"euclidean": None, "binned": binned_spec(n_bins=2),
            "gower": gower_spec([False, True])}[kind]
    return pts, spec


# n, k and k_medoids arguments of cases at the edges of the row sets
_EDGE_CASES = {
    "one_non_medoid_row": (7, 6, {}),
    "zero_weights": (20, 5, {"weights": np.zeros(20)}),
    "some_zero_weights": (20, 5, {"weights": np.where(np.arange(20) % 2 == 0, 0.0, 2.0)}),
    "one_round": (30, 6, {"max_iter": 1}),
}


@pytest.mark.parametrize("case", sorted(_EDGE_CASES))
@pytest.mark.parametrize("kind", ["euclidean", "binned", "gower"])
def test_assignment_edge_cases_match_the_oracle(kind, case):
    n, k, kwargs = _EDGE_CASES[case]
    for seed in range(4):
        pts, spec = _integer_points(kind, n, seed)
        _matches_full_recompute(pts, k, spec, seed=seed, **kwargs)


@pytest.mark.parametrize("kind", ["euclidean", "gower"])
def test_points_that_duplicate_a_medoid_match_the_oracle(kind):
    spec = gower_spec([False, True]) if kind == "gower" else None
    # every value ties at 0: each non-medoid point joins cluster 0, whose
    # medoid moves to its lowest member
    same = np.ones((8, 2))
    part = _matches_full_recompute(same, 3, spec, seed=1)
    assert set(part.cost_history) == {0.0}
    want = np.zeros(8, dtype=np.int64)
    want[part.medoids] = np.arange(3)
    assert np.array_equal(part.assignment, want) and part.medoids[0] == 0
    # each point a copy of one of three medoids
    copies = np.repeat(np.array([[0.0, 0.0], [3.0, 1.0], [6.0, 2.0]]), 4, axis=0)
    part = _matches_full_recompute(copies, 3, spec, init_medoids=[1, 6, 11])
    assert np.array_equal(part.assignment, np.repeat(np.arange(3), 4))
    assert part.cost_history[-1] == 0.0


def test_empty_kept_rows_match_the_oracle(monkeypatch):
    """Rounds in which no point keeps its cluster unexamined. The stale rows
    are never empty after round 1: a moved cluster still holds its old
    medoid, which is no medoid now."""
    sizes = []

    def nearest(handler, medoids, rows, _orig=clustering._nearest):
        sizes.append(len(rows))
        return _orig(handler, medoids, rows)
    monkeypatch.setattr(clustering, "_nearest", nearest)
    # one cluster moves its medoid from 0 to 1, the other is a singleton
    part = _matches_full_recompute(np.array([[0.0], [1.0], [2.0], [10.0]]), 2,
                                   init_medoids=[0, 3])
    assert np.array_equal(part.medoids, [1, 3])
    # per round, kept rows then stale rows (_matches_full_recompute's oracle
    # run does not call _nearest)
    assert sizes == [0, 2, 0, 2]
    sizes.clear()
    # k = n - 1: cluster 0 moves its medoid from 1 to 0, every other point is a medoid
    part = _matches_full_recompute(np.array([[0.0], [1.0], [5.0], [9.0]]), 3,
                                   init_medoids=[1, 2, 3])
    assert np.array_equal(part.medoids, [0, 2, 3])
    assert sizes == [0, 1, 0, 1]


def _record_cross(monkeypatch, blocks, batches=None):
    """Append (shape, rows is cols) for every distance block made inside
    ``_medoid_update`` (Gower assignment calls ``cross`` too): each ``cross``
    tile, and each (g, s, s) block that a handler's ``self_blocks`` returns,
    as (shape, True). With ``batches``, append per ``self_blocks`` call its
    blocks' shapes and the element count of Gower's pair pass (None for
    Euclidean blocks, which are ``cross`` products)."""
    inside = []
    update = clustering._medoid_update

    def tracked_update(*args):
        inside.append(True)
        try:
            return update(*args)
        finally:
            inside.pop()
    monkeypatch.setattr(clustering, "_medoid_update", tracked_update)
    pairs = []
    distances = clustering._GowerHandler._distances

    def record_pairs(self, *args):
        if inside and not inside[-1]:
            pairs.append(int(np.prod(args[-1])))
        return distances(self, *args)
    monkeypatch.setattr(clustering._GowerHandler, "_distances", record_pairs)
    for cls in (clustering._EuclideanHandler, clustering._GowerHandler):
        def record(self, rows, cols, _orig=cls.cross):
            block = _orig(self, rows, cols)
            if inside and inside[-1]:
                blocks.append((block.shape, rows is cols))
            return block

        def record_blocks(self, groups, _orig=cls.self_blocks):
            # cross calls that make these blocks are not recorded twice
            inside.append(False)
            try:
                made = list(_orig(self, groups))
            finally:
                inside.pop()
            blocks.extend((d.shape, True) for d in made)
            if batches is not None:
                batches.append(([d.shape for d in made], sum(pairs) if pairs else None))
            pairs.clear()
            return made
        monkeypatch.setattr(cls, "cross", record)
        monkeypatch.setattr(cls, "self_blocks", record_blocks)


@pytest.mark.parametrize("kind", ["euclidean", "binned", "gower"])
def test_medoid_update_blocks_stay_within_the_batch_limit(kind, monkeypatch):
    limit = 50
    blocks, batches = [], []
    _record_cross(monkeypatch, blocks, batches)
    monkeypatch.setattr(clustering, "_BATCH_LIMIT", limit)
    pts, spec = _exact_case(kind)
    for k in (1, 4, 15, 70):
        blocks.clear()
        batches.clear()
        part = _one_cluster(pts, spec) if k == 1 else k_medoids(pts, k, spec, seed=3)
        part.validate()
        assert blocks
        # (clusters, rows, s): one row of one cluster at least, else no block
        # past the limit: memory grows with the block size, never with s x s
        assert all(g * r * s <= max(limit, s) for (g, r, s), _ in blocks), blocks
        if k == 1:
            assert max(r for (_, r, _), _ in blocks) < part.n_points
        # a batch of stacked blocks holds at most the limit's elements, and
        # Gower's pair pass computes each member pair i < j of it once
        for shapes, pairs in batches:
            assert sum(g * s * s for g, s, _ in shapes) <= limit
            assert pairs == (sum(g * s * (s - 1) // 2 for g, s, _ in shapes)
                             if kind == "gower" else None)
        if k == 70:
            assert batches


def test_medoid_update_of_clean_clusters_computes_nothing(monkeypatch):
    pts, assignment, k, weights, spec = _medoid_case("euclidean", 0)
    handler = clustering._handler(pts, spec)
    medoids = _oracle_medoids(pts, assignment, k, weights, spec)
    blocks = []
    _record_cross(monkeypatch, blocks)
    got = clustering._medoid_update(handler, assignment, k, weights, medoids,
                                    np.zeros(k, dtype=bool))
    assert not blocks
    assert np.array_equal(got, medoids) and got is not medoids
    # a dirty cluster is recomputed from its members, whatever it held before
    dirty = np.zeros(k, dtype=bool)
    dirty[[3, 15]] = True
    stale = medoids.copy()
    stale[dirty] = -1
    got = clustering._medoid_update(handler, assignment, k, weights, stale, dirty)
    assert len(blocks) == 2
    assert np.array_equal(got, medoids)


@pytest.mark.parametrize("kind", ["euclidean", "binned", "gower"])
def test_tiled_medoid_update_matches_the_oracle(kind, monkeypatch):
    # distance sums of these points are exact in any summation order, so the
    # tiles must give the oracle's medoids, ties to the lowest index included
    pts, spec = _exact_case(kind)
    if kind == "binned":
        pts = bin_centers(pts, spec.n_bins)
    rng = np.random.default_rng(6)
    sizes = [1, 2, 5, 13, 19, 40, 40]
    k = len(sizes)
    assignment = rng.permutation(np.repeat(np.arange(k), sizes))
    weights = rng.integers(1, 4, len(pts)).astype(float)
    handler = clustering._handler(pts, spec)
    want = _oracle_medoids(pts, assignment, k, weights, spec)
    limit = 100
    monkeypatch.setattr(clustering, "_BATCH_LIMIT", limit)
    assert np.array_equal(clustering._medoid_update(handler, assignment, k, weights), want)
    blocks = []
    _record_cross(monkeypatch, blocks)
    for c in np.nonzero(np.square(sizes) > limit)[0]:
        s, step = sizes[c], limit // sizes[c]
        slices = [min(step, s - i) for i in range(0, s, step)]
        blocks.clear()
        dirty = np.zeros(k, dtype=bool)
        dirty[c] = True
        got = clustering._medoid_update(handler, assignment, k, weights, want, dirty)
        assert got[c] == want[c]
        elements = [int(np.prod(shape)) for shape, _ in blocks]
        assert max(elements) <= max(limit, s)
        # each member pair once: the tiles on and above the diagonal
        assert sum(elements) <= s * (s + step) / 2
        assert len(blocks) == len(slices) * (len(slices) + 1) // 2
        assert (sorted(shape for shape, same in blocks if same)
                == sorted((1, b, b) for b in slices))
    # a cluster with s * s <= limit is one s x s block, in groups of
    # limit // (s * s) clusters of its size: the bits of its own cross(m, m)
    sizes = [2] * 10 + [4] * 10 + [5] * 12
    k = len(sizes)
    assignment = rng.permutation(np.repeat(np.arange(k), sizes))
    want = _oracle_medoids(pts, assignment, k, weights, spec)
    calls = []
    for cls in (clustering._EuclideanHandler, clustering._GowerHandler):
        def record(self, groups, _orig=cls.self_blocks):
            made = list(_orig(self, groups))
            calls.extend(zip(groups, made))
            return made
        monkeypatch.setattr(cls, "self_blocks", record)
    blocks.clear()
    assert np.array_equal(clustering._medoid_update(handler, assignment, k, weights), want)
    assert sorted(m.shape for m, _ in calls) == [(4, 4), (4, 5), (4, 5), (4, 5), (6, 4), (10, 2)]
    assert len(blocks) == len(calls) and all(same for _, same in blocks)
    for members, d in calls:
        assert d.shape == (*members.shape, members.shape[1])
        assert d.tobytes() == _cross(handler, members, members).tobytes()


@pytest.mark.parametrize("kind", ["euclidean", "gower"])
def test_medoid_update_matches_each_clusters_own_product(kind, monkeypatch):
    # real-valued points, so the sums carry rounding that depends on the
    # product's shape: a cluster stacked with others must get the bits of its
    # own cross(m, m), and every cluster of at most 512 members fits one
    # whole (clusters, s, s) block at the default limit
    rng = np.random.default_rng(12)
    sizes = [1] + [2] * 60 + [3, 7, 7, 40, 100, 100, 300, 300, 512]
    k, n = len(sizes), sum(sizes)
    pts = rng.normal(size=(n, 6))
    if kind == "gower":
        pts[:, 4:] = rng.integers(0, 3, size=(n, 2))
        spec = gower_spec([False] * 4 + [True] * 2)
    else:
        spec = euclidean_spec()
    assignment = rng.permutation(np.repeat(np.arange(k), sizes))
    weights = rng.integers(1, 3, n).astype(float)
    handler = clustering._handler(pts, spec)
    want = np.empty(k, dtype=np.int64)
    for c in range(k):
        members = np.nonzero(assignment == c)[0]
        want[c] = members[np.argmin(_cross(handler, members, members) @ weights[members])]
    blocks = []
    _record_cross(monkeypatch, blocks)
    got = clustering._medoid_update(handler, assignment, k, weights)
    assert np.array_equal(got, want)
    assert all(same and r == s for (_, r, s), same in blocks), blocks


# -- exact kernel rewrites ------------------------------------------------
# ``_EuclideanHandler`` folds its factors 2 and -2 into an operand and forms
# norm sums as a K = 2 product; ``_GowerHandler`` adds its planes with one
# reduce. Each must keep the bytes of the separate passes in conftest.

def _real_points(n: int, d: int, seed: int, scale: float, offset: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, d)) * scale + offset * scale


def _lattice_points(n: int, d: int, seed: int) -> np.ndarray:
    """Bin centres of 3 bins over normal points: a lattice with duplicate
    rows and many equidistant pairs, so exact ties are common."""
    return bin_centers(np.random.default_rng(seed).normal(size=(n, d)), 3)


_points = st.one_of(
    st.builds(_real_points, st.integers(2, 120), st.integers(1, 45),
              st.integers(0, 2**32 - 1), st.sampled_from([1e-8, 1e-3, 1.0, 1e3, 1e8]),
              st.sampled_from([0.0, 1.0, 5.0])),
    st.builds(_lattice_points, st.integers(2, 120), st.integers(1, 6), st.integers(0, 2**32 - 1)))


def _index_sets(n: int, seed: int):
    """(rows, cols) pairs of 1-D index sets and of (g, s) diagonal and
    off-diagonal tiles over n points."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    a = perm[:rng.integers(1, n + 1)]
    b = rng.permutation(n)[:rng.integers(1, n + 1)]
    pairs = [(a, a), (a, b), (b, a)]
    for g in {1, 2, max(1, n // 4)}:
        s = n // g
        members = perm[:g * s].reshape(g, s)
        half = max(1, s // 2)
        pairs += [(members, members), (members[:, :half], members[:, half:]),
                  (members[:, half:], members[:, :half])]
    return [(rows, cols) for rows, cols in pairs if rows.size and cols.size]


@settings(max_examples=150, deadline=None)
@given(pts=_points, seed=st.integers(0, 2**32 - 1))
def test_euclidean_cross_has_the_bytes_of_separate_passes(pts, seed):
    handler = clustering._EuclideanHandler(pts)
    for rows, cols in _index_sets(len(pts), seed):
        got = _cross(handler, rows, cols)
        want = euclidean_cross_direct(handler, rows, cols)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes(), (rows.shape, cols.shape, cols is rows)


def test_euclidean_cross_keeps_the_bytes_of_full_tiles():
    # 262-member tiles of 42-d points, as shop-rho1024 cuts a 524-member
    # cluster, alone and as a group of one
    pts = _real_points(600, 42, 7, 3.0, 5.0)
    members = np.random.default_rng(8).permutation(600)
    a, b = members[:262], members[262:524]
    group = a[None]
    handler = clustering._EuclideanHandler(pts)
    for rows, cols in ((a, b), (a, a), (group, b[None]), (group, group)):
        got = _cross(handler, rows, cols)
        assert got.tobytes() == euclidean_cross_direct(handler, rows, cols).tobytes()


@settings(max_examples=60, deadline=None)
@given(pts=_points, m=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_cross_distances_has_the_bytes_of_separate_passes(pts, m, seed):
    # 1-D index sets into the stacked rows of both sets
    y = np.random.default_rng(seed).permutation(pts)[:m]
    handler = clustering._EuclideanHandler(np.vstack([pts, y]))
    want = euclidean_cross_direct(handler, np.arange(len(pts)),
                                  np.arange(len(pts), len(pts) + len(y)))
    assert cross_distances(pts, y).tobytes() == want.tobytes()


def _nearest_direct(handler, medoids, rows, step):
    """Nearest medoid column and value per row from the oracle's blocks of
    ``step`` rows, lowest column among ties."""
    cols, values = [], []
    for start in range(0, len(rows), step):
        dist = euclidean_assign_direct(handler, medoids, rows[start:start + step])
        best = np.argmin(dist, axis=1)
        cols.append(best)
        values.append(dist[np.arange(len(dist)), best])
    return np.concatenate(cols), np.concatenate(values)


@settings(max_examples=150, deadline=None)
@given(pts=_points, k=st.integers(1, 60), step=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
def test_nearest_has_the_bytes_of_per_block_products(pts, k, step, seed):
    # several blocks per call: the medoid operand, built once, must give
    # every block the bits of its own gather and -2 pass
    rng = np.random.default_rng(seed)
    k = min(k, len(pts))
    medoids = rng.choice(len(pts), size=k, replace=False)
    rows = rng.permutation(len(pts))
    handler = clustering._EuclideanHandler(pts)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(clustering, "_BATCH_LIMIT", step * k)
        cols, values = clustering._nearest(handler, medoids, rows)
    want_cols, want_values = _nearest_direct(handler, medoids, rows, step)
    assert np.array_equal(cols, want_cols)
    assert values.tobytes() == want_values.tobytes()


def test_nearest_keeps_the_bytes_of_shop_sized_blocks():
    # 1 000 medoids of 2 000 42-d points: blocks of 262 rows at the default
    # limit, the shape of shop-rho2's first assignment round
    pts = _real_points(2000, 42, 3, 1.0, 0.0)
    medoids = np.arange(0, 2000, 2)
    rows = np.arange(1, 2000, 2)
    handler = clustering._EuclideanHandler(pts)
    cols, values = clustering._nearest(handler, medoids, rows)
    want_cols, want_values = _nearest_direct(handler, medoids, rows,
                                             clustering._BATCH_LIMIT // len(medoids))
    assert np.array_equal(cols, want_cols)
    assert values.tobytes() == want_values.tobytes()


def test_nearest_breaks_lattice_ties_to_the_lowest_column():
    # every point lies on a 3-bin lattice in 2-d, so equidistant medoids are
    # common; values are exact and the lowest tied column must win
    pts = _lattice_points(300, 2, 4)
    handler = clustering._EuclideanHandler(pts)
    medoids = np.random.default_rng(5).choice(300, size=40, replace=False)
    rows = np.arange(300)
    dist = euclidean_assign_direct(handler, medoids, rows)
    ties = (dist == dist.min(axis=1, keepdims=True)).sum(axis=1)
    assert (ties > 1).sum() > 100
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(clustering, "_BATCH_LIMIT", 7 * len(medoids))
        cols, values = clustering._nearest(handler, medoids, rows)
    assert np.array_equal(cols, np.argmin(dist, axis=1))
    assert values.tobytes() == dist.min(axis=1).tobytes()


def test_gower_one_element_block_adds_its_planes_in_column_order():
    # a 1 x 1 block of 13 planes is one contiguous run of 13 values, which a
    # reduce would sum pairwise; the column order must hold for every pair,
    # and for some pairs here the pairwise order rounds differently
    pts, mask = _gower_example(12, 10, 3, seed=1)
    handler = clustering._handler(pts, gower_spec(mask))
    pairwise_differs = 0
    for i, j in combinations(range(len(pts)), 2):
        rows, cols = np.array([i]), np.array([j])
        got = _cross(handler, rows, cols)
        assert got.tobytes() == _gower_column_loop(pts, mask, rows, cols).tobytes()
        (num_a, cat_a), (num_b, cat_b) = handler.take(rows), handler.take(cols)
        terms = np.concatenate([(np.abs(num_a - num_b) / handler.ranges[:, None]).ravel(),
                                (cat_a != cat_b).ravel().astype(float)])
        pairwise_differs += np.add.reduce(terms) / handler.denom != got.item()
    assert pairwise_differs


@st.composite
def _gower_clusters(draw):
    """Real-valued mixed points with 8 to 12 kept numeric columns and 0 to 4
    categorical ones, split into clusters of 1 to 40 members, at least 11 of
    them 2-member clusters; positive real weights."""
    n_num, n_cat = draw(st.integers(8, 12)), draw(st.integers(0, 4))
    sizes = [2] * draw(st.integers(11, 30)) + draw(st.lists(st.integers(1, 40), max_size=12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = sum(sizes)
    pts = np.column_stack([rng.normal(size=(n, n_num)) * 10.0, rng.integers(0, 3, (n, n_cat))])
    mask = np.array([False] * n_num + [True] * n_cat)
    assignment = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    return pts, mask, assignment, len(sizes), rng.uniform(0.5, 2.0, n)


@settings(max_examples=60, deadline=None)
@given(case=_gower_clusters())
def test_gower_pair_pass_has_the_bits_of_each_clusters_own_cross(case):
    # every s x s block from the pair pass must be its cluster group's own
    # cross(m, m), bit for bit. At a limit of 40 the 2-member clusters come in
    # groups of 10, one per batch, so batches split between groups of one
    # size, and later batches may hold groups of several sizes; at 5 every
    # 2-member cluster is a batch holding exactly one pair, a one-element
    # plane stack that numpy would sum pairwise
    pts, mask, assignment, k, weights = case
    handler = clustering._handler(pts, gower_spec(mask))
    assert len(handler.num) >= 8
    produce = clustering._GowerHandler.self_blocks
    for limit in (40, 5):
        made = []

        def record(self, groups):
            blocks = produce(self, groups)
            made.append(list(zip(groups, blocks)))
            return blocks
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(clustering._GowerHandler, "self_blocks", record)
            mp.setattr(clustering, "_BATCH_LIMIT", limit)
            got = clustering._medoid_update(handler, assignment, k, weights)
        for c in range(k):
            members = np.nonzero(assignment == c)[0]
            own = _cross(handler, members, members)
            assert got[c] == members[np.argmin(own @ weights[members])]
        assert made and all(sum(d.size for _, d in batch) <= limit for batch in made)
        shapes = [[d.shape for _, d in batch] for batch in made]
        twos = (np.bincount(assignment) == 2).sum()
        if limit == 5:
            assert shapes.count([(1, 2, 2)]) == twos
        else:
            assert shapes[0] == [(10, 2, 2)] and shapes[1][0] == (min(10, twos - 10), 2, 2)
        for batch in made:
            for members, d in batch:
                assert d.tobytes() == _cross(handler, members, members).tobytes()


def test_one_member_cluster_keeps_its_member_without_a_distance(monkeypatch):
    blocks = []
    _record_cross(monkeypatch, blocks)
    pts, spec = _exact_case("gower")
    handler = clustering._handler(pts, spec)
    assignment = np.arange(len(pts)) % 3
    assignment[7] = 3
    got = clustering._medoid_update(handler, assignment, 4, np.ones(len(pts)))
    assert got[3] == 7
    assert all(shape[-1] > 1 for shape, _ in blocks)


# -- random partitions -----------------------------------------------------

def test_random_partition_k1_is_all_zero():
    part = random_partition(17, 1, seed=3)
    assert np.array_equal(part.assignment, np.zeros(17, dtype=int))


def test_random_partition_k_equals_n_is_the_identity_without_rng():
    gen = np.random.default_rng(42)
    before = gen.bit_generator.state
    part = random_partition(9, 9, seed=gen)
    assert gen.bit_generator.state == before
    part.validate()
    assert np.array_equal(part.assignment, np.arange(9))
    assert part.medoids is None


def test_random_partition_sizes_are_balanced_in_expectation():
    part = random_partition(10000, 10, seed=0)
    part.validate()
    sizes = part.sizes()
    assert sizes.sum() == 10000
    # binomial sd is about 30; allow three sigmas around the mean of 1000
    assert (np.abs(sizes - 1000) <= 90).all()


def test_random_partition_never_leaves_a_cluster_empty():
    for seed in range(30):
        part = random_partition(12, 5, seed=seed)
        part.validate()
        assert (part.sizes() >= 1).all()


def test_random_partition_determinism_and_validation():
    a = random_partition(50, 7, seed=11)
    b = random_partition(50, 7, seed=11)
    assert np.array_equal(a.assignment, b.assignment)
    for k in (4, 0, 2.5):
        with pytest.raises(ValueError):
            random_partition(3, k)


@pytest.mark.parametrize("part, message", [
    (Partition(3, 2, np.array([0, 1])), "assignment shape"),
    (Partition(3, 2, np.array([0, 1, 2])), "cluster index out of range"),
    (Partition(3, 3, np.array([0, 1, 1])), "empty cluster"),
    (Partition(3, 2, np.array([0, 1, 1]), medoids=np.array([1, 1])), "k distinct"),
    (Partition(3, 2, np.array([0, 1, 1]), medoids=np.array([0, 3])), "medoid index out of range"),
    (Partition(3, 2, np.array([0, 1, 1]), medoids=np.array([1, 2])), "not a member"),
], ids=["shape", "cluster_range", "empty", "duplicate_medoid", "medoid_range", "foreign_medoid"])
def test_partition_validate_rejects_each_broken_law(part, message):
    Partition(3, 2, np.array([0, 1, 1]), medoids=np.array([0, 1])).validate()
    with pytest.raises(ValueError, match=message):
        part.validate()


def test_medoid_update_rejects_an_empty_cluster():
    handler = clustering._EuclideanHandler(np.arange(6.0).reshape(3, 2))
    with pytest.raises(ValueError, match="empty cluster in medoid update"):
        clustering._medoid_update(handler, np.array([0, 0, 2]), 3, np.ones(3))


# -- proxies ---------------------------------------------------------------

def test_singleton_partition_proxies_are_identities():
    feats = np.random.default_rng(2).normal(size=(6, 3))
    part = Partition(6, 6, np.arange(6))
    px, py, sizes = proxy_matrices(part, feats, np.arange(6.0))
    assert np.array_equal(px, feats)
    assert np.array_equal(py, np.arange(6.0))
    assert np.array_equal(sizes, np.ones(6))
    assert sizes.dtype.kind == "i"


def test_pair_average_fixture():
    part = Partition(2, 1, np.zeros(2, dtype=np.int64))
    px, py, sizes = proxy_matrices(part, np.array([[10.0], [20.0]]), np.array([10.0, 20.0]))
    assert px[0, 0] == 15.0
    assert py[0] == 15.0
    assert sizes[0] == 2


def test_three_row_fixture():
    feats = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    part = Partition(3, 2, np.array([0, 1, 0]))
    px, py, sizes = proxy_matrices(part, feats, np.array([10.0, 20.0, 30.0]))
    assert np.array_equal(px, [[3.0, 4.0], [3.0, 4.0]])
    assert np.array_equal(py, [20.0, 20.0])
    assert np.array_equal(sizes, [2, 1])


def test_empty_cluster_is_an_error():
    # cluster 1 has no member, so it has no mean
    part = Partition(2, 3, np.array([0, 2]))
    with pytest.raises(ValueError, match="empty cluster"):
        proxy_matrices(part, np.array([[1.0], [5.0]]))


def test_proxy_means_match_numpy_means():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(5, 60))
        k = int(rng.integers(1, n + 1))
        feats = rng.normal(size=(n, 4)) * 100
        outs = rng.normal(size=n)
        part = random_partition(n, k, seed=int(rng.integers(1 << 30)))
        px, py, sizes = proxy_matrices(part, feats, outs)
        assert len(px) == len(py) == len(sizes) == k
        for c in range(k):
            members = np.flatnonzero(part.assignment == c)
            assert np.allclose(px[c], feats[members].mean(axis=0), atol=1e-12)
            assert py[c] == pytest.approx(outs[members].mean(), abs=1e-12)
            assert sizes[c] == len(members)


def test_proxy_sums_equal_add_at_sums():
    # bincount and np.add.at both add a cluster's rows in index order from
    # 0.0, so the proxies must equal the add.at means bit for bit; at k == n
    # (in a permuted cluster order too) that mean is 0.0 + row, so -0.0
    # becomes 0.0
    rng = np.random.default_rng(41)
    for n, d in ((1, 1), (50, 3), (2000, 42)):
        k = int(rng.integers(1, n + 1))
        feats = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 6, size=d)
        feats[::3, 0] = -0.0
        outs = rng.normal(size=n) * 1e4
        outs[::4] = -0.0
        for part in (random_partition(n, k, seed=int(rng.integers(1 << 30))),
                     Partition(n, n, rng.permutation(n))):
            px, py, sizes = proxy_matrices(part, feats, outs)
            sums = np.zeros((part.k, d))
            np.add.at(sums, part.assignment, feats)
            osums = np.zeros(part.k)
            np.add.at(osums, part.assignment, outs)
            counts = np.bincount(part.assignment).astype(float)
            assert px.tobytes() == (sums / counts[:, None]).tobytes()
            assert py.tobytes() == (osums / counts).tobytes()


def test_proxy_row_count_mismatch():
    with pytest.raises(ValueError):
        proxy_matrices(Partition(3, 1, np.zeros(3, dtype=np.int64)), np.ones((2, 2)))
    # one outcome per row, at k == n too, where a lone outcome would broadcast
    for part in (Partition(3, 1, np.zeros(3, dtype=np.int64)), Partition(3, 3, np.arange(3))):
        for outcomes in (np.ones(2), np.ones(1), np.ones((3, 1))):
            with pytest.raises(ValueError, match="one value per row"):
                proxy_matrices(part, np.ones((3, 2)), outcomes)


def test_make_proxies_fields():
    feats = np.array([[0.0], [2.0], [4.0]])
    part = Partition(3, 2, np.array([1, 1, 0]))
    px, py, sizes = proxy_matrices(part, feats, np.array([1.0, 3.0, 5.0]))
    assert sizes[0] == 1
    assert sizes[1] == 2
    assert px[1, 0] == 1.0
    assert py[1] == 2.0
    assert proxy_matrices(part, feats)[1] is None


# -- mean-medoid gap -------------------------------------------------------

def test_gap_two_point_closed_form():
    # two uniform points on a line: medoid is the first point, the mean sits
    # halfway, so the expected gap is E|x1 - x2| / 2 = 1/6
    got = mean_medoid_gap(2, 1, samples=4000, seed=0)
    assert got == pytest.approx(1 / 6, abs=0.01)


def test_gap_shrinks_with_sample_size():
    assert mean_medoid_gap(100, 2, samples=300, seed=1) < mean_medoid_gap(
        5, 2, samples=300, seed=1
    )


def _mean_medoid_gap_reference(n: int, d: int, samples: int, seed: int) -> float:
    """The whole-Gram medoid search ``mean_medoid_gap`` used before it ran on
    k-medoids' medoid update: its own Gram expansion, a ``np.sum`` over each
    distance row and chunks of ``2e7 / n^2`` samples."""
    rng = np.random.default_rng(seed)
    chunk = max(1, int(2e7 / (n * n)))
    total = 0.0
    done = 0
    while done < samples:
        b = min(chunk, samples - done)
        x = rng.random((b, n, d))
        norms = np.einsum("bnd,bnd->bn", x, x)
        sq = norms[:, :, None] + norms[:, None, :] - 2.0 * (x @ x.transpose(0, 2, 1))
        np.maximum(sq, 0.0, out=sq)
        sums = np.sqrt(sq).sum(axis=2)
        med = np.argmin(sums, axis=1)
        centers = x.mean(axis=1)
        gaps = np.linalg.norm(centers - x[np.arange(b), med], axis=1)
        total += float(gaps.sum())
        done += b
    return total / samples


@pytest.mark.parametrize("d", [2, 5, 10])
@pytest.mark.parametrize("n", [2, 5, 20, 100])
def test_gap_matches_the_whole_gram_reference(n, d):
    assert mean_medoid_gap(n, d, samples=30, seed=3) == _mean_medoid_gap_reference(n, d, 30, 3)


def test_gap_in_several_draw_chunks_matches_the_reference(monkeypatch):
    # 1000 // (20 * 10) = 5 samples per draw chunk, so 23 samples take five
    # chunks; each 20 x 20 cluster still fits one whole block
    monkeypatch.setattr(clustering, "_BATCH_LIMIT", 1000)
    assert mean_medoid_gap(20, 10, samples=23, seed=4) == _mean_medoid_gap_reference(20, 10, 23, 4)


def test_gap_is_deterministic_and_validated():
    assert mean_medoid_gap(5, 3, samples=50, seed=7) == mean_medoid_gap(
        5, 3, samples=50, seed=7
    )
    with pytest.raises(ValueError):
        mean_medoid_gap(0, 1)
    with pytest.raises(ValueError):
        mean_medoid_gap(1, 0)
    with pytest.raises(ValueError):
        mean_medoid_gap(1, 1, samples=0)
    for args, name in [((2.5, 3), "n"), ((True, 2), "n"), ((3, 2.0), "d"),
                       ((3, np.nan), "d"), ((3, 2, 10.5), "samples"), ((3, 2, False), "samples")]:
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            mean_medoid_gap(*args)
