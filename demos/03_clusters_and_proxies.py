"""
Partitioning a batch into proxy entities
========================================

At every step the pipeline splits the current batch of entities into
k = ceil(n / rho) clusters and replaces each cluster by its proxy: the
plain mean of the members' features and outcomes. rho is the single
trade-off knob — rho = 1 keeps every entity, large rho trains on a handful
of averaged super-entities. This script partitions one encoded batch at
several capacities and then reproduces the mean-vs-medoid Monte Carlo
study that justifies averaging over picking a representative member.
"""
import numpy as np

from proxystream.clustering import (
    cluster_count,
    k_medoids,
    mean_medoid_gap,
    proxy_matrices,
)
from proxystream.encoding import encode_journeys, linear_fit_batch, standardize_columns
from proxystream.synthetic import archetype_shopper_spec, generate_shopper_stream

store, truth = generate_shopper_stream(
    archetype_shopper_spec(n_entities=300, horizon=12, seed=7))

codes = np.arange(store.entity_count)
journeys = encode_journeys(store, codes, 8.0, 3)
model_x = journeys.reshape(len(codes), -1)
cluster_x = standardize_columns(linear_fit_batch(journeys))

###############################################################################
# Partition the same 300 shoppers at increasing capacity. The cluster count
# follows the ceiling law, every cluster is non-empty, and the k-medoids
# run is deterministic in its seed.

for rho in (2, 8, 32):
    k = cluster_count(len(codes), rho)
    part = k_medoids(cluster_x, k, seed=rho)
    sizes = part.sizes()
    print(f"rho={rho:>2}: k={k:>3} clusters, "
          f"sizes min/median/max = {sizes.min()}/{int(np.median(sizes))}/{sizes.max()}, "
          f"cost {part.cost_history[-1]:.1f} "
          f"after {len(part.cost_history)} sweeps")

###############################################################################
# Clusters recover the archetypes: at rho=32 most clusters are dominated by
# a single spending profile.

part = k_medoids(cluster_x, cluster_count(len(codes), 32), seed=0)
purities = []
for cluster in range(part.k):
    members = np.flatnonzero(part.assignment == cluster)
    archetype_counts = np.bincount(truth.archetypes[members])
    purities.append(archetype_counts.max() / len(members))
print(f"\nrho=32 cluster purity (dominant archetype share): "
      f"{np.round(purities, 2)}")

###############################################################################
# Proxies are exact means. `proxy_matrices` averages model features and
# outcomes per cluster, row j for cluster j; checking one cluster by hand
# shows the identity.

weekly_spend = model_x[:, 3 * 3]  # the total_value_sum row, first week column
proxy_x, proxy_y, sizes = proxy_matrices(part, model_x, weekly_spend)
members = np.flatnonzero(part.assignment == 0)
by_hand = model_x[members].mean(axis=0)
print(f"\nproxy 0 averages {sizes[0]} members; "
      f"max |proxy - hand mean| = "
      f"{np.abs(proxy_x[0] - by_hand).max():.2e}")
print(f"proxy outcome {proxy_y[0]:.3f} vs "
      f"hand mean {weekly_spend[members].mean():.3f}")

###############################################################################
# Why the mean and not the medoid? For points drawn around a common centre
# the medoid is a noisy stand-in: its expected distance to the true centre
# stays bounded away from the mean's. The Monte Carlo gap per dimension
# shrinks towards zero as clusters grow, and is already small for
# realistic sizes.

print("\nmean-medoid gap (per-dimension distance advantage of the mean)")
sample_sizes = (5, 10, 20, 50, 100)
print("      n:" + "".join(f" {n:>8}" for n in sample_sizes))
for dim in (2, 5, 10):
    gaps = [mean_medoid_gap(n, dim, samples=600, seed=1) for n in sample_sizes]
    print(f"  d={dim:>2} :" + "".join(f" {gap:>8.4f}" for gap in gaps))
print("larger clusters -> medoid nearly as central as the mean, but the mean"
      "\nis exact at every size, which is why proxies average.")
