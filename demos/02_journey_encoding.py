"""
From raw events to journey features
===================================

The supermarket use case summarises each shopper's recent behaviour as a
journey matrix: one column per week looking back from the current step, and
one row per aggregate (visits, products, spend, ...) plus one row per
department's share of purchases. This script encodes one small batch and
shows the two feature views derived from it: the flattened matrix the
regression model consumes, and the per-row line fits the clustering step
consumes.
"""
import numpy as np

from proxystream.encoding import (
    encode_journeys,
    journey_row_names,
    linear_fit_batch,
    standardize_columns,
)
from proxystream.synthetic import archetype_shopper_spec, generate_shopper_stream

store, truth = generate_shopper_stream(
    archetype_shopper_spec(n_entities=300, horizon=12, seed=7))

###############################################################################
# Encode three weeks of history for every shopper active up to week 8. Each
# journey is a (rows x weeks) matrix; empty weeks stay at zero rather than
# becoming missing values.

tau = 3
window_end = 8.0
codes = np.arange(store.entity_count)
journeys = encode_journeys(store, codes, window_end, tau)
rows = journey_row_names(store.alphabet)

print(f"journey tensor: {journeys.shape}  (shoppers, rows, weeks)")
print(f"\nshopper 0, weeks {window_end - tau:.0f}-{window_end:.0f}:")
name_width = max(len(name) for name in rows)
for name, row in zip(rows, journeys[0]):
    print(f"  {name:<{name_width}} {np.round(row, 3)}")

###############################################################################
# The model input is simply the matrix flattened row-major, so its width is
# rows x weeks. The department-frequency rows make it sum-preserving: each
# week's frequencies add to one when the shopper visited at all.

flat = journeys.reshape(len(codes), -1)
print(f"\nmodel feature width: {flat.shape[1]} = {len(rows)} rows x {tau} weeks")

###############################################################################
# The clustering view compresses each row into a fitted line: slope,
# intercept and residual. Three numbers per row capture level, trend and
# noisiness without growing with tau.

slope, intercept, residual = np.split(linear_fit_batch(journeys[:1])[0], 3)
print("\nshopper 0 line fits (slope, intercept, residual):")
for index, name in enumerate(rows[:6]):
    print(f"  {name:<{name_width}} "
          f"({slope[index]:+.3f}, {intercept[index]:.3f}, "
          f"{residual[index]:.3f})")

###############################################################################
# For a whole batch the fits stack into an (entities x 3 rows) matrix which
# is then z-scored per column, so spend rows do not drown out frequency rows
# under a Euclidean distance. Constant columns map to zero instead of NaN.

features = standardize_columns(linear_fit_batch(journeys))
print(f"\nclustering features: {features.shape}  "
      f"(entities, 3 x {len(rows)} columns)")
print(f"  column means ~ 0: max |mean| = {np.abs(features.mean(axis=0)).max():.2e}")
stds = features.std(axis=0)
print(f"  column stds in {{0, 1}}: unique ~ "
      f"{sorted({float(s) for s in np.round(stds, 6)})[:3]}")

###############################################################################
# Shoppers from the same archetype land close together in this space. As a
# sanity check, the mean pairwise distance within an archetype should be
# clearly below the distance across archetypes.

from proxystream.clustering import cross_distances

distances = cross_distances(features, features)
same = truth.archetypes[:, None] == truth.archetypes[None, :]
off_diagonal = ~np.eye(len(codes), dtype=bool)
print(f"\nmean distance within archetypes: "
      f"{distances[same & off_diagonal].mean():.3f}")
print(f"mean distance across archetypes:  {distances[~same].mean():.3f}")
