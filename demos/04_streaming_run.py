"""
A full prequential run, step by step
====================================

One call to `run_stream` drives the whole loop: select the step's training
entities, encode, cluster, average into proxies, update the incremental
model, predict for the prediction batch, and resolve earlier predictions
once their ground truth arrives. This script runs both use cases at a
moderate capacity and prints what happens at every step.
"""
from proxystream.pipeline import run_stream
from proxystream.synthetic import (
    archetype_invoice_spec,
    archetype_shopper_spec,
    generate_invoice_stream,
    generate_shopper_stream,
)
from proxystream.usecases import PaintFactoryUseCase, SupermarketUseCase

###############################################################################
# Supermarket: weekly steps, rho=8. Training runs before prediction within
# a step, so the model is already warm for the first prediction here. From
# the second step on, the prediction-phase encodings and partition of step
# t are reused as the training artifacts of step t+1, which is why `reused`
# flips to yes. The final step's metrics are NA: its predictions resolve
# only when the next week's spend arrives, and the run ends first.


def short(value: float | None) -> str:
    return "NA" if value is None else f"{value:.3f}"


store, _ = generate_shopper_stream(
    archetype_shopper_spec(n_entities=600, horizon=16, seed=3))
result = run_stream(store, SupermarketUseCase(tau=3), 8, seed=0)

values = {}
for step, metric, value in result.metrics.value_rows():
    values.setdefault(step, {})[metric] = value

print("supermarket, rho=8")
print("  step  train->k   pred->k  reused  predicted  entity_rmse  cluster_rmse")
for step in result.steps:
    metrics = values.get(step.step, {})
    print(f"  {step.step:>4}  {step.n_train:>5}->{step.k_train:<3} "
          f"{step.n_pred:>5}->{step.k_pred:<3} "
          f"{'yes' if step.reused_encoding else ' no':>6}  "
          f"{'yes' if step.predicted else ' no':>9}  "
          f"{short(metrics.get('entity_rmse')):>11}  "
          f"{short(metrics.get('cluster_rmse')):>12}")

print("  averages:", {name: short(value)
                      for name, value in result.metrics.averages.items()})

###############################################################################
# The ledger keeps every prediction with its cluster context. Predictions
# made at step t against next week's spend resolve one step later, so the
# final step's are still open when the run ends.

open_predictions = [r for r in result.ledger.records if r.truth is None]
print(f"\n  ledger: {len(result.ledger.records)} predictions, "
      f"{len(open_predictions)} still unresolved (the final step's)")
sample = result.ledger.resolved_records()[0]
print(f"  first resolved record: step {sample.step}, shopper {sample.entity_id}, "
      f"cluster of {sample.cluster_size}, predicted {sample.predicted:.1f}, "
      f"truth {sample.truth:.1f}")

###############################################################################
# Paint factory: daily steps, one prediction per invoice on its creation
# day, resolved as soon as the receipt is recorded — possibly the same day.
# Entities cannot be re-selected for training, so each case is trained on
# exactly once, the day after its receipt.

invoices, truth = generate_invoice_stream(
    archetype_invoice_spec(n_entities=500, horizon=40, seed=3))
invoice_result = run_stream(invoices, PaintFactoryUseCase(), 10, seed=0)

predicted = sum(s.n_pred for s in invoice_result.steps if s.predicted)
print("\npaint factory, rho=10")
print(f"  {len(invoice_result.steps)} daily steps, {predicted} invoice predictions "
      f"({invoices.entity_count} invoices in the stream)")
print("  averages:", {name: short(value)
                      for name, value in invoice_result.metrics.averages.items()})

###############################################################################
# Every resolved prediction's truth equals the invoice's actual duration.

resolved = invoice_result.ledger.resolved_records()
case_index = {case: i for i, case in enumerate(truth.entity_ids)}
gaps = [abs(record.truth - truth.durations[case_index[record.entity_id]])
        for record in resolved]
print(f"  resolved truths match generator durations: "
      f"max gap {max(gaps):.2e} over {len(resolved)} cases")

###############################################################################
# Determinism: the same config and seed reproduce the run bit for bit.

rerun = run_stream(store, SupermarketUseCase(tau=3), 8, seed=0)
matches = result.ledger.columns.tobytes() == rerun.ledger.columns.tobytes()
print(f"\nsame seed, same predictions: {matches}")
