"""Streaming predictions on event streams via clustered proxy entities.

The package turns an entity-attributed event stream into prequential
predictions: at each step, selected entities are encoded, partitioned into
ceil(n / rho) clusters, and averaged into proxy entities that an incremental
regressor trains and predicts on; every entity inherits its proxy's
prediction, and predictions are scored once their ground truth arrives.
"""
from __future__ import annotations

__version__ = "0.1.0"

from .clustering import (
    DistanceSpec,
    Partition,
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
from .encoding import (
    InvoiceEncoding,
    encode_journeys,
    invoice_encoding,
    journey_row_names,
    linear_fit_batch,
    standardize_columns,
    weekly_spend,
)
from .events import (
    AttributeField,
    EventStore,
    SchemaError,
    TimeWindow,
)
from .filtering import (
    INVOICE_ATTRIBUTES,
    RIR_LABEL,
    VCI_LABEL,
    FilterReport,
    bpic19_log_schema,
    filter_invoice_cases,
    invoice_log_schema,
)
from .logio import ColumnSpec, LogSchema, read_event_log, write_event_log
from .metrics import (
    METRIC_NAMES,
    MetricReport,
    cluster_rmse,
    entity_rmse,
    top_decile_f1,
    turnover_ape,
)
from .models import ColdStartError, ModelSpec, OnlineMLP, RecursiveLeastSquares, init_model
from .pipeline import EvaluationLedger, RunResult, StepResult, compute_metrics, run_stream
from .sweep import (
    RunConfig,
    SweepConfig,
    execute_run,
    execute_sweep,
    expand_grid,
    load_run_config,
    load_sweep_config,
    run_id_for,
    write_run_outputs,
    write_sweep_outputs,
)
from .synthetic import (
    InvoiceStreamSpec,
    ShopperStreamSpec,
    archetype_invoice_spec,
    archetype_shopper_spec,
    generate_invoice_stream,
    generate_shopper_stream,
    noise_dominated_shopper_spec,
)
from .usecases import PaintFactoryUseCase, SupermarketUseCase

__all__ = [name for name in dir() if not name.startswith("_")]
