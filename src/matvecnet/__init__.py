"""Exact construction and verification of product-approximating ReLU networks.

The package builds, by explicit layer lists, feedforward ReLU networks that
compute or approximate linear-algebra primitives: an exact identity, exact
affine maps with closed-form connectivity, and approximators for squaring,
scalar products, dot products, and real or complex matrix-vector products
with certified accuracy and size budgets. Everything evaluates in plain
double precision with deterministic accumulation, so error measurements are
bit-reproducible.
"""

from .calculus import (
    compose_selection,
    concatenate,
    identity_fnn,
    match_depth,
    parallelize_disjoint,
    parallelize_shared,
    superpose,
)
from .constructors import (
    KINDS,
    BoundBudget,
    ConstructionRecord,
    affine_representation,
    complex_matvec_net,
    dot_product_net,
    matvec_net,
    predicted_budget,
    sawtooth_order,
    scalar_product_net,
    square_net,
    square_net_of_order,
)
from .datasets import (
    Dataset,
    equispaced_real_dataset,
    load_dataset,
    pack_complex,
    pack_matvec,
    qpsk_rayleigh_dataset,
    save_dataset,
    unpack_complex,
    unpack_matvec,
)
from .interchange import load_fnn, save_fnn
from .network import (
    Fnn,
    Layer,
    NetworkMetrics,
    StructureError,
    evaluate,
    evaluate_batch,
    jacobian,
    metrics,
    preactivations,
    validate,
)
from .rng import box_muller, stream, uniform_rows
from .verification import (
    BudgetCompliance,
    ErrorReport,
    REPORT_COLUMNS,
    check_budget,
    dataset_error_report,
    matvec_truth,
    probe_inputs,
    report_lines,
    report_row,
    sobolev_error_matvec,
    square_error_curve,
    square_error_report,
    square_slope_sup,
    sup_error_matvec,
    verify_network,
)

__version__ = "0.1.0"

__all__ = [
    "BoundBudget",
    "BudgetCompliance",
    "ConstructionRecord",
    "Dataset",
    "ErrorReport",
    "Fnn",
    "KINDS",
    "Layer",
    "NetworkMetrics",
    "REPORT_COLUMNS",
    "StructureError",
    "affine_representation",
    "box_muller",
    "check_budget",
    "complex_matvec_net",
    "compose_selection",
    "concatenate",
    "dataset_error_report",
    "dot_product_net",
    "equispaced_real_dataset",
    "evaluate",
    "evaluate_batch",
    "identity_fnn",
    "jacobian",
    "load_dataset",
    "load_fnn",
    "match_depth",
    "matvec_net",
    "matvec_truth",
    "metrics",
    "pack_complex",
    "pack_matvec",
    "parallelize_disjoint",
    "parallelize_shared",
    "preactivations",
    "predicted_budget",
    "probe_inputs",
    "qpsk_rayleigh_dataset",
    "report_lines",
    "report_row",
    "save_dataset",
    "save_fnn",
    "sawtooth_order",
    "scalar_product_net",
    "sobolev_error_matvec",
    "square_error_curve",
    "square_error_report",
    "square_net",
    "square_net_of_order",
    "square_slope_sup",
    "stream",
    "sup_error_matvec",
    "superpose",
    "unpack_complex",
    "uniform_rows",
    "unpack_matvec",
    "validate",
    "verify_network",
]
