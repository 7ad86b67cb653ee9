"""Verification flow, empirical error estimators, size-budget checks, and report plumbing.

:func:`verify_network` is the one verification flow: a network's
construction record picks the domain (the squaring grid, clipped QPSK data,
or the box plus probes), the size budget and the verdict. The command line
and the scripts call it and only print what it returns.

The sup-norm estimators here are Monte-Carlo lower bounds of the true sup:
a reported value above the guarantee is a definitive counterexample, while
a value below it is evidence, not proof. Random samples are drawn from the
per-index streams of :mod:`.rng`, a whole chunk at a time through
:func:`.rng.uniform_rows`, so reports are bit-reproducible for a given
(network, seed, sample count) and the sample set for k samples is a prefix
of the set for any larger count. The reference products of a chunk are one
stacked :func:`matvec_truth` call. :func:`sobolev_error_matvec` draws a
chunk once too and runs it through one :func:`.network._batch` call, which
runs every evaluation in slices. It yields values and full Jacobians,
carried as sparse tangents over the plan's structural (neuron, input)
pairs, and flags samples on a kink as it goes, slice by slice, with one
workspace per call. It redraws only the kinked indices, on lanes 1, 2, ...,
with one draw and one ``_batch`` call per lane over the span from the
chunk's first to its last pending index; it then subtracts the reference
Jacobians in place, where they are nonzero, and takes sums in per-sample
order. Slice heights are ``_batch``'s own, from the network's width and
its widest pair kernel. :func:`dataset_error_report` evaluates a stored
dataset in one ``_batch`` call and reduces with one ``np.mean``;
:func:`square_error_report` is that on a fixed grid.

Every estimator evaluates through the network's plan of distinct neurons
(see :mod:`.network`), built once per call before any thread pool starts:
fewer rows per layer, the same bits. Building a plan costs one to a few
milliseconds, a few one-row evaluations, so one-off calls such as
:func:`.network.evaluate_batch` on a handful of rows keep to the stored
layers, while an estimator call evaluates thousands of rows.

The value estimators then drop the neurons proven never active where
their inputs lie (:func:`.network._live`), again with the same bits:
:func:`sup_error_matvec` on the box [-D, D]^N0, which holds every sample
and probe, and :func:`dataset_error_report` on the per-column min and max
of the rows, so the squaring grid of :func:`square_error_report` is covered
too. A row holding nan or inf leaves every neuron in. At the two operating
points this drops about a quarter of the hidden neurons and half of the
kernel entries, in a few milliseconds per call.
:func:`sobolev_error_matvec` keeps the distinct plan: its kink screen reads
every hidden pre-activation, and a dropped neuron's would be gone.

Alongside the random samples, :func:`sup_error_matvec` always evaluates a
deterministic probe set: the origin, the all +D and all -D corners, the two
one-factor-zero points (W = 0 with x at +D, and x = 0 with W at +D), and
all sign patterns of +-D on the first min(N_0, 8) coordinates with the
remaining coordinates at +D. Probes participate in the sup only; the mean
squared error averages over the random samples alone, so its value has a
clean interpretation as an expectation under the uniform distribution.

Worker counts never change results: the sample index range is cut into
fixed chunks, each chunk is processed identically whether inline or on a
thread pool, max-reductions are order-independent, and sum-reductions
combine the per-chunk partial sums in chunk index order.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Any, Callable

import numpy as np

from .constructors import KINDS, BoundBudget, square_net_of_order
from .datasets import Dataset, _matvec, qpsk_rayleigh_dataset, unpack_matvec
from .network import (
    Fnn, NetworkMetrics, _batch, _distinct, _live, _tangents, jacobian, metrics,
)
from .rng import uniform_rows

__all__ = [
    "ErrorReport",
    "BudgetCompliance",
    "REPORT_COLUMNS",
    "matvec_truth",
    "probe_inputs",
    "sup_error_matvec",
    "sobolev_error_matvec",
    "dataset_error_report",
    "square_error_report",
    "square_error_curve",
    "square_slope_sup",
    "check_budget",
    "verify_network",
    "report_row",
    "report_lines",
    "metrics_line",
    "budget_line",
]

REDUCE_CHUNK = 2048

KINK_TOL = 1e-9

MAX_RESAMPLE_ATTEMPTS = 100


@dataclass(frozen=True)
class ErrorReport:
    """Empirical error summary of one verification run.

    ``sup_error`` is the max over all evaluated points (random samples plus
    any probes) of the max-norm deviation; ``mse`` is the mean over the
    random samples of the per-sample mean squared coordinate error;
    ``grad_sup_error`` is the max-norm Jacobian deviation when a derivative
    check ran, else None. ``kinks_skipped`` counts sample indices abandoned
    after repeated draws kept landing on rectifier kinks.
    """

    sup_error: float
    mse: float
    grad_sup_error: float | None
    sample_count: int
    seed: int
    domain_half_width: float
    kinks_skipped: int = 0


@dataclass(frozen=True)
class BudgetCompliance:
    """Measured metrics against a predicted budget, per-metric and overall.

    Depth compares against the ceiling of the (real-valued) depth bound.
    Connectivity and neuron flags are None when the budget claims no bound
    for them; None flags do not affect ``passed``.
    """

    measured: NetworkMetrics
    budget: BoundBudget
    depth_ok: bool
    width_ok: bool
    weight_ok: bool
    connectivity_ok: bool | None
    neuron_ok: bool | None

    @property
    def passed(self) -> bool:
        checked = [self.depth_ok, self.width_ok, self.weight_ok]
        checked += [x for x in (self.connectivity_ok, self.neuron_ok) if x is not None]
        return all(checked)


def matvec_truth(W: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Reference double-precision product the network outputs are judged by.

    Takes one (m, n) matrix and n-vector, or stacks (k, m, n) and (k, n)
    that are multiplied pair by pair in a single call. Each product is
    bit-equal to ``W @ x`` on that pair.
    """
    return _matvec(np.asarray(W), np.asarray(x))


def probe_inputs(m: int, n: int, D: float) -> np.ndarray:
    """Deterministic probe points for the packed matvec domain [-D, D]^N0."""
    width = n * (m + 1)
    rows = [np.zeros(width), np.full(width, D), np.full(width, -D)]
    w_zero = np.full(width, D)
    w_zero[: m * n] = 0.0
    x_zero = np.full(width, D)
    x_zero[m * n:] = 0.0
    rows += [w_zero, x_zero]
    signed = min(width, 8)
    for pattern in range(2 ** signed):
        row = np.full(width, D)
        for bit in range(signed):
            if pattern >> bit & 1:
                row[bit] = -D
        rows.append(row)
    return np.vstack(rows)


def _reduce_chunks(f: Fnn, m: int, n: int, samples: int, jobs: int, work: Callable) -> tuple:
    """The estimator flow: check arguments, run ``work`` on each chunk, reduce.

    ``work(lo, hi)`` samples, evaluates and compares indices lo..hi-1 and
    returns their (sup, grad_sup, total_sq, used, skipped).
    """
    width = n * (m + 1)
    if f.input_dim != width or f.output_dim != m:
        raise ValueError(
            f"packing mismatch: network is {f.input_dim} -> {f.output_dim}, "
            f"but a matvec of shape ({m}, {n}) packs {width} -> {m}"
        )
    if samples < 1:
        raise ValueError(f"samples must be positive, got {samples}")
    spans = [(lo, min(lo + REDUCE_CHUNK, samples)) for lo in range(0, samples, REDUCE_CHUNK)]
    if jobs <= 1 or len(spans) <= 1:
        parts = [work(lo, hi) for lo, hi in spans]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(lambda span: work(*span), spans))
    sups, grads, sums, used, skipped = zip(*parts)
    total_sq = 0.0
    for chunk_sq in sums:
        total_sq += chunk_sq
    return max(sups), max(grads), total_sq, sum(used), sum(skipped)


def _matvec_targets(xs: np.ndarray, m: int, n: int) -> np.ndarray:
    return matvec_truth(*unpack_matvec(xs, m, n))


def _uniform_rows(seed: int, lo: int, hi: int, width: int, D: float, lane: int = 0) -> np.ndarray:
    return uniform_rows(seed, lo, hi, width, lane) * (2.0 * D) - D


def sup_error_matvec(
    f: Fnn,
    m: int,
    n: int,
    D: float,
    samples: int,
    seed: int,
    jobs: int = 1,
) -> ErrorReport:
    """Empirical sup and mean squared error of a matvec-packed network.

    Draws `samples` uniform points with entries in [-D, D], adds the
    deterministic probes, and compares against the exact product. The probes
    enter the sup only, never the mean.
    """
    width = n * (m + 1)
    # Every sample is u * 2D - D for some u in [0, 1), and each probe entry is
    # 0 or +-D, so all lie between the images of u = 0 and u = 1.
    ends = np.array([0.0, 1.0]) * (2.0 * D) - D
    plan = _live(_distinct(f), ends.min(), ends.max())

    def work(lo: int, hi: int) -> tuple[float, float, float, int, int]:
        xs = _uniform_rows(seed, lo, hi, width, D)
        err = np.abs(_batch(plan, xs)[0] - _matvec_targets(xs, m, n))
        return float(np.max(err)), 0.0, float(np.sum(np.mean(err * err, axis=1))), hi - lo, 0

    sup, _, total_sq, _, _ = _reduce_chunks(f, m, n, samples, jobs, work)

    probes = probe_inputs(m, n, D)
    probe_err = np.abs(_batch(plan, probes)[0] - _matvec_targets(probes, m, n))
    sup = max(sup, float(np.max(probe_err)))

    return ErrorReport(
        sup_error=sup,
        mse=total_sq / samples,
        grad_sup_error=None,
        sample_count=samples,
        seed=int(seed),
        domain_half_width=float(D),
    )


def _subtract_matvec_jacobian(J: np.ndarray, rows: np.ndarray, m: int, n: int) -> np.ndarray:
    """J minus d(Wx)/d[vec(W), x], in place, for stacks J (k, m, width) and rows (k, width).

    Only the nonzero entries of the reference are subtracted: x_j at (i, j m + i)
    and W over the x block. The rest would subtract 0.0, which changes no bit
    of J, -0.0 included.
    """
    W, x = unpack_matvec(rows, m, n)
    i = np.arange(m)[:, None]
    J[:, i, np.arange(n) * m + i] -= x[:, None, :]
    J[:, :, n * m:] -= W
    return J


def sobolev_error_matvec(
    f: Fnn,
    m: int,
    n: int,
    D: float,
    samples: int,
    seed: int,
    jobs: int = 1,
) -> ErrorReport:
    """Value and first-derivative deviation at kink-avoiding random points.

    A draw is rejected when any hidden pre-activation magnitude falls below
    KINK_TOL, since the network Jacobian is ambiguous on a kink; rejected
    indices redraw on fresh stream lanes, up to MAX_RESAMPLE_ATTEMPTS, then
    get skipped and counted. No probes here: the deterministic probes sit
    exactly on kinks by design. A chunk and each of its redraw lanes run as
    one :func:`.network._batch` call, which yields values and Jacobians and
    screens every hidden pre-activation block for kinks on the way, slice by
    slice.
    """
    width = n * (m + 1)
    plan = _distinct(f)
    tangents = _tangents(plan)

    def screened(xs: np.ndarray):
        """Values, Jacobians and an off-kink flag per row, in one pass."""
        ok = np.ones(len(xs), dtype=bool)

        def screen(rows: slice, k: int, Z: np.ndarray) -> None:
            ok[rows] &= np.all(np.abs(Z) >= KINK_TOL, axis=0)

        return (*_batch(plan, xs, tangents, screen), ok)

    def work(lo: int, hi: int) -> tuple[float, float, float, int, int]:
        xs = _uniform_rows(seed, lo, hi, width, D)
        values, jacobians, ok = screened(xs)
        pending = np.flatnonzero(~ok)
        for lane in range(1, MAX_RESAMPLE_ATTEMPTS):
            if not pending.size:
                break
            # One draw over the span of pending indices; rows depend on
            # (seed, index, lane) alone, so the others are dropped unused.
            first = int(pending[0])
            redraw = _uniform_rows(
                seed, lo + first, lo + int(pending[-1]) + 1, width, D, lane,
            )[pending - first]
            r_values, r_jacobians, ok = screened(redraw)
            hit = pending[ok]
            xs[hit], values[hit], jacobians[hit] = redraw[ok], r_values[ok], r_jacobians[ok]
            pending = pending[~ok]
        if pending.size:
            xs, values, jacobians = (np.delete(a, pending, axis=0) for a in (xs, values, jacobians))
            if not len(xs):
                return 0.0, 0.0, 0.0, 0, pending.size
        err = np.abs(values - _matvec_targets(xs, m, n))
        # In place: a chunk's Jacobians take 4.7 MB at matvec(8,4).
        dev = np.abs(_subtract_matvec_jacobian(jacobians, xs, m, n), out=jacobians)
        total_sq = 0.0
        # Summed sample by sample in index order, like a per-sample loop.
        for sq in np.mean(err * err, axis=1).tolist():
            total_sq += sq
        return float(np.max(err)), float(np.max(dev)), total_sq, len(xs), pending.size

    sup, grad, total_sq, used, skipped = _reduce_chunks(f, m, n, samples, jobs, work)
    return ErrorReport(
        sup_error=sup,
        mse=total_sq / used if used else 0.0,
        grad_sup_error=grad,
        sample_count=samples,
        seed=int(seed),
        domain_half_width=float(D),
        kinks_skipped=skipped,
    )


def dataset_error_report(f: Fnn, ds: Dataset) -> ErrorReport:
    """Sup and mean squared error of a network against stored targets."""
    if ds.inputs.shape[1] != f.input_dim or ds.targets.shape[1] != f.output_dim:
        raise ValueError(
            f"dimension mismatch: dataset is {ds.inputs.shape[1]} -> "
            f"{ds.targets.shape[1]}, network is {f.input_dim} -> {f.output_dim}"
        )
    # Per-column bounds prove neurons dead on the rows themselves; nan or inf
    # in a column, or no rows, leaves every neuron in.
    plan = _live(_distinct(f), ds.inputs.min(axis=0, initial=np.inf),
                 ds.inputs.max(axis=0, initial=-np.inf))
    err = np.abs(_batch(plan, ds.inputs)[0] - ds.targets)
    half = ds.meta.get("clip", ds.meta.get("half_width", 0.0))
    return ErrorReport(
        sup_error=float(np.max(err)),
        mse=float(np.mean(np.mean(err * err, axis=1))),
        grad_sup_error=None,
        sample_count=len(ds),
        seed=int(ds.meta.get("seed", 0)),
        domain_half_width=float(half),
    )


def square_error_report(net: Fnn) -> ErrorReport:
    """Error of a squaring network against x^2 on the 2^14 + 1 point grid of [0, 1].

    The grid contains the dyadic midpoints where the interpolation error
    peaks for every order up to 12, so up there the observed sup equals the
    law 2^(-2(m+1)) up to evaluation roundoff. The grid is a fixed
    :class:`.datasets.Dataset` run through :func:`dataset_error_report`, so
    the report's seed is 0.
    """
    grid = np.linspace(0.0, 1.0, 2 ** 14 + 1)[:, None]
    return dataset_error_report(net, Dataset(grid, grid * grid, {"seed": 0, "half_width": 1.0}))


def square_error_curve(max_order: int) -> list[tuple[int, float]]:
    """Observed sup of |f_m(x) - x^2| on the grid of :func:`square_error_report`, per order."""
    if not 0 <= max_order <= 24:
        raise ValueError(f"max_order must lie in [0, 24], got {max_order}")
    return [
        (order, square_error_report(square_net_of_order(order)).sup_error)
        for order in range(max_order + 1)
    ]


def square_slope_sup(net: Fnn, points: int = 4096) -> float:
    """Max |derivative| of a squaring network over off-kink interior points.

    Evaluates the Jacobian at the midpoints (i + 1/2) / points of [0, 1];
    with points a power of two at least 2^(order + 1), every midpoint keeps
    a positive distance from the sawtooth kinks, which all sit on dyadic
    grid points.
    """
    xs = (np.arange(points) + 0.5) / points
    return float(np.max(np.abs(jacobian(net, xs[:, None])), initial=0.0))


def check_budget(f: Fnn, budget: BoundBudget) -> BudgetCompliance:
    """Compare a network's measured size against a predicted budget."""
    got = metrics(f)
    return BudgetCompliance(
        measured=got,
        budget=budget,
        depth_ok=got.depth <= math.ceil(budget.depth_bound),
        width_ok=got.max_width <= budget.width_bound,
        weight_ok=got.max_weight <= budget.weight_bound,
        connectivity_ok=(
            None if budget.connectivity_bound is None
            else got.connectivity <= budget.connectivity_bound
        ),
        neuron_ok=(
            None if budget.neuron_bound is None
            else got.neurons <= budget.neuron_bound
        ),
    )


def verify_network(
    net: Fnn,
    samples: int,
    seed: int,
    jobs: int = 1,
    sobolev: bool = False,
    C: float = 2.0,
) -> tuple[ErrorReport, BudgetCompliance, bool]:
    """Check a network against the claims its construction record makes.

    The record picks the domain: the squaring grid of
    :func:`square_error_report` (reported under ``seed``), ``samples`` clipped
    QPSK/Rayleigh rows with ``clip=D`` and the zero-channel probe row for the
    complex kind, or the box
    [-D, D]^N0 plus probes of :func:`sup_error_matvec` otherwise. With
    ``sobolev`` a matvec-packed network is also run through
    :func:`sobolev_error_matvec` on the same samples, which adds the
    gradient sup and the skipped-kink count to the report. The budget is the
    record's :meth:`.constructors.ConstructionRecord.budget` under depth
    constant ``C``. The verdict holds when every checked error is at most the
    record's eps and the budget passes. Only the box and Sobolev checks use
    ``jobs``.
    """
    record = net.record
    if record is None:
        raise ValueError("network file carries no construction record to verify against")
    if KINDS[record.kind].builder is None:
        raise ValueError(f"{record.kind} networks carry no target accuracy to verify")
    eps = record.eps
    if eps is None:
        raise ValueError("construction record has no eps")
    compliance = check_budget(net, record.budget(C))
    if samples < 1:
        raise ValueError(f"samples must be positive, got {samples}")

    if sobolev and record.kind in ("square", "complex_matvec"):
        raise ValueError("--sobolev applies to matvec-packed networks only")
    if record.kind == "square":
        report = replace(square_error_report(net), seed=seed)
    elif record.kind == "complex_matvec":
        ds = qpsk_rayleigh_dataset(record.m, record.n, samples, clip=record.D, seed=seed)
        report = dataset_error_report(net, ds)
    else:
        rows = 1 if record.m is None else record.m
        cols = 1 if record.n is None else record.n
        report = sup_error_matvec(net, rows, cols, record.D, samples, seed, jobs=jobs)
    worst = report.sup_error
    if sobolev:  # a matvec-packed network, checked above
        sob = sobolev_error_matvec(net, rows, cols, record.D, samples, seed, jobs=jobs)
        report = replace(
            report, grad_sup_error=sob.grad_sup_error, kinks_skipped=sob.kinks_skipped,
        )
        worst = max(worst, sob.sup_error, sob.grad_sup_error)
    return report, compliance, worst <= eps and compliance.passed


REPORT_COLUMNS = [
    "kind",
    "m",
    "n",
    "D",
    "eps",
    "samples",
    "seed",
    "sup_error",
    "mse",
    "grad_sup_error",
    "L",
    "M",
    "N",
    "W",
    "B",
    "depth_ok",
    "width_ok",
    "weight_ok",
]


def _cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "pass" if value else "FAIL"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def report_row(
    f: Fnn,
    report: ErrorReport,
    compliance: BudgetCompliance | None = None,
) -> list[str]:
    """One CSV row in REPORT_COLUMNS order. Floats use round-trip repr."""
    record = f.record
    got = compliance.measured if compliance is not None else metrics(f)
    values = [
        record.kind if record is not None else "",
        record.m if record is not None else None,
        record.n if record is not None else None,
        record.D if record is not None else None,
        record.eps if record is not None else None,
        report.sample_count,
        report.seed,
        report.sup_error,
        report.mse,
        report.grad_sup_error,
        got.depth,
        got.connectivity,
        got.neurons,
        got.max_width,
        got.max_weight,
        compliance.depth_ok if compliance is not None else None,
        compliance.width_ok if compliance is not None else None,
        compliance.weight_ok if compliance is not None else None,
    ]
    return [_cell(v) for v in values]


def metrics_line(got: NetworkMetrics) -> str:
    """The ``metrics:`` line of the build and verify summaries."""
    return (
        f"metrics: L={got.depth} M={got.connectivity} N={got.neurons} "
        f"W={got.max_width} B={_cell(got.max_weight)}"
    )


def budget_line(compliance: BudgetCompliance) -> str:
    """The ``budget:`` line of the build and verify summaries."""
    got, b = compliance.measured, compliance.budget
    return (
        f"budget: depth {got.depth} <= ceil({_cell(b.depth_bound)}) "
        f"[{_cell(compliance.depth_ok)}], "
        f"width {got.max_width} <= {_cell(b.width_bound)} "
        f"[{_cell(compliance.width_ok)}], "
        f"weight {_cell(got.max_weight)} <= {_cell(b.weight_bound)} "
        f"[{_cell(compliance.weight_ok)}]"
    )


def report_lines(
    f: Fnn,
    report: ErrorReport,
    compliance: BudgetCompliance | None = None,
) -> list[str]:
    """Human-readable summary mirroring the CSV row."""
    got = compliance.measured if compliance is not None else metrics(f)
    record = f.record
    lines = []
    if record is not None:
        params = ", ".join(
            f"{name}={value}"
            for name, value in (
                ("m", record.m), ("n", record.n),
                ("D", record.D), ("eps", record.eps),
                ("sawtooth_order", record.sawtooth_order),
            )
            if value is not None
        )
        lines.append(f"network: {record.kind} ({params})")
        lines.append(f"packing: {record.input_packing}")
    lines.append(metrics_line(got))
    lines.append(
        f"errors: sup={_cell(report.sup_error)} mse={_cell(report.mse)}"
        + (
            f" grad_sup={_cell(report.grad_sup_error)}"
            if report.grad_sup_error is not None
            else ""
        )
        + f" samples={report.sample_count} seed={report.seed}"
    )
    if report.kinks_skipped:
        lines.append(f"kink-skipped samples: {report.kinks_skipped}")
    if compliance is not None:
        lines.append(budget_line(compliance))
        lines.append(f"budget overall: {_cell(compliance.passed)}")
    return lines
