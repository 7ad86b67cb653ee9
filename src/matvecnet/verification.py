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
call of :func:`.datasets._targets`, the package's one reference product;
this module holds no product or Jacobian arithmetic of its own.

Every error check is one function, :func:`_report`, fed by a row source:
``rows(a, b)`` gives the inputs and targets of rows a..b-1, and a box
[lo, hi] holds every row. There are three sources. The box estimator,
:func:`_box`, draws rows uniform on [-D, D]^N0 and may add the probes
below; :func:`sup_error_matvec`, :func:`sobolev_error_matvec` and the box
kinds of :func:`verify_network` call it. :func:`dataset_error_report`
slices a stored dataset, and :func:`square_error_report` is that on a
fixed grid. The complex kind of :func:`verify_network` draws clipped
QPSK/Rayleigh rows, each chunk as four of the 512-row blocks of
:func:`.datasets.qpsk_rayleigh_dataset`. Its report is that dataset's,
bit for bit, but no thread holds more than a chunk of rows. ``matvecnet
verify`` at complex_matvec(8,4,D=3) peaks at 64 MiB (``ru_maxrss``, a
2-core Xeon) at both 10^5 and 3 x 10^5 samples. Holding the whole dataset
took 130 and 264 MiB.

:func:`_report` also writes the reports. The sample indices, or a
dataset's rows, are cut into fixed chunks of ``REDUCE_CHUNK``; each chunk
compares its values through :func:`_errors`, which gives the chunk's sup
and the ``np.sum`` of its rows' mean squares. The chunks run on a thread
pool of ``jobs`` workers, each drawing or slicing its own rows, or inline;
the sups are maxed and the partial sums added in chunk index order, so
worker counts never change a result. A narrow network's chunks run inline
whatever ``jobs`` asks for: one whose live plan has fewer than
``POOL_ENTRIES`` kernel entries. Its numpy calls are too short for a
second thread to pay for handing the GIL back and forth. Forced onto two
threads, a check at matvec(2,2,D=1) (492 entries) ran at 0.72-0.86x its
one-thread speed, checks between 2,000 and 3,300 entries at 0.85-1.17x,
and one at matvec(8,4,D=2) (4,987) at 1.06-1.23x (medians of 15
alternated calls of 4,096 and 8,192 samples on a shared 2-core Xeon; the
README has the table). Every row source checks the network's input and
output widths against its rows through :func:`_dims`; the box and QPSK
sources compute theirs from m and n before they build any layout
positions, so a record that claims a huge m is refused without allocating
for it. The box estimator also checks the sample count, and every check
the worker count, through :func:`_count`: an integer of at least 1, never a
bool. D must be positive with 2D finite, so that every sample u * 2D - D
lies in [-D, D].

Values and first derivatives are checked in one pass. Box rows can be
drawn on any stream lane, and their exact Jacobians are known
(:func:`.datasets._subtract_jacobian`); given that, :func:`_report` gives a
derivative report beside the value report. Each chunk is drawn once and
runs through one :func:`.network._batch` call, which runs every evaluation
in slices. It yields values and full Jacobians, carried as sparse tangents
over the plan's structural (neuron, input) pairs, and flags samples on a
kink as it goes, slice by slice, with one workspace per call. The value
report takes every row as drawn, as a value-only check would. The
derivative report redraws only the kinked indices, on lanes 1, 2, ...,
with one draw and one ``_batch`` call per lane over the span from the
chunk's first to its last pending index; it then subtracts the reference
Jacobians in place, where they are nonzero. Slice heights are ``_batch``'s
own, from the network's width and its widest pair kernel. A value-only
check runs plain ``_batch`` calls, with no tangents and no kink screen.
``verify_network(..., sobolev=True)`` at matvec(8,4,D=2) with 10^5 samples
took 1.92-1.93 s with ``jobs=1`` and 1.49-1.50 s with ``jobs=2`` as two
passes, one per check, and takes 1.53-1.55 and 1.20-1.21 s as one (medians
of 3, two alternated rounds on a shared 2-core Xeon).

Every estimator evaluates through the network's plan of distinct neurons
(see :mod:`.network`), built once per network and box before any thread
pool starts: fewer rows per layer, the same bits. Building a plan takes
about 2-3 ms at the real point matvec(8,4,D=2) and 6 ms at the complex
point complex_matvec(8,4,D=3), and :func:`.network._live` about 3 and 6
ms more (medians of 9 builds, three runs of ``scripts/plan_census.py`` on
a shared 2-core Xeon), so one-off calls such as
:func:`.network.evaluate_batch` on a handful of rows keep to the stored
layers, while an estimator call evaluates thousands of rows. The network
keeps both plans, and the live plan's pair kernels, for its last box, so
a second check of one network on one box builds none of them.

Every estimator then drops the neurons proven never active where its
inputs lie (:func:`.network._live`), again with the same bits:
:func:`sup_error_matvec` and :func:`sobolev_error_matvec` on the box
[-D, D]^N0, which holds every sample and probe,
:func:`dataset_error_report` on the per-column min and max of the rows, so
the squaring grid of :func:`square_error_report` is covered too, and the
complex kind on the box its generator guarantees: [-clip, clip] on the
channel columns and +-1/sqrt(2) on the symbol columns. A row holding nan
or inf leaves every neuron in. At the two operating points this
drops about a quarter of the hidden neurons and half of the kernel entries,
in the times above. The Sobolev kink screen then sees only the
neurons left: a dropped neuron is identically 0 on the box, so it is no
kink of the function, and its Jacobian mask is 0 wherever it is evaluated.

Alongside the random samples, :func:`sup_error_matvec` always evaluates a
deterministic probe set: the origin, the all +D and all -D corners, the two
one-factor-zero points (W = 0 with x at +D, and x = 0 with W at +D), and
all sign patterns of +-D on the first min(N_0, 8) coordinates with the
remaining coordinates at +D. Probes participate in the sup only; the mean
squared error averages over the random samples alone, so its value has a
clean interpretation as an expectation under the uniform distribution.
"""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Any, Callable

import numpy as np

from .constructors import KINDS, BoundBudget, square_net_of_order
from .datasets import (
    _QPSK_LEVEL, Dataset, _layout, _qpsk_chunk, _subtract_jacobian, _targets, _width, matvec_truth,
    pack_matvec,
)
from .network import Fnn, NetworkMetrics, _batch, jacobian, metrics
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

# A check whose live plan has fewer kernel entries than this runs its chunks
# in the calling thread whatever ``jobs`` asks for: its numpy calls are too
# short for a second thread to gain what handing the GIL back and forth costs.
POOL_ENTRIES = 3072


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
    """

    measured: NetworkMetrics
    budget: BoundBudget
    depth_ok: bool
    width_ok: bool
    weight_ok: bool

    @property
    def passed(self) -> bool:
        return all((self.depth_ok, self.width_ok, self.weight_ok))


def probe_inputs(m: int, n: int, D: float) -> np.ndarray:
    """Deterministic probe points for the packed matvec domain [-D, D]^N0."""
    W, x = np.full((m, n), D), np.full(n, D)
    corner = pack_matvec(W, x)
    signed = min(corner.size, 8)
    # Row p flips coordinate b to -D where bit b of p is set.
    flips = np.arange(2 ** signed)[:, None] >> np.arange(signed) & 1
    patterns = np.tile(corner, (2 ** signed, 1))
    patterns[:, :signed] = np.where(flips, -D, D)
    return np.vstack([np.zeros_like(corner), corner, -corner,
                      pack_matvec(np.zeros_like(W), x), pack_matvec(W, np.zeros_like(x)), patterns])


def _errors(values: np.ndarray, targets: np.ndarray) -> tuple[float, float]:
    """The sup of |values - targets| and the sum over rows of each row's mean square.

    No rows give (0.0, 0.0).
    """
    err = np.abs(values - targets)
    return float(np.max(err, initial=0.0)), float(np.sum(np.mean(err * err, axis=1)))


def _report(f: Fnn, count: int, rows: Callable, lo, hi, seed: int, half: float, jobs: int,
            probes: tuple[np.ndarray, np.ndarray] | None = None,
            box: tuple[Callable, int, int] | None = None) -> list[ErrorReport]:
    """Every error check of ``f`` over rows 0..count-1: the value report, then any derivative one.

    ``rows(a, b)`` gives the inputs and targets of rows a..b-1, all inside
    [lo, hi], the box whose live plan the network proves once and keeps
    (:meth:`.network.Fnn._live_plan`), before any thread starts.
    ``probes``, a pair of inputs and targets inside [lo, hi] too, enter the
    value report's sup only. ``jobs`` must be an integer of at least 1.

    The indices are cut into fixed chunks of ``REDUCE_CHUNK``, each drawn or
    sliced, evaluated and compared by one call of ``work``, on a pool of
    ``jobs`` threads, or inline where ``jobs`` is 1, there is one chunk, or
    the live plan has fewer than ``POOL_ENTRIES`` kernel entries. Per
    report, the chunk sups are maxed (the probes' last), the skipped counts
    summed and the chunks' sums of squares added in chunk order, so no
    report depends on ``jobs``. The mean squared error is over the indices
    not skipped, and 0.0 when every one was.

    ``box = (draw, m, n)`` adds the derivative report, from the same pass.
    It says that the rows are (m, n) matvec packings and that ``draw(a, b,
    lane)`` gives rows a..b-1 on any stream lane; ``rows`` gives lane 0. The
    plan's pair kernels are then built once and kept with it, and each
    chunk runs as one ``_batch`` call that yields values and Jacobians and
    screens every hidden pre-activation block for kinks. The value report
    takes the rows as drawn. The derivative report redraws the rows on a
    kink: each lane is one draw and one ``_batch`` call over the span of
    the pending indices, up to MAX_RESAMPLE_ATTEMPTS lanes, and the indices
    still on a kink are skipped and counted. Where a row moved, the targets are one reference
    call over the chunk's final rows.
    """
    jobs = _count("jobs", jobs, "an integer of at least 1")
    plan, tangents = f._live_plan(lo, hi, pairs=box is not None)

    def screened(xs: np.ndarray):
        """Values, Jacobians and an off-kink flag per row, in one pass."""
        ok = np.ones(len(xs), dtype=bool)

        def screen(rows: slice, k: int, Z: np.ndarray) -> None:
            ok[rows] &= np.all(np.abs(Z) >= KINK_TOL, axis=0)

        return (*_batch(plan, xs, tangents, screen), ok)

    def work(start: int, stop: int) -> list[tuple]:
        """Each report's (sup, sum of squares, grad sup or None, skipped) over start..stop-1."""
        xs, targets = rows(start, stop)
        if tangents is None:
            return [(*_errors(_batch(plan, xs)[0], targets), None, 0)]
        draw, m, n = box
        values, jacobians, ok = screened(xs)
        value = (*_errors(values, targets), None, 0)
        kinked = pending = np.flatnonzero(~ok)
        for lane in range(1, MAX_RESAMPLE_ATTEMPTS):
            if not pending.size:
                break
            # One draw over the span of pending indices; rows depend on
            # (seed, index, lane) alone, so the others are dropped unused.
            first = int(pending[0])
            redraw = draw(start + first, start + int(pending[-1]) + 1, lane)[pending - first]
            r_values, r_jacobians, ok = screened(redraw)
            hit = pending[ok]
            xs[hit], values[hit], jacobians[hit] = redraw[ok], r_values[ok], r_jacobians[ok]
            pending = pending[~ok]
        if pending.size:
            xs, values, jacobians = (np.delete(a, pending, axis=0) for a in (xs, values, jacobians))
        if kinked.size:
            targets = _targets(xs, m, n)
        # In place: a chunk's Jacobians take 4.7 MB at matvec(8,4).
        dev = np.abs(_subtract_jacobian(jacobians, xs, m, n), out=jacobians)
        return [value, (*_errors(values, targets), float(np.max(dev, initial=0.0)), pending.size)]

    probe_sup = 0.0 if probes is None else _errors(_batch(plan, probes[0])[0], probes[1])[0]
    spans = [(a, min(a + REDUCE_CHUNK, count)) for a in range(0, count, REDUCE_CHUNK)]
    if jobs == 1 or len(spans) == 1 or sum(len(k.data) for k in plan.kernels) < POOL_ENTRIES:
        parts = [work(*span) for span in spans]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(lambda span: work(*span), spans))
    reports = []
    for chunks, last in zip(zip(*parts), (probe_sup, 0.0)):
        sups, sums, grads, skipped = zip(*chunks)
        total_sq = 0.0
        for chunk_sq in sums:
            total_sq += chunk_sq
        used = count - sum(skipped)
        reports.append(ErrorReport(
            sup_error=max(*sups, last),
            mse=total_sq / used if used else 0.0,
            grad_sup_error=None if None in grads else max(grads),
            sample_count=count,
            seed=int(seed),
            domain_half_width=float(half),
            kinks_skipped=count - used,
        ))
    return reports


def _count(name: str, value: Any, below: str) -> int:
    """``value`` as an int, where it is an integer of at least 1; else ``ValueError``.

    A bool is refused with any other non-integer; ``below`` says in the
    message what an integer below 1 should have been.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be {below}, got {value!r}")
    return int(value)


def _dims(f: Fnn, inputs: int, outputs: int, source: str = "dataset") -> None:
    """Refuse a network that does not map the rows' ``inputs`` columns to ``outputs``.

    ``source`` names the rows in the message.
    """
    if (f.input_dim, f.output_dim) != (inputs, outputs):
        raise ValueError(
            f"dimension mismatch: {source} is {inputs} -> {outputs}, "
            f"network is {f.input_dim} -> {f.output_dim}"
        )


def _box(f: Fnn, m: int, n: int, D: float, samples: int, seed: int, jobs: int,
         probes: bool, derivatives: bool) -> list[ErrorReport]:
    """The box estimator: ``samples`` rows uniform on [-D, D]^N0 against the exact product.

    The network must take the (m, n) matvec packing, ``samples`` must be an
    integer of at least 1, and D positive with 2D finite, so that every draw
    u * 2D - D lies in [-D, D]. Returns the value report, with the sup over
    :func:`probe_inputs` too where ``probes``, then with ``derivatives`` the
    derivative report of the same pass (see :func:`_report`).
    """
    width = _width(m, n)
    _dims(f, width, m, f"the ({m}, {n}) matvec packing")
    samples = _count("samples", samples, "positive")
    if not (D > 0 and math.isfinite(2.0 * D)):
        raise ValueError(f"D must be positive and 2D finite, got {D}")

    def draw(lo: int, hi: int, lane: int = 0) -> np.ndarray:
        return _uniform_rows(seed, lo, hi, width, D, lane)

    def pair(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return xs, _targets(xs, m, n)

    return _report(f, samples, lambda lo, hi: pair(draw(lo, hi)), -D, D, seed, D, jobs,
                   pair(probe_inputs(m, n, D)) if probes else None,
                   (draw, m, n) if derivatives else None)


def _uniform_rows(seed: int, lo: int, hi: int, width: int, D: float, lane: int = 0) -> np.ndarray:
    """Rows of uniforms on [-D, D]: ``u * 2D - D`` in place, the same two roundings."""
    u = uniform_rows(seed, lo, hi, width, lane)
    u *= 2.0 * D
    u -= D
    return u


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
    return _box(f, m, n, D, samples, seed, jobs, probes=True, derivatives=False)[0]


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
    KINK_TOL, since the network Jacobian is ambiguous on a kink; neurons
    proven never active on the box are left out, as they are of the plan
    (see :func:`.network._live`): each is identically 0 there. Rejected
    indices redraw on fresh stream lanes, up to MAX_RESAMPLE_ATTEMPTS, then
    get skipped and counted. No probes here: the deterministic probes sit
    exactly on kinks by design. This is the derivative report of the box
    estimator (:func:`_report`), whose one pass ``matvecnet verify
    --sobolev`` shares with the value check: a chunk and each of its redraw
    lanes run as one :func:`.network._batch` call, which yields values and
    Jacobians and screens every hidden pre-activation block for kinks on the
    way, slice by slice.
    """
    return _box(f, m, n, D, samples, seed, jobs, probes=False, derivatives=True)[1]


def dataset_error_report(f: Fnn, ds: Dataset, jobs: int = 1) -> ErrorReport:
    """Sup and mean squared error of a network against stored targets.

    The rows run through the chunked reduction of the box estimators, on
    ``jobs`` threads, with the same bits for every ``jobs``.
    """
    _dims(f, ds.inputs.shape[1], ds.targets.shape[1])
    if not len(ds):
        raise ValueError("the dataset has no rows")
    # Per-column bounds prove neurons dead on the rows themselves; nan or inf
    # in a column leaves every neuron in.
    half = ds.meta.get("clip", ds.meta.get("half_width", 0.0))
    return _report(f, len(ds), lambda lo, hi: (ds.inputs[lo:hi], ds.targets[lo:hi]),
                   ds.inputs.min(axis=0), ds.inputs.max(axis=0), ds.meta.get("seed", 0), half,
                   jobs)[0]


def _qpsk_report(f: Fnn, m: int, n: int, clip: float, samples: int, seed: int,
                 jobs: int) -> ErrorReport:
    """:func:`dataset_error_report` of ``qpsk_rayleigh_dataset(m, n, samples, clip, seed)``.

    The same report, bit for bit, but each chunk draws its own rows, so no
    more than a chunk of them is held per thread. The plan is proven on the
    box every row lies in: the channel columns in [-clip, clip], the symbol
    columns at +-1/sqrt(2); a bound of clip alone would be unsound for clip
    below 1/sqrt(2).
    """
    count = samples + 1  # and the zero-channel probe row
    # The widths first: a record's m and n may be too large to build positions for.
    _dims(f, _width(m, n, complex=True), 2 * m)
    _, width, (w1, w2, _, _) = _layout(m, n, complex=True)
    bound = np.full(width, _QPSK_LEVEL)
    bound[w1], bound[w2] = clip, clip
    return _report(f, count, lambda lo, hi: _qpsk_chunk(seed, lo, hi, count, clip, m, n)[:2],
                   -bound, bound, seed, clip, jobs)[0]


def _square_grid(seed: int = 0) -> Dataset:
    """x -> x^2 on the 2^14 + 1 equispaced points of [0, 1], under ``seed``."""
    grid = np.linspace(0.0, 1.0, 2 ** 14 + 1)[:, None]
    return Dataset(grid, grid * grid, {"seed": seed, "half_width": 1.0})


def square_error_report(net: Fnn) -> ErrorReport:
    """Error of a squaring network against x^2 on the 2^14 + 1 point grid of [0, 1].

    The grid contains the dyadic midpoints where the interpolation error
    peaks for every order up to 12, so up there the observed sup equals the
    law 2^(-2(m+1)) up to evaluation roundoff. The grid is a fixed
    :class:`.datasets.Dataset` run through :func:`dataset_error_report`, so
    the report's seed is 0.
    """
    return dataset_error_report(net, _square_grid())


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
    grid points. Any other ``points`` raises ``ValueError``: the order is
    the record's ``sawtooth_order``, 0 without one.
    """
    order = getattr(net.record, "sawtooth_order", None) or 0
    if points < 2 ** (order + 1) or points & (points - 1):
        raise ValueError(f"points must be a power of two of at least 2^{order + 1}, got {points}")
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
    complex kind, drawn chunk by chunk with the report of
    :func:`.datasets.qpsk_rayleigh_dataset` under
    :func:`dataset_error_report`, or the box
    [-D, D]^N0 plus probes of :func:`sup_error_matvec` otherwise. With
    ``sobolev`` a matvec-packed network's Jacobians are checked in the same
    pass over the same samples, as :func:`sobolev_error_matvec` checks
    them: the report is the value report with that check's gradient sup and
    skipped-kink count, and the verdict also takes its sup over the rows
    whose derivative was checked. When every sample was skipped on a kink,
    no derivative was checked and no verdict is given: ``ValueError``. The
    budget is the
    record's :meth:`.constructors.ConstructionRecord.budget` under depth
    constant ``C``. The verdict holds when every checked error is at most the
    record's eps and the budget passes. Every check runs its chunks on
    ``jobs`` threads, or inline on a narrow network (see :func:`_report`),
    with the same bits for every ``jobs``, an integer of at least 1.
    """
    record = net.record
    if record is None:
        raise ValueError("network file carries no construction record to verify against")
    if KINDS[record.kind].builder is None:
        raise ValueError(f"{record.kind} networks carry no target accuracy to verify")
    if record.eps is None:
        raise ValueError("construction record has no eps")
    compliance = check_budget(net, record.budget(C))
    samples = _count("samples", samples, "positive")

    if sobolev and record.kind in ("square", "complex_matvec"):
        raise ValueError("--sobolev applies to matvec-packed networks only")
    # The packed kinds leave m or n unset where it is 1; either is None or at least 1.
    m, n = record.m or 1, record.n or 1
    if record.kind == "square":
        report = dataset_error_report(net, _square_grid(seed), jobs)
    elif record.kind == "complex_matvec":
        report = _qpsk_report(net, m, n, record.D, samples, seed, jobs)
    else:
        report, *derivative = _box(net, m, n, record.D, samples, seed, jobs, True, sobolev)
    worst = report.sup_error
    if sobolev:  # a matvec-packed network, checked above: one pass gave both reports
        sob, = derivative
        if sob.kinks_skipped == samples:
            raise ValueError(f"all {samples} samples were skipped on kinks: no derivative checked")
        report = replace(report, grad_sup_error=sob.grad_sup_error, kinks_skipped=sob.kinks_skipped)
        worst = max(worst, sob.sup_error, sob.grad_sup_error)
    return report, compliance, worst <= record.eps and compliance.passed


# The report's fields in column order, grouped by the object each is read
# from: column name -> attribute. L, M, N, W and B are the paper's size
# symbols for depth, connectivity, neurons, width and weight.
_FIELDS = {
    "record": {"kind": "kind", "m": "m", "n": "n", "D": "D", "eps": "eps"},
    "report": {"samples": "sample_count", "seed": "seed", "sup_error": "sup_error",
               "mse": "mse", "grad_sup_error": "grad_sup_error"},
    "measured": {"L": "depth", "M": "connectivity", "N": "neurons", "W": "max_width",
                 "B": "max_weight"},
    "compliance": {"depth_ok": "depth_ok", "width_ok": "width_ok", "weight_ok": "weight_ok"},
}

REPORT_COLUMNS = [name for fields in _FIELDS.values() for name in fields]


def _fields(**sources: Any) -> dict[str, Any]:
    """The fields of the named sources, column name -> value, in column order.

    A source given as None gives None for each of its fields, an empty cell.
    """
    return {
        name: None if sources[source] is None else getattr(sources[source], attr)
        for source, fields in _FIELDS.items() if source in sources
        for name, attr in fields.items()
    }


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
    got = compliance.measured if compliance is not None else metrics(f)
    fields = _fields(record=f.record, report=report, measured=got, compliance=compliance)
    return [_cell(v) for v in fields.values()]


def metrics_line(got: NetworkMetrics) -> str:
    """The ``metrics:`` line of the build and verify summaries."""
    return "metrics: " + " ".join(f"{k}={_cell(v)}" for k, v in _fields(measured=got).items())


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
        params = {**_fields(record=record), "sawtooth_order": record.sawtooth_order}
        kind = params.pop("kind")
        shown = ", ".join(f"{name}={value}" for name, value in params.items() if value is not None)
        lines.append(f"network: {kind} ({shown})")
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
