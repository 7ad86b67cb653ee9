"""Error estimators, budget checks, and report formatting.

The estimator contract under test: results depend only on (network, seed,
sample count), never on worker count or chunking, and the probe points enter
the sup but not the mean.
"""

import dataclasses
import threading
import tracemalloc

import numpy as np
import pytest
from conftest import kinked_matvec_net, scipy_csr, traced

from matvecnet import (
    Dataset,
    ErrorReport,
    Fnn,
    Layer,
    REPORT_COLUMNS,
    affine_representation,
    check_budget,
    complex_matvec_net,
    dataset_error_report,
    equispaced_real_dataset,
    evaluate,
    evaluate_batch,
    jacobian,
    matvec_net,
    predicted_budget,
    preactivations,
    probe_inputs,
    qpsk_rayleigh_dataset,
    report_lines,
    report_row,
    sobolev_error_matvec,
    square_error_curve,
    square_error_report,
    square_net_of_order,
    square_net,
    square_slope_sup,
    sup_error_matvec,
    verify_network,
)
import matvecnet.verification as verification
from matvecnet.datasets import _ROW_BLOCK, _subtract_jacobian, _targets, unpack_matvec
import matvecnet.network as network
from matvecnet.network import _distinct, _live, _tangents
from matvecnet.rng import stream
from matvecnet.verification import (
    KINK_TOL,
    MAX_RESAMPLE_ATTEMPTS,
    REDUCE_CHUNK,
    _uniform_rows,
    matvec_truth,
)


def zero_net(width):
    # always outputs 0; the estimator then measures |W x| itself
    return Fnn((Layer(np.zeros((1, width)), np.zeros(1)),))


# ---------------------------------------------------------------- probes


def test_probe_inputs_contains_the_named_points():
    m, n, D = 2, 2, 1.5
    probes = probe_inputs(m, n, D)
    width = n * (m + 1)
    assert probes.shape == (5 + 2 ** min(width, 8), width)
    rows = {tuple(r) for r in probes}
    assert tuple(np.zeros(width)) in rows
    assert tuple(np.full(width, D)) in rows
    assert tuple(np.full(width, -D)) in rows
    w_zero = np.full(width, D)
    w_zero[: m * n] = 0.0
    assert tuple(w_zero) in rows
    x_zero = np.full(width, D)
    x_zero[m * n:] = 0.0
    assert tuple(x_zero) in rows


def test_probe_inputs_sign_patterns_cap_at_eight_coordinates():
    probes = probe_inputs(4, 4, 1.0)  # width 20 > 8
    assert probes.shape[0] == 5 + 2 ** 8
    assert np.all(np.isin(probes, [-1.0, 0.0, 1.0]))


@pytest.mark.parametrize("m,n,D", [(1, 1, 1.0), (2, 2, 1.5), (4, 4, 2.0)])
def test_probe_inputs_equal_the_loop_reference(m, n, D):
    width = n * (m + 1)
    rows = [np.zeros(width), np.full(width, D), np.full(width, -D)]
    rows += [np.r_[np.zeros(m * n), np.full(n, D)], np.r_[np.full(m * n, D), np.zeros(n)]]
    for pattern in range(2 ** min(width, 8)):
        row = np.full(width, D)
        for bit in range(min(width, 8)):
            if pattern >> bit & 1:
                row[bit] = -D
        rows.append(row)
    assert probe_inputs(m, n, D).tobytes() == np.vstack(rows).tobytes()


# ---------------------------------------------------------------- batched sampling and reference
#
# Sampling and the reference product run on whole chunks. The oracles below
# are their one-row-at-a-time definitions, which they must match bit for bit.


def per_row_targets(xs, m, n):
    return np.array([row[: m * n].reshape((m, n), order="F") @ row[m * n:].copy() for row in xs])


def per_row_uniforms(seed, lo, hi, width, D):
    return np.array([stream(seed, i).random(width) * (2.0 * D) - D for i in range(lo, hi)])


@pytest.mark.parametrize("m,n", [(1, 1), (1, 4), (2, 2), (3, 9), (8, 4), (16, 16)])
def test_matvec_targets_equal_the_per_row_reference(m, n):
    D = 2.0
    width = n * (m + 1)
    xs = np.vstack([_uniform_rows(5, 100, 400, width, D), probe_inputs(m, n, D)])
    assert xs[:300].tobytes() == per_row_uniforms(5, 100, 400, width, D).tobytes()
    assert _targets(xs, m, n).tobytes() == per_row_targets(xs, m, n).tobytes()


def test_matvec_truth_takes_one_pair_or_a_stack():
    rng = np.random.default_rng(4)
    W = rng.uniform(-2.0, 2.0, (6, 3, 5))
    x = rng.uniform(-2.0, 2.0, (6, 5))
    stacked = matvec_truth(W, x)
    assert stacked.shape == (6, 3)
    for k in range(6):
        assert matvec_truth(W[k], x[k]).tobytes() == (W[k] @ x[k]).tobytes()
        assert stacked[k].tobytes() == (W[k] @ x[k]).tobytes()


def test_sup_error_equals_the_per_row_computation(pooled):
    m, n, D, samples, seed = 2, 3, 1.0, REDUCE_CHUNK + 300, 11
    net = matvec_net(m, n, D, 2.0 ** -3)
    report = sup_error_matvec(net, m, n, D, samples=samples, seed=seed, jobs=2)
    sup, total_sq = 0.0, 0.0
    for lo in range(0, samples, REDUCE_CHUNK):
        xs = per_row_uniforms(seed, lo, min(lo + REDUCE_CHUNK, samples), n * (m + 1), D)
        err = np.abs(evaluate_batch(net, xs) - per_row_targets(xs, m, n))
        sup = max(sup, float(np.max(err)))
        total_sq += float(np.sum(np.mean(err * err, axis=1)))
    probes = probe_inputs(m, n, D)
    sup = max(sup, float(np.max(np.abs(evaluate_batch(net, probes) - per_row_targets(probes, m, n)))))
    assert (report.sup_error, report.mse) == (sup, total_sq / samples)


# ---------------------------------------------------------------- sup estimator


def test_sup_error_zero_network_attains_corner_product():
    # truth at the all +D probe corner is W x = D^2 (m = n = 1), so the
    # zero network must report a sup of exactly D^2
    D = 1.5
    report = sup_error_matvec(zero_net(2), 1, 1, D, samples=5000, seed=7)
    assert report.sup_error == D * D
    # uniform w, x give E[(w x)^2] = D^4 / 9
    assert abs(report.mse - D ** 4 / 9.0) <= 0.15 * D ** 4 / 9.0


def test_sup_error_is_monotone_in_sample_count():
    net = matvec_net(1, 1, 1.0, 2.0 ** -3)
    small = sup_error_matvec(net, 1, 1, 1.0, samples=100, seed=3)
    large = sup_error_matvec(net, 1, 1, 1.0, samples=400, seed=3)
    assert large.sup_error >= small.sup_error


def test_sup_error_independent_of_worker_count(pooled):
    net = matvec_net(1, 2, 1.0, 2.0 ** -3)
    serial = sup_error_matvec(net, 1, 2, 1.0, samples=5000, seed=11, jobs=1)
    threaded = sup_error_matvec(net, 1, 2, 1.0, samples=5000, seed=11, jobs=4)
    assert serial.sup_error == threaded.sup_error
    assert serial.mse == threaded.mse


def test_sup_error_stays_within_construction_guarantee():
    eps = 2.0 ** -4
    net = matvec_net(2, 2, 1.0, eps)
    report = sup_error_matvec(net, 2, 2, 1.0, samples=3000, seed=5)
    assert report.sup_error <= eps
    assert report.mse <= report.sup_error ** 2


def test_sup_error_flags_a_broken_network():
    eps = 2.0 ** -4
    net = matvec_net(1, 1, 1.0, eps)
    last = net.layers[-1]
    broken = Fnn(net.layers[:-1] + (Layer(1.25 * scipy_csr(last.weights), last.bias),))
    report = sup_error_matvec(broken, 1, 1, 1.0, samples=500, seed=2)
    assert report.sup_error > eps


def test_sup_error_validates_arguments():
    net = matvec_net(1, 1, 1.0, 0.1)
    with pytest.raises(ValueError):
        sup_error_matvec(net, 2, 2, 1.0, samples=10, seed=0)
    with pytest.raises(ValueError):
        sup_error_matvec(net, 1, 1, 1.0, samples=0, seed=0)


@pytest.mark.parametrize("estimator", [sup_error_matvec, sobolev_error_matvec])
@pytest.mark.parametrize("D", [1e308, np.inf, np.nan, 0.0, -1.0])
def test_box_estimators_refuse_a_half_width_without_a_finite_box(estimator, D):
    # 1e308 used to give sup=nan, and Sobolev skipped every sample
    net = matvec_net(1, 1, 1.0, 2.0 ** -3)
    with pytest.raises(ValueError, match="D must be positive and 2D finite"):
        estimator(net, 1, 1, D, 10, seed=0)


# ---------------------------------------------------------------- sobolev estimator


def test_sobolev_error_small_operating_point():
    eps = 2.0 ** -4
    net = matvec_net(2, 2, 1.0, eps)
    report = sobolev_error_matvec(net, 2, 2, 1.0, samples=60, seed=9)
    assert report.grad_sup_error is not None
    assert report.sup_error <= eps
    assert report.grad_sup_error <= eps
    assert report.kinks_skipped == 0


def test_sobolev_skips_unavoidable_kinks():
    # the hidden neuron can fire, but its pre-activation 1e-12 x stays within
    # KINK_TOL of 0, so every draw lands on a kink and gets skipped after the
    # resample budget
    stuck = Fnn((
        Layer([[0.0, 1e-12]], [0.0]),
        Layer(np.ones((1, 1)), np.zeros(1)),
    ))
    report = sobolev_error_matvec(stuck, 1, 1, 1.0, samples=4, seed=1)
    assert report.kinks_skipped == 4
    assert report.mse == 0.0


def test_sobolev_screens_no_neuron_proven_dead():
    # the hidden pre-activation is identically 0: the neuron is proven never
    # active on the box, so it leaves the plan, its hidden layer is left with
    # the constant neuron alone, and no draw is a kink of the function
    dead = Fnn((
        Layer(np.zeros((1, 2)), np.zeros(1)),
        Layer(np.ones((1, 1)), np.zeros(1)),
    ))
    assert _live(_distinct(dead), -1.0, 1.0).widths == (2, 0, 1)
    report = sobolev_error_matvec(dead, 1, 1, 1.0, samples=4, seed=1)
    assert report.kinks_skipped == 0
    # the network is 0 with Jacobian 0, so the deviations are the reference's:
    # |w x| for the values, max(|w|, |x|) for the Jacobian
    w, x = _uniform_rows(1, 0, 4, 2, 1.0).T
    assert report.sup_error == np.max(np.abs(w * x))
    assert report.grad_sup_error == max(np.max(np.abs(w)), np.max(np.abs(x)))


# The batched estimator must reproduce, bit for bit, the per-sample loop it
# replaced: one stream per (index, lane), then evaluate and jacobian per row.


def loop_jacobian_truth(row, m, n):
    W, x = unpack_matvec(row, m, n)
    J = np.zeros((m, n * (m + 1)))
    for i in range(m):
        for j in range(n):
            J[i, j * m + i] = x[j]
            J[i, n * m + j] = W[i, j]
    return J


def per_sample_sobolev(f, m, n, D, samples, seed):
    width = n * (m + 1)
    parts = []
    for lo in range(0, samples, REDUCE_CHUNK):
        sup = grad = 0.0
        sq = []
        used = skipped = 0
        for i in range(lo, min(lo + REDUCE_CHUNK, samples)):
            row = None
            for lane in range(MAX_RESAMPLE_ATTEMPTS):
                cand = stream(seed, i, lane).random(width) * (2.0 * D) - D
                if all(np.min(np.abs(z)) >= KINK_TOL for z in preactivations(f, cand)):
                    row = cand
                    break
            if row is None:
                skipped += 1
                continue
            W, x = unpack_matvec(row, m, n)
            err = np.abs(evaluate(f, row) - W @ x)
            sup = max(sup, float(np.max(err)))
            sq.append(np.mean(err * err))
            dev = np.abs(jacobian(f, row) - loop_jacobian_truth(row, m, n))
            grad = max(grad, float(np.max(dev)))
            used += 1
        parts.append((sup, grad, float(np.sum(sq)), used, skipped))
    total_sq, used, skipped = 0.0, 0, 0
    for part in parts:
        total_sq += part[2]
        used += part[3]
        skipped += part[4]
    return ErrorReport(
        sup_error=max(p[0] for p in parts),
        mse=total_sq / used if used else 0.0,
        grad_sup_error=max(p[1] for p in parts),
        sample_count=samples,
        seed=seed,
        domain_half_width=D,
        kinks_skipped=skipped,
    )


def bits(report):
    return [v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(report)]


SOBOLEV_CASES = {
    "matvec(2,2)": (lambda: matvec_net(2, 2, 1.0, 2.0 ** -4), 2, 2, 1.0, REDUCE_CHUNK + 300),
    "matvec(1,1)": (lambda: matvec_net(1, 1, 1.0, 2.0 ** -3), 1, 1, 1.0, REDUCE_CHUNK + 300),
    # sparse tangents over 300 (150) pairs at most on the live plan, and
    # slices sized from width and pairs (130 and 257 rows) end inside the chunk
    "matvec(8,4)": (lambda: matvec_net(8, 4, 2.0, 2.0 ** -5), 8, 4, 2.0, 301),
    "matvec(3,5)": (lambda: matvec_net(3, 5, 1.0, 2.0 ** -4), 3, 5, 1.0, 300),
    # every draw sits on a kink of a live neuron: all lanes are tried, then
    # the index is skipped
    "stuck": (
        lambda: Fnn((Layer([[0.0, 1e-12]], [0.0]), Layer(np.ones((1, 1)), np.zeros(1)))),
        1, 1, 1.0, 30,
    ),
    # the second hidden pre-activation is rho(x): draws with x < 0 redraw on lanes >= 1
    "rho": (
        lambda: Fnn((Layer([[0.0, 1.0]], [0.0]), Layer([[1.0]], [0.0]), Layer([[1.0]], [0.0]))),
        1, 1, 1.0, REDUCE_CHUNK + 300,
    ),
}


def test_reports_keep_the_bits_recorded_before_pair_tangents():
    # recorded with the seed-compressed tangents the pair form replaced; the
    # Sobolev mse since each chunk's squares are summed by np.sum, not one by
    # one. The reference product runs through np.matmul, so mse may differ on
    # a host whose BLAS sums in another order
    small = sobolev_error_matvec(matvec_net(2, 2, 1.0, 2.0 ** -4), 2, 2, 1.0, 2000, seed=0)
    assert bits(small)[:3] == ["0x1.ea01203998100p-12", "0x1.25406b5efd3f4p-25",
                               "0x1.fe0bb97f02f80p-6"]
    assert small.kinks_skipped == 0
    net = matvec_net(8, 4, 2.0, 2.0 ** -5)
    real = sobolev_error_matvec(net, 8, 4, 2.0, 500, seed=0)
    assert bits(real)[:3] == ["0x1.a1e08c9b10000p-15", "0x1.0cce693fc63c4p-31",
                              "0x1.fcf0276924800p-8"]
    values = sup_error_matvec(net, 8, 4, 2.0, 4096, seed=0)
    assert bits(values)[:2] == ["0x1.a3ab157370000p-15", "0x1.039d268813b8bp-31"]


@pytest.mark.parametrize("jobs", [1, 3])
@pytest.mark.parametrize("case", sorted(SOBOLEV_CASES))
def test_sobolev_equals_the_per_sample_loop(pooled, case, jobs):
    make, m, n, D, samples = SOBOLEV_CASES[case]
    net = make()
    expected = per_sample_sobolev(net, m, n, D, samples, seed=17)
    got = sobolev_error_matvec(net, m, n, D, samples=samples, seed=17, jobs=jobs)
    assert bits(got) == bits(expected)
    if case == "rho":
        # lane 0 puts x < 0, on the kink, for about half of the indices
        kinked = np.count_nonzero(_uniform_rows(17, 0, samples, 2, 1.0)[:, 1] < 0.0)
        assert kinked > samples // 3 and got.kinks_skipped == 0


@pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (3, 5), (8, 4)])
def test_matvec_jacobian_truth_equals_the_double_loop(m, n):
    width = n * (m + 1)
    rows = _uniform_rows(3, 0, 7, width, 2.0)
    # Jacobians with signed zeros where the reference is 0.0, and where it is not
    J = np.random.default_rng(m * 10 + n).choice([0.0, -0.0, 1.5, -0.25], (7, m, width))
    J[0] = -0.0
    expected = [J[k] - loop_jacobian_truth(row, m, n) for k, row in enumerate(rows)]
    stacked = J.copy()
    assert _subtract_jacobian(stacked, rows, m, n) is stacked
    for k in range(len(rows)):
        assert stacked[k].tobytes() == expected[k].tobytes()
    # -0.0 stays where the reference is 0.0
    zero = loop_jacobian_truth(rows[0], m, n) == 0.0
    assert zero.sum() == m * width - 2 * m * n
    assert (stacked[0][zero] == 0.0).all() and np.signbit(stacked[0][zero]).all()


def record_draws(monkeypatch):
    """Record the (lo, hi, lane) of every draw the estimators make."""
    calls = []

    def recorded(seed, lo, hi, width, D, lane=0):
        calls.append((lo, hi, lane))
        return real(seed, lo, hi, width, D, lane)

    real = verification._uniform_rows
    monkeypatch.setattr(verification, "_uniform_rows", recorded)
    return calls


@pytest.mark.parametrize("jobs", [1, 2])
def test_sobolev_draws_each_chunk_once(monkeypatch, pooled, jobs):
    calls = record_draws(monkeypatch)
    net = matvec_net(2, 2, 1.0, 2.0 ** -4)
    samples = 2 * REDUCE_CHUNK + 5
    sobolev_error_matvec(net, 2, 2, 1.0, samples, seed=4, jobs=jobs)
    assert sorted((lo, hi) for lo, hi, lane in calls if lane == 0) == [
        (0, REDUCE_CHUNK), (REDUCE_CHUNK, 2 * REDUCE_CHUNK), (2 * REDUCE_CHUNK, samples),
    ]


def test_sobolev_draws_each_redraw_lane_once_per_chunk(monkeypatch):
    calls = record_draws(monkeypatch)
    make, m, n, D, samples = SOBOLEV_CASES["rho"]
    report = sobolev_error_matvec(make(), m, n, D, samples, seed=17)
    assert report.kinks_skipped == 0
    redraws = [(lo // REDUCE_CHUNK, lane) for lo, hi, lane in calls if lane >= 1]
    assert all(lo // REDUCE_CHUNK == (hi - 1) // REDUCE_CHUNK for lo, hi, _ in calls)
    assert redraws and len(redraws) == len(set(redraws))


def test_sobolev_stuck_network_draws_once_per_lane(monkeypatch):
    calls = record_draws(monkeypatch)
    make, m, n, D, _ = SOBOLEV_CASES["stuck"]
    report = sobolev_error_matvec(make(), m, n, D, 2000, seed=17)
    assert report.kinks_skipped == 2000
    # 2,000 samples are one chunk: each lane is one pass over all of it
    assert calls == [(0, 2000, lane) for lane in range(MAX_RESAMPLE_ATTEMPTS)]


def test_sobolev_independent_of_worker_count():
    net = matvec_net(1, 1, 1.0, 2.0 ** -3)
    serial = sobolev_error_matvec(net, 1, 1, 1.0, samples=40, seed=13, jobs=1)
    threaded = sobolev_error_matvec(net, 1, 1, 1.0, samples=40, seed=13, jobs=3)
    assert serial.sup_error == threaded.sup_error
    assert serial.grad_sup_error == threaded.grad_sup_error
    assert serial.mse == threaded.mse


def test_a_sobolev_verify_that_used_no_sample_gives_no_verdict():
    net, built = kinked_matvec_net(), matvec_net(2, 1, 1.0, 2.0 ** -4)
    xs = _uniform_rows(0, 0, 500, net.input_dim, 1.0)
    assert evaluate_batch(net, xs).tobytes() == evaluate_batch(built, xs).tobytes()
    # the estimator still reports what it skipped; the verdict refuses it
    assert sobolev_error_matvec(net, 2, 1, 1.0, 300, seed=0).kinks_skipped == 300
    with pytest.raises(ValueError, match="all 300 samples were skipped on kinks"):
        verify_network(net, 300, 0, sobolev=True)
    # the value check alone still runs
    assert verify_network(net, 300, 0)[2]


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_sobolev_verify_draws_each_chunk_once(monkeypatch, pooled, jobs):
    # the value and the derivative check share one pass over the samples
    calls = record_draws(monkeypatch)
    samples = 2 * REDUCE_CHUNK + 5
    verify_network(matvec_net(2, 2, 1.0, 2.0 ** -4), samples, seed=4, jobs=jobs, sobolev=True)
    assert sorted((lo, hi) for lo, hi, lane in calls if lane == 0) == [
        (0, REDUCE_CHUNK), (REDUCE_CHUNK, 2 * REDUCE_CHUNK), (2 * REDUCE_CHUNK, samples),
    ]


def two_call_sobolev_verify(net, samples, seed, jobs):
    """verify_network(..., sobolev=True) as a value check, then a Sobolev check on the same samples."""
    record = net.record
    m, n = record.m or 1, record.n or 1
    compliance = check_budget(net, record.budget(2.0))
    value = sup_error_matvec(net, m, n, record.D, samples, seed, jobs)
    sob = sobolev_error_matvec(net, m, n, record.D, samples, seed, jobs)
    if sob.kinks_skipped == samples:
        raise ValueError(f"all {samples} samples were skipped on kinks: no derivative checked")
    report = dataclasses.replace(
        value, grad_sup_error=sob.grad_sup_error, kinks_skipped=sob.kinks_skipped)
    worst = max(value.sup_error, sob.sup_error, sob.grad_sup_error)
    return report, compliance, worst <= record.eps and compliance.passed


SOBOLEV_VERIFY_NETS = {
    "matvec(2,2)": lambda: matvec_net(2, 2, 1.0, 2.0 ** -4),
    "matvec(8,4)": lambda: matvec_net(8, 4, 2.0, 2.0 ** -5),
    # draws with x < 0 sit on a kink and redraw on lanes 1 and up
    "rho": lambda: Fnn(SOBOLEV_CASES["rho"][0]().layers, matvec_net(1, 1, 1.0, 2.0 ** -3).record),
    # every draw sits on a kink
    "kinked": kinked_matvec_net,
}


@pytest.mark.parametrize("jobs", [1, 3])
@pytest.mark.parametrize("samples", [1, 2047, 2048, 2049, 4100])
@pytest.mark.parametrize("case", sorted(SOBOLEV_VERIFY_NETS))
def test_a_sobolev_verify_equals_the_two_call_composition(pooled, case, samples, jobs):
    net = SOBOLEV_VERIFY_NETS[case]()
    if case == "kinked":
        skipped = f"all {samples} samples were skipped on kinks"
        with pytest.raises(ValueError, match=skipped):
            two_call_sobolev_verify(net, samples, 5, jobs)
        with pytest.raises(ValueError, match=skipped):
            verify_network(net, samples, 5, jobs=jobs, sobolev=True)
        return
    report, compliance, ok = verify_network(net, samples, 5, jobs=jobs, sobolev=True)
    expected = two_call_sobolev_verify(net, samples, 5, jobs)
    assert (bits(report), compliance, ok) == (bits(expected[0]), *expected[1:])
    if case == "rho" and samples > 1:
        assert report.grad_sup_error is not None and report.kinks_skipped == 0


# ---------------------------------------------------------------- datasets


def test_dataset_error_report_on_exact_affine_network():
    rng = np.random.default_rng(21)
    W = rng.normal(size=(3, 4))
    net = affine_representation(W, 1)
    xs = rng.uniform(-2.0, 2.0, size=(50, 4))
    ds = Dataset(xs, xs @ W.T, {"half_width": 2.0, "seed": 21})
    report = dataset_error_report(net, ds)
    assert report.sup_error <= 1e-9
    assert report.mse <= 1e-18
    assert report.sample_count == 50
    assert report.domain_half_width == 2.0


def test_dataset_report_rejects_dimension_mismatch():
    net = matvec_net(1, 1, 1.0, 2.0 ** -3)
    ds = Dataset(np.zeros((5, 3)), np.zeros((5, 1)), {})
    with pytest.raises(ValueError):
        dataset_error_report(net, ds)


def test_dataset_report_equals_the_stored_layers():
    # the report runs on the network's plan: the stored layers give the same bits
    net = complex_matvec_net(2, 3, 1.5, 2.0 ** -5)
    ds = qpsk_rayleigh_dataset(2, 3, 700, clip=1.5, seed=5)
    err = np.abs(evaluate_batch(net, ds.inputs) - ds.targets)
    report = dataset_error_report(net, ds)
    assert report.sup_error.hex() == float(np.max(err)).hex()
    assert report.mse.hex() == float(np.mean(np.mean(err * err, axis=1))).hex()


def chunked_dataset_report(net, ds):
    """Sup and mse of the stored layers over REDUCE_CHUNK rows at a time, summed in order."""
    sup, total_sq = 0.0, 0.0
    for lo in range(0, len(ds), REDUCE_CHUNK):
        rows = slice(lo, lo + REDUCE_CHUNK)
        err = np.abs(evaluate_batch(net, ds.inputs[rows]) - ds.targets[rows])
        sup = max(sup, float(np.max(err)))
        total_sq += float(np.sum(np.mean(err * err, axis=1)))
    return sup, total_sq / len(ds)


@pytest.mark.parametrize("jobs", [1, 2, 3])
@pytest.mark.parametrize("data", ["qpsk", "equispaced"])
def test_dataset_report_equals_the_chunk_order_oracle(pooled, data, jobs):
    rows = 2 * REDUCE_CHUNK + 5
    if data == "qpsk":
        net = complex_matvec_net(1, 2, 1.5, 2.0 ** -4)
        ds = qpsk_rayleigh_dataset(1, 2, rows - 1, clip=1.5, seed=8)  # and the probe row
    else:
        net = matvec_net(2, 2, 1.0, 2.0 ** -4)
        ds = equispaced_real_dataset(2, 2, rows, half_width=1.0, grid_points=33, seed=8)
    assert len(ds) == rows
    report = dataset_error_report(net, ds, jobs=jobs)
    sup, mse = chunked_dataset_report(net, ds)
    assert (report.sup_error.hex(), report.mse.hex()) == (sup.hex(), mse.hex())
    assert report.sample_count == rows


def test_dataset_report_refuses_an_empty_dataset():
    net = matvec_net(1, 1, 1.0, 2.0 ** -3)
    with pytest.raises(ValueError, match="the dataset has no rows"):
        dataset_error_report(net, Dataset(np.zeros((0, 2)), np.zeros((0, 1)), {}))


def record_threads(monkeypatch):
    """Record the thread and plan of every ``_batch`` call, and the workers of each pool started."""
    batches, pools = [], []
    real_batch, real_pool = verification._batch, verification.ThreadPoolExecutor

    def batch(plan, xs, *args):
        batches.append((threading.current_thread(), plan))
        return real_batch(plan, xs, *args)

    def pool(max_workers):
        pools.append(max_workers)
        return real_pool(max_workers)

    monkeypatch.setattr(verification, "_batch", batch)
    monkeypatch.setattr(verification, "ThreadPoolExecutor", pool)
    return batches, pools


def entries(plan):
    return sum(len(kernel.data) for kernel in plan.kernels)


# Checks without probes, whose every batch is a chunk or a redraw lane of
# one, on three chunks: (network, the check under a worker count).
CHUNKED = 2 * REDUCE_CHUNK + 5
NARROW_CHECKS = {
    "square": (lambda: square_net(2.0 ** -4), lambda f, jobs: verify_network(f, CHUNKED, 4, jobs)),
    "complex_matvec": (lambda: complex_matvec_net(1, 1, 1.0, 2.0 ** -4),
                       lambda f, jobs: verify_network(f, CHUNKED, 4, jobs)),
    "sobolev": (lambda: matvec_net(2, 2, 1.0, 2.0 ** -4),
                lambda f, jobs: sobolev_error_matvec(f, 2, 2, 1.0, CHUNKED, 4, jobs)),
}
WIDE_CHECK = (lambda: matvec_net(8, 4, 2.0, 2.0 ** -5),
              lambda f, jobs: sobolev_error_matvec(f, 8, 4, 2.0, CHUNKED, 4, jobs))


@pytest.mark.parametrize("case", sorted(NARROW_CHECKS))
def test_a_narrow_plan_runs_every_chunk_inline_whatever_jobs_asks(monkeypatch, case):
    make, check = NARROW_CHECKS[case]
    net = make()
    batches, pools = record_threads(monkeypatch)
    one = check(net, 1)
    assert check(net, 2) == one
    assert pools == []
    assert {thread for thread, _ in batches} == {threading.main_thread()}
    assert all(entries(plan) < verification.POOL_ENTRIES for _, plan in batches)


@pytest.mark.parametrize("case", ["wide", *sorted(NARROW_CHECKS)])
def test_a_plan_at_pool_entries_runs_every_chunk_on_workers(monkeypatch, case):
    if case == "wide":
        make, check = WIDE_CHECK
    else:
        make, check = NARROW_CHECKS[case]
        monkeypatch.setattr(verification, "POOL_ENTRIES", 0)
    net = make()
    batches, pools = record_threads(monkeypatch)
    one = check(net, 1)
    assert pools == [] and {thread for thread, _ in batches} == {threading.main_thread()}
    batches.clear()
    assert check(net, 2) == one
    assert pools == [2]
    assert batches and threading.main_thread() not in {thread for thread, _ in batches}
    assert all(entries(plan) >= verification.POOL_ENTRIES for _, plan in batches)


def count_plans(monkeypatch):
    """Record each distinct plan, live plan and set of pair kernels the networks build,
    as (argument, result): the network, the plan proven or the plan paired."""
    built = {"_distinct": [], "_live": [], "_tangents": []}

    def counting(name):
        real = getattr(network, name)

        def counted(first, *args):
            built[name].append((first, real(first, *args)))
            return built[name][-1][1]

        return counted

    for name in built:
        monkeypatch.setattr(network, name, counting(name))
    return built


def test_estimators_plan_once_per_network_and_box(monkeypatch):
    built = count_plans(monkeypatch)

    def counts():
        return [len(calls) for calls in built.values()]

    net = matvec_net(2, 2, 1.0, 2.0 ** -4)
    sup_error_matvec(net, 2, 2, 1.0, CHUNKED, seed=1, jobs=2)
    assert counts() == [1, 1, 0]
    # a Sobolev check on the same box takes both plans kept, and keeps the
    # pair kernels it builds for a third check
    sobolev_error_matvec(net, 2, 2, 1.0, CHUNKED, seed=1, jobs=2)
    verify_network(net, 100, 1, sobolev=True)
    assert counts() == [1, 1, 1]
    [(owner, distinct)], [(proven, live)], [(paired, pairs)] = built.values()
    assert owner is net and proven is distinct and paired is live
    # the pair kernels of the live plan: 30 of the 40 widest distinct neurons
    # and 286 of the 376 pairs
    assert max(live.widths) == 30
    assert sum(kernel.shape[0] for kernel in pairs.kernels) == 286
    # a dataset on another box proves a new live plan from the same distinct
    # one, and replaces the box kept, whose plan is then proven again
    dataset_error_report(net, Dataset(np.zeros((5000, 6)), np.zeros((5000, 2)), {}))
    assert counts() == [1, 2, 1] and built["_live"][1][0] is distinct
    sobolev_error_matvec(net, 2, 2, 1.0, 100, seed=1)
    assert counts() == [1, 3, 2]
    # another network, even one of the same layers, builds its own
    sup_error_matvec(Fnn(net.layers, net.record), 2, 2, 1.0, 100, seed=1)
    square_error_report(square_net_of_order(3))
    assert counts() == [3, 5, 2]


@pytest.mark.parametrize("jobs", [0, -3, 2.5, "2", None])
@pytest.mark.parametrize("check", [
    lambda jobs: sup_error_matvec(matvec_net(2, 2, 1.0, 2.0 ** -4), 2, 2, 1.0, 100, 0, jobs=jobs),
    lambda jobs: sobolev_error_matvec(matvec_net(2, 2, 1.0, 2.0 ** -4), 2, 2, 1.0, 100, 0, jobs),
    lambda jobs: dataset_error_report(
        matvec_net(1, 1, 1.0, 2.0 ** -3), Dataset(np.zeros((5, 2)), np.zeros((5, 1)), {}), jobs),
    lambda jobs: verify_network(matvec_net(2, 2, 1.0, 2.0 ** -4), 100, 0, jobs, sobolev=True),
    lambda jobs: verify_network(square_net(2.0 ** -4), 100, 0, jobs),
    lambda jobs: verify_network(complex_matvec_net(1, 1, 1.0, 2.0 ** -4), 100, 0, jobs),
], ids=["sup", "sobolev", "dataset", "verify-matvec", "verify-square", "verify-complex"])
def test_the_checks_refuse_a_worker_count_that_is_not_a_positive_integer(check, jobs):
    with pytest.raises(ValueError, match=f"jobs must be an integer of at least 1, got {jobs!r}"):
        check(jobs)


def record_slices(monkeypatch):
    """Record the rows of every slice the estimators' batches run, one list per call."""
    calls = []

    def recorded(plan, xs, tangents=None, visit=None):
        slices = []
        calls.append(slices)

        def seen(rows, k, Z):
            if k == 0:
                slices.append((rows.start, rows.stop))
            visit(rows, k, Z)

        return real(plan, xs, tangents, seen)

    real = verification._batch
    monkeypatch.setattr(verification, "_batch", recorded)
    return calls


def test_sobolev_slices_are_sized_from_the_plan(monkeypatch):
    calls = record_slices(monkeypatch)
    net = matvec_net(8, 4, 2.0, 2.0 ** -5)
    sobolev_error_matvec(net, 8, 4, 2.0, 200, seed=0)
    # the live plan: 204 neurons in the widest layer, 300 pairs in the widest
    # pair kernel (272 and 400 in the distinct plan)
    plan = _live(_distinct(net), -2.0, 2.0)
    assert (max(plan.widths), max(kernel.shape[0] for kernel in _tangents(plan).kernels)) == (
        204, 300)
    rows = network.SLICE_BYTES // (16 * (204 + 300))
    assert rows == 130
    assert calls[0] == [(0, rows), (rows, 200)]


@pytest.mark.parametrize("case", ["matvec(8,4)", "rho", "stuck"])
def test_sobolev_screens_kinks_across_slices(monkeypatch, pooled, case):
    make, m, n, D, samples = SOBOLEV_CASES[case]
    net = make()
    expected = per_sample_sobolev(net, m, n, D, samples, seed=17)
    # slices of 7 rows on the live plan, so that a chunk and its redraw lanes span many
    plan = _live(_distinct(net), -D, D)
    pairs = max(kernel.shape[0] for kernel in _tangents(plan).kernels)
    per_row = 16 * (max(plan.widths) + pairs)
    monkeypatch.setattr(network, "SLICE_BYTES", 7 * per_row)
    calls = record_slices(monkeypatch)
    for jobs in (1, 3):
        calls.clear()
        got = sobolev_error_matvec(net, m, n, D, samples=samples, seed=17, jobs=jobs)
        assert bits(got) == bits(expected)
        assert calls[0][:2] == [(0, 7), (7, 14)]
        # rho and stuck redraw lanes of many slices; matvec(8,4) lands on no kink here
        assert any(len(slices) > 1 for slices in calls[1:]) == (case != "matvec(8,4)")


QPSK_NET = complex_matvec_net(1, 2, 1.5, 2.0 ** -4)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("samples", [1, 510, 511, 512, 2047, 2048, 4100])
def test_complex_verify_equals_the_report_of_the_whole_dataset(pooled, samples, jobs):
    # rows drawn chunk by chunk, block boundaries and the probe row at the
    # edges of blocks and chunks, give the whole dataset's report bit for bit
    ds = qpsk_rayleigh_dataset(1, 2, samples, clip=1.5, seed=6)
    report = verify_network(QPSK_NET, samples, 6, jobs=jobs)[0]
    assert bits(report) == bits(dataset_error_report(QPSK_NET, ds, jobs))


def test_reduction_chunks_are_whole_row_blocks():
    # a chunk of the complex check draws the dataset's own blocks
    assert REDUCE_CHUNK % _ROW_BLOCK == 0


def test_complex_verify_memory_does_not_grow_with_samples():
    verify_network(QPSK_NET, 100, 0)  # warm every lazy cache first
    peaks = []
    for samples in (4095, 16383):  # 2 and 8 chunks of rows and the probe row
        tracemalloc.start()
        try:
            verify_network(QPSK_NET, samples, 0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # holding the 16,384 rows would take 0.98 MiB more than 4,096 of them
    assert peaks[1] - peaks[0] < 64 * 1024


@pytest.mark.parametrize("one_output", [False, True], ids=["record", "one-output"])
def test_complex_verify_refuses_a_network_of_other_dimensions(one_output):
    layers, record = QPSK_NET.layers, QPSK_NET.record
    if one_output:  # one output would broadcast against the two targets
        last = layers[-1]
        layers = (*layers[:-1], Layer(scipy_csr(last.weights)[:1], last.bias[:1]))
    else:  # the record's m disagrees with the layers
        record = dataclasses.replace(record, m=2)
    with pytest.raises(ValueError, match="dimension mismatch: dataset is"):
        verify_network(Fnn(layers, record), 100, 0)


# ---------------------------------------------------------------- squaring checks


def test_square_error_curve_matches_the_law_exactly():
    for order, observed in square_error_curve(8):
        assert observed == 2.0 ** (-2 * (order + 1))


def test_square_error_curve_validates_range():
    with pytest.raises(ValueError):
        square_error_curve(25)
    with pytest.raises(ValueError):
        square_error_curve(-1)


def test_square_error_report_on_the_grid():
    report = square_error_report(square_net_of_order(3))
    assert report.sup_error == 2.0 ** -8
    assert report.sample_count == 2 ** 14 + 1
    assert (report.seed, report.domain_half_width, report.grad_sup_error) == (0, 1.0, None)
    assert 0.0 < report.mse < report.sup_error ** 2


def test_square_slope_sup_equals_the_per_point_maximum():
    for order in (0, 3, 6):
        net = square_net_of_order(order)
        expected = 0.0
        for i in range(256):
            x = np.array([(i + 0.5) / 256])
            expected = max(expected, float(np.max(np.abs(jacobian(net, x)))))
        assert square_slope_sup(net, points=256) == expected


def test_square_slope_never_exceeds_two():
    for order in (1, 4, 7):
        assert square_slope_sup(square_net_of_order(order), points=1024) <= 2.0


@pytest.mark.parametrize("points, order", [(0, 3), (-5, 3), (3, 3), (8, 3), (2 ** 20 + 1, 3)])
def test_square_slope_sup_refuses_points_off_the_power_of_two_grid(points, order):
    with pytest.raises(ValueError, match=f"at least 2\\^{order + 1}, got {points}"):
        square_slope_sup(square_net_of_order(order), points=points)


def test_square_slope_sup_keeps_its_value_at_valid_points():
    assert square_slope_sup(square_net_of_order(6), points=256).hex() == "0x1.fc00000000000p+0"
    # without a record the order is taken as 0: any power of two from 2 on
    plain = Fnn(square_net_of_order(0).layers)
    assert square_slope_sup(plain, points=2) == square_slope_sup(square_net_of_order(0), points=2)
    with pytest.raises(ValueError):
        square_slope_sup(plain, points=1)


# ---------------------------------------------------------------- budgets, reports


def test_check_budget_flags_each_dimension():
    net = matvec_net(2, 2, 1.0, 2.0 ** -4)
    good = check_budget(net, predicted_budget("matvec", m=2, n=2, D=1.0, eps=2.0 ** -4))
    assert good.passed

    tight = predicted_budget("matvec", m=2, n=2, D=1.0, eps=2.0 ** -4, C=0.5)
    squeezed = check_budget(net, tight)
    assert squeezed.depth_ok is False
    assert squeezed.passed is False


def test_report_row_shape_and_formatting():
    net = matvec_net(2, 2, 1.0, 2.0 ** -4)
    report = sup_error_matvec(net, 2, 2, 1.0, samples=64, seed=17)
    compliance = check_budget(net, predicted_budget("matvec", m=2, n=2, D=1.0, eps=2.0 ** -4))
    row = report_row(net, report, compliance)
    assert len(row) == len(REPORT_COLUMNS)
    named = dict(zip(REPORT_COLUMNS, row))
    assert named["kind"] == "matvec"
    assert float(named["sup_error"]) == report.sup_error  # repr round-trips
    assert named["grad_sup_error"] == ""  # no derivative check ran
    assert named["depth_ok"] == "pass"


def test_report_row_without_compliance_leaves_flags_empty():
    net = matvec_net(1, 1, 1.0, 2.0 ** -3)
    report = sup_error_matvec(net, 1, 1, 1.0, samples=16, seed=0)
    row = report_row(net, report)
    named = dict(zip(REPORT_COLUMNS, row))
    assert named["depth_ok"] == named["width_ok"] == named["weight_ok"] == ""


def test_report_lines_summarize_budget():
    net = matvec_net(1, 1, 1.0, 2.0 ** -4)
    report = sup_error_matvec(net, 1, 1, 1.0, samples=16, seed=0)
    compliance = check_budget(net, predicted_budget("matvec", m=1, n=1, D=1.0, eps=2.0 ** -4))
    lines = report_lines(net, report, compliance)
    joined = "\n".join(lines)
    assert "budget overall: pass" in joined
    assert "packing:" in joined


def test_error_report_is_frozen():
    report = ErrorReport(0.0, 0.0, None, 1, 0, 1.0)
    with pytest.raises(AttributeError):
        report.sup_error = 1.0


@pytest.mark.parametrize("make", [
    lambda: square_net(2.0 ** -4),
    lambda: matvec_net(2, 2, 1.0, 2.0 ** -4),
    lambda: complex_matvec_net(1, 1, 1.0, 2.0 ** -4),
], ids=["square", "matvec", "complex_matvec"])
@pytest.mark.parametrize("samples", [0, -1])
def test_verify_network_checks_the_sample_count_for_every_kind(make, samples):
    # the square grid used to ignore it, and the complex kind to fail in the dataset
    with pytest.raises(ValueError, match=f"samples must be positive, got {samples}"):
        verify_network(make(), samples, 0)


@pytest.mark.parametrize("name,value", [
    ("samples", True), ("samples", False), ("samples", 2.5), ("samples", "100"),
    ("jobs", True), ("jobs", 2.0),
])
@pytest.mark.parametrize("check", [
    lambda samples, jobs: sup_error_matvec(matvec_net(2, 2, 1.0, 2.0 ** -4), 2, 2, 1.0, samples, 0,
                                           jobs),
    lambda samples, jobs: verify_network(matvec_net(2, 2, 1.0, 2.0 ** -4), samples, 0, jobs),
    lambda samples, jobs: verify_network(complex_matvec_net(1, 1, 1.0, 2.0 ** -4), samples, 0,
                                         jobs),
], ids=["sup", "verify-matvec", "verify-complex"])
def test_the_checks_refuse_a_bool_or_a_non_integer_count(check, name, value):
    # a bool samples count used to be reported as the CSV cell "pass"
    counts = {"samples": 100, "jobs": 1, name: value}
    with pytest.raises(ValueError, match=f"{name} must be an integer of at least 1, got {value!r}"):
        check(**counts)


def test_a_sample_count_of_any_integer_type_is_reported_as_an_int():
    net = matvec_net(1, 1, 1.0, 2.0 ** -4)
    report = sup_error_matvec(net, 1, 1, 1.0, np.int64(100), 0, jobs=np.int32(1))
    assert type(report.sample_count) is int and report.sample_count == 100


@pytest.mark.parametrize("make", [
    lambda: matvec_net(1, 1, 1.0, 2.0 ** -4),
    lambda: complex_matvec_net(1, 1, 1.0, 2.0 ** -4),
], ids=["matvec", "complex_matvec"])
def test_a_record_claiming_a_huge_m_is_refused_before_its_layout_is_built(make):
    net = make()
    claimed = Fnn(net.layers, dataclasses.replace(net.record, m=10 ** 6))

    def refused():
        with pytest.raises(ValueError, match="dimension mismatch"):
            verify_network(claimed, 100, 0)

    # positions of the claimed width took 15.3 (matvec) and 30.5 MiB (complex)
    _, peak, _ = traced(refused)
    assert peak < 1.0


def test_the_complex_network_jacobian_is_within_its_bound_of_the_reference():
    net = complex_matvec_net(2, 2, 1.5, 2.0 ** -4)
    rows = _uniform_rows(0, 0, 2000, 12, 1.5)
    dev = np.abs(_subtract_jacobian(jacobian(net, rows), rows, 2, 2, complex=True))
    # each entry of the reference is one real product's, so the real kind's
    # derivative law 2D 2^-order holds: 0.005828 here against 0.005859
    assert np.max(dev) <= 2 * 1.5 * 2.0 ** -net.record.sawtooth_order < net.record.eps
