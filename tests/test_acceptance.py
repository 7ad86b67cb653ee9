"""Acceptance gate: the headline numeric claims, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Networks for the expensive operating points are built once and shared
between the accuracy criteria and the reproducibility criterion.
"""

import functools
import time

import numpy as np

from matvecnet import (
    affine_representation,
    complex_matvec_net,
    concatenate,
    evaluate,
    identity_fnn,
    matvec_net,
    metrics,
    parallelize_shared,
    dataset_error_report,
    qpsk_rayleigh_dataset,
    report_row,
    sobolev_error_matvec,
    square_error_curve,
    square_net_of_order,
    square_slope_sup,
    sup_error_matvec,
    superpose,
)

from conftest import random_fnn


def criterion(number: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


@functools.lru_cache(maxsize=None)
def real_net():
    return matvec_net(8, 4, 2.0, 2.0 ** -5)


@functools.lru_cache(maxsize=None)
def complex_net():
    return complex_matvec_net(8, 4, 3.0, 2.0 ** -5)


@functools.lru_cache(maxsize=None)
def small_net():
    return matvec_net(2, 2, 1.0, 2.0 ** -4)


def test_criterion_1_real_matvec_operating_point():
    net = real_net()
    start = time.perf_counter()
    report = sup_error_matvec(net, 8, 4, 2.0, samples=100000, seed=0)
    elapsed = time.perf_counter() - start
    got = metrics(net)
    ok = (
        report.sup_error <= 0.03125
        and report.mse <= 2.0 ** -10
        and got.max_width <= 384
        and got.max_weight <= 8.0
        and got.depth <= 18
        and elapsed <= 60.0
    )
    criterion(
        1,
        ok,
        f"matvec(8,4,D=2,eps=2^-5): sup={report.sup_error:.3e} (<=0.03125), "
        f"mse={report.mse:.3e} (<=9.77e-4), W={got.max_width} (<=384), "
        f"B={got.max_weight} (<=8), L={got.depth} (<=18), {elapsed:.1f}s (<=60s)",
    )


def test_criterion_2_complex_matvec_operating_point():
    net = complex_net()
    start = time.perf_counter()
    ds = qpsk_rayleigh_dataset(8, 4, 100000, clip=3.0, seed=0)
    report = dataset_error_report(net, ds)
    elapsed = time.perf_counter() - start
    got = metrics(net)
    ok = (
        report.sup_error <= 2.0 ** -5
        and report.mse <= 2.0 ** -10
        and got.max_width <= 1536
        and got.max_weight <= 18.0
        and elapsed <= 120.0
    )
    criterion(
        2,
        ok,
        f"complex_matvec(8,4,D=3,eps=2^-5) on {len(ds)} QPSK samples: "
        f"sup={report.sup_error:.3e} (<=2^-5), mse={report.mse:.3e} (<=9.77e-4), "
        f"W={got.max_width} (<=1536), B={got.max_weight} (<=18), "
        f"{elapsed:.1f}s (<=120s)",
    )


def test_criterion_3_squaring_error_law():
    start = time.perf_counter()
    curve = square_error_curve(10)
    elapsed = time.perf_counter() - start
    worst = max(abs(observed - 2.0 ** (-2 * (order + 1))) for order, observed in curve)
    ok = worst <= 1e-12 and elapsed <= 10.0
    criterion(
        3,
        ok,
        f"square error law m=0..10: max |observed - 2^(-2(m+1))| = {worst:.3e} "
        f"(<=1e-12), {elapsed:.1f}s (<=10s)",
    )


def test_criterion_4_exact_affine_representations():
    rng = np.random.default_rng(2024)
    worst_rel = 0.0
    counts_ok = True
    for _ in range(50):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 6))
        W = rng.normal(size=(m, n))
        W[rng.random(W.shape) < 0.35] = 0.0
        nnz = int(np.count_nonzero(W))
        K = int(rng.integers(3, 8))
        variants = [
            (affine_representation(W, 1), 2 * nnz + 2 * m),
            (affine_representation(W, 2, K=K), 2 * m + 2 * (K - 2) * n + 4 * nnz),
            (affine_representation(W, 3, K=K), 2 * K * m + 2 * nnz),
        ]
        for net, want_m in variants:
            counts_ok = counts_ok and metrics(net).connectivity == want_m
            for _ in range(100):
                x = rng.normal(size=n)
                truth = W @ x
                scale = max(1.0, float(np.abs(truth).max()))
                worst_rel = max(worst_rel, float(np.abs(evaluate(net, x) - truth).max()) / scale)
    ok = worst_rel <= 1e-9 and counts_ok
    criterion(
        4,
        ok,
        f"50 random W x 3 variants x 100 points: worst relative error "
        f"{worst_rel:.3e} (<=1e-9), connectivity closed forms "
        f"{'exact' if counts_ok else 'WRONG'}",
    )


def test_criterion_5_calculus_bookkeeping():
    rng = np.random.default_rng(777)
    trials = 0
    worst_dev = 0.0
    books_ok = True

    for _ in range(80):  # identity networks (depth-K exact pass-through)
        d = int(rng.integers(1, 5))
        K = int(rng.integers(2, 6))
        net = identity_fnn(d, K)
        books_ok = books_ok and metrics(net).connectivity == 2 * d * K
        x = rng.uniform(-5.0, 5.0, size=d)
        if not np.array_equal(evaluate(net, x), x):
            books_ok = False
        trials += 1

    for _ in range(80):  # concatenation depth and semantics
        inner = random_fnn(rng, n_in=2)
        outer = random_fnn(rng, n_in=inner.output_dim)
        combined = concatenate(outer, inner)
        books_ok = books_ok and combined.depth == outer.depth + inner.depth - 1
        x = rng.uniform(-1.5, 1.5, size=2)
        nested = evaluate(outer, evaluate(inner, x))
        worst_dev = max(worst_dev, float(np.abs(evaluate(combined, x) - nested).max()))
        trials += 1

    for _ in range(40):  # shared-input parallelization metric identities
        n_in = int(rng.integers(1, 4))
        depth = int(rng.integers(2, 5))
        nets = [random_fnn(rng, n_in=n_in, depth=depth) for _ in range(int(rng.integers(2, 4)))]
        stacked = parallelize_shared(nets)
        books_ok = books_ok and (
            metrics(stacked).connectivity == sum(metrics(f).connectivity for f in nets)
        )
        books_ok = books_ok and (
            metrics(stacked).neurons
            == sum(metrics(f).neurons for f in nets) - (len(nets) - 1) * n_in
        )
        x = rng.uniform(-1.0, 1.0, size=n_in)
        want = np.concatenate([evaluate(f, x) for f in nets])
        worst_dev = max(worst_dev, float(np.abs(evaluate(stacked, x) - want).max()))
        trials += 1

    for _ in range(40):  # scalar-output superposition bound and semantics
        n_in = int(rng.integers(1, 4))
        nets = [random_fnn(rng, n_in=n_in, n_out=1) for _ in range(int(rng.integers(2, 4)))]
        coeffs = rng.uniform(-2.0, 2.0, size=len(nets))
        combined = superpose(nets, coeffs, shared_input=True)
        K = max(f.depth for f in nets)
        allowance = sum(
            metrics(f).connectivity + metrics(f).max_width + 2 * (K - f.depth) + 1
            for f in nets
        )
        books_ok = books_ok and metrics(combined).connectivity <= allowance
        books_ok = books_ok and combined.depth == K
        x = rng.uniform(-1.0, 1.0, size=n_in)
        want = sum(a * evaluate(f, x)[0] for a, f in zip(coeffs, nets))
        worst_dev = max(
            worst_dev, abs(evaluate(combined, x)[0] - want) / max(1.0, abs(want))
        )
        trials += 1

    ok = trials >= 200 and books_ok and worst_dev <= 1e-9
    criterion(
        5,
        ok,
        f"{trials} randomized calculus trials: metric identities "
        f"{'hold' if books_ok else 'BROKEN'}, worst semantic deviation "
        f"{worst_dev:.3e} (<=1e-9)",
    )


def test_criterion_6_derivative_accuracy():
    net = small_net()
    start = time.perf_counter()
    report = sobolev_error_matvec(net, 2, 2, 1.0, samples=10000, seed=0)
    elapsed = time.perf_counter() - start
    worst = max(report.sup_error, report.grad_sup_error)
    slope = max(
        square_slope_sup(square_net_of_order(order), points=2048)
        for order in (1, 4, net.record.sawtooth_order)
    )
    ok = worst <= 2.0 ** -4 and slope <= 2.0 and elapsed <= 30.0
    criterion(
        6,
        ok,
        f"matvec(2,2,D=1,eps=2^-4) on 10^4 kink-avoiding samples: "
        f"max(value dev {report.sup_error:.3e}, grad dev {report.grad_sup_error:.3e}) "
        f"<= 2^-4, square-net slope sup {slope:.6f} (<=2), "
        f"{report.kinks_skipped} skipped, {elapsed:.1f}s (<=30s)",
    )


def test_criterion_7_bit_identical_reports(pooled):
    rows = {}

    net1 = real_net()
    rows["real"] = [
        report_row(net1, sup_error_matvec(net1, 8, 4, 2.0, samples=100000, seed=0, jobs=jobs))
        for jobs in (1, 3, 4)
    ]
    rows["real"].append(
        report_row(net1, sup_error_matvec(net1, 8, 4, 2.0, samples=100000, seed=0, jobs=1))
    )

    net2 = complex_net()
    rows["complex"] = [
        report_row(net2, dataset_error_report(net2, qpsk_rayleigh_dataset(8, 4, 20000, clip=3.0, seed=0)))
        for _ in range(2)
    ]

    net6 = small_net()
    rows["sobolev"] = [
        report_row(net6, sobolev_error_matvec(net6, 2, 2, 1.0, samples=2000, seed=0, jobs=jobs))
        for jobs in (1, 4, 1)
    ]

    mismatched = [
        name for name, group in rows.items()
        if any(group[0] != other for other in group[1:])
    ]
    ok = not mismatched
    criterion(
        7,
        ok,
        "reruns with jobs in {1,3,4} and fresh generators give bit-identical "
        f"CSV rows for real/complex/sobolev reports"
        + (f"; MISMATCH in {mismatched}" if mismatched else ""),
    )


def test_criterion_8_derivative_accuracy_at_the_real_point():
    net = real_net()
    start = time.perf_counter()
    reports = [
        sobolev_error_matvec(net, 8, 4, 2.0, samples=2000, seed=0, jobs=jobs) for jobs in (1, 2)
    ]
    elapsed = time.perf_counter() - start
    report = reports[0]
    rows = [report_row(net, r) for r in reports]
    ok = max(report.sup_error, report.grad_sup_error) <= 2.0 ** -5 and rows[0] == rows[1]
    criterion(
        8,
        ok,
        f"matvec(8,4,D=2,eps=2^-5) on 2000 kink-avoiding samples: "
        f"value dev {report.sup_error:.3e}, grad dev {report.grad_sup_error:.3e} (<=2^-5), "
        f"{report.kinks_skipped} skipped, jobs 1 and 2 rows "
        f"{'equal' if rows[0] == rows[1] else 'DIFFER'}, {elapsed:.1f}s for both",
    )
