"""Product approximators and exact affine forms.

The squaring network interpolates x^2 on a dyadic grid, so a lot of what
looks approximate is actually exact at grid points, and the worst-case error
is an exact power of two. Tests lean on that: bit equality where the
construction promises it, tolerances only where rounding genuinely enters.
"""

import hashlib
import itertools
from math import log2

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matvecnet import (
    KINDS,
    BoundBudget,
    ConstructionRecord,
    affine_representation,
    check_budget,
    complex_matvec_net,
    dot_product_net,
    evaluate,
    evaluate_batch,
    matvec_net,
    metrics,
    pack_complex,
    pack_matvec,
    predicted_budget,
    sawtooth_order,
    scalar_product_net,
    square_net,
    square_net_of_order,
)


# ---------------------------------------------------------------- squaring


def test_sawtooth_order_at_exact_powers():
    for m in range(11):
        assert sawtooth_order(2.0 ** (-2 * (m + 1))) == m
    assert sawtooth_order(0.25) == 0
    assert sawtooth_order(0.24) == 1
    with pytest.raises(ValueError):
        sawtooth_order(0.0)


def test_square_net_of_order_shape():
    assert square_net_of_order(0).depth == 1
    for order in (1, 3, 7):
        net = square_net_of_order(order)
        got = metrics(net)
        assert got.depth == order + 1
        assert got.max_width == 4
        # the hat rows carrying the -4 only appear from the first transition
        # layer on, so order 1 tops out at 1
        assert got.max_weight == (4.0 if order >= 2 else 1.0)
        assert got.connectivity == 15 * order - 5
    with pytest.raises(ValueError):
        square_net_of_order(-1)


def test_square_net_exact_at_dyadic_grid():
    net = square_net_of_order(4)
    for k in range(17):
        x = k / 16.0
        assert evaluate(net, np.array([x]))[0] == x * x


def test_square_net_midpoint_error_is_exact_power_of_two():
    for order in (1, 2, 5):
        net = square_net_of_order(order)
        worst = 2.0 ** (-2 * (order + 1))
        for k in (0, 1, 2 ** order - 1):
            x = (2 * k + 1) / 2.0 ** (order + 1)
            err = evaluate(net, np.array([x]))[0] - x * x
            assert err == worst


def test_square_net_picks_minimal_order():
    net = square_net(2.0 ** -6)
    assert net.record.sawtooth_order == sawtooth_order(2.0 ** -6) == 2
    grid = np.linspace(0.0, 1.0, 1025)[:, None]
    err = np.abs(evaluate_batch(net, grid)[:, 0] - grid[:, 0] ** 2)
    assert err.max() == 2.0 ** (-2 * (2 + 1))
    assert err.max() <= 2.0 ** -6


def test_square_net_rejects_out_of_range_eps():
    for bad in (0.0, 0.5, 0.75, -0.1):
        with pytest.raises(ValueError):
            square_net(bad)


@settings(deadline=None, max_examples=25)
@given(order=st.integers(min_value=0, max_value=8), k=st.integers(min_value=0, max_value=255))
def test_square_net_never_exceeds_its_error_law(order, k):
    net = square_net_of_order(order)
    x = k / 255.0
    err = abs(evaluate(net, np.array([x]))[0] - x * x)
    assert err <= 2.0 ** (-2 * (order + 1))


# ---------------------------------------------------------------- scalar product


def test_scalar_product_grid_accuracy():
    D, eps = 2.0, 2.0 ** -5
    net = scalar_product_net(D, eps)
    axis = np.linspace(-D, D, 129)
    w, x = np.meshgrid(axis, axis)
    pts = np.column_stack([w.ravel(), x.ravel()])
    out = evaluate_batch(net, pts)[:, 0]
    assert np.abs(out - pts[:, 0] * pts[:, 1]).max() <= eps


def test_scalar_product_vanishes_exactly_on_zero_factor():
    net = scalar_product_net(3.0, 2.0 ** -4)
    rng = np.random.default_rng(17)
    for _ in range(100):
        t = rng.uniform(-3.0, 3.0)
        assert evaluate(net, np.array([0.0, t]))[0] == 0.0
        assert evaluate(net, np.array([t, 0.0]))[0] == 0.0


def test_scalar_product_is_symmetric_to_rounding():
    # swapping the factors swaps two addends in the readout, which can move
    # the result by a few ulps but no more
    net = scalar_product_net(2.0, 2.0 ** -5)
    rng = np.random.default_rng(18)
    pts = rng.uniform(-2.0, 2.0, size=(5000, 2))
    fwd = evaluate_batch(net, pts)[:, 0]
    rev = evaluate_batch(net, pts[:, ::-1])[:, 0]
    assert np.abs(fwd - rev).max() <= 1e-14


def test_scalar_product_depth_tracks_sawtooth_order():
    net = scalar_product_net(2.0, 2.0 ** -5)
    assert net.record.sawtooth_order == 7
    assert net.depth == 7 + 3
    got = metrics(net)
    assert got.max_width <= 12
    assert got.max_weight == 8.0  # the 2 D^2 output scale


def test_scalar_product_order_zero_degenerates_gracefully():
    net = scalar_product_net(0.1, 0.4)
    assert net.record.sawtooth_order == 0
    assert net.depth == 3
    rng = np.random.default_rng(19)
    pts = rng.uniform(-0.1, 0.1, size=(500, 2))
    out = evaluate_batch(net, pts)[:, 0]
    assert np.abs(out - pts[:, 0] * pts[:, 1]).max() <= 0.4


def test_scalar_product_small_domain_weight_excess_is_reported():
    # for D < 1/8 the folded 1/(2D) input scaling exceeds the claimed
    # max(4, 2 D^2) weight bound; the budget check must say so rather than
    # the construction silently rescaling
    D = 1.0 / 16.0
    net = scalar_product_net(D, 2.0 ** -5)
    assert metrics(net).max_weight == 8.0
    budget = predicted_budget("scalar_product", D=D, eps=2.0 ** -5)
    assert budget.weight_bound == 4.0
    assert check_budget(net, budget).weight_ok is False


def test_scalar_product_rejects_bad_arguments():
    with pytest.raises(ValueError):
        scalar_product_net(0.0, 0.1)
    with pytest.raises(ValueError):
        scalar_product_net(1.0, 0.5)


# ---------------------------------------------------------------- dot product


def test_dot_product_single_pair_matches_scalar_network():
    one = dot_product_net(1, 2.0, 2.0 ** -4)
    scalar = scalar_product_net(2.0, 2.0 ** -4)
    assert one.depth == scalar.depth
    for got, want in zip(one.layers, scalar.layers):
        assert np.array_equal(got.weights.toarray(), want.weights.toarray())
        assert np.array_equal(got.bias, want.bias)


def test_dot_product_accuracy_and_vanishing():
    n, D, eps = 3, 1.5, 2.0 ** -4
    net = dot_product_net(n, D, eps)
    rng = np.random.default_rng(23)
    pts = rng.uniform(-D, D, size=(2000, 2 * n))
    out = evaluate_batch(net, pts)[:, 0]
    truth = np.sum(pts[:, :n] * pts[:, n:], axis=1)
    assert np.abs(out - truth).max() <= eps
    for _ in range(30):
        x = rng.uniform(-D, D, size=n)
        assert evaluate(net, np.concatenate([np.zeros(n), x]))[0] == 0.0
        assert evaluate(net, np.concatenate([x, np.zeros(n)]))[0] == 0.0


@pytest.mark.parametrize("n, packing", [
    (1, "(w_1, x_1)"), (2, "(w_1..w_2, x_1..x_2)"), (3, "(w_1..w_3, x_1..x_3)"),
])
def test_dot_product_packing_names_each_block_once(n, packing):
    # n = 1 used to read "(w_1..w_1, x_1..x_1)"
    assert dot_product_net(n, 1.0, 2.0 ** -6).record.input_packing == packing


def test_dot_product_width_scales_linearly():
    net = dot_product_net(4, 1.0, 2.0 ** -3)
    assert metrics(net).max_width <= 12 * 4
    assert net.input_dim == 8


# ---------------------------------------------------------------- matvec


def test_matvec_accuracy_against_dense_product():
    m, n, D, eps = 2, 3, 1.5, 2.0 ** -4
    net = matvec_net(m, n, D, eps)
    rng = np.random.default_rng(29)
    for _ in range(50):
        W = rng.uniform(-D, D, size=(m, n))
        x = rng.uniform(-D, D, size=n)
        out = evaluate(net, pack_matvec(W, x))
        assert np.abs(out - W @ x).max() <= eps


def test_matvec_vanishing_and_budget():
    m, n, D, eps = 2, 2, 1.0, 2.0 ** -4
    net = matvec_net(m, n, D, eps)
    rng = np.random.default_rng(31)
    x = rng.uniform(-D, D, size=n)
    W = rng.uniform(-D, D, size=(m, n))
    assert np.array_equal(evaluate(net, pack_matvec(np.zeros((m, n)), x)), np.zeros(m))
    assert np.array_equal(evaluate(net, pack_matvec(W, np.zeros(n))), np.zeros(m))
    budget = predicted_budget("matvec", m=m, n=n, D=D, eps=eps)
    compliance = check_budget(net, budget)
    assert compliance.passed
    assert metrics(net).max_width <= 12 * m * n


def test_matvec_packing_is_column_major():
    # W[i, j] sits at coordinate j*m + i: bump one entry and only row i moves
    m, n, D, eps = 3, 2, 1.0, 2.0 ** -3
    net = matvec_net(m, n, D, eps)
    W = np.zeros((m, n))
    W[2, 1] = 0.75
    x = np.array([0.5, 0.5])
    packed = pack_matvec(W, x)
    assert packed[1 * m + 2] == 0.75
    out = evaluate(net, packed)
    assert out[0] == 0.0 and out[1] == 0.0
    assert abs(out[2] - 0.375) <= eps


def test_matvec_frozen_operating_point():
    net = matvec_net(8, 4, 2.0, 2.0 ** -5)
    assert net.record.sawtooth_order == 9
    assert net.depth == 12
    got = metrics(net)
    assert got.max_width == 384
    assert got.max_weight == 8.0


def test_matvec_error_at_the_paper_argmax_is_exactly_n_D2_4_pow_minus_m():
    # every entry at D 2^-m sends each |.| / 2D to a midpoint of f_m's grid,
    # where its squaring error peaks; the reference product is exact there
    m, n, D = 8, 4, 2.0
    net = matvec_net(m, n, D, 2.0 ** -5)
    order = net.record.sawtooth_order
    assert order == 9
    W, x = np.full((m, n), D * 2.0 ** -order), np.full(n, D * 2.0 ** -order)
    err = evaluate(net, pack_matvec(W, x)) - W @ x
    assert np.array_equal(err, np.full(m, -n * D * D * 4.0 ** -order))
    assert err[0] == -6.103515625e-05


def test_matvec_rejects_bad_shape_arguments():
    with pytest.raises(ValueError):
        matvec_net(0, 2, 1.0, 0.1)
    with pytest.raises(ValueError):
        matvec_net(2, 0, 1.0, 0.1)


def test_split_eps_keeps_the_accepted_range():
    # each scalar product takes any share in (0, 1/2), as passed down, and no more
    assert dot_product_net(3, 1.0, 1.4999999).record.eps == 1.4999999
    assert complex_matvec_net(1, 2, 1.0, 3.9999999).record.eps == 3.9999999
    for build in (
        lambda: dot_product_net(3, 1.0, 1.5),
        lambda: matvec_net(2, 3, 1.0, 0.0),
        lambda: complex_matvec_net(1, 2, 1.0, 4.0),
    ):
        with pytest.raises(ValueError, match=r"must lie in \(0, 1/2\), since eps is split"):
            build()
    # a bad D is still named before a bad eps, and one product keeps the plain message
    with pytest.raises(ValueError, match="^D must be positive and finite"):
        complex_matvec_net(1, 2, -1.0, 4.0)
    with pytest.raises(ValueError, match=r"^eps must lie in \(0, 1/2\), got 0.5$"):
        dot_product_net(1, 1.0, 0.5)


def test_underflow_message_names_the_given_eps_and_its_share():
    share = r"eps/2 = 0\.03125: eps/2 / \(6 D\^2\) underflows to 0$"
    with pytest.raises(ValueError, match=r"^D=1e\+200 is too large for eps=0\.0625, split among 2 "
                       r"scalar products as " + share):
        matvec_net(2, 2, 1e200, 2.0 ** -4)
    with pytest.raises(ValueError, match=r"^D=1e\+200 is too large for eps=0\.0625, split among 12 "
                       r"scalar products as eps/4/3 = 0\.005208333333333333: "):
        complex_matvec_net(2, 3, 1e200, 2.0 ** -4)
    with pytest.raises(ValueError, match=r"^D=1e\+200 is too large for eps=0\.0625: eps / "):
        scalar_product_net(1e200, 2.0 ** -4)


# ---------------------------------------------------------------- complex matvec


def test_complex_matvec_accuracy():
    m, n, D, eps = 2, 2, 1.0, 2.0 ** -4
    net = complex_matvec_net(m, n, D, eps)
    rng = np.random.default_rng(37)
    for _ in range(40):
        W = rng.uniform(-D, D, size=(m, n)) + 1j * rng.uniform(-D, D, size=(m, n))
        x = rng.uniform(-D, D, size=n) + 1j * rng.uniform(-D, D, size=n)
        out = evaluate(net, pack_complex(W.real, W.imag, x.real, x.imag))
        product = W @ x
        assert np.abs(out[:m] - product.real).max() <= eps
        assert np.abs(out[m:] - product.imag).max() <= eps


def test_complex_matvec_real_inputs_give_exact_zero_imaginary_part():
    m, n = 2, 2
    net = complex_matvec_net(m, n, 1.0, 2.0 ** -4)
    rng = np.random.default_rng(41)
    W1 = rng.uniform(-1.0, 1.0, size=(m, n))
    x1 = rng.uniform(-1.0, 1.0, size=n)
    out = evaluate(net, pack_complex(W1, np.zeros((m, n)), x1, np.zeros(n)))
    assert np.array_equal(out[m:], np.zeros(m))


def test_complex_matvec_width_and_frozen_point():
    net = complex_matvec_net(8, 4, 3.0, 2.0 ** -5)
    assert net.record.sawtooth_order == 12
    assert net.depth == 15
    got = metrics(net)
    assert got.max_width == 1536
    assert got.max_width <= 48 * 8 * 4
    assert got.max_weight == 18.0


def test_complex_matvec_error_at_the_paper_argmax_is_exactly_2n_D2_4_pow_minus_m():
    # the real part's two products err alike and cancel; the imaginary
    # part's add up
    m, n, D = 8, 4, 3.0
    net = complex_matvec_net(m, n, D, 2.0 ** -5)
    order = net.record.sawtooth_order
    assert order == 12
    W, x = np.full((m, n), D * 2.0 ** -order), np.full(n, D * 2.0 ** -order)
    err = evaluate(net, pack_complex(W, W, x, x)) - np.concatenate([W @ x - W @ x, 2 * (W @ x)])
    assert np.array_equal(err[:m], np.zeros(m))
    assert np.array_equal(err[m:], np.full(m, -2 * n * D * D * 4.0 ** -order))
    assert err[m] == -4.291534423828125e-06


def test_product_networks_keep_their_recorded_weight_bits():
    digest = hashlib.sha256()
    for net in (dot_product_net(3, 1.0, 2.0 ** -4), matvec_net(3, 2, 1.0, 2.0 ** -3),
                complex_matvec_net(2, 2, 1.0, 2.0 ** -4)):
        for layer in net.layers:
            w = layer.weights
            for a in (w.data, w.indices, w.indptr, layer.bias):
                digest.update(a.dtype.str.encode())
                digest.update(np.ascontiguousarray(a).tobytes())
    assert digest.hexdigest() == "009dbe38af21cb033c3d176217ed8c4a5e955b01234aa387bfc5b033c195d804"


# ---------------------------------------------------------------- affine forms


def affine_nnz(W):
    return int(np.count_nonzero(W))


def test_affine_variant1_connectivity_and_value():
    rng = np.random.default_rng(43)
    W = rng.normal(size=(3, 4))
    W[rng.random(W.shape) < 0.3] = 0.0
    net = affine_representation(W, 1)
    assert net.depth == 2
    assert metrics(net).connectivity == 2 * affine_nnz(W) + 2 * 3
    for _ in range(20):
        x = rng.normal(size=4)
        want = W @ x
        scale = max(1.0, np.abs(want).max())
        assert np.abs(evaluate(net, x) - want).max() <= 1e-9 * scale


def test_affine_variant2_connectivity_formula():
    rng = np.random.default_rng(47)
    W = rng.normal(size=(3, 4))
    W[rng.random(W.shape) < 0.3] = 0.0
    K = 6
    net = affine_representation(W, 2, K=K)
    assert net.depth == K
    expected = 2 * 3 + 2 * (K - 2) * 4 + 4 * affine_nnz(W)
    assert metrics(net).connectivity == expected


def test_affine_variant3_hand_counted_example():
    W = np.array([
        [1.0, 0.0, 2.0],
        [0.0, 3.0, 0.0],
    ])
    W2 = np.array([[4.0], [5.0]])
    W = np.hstack([W, W2])  # 2 x 4 with 5 nonzeros
    net = affine_representation(W, 3, K=4)
    assert net.depth == 4
    assert metrics(net).connectivity == 2 * 4 * 2 + 2 * 5  # 2Km + 2 nnz = 26
    x = np.array([1.0, -2.0, 0.5, 0.25])
    assert np.abs(evaluate(net, x) - W @ x).max() <= 1e-12


def test_affine_variants_agree_on_random_matrices():
    rng = np.random.default_rng(53)
    for _ in range(10):
        m, n = rng.integers(1, 5, size=2)
        W = rng.normal(size=(m, n))
        W[rng.random(W.shape) < 0.4] = 0.0
        K = int(rng.integers(3, 7))
        nets = [
            affine_representation(W, 1),
            affine_representation(W, 2, K=K),
            affine_representation(W, 3, K=K),
        ]
        for _ in range(20):
            x = rng.normal(size=n)
            want = W @ x
            scale = max(1.0, np.abs(want).max())
            for net in nets:
                assert np.abs(evaluate(net, x) - want).max() <= 1e-9 * scale


def test_affine_representations_keep_their_recorded_bits():
    rng = np.random.default_rng(59)
    matrices = [np.zeros((2, 3)), np.array([[-0.0, 1.5], [2.0, -0.0], [-0.0, -0.0]])]
    for m, n in ((1, 1), (3, 4), (5, 2)):
        W = rng.normal(size=(m, n))
        W[rng.random(W.shape) < 0.4] = -0.0
        matrices.append(W)
    digest = hashlib.sha256()
    for W in matrices:
        nets = [affine_representation(W, 1)]
        nets += [affine_representation(W, v, K=K) for v in (2, 3) for K in (3, 7)]
        for net in nets:
            for layer in net.layers:
                w = layer.weights
                digest.update(repr(w.shape).encode())
                for a in (w.data, w.indices, w.indptr, layer.bias):
                    digest.update(a.dtype.str.encode())
                    digest.update(np.ascontiguousarray(a).tobytes())
    assert digest.hexdigest() == "11f163eb8d3a03547aad5f2744772386f14602e9da5db5286ce04a627ef7c183"


def test_affine_rejects_bad_arguments():
    W = np.eye(2)
    with pytest.raises(ValueError):
        affine_representation(W, 4)
    with pytest.raises(ValueError):
        affine_representation(W, 1, K=3)
    with pytest.raises(ValueError):
        affine_representation(W, 2, K=2)
    with pytest.raises(ValueError):
        affine_representation(W, 3)
    with pytest.raises(ValueError):
        affine_representation(np.ones(3), 1)
    # a W with no rows or no columns used to give a network validate rejects
    for empty in (np.zeros((0, 3)), np.zeros((3, 0))):
        for variant, K in ((1, None), (2, 4), (3, 4)):
            with pytest.raises(ValueError, match="W must have at least one row and one column"):
                affine_representation(empty, variant, K=K)


# ---------------------------------------------------------------- budgets, records


def test_predicted_budget_matvec_example():
    budget = predicted_budget("matvec", m=8, n=4, D=2.0, eps=2.0 ** -5, C=2.0)
    assert budget.depth_bound == 18.0
    assert budget.width_bound == 384.0
    assert budget.weight_bound == 8.0


def test_predicted_budget_complex_example():
    budget = predicted_budget("complex_matvec", m=8, n=4, D=3.0, eps=2.0 ** -5, C=1.0)
    assert abs(budget.depth_bound - np.log2(4608.0)) <= 1e-12
    assert int(np.ceil(budget.depth_bound)) == 13
    assert budget.width_bound == 1536.0
    assert budget.weight_bound == 18.0


def test_predicted_budget_rejects_missing_parameters():
    with pytest.raises(ValueError):
        predicted_budget("matvec", m=8, n=4, D=2.0)
    with pytest.raises(ValueError):
        predicted_budget("dot_product", eps=0.1)
    with pytest.raises(ValueError):
        predicted_budget("nonsense", D=1.0, eps=0.1, m=1, n=1)


def closed_form_budget(kind, m=None, n=None, D=None, eps=None, C=2.0):
    """The five per-kind closed forms, written out branch by branch: the oracle."""
    if eps is None or not 0.0 < eps:
        raise ValueError("eps must be given and positive")
    if kind == "square":
        return BoundBudget(target_eps=eps, depth_bound=C * log2(1.0 / eps),
                           width_bound=4.0, weight_bound=4.0, depth_constant=C)
    if D is None or not D > 0:
        raise ValueError("D must be given and positive")
    weight = max(4.0, 2.0 * D * D)
    if kind == "scalar_product":
        return BoundBudget(target_eps=eps, depth_bound=C * log2(D * D / eps),
                           width_bound=12.0, weight_bound=weight, depth_constant=C)
    if n is None or n < 1:
        raise ValueError("n must be given and at least 1")
    if kind == "dot_product":
        return BoundBudget(target_eps=eps, depth_bound=C * log2(n * D * D / eps),
                           width_bound=12.0 * n, weight_bound=weight, depth_constant=C)
    if m is None or m < 1:
        raise ValueError("m must be given and at least 1")
    if kind == "matvec":
        return BoundBudget(target_eps=eps, depth_bound=C * log2(n * D * D / eps),
                           width_bound=12.0 * m * n, weight_bound=weight, depth_constant=C)
    if kind == "complex_matvec":
        return BoundBudget(target_eps=eps, depth_bound=C * log2(4.0 * n * D * D / eps),
                           width_bound=48.0 * m * n, weight_bound=weight, depth_constant=C)
    raise ValueError(f"no budget formula for kind {kind!r}")


def budget_outcome(budget_fn, kind, m, n, D, eps, C):
    """Every field of the budget as float hex, or the error message."""
    try:
        budget = budget_fn(kind, m=m, n=n, D=D, eps=eps, C=C)
    except ValueError as exc:
        return ("error", str(exc))
    return tuple(
        (type(value).__name__, float(value).hex())
        for value in (budget.target_eps, budget.depth_bound, budget.width_bound,
                      budget.weight_bound, budget.depth_constant)
    )


# Non-dyadic D, n, eps and C make a reordered product or sum show in the last bits.
BUDGET_GRID = dict(
    m=(None, 0, 1, 3, 8),
    n=(None, 0, 1, 3, 4, 7),
    D=(None, 0.0, 0.3, 1.0, 1.7, 2.0, 2.9, 3.0),
    eps=(None, 0.0, 2.0 ** -5, 0.07, 0.1, 0.7, 3.0),
    C=(0.5, 1.0, 1.7, 2.0),
)


def test_predicted_budget_matches_the_closed_forms_bit_for_bit():
    budgeted = sorted(kind for kind, entry in KINDS.items() if entry.width_factor is not None)
    assert budgeted == sorted(["square", "scalar_product", "dot_product", "matvec",
                               "complex_matvec"])
    budgets = 0
    for kind in budgeted:
        for m, n, D, eps, C in itertools.product(*BUDGET_GRID.values()):
            expected = budget_outcome(closed_form_budget, kind, m, n, D, eps, C)
            got = budget_outcome(predicted_budget, kind, m, n, D, eps, C)
            assert got == expected, (kind, m, n, D, eps, C)
            budgets += expected[0] != "error"
    assert budgets == 13680


@pytest.mark.parametrize("kind", ["affine_v1", "affine_v2", "affine_v3", "nonsense"])
def test_predicted_budget_has_no_formula_for_affine_or_unknown_kinds(kind):
    with pytest.raises(ValueError, match="no budget formula"):
        predicted_budget(kind, m=1, n=1, D=1.0, eps=0.1)
    with pytest.raises(ValueError, match="no budget formula"):
        predicted_budget(kind)


def test_every_kind_row_builds_a_network_of_its_kind_within_budget():
    small = {"m": 2, "n": 3, "D": 1.5, "eps": 2.0 ** -4}
    for kind, entry in KINDS.items():
        assert entry.params == ("m", "n", "D", "eps")[4 - len(entry.params):]
        if entry.builder is None:
            assert entry.params == () and entry.width_factor is None
            continue
        args = {name: small[name] for name in entry.params}
        net = entry.builder(*args.values())
        assert net.record.kind == kind
        assert check_budget(net, predicted_budget(kind, **args)).passed, kind


def test_bound_budget_validates_positivity():
    with pytest.raises(ValueError):
        BoundBudget(target_eps=0.0, depth_bound=1.0, width_bound=1.0, weight_bound=1.0)
    with pytest.raises(ValueError):
        BoundBudget(target_eps=0.1, depth_bound=1.0, width_bound=-1.0, weight_bound=1.0)
    # a nonpositive depth bound is a legitimate vacuous claim, not an error
    vacuous = BoundBudget(target_eps=0.1, depth_bound=-6.0, width_bound=12.0, weight_bound=4.0)
    assert vacuous.depth_bound == -6.0


def test_construction_record_round_trip():
    nets = [
        square_net(2.0 ** -4),
        scalar_product_net(1.0, 2.0 ** -3),
        matvec_net(2, 3, 1.0, 2.0 ** -3),
        complex_matvec_net(2, 2, 1.0, 2.0 ** -3),
        affine_representation(np.eye(2), 1),
    ]
    for net in nets:
        meta = net.record.as_meta()
        assert ConstructionRecord.from_meta(meta) == net.record


def test_construction_record_rejects_unknown_kind():
    with pytest.raises(ValueError):
        ConstructionRecord(kind="mystery", input_packing="x")
