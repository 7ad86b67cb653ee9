"""Combination operators: semantics must be exact, metric arithmetic must be closed-form."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matvecnet import (
    Fnn,
    Layer,
    compose_selection,
    concatenate,
    evaluate,
    identity_fnn,
    match_depth,
    metrics,
    parallelize_disjoint,
    parallelize_shared,
    superpose,
)

from conftest import random_fnn, scipy_csr


def last_layer_nnz(f):
    last = f.layers[-1]
    return int(np.count_nonzero(last.weights.toarray())) + int(np.count_nonzero(last.bias))


# ---------------------------------------------------------------- identity


def test_identity_is_bit_exact():
    net = identity_fnn(4, 5)
    rng = np.random.default_rng(11)
    for _ in range(1000):
        x = rng.uniform(-10.0, 10.0, size=4)
        assert np.array_equal(evaluate(net, x), x)


def test_identity_metrics():
    got = metrics(identity_fnn(2, 3))
    assert got.depth == 3
    assert got.connectivity == 2 * 2 * 3  # 2dK nonzeros for K >= 2
    assert got.max_weight == 1.0
    for layer in identity_fnn(2, 3).layers:
        assert set(np.unique(layer.weights.toarray())) <= {-1.0, 0.0, 1.0}


def test_identity_depth_one_is_plain_affine():
    net = identity_fnn(3, 1)
    assert net.depth == 1
    assert np.array_equal(net.layers[0].weights.toarray(), np.eye(3))


def test_identity_rejects_bad_arguments():
    with pytest.raises(ValueError):
        identity_fnn(0, 2)
    with pytest.raises(ValueError):
        identity_fnn(2, 0)


# ---------------------------------------------------------------- concatenate


def test_concatenate_depth_and_semantics():
    rng = np.random.default_rng(3)
    inner = random_fnn(rng, n_in=3, depth=5, n_out=2)
    outer = random_fnn(rng, n_in=2, depth=4, n_out=2)
    combined = concatenate(outer, inner)
    assert combined.depth == 4 + 5 - 1
    for _ in range(50):
        x = rng.uniform(-2.0, 2.0, size=3)
        nested = evaluate(outer, evaluate(inner, x))
        assert np.max(np.abs(evaluate(combined, x) - nested)) <= 1e-9


def test_concatenate_with_identity_preserves_function():
    rng = np.random.default_rng(4)
    f = random_fnn(rng, n_in=2, depth=3, n_out=3)
    wrapped = concatenate(identity_fnn(3, 2), f)
    for _ in range(50):
        x = rng.uniform(-3.0, 3.0, size=2)
        assert np.array_equal(evaluate(wrapped, x), evaluate(f, x))


def test_concatenate_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        concatenate(identity_fnn(2, 2), identity_fnn(3, 2))


# ---------------------------------------------------------------- match_depth


def test_match_depth_noop_at_own_depth():
    f = identity_fnn(2, 3)
    assert match_depth(f, 3) is f


def test_match_depth_connectivity_growth_is_exact():
    rng = np.random.default_rng(7)
    for _ in range(30):
        f = random_fnn(rng)
        K = f.depth + int(rng.integers(1, 4))
        padded = match_depth(f, K)
        assert padded.depth == K
        grown = metrics(padded).connectivity
        expected = (
            metrics(f).connectivity
            + last_layer_nnz(f)
            + 2 * f.output_dim * (K - f.depth)
        )
        assert grown == expected
        x = rng.uniform(-2.0, 2.0, size=f.input_dim)
        assert np.array_equal(evaluate(padded, x), evaluate(f, x))


def test_match_depth_rejects_shrinking():
    with pytest.raises(ValueError):
        match_depth(identity_fnn(1, 4), 2)


# ---------------------------------------------------------------- parallelize


def test_parallelize_shared_metric_identities():
    rng = np.random.default_rng(21)
    nets = [random_fnn(rng, n_in=3, depth=4) for _ in range(3)]
    stacked = parallelize_shared(nets)
    assert stacked.depth == 4
    assert metrics(stacked).connectivity == sum(metrics(f).connectivity for f in nets)
    assert metrics(stacked).neurons == sum(metrics(f).neurons for f in nets) - 2 * 3
    x = rng.uniform(-1.0, 1.0, size=3)
    expected = np.concatenate([evaluate(f, x) for f in nets])
    assert np.array_equal(evaluate(stacked, x), expected)


def test_parallelize_shared_single_net_unchanged():
    f = identity_fnn(2, 3)
    assert parallelize_shared([f]) is f


def test_parallelize_shared_two_identities():
    stacked = parallelize_shared([identity_fnn(2, 3), identity_fnn(2, 3)])
    x = np.array([1.5, -0.25])
    assert np.array_equal(evaluate(stacked, x), np.array([1.5, -0.25, 1.5, -0.25]))


def test_parallelize_shared_rejects_mismatch():
    with pytest.raises(ValueError):
        parallelize_shared([identity_fnn(2, 3), identity_fnn(3, 3)])
    with pytest.raises(ValueError):
        parallelize_shared([identity_fnn(2, 3), identity_fnn(2, 4)])
    with pytest.raises(ValueError):
        parallelize_shared([])


def test_parallelize_disjoint_scales_outputs():
    stacked = parallelize_disjoint(
        [identity_fnn(1, 2), identity_fnn(1, 2)], coefficients=(2.0, -1.0)
    )
    out = evaluate(stacked, np.array([3.0, 4.0]))
    assert np.array_equal(out, np.array([6.0, -4.0]))


def test_parallelize_disjoint_equalizes_depths():
    rng = np.random.default_rng(30)
    shallow = random_fnn(rng, n_in=2, depth=2, n_out=1)
    deep = random_fnn(rng, n_in=3, depth=5, n_out=1)
    stacked = parallelize_disjoint([shallow, deep])
    assert stacked.depth == 5
    assert stacked.input_dim == 5
    x = rng.uniform(-1.0, 1.0, size=5)
    out = evaluate(stacked, x)
    assert abs(out[0] - evaluate(shallow, x[:2])[0]) <= 1e-9
    assert abs(out[1] - evaluate(deep, x[2:])[0]) <= 1e-9


def test_parallelize_disjoint_width_bound_scalar_outputs():
    # for scalar-output constituents the stacked width never exceeds
    # the sum of max(2, width_i)
    rng = np.random.default_rng(31)
    nets = [random_fnn(rng, depth=3, n_out=1) for _ in range(4)]
    stacked = parallelize_disjoint(nets)
    bound = sum(max(2, metrics(f).max_width) for f in nets)
    assert metrics(stacked).max_width <= bound


def test_parallelize_disjoint_rejects_coefficient_mismatch():
    with pytest.raises(ValueError):
        parallelize_disjoint([identity_fnn(1, 2)], coefficients=(1.0, 2.0))


# Entries at the edges of a merge: signed zeros, products that underflow or
# overflow, and values with no finite binary expansion.
_MERGE_VALUES = st.sampled_from([0.0, -0.0, 1e-200, -1e-200, 1e200, -1e200, 0.1, -1 / 3, 0.7, -2.5])


@st.composite
def merge_layers(draw):
    """The inner and outer layer of a merge, each with maybe one empty row."""
    d_in, d_mid, d_out = (draw(st.integers(1, 5)) for _ in range(3))
    layers = []
    for rows, cols in ((d_mid, d_in), (d_out, d_mid)):
        W = np.array(draw(st.lists(_MERGE_VALUES, min_size=rows * cols, max_size=rows * cols)))
        W = W.reshape(rows, cols)
        empty = draw(st.integers(0, rows))  # rows empties none
        W[empty:empty + 1] = 0.0
        layers.append(Layer(W, draw(st.lists(_MERGE_VALUES, min_size=rows, max_size=rows))))
    return layers


def assert_same_layer(got, want):
    for part in ("data", "indices", "indptr"):
        a, b = getattr(got.weights, part), getattr(want.weights, part)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert got.weights.shape == want.weights.shape
    assert got.bias.tobytes() == want.bias.tobytes()


@settings(max_examples=300, deadline=None)
@given(layers=merge_layers(), a=st.sampled_from([0.0, -1.0, 0.5]))
def test_merge_and_scaling_match_the_scipy_formula(layers, a):
    inner, outer = layers
    W_o = scipy_csr(outer.weights)
    # 1e200 * 1e200 overflows and 0.0 * inf is nan, on both sides alike
    with np.errstate(over="ignore", invalid="ignore"):
        merged = concatenate(Fnn((outer,)), Fnn((inner,)))
        want = Layer(W_o @ inner.weights.toarray(), W_o @ inner.bias + outer.bias)
        scaled = parallelize_disjoint([merged], [a])
        want_scaled = Layer(a * scipy_csr(want.weights), a * want.bias)
    assert_same_layer(merged.layers[0], want)
    assert_same_layer(scaled.layers[0], want_scaled)


# ---------------------------------------------------------------- superpose


def test_superpose_single_net_is_layerwise_equal():
    rng = np.random.default_rng(40)
    f = random_fnn(rng, depth=3)
    same = superpose([f], (1.0,))
    assert same.depth == f.depth
    for got, want in zip(same.layers, f.layers):
        assert np.array_equal(got.weights.toarray(), want.weights.toarray())
        assert np.array_equal(got.bias, want.bias)


def test_superpose_shared_input_sums():
    net = superpose([identity_fnn(1, 2), identity_fnn(1, 2)], (1.0, 1.0), shared_input=True)
    assert evaluate(net, np.array([2.0]))[0] == 4.0
    assert net.input_dim == 1


def test_superpose_disjoint_input_blocks():
    net = superpose([identity_fnn(2, 2), identity_fnn(2, 3)], (1.0, -0.5))
    assert net.input_dim == 4
    out = evaluate(net, np.array([1.0, 2.0, 6.0, -4.0]))
    assert np.max(np.abs(out - np.array([-2.0, 4.0]))) <= 1e-9


def test_superpose_keeps_zero_coefficient_branches():
    rng = np.random.default_rng(41)
    f = random_fnn(rng, n_in=2, depth=3, n_out=1)
    g = random_fnn(rng, n_in=2, depth=3, n_out=1)
    full = superpose([f, g], (1.0, 1.0), shared_input=True)
    dropped = superpose([f, g], (1.0, 0.0), shared_input=True)
    assert metrics(dropped).neurons == metrics(full).neurons
    assert dropped.depth == full.depth
    x = rng.uniform(-1.0, 1.0, size=2)
    assert abs(evaluate(dropped, x)[0] - evaluate(f, x)[0]) <= 1e-9


def test_superpose_connectivity_within_summing_budget():
    # folding the summing row into the last layer can only lose bias entries,
    # so connectivity stays at or below the stacked count plus n * d
    rng = np.random.default_rng(42)
    nets = [random_fnn(rng, n_in=2, depth=3, n_out=2) for _ in range(3)]
    stacked = parallelize_shared(nets)
    combined = superpose(nets, (1.0, 2.0, 3.0), shared_input=True)
    assert metrics(combined).connectivity <= metrics(stacked).connectivity + 3 * 2


def test_superpose_rejects_output_mismatch():
    with pytest.raises(ValueError):
        superpose([identity_fnn(1, 2), identity_fnn(2, 2)], (1.0, 1.0))


# ---------------------------------------------------------------- selection


def test_compose_selection_picks_coordinates():
    selector = np.zeros((2, 4))
    selector[0, 2] = 1.0
    selector[1, 0] = 1.0
    picked = compose_selection(identity_fnn(2, 2), selector)
    out = evaluate(picked, np.array([10.0, 20.0, 30.0, 40.0]))
    assert np.array_equal(out, np.array([30.0, 10.0]))


def test_compose_selection_identity_selector_is_noop():
    rng = np.random.default_rng(50)
    f = random_fnn(rng, n_in=3, depth=3)
    same = compose_selection(f, np.eye(3))
    x = rng.uniform(-1.0, 1.0, size=3)
    assert np.array_equal(evaluate(same, x), evaluate(f, x))


def test_compose_selection_semantics_random():
    rng = np.random.default_rng(51)
    for _ in range(20):
        f = random_fnn(rng, n_in=3, depth=3)
        width = int(rng.integers(4, 9))
        picks = rng.choice(width, size=3, replace=False)
        selector = np.zeros((3, width))
        selector[np.arange(3), picks] = 1.0
        picked = compose_selection(f, selector)
        x = rng.uniform(-2.0, 2.0, size=width)
        assert np.array_equal(evaluate(picked, x), evaluate(f, x[picks]))


def test_compose_selection_repeated_column_still_agrees():
    # two rows may pick the same source column; the scattered columns then
    # merge, which is exact as a function but not bit for bit
    rng = np.random.default_rng(52)
    f = random_fnn(rng, n_in=2, depth=3)
    selector = np.zeros((2, 3))
    selector[0, 1] = selector[1, 1] = 1.0
    picked = compose_selection(f, selector)
    x = rng.uniform(-2.0, 2.0, size=3)
    want = evaluate(f, np.array([x[1], x[1]]))
    assert np.max(np.abs(evaluate(picked, x) - want)) <= 1e-12


def test_compose_selection_adds_repeated_columns_in_input_order():
    # three inputs read column 0; the first layer's entries for them are
    # added left to right, as summing dense columns did
    tiny = 2.0 ** -60
    rows = [[1.0, tiny, -1.0], [tiny, 1.0, -1.0], [1.0, -1.0, tiny], [0.0, 3.0, 0.0]]
    f = Fnn((Layer(rows, np.zeros(4)),))
    selector = np.zeros((3, 2))
    selector[:, 0] = 1.0
    first = compose_selection(f, selector).layers[0].weights
    want = [[(a + b) + c, 0.0] for a, b, c in rows]
    assert want[0][0] == 0.0 and want[2][0] == tiny
    assert first.toarray().tolist() == want
    assert len(first.data) == 2


def test_compose_selection_rejects_bad_selectors():
    f = identity_fnn(2, 2)
    with pytest.raises(ValueError):
        compose_selection(f, np.zeros((2, 4)))  # no ones at all
    two_ones = np.zeros((2, 4))
    two_ones[0, 0] = two_ones[0, 1] = 1.0
    two_ones[1, 2] = 1.0
    with pytest.raises(ValueError):
        compose_selection(f, two_ones)
    fractional = np.zeros((2, 4))
    fractional[0, 0] = 0.5
    fractional[1, 1] = 1.0
    with pytest.raises(ValueError):
        compose_selection(f, fractional)
    with pytest.raises(ValueError):
        compose_selection(f, np.eye(3))  # row count mismatch


# ---------------------------------------------------------------- randomized


def test_randomized_metric_identities():
    rng = np.random.default_rng(99)
    for trial in range(60):
        depth = int(rng.integers(2, 5))
        n_in = int(rng.integers(1, 4))
        nets = [random_fnn(rng, n_in=n_in, depth=depth) for _ in range(int(rng.integers(2, 4)))]
        shared = parallelize_shared(nets)
        assert metrics(shared).connectivity == sum(metrics(f).connectivity for f in nets)
        assert (
            metrics(shared).neurons
            == sum(metrics(f).neurons for f in nets) - (len(nets) - 1) * n_in
        )
        assert metrics(shared).max_width <= sum(metrics(f).max_width for f in nets)

        inner = random_fnn(rng, n_in=2, n_out=n_in)
        chained = concatenate(nets[0], inner)
        assert chained.depth == nets[0].depth + inner.depth - 1
        x = rng.uniform(-1.5, 1.5, size=2)
        nested = evaluate(nets[0], evaluate(inner, x))
        assert np.max(np.abs(evaluate(chained, x) - nested)) <= 1e-9


@settings(deadline=None, max_examples=40)
@given(
    d=st.integers(min_value=1, max_value=5),
    K=st.integers(min_value=1, max_value=6),
    x=st.lists(st.floats(min_value=-50.0, max_value=50.0), min_size=5, max_size=5),
)
def test_identity_property(d, K, x):
    point = np.asarray(x[:d])
    assert np.array_equal(evaluate(identity_fnn(d, K), point), point)


@settings(deadline=None, max_examples=30)
@given(
    coeffs=st.lists(
        st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
        min_size=2,
        max_size=4,
    ),
    value=st.floats(min_value=-8.0, max_value=8.0),
)
def test_superpose_of_identities_is_weighted_sum(coeffs, value):
    nets = [identity_fnn(1, 2) for _ in coeffs]
    combined = superpose(nets, coeffs, shared_input=True)
    want = sum(coeffs) * value
    assert abs(evaluate(combined, np.array([value]))[0] - want) <= 1e-9 * max(1.0, abs(want))
