import importlib
import json
import tracemalloc

import numpy as np
import pytest
from conftest import network_document, random_fnn, scipy_csr
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from matvecnet import (
    KINDS,
    Fnn,
    Layer,
    StructureError,
    affine_representation,
    complex_matvec_net,
    concatenate,
    dataset_error_report,
    dot_product_net,
    equispaced_real_dataset,
    evaluate,
    evaluate_batch,
    jacobian,
    load_fnn,
    matvec_net,
    metrics,
    parallelize_disjoint,
    preactivations,
    save_fnn,
    scalar_product_net,
    sobolev_error_matvec,
    square_error_report,
    square_net,
    square_net_of_order,
    square_slope_sup,
    sup_error_matvec,
    validate,
)
from matvecnet.cli import main
from matvecnet.interchange import network_from_document
import matvecnet.network as network
from matvecnet.network import (
    SLICE_BYTES,
    Csr,
    _batch,
    _canonical,
    _distinct,
    _product,
    _tangents,
)


def test_layer_coerces_and_freezes():
    layer = Layer([[1, 2], [3, 4]], [0, 1])
    assert layer.weights.data.dtype == np.float64
    assert layer.bias.dtype == np.float64
    assert not layer.weights.data.flags.writeable
    assert layer.fan_in == 2 and layer.fan_out == 2


def test_layer_stores_canonical_csr():
    dense = np.array([[0.0, -0.0, 3.0, 1.0], [-0.0, 0.0, 0.0, 0.0], [2.0, 0.0, -0.0, -5.0]])
    unsorted = sparse.csr_array(
        (np.array([1.0, 3.0, 0.0, -0.0, -5.0, 2.0]), np.array([3, 2, 0, 1, 3, 0]),
         np.array([0, 4, 4, 6])),
        shape=dense.shape,
    )
    for given_weights in (dense, dense.tolist(), unsorted, sparse.coo_array(dense)):
        W = Layer(given_weights, np.zeros(3)).weights
        assert isinstance(W, Csr)
        assert len(W.data) == np.count_nonzero(dense) == 4
        assert W.indptr.tolist() == [0, 2, 2, 4]
        assert W.indices.tolist() == [2, 3, 0, 3]
        assert W.data.tolist() == [3.0, 1.0, 2.0, -5.0]
        assert scipy_csr(W).has_canonical_format
        assert not any(a.flags.writeable for a in (W.data, W.indices, W.indptr))
    with pytest.raises(ValueError):
        Layer(np.ones((1, 1, 1)), np.zeros(1))


def test_layer_copies_sparse_weights():
    given_weights = sparse.csr_array(np.eye(2))
    layer = Layer(given_weights, np.zeros(2))
    given_weights.data[:] = 7.0
    assert given_weights.data.flags.writeable
    assert np.array_equal(layer.weights.toarray(), np.eye(2))


def test_layer_accepts_row_vector_weights():
    layer = Layer([1.0, -1.0], [0.0])
    assert layer.weights.shape == (1, 2)


def assert_one_form(net):
    for layer in net.layers:
        assert vars(layer).keys() == {"weights", "bias"}
        assert type(layer.weights) is Csr


def test_layers_keep_one_form_through_evaluation_and_files(tmp_path):
    net = matvec_net(2, 2, 1.0, 2.0 ** -4)
    assert_one_form(net)
    xs = np.random.default_rng(16).uniform(-1.0, 1.0, (5, net.input_dim))
    evaluate(net, xs[0])
    evaluate_batch(net, xs)
    preactivations(net, xs)
    jacobian(net, xs)
    assert_one_form(net)
    sup_error_matvec(net, 2, 2, 1.0, samples=50, seed=0)
    sobolev_error_matvec(net, 2, 2, 1.0, samples=50, seed=0)
    dataset_error_report(net, equispaced_real_dataset(2, 2, 20, half_width=1.0))
    assert_one_form(net)
    square = square_net_of_order(3)
    square_error_report(square)
    square_slope_sup(square, points=64)
    assert_one_form(square)
    save_fnn(net, tmp_path / "net.json")
    back = load_fnn(tmp_path / "net.json")
    assert_one_form(back)
    assert evaluate_batch(back, xs).tobytes() == evaluate_batch(net, xs).tobytes()
    assert_one_form(back)


def test_evaluation_and_merges_build_no_scipy_matrix(monkeypatch):
    rng = np.random.default_rng(17)
    inner = random_fnn(rng, n_in=3, depth=2, n_out=4)
    outer = random_fnn(rng, n_in=4, depth=2)
    xs = rng.uniform(-2.0, 2.0, (6, 3))

    def refuse(*args, **kwargs):
        raise AssertionError("a scipy matrix was built")

    monkeypatch.setattr(sparse, "csr_array", refuse)
    monkeypatch.setattr(sparse, "csr_matrix", refuse)
    net = concatenate(outer, inner)
    assert net.depth == 3
    evaluate(net, xs[0])
    evaluate_batch(net, xs)
    preactivations(net, xs)
    jacobian(net, xs)


def test_evaluate_hand_computed():
    # rho(2x - 1) followed by 3h + 5
    net = Fnn((Layer([[2.0]], [-1.0]), Layer([[3.0]], [5.0])))
    assert evaluate(net, np.array([1.0]))[0] == 3.0 * 1.0 + 5.0
    assert evaluate(net, np.array([0.0]))[0] == 5.0  # rectifier clips -1 to 0


def test_output_layer_is_affine_not_rectified():
    net = Fnn((Layer([[1.0]], [0.0]),))
    assert evaluate(net, np.array([-3.0]))[0] == -3.0


def test_evaluate_batch_matches_single_across_chunks():
    # a hidden layer 2000 wide cuts the batch into slices of 32 rows, whose
    # two value blocks fit in SLICE_BYTES
    rng = np.random.default_rng(3)
    hidden = rng.uniform(-2.0, 2.0, (2000, 3))
    hidden[rng.random(hidden.shape) < 0.3] = 0.0
    net = Fnn((
        Layer(hidden, rng.uniform(-1.0, 1.0, 2000)),
        Layer(rng.uniform(-1.0, 1.0, (5, 2000)), rng.uniform(-1.0, 1.0, 5)),
    ))
    step = SLICE_BYTES // (16 * 2000)
    assert step == 32
    xs = rng.uniform(-5, 5, (2 * step + 7, 3))
    batch = evaluate_batch(net, xs)
    for i in (0, step - 1, step, len(xs) - 1):
        assert batch[i].tobytes() == evaluate(net, xs[i]).tobytes()


# Entries of the plan's form: products a * x that are +-0.0, or underflow to it.
_KERNEL_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-200, -1e-200, 0.5, -3.0]),
    st.floats(-1e6, 1e6, allow_nan=False, width=64),
)


@st.composite
def plan_matrices(draw):
    """Raw CSR arrays like a plan's: unsorted, repeated column indices and empty rows."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    lengths = draw(st.lists(st.integers(0, 6), min_size=rows, max_size=rows))
    nnz = sum(lengths)
    indices = draw(st.lists(st.integers(0, cols - 1), min_size=nnz, max_size=nnz))
    data = draw(st.lists(_KERNEL_VALUES.filter(lambda v: v != 0.0), min_size=nnz, max_size=nnz))
    index = draw(st.sampled_from([np.int32, np.int64]))
    return Csr(np.array(data, dtype=np.float64), np.array(indices, dtype=index),
               np.cumsum([0] + lengths).astype(index), (rows, cols))


@settings(max_examples=200, deadline=None)
@given(kernel=plan_matrices(), count=st.integers(1, 300), groups=st.integers(1, 3),
       data=st.data())
def test_kernel_into_a_zeroed_buffer_matches_matmul(kernel, count, groups, data):
    rows, cols = kernel.shape
    weights = scipy_csr(kernel)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    pool = np.array(data.draw(st.lists(_KERNEL_VALUES, min_size=1, max_size=8)))
    Z = rng.choice(pool, (cols, count))
    T = rng.choice(pool, (cols, groups, count))
    # a stale buffer, longer than the block: the product must zero what it writes
    buffer = np.full(rows * groups * count + 3, np.nan)
    assert _product(kernel, Z, buffer).tobytes() == (weights @ Z).tobytes()
    expected = (weights @ T.reshape(cols, -1)).reshape(rows, groups, count)
    assert _product(kernel, T, buffer).tobytes() == expected.tobytes()
    assert np.isnan(buffer[rows * groups * count:]).all()
    with pytest.raises(ValueError, match="dimension mismatch"):
        _product(kernel, Z, buffer[:rows * count - 1])


def test_batch_allocates_one_workspace_per_call():
    plan = _distinct(matvec_net(8, 4, 2.0, 2.0 ** -5))
    xs = np.random.default_rng(4).uniform(-2.0, 2.0, (2048, plan.widths[0]))
    tracemalloc.start()
    try:
        out = _batch(plan, xs)[0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    width = max(plan.widths)
    rows = SLICE_BYTES // (16 * width)
    assert (width, rows) == (272, 240)
    # two value blocks (with the constant neuron's row), the outputs and a
    # margin far below one block per layer, which holds the gathered outputs
    # of one slice (15 KiB) and small objects; with the bias in the kernel,
    # no broadcast add takes numpy's 64 KiB ufunc buffer
    assert peak <= 2 * (width + 1) * rows * 8 + out.nbytes + 32 * 1024


def widest_pairs(tangents):
    """The rows of the widest pair kernel: the pairs a tangent block holds."""
    return max(kernel.shape[0] for kernel in tangents.kernels)


def test_stacked_jacobian_runs_in_slices_of_bounded_memory():
    net = matvec_net(8, 4, 2.0, 2.0 ** -5)
    xs = np.random.default_rng(14).uniform(-2.0, 2.0, (2048, net.input_dim))
    # the first call builds the network's plan, which the network keeps
    first = jacobian(net, xs[0])
    tracemalloc.start()
    try:
        J = jacobian(net, xs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    width, pairs = max(net.widths), widest_pairs(net._pairs)
    rows = SLICE_BYTES // (16 * (width + pairs))
    assert (width, pairs, rows) == (384, 512, 73)
    # the workspace stays within SLICE_BYTES, its activation flags included;
    # the margin holds the outputs the slices compute beside their Jacobians
    # (128 KiB) and small objects
    outputs = len(xs) * net.output_dim * 8
    assert peak <= J.nbytes + SLICE_BYTES + outputs + 32 * 1024
    # first and last row of a slice, first of the next, and the last row
    assert J[0].tobytes() == first.tobytes()
    for i in (rows - 1, rows, 2 * rows - 1, len(xs) - 1):
        assert J[i].tobytes() == jacobian(net, xs[i]).tobytes()


def test_stacked_preactivations_run_in_slices_of_bounded_memory():
    net = matvec_net(8, 4, 2.0, 2.0 ** -5)
    xs = np.random.default_rng(15).uniform(-2.0, 2.0, (2048, net.input_dim))
    # the first call builds the network's plan, which the network keeps
    first = preactivations(net, xs[0])
    tracemalloc.start()
    try:
        pres = preactivations(net, xs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    rows = SLICE_BYTES // (16 * max(net.widths))
    assert rows == 170
    # the workspace stays within SLICE_BYTES; the margin holds the outputs
    # the slices compute beside the pre-activations (128 KiB) and small objects
    results = sum(pre.nbytes for pre in pres)
    outputs = len(xs) * net.output_dim * 8
    assert peak <= results + SLICE_BYTES + outputs + 32 * 1024
    # first and last row of a slice, first of the next, and the last row
    assert [pre[0].tobytes() for pre in pres] == [pre.tobytes() for pre in first]
    for i in (rows - 1, rows, 2 * rows - 1, len(xs) - 1):
        single = preactivations(net, xs[i])
        assert [pre[i].tobytes() for pre in pres] == [pre.tobytes() for pre in single]


def test_results_do_not_alias_a_workspace(monkeypatch):
    net = matvec_net(2, 2, 1.0, 2.0 ** -4)
    rng = np.random.default_rng(8)
    first_xs, second_xs = rng.uniform(-1.0, 1.0, (2, 50, net.input_dim))

    def results(xs):
        return [evaluate_batch(net, xs), jacobian(net, xs), *preactivations(net, xs)]

    first = results(first_xs)
    kept = [a.copy() for a in first]
    results(second_xs)
    assert [a.tobytes() for a in first] == [a.tobytes() for a in kept]
    # one call of two 50-row slices, which share its workspace, against a call per slice
    xs = np.vstack((first_xs, second_xs))
    for each in (net._plan, _distinct(net)):
        tangents = _tangents(each)
        per_row = 16 * (max(each.widths) + widest_pairs(tangents))
        monkeypatch.setattr(network, "SLICE_BYTES", 50 * per_row)
        seen = set()
        both = _batch(each, xs, tangents,
                      visit=lambda rows, k, Z: seen.add((rows.start, rows.stop)))
        assert seen == {(0, 50), (50, 100)}
        apart = [_batch(each, part, tangents) for part in (first_xs, second_xs)]
        for whole, *parts in zip(both, *apart):
            assert whole.tobytes() == np.concatenate(parts).tobytes()


def test_evaluate_batch_empty():
    net = random_fnn(np.random.default_rng(0), n_in=2, n_out=4)
    for empty in (np.zeros((0, 2)), []):
        assert evaluate_batch(net, empty).shape == (0, 4)


def test_evaluation_rejects_inputs_of_the_wrong_width():
    net = matvec_net(2, 2, 1.0, 2.0 ** -4)
    wrong = [np.zeros((3, 0)), np.zeros((3, net.input_dim + 1)), np.zeros((0, net.input_dim - 1))]
    for function in (evaluate_batch, preactivations, jacobian):
        for xs in wrong:
            with pytest.raises(StructureError) as exc:
                function(net, xs)
            assert (exc.value.kind, exc.value.layer_index) == ("dimension-mismatch", 1)
    # one vector of the wrong length, and a batch that is one vector
    for function, x in ((evaluate, np.zeros(net.input_dim + 1)), (preactivations, []),
                        (jacobian, np.zeros(1)), (evaluate_batch, np.zeros(net.input_dim))):
        with pytest.raises(StructureError, match="dimension-mismatch at layer 1"):
            function(net, x)


def test_preactivations_track_hidden_layers():
    net = Fnn((Layer([[1.0], [-1.0]], [0.0, 0.0]), Layer([[1.0, 1.0]], [0.0])))
    pres = preactivations(net, np.array([2.0]))
    assert len(pres) == 1
    assert np.array_equal(pres[0], np.array([2.0, -2.0]))


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(11)
    for _ in range(20):
        net = random_fnn(rng, depth=int(rng.integers(1, 4)))
        x = rng.uniform(-3, 3, net.input_dim)
        if any(z.size and np.min(np.abs(z)) < 1e-6 for z in preactivations(net, x)):
            continue
        J = jacobian(net, x)
        h = 1e-7
        for j in range(net.input_dim):
            step = np.zeros(net.input_dim)
            step[j] = h
            fd = (evaluate(net, x + step) - evaluate(net, x - step)) / (2 * h)
            np.testing.assert_allclose(J[:, j], fd, atol=1e-5)


def test_jacobian_zero_preactivation_uses_zero_slope():
    # pre-activation is exactly 0 at x = 0, so the unit contributes nothing
    net = Fnn((Layer([[1.0]], [0.0]), Layer([[1.0]], [0.0])))
    assert jacobian(net, np.array([0.0]))[0, 0] == 0.0


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    count=st.integers(1, 6),
    zero_rows=st.integers(0, 2),
)
def test_stacked_forms_equal_single_rows(seed, count, zero_rows):
    # zero rows and exact-zero entries, against networks with exact-zero
    # weights and biases, put exactly-zero pre-activations in the stack
    rng = np.random.default_rng(seed)
    net = random_fnn(rng)
    xs = rng.uniform(-2.0, 2.0, (count + zero_rows, net.input_dim))
    xs[count:] = 0.0
    xs[rng.random(xs.shape) < 0.3] = 0.0
    pres = preactivations(net, xs)
    jac = jacobian(net, xs)
    assert [p.shape for p in pres] == [(len(xs), w) for w in net.widths[1:-1]]
    assert jac.shape == (len(xs), net.output_dim, net.input_dim)
    for i, x in enumerate(xs):
        single = preactivations(net, x)
        assert len(single) == len(pres)
        for stacked_pre, pre in zip(pres, single):
            assert stacked_pre[i].tobytes() == pre.tobytes()
        assert jac[i].tobytes() == jacobian(net, x).tobytes()
    # a one-row stack keeps its stack axis
    one = jacobian(net, xs[:1])
    assert one.shape == (1, net.output_dim, net.input_dim)
    assert one.tobytes() == jac[:1].tobytes()
    assert [p.tobytes() for p in preactivations(net, xs[:1])] == [p[:1].tobytes() for p in pres]
    # the pair kernels of either plan carry the whole Jacobian, column by column
    for plan in (net._plan, _distinct(net)):
        tangents = _batch(plan, xs, _tangents(plan))[1]
        assert tangents.shape == (len(xs), net.output_dim, net.input_dim)
        for c in range(net.input_dim):
            assert tangents[..., c].tobytes() == jac[..., c].tobytes()


def test_stacked_jacobian_on_a_kink_uses_zero_slope():
    # the second hidden pre-activation is rho(x2): exactly 0 for x2 <= 0
    net = Fnn((Layer([[0.0, 1.0]], [0.0]), Layer([[1.0]], [0.0]), Layer([[1.0]], [0.0])))
    xs = np.array([[0.5, -1.0], [0.5, 0.0], [0.5, 1.0]])
    assert np.array_equal(preactivations(net, xs)[1][:, 0], [0.0, 0.0, 1.0])
    jac = jacobian(net, xs)
    assert np.array_equal(jac[:, 0, :], [[0.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    for i, x in enumerate(xs):
        assert jac[i].tobytes() == jacobian(net, x).tobytes()


def masked_layer_product(net, x):
    """W_K D_{K-1} W_{K-1} ... D_1 W_1 at x: dense W_1, then one CSR product per layer."""
    J = net.layers[0].weights.toarray()
    for layer, pre in zip(net.layers[1:], preactivations(net, x)):
        J *= (pre > 0.0)[:, None]
        J = scipy_csr(layer.weights) @ J
    return J


def assert_jacobian_is_the_masked_layer_product(net, xs):
    jac = jacobian(net, xs)
    assert jac.shape == (len(xs), net.output_dim, net.input_dim)
    for i, x in enumerate(xs):
        assert jac[i].tobytes() == masked_layer_product(net, x).tobytes()


def test_jacobian_masks_an_overflowed_tangent_to_nan():
    # the first hidden neuron's tangent along x1 is 1e200, and the second
    # layer's first neuron sits at about -1e300, inactive, with tangent
    # 1e200 * 1e200 = inf; masked as in the dense form, inf * 0 is nan
    net = Fnn((Layer([[1e200, 0.0], [0.0, -1.0]], [0.0, 0.0]),
               Layer([[1e200, 0.0], [0.0, 1.0]], [-1e300, 0.0]),
               Layer([[1.0, 1.0]], [0.0])))
    xs = np.array([[1e-300, 1.0], [1e-300, -1.0]])
    with np.errstate(invalid="ignore"):
        assert preactivations(net, xs)[1][:, 0].tolist() == [-1e300, -1e300]
        jac = jacobian(net, xs)
        assert np.isnan(jac[:, 0, 0]).all()
        assert jac[:, 0, 1].tolist() == [0.0, -1.0]
        assert_jacobian_is_the_masked_layer_product(net, xs)


def masked_negative_tangents(net, xs):
    """How many tangents the dense form masks to -0.0: negative ones of inactive neurons."""
    count = 0
    for x in xs:
        J = net.layers[0].weights.toarray()
        for layer, pre in zip(net.layers[1:], preactivations(net, x)):
            count += int(np.count_nonzero((J < 0.0) & (pre <= 0.0)[:, None]))
            J = scipy_csr(layer.weights) @ (J * (pre > 0.0)[:, None])
    return count


@pytest.mark.parametrize("m,n,D", [(1, 1, 1.0), (2, 2, 1.0), (3, 5, 1.5), (8, 4, 2.0)])
def test_matvec_jacobians_are_the_masked_layer_product(m, n, D):
    net = matvec_net(m, n, D, 2.0 ** -5)
    rng = np.random.default_rng(m * 10 + n)
    xs = rng.uniform(-D, D, (40, net.input_dim))
    xs[:4] = 0.0
    xs[4:8, : m * n] = 0.0
    xs[8:12] = D
    assert masked_negative_tangents(net, xs) > 0
    assert_jacobian_is_the_masked_layer_product(net, xs)


def test_dot_product_jacobians_are_the_masked_layer_product():
    net = dot_product_net(3, 1.0, 2.0 ** -4)
    # one output sees every input: its row of pairs is full
    assert np.diff(net._pairs.kernels[-1].indptr).all()
    xs = np.random.default_rng(3).uniform(-1.0, 1.0, (25, 6))
    xs[:2] = 0.0
    assert masked_negative_tangents(net, xs) > 0
    assert_jacobian_is_the_masked_layer_product(net, xs)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), blocks=st.integers(1, 4))
def test_block_diagonal_jacobians_are_the_masked_layer_product(seed, blocks):
    # block-diagonal layers: a neuron pairs with the inputs of its own block only
    rng = np.random.default_rng(seed)
    depth = int(rng.integers(1, 5))
    parts = [random_fnn(rng, depth=depth, zero_frac=0.5) for _ in range(blocks)]
    net = parallelize_disjoint(parts)
    assert pair_count(net._pairs) == sum(pair_count(f._pairs) for f in parts)
    xs = rng.uniform(-2.0, 2.0, (int(rng.integers(1, 8)), net.input_dim))
    xs[rng.random(xs.shape) < 0.2] = 0.0
    assert_jacobian_is_the_masked_layer_product(net, xs)


def pair_count(tangents):
    """The tangents one sample carries past the inputs: every pair of a hidden or output layer."""
    outputs = np.count_nonzero(np.diff(tangents.kernels[-1].indptr))
    return sum(len(owner) for owner in tangents.owners) + outputs


def output_pattern(net):
    """Which (output, input) pairs the output pair kernel holds: its nonempty rows."""
    return (np.diff(net._pairs.kernels[-1].indptr) > 0).reshape(net.output_dim, net.input_dim)


@pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (3, 5), (8, 4)])
def test_matvec_outputs_pair_with_their_matrix_row_and_x(m, n):
    # output i reads W[i, j] and x_j for each j, and no other input
    net = matvec_net(m, n, 1.0, 2.0 ** -4)
    expected = np.zeros((m, n * (m + 1)), dtype=bool)
    for i in range(m):
        expected[i, [j * m + i for j in range(n)] + [n * m + j for j in range(n)]] = True
    assert np.array_equal(output_pattern(net), expected)


def test_dense_network_pairs_every_neuron_with_every_input():
    rng = np.random.default_rng(4)
    net = Fnn((Layer(rng.uniform(0.5, 1.0, (4, 5)), np.zeros(4)),
               Layer(rng.uniform(0.5, 1.0, (2, 4)), np.zeros(2))))
    assert net._pairs.owners[0].tolist() == [i for i in range(4) for _ in range(5)]
    assert output_pattern(net).all()


def test_inputs_that_reach_no_output_get_no_pairs():
    # input 0 reaches nothing, input 1 reaches the output
    net = Fnn((Layer([[0.0, 1.0]], [0.0]), Layer([[1.0]], [0.0])))
    assert net._pairs.owners[0].tolist() == [0]
    assert output_pattern(net).tolist() == [[False, True]]
    assert jacobian(net, np.array([[0.5, 0.5]])).tobytes() == np.array([[[0.0, 1.0]]]).tobytes()


@pytest.mark.parametrize("make,pairs", [
    (lambda: matvec_net(2, 2, 1.0, 2.0 ** -4), 372),
    (lambda: matvec_net(8, 4, 2.0, 2.0 ** -5), 3864),
    (lambda: complex_matvec_net(8, 4, 3.0, 2.0 ** -5), 16656),
])
def test_pair_counts_at_the_operating_points(make, pairs):
    # through the distinct plan, as the estimators run it
    assert pair_count(_tangents(_distinct(make()))) == pairs


def oracle_pair_rows(plan):
    """Each pair kernel's rows as (column, weight bits) lists, built one pair at a time."""
    n_in = plan.widths[0]
    pairs = [(c, c) for c in range(n_in)]  # (neuron, input), numbered in order
    expected = []
    for k, kernel in enumerate(plan.kernels):
        at = {pair: p for p, pair in enumerate(pairs)}
        rows = kernel_rows(kernel)
        hidden = k < len(plan.kernels) - 1
        neurons = range(len(rows)) if hidden else plan.output.tolist()
        new_pairs, layer = [], []
        for r, i in enumerate(neurons):
            for c in range(n_in):
                row = [(at[j, c], bits) for j, bits in rows[i] if (j, c) in at]
                if row:
                    new_pairs.append((r, c))
                if row or not hidden:
                    layer.append(row)
        expected.append(layer)
        pairs = new_pairs
    return expected


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_pair_kernels_equal_the_one_pair_at_a_time_oracle(seed):
    rng = np.random.default_rng(seed)
    depth = int(rng.integers(1, 5))
    widths = [int(rng.integers(1, 6))] + [int(rng.integers(1, 8)) for _ in range(depth)]
    alphabet = np.array([-1.5, -1.0, 0.5, 1.0, 3.0])
    net = Fnn(tuple(Layer(planted_layer(rng, widths[k + 1], widths[k], alphabet),
                          rng.choice([0.0, -0.0, 0.25], widths[k + 1])) for k in range(depth)))
    # the distinct plan repeats and reorders columns within a row
    for plan in (net._plan, _distinct(net)):
        tangents = _tangents(plan)
        assert [kernel_rows(kernel) for kernel in tangents.kernels] == oracle_pair_rows(plan)
        for kernel, owner in zip(tangents.kernels, tangents.owners):
            assert len(owner) == kernel.shape[0]
            assert np.all(np.diff(owner) >= 0)


def test_evaluation_builds_no_pair_kernels():
    net = matvec_net(2, 2, 1.0, 2.0 ** -4)
    x = np.zeros(net.input_dim)
    evaluate(net, x), evaluate_batch(net, x[None]), preactivations(net, x)
    assert "_plan" in vars(net) and "_pairs" not in vars(net)
    jacobian(net, x)
    assert "_pairs" in vars(net)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), count=st.integers(1, 5))
def test_jacobian_is_the_masked_layer_product(seed, count):
    rng = np.random.default_rng(seed)
    net = random_fnn(rng)
    xs = rng.uniform(-2.0, 2.0, (count, net.input_dim))
    xs[rng.random(xs.shape) < 0.3] = 0.0
    jac = jacobian(net, xs)
    for i, x in enumerate(xs):
        assert jac[i].tobytes() == masked_layer_product(net, x).tobytes()


def oracle_plan(net):
    """Per layer the kept rows and their read columns; and the output index. One row at a time."""
    index = list(range(net.input_dim))
    steps = []
    for layer in net.layers:
        data, indices, indptr, _ = layer.weights
        groups: dict = {}
        kept, columns, next_index = [], [], []
        for i in range(layer.fan_out):
            read = [index[c] for c in indices[indptr[i]:indptr[i + 1]].tolist()]
            weights = data[indptr[i]:indptr[i + 1]].view(np.int64).tolist()
            key = (layer.bias[i:i + 1].view(np.int64)[0], tuple(zip(read, weights)))
            if key not in groups:
                groups[key] = len(groups)
                kept.append(i)
                columns += read
            next_index.append(groups[key])
        steps.append((kept, columns))
        index = next_index
    return steps, index


def kernel_rows(kernel):
    """Each row of a kernel as (column, weight bits) pairs, in stored order."""
    data, indices, indptr, _ = kernel
    return [list(zip(indices[a:b].tolist(), data[a:b].view(np.int64).tolist()))
            for a, b in zip(indptr[:-1].tolist(), indptr[1:].tolist())]


def expected_kernel_rows(layer, kept, columns, width, hidden):
    """The kernel rows a plan layer must hold: the kept rows' entries, then
    each nonzero bias at the constant neuron's column ``width``, and for a
    hidden layer the constant neuron's own row."""
    data, _, indptr, _ = layer.weights
    bits = data.view(np.int64).tolist()
    rows, at = [], 0
    for i in kept:
        length = int(indptr[i + 1] - indptr[i])
        row = list(zip(columns[at:at + length], bits[indptr[i]:indptr[i + 1]]))
        at += length
        if layer.bias[i] != 0.0:
            row.append((width, int(layer.bias[i:i + 1].view(np.int64)[0])))
        rows.append(row)
    if hidden:
        rows.append([(width, int(np.float64(1.0).view(np.int64)))])
    return rows


def assert_plan_equals_stored(net, xs):
    """The plan groups like the oracle, keeps stored entry order, and runs bit-equal."""
    plan = _distinct(net)
    steps, output = oracle_plan(net)
    assert plan.output.tolist() == output
    assert plan.widths == (net.input_dim,) + tuple(len(kept) for kept, _ in steps)
    for k, (kernel, layer, (kept, columns)) in enumerate(zip(plan.kernels, net.layers, steps)):
        assert kernel_rows(kernel) == expected_kernel_rows(
            layer, kept, columns, plan.widths[k], hidden=k < net.depth - 1,
        )
    assert _batch(plan, xs)[0].tobytes() == evaluate_batch(net, xs).tobytes()
    planned, stored = _batch(plan, xs, _tangents(plan)), _batch(net._plan, xs, net._pairs)
    assert planned[0].tobytes() == stored[0].tobytes()
    assert planned[1].tobytes() == stored[1].tobytes()
    # the kink screen sees each distinct pre-activation row, and no other
    planned_pres: list = []
    _batch(plan, xs, visit=lambda rows, k, Z: planned_pres.append({row.tobytes() for row in Z}))
    stored_pres = [{row.tobytes() for row in pre.T} for pre in preactivations(net, xs)]
    assert planned_pres == stored_pres
    return plan


def planted_layer(rng, fan_out, fan_in, alphabet):
    """Weights drawn from a few values, so that rows and reads repeat."""
    w = rng.choice(alphabet, (fan_out, fan_in))
    w[rng.random(w.shape) < 0.4] = 0.0
    copies = rng.integers(0, fan_out, fan_out // 2)
    w[rng.integers(0, fan_out, copies.size)] = w[copies]
    return w


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), count=st.integers(1, 6))
def test_plan_of_a_network_with_planted_duplicates_runs_bit_equal(seed, count):
    rng = np.random.default_rng(seed)
    depth = int(rng.integers(1, 5))
    widths = [int(rng.integers(1, 7))] + [int(rng.integers(1, 9)) for _ in range(depth)]
    alphabet = np.array([-1.5, -1.0, 0.5, 1.0, 3.0])
    layers = []
    for k in range(depth):
        w = planted_layer(rng, widths[k + 1], widths[k], alphabet)
        b = rng.choice([0.0, -0.0, 0.25, -0.5], widths[k + 1])
        layers.append(Layer(w, b))
    net = Fnn(tuple(layers))
    xs = rng.choice([-2.0, -0.5, 0.0, 0.75, 1.25], (count, net.input_dim))
    assert_plan_equals_stored(net, xs)


def named_cases_net():
    """A network with each case the plan must tell apart or merge, at known rows."""
    hidden = Layer(
        [[1.0, 2.0], [0.5, 0.0], [1.0, 2.0], [1.0, 2.0], [1.0, 2.0], [0.0, 0.0], [0.0, 0.0]],
        [0.5, 0.0, 0.5, 0.0, -0.0, 1.0, 1.0],
    )
    # neurons 0 and 2 are copies; 3 and 4 differ only in the sign of a zero
    # bias; 5 and 6 are equal empty rows
    second = Layer(
        [
            [1.0, 3.0, 0.0, 0.0, 0.0, 0.0, 0.0],   # reads 0 then 1
            [0.0, 3.0, 1.0, 0.0, 0.0, 0.0, 0.0],   # reads 1 then 0's copy: reverse order
            [1.0, 0.0, 2.0, 0.0, 0.0, 0.0, 0.0],   # reads two copies of one neuron
            [1.0, 3.0, 0.0, 0.0, 0.0, 0.0, 0.0],   # a copy of row 0
            [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],   # empty
            [0.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0],
        ],
        np.full(7, -0.25),
    )
    output = Layer([[1.0, -1.0, 1.0, 0.0, 1.0, 1.0, 1.0], [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0],
                    [1.0, -1.0, 1.0, 0.0, 1.0, 1.0, 1.0]], np.zeros(3))
    return Fnn((hidden, second, output))


def test_plan_keeps_each_named_case():
    net = named_cases_net()
    xs = np.random.default_rng(9).uniform(-2.0, 2.0, (50, 2))
    xs[:3] = 0.0
    plan = assert_plan_equals_stored(net, xs)
    # hidden: 0 = 2 and 5 = 6 merge, 3 and 4 stay apart
    assert plan.widths == (2, 5, 6, 2)
    rows = [[c for c, _ in row] for row in kernel_rows(plan.kernels[1])]
    # every row ends with its bias -0.25 at column 5, which reads the constant
    # neuron; the reverse read stays apart from row 0; the double read repeats
    # a column
    assert rows[:3] == [[0, 1, 5], [1, 0, 5], [0, 0, 5]]
    # the two zero-bias neurons feed rows that stay apart; the constant
    # neuron's own row comes last
    assert rows[4:] == [[2, 4, 5], [3, 4, 5], [5]]
    assert plan.output.tolist() == [0, 1, 0]


@pytest.mark.parametrize("net", [
    square_net_of_order(0),
    square_net(2.0 ** -8),
    scalar_product_net(1.5, 2.0 ** -6),
    dot_product_net(3, 1.0, 2.0 ** -5),
    matvec_net(1, 1, 1.0, 2.0 ** -4),
    matvec_net(3, 2, 2.0, 2.0 ** -5),
    complex_matvec_net(1, 2, 1.5, 2.0 ** -4),
    complex_matvec_net(2, 2, 3.0, 2.0 ** -5),
    affine_representation(np.array([[1.0, -2.0], [0.5, 0.0], [1.0, -2.0]]), 1),
    affine_representation(np.array([[1.0, -2.0], [0.5, 0.0]]), 2, K=3),
], ids=lambda net: net.record.kind)
def test_plan_of_every_construction_runs_bit_equal(net):
    rng = np.random.default_rng(net.input_dim)
    xs = rng.uniform(-1.5, 1.5, (60, net.input_dim))
    xs[:2] = 0.0
    xs[2:4] = 1.0
    assert_plan_equals_stored(net, xs)


@pytest.mark.parametrize("make,width", [
    (lambda: matvec_net(2, 2, 1.0, 2.0 ** -4), 40),
    (lambda: matvec_net(8, 4, 2.0, 2.0 ** -5), 272),
    (lambda: complex_matvec_net(8, 4, 3.0, 2.0 ** -5), 800),
    (lambda: square_net_of_order(1), 3),
])
def test_plan_widths_at_the_operating_points(make, width):
    assert max(_distinct(make()).widths) == width


def unfolded(net, xs):
    """Values, pre-activations and Jacobians by the formula before the bias fold.

    Each layer is ``np.maximum(W @ z + b[:, None], 0.0)`` with scipy's ``@``,
    and the tangents are ``W @ T`` masked by ``z > 0``, as the layer loop
    computed them when it added the bias in a sweep of its own.
    """
    Z = xs.T.copy()
    T = np.repeat((scipy_csr(net.layers[0].weights) @ np.eye(net.input_dim))[:, :, None],
                  len(xs), axis=2)
    pres = []
    for k, layer in enumerate(net.layers):
        weights = scipy_csr(layer.weights)
        Z = weights @ Z + layer.bias[:, None]
        if k:
            T = (weights @ T.reshape(layer.fan_in, -1)).reshape(layer.fan_out, -1, len(xs))
        if k < net.depth - 1:
            pres.append(Z.T.copy())
            T = T * (Z > 0.0)[:, None, :]
            Z = np.maximum(Z, 0.0)
    return Z.T.copy(), pres, T.transpose(2, 0, 1).copy()


def assert_folded_equals_unfolded(net, xs):
    """Stored layers and plan, folded, against :func:`unfolded`, byte for byte."""
    values, pres, jac = unfolded(net, xs)
    assert evaluate_batch(net, xs).tobytes() == values.tobytes()
    assert [p.tobytes() for p in preactivations(net, xs)] == [p.tobytes() for p in pres]
    assert jacobian(net, xs).tobytes() == jac.tobytes()
    plan = _distinct(net)
    steps, _ = oracle_plan(net)
    planned_pres: list = []
    planned = _batch(plan, xs, _tangents(plan),
                     visit=lambda rows, k, Z: planned_pres.append(Z.T.copy()))
    assert _batch(plan, xs)[0].tobytes() == values.tobytes()
    assert planned[0].tobytes() == values.tobytes()
    assert planned[1].tobytes() == jac.tobytes()
    assert [p.tobytes() for p in planned_pres] == [
        pre[:, kept].tobytes() for pre, (kept, _) in zip(pres, steps)
    ]


# Biases at the edges of the fold: signed zeros, subnormal-scale, huge.
_FOLD_BIASES = st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 0.5, -0.5, 1e300, -1e300])
# Weights whose products with the tiny inputs underflow to +-0.0; 0.0 leaves
# an entry out, so rows come out empty too.
_FOLD_WEIGHTS = st.sampled_from([0.0, 0.0, 1e-300, -1e-300, 0.5, -1.5, 2.0, -1.0])
_FOLD_INPUTS = st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 0.75, -2.0, 1.25])


@st.composite
def folding_networks(draw):
    """A small network, with empty rows that have nonzero biases, and inputs for it."""
    depth = draw(st.integers(1, 4))
    widths = [draw(st.integers(1, 5)) for _ in range(depth + 1)]
    layers = []
    for k in range(depth):
        w = np.array(draw(st.lists(_FOLD_WEIGHTS, min_size=widths[k] * widths[k + 1],
                                   max_size=widths[k] * widths[k + 1])))
        w = w.reshape(widths[k + 1], widths[k])
        w[draw(st.integers(0, widths[k + 1]))::widths[k + 1] + 1] = 0.0  # maybe one empty row
        b = draw(st.lists(_FOLD_BIASES, min_size=widths[k + 1], max_size=widths[k + 1]))
        layers.append(Layer(w, b))
    count = draw(st.integers(1, 5))
    xs = draw(st.lists(_FOLD_INPUTS, min_size=count * widths[0], max_size=count * widths[0]))
    return Fnn(tuple(layers)), np.array(xs).reshape(count, widths[0])


@settings(max_examples=300, deadline=None)
@given(case=folding_networks())
def test_folded_loop_matches_the_unfolded_formula(case):
    assert_folded_equals_unfolded(*case)


def test_folded_loop_matches_the_unfolded_formula_on_constructions():
    for net in (matvec_net(2, 2, 1.0, 2.0 ** -4), complex_matvec_net(1, 2, 1.5, 2.0 ** -4)):
        xs = np.random.default_rng(12).uniform(-1.5, 1.5, (30, net.input_dim))
        xs[:3] = 0.0
        xs[3:6] = -0.0
        assert_folded_equals_unfolded(net, xs)


def test_folded_bias_keeps_the_rounding_of_each_named_row():
    # each layer has a row whose sum cancels exactly, with bias -0.0, an
    # empty row with bias -0.0 and an empty row with bias 0.5; the hidden
    # layer also passes x_0 on, for the output row to cancel against
    hidden = Layer([[1.0, -1.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]], [-0.0, -0.0, 0.5, 0.0])
    output = Layer([[0.0, 0.0, 1.5, -1.0], [0.0] * 4, [0.0] * 4], [-0.0, -0.0, 0.5])
    net = Fnn((hidden, output))
    one = np.float64(1.0).view(np.int64)
    # the kernel drops the +-0.0 biases and ends with the constant neuron's row
    kernel = net._plan.kernels[0]
    assert kernel.shape == (5, 3)
    assert kernel_rows(kernel) == [
        [(0, one), (1, np.float64(-1.0).view(np.int64))],
        [], [(2, np.float64(0.5).view(np.int64))], [(0, one)], [(2, one)],
    ]
    xs = np.array([[0.75, 0.75], [-0.0, -0.0], [0.0, 0.0]])
    # (0 + x) + (-x) = +0.0, and +0.0 + -0.0 = +0.0: no -0.0 anywhere
    pres = np.array([[0.0, 0.0, 0.5, 0.75], [0.0, 0.0, 0.5, 0.0], [0.0, 0.0, 0.5, 0.0]])
    outputs = np.array([[0.0, 0.0, 0.5], [0.75, 0.0, 0.5], [0.75, 0.0, 0.5]])
    assert preactivations(net, xs)[0].tobytes() == pres.tobytes()
    assert evaluate_batch(net, xs).tobytes() == outputs.tobytes()
    assert _batch(_distinct(net), xs)[0].tobytes() == outputs.tobytes()
    # the output layer alone is not rectified, so a -0.0 from it would show
    alone = Fnn((output,))
    outputs = np.array([[0.0, 0.0, 0.5]] * 3)
    assert evaluate_batch(alone, np.zeros((3, 4))).tobytes() == outputs.tobytes()
    assert evaluate_batch(alone, np.full((3, 4), -0.0)).tobytes() == outputs.tobytes()
    for each in (net, alone):
        assert_folded_equals_unfolded(each, np.vstack((np.full(each.input_dim, -0.0),
                                                       np.full(each.input_dim, 0.75))))


def test_constant_neuron_never_shows():
    net = matvec_net(2, 2, 1.0, 2.0 ** -4)
    plan = _distinct(net)
    xs = np.random.default_rng(13).uniform(-1.0, 1.0, (7, net.input_dim))
    assert [p.shape for p in preactivations(net, xs)] == [(7, w) for w in net.widths[1:-1]]
    assert [p.shape for p in preactivations(net, xs[0])] == [(w,) for w in net.widths[1:-1]]
    assert jacobian(net, xs).shape == (7, net.output_dim, net.input_dim)
    assert jacobian(net, xs[0]).shape == (net.output_dim, net.input_dim)
    # the kink screen sees the real neurons only
    for each in (net._plan, plan):
        seen: list = []
        values, tangents = _batch(each, xs, _tangents(each),
                                  visit=lambda rows, k, Z: seen.append(Z.shape))
        assert seen == [(w, 7) for w in each.widths[1:-1]]
        assert values.shape == (7, net.output_dim)
        assert tangents.shape == (7, net.output_dim, net.input_dim)
    # kernels: one row per neuron plus the constant neuron's, the output's without it
    assert [k.shape for k in plan.kernels] == [
        (w + (k < net.depth - 1), w_in + 1)
        for k, (w_in, w) in enumerate(zip(plan.widths[:-1], plan.widths[1:]))
    ]
    assert [k.shape for k in net._plan.kernels] == [
        (layer.fan_out + (k < net.depth - 1), layer.fan_in + 1)
        for k, layer in enumerate(net.layers)
    ]


@pytest.mark.parametrize("make,expected", [
    (lambda: matvec_net(8, 4, 2.0, 2.0 ** -5), (12, 13216, 3788, 384, 8.0)),
    (lambda: complex_matvec_net(8, 4, 3.0, 2.0 ** -5), (15, 70144, 19672, 1536, 18.0)),
])
def test_metrics_at_the_operating_points(make, expected):
    got = metrics(make())
    assert (got.depth, got.connectivity, got.neurons, got.max_width, got.max_weight) == expected


def test_square_net_first_layer_drops_its_copy():
    # the hat rows of later blocks differ in bias, so only the first layer shrinks
    for order in (2, 5, 9):
        plan = _distinct(square_net_of_order(order))
        assert plan.widths[1] == 3
        assert max(plan.widths) == 4


def test_metrics_counts_exact_zeros_and_input_neurons():
    net = Fnn((
        Layer([[1.0, 0.0, 2.0], [0.0, 0.0, 0.0]], [0.5, 0.0]),
        Layer([[3.0, -4.0]], [0.0]),
    ))
    got = metrics(net)
    assert got.connectivity == 2 + 1 + 2  # weights layer 1 + bias + weights layer 2
    assert got.neurons == 3 + 2 + 1
    assert got.max_width == 3
    assert got.max_weight == 4.0
    assert got.depth == 2


def test_validate_rejects_chain_mismatch():
    net = Fnn((Layer(np.ones((2, 3)), np.zeros(2)), Layer(np.ones((1, 4)), np.zeros(1))))
    with pytest.raises(StructureError) as exc:
        validate(net)
    assert exc.value.layer_index == 2
    # the layer loop checks the chain too, before its kernel reads out of bounds
    with pytest.raises(ValueError, match="dimension mismatch"):
        evaluate_batch(net, np.ones((3, 3)))


def test_validate_rejects_bias_shape():
    net = Fnn((Layer(np.ones((2, 2)), np.zeros(3)),))
    with pytest.raises(StructureError):
        validate(net)


def test_validate_rejects_nonfinite():
    net = Fnn((Layer(np.array([[np.inf]]), np.zeros(1)),))
    with pytest.raises(StructureError):
        validate(net)


def assert_layers_bit_equal(net, back):
    assert len(back.layers) == len(net.layers)
    for a, b in zip(net.layers, back.layers):
        for part in ("data", "indices", "indptr"):
            got, want = getattr(b.weights, part), getattr(a.weights, part)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert a.weights.shape == b.weights.shape
        assert a.bias.dtype == b.bias.dtype and a.bias.tobytes() == b.bias.tobytes()


def test_interchange_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(5)
    net = random_fnn(rng, n_in=4, depth=3)
    path = tmp_path / "net.json"
    save_fnn(net, path)
    doc = json.loads(path.read_text())
    assert doc["format"] == 2
    assert set(doc["layers"][0]) == {"shape", "rows", "cols", "values", "bias"}
    back = load_fnn(path)
    assert_layers_bit_equal(net, back)
    x = rng.uniform(-2, 2, 4)
    assert np.array_equal(evaluate(net, x), evaluate(back, x))


BUILDABLE = [kind for kind, entry in KINDS.items() if entry.builder is not None]
SMALL = {"m": 2, "n": 2, "D": 1.0, "eps": 2.0 ** -4}


def small_network(kind):
    return KINDS[kind].builder(*(SMALL[name] for name in KINDS[kind].params))


def signed_zeros_and_extremes():
    """Biases +0.0 and -0.0, subnormal and huge weights, and an all-zero layer."""
    return Fnn((
        Layer([[5e-324, 1e16], [-2.5e-300, 2.0]], [0.0, -0.0]),
        Layer(np.zeros((3, 2)), [-0.0, 0.0, 1.0]),
        Layer([[2.0, 0.0, -2.5e-300]], [-0.0]),
    ))


@pytest.mark.parametrize("make", [
    *(lambda kind=kind: small_network(kind) for kind in BUILDABLE),
    lambda: random_fnn(np.random.default_rng(9), n_in=5, depth=4, zero_frac=0.0),
    signed_zeros_and_extremes,
], ids=[*BUILDABLE, "random", "signed_zeros_and_extremes"])
def test_saved_file_is_the_document_on_one_line(tmp_path, make):
    net = make()
    extra = {"note": "scratch", "scale": 0.1, "signed": -0.0}
    path = tmp_path / "net.json"
    save_fnn(net, path, extra_meta=extra)
    want = json.dumps(network_document(net, extra), allow_nan=False) + "\n"
    assert path.read_bytes() == want.encode()
    assert path.read_text().count("\n") == 1


def test_the_byte_contract_cases_cover_what_they_name():
    layers = random_fnn(np.random.default_rng(9), n_in=5, depth=4, zero_frac=0.0).layers
    values = np.concatenate([a for layer in layers for a in (layer.weights.data, layer.bias)])
    assert len(np.unique(values)) == len(values)  # every float is distinct
    layers = network_document(signed_zeros_and_extremes())["layers"]
    assert [np.signbit(layers[0]["bias"]).tolist(), layers[1]["values"]] == [[False, True], []]


@pytest.mark.parametrize("kind", BUILDABLE)
def test_every_buildable_kind_round_trips_through_new_and_indented_files(tmp_path, kind):
    net = small_network(kind)
    path = tmp_path / "net.json"
    save_fnn(net, path)
    assert_layers_bit_equal(net, load_fnn(path))
    # the writer of earlier versions indented the same document
    indented = tmp_path / "indented.json"
    indented.write_text(json.dumps(network_document(net), indent=1, allow_nan=False))
    assert_layers_bit_equal(net, load_fnn(indented))
    assert load_fnn(indented).record == net.record


def test_shuffled_triplets_with_stored_zeros_load_to_canonical_csr():
    rng = np.random.default_rng(18)
    for rows_n, cols_n in ((1, 1), (5, 3), (7, 9), (40, 30)):
        cells = rng.permutation(rows_n * cols_n)[: rng.integers(0, rows_n * cols_n + 1)]
        rows, cols = (cells // cols_n).tolist(), (cells % cols_n).tolist()
        values = rng.standard_normal(len(cells))
        values[rng.random(len(cells)) < 0.3] = 0.0
        values[rng.random(len(cells)) < 0.3] = -0.0
        values = values.tolist()
        bias = rng.standard_normal(rows_n).tolist()
        layer = {"shape": [rows_n, cols_n], "rows": rows, "cols": cols, "values": values,
                 "bias": bias}
        got = network_from_document({"format": 2, "layers": [layer]}).layers[0]
        want = _canonical(sparse.csr_array((values, (rows, cols)), shape=(rows_n, cols_n)))
        for part in ("data", "indices", "indptr"):
            g, w = getattr(got.weights, part), getattr(want, part)
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
            assert not g.flags.writeable
        assert got.weights.shape == want.shape
        assert got.bias.tobytes() == np.array(bias).tobytes()


@pytest.mark.parametrize("where", ["weight", "bias"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_saving_a_network_with_nan_raises_and_leaves_the_file(tmp_path, value, where):
    path = tmp_path / "net.json"
    path.write_text("earlier contents")
    last = Layer([[1.0, value]], [0.0]) if where == "weight" else Layer([[1.0, 2.0]], [value])
    bad = Fnn((Layer([[0.5], [1.0]], [0.0, 0.0]), last))
    with pytest.raises(ValueError):
        save_fnn(bad, path)
    assert path.read_text() == "earlier contents"


def test_sparse_layers_list_nonzeros_row_major(tmp_path):
    net = Fnn((Layer([[0.0, 2.5], [-1.0, 0.0], [0.0, 0.0]], [1.0, 0.0, -2.0]),))
    layer = network_document(net)["layers"][0]
    assert layer == {
        "shape": [3, 2], "rows": [0, 1], "cols": [1, 0], "values": [2.5, -1.0],
        "bias": [1.0, 0.0, -2.0],
    }


def test_format_less_dense_file_is_refused(tmp_path, capsys):
    net = random_fnn(np.random.default_rng(6), n_in=3, depth=3)
    path = tmp_path / "dense.json"
    path.write_text(json.dumps({
        "meta": {},
        "layers": [{"weights": l.weights.toarray().tolist(), "bias": l.bias.tolist()}
                   for l in net.layers],
    }))
    with pytest.raises(ValueError, match="^not a network document: unknown format None$"):
        load_fnn(path)
    assert main(["verify", str(path), "--out", str(tmp_path / "r.csv")]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "error: not a network document: unknown format None\n")
    assert not (tmp_path / "r.csv").exists()


def test_load_rejects_malformed_sparse_layers(tmp_path):
    path = tmp_path / "broken.json"
    good = {"shape": [2, 2], "rows": [0, 1], "cols": [1, 0], "values": [1.0, 2.0],
            "bias": [0.0, 0.0]}
    cases = [
        ({"rows": [0, 2]}, "'rows' index out of range"),
        ({"cols": [1, -1]}, "'cols' index out of range"),
        ({"rows": [0, 0], "cols": [1, 1]}, "repeats a coordinate"),
        ({"rows": [0]}, "differ in length"),
        ({"values": [1.0]}, "differ in length"),
        ({"rows": [0, 1.0]}, "'rows' must hold integers"),
        ({"cols": [1, True]}, "'cols' must hold integers"),
        ({"rows": [0, 2 ** 70]}, "index out of range"),
        ({"values": [1.0, {}]}, "needs numbers"),
        ({"values": [1.0, "2"]}, "needs numbers"),
        ({"values": [1.0, False]}, "needs numbers"),
        ({"bias": [0.0, "0"]}, "needs numbers"),
        ({"values": [1.0, 10 ** 400]}, "needs numbers"),
        ({"bias": [0.0, 10 ** 400]}, "needs numbers"),
        ({"rows": "01"}, "lists of coordinates"),
        ({"shape": [2]}, "'shape' must be two counts"),
        ({"shape": [2, -1]}, "'shape' must be two counts"),
        ({"shape": [2, 2 ** 70]}, "'shape' must be two counts"),
        ({"bias": [0.0]}, "'bias' needs one entry per row"),
    ]
    for change, message in cases:
        path.write_text(json.dumps({"format": 2, "layers": [{**good, **change}]}))
        with pytest.raises(ValueError, match=message):
            load_fnn(path)
    entry = dict(good)
    del entry["values"]
    path.write_text(json.dumps({"format": 2, "layers": [good, entry]}))
    with pytest.raises(ValueError, match="layer 2 needs"):
        load_fnn(path)
    for version in (1, 3, "2", True, 2.0):
        path.write_text(json.dumps({"format": version, "layers": [good]}))
        with pytest.raises(ValueError, match="unknown format"):
            load_fnn(path)
    path.write_text(json.dumps({"format": 2, "layers": [good]}))
    assert load_fnn(path).layers[0].weights.toarray().tolist() == [[0.0, 1.0], [2.0, 0.0]]


def test_interchange_preserves_extra_meta(tmp_path):
    net = random_fnn(np.random.default_rng(1), n_in=2)
    path = tmp_path / "net.json"
    save_fnn(net, path, extra_meta={"note": "scratch"})
    doc = json.loads(path.read_text())
    assert doc["meta"]["note"] == "scratch"


def test_load_rejects_malformed_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValueError):
        load_fnn(path)
    path.write_text(json.dumps({"format": 2, "layers": "nope"}))
    with pytest.raises(ValueError, match="'layers' must be a nonempty list"):
        load_fnn(path)
    good = {"shape": [1, 1], "rows": [0], "cols": [0], "values": [1.0], "bias": [0.0]}
    no_bias = {key: value for key, value in good.items() if key != "bias"}
    for layer in ({"bias": [0.0]}, no_bias, "layer"):
        path.write_text(json.dumps({"format": 2, "layers": [good, layer]}))
        with pytest.raises(ValueError, match="layer 2 needs 'shape', 'rows', 'cols'"):
            load_fnn(path)
    # non-number values and biases of the kinds not already refused in
    # test_load_rejects_malformed_sparse_layers
    for change, message in (
        ({"values": {"a": 1}}, "needs lists of coordinates"),
        ({"values": 1.0}, "needs lists of coordinates"),
        ({"bias": {"a": 1}}, "'bias' needs one entry per row"),
        ({"bias": [{}]}, "needs numbers"),
        ({"bias": [False]}, "needs numbers"),
        ({"values": [None]}, "needs numbers"),
        ({"bias": [-(10 ** 400)]}, "needs numbers"),
    ):
        path.write_text(json.dumps({"format": 2, "layers": [good, {**good, **change}]}))
        with pytest.raises(ValueError, match=f"layer 2 {message}"):
            load_fnn(path)

    def document(meta):
        return json.dumps({"format": 2, "meta": meta, "layers": [good]})

    for meta in ([1], "kind", 5, ["kind"]):
        path.write_text(document(meta))
        with pytest.raises(ValueError, match="'meta' must be an object"):
            load_fnn(path)
    for field in ("m", "n", "D", "eps", "sawtooth_order"):
        for bad in ([1], {"a": 1}, True, "2"):
            path.write_text(document({"kind": "square", field: bad}))
            with pytest.raises(ValueError, match="malformed 'meta'"):
                load_fnn(path)
    for field in ("m", "n", "sawtooth_order"):
        path.write_text(document({"kind": "square", field: 8.5}))
        with pytest.raises(ValueError, match="malformed 'meta'"):
            load_fnn(path)
    path.write_text(document({"kind": "square", "eps": "0.0625"}))
    with pytest.raises(ValueError, match="malformed 'meta'"):
        load_fnn(path)
    path.write_text(document({"kind": "matvec", "m": 2, "n": 1, "D": 2, "eps": 0.0625}))
    record = load_fnn(path).record
    assert (record.m, record.n, record.D, record.eps) == (2, 1, 2.0, 0.0625)
    assert type(record.D) is float


@pytest.mark.parametrize("field, bad", [
    ("D", float("nan")), ("eps", float("inf")), ("D", -float("inf")), ("D", 10 ** 400),
    ("m", 2 ** 63), ("n", -1), ("sawtooth_order", 10 ** 400),
], ids=["D-nan", "eps-inf", "D-minus-inf", "D-10^400", "m-2^63", "n-minus-1", "order-10^400"])
def test_a_document_in_memory_with_a_meta_number_out_of_range_is_refused(field, bad):
    doc = network_document(matvec_net(1, 1, 1.0, 2.0 ** -2))
    doc["meta"][field] = bad
    with pytest.raises(ValueError, match=f"malformed 'meta': '{field}' must be"):
        network_from_document(doc)


def test_document_round_trip_in_memory():
    net = random_fnn(np.random.default_rng(9), n_in=3, depth=2)
    back = network_from_document(network_document(net))
    for a, b in zip(net.layers, back.layers):
        assert np.array_equal(a.weights.toarray(), b.weights.toarray())


@pytest.mark.parametrize("module", ["matvecnet", "matvecnet.interchange", "matvecnet.datasets"])
def test_every_exported_name_resolves(module):
    module = importlib.import_module(module)
    assert len(set(module.__all__)) == len(module.__all__)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
