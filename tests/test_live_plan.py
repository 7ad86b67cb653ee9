"""The live plan: neurons proven never active on a box leave the estimators' plan.

The proof's hat lemma is checked exhaustively in half precision and around
its breakpoints in double precision; pruned plans are checked bit for bit
against the distinct plan they come from, and reports against the unpruned
estimators.
"""

import hashlib

import numpy as np
import pytest
from conftest import random_fnn, traced
from hypothesis import given, settings
from hypothesis import strategies as st

import matvecnet.constructors as constructors
import matvecnet.verification as verification
from matvecnet import (
    Dataset,
    Fnn,
    Layer,
    complex_matvec_net,
    concatenate,
    dataset_error_report,
    dot_product_net,
    matvec_net,
    probe_inputs,
    qpsk_rayleigh_dataset,
    scalar_product_net,
    sobolev_error_matvec,
    square_error_report,
    square_net_of_order,
    sup_error_matvec,
)
from matvecnet.network import _batch, _distinct, _live


def bits(report):
    return [v.hex() if isinstance(v, float) else v for v in vars(report).values()]


def hat(S):
    """The hat row as a kernel sums it, in S's own precision: 2 rho(S) - 4 rho(S - 1/2)
    + 2 rho(S - 1), term by term in stored order from +0.0, each rho a neuron."""
    dtype = S.dtype.type
    rho = lambda t: np.maximum(t, dtype(0.0))  # noqa: E731
    total = dtype(0.0) + dtype(2.0) * rho(S)
    total = total + dtype(-4.0) * rho(S - dtype(0.5))
    return total + dtype(2.0) * rho(S - dtype(1.0))


def assert_hat_lemma(S):
    """For S <= 1 the sum is exactly 2 rho(S) below 1/2 and 2 - 2S from 1/2 on; all in [0, 1]."""
    g = hat(S)
    assert ((g >= 0) & (g <= 1)).all()
    low, high = S[S < 0.5], S[(S >= 0.5) & (S <= 1)]
    assert (hat(low) == 2 * np.maximum(low, 0)).all()
    assert (hat(high) == 2 - 2 * high).all()
    # so the next layer's rho(g - 1) neuron is dead
    assert (g - S.dtype.type(1.0) <= 0).all()


def test_hat_lemma_holds_for_every_half_precision_value_in_the_unit_interval():
    S = np.arange(0, 0x3C00 + 1, dtype=np.uint16).view(np.float16)
    assert len(S) == 15361 and S[0] == 0 and S[-1] == 1
    assert_hat_lemma(S)


@pytest.mark.parametrize("center", [0.0, 0.25, 0.5, 0.75, 1.0])
def test_hat_lemma_holds_around_its_breakpoints_in_double_precision(center):
    steps = np.arange(1, 2 ** 16 + 1)
    if center == 0.0:
        up = steps.view(np.float64)  # the first 2^16 subnormals
        S = np.concatenate((-up, [0.0], up))
    else:
        bits_ = np.float64(center).view(np.int64)
        S = np.concatenate((bits_ - steps[::-1], [bits_], bits_ + steps)).view(np.float64)
    assert len(S) == 2 ** 17 + 1
    assert_hat_lemma(S)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0, allow_subnormal=True), min_size=1, max_size=50))
def test_hat_lemma_holds_on_random_doubles(values):
    assert_hat_lemma(np.array(values))


def kind_and_domain(kind, D, m, n):
    """A small network of each buildable kind, with the box its estimator checks."""
    eps = 2.0 ** -4
    if kind == "square":
        return square_net_of_order(m + 2), 0.0, 1.0
    net = {
        "scalar_product": lambda: scalar_product_net(D, eps),
        "dot_product": lambda: dot_product_net(n, D, eps),
        "matvec": lambda: matvec_net(m, n, D, eps),
        "complex_matvec": lambda: complex_matvec_net(m, n, D, eps),
    }[kind]()
    return net, -D, D


def box_rows(rng, lo, hi, width, count):
    """Uniform rows of [lo, hi]^width, then the point nearest zero, the corners and some edges."""
    rows = [rng.uniform(lo, hi, (count, width)), np.clip(np.zeros((1, width)), lo, hi),
            np.full((1, width), lo), np.full((1, width), hi),
            np.where(rng.random((8, width)) < 0.5, lo, hi)]
    edges = np.where(rng.random((8, width)) < 0.5, hi, rng.uniform(lo, hi, (8, width)))
    return np.vstack(rows + [edges])


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["square", "scalar_product", "dot_product", "matvec", "complex_matvec"]),
    D=st.one_of(st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]),
                st.sampled_from([0.3, 1.5, 2.7, 3.0]),
                st.floats(0.2, 5.0)),
    m=st.integers(1, 2),
    n=st.integers(1, 2),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_live_plans_of_every_kind_run_bit_equal_on_their_box(kind, D, m, n, seed):
    net, lo, hi = kind_and_domain(kind, D, m, n)
    plan = _distinct(net)
    live = _live(plan, lo, hi)
    assert sum(live.widths[1:-1]) < sum(plan.widths[1:-1])
    assert live.widths[0] == plan.widths[0] and live.widths[-1] == plan.widths[-1]
    xs = box_rows(np.random.default_rng(seed), lo, hi, net.input_dim, 100)
    if kind in ("dot_product", "matvec"):
        rows = 1 if kind == "dot_product" else m
        xs = np.vstack((xs, probe_inputs(rows, n, D)))
    assert _batch(live, xs)[0].tobytes() == _batch(plan, xs)[0].tobytes()


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), half=st.floats(0.1, 3.0))
def test_live_plans_of_random_networks_run_bit_equal_on_their_box(seed, half):
    rng = np.random.default_rng(seed)
    net = random_fnn(rng)
    lo = rng.uniform(-half, 0.0, net.input_dim)
    hi = lo + rng.uniform(0.0, half, net.input_dim)
    plan = _distinct(net)
    live = _live(plan, lo, hi)
    xs = box_rows(rng, lo, hi, net.input_dim, 40)
    assert _batch(live, xs)[0].tobytes() == _batch(plan, xs)[0].tobytes()


@settings(max_examples=60, deadline=None)
@given(scale=st.floats(0.25, 2.0), order=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1))
def test_live_plans_of_scaled_chains_run_bit_equal_where_the_hats_may_overflow(
        scale, order, seed):
    # |x| through rho(x) + rho(-x), then the chain of scale * |x|: for scale > 1
    # the chain input passes 1, so no hat may be proven
    absolute = Fnn((Layer([[1.0], [-1.0]], [0.0, 0.0]), Layer([[scale, scale]], [0.0])))
    net = concatenate(square_net_of_order(order), absolute)
    plan = _distinct(net)
    live = _live(plan, -1.0, 1.0)
    assert (live is plan) == (scale > 1.0)
    inverse = 1.0 / scale
    near = [np.nextafter(inverse, -np.inf), inverse, np.nextafter(inverse, np.inf)]
    xs = np.vstack((box_rows(np.random.default_rng(seed), -1.0, 1.0, 1, 200),
                    np.clip(np.array(near + [-v for v in near])[:, None], -1.0, 1.0)))
    assert _batch(live, xs)[0].tobytes() == _batch(plan, xs)[0].tobytes()


@pytest.mark.parametrize("make,D,dead,entries", [
    (lambda: matvec_net(8, 4, 2.0, 2.0 ** -5), 2.0, 648, (9283, 4987)),
    (lambda: complex_matvec_net(8, 4, 3.0, 2.0 ** -5), 3.0, 2472, (36454, 19822)),
])
def test_dead_neuron_counts_at_the_operating_points(make, D, dead, entries):
    plan = _distinct(make())
    live = _live(plan, -D, D)
    assert sum(plan.widths[1:-1]) - sum(live.widths[1:-1]) == dead
    assert tuple(sum(len(k.data) for k in p.kernels) for p in (plan, live)) == entries


def plan_digest(plan):
    """SHA-256 over every kernel's arrays, their dtypes and shape, and the output rows."""
    digest = hashlib.sha256()
    for kernel in plan.kernels:
        for part in kernel[:3]:
            digest.update(str(part.dtype).encode())
            digest.update(part.tobytes())
        digest.update(repr(kernel.shape).encode())
    digest.update(str(plan.output.dtype).encode())
    digest.update(plan.output.tobytes())
    return digest.hexdigest()


def qpsk_columns():
    """Column bounds of the complex point's 8,191 QPSK rows, as dataset_error_report takes them."""
    inputs = qpsk_rayleigh_dataset(8, 4, 8191, clip=3.0, seed=0).inputs
    return inputs.min(axis=0), inputs.max(axis=0)


# Recorded before the proof moved to int32 indices and per-layer corners.
@pytest.mark.parametrize("make,bounds,expected", [
    (lambda: matvec_net(8, 4, 2.0, 2.0 ** -5), lambda: (-2.0, 2.0),
     "365ee100ff3ce2abb4c2b95dd9eac8c50615fbaff9fe0ce79b43568ea7375c22"),
    (lambda: complex_matvec_net(8, 4, 3.0, 2.0 ** -5), lambda: (-3.0, 3.0),
     "8684ec839c700aebe0b845816508eaf9f7f03ce1df2913d6747eed280bb8c8fa"),
    (lambda: complex_matvec_net(8, 4, 3.0, 2.0 ** -5), qpsk_columns,
     "112747ca9d2ad0803ace954110a64ef1c7e5f1c3074d6ff79aba49262a61b4a5"),
], ids=["real-box", "complex-box", "complex-qpsk-columns"])
def test_live_plans_at_the_operating_points_keep_their_bytes(make, bounds, expected):
    assert plan_digest(_live(_distinct(make()), *bounds())) == expected


def test_the_live_proof_at_the_complex_point_peaks_below_0_37_mib():
    plan = _distinct(complex_matvec_net(8, 4, 3.0, 2.0 ** -5))
    lo, hi = qpsk_columns()
    _live(plan, lo, hi)  # first calls allocate lasting caches
    live, peak, kept = traced(lambda: _live(plan, lo, hi))
    assert live is not plan and kept > 0.25
    assert peak <= 0.37


def unpruned(monkeypatch):
    """Run the estimators as they were before pruning: ``_live`` returns its plan."""
    monkeypatch.setattr(verification, "_live", lambda plan, lo, hi: plan)


def proofs(monkeypatch):
    """Record, for every ``_live`` call of the estimators, whether it pruned anything."""
    pruned, real = [], verification._live

    def recorded(plan, lo, hi):
        live = real(plan, lo, hi)
        pruned.append(live is not plan)
        return live

    monkeypatch.setattr(verification, "_live", recorded)
    return pruned


def nudged_square(order):
    """square_net_of_order(order) with the rho(g - 1) row of the first hat layer
    reading 2 + ulp instead of its first 2."""
    layers = list(square_net_of_order(order).layers)
    weights = layers[1].weights.toarray()
    weights[2, 0] = np.nextafter(2.0, 3.0)
    layers[1] = Layer(weights, layers[1].bias)
    return Fnn(tuple(layers))


def test_a_hat_nudged_off_two_proves_nothing_after_it(monkeypatch):
    net = nudged_square(5)
    plan = _distinct(net)
    live = _live(plan, 0.0, 1.0)
    # only the first layer's rho(x - 1) goes, which its corner proves dead
    assert live.widths[1] == plan.widths[1] - 1
    assert live.widths[2:] == plan.widths[2:]
    pruned = proofs(monkeypatch)
    report = square_error_report(net)
    assert pruned == [True]
    unpruned(monkeypatch)
    assert bits(report) == bits(square_error_report(net))


def test_a_mirror_nudged_off_its_negation_proves_less_after_it(monkeypatch):
    # rho(-w - x) reads x with weight nextafter(-1, -2), so it no longer mirrors
    # rho(w + x), and |w + x| is bounded by its corners alone
    net = scalar_product_net(1.0, 2.0 ** -4)
    with monkeypatch.context() as patched:
        pairs = constructors._ABS_PAIRS.copy()
        pairs[1, 1] = np.nextafter(-1.0, -2.0)
        patched.setattr(constructors, "_ABS_PAIRS", pairs)
        nudged = scalar_product_net(1.0, 2.0 ** -4)
    assert _live(_distinct(net), -1.0, 1.0).widths == (2, 6, 4, 9, 9, 9, 9, 3, 1)
    assert _live(_distinct(nudged), -1.0, 1.0).widths == (2, 6, 5, 10, 10, 10, 10, 3, 1)
    pruned = proofs(monkeypatch)
    report = sup_error_matvec(nudged, 1, 1, 1.0, 2000, seed=3)
    assert pruned == [True]
    unpruned(monkeypatch)
    assert bits(report) == bits(sup_error_matvec(nudged, 1, 1, 1.0, 2000, seed=3))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_dataset_with_a_nonfinite_entry_prunes_nothing(monkeypatch, bad):
    net = complex_matvec_net(1, 2, 3.0, 2.0 ** -4)
    ds = qpsk_rayleigh_dataset(1, 2, 50, clip=3.0, seed=2)
    inputs = ds.inputs.copy()
    inputs[7, 3] = bad
    ds = Dataset(inputs, ds.targets, ds.meta)
    pruned = proofs(monkeypatch)
    report = dataset_error_report(net, ds)
    assert pruned == [False]
    unpruned(monkeypatch)
    assert bits(report) == bits(dataset_error_report(net, ds))


def test_an_infinite_half_width_prunes_nothing(monkeypatch):
    # the box check refuses it before any proof is tried
    net = matvec_net(2, 2, 1.0, 2.0 ** -4)
    pruned = proofs(monkeypatch)
    with pytest.raises(ValueError, match="D must be positive and 2D finite, got inf"):
        sup_error_matvec(net, 2, 2, np.inf, 50, seed=1)
    assert pruned == []


def test_the_estimators_prove_on_the_box_the_columns_and_the_grid(monkeypatch):
    seen, real = [], verification._live

    def recorded(plan, lo, hi):
        seen.append((np.array(lo, ndmin=1), np.array(hi, ndmin=1)))
        return real(plan, lo, hi)

    monkeypatch.setattr(verification, "_live", recorded)
    net = matvec_net(2, 2, 1.5, 2.0 ** -4)
    sup_error_matvec(net, 2, 2, 1.5, 20, seed=0)
    ds = qpsk_rayleigh_dataset(1, 1, 30, clip=3.0, seed=0)
    dataset_error_report(complex_matvec_net(1, 1, 3.0, 2.0 ** -4), ds)
    square_error_report(square_net_of_order(3))
    (box_lo, box_hi), (ds_lo, ds_hi), (grid_lo, grid_hi) = seen
    assert (box_lo.tolist(), box_hi.tolist()) == ([-1.5], [1.5])
    assert (ds_lo == ds.inputs.min(axis=0)).all() and (ds_hi == ds.inputs.max(axis=0)).all()
    assert (grid_lo.tolist(), grid_hi.tolist()) == ([0.0], [1.0])
    # the Sobolev check proves on the box too, and screens the neurons left
    seen.clear()
    sobolev_error_matvec(net, 2, 2, 1.5, 20, seed=0)
    [(sob_lo, sob_hi)] = seen
    assert (sob_lo.tolist(), sob_hi.tolist()) == ([-1.5], [1.5])


def test_bounds_that_are_not_finite_or_hold_nothing_prove_nothing():
    plan = _distinct(matvec_net(1, 1, 1.0, 2.0 ** -4))
    assert _live(plan, np.full(2, np.inf), np.full(2, -np.inf)) is plan
    assert _live(plan, 1.0, -1.0) is plan
