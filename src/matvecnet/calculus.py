"""Exact combination operators for ReLU networks.

Everything here is an identity at the function level: combining networks
never changes what the constituents compute, it only rearranges layers.
The operators are

* :func:`identity_fnn`, a depth-K network computing x exactly through the
  split rho(x) - rho(-x) = x (exact in floating point, one branch is zero),
* :func:`concatenate`, functional composition with the interface merged into
  a single affine layer (depth K1 + K2 - 1),
* :func:`match_depth`, padding a network to a prescribed depth with an
  identity tail while preserving its function,
* :func:`parallelize_shared` and :func:`parallelize_disjoint`, block-diagonal
  stacking of several networks over one shared input or over a concatenation
  of per-network input blocks,
* :func:`superpose`, the coefficient-weighted sum of several outputs, and
* :func:`compose_selection`, rewiring a network to read a subset of a wider
  input through a 0/1 selection matrix.

Weights stay in their canonical CSR form: stacking, scaling and rewiring work
on the CSR arrays of the layers directly, without making scipy matrices for
the many intermediate layers a construction passes through. A merged
interface layer runs the outer layer's raw CSR arrays over the inner weights
through the evaluation kernel (``network._product``), the single-threaded
kernel scipy's ``@`` runs, which sums each entry in ascending inner index, so
built networks are bit-identical across runs and environments.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy import sparse

from .network import Csr, Fnn, Layer, _csr, _nonzero, _product

__all__ = [
    "identity_fnn",
    "concatenate",
    "match_depth",
    "parallelize_shared",
    "parallelize_disjoint",
    "superpose",
    "compose_selection",
]


def identity_fnn(d: int, K: int) -> Fnn:
    """Depth-K network on R^d with evaluate(x) = x bit-exactly.

    For K = 1 this is the single affine layer [I, 0]. For K >= 2 the first
    layer splits into (rho(x), rho(-x)), middle layers pass the 2d channels
    through, and the last layer recombines with [I, -I]. All weights lie in
    {-1, 0, 1} and there are exactly 2dK of them for K >= 2.
    """
    if d < 1 or K < 1:
        raise ValueError(f"identity network needs d >= 1 and K >= 1, got d={d}, K={K}")
    eye = sparse.identity(d, format="csr")
    if K == 1:
        return Fnn((Layer(eye, np.zeros(d)),))
    split = sparse.vstack([eye, -eye], format="csr")
    merge = sparse.hstack([eye, -eye], format="csr")
    layers = [Layer(split, np.zeros(2 * d))]
    for _ in range(K - 2):
        layers.append(Layer(sparse.identity(2 * d, format="csr"), np.zeros(2 * d)))
    layers.append(Layer(merge, np.zeros(d)))
    return Fnn(tuple(layers))


def _merge_affine(outer: Layer, inner: Layer) -> Layer:
    """The affine layer computing outer(inner(.)): weights W_o W_i, bias W_o b_i + b_o."""
    # The right factor is dense: a sparse product costs more than all the
    # arithmetic of the small merges that constructions do.
    rows, cols = outer.fan_out, inner.fan_in
    weights = _product(outer.weights, inner.weights.toarray(), np.empty(rows * cols))
    return Layer(weights, _product(outer.weights, inner.bias, np.empty(rows)) + outer.bias)


def concatenate(f1: Fnn, f2: Fnn) -> Fnn:
    """Composition f1 after f2 as one network of depth L(f1) + L(f2) - 1.

    f2's output layer and f1's first layer collapse into a single affine
    layer, so the rectifier count matches a direct nesting of the two
    evaluations.
    """
    if f1.input_dim != f2.output_dim:
        raise ValueError(
            f"cannot concatenate: inner network outputs {f2.output_dim}, "
            f"outer network expects {f1.input_dim}"
        )
    merged = _merge_affine(f1.layers[0], f2.layers[-1])
    return Fnn(f2.layers[:-1] + (merged,) + f1.layers[1:])


def match_depth(f: Fnn, K: int) -> Fnn:
    """Pad f with an identity tail so the result has depth exactly K.

    The function is unchanged. The final layer gets doubled into (+, -)
    channels which the appended identity layers carry through, so the width
    of the tail is twice the output dimension.
    """
    if K < f.depth:
        raise ValueError(f"target depth {K} is below the network depth {f.depth}")
    if K == f.depth:
        return f
    return concatenate(identity_fnn(f.output_dim, K - f.depth + 1), f)


def _stack(fnns: Sequence[Fnn], k: int, diagonal: bool) -> Layer:
    """Layer k of each network, one above the other; with ``diagonal`` each
    gets columns of its own, which makes the weights block-diagonal."""
    layers = [f.layers[k] for f in fnns]
    indices, indptr = [], [np.zeros(1, dtype=np.int64)]
    rows = cols = nnz = 0
    for layer in layers:
        W = layer.weights
        indices.append(np.add(W.indices, cols, dtype=np.int64))
        indptr.append(np.add(W.indptr[1:], nnz, dtype=np.int64))
        rows += W.shape[0]
        cols += W.shape[1] if diagonal else 0
        nnz += len(W.data)
    data = np.concatenate([layer.weights.data for layer in layers])
    shape = (rows, cols if diagonal else layers[0].fan_in)
    weights = _csr(data, np.concatenate(indices), np.concatenate(indptr), shape)
    return Layer._of(weights, np.concatenate([layer.bias for layer in layers]))


def parallelize_shared(fnns: Sequence[Fnn]) -> Fnn:
    """Stack equal-depth networks over one shared input.

    The first weight matrices stack vertically, deeper layers become block
    diagonal, and the output is the concatenation of the constituent outputs.
    Connectivity adds up exactly and the input neurons are shared once:
    N = sum N_i - (count-1) N_0.
    """
    if not fnns:
        raise ValueError("nothing to parallelize")
    if len(fnns) == 1:
        return fnns[0]
    n0 = fnns[0].input_dim
    depth = fnns[0].depth
    for f in fnns[1:]:
        if f.input_dim != n0:
            raise ValueError("shared parallelization needs equal input dimensions")
        if f.depth != depth:
            raise ValueError("shared parallelization needs equal depths")
    return Fnn(tuple(_stack(fnns, k, diagonal=k > 0) for k in range(depth)))


def _scale_output(f: Fnn, a: float) -> Fnn:
    last = f.layers[-1]
    W = last.weights
    return Fnn(f.layers[:-1] + (Layer._of(_nonzero(a * W.data, *W[1:]), a * last.bias),))


def parallelize_disjoint(fnns: Sequence[Fnn], coefficients: Sequence[float] | None = None) -> Fnn:
    """Stack networks over disjoint input blocks, scaling output i by a_i.

    Input blocks follow constituent order: the combined input is the
    concatenation x = (x_1, ..., x_n) with block i of width N_0(f_i). Depths
    are equalized first, so constituents of different depths are fine. Zero
    coefficients are kept rather than pruned, which keeps the connectivity
    accounting predictable.
    """
    if not fnns:
        raise ValueError("nothing to parallelize")
    if coefficients is None:
        coefficients = [1.0] * len(fnns)
    if len(coefficients) != len(fnns):
        raise ValueError("one coefficient per network required")
    K = max(f.depth for f in fnns)
    scaled = [_scale_output(match_depth(f, K), float(a)) for f, a in zip(fnns, coefficients)]
    if len(scaled) == 1:
        return scaled[0]
    return Fnn(tuple(_stack(scaled, k, diagonal=True) for k in range(K)))


def superpose(fnns: Sequence[Fnn], coefficients: Sequence[float], shared_input: bool = False) -> Fnn:
    """The weighted sum sum_i a_i f_i(...) as a single network.

    With ``shared_input`` every constituent reads the same input vector;
    otherwise each reads its own block of the concatenated input, in order.
    Constituents must agree on the output dimension d; the sum is element-wise
    (a summing row [a_1 ... a_n] kron I_d folded into the output layer, which
    keeps the depth at max_i L(f_i)).
    """
    if not fnns:
        raise ValueError("nothing to superpose")
    if len(coefficients) != len(fnns):
        raise ValueError("one coefficient per network required")
    d = fnns[0].output_dim
    for f in fnns[1:]:
        if f.output_dim != d:
            raise ValueError("superposition needs equal output dimensions")
    K = max(f.depth for f in fnns)
    matched = [match_depth(f, K) for f in fnns]
    if shared_input:
        stacked = parallelize_shared(matched)
    else:
        stacked = parallelize_disjoint(matched, [1.0] * len(matched))
    # The summing layer has one row per output, so its dense form is small.
    summed_w = np.hstack([
        float(a) * f.layers[-1].weights.toarray() for a, f in zip(coefficients, matched)
    ])
    summed_b = np.zeros(d)
    for a, f in zip(coefficients, matched):
        summed_b += float(a) * f.layers[-1].bias
    return Fnn(stacked.layers[:-1] + (Layer(summed_w, summed_b),))


def compose_selection(f: Fnn, selector) -> Fnn:
    """Rewire f to read selected coordinates of a wider input.

    ``selector`` is a 0/1 matrix of shape N_0(f) x N_full with exactly one 1
    per row; the result behaves as f applied to the picked coordinates. Only
    the first weight matrix changes (columns scatter to the selected
    positions), so the function is reproduced exactly, not approximately.
    """
    sel = np.asarray(selector, dtype=np.float64)
    if sel.ndim != 2 or sel.shape[0] != f.input_dim:
        raise ValueError("selector must be a matrix with one row per network input")
    ones = sel == 1.0
    if not ((sel == 0.0) | ones).all() or not (ones.sum(axis=1) == 1).all():
        raise ValueError("selector rows must contain exactly one 1 and zeros elsewhere")
    picks = np.argmax(ones, axis=1)
    first = f.layers[0]
    W = first.weights
    rows = np.repeat(np.arange(first.fan_out), np.diff(W.indptr))
    cols = picks[W.indices]
    # A stable sort by target column within each row. With distinct picks the
    # result is canonical as it stands. Entries that meet (a column picked
    # twice) stay in ascending input order, and scipy's canonicalisation in
    # Layer adds neighbours in stored order, as the dense sum of columns did.
    order = np.lexsort((cols, rows))
    parts = (W.data[order], cols[order], W.indptr, (first.fan_out, sel.shape[1]))
    if len(np.unique(picks)) == len(picks):
        widened = Layer._of(_csr(*parts), first.bias)
    else:
        widened = Layer(sparse.csr_array(parts[:3], shape=parts[3]), first.bias)
    return Fnn((widened,) + f.layers[1:])
