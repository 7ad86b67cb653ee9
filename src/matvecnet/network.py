"""Core representation of ReLU feedforward networks.

A network is a finite sequence of affine layers ``[[W_1, b_1], ..., [W_K, b_K]]``.
Evaluation applies the rectifier rho(a) = max(a, 0) element-wise after every
layer except the last, which stays affine:

    x_0 = x,  x_k = rho(W_k x_{k-1} + b_k)  for k < K,  x_K = W_K x_{K-1} + b_K.

Layers are immutable, and a weight matrix has one form, :attr:`Layer.weights`:
the read-only arrays of its canonical compressed sparse rows (:class:`Csr`:
sorted column indices, no stored zeros, -0.0 included). Five size measures
are reported by :func:`metrics`: depth L (layer count), connectivity M
(number of weight and bias entries that are not bit-exactly zero), neuron
count N (sum of all layer widths, the input layer included), maximum width
W, and the largest absolute weight B.

Evaluation is double precision and bit-reproducible: every matrix-vector
product accumulates in row-major (sorted column index) order through the
single-threaded CSR kernel, never through threaded BLAS. One layer loop, with
samples as columns, serves values, pre-activations and tangents; the kernel
computes each column on its own, so stacked results are bit-identical to
computing samples one at a time, and batches may be cut into slices of any
height.

The loop runs each layer as one kernel pass and one in-place rectify. A
layer's kernel (:func:`_kernel`) is its weights over ``fan_in + 1``
columns: row i holds its stored entries in stored order, then ``b_i`` at
column ``fan_in``, which reads a constant neuron of value 1.0. A hidden
layer's kernel ends with that neuron's own row, a single 1.0 at column
``fan_in``, so the next layer can read it; rho(1.0) = 1.0 keeps it there.
The kernel sums row i as ((0 + a_0 x_0) + a_1 x_1) + ... + b_i * 1.0,
which is the sum the stored layer computes followed by its bias add, and
b_i * 1.0 = b_i exactly, so the bits do not change. A +-0.0 bias is left
out of its row: the sum starts at +0.0, and in round-to-nearest a sum that
starts at +0.0 is never -0.0, so adding +-0.0 to it changes nothing. The
constant neuron never shows: pre-activations, the kink screen and outputs
see only the real neurons.

Every evaluation, public or by an estimator, runs through :func:`_batch`,
the one place that cuts rows into slices and sizes them. It makes one
:class:`Workspace` per call, shared by all its slices, and runs the layer
loop (:func:`_forward`) on each slice in it; a caller that needs the hidden
pre-activations (the public :func:`preactivations`, the Sobolev kink
screen) passes a visitor that sees each slice's blocks. The loop allocates
no block per layer: every layer writes into a zeroed slice of one of the
workspace's two buffers through scipy's multi-vector CSR kernel
(``csr_matvecs``, the one ``weights @ Z`` runs), called on the kernel's raw
arrays. The public ``@`` would return a fresh zeroed array per layer
instead: at matvec(8,4,D=2) a 1 MiB block, which the allocator hands back
to the system and faults in again on every layer of every slice, costing
more time than the arithmetic. Workspaces belong to one call, never to the
module, so threads never share one, and results are copied out of them.

The loop carries tangents in sparse forward mode (Griewank & Walther,
*Evaluating Derivatives*, ch. 7): only over the structural pairs (i, c) of
a layer, neuron i and an input c it may depend on, one row per pair, in a
(pairs, count) block with samples innermost. The inputs' pairs are (c, c),
with tangent 1.0. :func:`_tangents` gives each layer a pair kernel: row
(i, c) holds a_ij at pair (j, c) for each entry j of row i that has that
pair, in stored order. That is the sum the dense product W_k T runs, with
the terms whose tangent is a structural zero left out. Such a tangent is
+-0.0, every term a_ij * (+-0.0) is +-0.0, and the sum starts at +0.0, so
leaving them out changes no bit; bias terms read the constant neuron,
whose tangent is 0, and are left out too. Each hidden layer then masks its
block by the owners' activations. The output kernel has a row for every
(output, input), empty where no pair exists, so the last block is the full
Jacobian: no tangent is carried for a structural zero, and nothing needs
decompressing. A network keeps the stored plan's pair kernels,
:attr:`Fnn._pairs`, built on its first Jacobian, so evaluation alone never
builds them.

The loop runs a :class:`Plan`: one kernel per layer and the index of each
output's neuron in the last one. A network holds one plan of its own,
:attr:`Fnn._plan`, built on first use: its stored layers' kernels with
nothing merged, each output read where it stands. The public evaluation
functions run it.

The estimators run a second plan (:func:`_distinct`): the network
reduced to its distinct neurons. The constructions copy a lot of neurons
(a matvec builds the square chain of each |x_j| once per matrix row), so at
matvec(8,4,D=2) the widest layer shrinks from 384 to 272 neurons and at
complex_matvec(8,4,D=3) from 1536 to 800. Two neurons are merged only when
their biases have equal bits and they read the same distinct neurons with
weights of equal bits, entry by entry in stored order; rows are grouped by
sorting those bits, not by a hash. The plan keeps each row's entries in
stored order, so a row may read one distinct neuron twice or read columns
out of order, and its matrices are never canonicalised. By induction over
the layers, a merged neuron would have run the same operations in the same
order on bit-equal operands as the neuron standing for it, so its value,
pre-activation and tangents are the same bits, and so are the outputs,
which the plan copies back out. Grouping costs several times what building
the stored kernels does, so the estimators, which run it over thousands of
rows, build it once per call, and a one-off call never pays for it.

The value estimators run a third plan (:func:`_live`): the distinct plan
minus every hidden neuron proven never active on the box their inputs come
from, and every kernel entry that reads one. In the sawtooth chains the
constructions are built from, the rho(t - 1) channel of every layer cannot
fire, because the chain input t never exceeds 1, and neither can the first
layer's rho(t - 1/2) of a chain that reads |w| or |x| alone, where
t <= 1/2: at matvec(8,4,D=2) that is 648 of the 2,584 hidden neurons and
4,296 of the 9,283 kernel entries. The proof is made on the float
computation itself, not with a rounding margin, since these neurons'
exact maximum pre-activation is 0: per-neuron bounds from each row's
float corners, tightened by two exact lemmas for the rows that read
rho(S) and rho(-S) and for the sawtooth's hat rows (see :func:`_live`).
A dropped neuron would have output +-0.0, and leaving its terms out of
a sum that starts at +0.0 changes no bit, the argument the kernels use
for +-0.0 biases; where no bound is finite nothing is dropped. A dropped
neuron's pre-activation is gone too, so the Sobolev kink screen keeps the
distinct plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import prod
from typing import NamedTuple, Optional, TYPE_CHECKING

import numpy as np
from scipy import sparse
from scipy.sparse._sparsetools import csr_matvecs

if TYPE_CHECKING:  # pragma: no cover
    from .constructors import ConstructionRecord

__all__ = [
    "Csr",
    "Layer",
    "Fnn",
    "NetworkMetrics",
    "StructureError",
    "validate",
    "evaluate",
    "evaluate_batch",
    "preactivations",
    "jacobian",
    "metrics",
]

# Batch evaluation cuts its inputs into slices whose two value blocks (max width
# x rows, float64, one read and one written by each layer), and two tangent
# blocks (widest pair kernel x rows) when it carries tangents, together stay
# within this many bytes, so that each CSR row sweep reads activations from the
# core's own cache rather than from memory. Per-sample results do not depend on
# the slice height.
SLICE_BYTES = 2 ** 20


class StructureError(ValueError):
    """A network violates a structural invariant.

    ``layer_index`` is 1-based, matching the mathematical numbering W_1..W_K.
    """

    def __init__(self, kind: str, layer_index: int):
        self.kind = kind
        self.layer_index = layer_index
        super().__init__(f"{kind} at layer {layer_index}")


class Csr(NamedTuple):
    """The read-only arrays of a matrix in compressed sparse row form.

    Row i holds ``data[indptr[i]:indptr[i+1]]`` in the columns
    ``indices[indptr[i]:indptr[i+1]]``. A layer's weights are canonical: the
    columns of a row strictly ascend and no stored value is zero, -0.0
    included. A kernel (:func:`_kernel`) keeps each row in stored order.
    """

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]

    def toarray(self) -> np.ndarray:
        dense = np.zeros(self.shape)
        dense[np.repeat(np.arange(self.shape[0]), np.diff(self.indptr)), self.indices] = self.data
        return dense


def _csr(data, indices, indptr, shape) -> Csr:
    """Freeze CSR arrays that nothing else holds, with scipy's index type."""
    index = np.int32 if max(*shape, len(data)) < 2 ** 31 else np.int64
    parts = (np.asarray(data, np.float64), np.asarray(indices, index), np.asarray(indptr, index))
    for part in parts:
        part.setflags(write=False)
    return Csr(*parts, (int(shape[0]), int(shape[1])))


def _nonzero(data, indices, indptr, shape) -> Csr:
    """CSR arrays with sorted, unique columns, frozen with their stored zeros dropped."""
    nonzero = data != 0.0  # drops -0.0 too
    if not nonzero.all():
        kept = np.concatenate(([0], np.cumsum(nonzero)))
        data, indices, indptr = data[nonzero], indices[nonzero], kept[indptr]
    return _csr(data, indices, indptr, shape)


def _canonical(a) -> Csr:
    """The canonical CSR arrays of a weight matrix, dense or sparse; a 1-D input is one row."""
    if sparse.issparse(a):
        W = sparse.csr_array(a.reshape(1, -1) if a.ndim == 1 else a, dtype=np.float64, copy=True)
        W.sum_duplicates()
        return _nonzero(W.data, W.indices, W.indptr, W.shape)
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValueError(f"weights must be a matrix, got {arr.ndim} dimensions")
    # np.nonzero skips -0.0 too, and lists entries in row-major order.
    rows, cols = np.nonzero(arr)
    indptr = np.searchsorted(rows, np.arange(arr.shape[0] + 1))
    return _csr(arr[rows, cols], cols, indptr, arr.shape)


def _kernel(data, indices, indptr, bias: np.ndarray, fan_in: int, hidden: bool) -> Csr:
    """The kernel of a layer's rows: a CSR matrix over ``fan_in + 1`` columns.

    Row i keeps its entries in the given order and ends with ``bias[i]`` at
    column ``fan_in``, unless that is +-0.0. A hidden layer's kernel gets one
    more row, the constant neuron: a single 1.0 at column ``fan_in``.
    """
    kept = bias != 0.0  # drops -0.0 too
    ends = indptr[1:] + np.cumsum(kept)  # where each row ends, its bias included
    slots = ends[kept] - 1
    size = len(data) + len(slots)
    entry = np.ones(size + hidden, dtype=bool)  # False at the bias and constant slots
    entry[slots] = False
    entry[size:] = False
    values, columns = np.empty(size + hidden), np.empty(size + hidden, dtype=indices.dtype)
    values[entry], columns[entry] = data, indices
    values[slots], values[size:] = bias[kept], 1.0
    columns[slots], columns[size:] = fan_in, fan_in
    indptr = np.concatenate(([0], ends, [size + 1][:hidden]))
    return _csr(values, columns, indptr, (len(bias) + hidden, fan_in + 1))


def _as_vector(a) -> np.ndarray:
    arr = np.array(a, dtype=np.float64, copy=True).reshape(-1)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False, init=False)
class Layer:
    """One affine stage: weight matrix of shape N_k x N_{k-1} and bias of length N_k.

    The weights may be given dense or as any scipy sparse matrix. A layer
    keeps them in one form, ``weights``: the read-only arrays of their
    canonical CSR form (:class:`Csr`). It makes nothing else from them;
    evaluation runs the kernels of a network's plan (:attr:`Fnn._plan`).
    """

    weights: Csr = field(repr=False)
    bias: np.ndarray

    def __init__(self, weights, bias):
        self._set(_canonical(weights), bias)

    @classmethod
    def _of(cls, csr: Csr, bias) -> "Layer":
        """A layer over canonical CSR arrays, taken as they are."""
        layer = object.__new__(cls)
        layer._set(csr, bias)
        return layer

    def _set(self, csr: Csr, bias) -> None:
        object.__setattr__(self, "weights", csr)
        object.__setattr__(self, "bias", _as_vector(bias))

    @property
    def fan_in(self) -> int:
        return self.weights.shape[1]

    @property
    def fan_out(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True, eq=False)
class Fnn:
    """An immutable ReLU feedforward network, plus an optional construction record.

    The record is free-form provenance written by the constructors module; it
    travels with the network through serialization but plays no role in
    evaluation. The evaluation functions run :attr:`_plan`, built on first
    use, since combining networks creates many that are never evaluated.
    """

    layers: tuple[Layer, ...]
    record: Optional["ConstructionRecord"] = None

    def __post_init__(self):
        layers = tuple(self.layers)
        if not layers:
            raise ValueError("a network needs at least one layer")
        object.__setattr__(self, "layers", layers)

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def input_dim(self) -> int:
        return self.layers[0].fan_in

    @property
    def output_dim(self) -> int:
        return self.layers[-1].fan_out

    @property
    def widths(self) -> tuple[int, ...]:
        """All layer widths N_0, N_1, ..., N_K."""
        return (self.input_dim,) + tuple(l.fan_out for l in self.layers)

    @cached_property
    def _plan(self) -> "Plan":
        """The stored layers as a :class:`Plan` with nothing merged: each layer's kernel."""
        kernels = tuple(
            _kernel(*layer.weights[:3], layer.bias, layer.fan_in, hidden=k < self.depth)
            for k, layer in enumerate(self.layers, start=1)
        )
        return Plan(kernels, np.arange(self.output_dim))

    @cached_property
    def _pairs(self) -> "Tangents":
        """The pair kernels of :attr:`_plan`, built on the first Jacobian."""
        return _tangents(self._plan)

    def with_record(self, record) -> "Fnn":
        return Fnn(self.layers, record)


@dataclass(frozen=True)
class NetworkMetrics:
    """The five size measures of a network."""

    depth: int
    connectivity: int
    neurons: int
    max_width: int
    max_weight: float


def validate(fnn: Fnn) -> None:
    """Raise :class:`StructureError` on the first malformed layer; return None if sound.

    Checks, in layer order: the weight matrix is 2-D with bias length matching
    its row count, every entry is finite, and the fan-in matches the previous
    layer's fan-out.
    """
    prev_out = None
    for k, layer in enumerate(fnn.layers, start=1):
        if layer.bias.ndim != 1:
            raise StructureError("dimension-mismatch", k)
        if layer.fan_out != layer.bias.shape[0]:
            raise StructureError("dimension-mismatch", k)
        if layer.fan_out < 1 or layer.fan_in < 1:
            raise StructureError("dimension-mismatch", k)
        if prev_out is not None and layer.fan_in != prev_out:
            raise StructureError("dimension-mismatch", k)
        if not (np.isfinite(layer.weights.data).all() and np.isfinite(layer.bias).all()):
            raise StructureError("nonfinite-entry", k)
        prev_out = layer.fan_out


class Plan(NamedTuple):
    """What the layer loop runs: a network's stored layers (:attr:`Fnn._plan`),
    its distinct neurons (:func:`_distinct`), or those less the ones proven
    never active on a box (:func:`_live`).

    ``kernels[k]`` (see :func:`_kernel`) has one row per neuron of layer
    k + 1, over the neurons of layer k (the inputs for k = 0) and the
    constant neuron, with each row's entries in the stored layer's order;
    in a distinct plan, its column indices may be unsorted or repeated. The
    output layer's kernel has no constant neuron. ``output[i]`` is the
    neuron of output i in the last layer.
    """

    kernels: tuple[Csr, ...]
    output: np.ndarray

    @property
    def widths(self) -> tuple[int, ...]:
        """Distinct widths of all layers, the input layer included."""
        *hidden, last = self.kernels
        return ((self.kernels[0].shape[1] - 1,) + tuple(k.shape[0] - 1 for k in hidden)
                + (last.shape[0],))


def _distinct(fnn: Fnn) -> Plan:
    """The evaluation plan of a network: every layer reduced to its distinct neurons.

    Two neurons of a layer are the same when their biases have equal bits
    and they read the same distinct neurons of the previous layer with
    weights of equal bits, entry by entry in stored order. Rows are grouped
    exactly, by sorting their bits, never by a hash; inputs are never
    merged. The first neuron of each group stands for it.
    """
    kernels = []
    width = fnn.input_dim
    index = np.arange(width)  # the distinct neuron of each neuron of the previous layer
    for k, layer in enumerate(fnn.layers, start=1):
        data, indices, indptr, (rows, _) = layer.weights
        cols = index[indices]
        lengths = np.diff(indptr)
        first = np.empty(rows, dtype=np.intp)
        for length in np.unique(lengths).tolist():
            members = np.flatnonzero(lengths == length)
            at = indptr[members][:, None] + np.arange(length)
            key = np.column_stack((
                layer.bias[members].view(np.int64), cols[at], data[at].view(np.int64),
            ))
            _, reps, group = np.unique(
                key.view(np.dtype((np.void, key.shape[1] * 8))).ravel(),
                return_index=True, return_inverse=True,
            )
            first[members] = members[reps[group]]
        kept = first == np.arange(rows)
        entries = np.repeat(kept, lengths)
        kernels.append(_kernel(
            data[entries], cols[entries], np.concatenate(([0], np.cumsum(lengths[kept]))),
            layer.bias[kept], width, hidden=k < fnn.depth,
        ))
        width = int(kept.sum())
        index = (np.cumsum(kept) - 1)[first]
    return Plan(tuple(kernels), index)


def _live(plan: Plan, lo, hi) -> Plan:
    """The plan minus every hidden neuron proven never active for inputs in [lo, hi].

    ``lo`` and ``hi`` bound each input (scalars stand for every input). A
    hidden neuron is dropped when its pre-activation, as evaluation computes
    it in double precision, is proven at most 0 on that box, and so is every
    kernel entry that reads it. Output rows and the constant neuron are never
    dropped. Without finite bounds, or without entries, nothing is proven
    and the plan comes back as it is. The proof runs layer by layer over
    bounds [lo_i, hi_i] of each pre-activation, which rho maps to the next
    layer's. A row's body is its entries without the bias, which comes last.

    * Corners. Each float operation of a row is monotone in each operand,
      in the direction of its weight's sign, so the row summed in stored
      order at its corner (hi where the weight is positive, lo where it is
      negative) is its float max, and the other corner its min. Both run
      through the kernel :func:`_forward` runs, with each entry's column
      remapped to its corner, so the sums are formed by the very
      instructions evaluation uses.
    * Mirrors. A row whose body reads rho(S) and rho(-S) with one weight
      c > 0, where those are two earlier rows with no bias and bodies of the
      same columns and negated weights, sums its body to fl(c |S|): the two
      earlier rows compute opposite values, so one term is +0.0. So its
      body lies in [0, fl(c max(hi_S, -lo_S))].
    * Hats. A row whose body is exactly (2, -4, 2) over rho(S), rho(S - 1/2)
      and rho(S - 1), three earlier rows with the same body bit for bit and
      biases 0, -1/2 and -1, sums its body into [0, 1] when hi_S <= 1. For
      S < 1/2 the last two terms are +-0.0 and the sum is 2 rho(S), exact.
      For 1/2 <= S <= 1, S - 1/2 is exact by Sterbenz's lemma (which covers
      S >= 1/4), rho(S - 1) is 0, and 2S - (4S - 2) = 2 - 2S is a multiple
      of 2^-52 in [0, 1], so it is representable and the sum is exact. The
      order of the additions does not matter, nor does a fused multiply-add.

    A rule's bounds on a body bound the pre-activation through the bias
    add, fl(bound + b), which is monotone and comes last. A neuron with a
    bound that is not finite is kept. A dropped neuron would output +-0.0,
    and each term a * (+-0.0) is +-0.0; a kernel sum starts at +0.0, and in
    round-to-nearest such a sum is never -0.0, so leaving those terms out
    changes no bit of any later value, as with a zero bias.

    The rules are matched once over the whole plan, in one numbering of its
    nodes (layer 0 holds the inputs and the constant neuron, layer k + 1
    the rows of kernel k); only the bounds run layer by layer.
    """
    kernels, n_in = plan.kernels, plan.widths[0]
    lo, hi = (np.broadcast_to(np.asarray(b, dtype=np.float64), (n_in,)) for b in (lo, hi))
    entries = np.cumsum([0] + [len(kernel.data) for kernel in kernels])
    if not (np.isfinite(lo).all() and np.isfinite(hi).all() and (lo <= hi).all() and entries[-1]):
        return plan
    first = np.cumsum([0, n_in + 1] + [kernel.shape[0] for kernel in kernels])
    data = np.concatenate([kernel.data for kernel in kernels])
    local = np.concatenate([kernel.indices for kernel in kernels]).astype(np.int64)
    layer = np.repeat(np.arange(len(kernels)), np.diff(entries))  # the layer each entry reads
    reads = local + first[layer]
    lengths = np.concatenate([np.diff(kernel.indptr) for kernel in kernels])
    ends = np.cumsum(lengths)
    # Per node; the inputs get a body of -1 and a nan bias, so no rule reads them.
    last = np.maximum(ends - 1, 0)
    biased = (lengths > 0) & (reads[last] == np.repeat(first[1:-1] - 1, np.diff(first[1:])))
    bias = np.append(np.full(n_in + 1, np.nan), np.where(biased, data[last], 0.0))
    body = np.append(np.full(n_in + 1, -1), lengths - biased)
    start = np.append(np.zeros(n_in + 1, dtype=np.int64), ends - lengths)
    rule, S, mirror = _rules(data, reads, start, body, bias)
    by_layer = np.searchsorted(rule, first)

    bounds = np.empty((first[-1], 2))  # hi and lo of each node's pre-activation
    bounds[:n_in] = np.column_stack((hi, lo))
    bounds[n_in] = 1.0
    corner = 2 * local + (data < 0)
    for k, kernel in enumerate(kernels[:-1]):
        values = bounds[first[k]:first[k + 1]]
        act = values if k == 0 else np.maximum(values, 0.0)
        # Row 2j holds (hi_j, lo_j) and row 2j + 1 (lo_j, hi_j), so an entry
        # that reads 2j + (weight < 0) sums the max corner in the first lane
        # and the min corner in the second.
        e = slice(entries[k], entries[k + 1])
        rows, cols = kernel.shape
        _product(Csr(data[e], corner[e], kernel.indptr.astype(np.int64), (rows, 2 * cols)),
                 np.column_stack((act, act[:, ::-1])).reshape(-1, 2),
                 bounds.reshape(-1)[2 * first[k + 1]:2 * first[k + 2]])
        r = slice(by_layer[k + 1], by_layer[k + 2])
        node, top = rule[r], bounds[S[r]]
        ok = mirror[r] | (top[:, 0] <= 1.0)
        top = np.where(mirror[r], data[start[node]] * np.maximum(top[:, 0], -top[:, 1]), 1.0)
        node, top = node[ok], top[ok]
        bounds[node, 0] = np.minimum(bounds[node, 0], top + bias[node])
        bounds[node, 1] = np.maximum(bounds[node, 1], bias[node])
    dead = (bounds[:, 0] <= 0.0) & np.isfinite(bounds).all(axis=1)
    dead[:first[1]] = dead[first[-2]:] = False
    if not dead.any():
        return plan

    kept = ~dead
    before = np.append(0, np.cumsum(kept))  # kept nodes before each node
    owner = np.repeat(np.arange(first[1], first[-1]), lengths)
    stays = kept[owner] & kept[reads]
    data, columns = data[stays], (before[reads] - before[first[layer]])[stays]
    counts = np.bincount(owner[stays] - first[1], minlength=len(lengths))[kept[first[1]:]]
    entries = np.append(0, np.cumsum(stays))[entries]
    rows = before[first] - before[first[1]]  # kept rows before each kernel's
    return Plan(tuple(
        _csr(data[entries[k]:entries[k + 1]], columns[entries[k]:entries[k + 1]],
             np.append(0, np.cumsum(counts[rows[k + 1]:rows[k + 2]])),
             (rows[k + 2] - rows[k + 1], before[first[k + 1]] - before[first[k]]))
        for k in range(len(kernels))
    ), plan.output)


def _rules(data, reads, start, body, bias) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows :func:`_live`'s mirror and hat rules match, by structure alone.

    Takes the plan in one node numbering: each entry's weight and the node it
    reads, and each node's first entry, body length and bias. Returns the
    matched rows in ascending order, the node S each reads first, and
    whether it is a mirror; a hat still needs hi_S <= 1, which depends on
    the bounds.
    """
    nodes = np.flatnonzero(body == 2)
    at = start[nodes]
    c = data[at]
    mirror = nodes[(c > 0) & (data[at + 1] == c) & (bias[reads[at]] == 0)
                   & (bias[reads[at + 1]] == 0)]
    nodes = np.flatnonzero(body == 3)
    at = start[nodes][:, None] + np.arange(3)
    hat = nodes[(data[at] == (2.0, -4.0, 2.0)).all(axis=1)
                & (bias[reads[at]] == (0.0, -0.5, -1.0)).all(axis=1)]
    # Each earlier row, paired with S: the same body, negated for a mirror.
    # Weights are never zero, so == on them compares bits.
    at = start[np.concatenate((mirror, hat, hat))]
    S = reads[at]
    other = reads[at + np.repeat([1, 1, 2], [len(mirror), len(hat), len(hat)])]
    sign = np.repeat([-1.0, 1.0], [len(mirror), 2 * len(hat)])
    # The rows of one hat read one triple, so equal neighbours are compared once.
    fresh = np.ones(len(S), dtype=bool)
    fresh[1:] = (S[1:] != S[:-1]) | (other[1:] != other[:-1]) | (sign[1:] != sign[:-1])
    p, q = S[fresh], other[fresh]
    span = body[p]
    steps = np.arange(span.max(initial=0))
    within = steps < span[:, None]
    a, b = (np.where(within, start[rows][:, None] + steps, 0) for rows in (p, q))
    same = (body[q] == span) & ((reads[a] == reads[b]) & (sign[fresh][:, None] * data[a] == data[b])
                                | ~within).all(axis=1)
    same = same[np.cumsum(fresh) - 1]
    keep = np.append(same[:len(mirror)], same[len(mirror):].reshape(2, -1).all(axis=0))
    rule = np.append(mirror, hat)[keep]
    order = np.argsort(rule, kind="stable")
    return rule[order], S[:len(keep)][keep][order], (sign[:len(keep)] < 0)[keep][order]


class Tangents(NamedTuple):
    """A plan's pair kernels (:func:`_tangents`), the tangent form of its layers.

    A pair (i, c) of a layer says that its neuron i may depend on input c.
    ``kernels[k]`` maps the tangents of layer k's pairs (the inputs' own
    pairs (c, c) for k = 0) to those of layer k + 1's; ``owners[k]`` is the
    neuron of each pair of hidden layer k + 1, whose activation masks it.
    Pairs are numbered by neuron, then input. The output kernel has a row for
    every (output, input), empty where no pair exists.
    """

    kernels: tuple[Csr, ...]
    owners: tuple[np.ndarray, ...]


def _spans(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The runs ``starts[i] .. starts[i] + lengths[i] - 1``, one after another."""
    return np.repeat(starts - np.cumsum(lengths) + lengths, lengths) + np.arange(lengths.sum())


def _tangents(plan: Plan) -> Tangents:
    """Sparse forward mode over the structural pairs of a plan.

    Row (i, c) of a layer's kernel holds a_ij at pair (j, c), for each entry j
    of row i in stored order that has that pair. Bias entries read the
    constant neuron, which has no pairs, so they are left out.
    """
    n_in = plan.widths[0]
    first = np.append(np.arange(n_in + 1), n_in)  # neuron j's pairs: first[j]:first[j + 1]
    inputs = np.arange(n_in)  # the input of each pair
    kernels, owners = [], []
    for k, (data, indices, indptr, _) in enumerate(plan.kernels):
        hidden = k < len(plan.kernels) - 1
        rows = np.arange(len(indptr) - 1) if hidden else plan.output
        lengths = np.diff(indptr)[rows]
        entries = _spans(indptr[rows], lengths)
        reads = np.diff(first)[indices[entries]]  # the pairs each entry reads
        terms = _spans(first[indices[entries]], reads)
        row = np.repeat(np.arange(len(rows)), lengths)  # the row of each entry
        key = np.repeat(row, reads) * n_in + inputs[terms]  # the pair (row, input) of each term
        order = np.argsort(key, kind="stable")  # keeps each row's entries in stored order
        if hidden:
            pairs, counts = np.unique(key, return_counts=True)
        else:  # every (output, input)
            pairs = np.arange(len(rows) * n_in)
            counts = np.bincount(key, minlength=len(pairs))
        kernels.append(_csr(np.repeat(data[entries], reads)[order], terms[order],
                            np.append(0, np.cumsum(counts)), (len(pairs), first[-1])))
        owners.append(pairs // n_in)
        inputs = pairs % n_in
        first = np.searchsorted(owners[-1], np.arange(len(rows) + 1))
    return Tangents(tuple(kernels), tuple(owners[:-1]))


class Workspace(NamedTuple):
    """The buffers one evaluation call runs every layer and slice through.

    Flat float64 arrays: ``values`` holds two blocks of up to ``(width + 1)
    x rows`` entries, the extra row the constant neuron's, and ``tangents``
    two of up to ``pairs x rows``. Each layer reads one block of a pair and
    writes the other, into its leading entries; the block it has read then
    holds its activation flags, as bytes.
    """

    values: tuple[np.ndarray, np.ndarray]
    tangents: tuple[np.ndarray, np.ndarray]


def _product(kernel: Csr, block: np.ndarray, buffer: np.ndarray) -> np.ndarray:
    """``kernel @ block`` into the leading entries of ``buffer``, which it returns reshaped.

    ``block`` is a C-contiguous (n_col, ...) array whose trailing axes run as
    columns. This is the kernel scipy's ``@`` runs for a stack of columns,
    called on raw CSR arrays into a zeroed slice of the buffer rather than a
    fresh array. The kernel checks no sizes, so they are checked here, as
    ``@`` does.
    """
    data, indices, indptr, (rows, cols) = kernel
    columns = prod(block.shape[1:])
    out = buffer[:rows * columns]
    if block.shape[0] != cols or out.size != rows * columns:
        raise ValueError(f"dimension mismatch: a {rows} x {cols} layer cannot map a block of "
                         f"shape {block.shape} into {buffer.size} entries")
    out.fill(0.0)
    csr_matvecs(rows, cols, columns, indptr, indices, data, block.reshape(-1), out)
    return out.reshape((rows,) + block.shape[1:])


def _forward(plan: Plan, X: np.ndarray, rows: slice, space: Workspace,
             tangents: Tangents | None = None, visit=None):
    """The layer loop over one slice of :func:`_batch`: the rows ``rows`` of X, as columns.

    Returns the slice's outputs (count, N_K) and, with a plan's pair kernels
    ``tangents``, its Jacobians (count, N_K, N_0), else None. Calls ``visit``
    as :func:`_batch` describes. Every block lives in ``space``, which holds
    the slice; outputs are gathered out of it through ``plan.output``, which
    copies them, and the Jacobians are a view of it.
    """
    kernels = plan.kernels
    last = len(kernels) - 1
    X = X[rows]
    count, n_in = X.shape
    # The inputs, then the constant neuron every bias term reads.
    Z = space.values[0][:(n_in + 1) * count].reshape(n_in + 1, count)
    np.copyto(Z[:-1], X.T)
    Z[-1] = 1.0
    T = None
    if tangents is not None:
        # Each input's tangent along itself, at its pair (c, c).
        T = space.tangents[0][:n_in * count].reshape(n_in, count)
        T.fill(1.0)
    for k, kernel in enumerate(kernels):
        # The single-threaded C loop that evaluates a row sums its entries in
        # stored order (ascending columns in a layer, the layer's order in a
        # plan) and the bias last.
        Z = _product(kernel, Z, space.values[(k + 1) % 2])
        if T is not None:
            T = _product(tangents.kernels[k], T, space.tangents[(k + 1) % 2])
        if k < last:
            if visit is not None:
                visit(rows, k, Z[:-1])
            if T is not None:
                # Each pair's tangent times its owner's flag Z > 0, as a
                # product, so inf * 0 = nan as in the dense form. The flags
                # live in the blocks this layer has read.
                idle = space.values[k % 2].view(bool)[:Z.size].reshape(Z.shape)
                np.greater(Z, 0.0, out=idle)
                np.logical_not(idle, out=idle)
                # mode="clip" gathers straight into ``out``; "raise" buffers a copy.
                idle = np.take(idle, tangents.owners[k], axis=0, mode="clip",
                               out=space.tangents[k % 2].view(bool)[:T.size].reshape(T.shape))
                np.multiply(T, 0.0, out=T, where=idle)
            np.maximum(Z, 0.0, out=Z)
    Z = Z[plan.output]
    return Z.T, None if T is None else T.reshape(len(plan.output), n_in, count).transpose(2, 0, 1)


def _batch(plan: Plan, X: np.ndarray, tangents: Tangents | None = None, visit=None):
    """Every evaluation: :func:`_forward` over the rows of X, slice by slice.

    Returns the outputs (count, N_K) and, with the plan's pair kernels
    ``tangents``, the Jacobians (count, N_K, N_0), else None, both in C
    order. Calls ``visit(rows, k, Z)`` with each slice's pre-activation block
    Z (width_k, len(rows)) of hidden layer k, counted from 0, the constant
    neuron left out, before it is rectified in place; ``rows`` is the slice
    of X that Z holds. Slices hold at most 4096 rows whose value and tangent
    blocks stay within ``SLICE_BYTES``, or one row where one row's blocks
    are larger. Every slice runs through one workspace, made for this call.
    """
    count, n_out = X.shape[0], len(plan.output)
    out = np.empty((count, n_out), dtype=np.float64)
    jacobians = None if tangents is None else np.empty((count, n_out, X.shape[1]))
    width = max(plan.widths)
    pairs = 0 if tangents is None else max(kernel.shape[0] for kernel in tangents.kernels)
    height = max(1, min(4096, count, SLICE_BYTES // (16 * (width + pairs))))
    space = Workspace((np.empty((width + 1) * height), np.empty((width + 1) * height)),
                      (np.empty(pairs * height), np.empty(pairs * height)))
    for lo in range(0, count, height):
        rows = slice(lo, min(lo + height, count))
        out[rows], J = _forward(plan, X, rows, space, tangents, visit)
        if J is not None:
            jacobians[rows] = J
    return out, jacobians


def _inputs(fnn: Fnn, x, batch: bool = False) -> tuple[np.ndarray, bool]:
    """Inputs as rows, and whether x was a stack: a 2-D x is, anything else is one vector.

    A ``batch`` takes stacks only, and an empty sequence as an empty stack.
    """
    X = np.asarray(x, dtype=np.float64)
    if batch and X.shape == (0,):
        X = X.reshape(0, fnn.input_dim)
    stacked = X.ndim == 2
    X = X if stacked else X.reshape(1, -1)
    if X.shape[1] != fnn.input_dim or batch and not stacked:
        raise StructureError("dimension-mismatch", 1)
    return X, stacked


def evaluate(fnn: Fnn, x) -> np.ndarray:
    """Forward pass for a single input vector of length N_0."""
    return _batch(fnn._plan, _inputs(fnn, np.reshape(x, -1))[0])[0][0]


def evaluate_batch(fnn: Fnn, xs) -> np.ndarray:
    """Evaluate many inputs; row i is bit-equal to ``evaluate(fnn, xs[i])``.

    Accepts any sequence of vectors or a 2-D array of shape (count, N_0).
    An empty batch yields an empty (0, N_K) array. Inputs run in slices of
    at most 4096 rows, fewer for wide networks (see ``SLICE_BYTES``).
    """
    return _batch(fnn._plan, _inputs(fnn, xs, batch=True)[0])[0]


def preactivations(fnn: Fnn, x) -> list[np.ndarray]:
    """Pre-activation vectors W_k x_{k-1} + b_k of the hidden layers (k < K).

    A stack x of shape (count, N_0) gives (count, N_k) arrays, row i
    bit-equal to the result for ``x[i]``; it runs in slices sized as in
    :func:`evaluate_batch`, each written into the arrays as it passes, so
    its working memory beyond them is that of one slice. Used by
    verification code to detect inputs that sit on a kink of the
    piecewise-linear function.
    """
    X, stacked = _inputs(fnn, x)
    pres = [np.empty((len(X), width)) for width in fnn.widths[1:-1]]

    def keep(rows: slice, k: int, Z: np.ndarray) -> None:
        pres[k][rows] = Z.T

    _batch(fnn._plan, X, visit=keep)
    return pres if stacked else [pre[0] for pre in pres]


def jacobian(fnn: Fnn, x) -> np.ndarray:
    """Derivative of the network at x, shape N_K x N_0.

    The network is piecewise linear, so almost everywhere the derivative is
    W_K D_{K-1} W_{K-1} ... D_1 W_1 with D_k the 0/1 activation mask of hidden
    layer k. At a pre-activation that is exactly zero the mask entry is 0 (the
    inactive branch), a fixed convention for points on a kink. A stack x of
    shape (count, N_0) gives (count, N_K, N_0), entry i bit-equal to the
    result for ``x[i]``. A stack runs in slices sized as in
    :func:`evaluate_batch`, with the tangent blocks counted, so its working
    memory is that of one slice, not of the whole stack.
    """
    X, stacked = _inputs(fnn, x)
    J = _batch(fnn._plan, X, fnn._pairs)[1]
    return J if stacked else J[0]


def metrics(fnn: Fnn) -> NetworkMetrics:
    """Count the five size measures; "nonzero" means not bit-exactly 0.0."""
    connectivity = 0
    max_weight = 0.0
    for layer in fnn.layers:
        connectivity += len(layer.weights.data) + int(np.count_nonzero(layer.bias))
        max_weight = max(
            max_weight,
            float(np.abs(layer.weights.data).max(initial=0.0)),
            float(np.abs(layer.bias).max(initial=0.0)),
        )
    widths = fnn.widths
    return NetworkMetrics(
        depth=fnn.depth,
        connectivity=connectivity,
        neurons=int(sum(widths)),
        max_width=int(max(widths)),
        max_weight=max_weight,
    )
