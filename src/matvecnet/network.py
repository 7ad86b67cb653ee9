"""Core representation of ReLU feedforward networks.

A network is a finite sequence of affine layers ``[[W_1, b_1], ..., [W_K, b_K]]``.
Evaluation applies the rectifier rho(a) = max(a, 0) element-wise after every
layer except the last, which stays affine:

    x_0 = x,  x_k = rho(W_k x_{k-1} + b_k)  for k < K,  x_K = W_K x_{K-1} + b_K.

Layers are stored dense and immutable. Five size measures are reported by
:func:`metrics`: depth L (layer count), connectivity M (number of weight and
bias entries that are not bit-exactly zero), neuron count N (sum of all layer
widths, the input layer included), maximum width W, and the largest absolute
weight B.

Evaluation is double precision and bit-reproducible: every matrix-vector
product accumulates in row-major (sorted column index) order through a cached
compressed-sparse-row kernel, never through threaded BLAS. One layer loop,
with samples as columns, serves values, pre-activations and Jacobians (N_0
tangent columns per sample); the kernel computes each column on its own, so
stacked results are bit-identical to computing samples one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence, TYPE_CHECKING

import numpy as np
from scipy import sparse

if TYPE_CHECKING:  # pragma: no cover
    from .constructors import ConstructionRecord

__all__ = [
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

# Batch evaluation processes inputs in fixed-size slices so that activations of
# wide networks never exceed a few tens of megabytes. The slice size must stay
# a constant: per-sample results do not depend on it, but keeping it fixed
# avoids any temptation to tie it to worker counts.
BATCH_CHUNK = 4096


class StructureError(ValueError):
    """A network violates a structural invariant.

    ``layer_index`` is 1-based, matching the mathematical numbering W_1..W_K.
    """

    def __init__(self, kind: str, layer_index: int):
        self.kind = kind
        self.layer_index = layer_index
        super().__init__(f"{kind} at layer {layer_index}")


def _as_matrix(a) -> np.ndarray:
    arr = np.array(a, dtype=np.float64, copy=True)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    arr.setflags(write=False)
    return arr


def _as_vector(a) -> np.ndarray:
    arr = np.array(a, dtype=np.float64, copy=True).reshape(-1)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Layer:
    """One affine stage: weight matrix of shape N_k x N_{k-1} and bias of length N_k."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", _as_matrix(self.weights))
        object.__setattr__(self, "bias", _as_vector(self.bias))

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
    evaluation.
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
    def _kernels(self) -> tuple[sparse.csr_matrix, ...]:
        # CSR keeps per-row entries in ascending column order, so the C loop
        # that evaluates a row is exactly a row-major accumulation. It is also
        # single-threaded, which keeps results independent of the environment.
        return tuple(sparse.csr_matrix(l.weights) for l in self.layers)

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
        if layer.weights.ndim != 2 or layer.bias.ndim != 1:
            raise StructureError("dimension-mismatch", k)
        if layer.weights.shape[0] != layer.bias.shape[0]:
            raise StructureError("dimension-mismatch", k)
        if layer.weights.shape[0] < 1 or layer.weights.shape[1] < 1:
            raise StructureError("dimension-mismatch", k)
        if prev_out is not None and layer.fan_in != prev_out:
            raise StructureError("dimension-mismatch", k)
        if not (np.isfinite(layer.weights).all() and np.isfinite(layer.bias).all()):
            raise StructureError("nonfinite-entry", k)
        prev_out = layer.fan_out


def _forward(fnn: Fnn, X: np.ndarray, pres: list | None = None, tangents: bool = False):
    """The layer loop behind every evaluation function; the rows of X run as columns.

    Returns the outputs (count, N_K) and, with ``tangents``, the Jacobians
    (count, N_K, N_0), else None. Appends hidden pre-activations to ``pres``.
    """
    kernels = fnn._kernels
    last = fnn.depth - 1
    count, n_in = X.shape
    Z = np.ascontiguousarray(X.T)
    T = np.repeat(fnn.layers[0].weights[:, None, :], count, axis=1) if tangents else None
    for k, layer in enumerate(fnn.layers):
        Z = kernels[k] @ Z
        Z += layer.bias[:, None]
        if tangents and k:
            T = (kernels[k] @ T.reshape(T.shape[0], -1)).reshape(layer.fan_out, count, n_in)
        if k < last:
            if pres is not None:
                pres.append(Z.T)
                Z = np.maximum(Z, 0.0)
            else:
                np.maximum(Z, 0.0, out=Z)
            if tangents:
                T *= (Z > 0.0)[:, :, None]
    return Z.T, None if T is None else T.transpose(1, 0, 2)


def _inputs(fnn: Fnn, x) -> tuple[np.ndarray, bool]:
    """Inputs as rows: a 2-D x as it is, anything else as one vector; and whether x was 2-D."""
    X = np.asarray(x, dtype=np.float64)
    stacked = X.ndim == 2
    X = X if stacked else X.reshape(1, -1)
    if X.shape[1] != fnn.input_dim:
        raise StructureError("dimension-mismatch", 1)
    return X, stacked


def evaluate(fnn: Fnn, x) -> np.ndarray:
    """Forward pass for a single input vector of length N_0."""
    return _forward(fnn, _inputs(fnn, np.reshape(x, -1))[0])[0][0]


def evaluate_batch(fnn: Fnn, xs) -> np.ndarray:
    """Evaluate many inputs; row i is bit-equal to ``evaluate(fnn, xs[i])``.

    Accepts any sequence of vectors or a 2-D array of shape (count, N_0).
    An empty batch yields an empty (0, N_K) array.
    """
    X = np.asarray(xs, dtype=np.float64)
    if X.size == 0:
        return np.empty((0, fnn.output_dim), dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != fnn.input_dim:
        raise StructureError("dimension-mismatch", 1)
    out = np.empty((X.shape[0], fnn.output_dim), dtype=np.float64)
    for lo in range(0, X.shape[0], BATCH_CHUNK):
        out[lo:lo + BATCH_CHUNK] = _forward(fnn, X[lo:lo + BATCH_CHUNK])[0]
    return out


def preactivations(fnn: Fnn, x) -> list[np.ndarray]:
    """Pre-activation vectors W_k x_{k-1} + b_k of the hidden layers (k < K).

    A stack x of shape (count, N_0) gives (count, N_k) arrays, row i
    bit-equal to the result for ``x[i]``. Used by verification code to
    detect inputs that sit on a kink of the piecewise-linear function.
    """
    X, stacked = _inputs(fnn, x)
    pres: list[np.ndarray] = []
    _forward(fnn, X, pres)
    return pres if stacked else [pre[0] for pre in pres]


def jacobian(fnn: Fnn, x) -> np.ndarray:
    """Derivative of the network at x, shape N_K x N_0.

    The network is piecewise linear, so almost everywhere the derivative is
    W_K D_{K-1} W_{K-1} ... D_1 W_1 with D_k the 0/1 activation mask of hidden
    layer k. At a pre-activation that is exactly zero the mask entry is 0 (the
    inactive branch), a fixed convention for points on a kink. A stack x of
    shape (count, N_0) gives (count, N_K, N_0), entry i bit-equal to the
    result for ``x[i]``.
    """
    X, stacked = _inputs(fnn, x)
    J = _forward(fnn, X, tangents=True)[1]
    return J if stacked else J[0]


def metrics(fnn: Fnn) -> NetworkMetrics:
    """Count the five size measures; "nonzero" means not bit-exactly 0.0."""
    connectivity = 0
    max_weight = 0.0
    for layer in fnn.layers:
        connectivity += int(np.count_nonzero(layer.weights))
        connectivity += int(np.count_nonzero(layer.bias))
        max_weight = max(
            max_weight,
            float(np.max(np.abs(layer.weights))),
            float(np.max(np.abs(layer.bias))) if layer.bias.size else 0.0,
        )
    widths = fnn.widths
    return NetworkMetrics(
        depth=fnn.depth,
        connectivity=connectivity,
        neurons=int(sum(widths)),
        max_width=int(max(widths)),
        max_weight=max_weight,
    )
