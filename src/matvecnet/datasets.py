"""Input packing, the packed product, and dataset generation for product networks.

The packing convention is fixed across the whole package: a matrix argument
enters as its column-major vectorization, followed by the vector argument.
The complex layout is [vec(W1), vec(W2), x1, x2]. One pack/unpack pair,
:func:`_pack` and :func:`_unpack`, is the single source of truth for these
layouts; the constructors and the checks take every coordinate and layout
description from it, through :func:`_layout`.

The product itself is one table, ``_TERMS``: each output block is listed as
its (sign, matrix part, vector part) terms, W x for the real layout and
W1 x1 - W2 x2 over W1 x2 + W2 x1 for the complex one. Everything that
computes the product reads it: :func:`_targets` is the one reference
product (both generators and the box check call it),
:func:`_subtract_jacobian` subtracts its exact Jacobian for the Sobolev
check, and :func:`.constructors.complex_matvec_net` superposes its networks
by it.

Generation is deterministic per sample index (see :mod:`.rng`): row i of a
dataset depends only on (seed, i), never on `count` or on any partitioning
of the generation loop. Rows are generated in fixed blocks of
``_ROW_BLOCK`` = 512 by one block loop, :func:`_blocks`: a row filler draws
each block's inputs with one :func:`.rng.uniform_rows` call, and
:func:`_targets` multiplies them out, in a call of its own, so one
block's scratch is freed before the next is drawn. A block holds its
uniforms and a few arrays of its channel's size: at the complex point
(m = 8, n = 4) 8,191 QPSK rows peak 0.91 MiB (tracemalloc) above the
5.5 MiB they return. :func:`save_dataset` writes the same blocks, and
the complex check draws its QPSK rows in them, a chunk at a time
(:func:`_qpsk_chunk`), without holding the dataset.

Rayleigh-style channel entries are produced by the fixed-consumption
Box-Muller transform, scaled so each real component has
variance 1/2, then hard-clipped so every entry is certain to lie inside the
approximation domain; the number of clipped entries lands in the meta block.
A final all-zero-channel probe row is appended to that dataset so the exact
vanishing behaviour of the product networks is exercised by construction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .rng import box_muller, uniform_rows

__all__ = [
    "Dataset",
    "pack_matvec",
    "unpack_matvec",
    "pack_complex",
    "unpack_complex",
    "matvec_truth",
    "equispaced_real_dataset",
    "qpsk_rayleigh_dataset",
    "save_dataset",
    "load_dataset",
]


@dataclass(frozen=True)
class Dataset:
    """Paired inputs and targets plus a record of how they were generated."""

    inputs: np.ndarray
    targets: np.ndarray
    meta: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        inputs = np.asarray(self.inputs, dtype=np.float64)
        targets = np.asarray(self.targets, dtype=np.float64)
        if inputs.ndim != 2 or targets.ndim != 2:
            raise ValueError("inputs and targets must be 2-D arrays")
        if inputs.shape[0] != targets.shape[0]:
            raise ValueError(
                f"inputs have {inputs.shape[0]} rows but targets have {targets.shape[0]}"
            )
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "targets", targets)

    def __len__(self) -> int:
        return self.inputs.shape[0]


# A packed layout is k matrix blocks, each column-major, then k vector blocks:
# k = 1 is the real layout [vec(W), x], k = 2 the complex one [vec(W1),
# vec(W2), x1, x2]. Output block i of the product is the sum of the terms
# sign * P[p] P[q], over (sign, p, q) in _TERMS[complex][i], where P is the
# unpacked (W, x) or (W1, W2, x1, x2); the first term of a block has sign +1.
# Real: W x. Complex: W1 x1 - W2 x2 over W1 x2 + W2 x1.
_TERMS = {False: (((1.0, 0, 1),),),
          True: (((1.0, 0, 2), (-1.0, 1, 3)), ((1.0, 0, 3), (1.0, 1, 2)))}


def _width(m: int, n: int, complex: bool = False) -> int:
    """The width of a packed (m, n) row, computed without building it."""
    return (2 if complex else 1) * (m * n + n)


def _pack(Ws, xs) -> np.ndarray:
    """[vec(W) for W in Ws, then x for x in xs] as one flat vector, matrices column-major."""
    Ws = [np.asarray(W, dtype=np.float64) for W in Ws]
    xs = [np.asarray(x, dtype=np.float64) for x in xs]
    if len({W.shape for W in Ws}) > 1 or len({x.shape for x in xs}) > 1:
        raise ValueError("real and imaginary parts must have matching shapes")
    if Ws[0].ndim != 2 or xs[0].ndim != 1 or Ws[0].shape[1] != xs[0].shape[0]:
        raise ValueError(f"incompatible shapes {Ws[0].shape} and {xs[0].shape}")
    return np.concatenate([W.flatten(order="F") for W in Ws] + xs)


def _unpack(v: np.ndarray, m: int, n: int, complex: bool = False) -> tuple[np.ndarray, ...]:
    """The parts of a packed vector, or stacks of them from a stack of rows.

    A ``(..., width)`` input gives each matrix part of shape ``(..., m, n)``
    (a view, read column-major) and each vector part of shape ``(..., n)``
    (a copy): (W, x), or with ``complex`` (W1, W2, x1, x2).
    """
    v = np.asarray(v, dtype=np.float64)
    width, k, block = _width(m, n, complex), 2 if complex else 1, m * n
    if v.ndim == 0 or v.shape[-1] != width:
        raise ValueError(f"expected a vector of width {width}, got {v.shape}")
    return (*(_column_major(v[..., p * block: (p + 1) * block], m, n) for p in range(k)),
            *(v[..., k * block + q * n: k * block + (q + 1) * n].copy() for q in range(k)))


def pack_matvec(W: np.ndarray, x: np.ndarray) -> np.ndarray:
    """[vec(W) column-major, x] as one flat vector."""
    return _pack([W], [x])


def unpack_matvec(v: np.ndarray, m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """W and x from a packed vector, or stacks of them from a stack of rows.

    A ``(..., m*n + n)`` input gives W of shape ``(..., m, n)`` (a view) and
    x of shape ``(..., n)`` (a copy).
    """
    return _unpack(v, m, n)


def pack_complex(W1, W2, x1, x2) -> np.ndarray:
    """[vec(W1), vec(W2), x1, x2] with column-major matrix blocks."""
    return _pack([W1, W2], [x1, x2])


def unpack_complex(v: np.ndarray, m: int, n: int):
    """W1, W2, x1, x2 from a packed vector, or stacks of them, as in :func:`unpack_matvec`."""
    return _unpack(v, m, n, complex=True)


def _layout(m: int, n: int, complex: bool = False) -> tuple[str, int, tuple[np.ndarray, ...]]:
    """The packed (m, n) layout: its description, its width and where each entry sits.

    The positions are :func:`_unpack` of the coordinate indices 0, 1, ...,
    width - 1, as integer arrays: (W, x), or with ``complex`` (W1, W2, x1,
    x2). The constructors and the checks read every layout from here.
    """
    width, ids = _width(m, n, complex), ("1", "2") if complex else ("",)
    parts = [f"vec(W{i}) column-major ({m * n})" for i in ids] + [f"x{i} ({n})" for i in ids]
    positions = _unpack(np.arange(width), m, n, complex)
    return f"[{', '.join(parts)}]", width, tuple(p.astype(np.intp) for p in positions)


def _column_major(vec: np.ndarray, m: int, n: int) -> np.ndarray:
    """(..., m, n) matrices read column-major from the last axis of `vec` (a view)."""
    return vec.reshape(vec.shape[:-1] + (n, m)).swapaxes(-1, -2)


def matvec_truth(W: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Reference double-precision product W x, for one pair or for stacks of pairs.

    Takes one (m, n) matrix and n-vector, or stacks (k, m, n) and (k, n)
    that are multiplied pair by pair in a single ``np.matmul`` call. Every
    reference product of the package is :func:`_targets`, which makes one
    such call per term of the packed product, so the box and derivative
    checks and both dataset generators agree bit for bit on one host. The
    bits themselves come from the host BLAS: under the OpenBLAS kernel the
    recorded report rows were made with (SkylakeX), each product is
    bit-equal to ``W @ x`` on that pair, but under other kernels the sums
    run in another order and a 1-row ``W @ x`` takes another path, so that
    equality is not promised across hosts (ROADMAP item 1).
    """
    return np.matmul(np.asarray(W), np.asarray(x)[..., None])[..., 0]


def _targets(xs, m, n, complex=False, out=None) -> np.ndarray:
    """The reference product of packed rows: W x, or Re over Im of the complex product.

    Each term of :data:`_TERMS` is one stacked :func:`matvec_truth` call
    over the rows, added into its output block in term order. ``out``, of
    width m or 2m, takes the result; without it a new array does.
    """
    P = _unpack(xs, m, n, complex)
    if out is None:
        out = np.empty(P[0].shape[:-2] + (len(_TERMS[complex]) * m,))
    for i, ((_, p, q), *rest) in enumerate(_TERMS[complex]):
        block = out[..., i * m: (i + 1) * m]
        block[...] = matvec_truth(P[p], P[q])
        for sign, p, q in rest:  # no sign * product temporary
            (np.add if sign > 0 else np.subtract)(block, matvec_truth(P[p], P[q]), out=block)
    return out


def _subtract_jacobian(J, xs, m, n, complex=False) -> np.ndarray:
    """J minus the reference Jacobian of :func:`_targets`, in place, for stacks J and rows xs.

    J is (count, m, width), or (count, 2m, width) with ``complex``. Only the
    nonzero entries of the reference are subtracted: for a term sign * W x
    of output block i, sign * x_j at row i*m + r and the coordinate of
    W[r, j], and sign * W[r, j] at row i*m + r and the coordinate of x_j.
    The rest would subtract 0.0, which changes no bit of J, -0.0 included.
    J - (-v) and J + v are the same bits, so a term of sign -1 subtracts
    its negated parts.
    """
    P, (_, _, at) = _unpack(xs, m, n, complex), _layout(m, n, complex)
    for i, terms in enumerate(_TERMS[complex]):
        block = J[:, i * m: (i + 1) * m]
        for sign, p, q in terms:
            W, x = (P[p], P[q]) if sign > 0 else (-P[p], -P[q])
            block[:, np.arange(m)[:, None], at[p]] -= x[:, None, :]
            block[:, :, at[q]] -= W
    return J


# Rows generated or written per pass, so scratch memory does not grow with
# `count`; the bytes do not depend on it.
_ROW_BLOCK = 512


def _row_blocks(total: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + _ROW_BLOCK, total)) for lo in range(0, total, _ROW_BLOCK)]


def equispaced_real_dataset(
    m: int,
    n: int,
    count: int,
    half_width: float = 2.0,
    grid_points: int = 1025,
    seed: int = 0,
) -> Dataset:
    """Random (W, x) pairs with entries on an equispaced grid of [-h, h].

    Every entry of W and x is drawn independently and uniformly from the
    grid {-h + 2h j / (grid_points - 1) : j = 0 .. grid_points - 1}. Targets
    are the double-precision products W x. Row i is a deterministic function
    of (seed, i). ``grid_points`` must lie in [2, 2^53]: an entry's grid index
    is floor(u * grid_points) of a uniform u on the 2^53 multiples of 2^-53
    in [0, 1), which reaches every point of at most 2^53 of them.
    """
    if m < 1 or n < 1 or count < 1:
        raise ValueError("m, n and count must be positive")
    if not 2 <= grid_points <= 2 ** 53:
        raise ValueError(f"grid_points must lie in [2, 2^53], got {grid_points}")
    if not (half_width > 0 and math.isfinite(2.0 * n * half_width * half_width)):
        raise ValueError(
            f"half_width must be positive and small enough that every entry of W x "
            f"is finite, got {half_width}"
        )
    h = float(half_width)
    packing, _, _ = _layout(m, n)
    inputs, targets, _ = _blocks(
        lambda rows, lo: _equispaced_rows(rows, seed, lo, h, grid_points), 0, count, m, n)
    meta = {
        "kind": "equispaced_real",
        "m": m,
        "n": n,
        "count": count,
        "seed": int(seed),
        "half_width": h,
        "grid_points": int(grid_points),
        "grid": f"{grid_points} equispaced points on [{-h}, {h}]",
        "packing": packing,
    }
    return Dataset(inputs, targets, meta)


def _equispaced_rows(inputs, seed, lo, h, grid_points) -> int:
    """Rows lo, lo + 1, ... of :func:`equispaced_real_dataset`, into one block's view; 0 clipped."""
    u = uniform_rows(seed, lo, lo + len(inputs), inputs.shape[1])
    j = np.floor(u * grid_points).astype(np.int64)
    np.clip(j, 0, grid_points - 1, out=j)
    inputs[...] = -h + (2.0 * h) * (j / (grid_points - 1))
    return 0


_QPSK_LEVEL = 1.0 / math.sqrt(2.0)


def qpsk_rayleigh_dataset(
    m: int,
    n: int,
    count: int,
    clip: float = 3.0,
    seed: int = 0,
) -> Dataset:
    """Clipped complex Gaussian channels applied to random QPSK symbols.

    Each channel entry has independent real and imaginary components of
    variance 1/2 (unit-variance complex entries), generated by Box-Muller
    and clipped to [-clip, clip]. Symbol components are +-1/sqrt(2), chosen
    by fair coin flips. Targets stack the real part W1 x1 - W2 x2 over the
    imaginary part W1 x2 + W2 x1 of the complex product.

    The returned dataset has count + 1 rows: one extra probe row with the
    channel forced to zero (symbols drawn as usual), whose target is the
    zero vector. ``meta["clipped_entries"]`` counts how many channel
    components the clip actually touched.
    """
    if m < 1 or n < 1 or count < 1:
        raise ValueError("m, n and count must be positive")
    if not 0 < clip < math.inf:
        raise ValueError(f"clip must be positive and finite, got {clip}")
    rows = count + 1
    packing, _, _ = _layout(m, n, complex=True)
    inputs, targets, clipped = _qpsk_chunk(seed, 0, rows, rows, clip, m, n)
    meta = {
        "kind": "qpsk_rayleigh",
        "m": m,
        "n": n,
        "count": count,
        "rows": count + 1,
        "probe_rows": 1,
        "seed": int(seed),
        "clip": float(clip),
        "clipped_entries": clipped,
        "grid": "channel components N(0, 1/2) clipped, symbols +-1/sqrt(2)",
        "packing": packing,
    }
    return Dataset(inputs, targets, meta)


def _qpsk_chunk(seed, lo, hi, rows, clip, m, n) -> tuple[np.ndarray, np.ndarray, int]:
    """Rows lo..hi-1 of a ``rows``-row :func:`qpsk_rayleigh_dataset`: inputs, targets, clips.

    ``lo`` is a multiple of ``_ROW_BLOCK``, so the rows are drawn in the
    dataset's own blocks, through :func:`_qpsk_rows`, and are its rows
    lo..hi-1 bit for bit; row ``rows - 1`` is the zero-channel probe. The
    count is of the channel components the clip touched.
    """
    return _blocks(lambda xs, a: _qpsk_rows(xs, seed, a, rows, clip, m, n), lo, hi, m, n, True)


def _blocks(fill, lo, hi, m, n, complex=False) -> tuple[np.ndarray, np.ndarray, int]:
    """Rows lo..hi-1 of a generator, a block at a time: inputs, targets and the clips counted.

    ``fill(inputs, a)`` draws rows a, a + 1, ... into one block's view of
    the inputs and returns how many entries it clipped; :func:`_targets`
    then fills that block's targets.
    """
    inputs = np.empty((hi - lo, _width(m, n, complex)))
    targets = np.empty((hi - lo, len(_TERMS[complex]) * m))
    clipped = 0
    for a, b in _row_blocks(hi - lo):
        clipped += fill(inputs[a:b], lo + a)
        _targets(inputs[a:b], m, n, complex, targets[a:b])
    return inputs, targets, clipped


def _qpsk_rows(inputs, seed, lo, rows, clip, m, n) -> int:
    """Rows lo, lo + 1, ... of a ``rows``-row :func:`qpsk_rayleigh_dataset`, into one block's view.

    Row ``rows - 1``, where the block holds it, is the zero-channel probe.
    Returns how many channel components the clip touched.
    """
    block = m * n
    # Per row, stream(seed, i) is read as Box-Muller u1 (block uniforms),
    # then u2 (block), then 2n symbol flips.
    u = uniform_rows(seed, lo, lo + len(inputs), inputs.shape[1])
    z1, z2 = box_muller(u[:, :block], u[:, block: 2 * block])
    z = inputs[:, : 2 * block]
    z[:, 0::2] = z1
    z[:, 1::2] = z2
    z *= _QPSK_LEVEL
    drawn = z[: rows - 1 - lo]  # every row but the probe
    clipped = int(np.count_nonzero(np.abs(drawn) > clip))
    np.clip(drawn, -clip, clip, out=drawn)
    z[len(drawn):] = 0.0
    inputs[:, 2 * block:] = np.where(u[:, 2 * block:] < 0.5, -_QPSK_LEVEL, _QPSK_LEVEL)
    return clipped


def dataset_from_document(doc: dict[str, Any]) -> Dataset:
    """The dataset a document holds: inputs and targets are lists of rows of finite numbers."""
    for name in ("inputs", "targets"):
        rows = doc[name]
        if not (isinstance(rows, list) and all(
                type(row) is list and set(map(type, row)) <= {int, float} for row in rows)):
            raise ValueError(f"'{name}' must be a list of rows of numbers")
    ds = Dataset(doc["inputs"], doc["targets"], dict(doc.get("meta", {})))
    if not (np.isfinite(ds.inputs).all() and np.isfinite(ds.targets).all()):
        raise ValueError("a dataset file holds finite values only")  # 1e400 parses as inf
    return ds


def save_dataset(ds: Dataset, path) -> None:
    """The dataset as one JSON document: meta, inputs and targets, floats round-tripped.

    The file is ``json.dumps`` of ``{"meta": ..., "inputs": [[row], ...],
    "targets": [[row], ...]}``, keys in that order, and a newline, byte for
    byte, but the arrays are written one row block at a time, so no more
    than a block of them is ever held as Python floats or text. Nothing is
    written unless every value is finite.
    """
    meta = json.dumps(dict(ds.meta), allow_nan=False)
    if not (np.isfinite(ds.inputs).all() and np.isfinite(ds.targets).all()):
        raise ValueError("a dataset file holds finite values only")
    with open(path, "w") as fh:
        fh.write(f'{{"meta": {meta}')
        for name, array in (("inputs", ds.inputs), ("targets", ds.targets)):
            fh.write(f', "{name}": [')
            for lo, hi in _row_blocks(len(array)):
                fh.write((", " if lo else "") + json.dumps(array[lo:hi].tolist())[1:-1])
            fh.write("]")
        fh.write("}\n")


def _no_constant(token: str):
    raise ValueError(f"{token} is not a JSON number")


def load_dataset(path) -> Dataset:
    """The dataset in a file, read as UTF-8 whatever the locale.

    Its values must be JSON numbers, finite as :func:`save_dataset` writes
    them: ``true``, ``false``, ``null``, strings and the ``NaN``,
    ``Infinity`` and ``-Infinity`` extensions raise ``ValueError``, as does
    any other malformed file.
    """
    try:
        doc = json.loads(Path(path).read_bytes(), parse_constant=_no_constant)
        if not isinstance(doc, dict) or "inputs" not in doc or "targets" not in doc:
            raise ValueError("no inputs and targets")
        return dataset_from_document(doc)
    except (OverflowError, TypeError, ValueError) as exc:  # decode errors are ValueErrors
        raise ValueError(f"not a valid dataset file: {path}: {exc}") from exc
