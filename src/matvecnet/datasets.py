"""Dataset generation and input packing for product networks.

The packing convention is fixed across the whole package: a matrix argument
enters as its column-major vectorization, followed by the vector argument.
The complex layout is [vec(W1), vec(W2), x1, x2]. Pack/unpack helpers below
are the single source of truth for these layouts; the constructors and the
checks take every coordinate and layout description from them, through
:func:`_layout`.

Generation is deterministic per sample index (see :mod:`.rng`): row i of a
dataset depends only on (seed, i), never on `count` or on any partitioning
of the generation loop. Rows are generated in fixed blocks of
``_ROW_BLOCK`` = 512, each drawn with one :func:`.rng.uniform_rows` call
and multiplied out with one stacked product, in a call of its own, so one
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


def pack_matvec(W: np.ndarray, x: np.ndarray) -> np.ndarray:
    """[vec(W) column-major, x] as one flat vector."""
    W = np.asarray(W, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if W.ndim != 2 or x.ndim != 1 or W.shape[1] != x.shape[0]:
        raise ValueError(f"incompatible shapes {W.shape} and {x.shape}")
    return np.concatenate([W.flatten(order="F"), x])


def unpack_matvec(v: np.ndarray, m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """W and x from a packed vector, or stacks of them from a stack of rows.

    A ``(..., m*n + n)`` input gives W of shape ``(..., m, n)`` (a view) and
    x of shape ``(..., n)`` (a copy).
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim == 0 or v.shape[-1] != m * n + n:
        raise ValueError(f"expected a vector of width {m * n + n}, got {v.shape}")
    return _column_major(v[..., : m * n], m, n), v[..., m * n:].copy()


def pack_complex(W1, W2, x1, x2) -> np.ndarray:
    """[vec(W1), vec(W2), x1, x2] with column-major matrix blocks."""
    W1 = np.asarray(W1, dtype=np.float64)
    W2 = np.asarray(W2, dtype=np.float64)
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    if W1.shape != W2.shape or x1.shape != x2.shape:
        raise ValueError("real and imaginary parts must have matching shapes")
    if W1.ndim != 2 or x1.ndim != 1 or W1.shape[1] != x1.shape[0]:
        raise ValueError(f"incompatible shapes {W1.shape} and {x1.shape}")
    return np.concatenate([
        W1.flatten(order="F"),
        W2.flatten(order="F"),
        x1,
        x2,
    ])


def unpack_complex(v: np.ndarray, m: int, n: int):
    """W1, W2, x1, x2 from a packed vector, or stacks of them, as in :func:`unpack_matvec`."""
    v = np.asarray(v, dtype=np.float64)
    block = m * n
    if v.ndim == 0 or v.shape[-1] != 2 * block + 2 * n:
        raise ValueError(f"expected a vector of width {2 * block + 2 * n}, got {v.shape}")
    W1 = _column_major(v[..., :block], m, n)
    W2 = _column_major(v[..., block: 2 * block], m, n)
    x1 = v[..., 2 * block: 2 * block + n].copy()
    x2 = v[..., 2 * block + n:].copy()
    return W1, W2, x1, x2


def _layout(m: int, n: int, complex: bool = False) -> tuple[str, int, tuple[np.ndarray, ...]]:
    """The packed (m, n) layout: its description, its width and where each entry sits.

    The positions are :func:`unpack_matvec`, or with ``complex``
    :func:`unpack_complex`, of the coordinate indices 0, 1, ..., width - 1,
    as integer arrays: (W, x) or (W1, W2, x1, x2). The constructors and the
    checks read every layout from here.
    """
    block = f"column-major ({m * n})"
    if complex:
        parts, width = f"vec(W1) {block}, vec(W2) {block}, x1 ({n}), x2 ({n})", 2 * (m * n + n)
    else:
        parts, width = f"vec(W) {block}, x ({n})", m * n + n
    unpack = unpack_complex if complex else unpack_matvec
    return f"[{parts}]", width, tuple(p.astype(np.intp) for p in unpack(np.arange(width), m, n))


def _column_major(vec: np.ndarray, m: int, n: int) -> np.ndarray:
    """(..., m, n) matrices read column-major from the last axis of `vec` (a view)."""
    return vec.reshape(vec.shape[:-1] + (n, m)).swapaxes(-1, -2)


def _matvec(W: np.ndarray, x: np.ndarray) -> np.ndarray:
    """W x for one (m, n) matrix and n-vector, or for stacks (k, m, n) and (k, n).

    A stack goes through one ``np.matmul`` call, so the host BLAS picks
    the order of each sum (see :func:`.verification.matvec_truth`).
    """
    return np.matmul(W, x[..., None])[..., 0]


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
    packing, entries, _ = _layout(m, n)
    inputs = np.empty((count, entries))
    targets = np.empty((count, m))
    for lo, hi in _row_blocks(count):
        _equispaced_rows(inputs[lo:hi], targets[lo:hi], seed, lo, h, grid_points, m, n)
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


def _equispaced_rows(inputs, targets, seed, lo, h, grid_points, m, n) -> None:
    """Rows lo, lo + 1, ... of :func:`equispaced_real_dataset`, into one block's views."""
    u = uniform_rows(seed, lo, lo + len(inputs), inputs.shape[1])
    j = np.floor(u * grid_points).astype(np.int64)
    np.clip(j, 0, grid_points - 1, out=j)
    inputs[...] = -h + (2.0 * h) * (j / (grid_points - 1))
    targets[...] = _matvec(*unpack_matvec(inputs, m, n))


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
    inputs = np.empty((hi - lo, _layout(m, n, complex=True)[1]))
    targets = np.empty((hi - lo, 2 * m))
    clipped = 0
    for a, b in _row_blocks(hi - lo):
        clipped += _qpsk_rows(inputs[a:b], targets[a:b], seed, lo + a, lo + b == rows, clip, m, n)
    return inputs, targets, clipped


def _qpsk_rows(inputs, targets, seed, lo, probe, clip, m, n) -> int:
    """Rows lo, lo + 1, ... of :func:`qpsk_rayleigh_dataset`, into one block's views.

    With ``probe``, the last row is the zero-channel probe. Returns how many
    channel components the clip touched.
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
    drawn = z[: len(z) - probe]
    clipped = int(np.count_nonzero(np.abs(drawn) > clip))
    np.clip(drawn, -clip, clip, out=drawn)
    z[len(drawn):] = 0.0
    inputs[:, 2 * block:] = np.where(u[:, 2 * block:] < 0.5, -_QPSK_LEVEL, _QPSK_LEVEL)
    W1, W2, x1, x2 = unpack_complex(inputs, m, n)
    targets[:, :m] = _matvec(W1, x1) - _matvec(W2, x2)
    targets[:, m:] = _matvec(W1, x2) + _matvec(W2, x1)
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
