"""Dataset generation and input packing for product networks.

The packing convention is fixed across the whole package: a matrix argument
enters as its column-major vectorization, followed by the vector argument.
The complex layout is [vec(W1), vec(W2), x1, x2]. Pack/unpack helpers below
are the single source of truth for these layouts.

Generation is deterministic per sample index (see :mod:`.rng`): row i of a
dataset depends only on (seed, i), never on `count` or on any partitioning
of the generation loop. Rows are generated in fixed blocks, each drawn with
one :func:`.rng.uniform_rows` call and multiplied out with one stacked
product. Rayleigh-style channel entries are produced by the
fixed-consumption Box-Muller transform, scaled so each real component has
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


def _column_major(vec: np.ndarray, m: int, n: int) -> np.ndarray:
    """(..., m, n) matrices read column-major from the last axis of `vec` (a view)."""
    return vec.reshape(vec.shape[:-1] + (n, m)).swapaxes(-1, -2)


def _matvec(W: np.ndarray, x: np.ndarray) -> np.ndarray:
    """W x for one (m, n) matrix and n-vector, or for stacks (k, m, n) and (k, n).

    A stack goes through one ``np.matmul`` call, which computes each product
    with the same kernel as a plain ``W @ x`` on that pair.
    """
    return np.matmul(W, x[..., None])[..., 0]


# Rows generated per pass, so scratch memory does not grow with `count`.
_ROW_BLOCK = 2048


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
    of (seed, i).
    """
    if m < 1 or n < 1 or count < 1:
        raise ValueError("m, n and count must be positive")
    if grid_points < 2:
        raise ValueError(f"grid_points must be at least 2, got {grid_points}")
    if not (half_width > 0 and math.isfinite(2.0 * n * half_width * half_width)):
        raise ValueError(
            f"half_width must be positive and small enough that every entry of W x "
            f"is finite, got {half_width}"
        )
    h = float(half_width)
    entries = m * n + n
    inputs = np.empty((count, entries))
    targets = np.empty((count, m))
    for lo, hi in _row_blocks(count):
        u = uniform_rows(seed, lo, hi, entries)
        j = np.floor(u * grid_points).astype(np.int64)
        np.clip(j, 0, grid_points - 1, out=j)
        inputs[lo:hi] = -h + (2.0 * h) * (j / (grid_points - 1))
        targets[lo:hi] = _matvec(*unpack_matvec(inputs[lo:hi], m, n))
    meta = {
        "kind": "equispaced_real",
        "m": m,
        "n": n,
        "count": count,
        "seed": int(seed),
        "half_width": h,
        "grid_points": int(grid_points),
        "grid": f"{grid_points} equispaced points on [{-h}, {h}]",
        "packing": f"[vec(W) column-major ({m * n}), x ({n})]",
    }
    return Dataset(inputs, targets, meta)


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
    block = m * n
    rows = count + 1
    inputs = np.empty((rows, 2 * block + 2 * n))
    targets = np.empty((rows, 2 * m))
    clipped = 0
    for lo, hi in _row_blocks(rows):
        # Per row, stream(seed, i) is read as Box-Muller u1 (block uniforms),
        # then u2 (block), then 2n symbol flips.
        u = uniform_rows(seed, lo, hi, inputs.shape[1])
        z1, z2 = box_muller(u[:, :block], u[:, block: 2 * block])
        z = inputs[lo:hi, : 2 * block]
        z[:, 0::2] = z1
        z[:, 1::2] = z2
        z *= _QPSK_LEVEL
        drawn = z[: min(hi, count) - lo]
        clipped += int(np.count_nonzero(np.abs(drawn) > clip))
        np.clip(drawn, -clip, clip, out=drawn)
        if hi == rows:
            z[-1] = 0.0
        inputs[lo:hi, 2 * block:] = np.where(u[:, 2 * block:] < 0.5, -_QPSK_LEVEL, _QPSK_LEVEL)
        W1, W2, x1, x2 = unpack_complex(inputs[lo:hi], m, n)
        targets[lo:hi, :m] = _matvec(W1, x1) - _matvec(W2, x2)
        targets[lo:hi, m:] = _matvec(W1, x2) + _matvec(W2, x1)
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
        "packing": (
            f"[vec(W1) column-major ({block}), vec(W2) column-major ({block}), "
            f"x1 ({n}), x2 ({n})]"
        ),
    }
    return Dataset(inputs, targets, meta)


def dataset_document(ds: Dataset) -> dict[str, Any]:
    return {
        "meta": dict(ds.meta),
        "inputs": ds.inputs.tolist(),
        "targets": ds.targets.tolist(),
    }


def dataset_from_document(doc: dict[str, Any]) -> Dataset:
    return Dataset(
        np.asarray(doc["inputs"], dtype=np.float64),
        np.asarray(doc["targets"], dtype=np.float64),
        dict(doc.get("meta", {})),
    )


def save_dataset(ds: Dataset, path) -> None:
    """The dataset as one JSON document: meta, inputs and targets, floats round-tripped.

    The file is ``json.dumps(dataset_document(ds))`` and a newline, byte for
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


def load_dataset(path) -> Dataset:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"not a valid dataset file: {path}: {exc}") from exc
    if not isinstance(doc, dict) or "inputs" not in doc or "targets" not in doc:
        raise ValueError(f"not a valid dataset file: {path}")
    return dataset_from_document(doc)
