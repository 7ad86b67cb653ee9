"""Network interchange files.

A network is stored as a single JSON document with three keys: ``format``,
the layout version (2); ``meta``, a free-form dictionary describing how the
network was built (kind, sizes, the approximation accuracy, a seed where
relevant); and ``layers``, the ordered list of sparse layers

    {"shape": [N_k, N_{k-1}], "rows": [...], "cols": [...], "values": [...], "bias": [...]}

where ``rows``, ``cols`` and ``values`` list the nonzero weights as
coordinate triplets in row-major order, and ``bias`` lists one number per
row. Format 2 is the only layout read: a document without ``format``, such
as the dense ``{"weights": [[row], ...], "bias": [...]}`` layers of earlier
versions, is refused as ``unknown format None``.

A file holds the document on one line, ending in a newline: byte for byte
``json.dumps`` of that layout, with the keys in the order above and
``allow_nan=False``, and ``"\n"``. :func:`save_fnn` forms that text straight
from each layer's CSR arrays, without building the document: every distinct
double (by bit pattern, so 0.0 and -0.0 stay apart) is formatted once with
``float.__repr__``, Python's shortest round-trip decimal form, and every index
is taken from one table of ``int.__repr__`` texts. Reading a file back
therefore reproduces the original doubles bit for bit. NaN and infinity are
rejected with ``ValueError`` (valid networks never contain them) before the
file is opened, and :func:`load_fnn` rejects the ``NaN``, ``Infinity`` and
``-Infinity`` tokens anywhere in a file as a malformed file. Any other JSON
spacing of the same document, such as the indented files of earlier
versions, reads the same. Files are read as UTF-8
whatever the locale (RFC 8259, section 8.1).

A layer loads straight into canonical CSR arrays: the triplets are sorted by
row and column, and stored zeros, -0.0 included, are dropped.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Union

import numpy as np

from .datasets import _no_constant
from .network import Fnn, Layer, _nonzero, validate

__all__ = ["save_fnn", "load_fnn", "network_from_document"]

FORMAT = 2
_SPARSE_KEYS = ("shape", "rows", "cols", "values", "bias")


def _meta(fnn: Fnn, extra_meta: dict | None) -> dict[str, Any]:
    meta: dict[str, Any] = {}
    if fnn.record is not None:
        meta.update(fnn.record.as_meta())
    if extra_meta:
        meta.update(extra_meta)
    return meta


def _rows(W) -> np.ndarray:
    """The row of each stored entry of CSR weights, in stored order."""
    return np.repeat(np.arange(W.shape[0]), np.diff(W.indptr))


def _indices(k: int, name: str, values: list, bound: int) -> np.ndarray:
    """A list of JSON integers in [0, bound) as an index array."""
    if not set(map(type, values)) <= {int}:
        raise ValueError(f"not a network document: layer {k} '{name}' must hold integers")
    idx = np.array(values, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= bound):
        raise ValueError(f"not a network document: layer {k} '{name}' index out of range")
    return idx


def _sparse_layer(k: int, entry) -> Layer:
    try:
        shape, rows, cols, values, bias = (entry[key] for key in _SPARSE_KEYS)
    except (KeyError, TypeError):
        raise ValueError(
            f"not a network document: layer {k} needs {', '.join(map(repr, _SPARSE_KEYS))}"
        ) from None
    if not (
        isinstance(shape, list) and len(shape) == 2
        and all(type(v) is int and 0 <= v < 2 ** 63 for v in shape)
    ):
        raise ValueError(f"not a network document: layer {k} 'shape' must be two counts")
    if not isinstance(bias, list) or len(bias) != shape[0]:
        raise ValueError(f"not a network document: layer {k} 'bias' needs one entry per row")
    if not all(isinstance(v, list) for v in (rows, cols, values)):
        raise ValueError(f"not a network document: layer {k} needs lists of coordinates")
    if not len(rows) == len(cols) == len(values):
        raise ValueError(f"not a network document: layer {k} coordinate lists differ in length")
    try:
        r = _indices(k, "rows", rows, shape[0])
        c = _indices(k, "cols", cols, shape[1])
    except OverflowError:
        raise ValueError(f"not a network document: layer {k} index out of range") from None
    order = np.lexsort((c, r))
    r, c = r[order], c[order]
    if np.any((np.diff(r) == 0) & (np.diff(c) == 0)):
        raise ValueError(f"not a network document: layer {k} repeats a coordinate")
    if not set(map(type, values)) | set(map(type, bias)) <= {int, float}:
        raise ValueError(f"not a network document: layer {k} needs numbers")
    indptr = np.concatenate(([0], np.cumsum(np.bincount(r, minlength=shape[0]))))
    try:
        values = np.array(values, dtype=np.float64)[order]
        return Layer._of(_nonzero(values, c, indptr, shape), bias)
    except OverflowError:
        raise ValueError(f"not a network document: layer {k} needs numbers") from None


def network_from_document(doc: dict) -> Fnn:
    """The network held by a format-2 interchange document, validated."""
    try:
        raw_layers = doc["layers"]
    except (KeyError, TypeError):
        raise ValueError("not a network document: missing 'layers'")
    if not isinstance(raw_layers, list) or not raw_layers:
        raise ValueError("not a network document: 'layers' must be a nonempty list")
    version = doc.get("format")
    if not (type(version) is int and version == FORMAT):
        raise ValueError(f"not a network document: unknown format {version!r}")
    layers = [_sparse_layer(k, entry) for k, entry in enumerate(raw_layers, start=1)]
    meta = doc.get("meta") or {}
    if not isinstance(meta, dict):
        raise ValueError("not a network document: 'meta' must be an object")
    record = None
    if "kind" in meta:
        from .constructors import ConstructionRecord

        try:
            record = ConstructionRecord.from_meta(meta)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"not a network document: malformed 'meta': {exc}") from None
    fnn = Fnn(tuple(layers), record)
    validate(fnn)
    return fnn


def _items(texts: np.ndarray) -> str:
    """The texts as the items of a JSON list, as json.dumps separates them."""
    return ", ".join(texts.tolist())


def _document_text(fnn: Fnn, extra_meta: dict | None) -> str:
    """The file's text, formed from the CSR arrays; see the module docstring."""
    meta = json.dumps(_meta(fnn, extra_meta), allow_nan=False)
    floats = np.concatenate([a for layer in fnn.layers for a in (layer.weights.data, layer.bias)])
    if not np.isfinite(floats).all():
        raise ValueError("a network file holds finite values only")
    distinct, inverse = np.unique(floats.view(np.int64), return_inverse=True)
    numbers = np.fromiter(map(float.__repr__, distinct.view(np.float64).tolist()), object)[inverse]
    top = max(max(layer.weights.shape) for layer in fnn.layers)
    counts = np.fromiter(map(int.__repr__, range(top)), object)
    layers, end = [], 0
    for layer in fnn.layers:
        W = layer.weights
        start, mid = end, end + len(W.data)
        end = mid + len(layer.bias)
        layers.append(
            f'{{"shape": [{W.shape[0]}, {W.shape[1]}], "rows": [{_items(counts[_rows(W)])}], '
            f'"cols": [{_items(counts[W.indices])}], "values": [{_items(numbers[start:mid])}], '
            f'"bias": [{_items(numbers[mid:end])}]}}'
        )
    return f'{{"format": {FORMAT}, "meta": {meta}, "layers": [{", ".join(layers)}]}}\n'


def save_fnn(fnn: Fnn, path: Union[str, Path], extra_meta: dict | None = None) -> None:
    """Write the network, and ``extra_meta`` over its record's fields, to a file.

    The file is ``json.dumps`` of the format-2 document (see the module
    docstring), with ``allow_nan=False``, and a newline, byte for byte, but
    the text is formed straight from the CSR arrays: each distinct double is
    formatted once and each index comes from a shared table, so no Python
    number is made per entry. A nan or infinity, in the layers or in
    ``extra_meta``, raises ``ValueError`` before the file is opened.
    """
    Path(path).write_text(_document_text(fnn, extra_meta))


def load_fnn(path: Union[str, Path]) -> Fnn:
    """The network in a format-2 file, read as UTF-8 and validated.

    As in :func:`.datasets.load_dataset`, the ``NaN``, ``Infinity`` and
    ``-Infinity`` extensions are malformed anywhere in the file, ``meta``
    included, so every file that loads can be saved back.
    """
    try:
        doc = json.loads(Path(path).read_bytes(), parse_constant=_no_constant)
    except ValueError as exc:  # decode errors are ValueErrors
        raise ValueError(f"malformed network file {path}: {exc}") from exc
    return network_from_document(doc)
