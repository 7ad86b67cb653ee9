"""Network interchange files.

A network is stored as a single JSON document with two keys: ``meta``, a
free-form dictionary describing how the network was built (kind, sizes, the
approximation accuracy, a seed where relevant), and ``layers``, the ordered
list of ``{"weights": [[row], ...], "bias": [...]}`` objects.

Floats are written with Python's shortest round-trip decimal representation,
so reading a file back reproduces the original doubles bit for bit. NaN and
infinity are rejected on write (valid networks never contain them).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Union

from .network import Fnn, Layer, validate

__all__ = ["save_fnn", "load_fnn", "network_document", "network_from_document"]


def network_document(fnn: Fnn, extra_meta: dict | None = None) -> dict:
    """Build the plain-dict form of the interchange document."""
    meta: dict[str, Any] = {}
    if fnn.record is not None:
        meta.update(fnn.record.as_meta())
    if extra_meta:
        meta.update(extra_meta)
    layers = [
        {"weights": layer.weights.tolist(), "bias": layer.bias.tolist()}
        for layer in fnn.layers
    ]
    return {"meta": meta, "layers": layers}


def network_from_document(doc: dict) -> Fnn:
    try:
        raw_layers = doc["layers"]
    except (KeyError, TypeError):
        raise ValueError("not a network document: missing 'layers'")
    if not isinstance(raw_layers, list) or not raw_layers:
        raise ValueError("not a network document: 'layers' must be a nonempty list")
    layers = []
    for k, entry in enumerate(raw_layers, start=1):
        try:
            weights, bias = entry["weights"], entry["bias"]
        except (KeyError, TypeError):
            raise ValueError(
                f"not a network document: layer {k} needs 'weights' and 'bias'"
            ) from None
        try:
            layers.append(Layer(weights, bias))
        except TypeError:
            raise ValueError(f"not a network document: layer {k} needs numbers") from None
    meta = doc.get("meta") or {}
    if not isinstance(meta, dict):
        raise ValueError("not a network document: 'meta' must be an object")
    record = None
    if "kind" in meta:
        from .constructors import ConstructionRecord

        try:
            record = ConstructionRecord.from_meta(meta)
        except TypeError as exc:
            raise ValueError(f"not a network document: malformed 'meta': {exc}") from None
    fnn = Fnn(tuple(layers), record)
    validate(fnn)
    return fnn


def save_fnn(fnn: Fnn, path: Union[str, Path], extra_meta: dict | None = None) -> None:
    doc = network_document(fnn, extra_meta)
    text = json.dumps(doc, indent=1, allow_nan=False)
    Path(path).write_text(text)


def load_fnn(path: Union[str, Path]) -> Fnn:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed network file {path}: {exc}") from exc
    return network_from_document(doc)
