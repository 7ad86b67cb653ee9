"""Shared helpers for the test suite."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from scipy import sparse

import matvecnet.verification as verification
from matvecnet import Dataset, Fnn, Layer, matvec_net


@pytest.fixture
def pooled(monkeypatch):
    """Run every check with ``jobs`` above 1 on its thread pool, however narrow its plan.

    A plan under ``POOL_ENTRIES`` kernel entries runs inline; with the
    constant at 0 none does, so worker-count comparisons still set the
    pool against the inline run.
    """
    monkeypatch.setattr(verification, "POOL_ENTRIES", 0)


def scipy_csr(csr) -> sparse.csr_array:
    """A scipy matrix over a layer's or kernel's CSR arrays, for scipy's ``@`` as an oracle."""
    return sparse.csr_array(csr[:3], shape=csr.shape)


def network_document(fnn: Fnn, extra_meta: dict | None = None) -> dict:
    """A network's format-2 document as plain lists: the byte oracle of ``save_fnn``.

    The file must be ``json.dumps(network_document(fnn, extra_meta),
    allow_nan=False)`` and a newline.
    """
    meta = fnn.record.as_meta() if fnn.record is not None else {}
    meta.update(extra_meta or {})
    layers = []
    for layer in fnn.layers:
        W = layer.weights
        layers.append({
            "shape": list(W.shape),
            "rows": np.repeat(np.arange(W.shape[0]), np.diff(W.indptr)).tolist(),
            "cols": W.indices.tolist(),
            "values": W.data.tolist(),
            "bias": layer.bias.tolist(),
        })
    return {"format": 2, "meta": meta, "layers": layers}


def dataset_document(ds: Dataset) -> dict:
    """A dataset's document as plain lists: ``save_dataset`` writes ``json.dumps`` of it."""
    return {"meta": dict(ds.meta), "inputs": ds.inputs.tolist(), "targets": ds.targets.tolist()}


def random_fnn(
    rng: np.random.Generator,
    n_in: int | None = None,
    depth: int | None = None,
    n_out: int | None = None,
    max_width: int = 6,
    zero_frac: float = 0.3,
) -> Fnn:
    """A small random network with a realistic share of exact-zero weights."""
    if n_in is None:
        n_in = int(rng.integers(1, max_width + 1))
    if depth is None:
        depth = int(rng.integers(1, 5))
    widths = [n_in] + [int(rng.integers(1, max_width + 1)) for _ in range(depth - 1)]
    widths.append(n_out if n_out is not None else int(rng.integers(1, max_width + 1)))
    layers = []
    for k in range(depth):
        w = rng.uniform(-2.0, 2.0, (widths[k + 1], widths[k]))
        w[rng.random(w.shape) < zero_frac] = 0.0
        b = rng.uniform(-1.0, 1.0, widths[k + 1])
        b[rng.random(b.shape) < zero_frac] = 0.0
        layers.append(Layer(w, b))
    return Fnn(tuple(layers))


def traced(call):
    """``call()``'s result, the MiB tracemalloc saw it allocate at its peak, and the MiB it kept."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, (peak - start) / 2 ** 20, (kept - start) / 2 ** 20


def kinked_matvec_net():
    """matvec_net(2, 1, 1.0, 2^-4), with a ρ(t - 1) channel recomputed on a kink.

    Rows 4 and 10 of the first layer are equal, so the second layer's row 2,
    rewired to ρ(h_4 - h_10) with no bias, has pre-activation exactly 0 at
    every input: every draw lands on a kink. On the box [-1, 1] the outputs
    keep the built network's bits.
    """
    net = matvec_net(2, 1, 1.0, 2.0 ** -4)
    first, second = net.layers[:2]
    dense = scipy_csr(first.weights).toarray()
    assert np.array_equal(dense[4], dense[10]) and first.bias[4] == first.bias[10]
    weights = scipy_csr(second.weights).toarray()
    bias = second.bias.copy()
    weights[2], bias[2] = 0.0, 0.0
    weights[2, 4], weights[2, 10] = 1.0, -1.0
    return Fnn((first, Layer(weights, bias), *net.layers[2:]), net.record)
