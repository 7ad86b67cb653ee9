"""The batched Philox sampler against the per-index reference streams."""

import numpy as np
import pytest
from conftest import traced
from hypothesis import given, settings
from hypothesis import strategies as st

from matvecnet import rng, stream, uniform_rows


def reference_rows(seed, lo, hi, width, lane=0):
    """Row i - lo is stream(seed, i, lane).random(width): one generator per index."""
    rows = [stream(seed, i, lane).random(width) for i in range(lo, hi)]
    return np.array(rows, dtype=np.float64).reshape(hi - lo, width)


@settings(deadline=None, max_examples=60)
@given(
    seed=st.one_of(
        st.sampled_from([0, -1, -(2 ** 63), 2 ** 64 - 1, 2 ** 64, 12345]),
        st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
    ),
    lo=st.one_of(st.integers(min_value=0, max_value=64), st.integers(min_value=0, max_value=2 ** 40)),
    count=st.integers(min_value=0, max_value=12),
    width=st.integers(min_value=1, max_value=80),
    lane=st.integers(min_value=0, max_value=100),
)
def test_uniform_rows_equal_the_reference_streams(seed, lo, count, width, lane):
    got = uniform_rows(seed, lo, lo + count, width, lane)
    assert got.shape == (count, width)
    assert got.tobytes() == reference_rows(seed, lo, lo + count, width, lane).tobytes()


@pytest.mark.parametrize("width", [1, 3, 4, 5, 36, 72, 79])
def test_uniform_rows_equal_the_reference_across_passes(monkeypatch, width):
    # A tiny pass size splits even a short range into many passes.
    monkeypatch.setattr(rng, "_BLOCKS_PER_PASS", 7)
    got = uniform_rows(3, 10, 60, width, lane=2)
    assert got.tobytes() == reference_rows(3, 10, 60, width, lane=2).tobytes()


@pytest.mark.parametrize("width", [36, 80])
def test_uniform_rows_scratch_stays_near_nine_64_kib_arrays(width):
    # eight Philox arrays, numpy's 64 KiB buffer for the uint64 -> float64
    # cast, and a few KiB of counters and views
    uniform_rows(0, 0, 2, width)  # first calls allocate lasting caches
    rows, peak, kept = traced(lambda: uniform_rows(1, 0, 4096, width))
    assert kept >= rows.nbytes / 2 ** 20
    assert peak - kept <= 0.6


def test_uniform_rows_at_the_top_of_the_index_range():
    top = 2 ** 64
    assert uniform_rows(9, top - 3, top, 6).tobytes() == reference_rows(9, top - 3, top, 6).tobytes()


def test_uniform_rows_empty_range_and_zero_width():
    assert uniform_rows(0, 5, 5, 8).shape == (0, 8)
    assert uniform_rows(0, 0, 3, 0).shape == (3, 0)


def test_uniform_rows_are_a_prefix_of_longer_rows():
    assert np.array_equal(uniform_rows(4, 0, 20, 9), uniform_rows(4, 0, 20, 30)[:, :9])


def test_uniform_rows_validates_arguments():
    with pytest.raises(ValueError):
        uniform_rows(0, -1, 3, 4)
    with pytest.raises(ValueError):
        uniform_rows(0, 3, 2, 4)
    with pytest.raises(ValueError):
        uniform_rows(0, 0, 3, 4, lane=-1)
    with pytest.raises(ValueError):
        uniform_rows(0, 0, 3, -4)
    with pytest.raises(ValueError):
        uniform_rows(0, 0, 2 ** 64 + 1, 4)
