"""The batched Philox sampler against the per-index reference streams."""

import threading

import numpy as np
import pytest
from conftest import traced
from hypothesis import given, settings
from hypothesis import strategies as st

from matvecnet import rng, stream, uniform_rows
from matvecnet.datasets import _ROW_BLOCK
from matvecnet.verification import REDUCE_CHUNK


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
def test_uniform_rows_scratch_stays_near_eight_256_kib_arrays(width):
    # eight Philox arrays, numpy's 64 KiB buffers for the round-2 broadcast
    # xors and the uint64 -> float64 cast, the row-word vectors, and a few
    # KiB of counters and views; a range 8x longer needs no more
    uniform_rows(0, 0, 2, width)  # first calls allocate lasting caches
    for count in (4096, 8 * 4096):
        rows, peak, kept = traced(lambda: uniform_rows(1, 0, count, width))
        assert kept >= rows.nbytes / 2 ** 20
        assert peak - kept <= 2.3


@pytest.mark.parametrize("rows, width", [(REDUCE_CHUNK, 36), (_ROW_BLOCK, 72)])
def test_a_chunk_or_a_dataset_block_is_one_pass(monkeypatch, rows, width):
    shapes = []
    philox = rng._philox4x64

    def counted(keys, c, scratch):
        shapes.append(c[0].shape)
        return philox(keys, c, scratch)

    monkeypatch.setattr(rng, "_philox4x64", counted)
    uniform_rows(5, 3, 3 + rows, width)
    assert shapes == [(rows, width // 4)]


@pytest.mark.parametrize(
    "lo, count, width, lane",
    [
        (2 ** 64 - 4, 4, 79, 1),  # one row per pass (20 blocks against a pass of 7) at the top
        (2 ** 64 - 9, 9, 12, 7),  # several rows per pass at the top of the range
        (0, 30, 8, 2 ** 63 + 5),  # a lane beyond int64, three rows per pass
    ],
)
def test_folded_rounds_equal_the_reference(monkeypatch, lo, count, width, lane):
    monkeypatch.setattr(rng, "_BLOCKS_PER_PASS", 7)
    got = uniform_rows(11, lo, lo + count, width, lane)
    assert got.tobytes() == reference_rows(11, lo, lo + count, width, lane).tobytes()


def test_threads_drawing_interleaved_ranges_get_the_serial_bits():
    spans = [(lo, lo + 300) for lo in range(0, 6000, 300)]
    serial = {span: uniform_rows(8, *span, 36, lane=1).tobytes() for span in spans}
    drawn = {}

    def draw(mine):
        for span in mine:
            drawn[span] = uniform_rows(8, *span, 36, lane=1).tobytes()

    threads = [threading.Thread(target=draw, args=(spans[k::2],)) for k in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert drawn == serial


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
