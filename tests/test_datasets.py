"""Packing conventions, dataset generators, and file round trips."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matvecnet import (
    Dataset,
    datasets,
    equispaced_real_dataset,
    load_dataset,
    pack_complex,
    pack_matvec,
    qpsk_rayleigh_dataset,
    save_dataset,
    unpack_complex,
    unpack_matvec,
)
from matvecnet.rng import box_muller, stream

QPSK = 1.0 / np.sqrt(2.0)


def normals(gen, count):
    """`count` standard normal deviates, consuming exactly 2*ceil(count/2) uniforms."""
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    pairs = (count + 1) // 2
    if pairs == 0:
        return np.zeros(0)
    u = gen.random((2, pairs))
    z1, z2 = box_muller(u[0], u[1])
    out = np.empty(2 * pairs)
    out[0::2] = z1
    out[1::2] = z2
    return out[:count]


# ---------------------------------------------------------------- packing


def test_pack_matvec_is_column_major():
    W = np.array([[1.0, 2.0], [3.0, 4.0]])
    x = np.array([5.0, 6.0])
    assert np.array_equal(pack_matvec(W, x), np.array([1.0, 3.0, 2.0, 4.0, 5.0, 6.0]))


def test_pack_unpack_matvec_round_trip():
    rng = np.random.default_rng(2)
    W = rng.normal(size=(3, 4))
    x = rng.normal(size=4)
    W2, x2 = unpack_matvec(pack_matvec(W, x), 3, 4)
    assert np.array_equal(W, W2)
    assert np.array_equal(x, x2)


def test_unpack_takes_stacks_of_rows():
    rng = np.random.default_rng(3)
    m, n = 3, 4
    rows = rng.normal(size=(5, 2 * n * (m + 1)))
    W1, W2, x1, x2 = unpack_complex(rows, m, n)
    assert W1.shape == W2.shape == (5, m, n) and x1.shape == x2.shape == (5, n)
    for k, row in enumerate(rows):
        for stacked, single in zip((W1, W2, x1, x2), unpack_complex(row, m, n)):
            assert np.array_equal(stacked[k], single)
    W, x = unpack_matvec(rows[:, : n * (m + 1)], m, n)
    assert np.array_equal(W[2], unpack_matvec(rows[2, : n * (m + 1)], m, n)[0])


def test_pack_complex_layout_and_round_trip():
    rng = np.random.default_rng(3)
    W1, W2 = rng.normal(size=(2, 2, 3))
    x1, x2 = rng.normal(size=(2, 3))
    packed = pack_complex(W1, W2, x1, x2)
    assert packed.shape == (2 * 2 * 3 + 2 * 3,)
    assert np.array_equal(packed[:6], W1.flatten(order="F"))
    assert np.array_equal(packed[6:12], W2.flatten(order="F"))
    back = unpack_complex(packed, 2, 3)
    for got, want in zip(back, (W1, W2, x1, x2)):
        assert np.array_equal(got, want)


def test_pack_rejects_incompatible_shapes():
    with pytest.raises(ValueError):
        pack_matvec(np.eye(2), np.zeros(3))
    with pytest.raises(ValueError):
        unpack_matvec(np.zeros(5), 2, 2)
    with pytest.raises(ValueError):
        pack_complex(np.eye(2), np.eye(3), np.zeros(2), np.zeros(2))


# ---------------------------------------------------------------- dataset type


def test_dataset_validates_row_counts():
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), np.zeros((4, 1)), {})
    with pytest.raises(ValueError):
        Dataset(np.zeros(3), np.zeros((3, 1)), {})


def test_dataset_len():
    ds = Dataset(np.zeros((7, 2)), np.zeros((7, 1)), {})
    assert len(ds) == 7


# ---------------------------------------------------------------- equispaced


def test_equispaced_entries_sit_on_the_grid():
    h, g = 2.0, 1025
    ds = equispaced_real_dataset(2, 3, 40, half_width=h, grid_points=g, seed=4)
    # mapping an entry back to its grid index must land on an integer
    idx = (ds.inputs + h) / (2.0 * h) * (g - 1)
    assert np.abs(idx - np.round(idx)).max() <= 1e-9
    assert ds.inputs.min() >= -h and ds.inputs.max() <= h


def test_equispaced_two_point_grid_hits_the_corners():
    ds = equispaced_real_dataset(1, 2, 30, half_width=1.0, grid_points=2, seed=5)
    assert set(np.unique(ds.inputs)) <= {-1.0, 1.0}


def test_equispaced_targets_are_the_exact_products():
    m, n = 2, 3
    ds = equispaced_real_dataset(m, n, 25, seed=6)
    for row, target in zip(ds.inputs, ds.targets):
        W, x = unpack_matvec(row, m, n)
        assert np.array_equal(target, W @ x)


def test_equispaced_rows_depend_only_on_seed_and_index():
    a = equispaced_real_dataset(2, 2, 10, seed=7)
    b = equispaced_real_dataset(2, 2, 20, seed=7)
    assert np.array_equal(a.inputs, b.inputs[:10])
    assert np.array_equal(a.targets, b.targets[:10])


def test_equispaced_meta_records_generation():
    ds = equispaced_real_dataset(2, 2, 5, half_width=1.5, grid_points=9, seed=8)
    assert ds.meta["kind"] == "equispaced_real"
    assert ds.meta["grid_points"] == 9
    assert ds.meta["half_width"] == 1.5
    assert "column-major" in ds.meta["packing"]


def test_equispaced_validates_arguments():
    with pytest.raises(ValueError):
        equispaced_real_dataset(0, 2, 5)
    with pytest.raises(ValueError):
        equispaced_real_dataset(2, 2, 5, grid_points=1)
    with pytest.raises(ValueError):
        equispaced_real_dataset(2, 2, 5, half_width=0.0)
    for half_width in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            equispaced_real_dataset(2, 2, 5, half_width=half_width)
    # 2h overflows at 1e308; at 1e200 the entries are finite but W x is not
    for half_width in (1e308, 1e200):
        with pytest.raises(ValueError, match="half_width"):
            equispaced_real_dataset(2, 2, 5, half_width=half_width)
    ds = equispaced_real_dataset(2, 2, 5, half_width=1e150)
    assert np.all(np.isfinite(ds.inputs)) and np.all(np.isfinite(ds.targets))


# ---------------------------------------------------------------- qpsk


def test_qpsk_shapes_and_probe_row():
    m, n, count = 2, 3, 50
    ds = qpsk_rayleigh_dataset(m, n, count, seed=9)
    assert ds.inputs.shape == (count + 1, 2 * n * (m + 1))
    assert ds.targets.shape == (count + 1, 2 * m)
    # the appended probe row has the channel forced to zero
    W1, W2, x1, x2 = unpack_complex(ds.inputs[-1], m, n)
    assert np.array_equal(W1, np.zeros((m, n)))
    assert np.array_equal(W2, np.zeros((m, n)))
    assert np.all(np.abs(x1) == QPSK) and np.all(np.abs(x2) == QPSK)
    assert np.array_equal(ds.targets[-1], np.zeros(2 * m))


def test_qpsk_symbols_are_scaled_signs():
    ds = qpsk_rayleigh_dataset(2, 2, 40, seed=10)
    m, n = 2, 2
    symbol_block = ds.inputs[:, 2 * m * n:]
    assert set(np.unique(symbol_block)) <= {-QPSK, QPSK}


def test_qpsk_targets_match_complex_product():
    m, n = 2, 2
    ds = qpsk_rayleigh_dataset(m, n, 30, seed=11)
    for row, target in zip(ds.inputs, ds.targets):
        W1, W2, x1, x2 = unpack_complex(row, m, n)
        assert np.array_equal(target[:m], W1 @ x1 - W2 @ x2)
        assert np.array_equal(target[m:], W1 @ x2 + W2 @ x1)


def test_qpsk_clipping_guarantee_and_count():
    tight = qpsk_rayleigh_dataset(2, 2, 200, clip=0.5, seed=12)
    m, n = 2, 2
    channel = tight.inputs[:, : 2 * m * n]
    assert np.abs(channel).max() <= 0.5
    assert tight.meta["clipped_entries"] > 0

    loose = qpsk_rayleigh_dataset(2, 2, 200, clip=100.0, seed=12)
    assert loose.meta["clipped_entries"] == 0


def test_qpsk_rows_depend_only_on_seed_and_index():
    a = qpsk_rayleigh_dataset(2, 2, 10, seed=13)
    b = qpsk_rayleigh_dataset(2, 2, 25, seed=13)
    # all but the zero-channel probe rows coincide
    assert np.array_equal(a.inputs[:10], b.inputs[:10])
    assert np.array_equal(a.targets[:10], b.targets[:10])


def test_qpsk_validates_arguments():
    with pytest.raises(ValueError):
        qpsk_rayleigh_dataset(0, 2, 5)
    with pytest.raises(ValueError):
        qpsk_rayleigh_dataset(2, 2, 5, clip=0.0)
    for clip in (np.inf, np.nan):
        with pytest.raises(ValueError, match="clip"):
            qpsk_rayleigh_dataset(2, 2, 5, clip=clip)


# ---------------------------------------------------------------- per-row oracle
#
# The generators draw all rows of a block at once. These oracles are the
# one-generator-per-row definitions they must reproduce bit for bit.


def equispaced_oracle(m, n, count, half_width, grid_points, seed):
    h = float(half_width)
    inputs = np.empty((count, m * n + n))
    targets = np.empty((count, m))
    for i in range(count):
        u = stream(seed, i).random(m * n + n)
        j = np.clip(np.floor(u * grid_points).astype(np.int64), 0, grid_points - 1)
        row = -h + (2.0 * h) * (j / (grid_points - 1))
        inputs[i] = row
        targets[i] = row[: m * n].reshape((m, n), order="F") @ row[m * n:].copy()
    return inputs, targets


def qpsk_oracle(m, n, count, clip, seed):
    block = m * n
    inputs = np.empty((count + 1, 2 * block + 2 * n))
    targets = np.empty((count + 1, 2 * m))
    clipped = 0
    for i in range(count + 1):
        gen = stream(seed, i)
        z = normals(gen, 2 * block) * QPSK
        symbols = np.where(gen.random(2 * n) < 0.5, -QPSK, QPSK)
        if i == count:
            z = np.zeros(2 * block)
        else:
            clipped += int(np.count_nonzero(np.abs(z) > clip))
            z = np.clip(z, -clip, clip)
        W1 = z[:block].reshape((m, n), order="F")
        W2 = z[block:].reshape((m, n), order="F")
        x1, x2 = symbols[:n], symbols[n:]
        inputs[i] = pack_complex(W1, W2, x1, x2)
        targets[i, :m] = W1 @ x1 - W2 @ x2
        targets[i, m:] = W1 @ x2 + W2 @ x1
    return inputs, targets, clipped


SHAPES = [(1, 1), (1, 4), (2, 2), (3, 9), (8, 4), (16, 16)]


@pytest.mark.parametrize("m,n", SHAPES)
@pytest.mark.parametrize("count", [1, 31, 32, 50])
def test_equispaced_equals_the_per_row_oracle(monkeypatch, m, n, count):
    monkeypatch.setattr(datasets, "_ROW_BLOCK", 16)  # several blocks per call
    ds = equispaced_real_dataset(m, n, count, half_width=1.5, grid_points=33, seed=-4)
    inputs, targets = equispaced_oracle(m, n, count, 1.5, 33, -4)
    assert ds.inputs.tobytes() == inputs.tobytes()
    assert ds.targets.tobytes() == targets.tobytes()


@pytest.mark.parametrize("m,n", SHAPES)
@pytest.mark.parametrize("count", [1, 31, 32, 50])
def test_qpsk_equals_the_per_row_oracle(monkeypatch, m, n, count):
    # With 16-row blocks, count 31 puts the probe row last in a full block
    # and count 32 puts it alone in a block of its own.
    monkeypatch.setattr(datasets, "_ROW_BLOCK", 16)
    ds = qpsk_rayleigh_dataset(m, n, count, clip=1.0, seed=21)
    inputs, targets, clipped = qpsk_oracle(m, n, count, 1.0, 21)
    assert ds.inputs.tobytes() == inputs.tobytes()
    assert ds.targets.tobytes() == targets.tobytes()
    assert ds.meta["clipped_entries"] == clipped


def test_qpsk_equals_the_per_row_oracle_at_the_complex_operating_point():
    ds = qpsk_rayleigh_dataset(8, 4, 2100, clip=3.0, seed=0)
    inputs, targets, clipped = qpsk_oracle(8, 4, 2100, 3.0, 0)
    assert ds.inputs.tobytes() == inputs.tobytes()
    assert ds.targets.tobytes() == targets.tobytes()
    assert ds.meta["clipped_entries"] == clipped


# ---------------------------------------------------------------- files


def test_json_round_trip_is_bit_exact(tmp_path):
    ds = qpsk_rayleigh_dataset(2, 2, 12, seed=14)
    path = tmp_path / "qpsk.json"
    save_dataset(ds, path)
    assert "\n" not in path.read_text().rstrip("\n")
    # Files written with an indented document load the same.
    indented = tmp_path / "indented.json"
    indented.write_text(json.dumps(datasets.dataset_document(ds), indent=1))
    for back in (load_dataset(path), load_dataset(indented)):
        assert np.array_equal(back.inputs, ds.inputs)
        assert np.array_equal(back.targets, ds.targets)
        assert back.meta == ds.meta


EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
               1.7976931348623157e308, -1e300, 1e16, 0.1, -2.5, 1.0 / 3.0]


@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(0, 9),
    width=st.integers(0, 3),
    block=st.integers(1, 4),
    pool=st.lists(st.one_of(st.sampled_from(EDGE_VALUES),
                            st.floats(allow_nan=False, allow_infinity=False)), min_size=1),
)
def test_save_writes_the_documents_bytes_one_row_block_at_a_time(
        tmp_path_factory, rows, width, block, pool):
    values = np.resize(np.array(pool), rows * (width + 1))
    ds = Dataset(values[:rows * width].reshape(rows, width), values[rows * width:, None],
                 {"kind": "edge", "seed": 3, "clip": 3.0, "nested": {"a": [1, -0.0, 5e-324]}})
    path = tmp_path_factory.mktemp("ds") / "ds.json"
    saved = datasets._ROW_BLOCK
    datasets._ROW_BLOCK = block  # many blocks, and rows that end mid-block
    try:
        save_dataset(ds, path)
    finally:
        datasets._ROW_BLOCK = saved
    expected = json.dumps(datasets.dataset_document(ds), allow_nan=False) + "\n"
    assert path.read_bytes() == expected.encode()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_save_writes_nothing_for_a_nonfinite_value(tmp_path, bad):
    ds = qpsk_rayleigh_dataset(1, 1, 3, seed=1)
    targets = ds.targets.copy()
    targets[1, 0] = bad
    path = tmp_path / "ds.json"
    with pytest.raises(ValueError):
        save_dataset(Dataset(ds.inputs, targets, ds.meta), path)
    assert not path.exists()


def test_load_rejects_malformed_files(tmp_path):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    with pytest.raises(ValueError):
        load_dataset(bad_json)

    wrong_doc = tmp_path / "wrong.json"
    wrong_doc.write_text('{"layers": []}')
    with pytest.raises(ValueError):
        load_dataset(wrong_doc)
