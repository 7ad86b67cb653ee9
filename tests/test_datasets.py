"""Packing conventions, dataset generators, and file round trips."""

import json

import numpy as np
import pytest
from conftest import dataset_document, traced
from hypothesis import given, settings
from hypothesis import strategies as st

from matvecnet import (
    Dataset,
    complex_matvec_net,
    datasets,
    equispaced_real_dataset,
    load_dataset,
    matvec_net,
    pack_complex,
    pack_matvec,
    qpsk_rayleigh_dataset,
    save_dataset,
    unpack_complex,
    unpack_matvec,
)
from matvecnet.rng import box_muller, stream
from matvecnet.datasets import _subtract_jacobian, _targets, matvec_truth
from matvecnet.verification import _uniform_rows

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


@pytest.mark.parametrize("m,n", [(1, 1), (3, 2), (2, 4)])
def test_networks_and_checks_share_the_dataset_layouts(m, n):
    D, eps = 1.0, 2.0 ** -3
    assert matvec_net(m, n, D, eps).record.input_packing == (
        equispaced_real_dataset(m, n, 1).meta["packing"])
    assert complex_matvec_net(m, n, D, eps).record.input_packing == (
        qpsk_rayleigh_dataset(m, n, 1).meta["packing"])
    # Row i of d(Wx) / d[vec(W), x] packs (x in row i of a zero matrix, W[i, :]).
    rows = _uniform_rows(9, 0, 5, n * (m + 1), 2.0)
    J = np.random.default_rng(m * 10 + n).choice([0.0, -0.0, 1.5, -0.25], (5, m, n * (m + 1)))
    expected = J.copy()
    for k, row in enumerate(rows):
        W, x = unpack_matvec(row, m, n)
        for i in range(m):
            dW = np.zeros((m, n))
            dW[i] = x
            expected[k, i] -= pack_matvec(dW, W[i])
    assert _subtract_jacobian(J, rows, m, n).tobytes() == expected.tobytes()


@pytest.mark.parametrize("m,n", [(1, 1), (3, 2), (2, 4)])
def test_the_complex_jacobian_reference_equals_the_per_row_oracle(m, n):
    # Row i of d(Re, Im) / d[vec(W1), vec(W2), x1, x2]: Re_i = W1[i] x1 - W2[i] x2
    # and Im_i = W1[i] x2 + W2[i] x1, each packed with pack_complex.
    width = 2 * n * (m + 1)
    rows = _uniform_rows(9, 0, 5, width, 2.0)
    J = np.random.default_rng(m * 10 + n).choice([0.0, -0.0, 1.5, -0.25], (5, 2 * m, width))
    expected = J.copy()
    for k, row in enumerate(rows):
        W1, W2, x1, x2 = unpack_complex(row, m, n)
        for i in range(m):
            parts = ((i, (x1, -x2, W1[i], -W2[i])), (m + i, (x2, x1, W2[i], W1[i])))
            for out, (a, b, c, d) in parts:
                dW1, dW2 = np.zeros((m, n)), np.zeros((m, n))
                dW1[i], dW2[i] = a, b
                expected[k, out] -= pack_complex(dW1, dW2, c, d)
    assert _subtract_jacobian(J, rows, m, n, complex=True).tobytes() == expected.tobytes()


@pytest.mark.parametrize("m,n", [(1, 1), (3, 2), (8, 4)])
def test_complex_targets_equal_the_four_real_products(m, n):
    rows = _uniform_rows(4, 0, 700, 2 * n * (m + 1), 3.0)
    W1, W2, x1, x2 = unpack_complex(rows, m, n)
    expected = np.hstack([matvec_truth(W1, x1) - matvec_truth(W2, x2),
                          matvec_truth(W1, x2) + matvec_truth(W2, x1)])
    assert _targets(rows, m, n, complex=True).tobytes() == expected.tobytes()
    out = np.full((700, 2 * m), np.nan)
    assert _targets(rows, m, n, True, out) is out and out.tobytes() == expected.tobytes()


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


@pytest.mark.parametrize("grid_points", [2 ** 53 + 1, 10 ** 22])
def test_equispaced_refuses_a_grid_the_uniforms_cannot_cover(grid_points):
    # above 2^53 the uniforms miss grid points; at 10^22 the grid index
    # overflowed int64 and every entry came out -h
    with pytest.raises(ValueError, match=r"grid_points must lie in \[2, 2\^53\]"):
        equispaced_real_dataset(2, 2, 5, grid_points=grid_points)


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


def test_equispaced_equals_the_oracle_at_the_largest_grid():
    ds = equispaced_real_dataset(3, 2, 9, half_width=1.0, grid_points=2 ** 53, seed=3)
    inputs, targets = equispaced_oracle(3, 2, 9, 1.0, 2 ** 53, 3)
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


def test_generation_at_the_complex_point_peaks_below_1_27_mib_above_its_result():
    qpsk_rayleigh_dataset(8, 4, 8191, clip=3.0)  # first calls allocate lasting caches
    ds, peak, kept = traced(lambda: qpsk_rayleigh_dataset(8, 4, 8191, clip=3.0))
    assert kept >= (ds.inputs.nbytes + ds.targets.nbytes) / 2 ** 20 > 5.0
    assert peak - kept <= 1.27


GENERATORS = [
    lambda: qpsk_rayleigh_dataset(8, 4, 4100, clip=3.0, seed=5),
    lambda: qpsk_rayleigh_dataset(3, 5, 2048, clip=1.0, seed=-2),
    lambda: equispaced_real_dataset(8, 4, 4100, seed=6),
    lambda: equispaced_real_dataset(2, 7, 2049, half_width=0.5, grid_points=9, seed=1),
]


@pytest.mark.parametrize("generate", GENERATORS)
def test_datasets_and_files_are_the_same_bytes_at_2048_row_blocks(
        monkeypatch, tmp_path, generate):
    ds = generate()
    save_dataset(ds, tmp_path / "new.json")
    monkeypatch.setattr(datasets, "_ROW_BLOCK", 2048)
    old = generate()
    save_dataset(old, tmp_path / "old.json")
    assert ds.inputs.tobytes() == old.inputs.tobytes()
    assert ds.targets.tobytes() == old.targets.tobytes()
    assert ds.meta == old.meta
    assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()


# ---------------------------------------------------------------- files


def test_json_round_trip_is_bit_exact(tmp_path):
    ds = qpsk_rayleigh_dataset(2, 2, 12, seed=14)
    path = tmp_path / "qpsk.json"
    save_dataset(ds, path)
    assert "\n" not in path.read_text().rstrip("\n")
    # Files written with an indented document load the same.
    indented = tmp_path / "indented.json"
    indented.write_text(json.dumps(dataset_document(ds), indent=1))
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
    expected = json.dumps(dataset_document(ds), allow_nan=False) + "\n"
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


def test_load_reads_numbers_as_before(tmp_path):
    path = tmp_path / "ds.json"
    path.write_text('{"meta": {"x": [1]}, "inputs": [[1, -0.0], [5e-324, 2]], '
                    '"targets": [[0], [3]]}')
    ds = load_dataset(path)
    assert ds.inputs.tobytes() == np.array([[1.0, -0.0], [5e-324, 2.0]]).tobytes()
    assert ds.targets.tolist() == [[0.0], [3.0]] and ds.meta == {"x": [1]}


@pytest.mark.parametrize("token", ["true", "false", "NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("where", ["inputs", "targets"])
def test_load_rejects_a_json_token_that_is_not_a_finite_number(tmp_path, token, where):
    rows = {"inputs": "[[0.25, 0.5]]", "targets": "[[1.0]]"}
    rows[where] = rows[where].replace("0.25" if where == "inputs" else "1.0", token)
    path = tmp_path / "ds.json"
    path.write_text(f'{{"meta": {{}}, "inputs": {rows["inputs"]}, "targets": {rows["targets"]}}}')
    with pytest.raises(ValueError, match="not a valid dataset file"):
        load_dataset(path)


@pytest.mark.parametrize("value", ["null", '"1.5"', "[1]", "1e400",
                                   pytest.param("1" + "0" * 400, id="10^400")])
def test_load_rejects_other_values_that_are_not_finite_numbers(tmp_path, value):
    path = tmp_path / "ds.json"
    path.write_text(f'{{"meta": {{}}, "inputs": [[{value}, 0.5]], "targets": [[1]]}}')
    with pytest.raises(ValueError, match="not a valid dataset file"):
        load_dataset(path)

