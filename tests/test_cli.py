"""End-to-end command-line flows against a temp directory.

Exit code contract: 0 all bounds hold, 1 a bound was violated, 2 bad usage,
malformed file or a request too large for memory, 3 I/O failure.
"""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import kinked_matvec_net

from matvecnet import (
    KINDS,
    REPORT_COLUMNS,
    affine_representation,
    complex_matvec_net,
    dataset_error_report,
    load_dataset,
    load_fnn,
    qpsk_rayleigh_dataset,
    save_fnn,
)
from matvecnet.cli import main, parse_eps


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- parse_eps


def test_parse_eps_accepts_power_of_two_literals():
    assert parse_eps("2^-5") == 2.0 ** -5
    assert parse_eps("2^3") == 8.0
    assert parse_eps(" 2^-10 ") == 2.0 ** -10


def test_parse_eps_accepts_decimals():
    assert parse_eps("0.03125") == 0.03125
    assert parse_eps("1e-3") == 1e-3


def test_parse_eps_rejects_garbage():
    with pytest.raises(ValueError):
        parse_eps("two")
    with pytest.raises(ValueError):
        parse_eps("2^")


# ---------------------------------------------------------------- build


def test_build_square_writes_network_and_reports_order(tmp_path, capsys):
    out = tmp_path / "sq.json"
    code, stdout, _ = run(
        ["build", "--kind", "square", "--eps", "2^-4", "--out", str(out)], capsys
    )
    assert code == 0
    assert out.exists()
    assert "sawtooth order" in stdout
    assert "budget" in stdout
    doc = json.loads(out.read_text())
    assert doc["meta"]["kind"] == "square"
    assert "metrics" in doc["meta"]


def test_build_rejects_out_of_range_eps(tmp_path, capsys):
    out = tmp_path / "sq.json"
    code, _, stderr = run(
        ["build", "--kind", "square", "--eps", "0.7", "--out", str(out)], capsys
    )
    assert code == 2
    assert "error:" in stderr
    assert not out.exists()


@pytest.mark.parametrize("args,message", [
    (["--kind", "dot_product", "--n", "3", "--D", "1", "--eps", "2"],
     "eps/3 must lie in (0, 1/2), since eps is split among 3 scalar products; "
     "got eps=2.0, so eps/3 = 0.6666666666666666"),
    (["--kind", "matvec", "--m", "2", "--n", "2", "--D", "1", "--eps", "5"],
     "eps/2 must lie in (0, 1/2), since eps is split among 2 scalar products; "
     "got eps=5.0, so eps/2 = 2.5"),
    (["--kind", "complex_matvec", "--m", "2", "--n", "3", "--D", "1", "--eps", "13"],
     "eps/4/3 must lie in (0, 1/2), since eps is split among 12 scalar products; "
     "got eps=13.0, so eps/4/3 = 1.0833333333333333"),
])
def test_build_eps_message_names_the_requested_eps(args, message, tmp_path, capsys):
    out = tmp_path / "x.json"
    code, _, stderr = run(["build", *args, "--out", str(out)], capsys)
    assert code == 2
    assert stderr == f"error: {message}\n"
    assert not out.exists()


def test_build_rejects_an_eps_that_overflows(tmp_path, capsys):
    out = tmp_path / "sq.json"
    code, _, stderr = run(
        ["build", "--kind", "square", "--eps", "2^99999", "--out", str(out)], capsys
    )
    assert code == 2
    assert "error:" in stderr and "--eps" in stderr
    assert not out.exists()


def test_build_requires_kind_specific_parameters(tmp_path, capsys):
    code, _, stderr = run(
        ["build", "--kind", "matvec", "--eps", "2^-4", "--out", str(tmp_path / "x.json")],
        capsys,
    )
    assert code == 2
    assert "--D is required" in stderr


@pytest.mark.parametrize("given, first_missing", [
    ([], "--eps"),
    (["--m", "2", "--n", "2"], "--eps"),
    (["--eps", "2^-4"], "--D"),
    (["--eps", "2^-4", "--m", "2", "--n", "2"], "--D"),
    (["--eps", "2^-4", "--D", "1.0", "--m", "2"], "--n"),
    (["--eps", "2^-4", "--D", "1.0", "--n", "2"], "--m"),
])
def test_build_names_the_first_missing_parameter(tmp_path, capsys, given, first_missing):
    out = tmp_path / "x.json"
    code, stdout, stderr = run(["build", "--kind", "matvec", *given, "--out", str(out)], capsys)
    assert code == 2
    assert stdout == ""
    assert stderr == f"error: {first_missing} is required to build a matvec network\n"
    assert not out.exists()


def test_build_rejects_nonfinite_or_huge_D(tmp_path, capsys):
    out = tmp_path / "x.json"
    for D in ("inf", "-inf", "nan", "1e200"):
        code, _, stderr = run(
            ["build", "--kind", "matvec", "--m", "2", "--n", "2", f"--D={D}", "--eps", "2^-4",
             "--out", str(out)],
            capsys,
        )
        assert code == 2, D
        assert "error: D" in stderr, stderr
        assert not out.exists()


OVERFLOW = ", but the weights 4^-s of an order above 511 overflow a double\n"


@pytest.mark.parametrize("args, message", [
    (["--kind", "square", "--eps", "1e-320"],
     "error: eps=1e-320 calls for sawtooth order 531" + OVERFLOW),
    (["--kind", "matvec", "--m", "1", "--n", "1", "--D", "1", "--eps", "1e-320"],
     "error: D=1.0 with eps=1e-320 calls for sawtooth order 1065" + OVERFLOW),
    (["--kind", "matvec", "--m", "1", "--n", "1", "--D", "1e-200", "--eps", "2^-4"],
     "error: D must be positive and finite with 6 D^2 > 0 in doubles, got 1e-200\n"),
])
def test_build_names_a_parameter_out_of_the_double_range(tmp_path, capsys, args, message):
    # these ended in an OverflowError or ZeroDivisionError traceback with exit 1
    out = tmp_path / "x.json"
    code, stdout, stderr = run(["build", *args, "--out", str(out)], capsys)
    assert (code, stdout, stderr) == (2, "", message)
    assert not out.exists()


def test_module_runs_from_a_source_checkout():
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "matvecnet", "--help"],
        cwd=root, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: matvecnet")


# ---------------------------------------------------------------- verify


def build_matvec(tmp_path, capsys, m=1, n=2, D="1.0", eps="2^-4"):
    out = tmp_path / "net.json"
    code, _, _ = run(
        [
            "build", "--kind", "matvec",
            "--m", str(m), "--n", str(n), "--D", D, "--eps", eps,
            "--out", str(out),
        ],
        capsys,
    )
    assert code == 0
    return out


def test_verify_matvec_passes_and_appends_row(tmp_path, capsys):
    net = build_matvec(tmp_path, capsys)
    report_csv = tmp_path / "reports.csv"
    code, stdout, _ = run(
        [
            "verify", str(net),
            "--samples", "400", "--seed", "3", "--out", str(report_csv),
        ],
        capsys,
    )
    assert code == 0
    assert "verdict: ok" in stdout
    with open(report_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "kind"
    assert len(rows) == 2
    assert rows[1][0] == "matvec"


def test_verify_rows_are_identical_across_worker_counts(tmp_path, capsys):
    net = build_matvec(tmp_path, capsys)
    rows = []
    for jobs in ("1", "4"):
        out = tmp_path / f"report_{jobs}.csv"
        code, _, _ = run(
            [
                "verify", str(net),
                "--samples", "3000", "--seed", "5", "--jobs", jobs,
                "--out", str(out),
            ],
            capsys,
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows.append(list(csv.reader(fh))[1])
    assert rows[0] == rows[1]


def test_verify_sobolev_adds_gradient_column(tmp_path, capsys):
    net = build_matvec(tmp_path, capsys)
    out = tmp_path / "sob.csv"
    code, stdout, _ = run(
        [
            "verify", str(net),
            "--samples", "40", "--seed", "7", "--sobolev", "--out", str(out),
        ],
        capsys,
    )
    assert code == 0
    assert "grad_sup" in stdout
    with open(out, newline="") as fh:
        header, row = list(csv.reader(fh))
    grad_cell = row[header.index("grad_sup_error")]
    assert grad_cell != ""
    assert float(grad_cell) <= 2.0 ** -4


def test_verify_square_uses_the_dyadic_grid(tmp_path, capsys):
    out = tmp_path / "sq.json"
    run(["build", "--kind", "square", "--eps", "2^-6", "--out", str(out)], capsys)
    code, stdout, _ = run(
        ["verify", str(out), "--out", str(tmp_path / "r.csv")], capsys
    )
    assert code == 0
    assert "verdict: ok" in stdout


def test_verify_square_rejects_sobolev_flag(tmp_path, capsys):
    out = tmp_path / "sq.json"
    run(["build", "--kind", "square", "--eps", "2^-6", "--out", str(out)], capsys)
    code, _, stderr = run(
        ["verify", str(out), "--sobolev", "--out", str(tmp_path / "r.csv")], capsys
    )
    assert code == 2
    assert "sobolev" in stderr


def test_verify_catches_a_tampered_network(tmp_path, capsys):
    out = tmp_path / "sq.json"
    run(["build", "--kind", "square", "--eps", "2^-6", "--out", str(out)], capsys)
    doc = json.loads(out.read_text())
    del doc["layers"][1]  # drop the first sawtooth transition
    out.write_text(json.dumps(doc))
    code, stdout, _ = run(
        ["verify", str(out), "--out", str(tmp_path / "r.csv")], capsys
    )
    assert code == 1
    assert "BOUND VIOLATED" in stdout


def test_verify_square_with_a_wider_input_names_the_mismatch(tmp_path, capsys):
    out = tmp_path / "sq.json"
    run(["build", "--kind", "square", "--eps", "2^-6", "--out", str(out)], capsys)
    doc = json.loads(out.read_text())
    doc["layers"][0]["shape"] = [4, 2]
    out.write_text(json.dumps(doc))
    code, stdout, stderr = run(["verify", str(out), "--out", str(tmp_path / "r.csv")], capsys)
    assert (code, stdout) == (2, "")
    assert stderr == "error: dimension mismatch: dataset is 1 -> 1, network is 2 -> 1\n"


def test_verify_complex_with_a_record_other_than_its_layers_exits_2(tmp_path, capsys):
    out = tmp_path / "cx.json"
    run(["build", "--kind", "complex_matvec", "--m", "1", "--n", "2", "--D", "1.5",
         "--eps", "2^-4", "--out", str(out)], capsys)
    doc = json.loads(out.read_text())
    doc["meta"]["m"] = 2
    out.write_text(json.dumps(doc))
    code, stdout, stderr = run(["verify", str(out), "--out", str(tmp_path / "r.csv")], capsys)
    assert (code, stdout) == (2, "")
    assert stderr == "error: dimension mismatch: dataset is 12 -> 4, network is 8 -> 2\n"


def test_verify_sobolev_with_every_sample_on_a_kink_exits_2(tmp_path, capsys):
    path = tmp_path / "kinked.json"
    save_fnn(kinked_matvec_net(), path)
    code, stdout, stderr = run(
        ["verify", str(path), "--samples", "2000", "--sobolev", "--out", str(tmp_path / "r.csv")],
        capsys,
    )
    assert (code, stdout) == (2, "")
    assert stderr == (
        "error: all 2000 samples were skipped on kinks: no derivative checked\n"
    )


def test_verify_writes_the_header_into_an_empty_report_file(tmp_path, capsys):
    net = build_matvec(tmp_path, capsys)
    report_csv = tmp_path / "r.csv"
    report_csv.write_text("")
    code, _, _ = run(["verify", str(net), "--samples", "10", "--out", str(report_csv)], capsys)
    assert code == 0
    with open(report_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == VERIFY_HEADER.split(",")
    assert len(rows) == 2 and rows[1][0] == "matvec"


def test_verify_names_a_record_D_that_overflows_the_depth_bound(tmp_path, capsys):
    # used to print the budget's field name, "depth_bound must be finite"
    net = build_matvec(tmp_path, capsys, m=1, n=1)
    doc = json.loads(net.read_text())
    doc["meta"]["D"] = 1e308
    net.write_text(json.dumps(doc))
    out = tmp_path / "r.csv"
    code, stdout, stderr = run(["verify", str(net), "--samples", "10", "--out", str(out)], capsys)
    assert (code, stdout) == (2, "")
    assert stderr == (
        "error: D=1e+308 and eps=0.0625: f n D^2 / eps = inf is not a positive finite double, "
        "so the depth bound C * log2(f n D^2 / eps) is not finite\n"
    )
    assert not out.exists()


def test_verify_missing_file_is_a_usage_error(tmp_path, capsys):
    code, _, stderr = run(
        ["verify", str(tmp_path / "nope.json"), "--out", str(tmp_path / "r.csv")],
        capsys,
    )
    assert code == 2
    assert "error:" in stderr


@pytest.mark.parametrize("jobs", ["0", "-3", "two"])
def test_verify_rejects_a_worker_count_below_one(tmp_path, capsys, jobs):
    net = build_matvec(tmp_path, capsys)
    out = tmp_path / "r.csv"
    code, _, stderr = run(
        ["verify", str(net), "--samples", "10", "--jobs", jobs, "--out", str(out)], capsys
    )
    assert code == 2
    assert "--jobs" in stderr
    assert not out.exists()


@pytest.mark.parametrize("kind", ["square", "matvec"])
@pytest.mark.parametrize("samples", ["0", "-1", "two"])
def test_verify_rejects_a_sample_count_below_one(tmp_path, capsys, kind, samples):
    if kind == "square":
        net = tmp_path / "sq.json"
        run(["build", "--kind", "square", "--eps", "2^-6", "--out", str(net)], capsys)
    else:
        net = build_matvec(tmp_path, capsys)
    out = tmp_path / "r.csv"
    code, _, stderr = run(["verify", str(net), "--samples", samples, "--out", str(out)], capsys)
    assert code == 2
    assert "--samples" in stderr
    assert not out.exists()


@pytest.mark.parametrize("command", ["build", "verify"])
@pytest.mark.parametrize("C", ["0", "-1", "nan", "inf", "1e308"])
def test_a_bad_depth_constant_is_reported_under_its_option(tmp_path, capsys, command, C):
    net = build_matvec(tmp_path, capsys)
    built, out = tmp_path / "sq.json", tmp_path / "r.csv"
    argv = {
        "build": ["build", "--kind", "square", "--eps", "2^-4", "--out", str(built)],
        "verify": ["verify", str(net), "--samples", "10", "--out", str(out)],
    }[command]
    code, stdout, stderr = run(argv + ["--C", C], capsys)
    assert (code, stdout) == (2, "")
    assert stderr.splitlines()[-1] == (
        f"matvecnet {command}: error: argument --C: must be positive and at most 1.672e+305, "
        f"so that the depth bound C * log2(...) is finite; got '{C}'"
    )
    assert not built.exists() and not out.exists()


def _malformed_documents():
    """Format-2 documents that are refused, each with the reason it is refused for."""
    good = {"shape": [1, 1], "rows": [0], "cols": [0], "values": [1.0], "bias": [0.0]}
    meta = {"kind": "square", "eps": 0.25}
    cases = [
        ({"values": {"a": 1}}, "layer 1 needs lists of coordinates"),
        ({"bias": {"a": 1}}, "layer 1 'bias' needs one entry per row"),
        ({"values": ["1.5"], "bias": ["2"]}, "layer 1 needs numbers"),
        ({"values": [True], "bias": [False]}, "layer 1 needs numbers"),
        ({"values": [10 ** 400]}, "layer 1 needs numbers"),
    ]
    docs = [({"format": 2, "meta": meta, "layers": [{**good, **change}]}, reason)
            for change, reason in cases]
    docs.append(({"format": 2, "meta": ["kind"], "layers": [good]}, "'meta' must be an object"))
    docs.append(({"format": 2, "meta": "kind", "layers": [good]}, "'meta' must be an object"))
    for field in ("m", "n", "D", "eps", "sawtooth_order"):
        for bad in ([1], {"a": 1}):
            docs.append(({"format": 2, "meta": {**meta, field: bad}, "layers": [good]},
                         f"malformed 'meta': '{field}'"))
    return docs


MALFORMED = _malformed_documents()


@pytest.mark.parametrize("doc, reason", MALFORMED, ids=[f"doc{i}" for i in range(len(MALFORMED))])
def test_verify_malformed_network_file_is_a_usage_error(tmp_path, capsys, doc, reason):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code, _, stderr = run(["verify", str(path), "--out", str(tmp_path / "r.csv")], capsys)
    assert code == 2
    assert stderr.startswith(f"error: not a network document: {reason}")
    assert len(stderr.splitlines()) == 1


@pytest.mark.parametrize("where, token", [
    ('"D": 1.0', '"D": NaN'),  # loaded, and then could not be saved back
    ('"values": [1.0', '"values": [Infinity'),
    ('"bias": [0.0', '"bias": [-Infinity'),
], ids=["nan-in-meta", "infinity-in-values", "minus-infinity-in-bias"])
def test_verify_network_file_with_a_nonfinite_token_is_a_usage_error(tmp_path, capsys, where, token):
    path = build_matvec(tmp_path, capsys)
    text = path.read_text()
    assert where in text
    path.write_text(text.replace(where, token, 1))
    code, stdout, stderr = run(["verify", str(path), "--out", str(tmp_path / "r.csv")], capsys)
    assert (code, stdout) == (2, "")
    assert stderr == (f"error: malformed network file {path}: "
                      f"{token.split()[-1].lstrip('[')} is not a JSON number\n")
    with pytest.raises(ValueError, match="malformed network file"):
        load_fnn(path)


@pytest.mark.parametrize("where, value, message", [
    ('"m": 1', str(10 ** 400), "'m' must be a count below 2^63"),
    ('"n": 2', str(10 ** 400), "'n' must be a count below 2^63"),
    ('"sawtooth_order": 6', str(2 ** 63), "'sawtooth_order' must be a count below 2^63"),
    ('"D": 1.0', "1e400", "'D' must be a finite double"),  # json reads it as inf
    ('"eps": 0.0625', "1e400", "'eps' must be a finite double"),
], ids=["m", "n", "sawtooth_order", "D", "eps"])
def test_verify_network_file_with_a_meta_number_out_of_range_is_a_usage_error(
        tmp_path, capsys, where, value, message):
    path = build_matvec(tmp_path, capsys)
    text = path.read_text()
    assert where in text
    path.write_text(text.replace(where, f"{where.split(':')[0]}: {value}", 1))
    out = tmp_path / "r.csv"
    code, stdout, stderr = run(["verify", str(path), "--out", str(out)], capsys)
    assert (code, stdout) == (2, "")
    assert stderr == f"error: not a network document: malformed 'meta': {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("layer", [
    {"bias": [0.0]},
    {"shape": [1, 1], "rows": [0], "cols": [0], "values": [1.0]},
    [1.0],
])
def test_verify_network_with_an_incomplete_layer_is_a_usage_error(tmp_path, capsys, layer):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"format": 2, "layers": [layer]}))
    code, _, stderr = run(["verify", str(path), "--out", str(tmp_path / "r.csv")], capsys)
    assert code == 2
    assert stderr.startswith("error: not a network document: layer 1 needs 'shape', 'rows'")
    assert len(stderr.splitlines()) == 1


def in_the_c_locale(tmp_path, *args):
    """Run python with args in the C locale, where the default text encoding is ASCII."""
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src"),
           "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    return subprocess.run([sys.executable, *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)


def unicode_files(tmp_path, name, doc):
    """The document with "café" in its meta, as UTF-8 and as Latin-1 bytes."""
    text = json.dumps({**doc, "meta": {**doc["meta"], "note": "café"}}, ensure_ascii=False)
    good, bad = tmp_path / f"{name}.json", tmp_path / f"{name}-latin1.json"
    good.write_bytes(text.encode("utf-8"))
    bad.write_bytes(text.encode("latin-1"))
    return good, bad


def test_network_files_are_read_as_utf8_in_any_locale(tmp_path, capsys):
    # RFC 8259 8.1; this read failed with the ASCII codec's message in the C locale
    built = json.loads(build_matvec(tmp_path, capsys).read_text())
    good, bad = unicode_files(tmp_path, "net", built)
    proc = in_the_c_locale(tmp_path, "-m", "matvecnet", "verify", good.name, "--samples", "100")
    assert proc.returncode == 0, proc.stderr
    assert "verdict: ok" in proc.stdout
    proc = in_the_c_locale(tmp_path, "-m", "matvecnet", "verify", bad.name, "--samples", "100")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith(f"error: malformed network file {bad.name}: ")
    assert len(proc.stderr.splitlines()) == 1


def test_dataset_files_are_read_as_utf8_in_any_locale(tmp_path):
    ds = qpsk_rayleigh_dataset(1, 2, 3, seed=4)
    doc = {"meta": dict(ds.meta), "inputs": ds.inputs.tolist(), "targets": ds.targets.tolist()}
    good, bad = unicode_files(tmp_path, "data", doc)
    program = """import sys
from matvecnet import load_dataset
try:
    print(ascii(load_dataset(sys.argv[1]).meta["note"]))
except ValueError as exc:
    print(exc)
"""
    proc = in_the_c_locale(tmp_path, "-c", program, good.name)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "'caf\\xe9'\n", "")
    proc = in_the_c_locale(tmp_path, "-c", program, bad.name)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(f"not a valid dataset file: {bad.name}: ")


def test_verify_complex_runs_on_clipped_channel_data(tmp_path, capsys):
    out = tmp_path / "cx.json"
    code, _, _ = run(
        [
            "build", "--kind", "complex_matvec",
            "--m", "1", "--n", "2", "--D", "1.5", "--eps", "2^-4",
            "--out", str(out),
        ],
        capsys,
    )
    assert code == 0
    code, stdout, _ = run(
        [
            "verify", str(out),
            "--samples", "300", "--seed", "11", "--out", str(tmp_path / "r.csv"),
        ],
        capsys,
    )
    assert code == 0
    assert "verdict: ok" in stdout


@pytest.mark.parametrize(
    "kind", [kind for kind, entry in KINDS.items() if entry.builder is not None]
)
def test_every_buildable_kind_builds_and_verifies(tmp_path, capsys, kind):
    small = {"m": "2", "n": "2", "D": "1.0", "eps": "2^-4"}
    options = [arg for name in KINDS[kind].params for arg in (f"--{name}", small[name])]
    out = tmp_path / f"{kind}.json"
    code, built, _ = run(["build", "--kind", kind, *options, "--out", str(out)], capsys)
    assert code == 0
    code, verified, _ = run(
        ["verify", str(out), "--samples", "200", "--out", str(tmp_path / "r.csv")], capsys
    )
    assert code == 0
    assert "verdict: ok" in verified
    # build and verify print their size summaries through the same formatter
    for prefix in ("metrics: ", "budget: "):
        line = [ln for ln in built.splitlines() if ln.startswith(prefix)]
        assert len(line) == 1 and line[0] in verified.splitlines()


VERIFY_HEADER = (
    "kind,m,n,D,eps,samples,seed,sup_error,mse,grad_sup_error,"
    "L,M,N,W,B,depth_ok,width_ok,weight_ok"
)

# Each kind built with m=2, n=2, D=1.5, eps=2^-4 where it takes them, then
# verified with --samples 2500 --seed 3; None marks a refused --sobolev.
VERIFY_ROWS = {
    ("square", False):
        "square,,,,0.0625,16385,3,0.0625,0.00208320618451836,,2,10,6,4,1.0,pass,pass,pass",
    ("square", True): None,
    ("scalar_product", False):
        "scalar_product,,,1.5,0.0625,2500,3,0.0005440530402046617,5.43024857970475e-08,,"
        "9,278,84,12,4.5,pass,pass,pass",
    ("scalar_product", True):
        "scalar_product,,,1.5,0.0625,2500,3,0.0005440530402046617,5.43024857970475e-08,"
        "0.04616664944149651,9,278,84,12,4.5,pass,pass,pass",
    ("dot_product", False):
        "dot_product,,2,1.5,0.0625,2500,3,0.00025797410868222403,1.1585162277398297e-08,,"
        "10,646,191,24,4.5,pass,pass,pass",
    ("dot_product", True):
        "dot_product,,2,1.5,0.0625,2500,3,0.00025797410868222403,1.1585162277398297e-08,"
        "0.023137947316941965,10,646,191,24,4.5,pass,pass,pass",
    ("matvec", False):
        "matvec,2,2,1.5,0.0625,2500,3,0.0002650232185181789,1.0989884242808894e-08,,"
        "10,1292,380,48,4.5,pass,pass,pass",
    ("matvec", True):
        "matvec,2,2,1.5,0.0625,2500,3,0.0002650232185181789,1.0989884242808894e-08,"
        "0.023298051087211613,10,1292,380,48,4.5,pass,pass,pass",
    ("complex_matvec", False):
        "complex_matvec,2,2,1.5,0.0625,2501,3,2.8690224417760035e-05,1.2272549903571843e-10,,"
        "12,6608,1888,192,4.5,pass,pass,pass",
    ("complex_matvec", True): None,
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("kind, sobolev", list(VERIFY_ROWS))
def test_verify_rows_match_the_recorded_rows(tmp_path, capsys, kind, sobolev, jobs):
    small = {"m": "2", "n": "2", "D": "1.5", "eps": "2^-4"}
    options = [arg for name in KINDS[kind].params for arg in (f"--{name}", small[name])]
    net = tmp_path / f"{kind}.json"
    assert run(["build", "--kind", kind, *options, "--out", str(net)], capsys)[0] == 0
    out = tmp_path / "r.csv"
    code, stdout, stderr = run(
        ["verify", str(net), "--samples", "2500", "--seed", "3", "--jobs", jobs,
         *(["--sobolev"] if sobolev else []), "--out", str(out)],
        capsys,
    )
    row = VERIFY_ROWS[kind, sobolev]
    if row is None:
        assert (code, stdout) == (2, "")
        assert stderr == "error: --sobolev applies to matvec-packed networks only\n"
        assert not out.exists()
    else:
        assert (code, stderr) == (0, "")
        assert stdout.endswith("verdict: ok (eps=0.0625)\n")
        assert out.read_bytes() == f"{VERIFY_HEADER}\r\n{row}\r\n".encode()


# Per buildable kind, built and verified as for VERIFY_ROWS (with --jobs 1):
# the stdout lines of build, verify and verify --sobolev (None where it is
# refused), "{out}" standing for the file's path, and the file's meta block.
GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())


@pytest.mark.parametrize(
    "kind", [kind for kind, entry in KINDS.items() if entry.builder is not None]
)
def test_cli_output_and_meta_match_the_recorded_ones(tmp_path, capsys, kind):
    golden = GOLDEN[kind]
    small = {"m": "2", "n": "2", "D": "1.5", "eps": "2^-4"}
    options = [arg for name in KINDS[kind].params for arg in (f"--{name}", small[name])]
    net = tmp_path / f"{kind}.json"

    def lines(stdout):
        return stdout.replace(str(net), "{out}").split("\n")

    code, stdout, stderr = run(["build", "--kind", kind, *options, "--out", str(net)], capsys)
    assert (code, lines(stdout), stderr) == (0, [*golden["build"], ""], "")
    meta = json.loads(net.read_text())["meta"]
    assert json.dumps(meta) == json.dumps(golden["meta"])
    verify = ["verify", str(net), "--samples", "2500", "--seed", "3", "--out", str(tmp_path / "r.csv")]
    for flags, recorded in (([], golden["verify"]), (["--sobolev"], golden["sobolev"])):
        code, stdout, stderr = run([*verify, *flags], capsys)
        if recorded is None:
            assert (code, stdout) == (2, "")
            assert stderr == "error: --sobolev applies to matvec-packed networks only\n"
        else:
            assert (code, lines(stdout), stderr) == (0, [*recorded, ""], "")


def test_verify_rejects_an_affine_network(tmp_path, capsys):
    path = tmp_path / "affine.json"
    save_fnn(affine_representation(np.array([[1.0, 2.0]]), 1), path)
    code, stdout, stderr = run(["verify", str(path), "--out", str(tmp_path / "r.csv")], capsys)
    assert code == 2
    assert stdout == ""
    assert len(stderr.splitlines()) == 1 and stderr.startswith("error:")
    assert not (tmp_path / "r.csv").exists()


# ---------------------------------------------------------------- data


def test_data_qpsk_writes_expected_columns(tmp_path, capsys):
    out = tmp_path / "qpsk.json"
    code, stdout, _ = run(
        [
            "data", "--kind", "qpsk",
            "--m", "2", "--n", "2", "--count", "25", "--out", str(out),
        ],
        capsys,
    )
    assert code == 0
    assert "clipped entries" in stdout
    doc = json.loads(out.read_text())
    m, n = 2, 2
    assert np.shape(doc["inputs"]) == (25 + 1, 2 * n * (m + 1))  # samples + probe row
    assert np.shape(doc["targets"]) == (25 + 1, 2 * m)


def test_data_file_gives_the_report_of_the_dataset(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, stdout, _ = run(
        ["data", "--kind", "qpsk", "--m", "2", "--n", "2", "--count", "30", "--seed", "4",
         "--clip", "1.5"],
        capsys,
    )
    assert code == 0
    assert stdout.startswith("wrote qpsk.json\n")
    net = complex_matvec_net(2, 2, 1.5, 2.0 ** -4)
    ds = qpsk_rayleigh_dataset(2, 2, 30, clip=1.5, seed=4)
    assert dataset_error_report(net, load_dataset("qpsk.json")) == dataset_error_report(net, ds)


def test_data_equispaced_json_output(tmp_path, capsys):
    out = tmp_path / "grid.json"
    code, _, _ = run(
        [
            "data", "--kind", "equispaced",
            "--m", "1", "--n", "2", "--count", "10",
            "--half-width", "1.0", "--grid-points", "5", "--out", str(out),
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["meta"]["kind"] == "equispaced_real"
    assert len(doc["inputs"]) == 10
    entries = np.asarray(doc["inputs"])
    assert np.all(np.isin(entries, np.linspace(-1.0, 1.0, 5)))


@pytest.mark.parametrize("half_width", ["inf", "-inf", "nan", "1e308", "1e200"])
def test_data_rejects_a_non_finite_half_width(tmp_path, capsys, half_width):
    out = tmp_path / "grid.json"
    code, _, err = run(
        [
            "data", "--kind", "equispaced", "--m", "1", "--n", "2", "--count", "3",
            f"--half-width={half_width}", "--out", str(out),
        ],
        capsys,
    )
    assert code == 2
    assert err.startswith("error:") and "half_width" in err
    assert not out.exists()


@pytest.mark.parametrize("grid_points", ["1", "9007199254740993", "10000000000000000000000"])
def test_data_rejects_a_grid_outside_2_to_2_pow_53(tmp_path, capsys, grid_points):
    out = tmp_path / "grid.json"
    code, stdout, err = run(
        [
            "data", "--kind", "equispaced", "--m", "1", "--n", "2", "--count", "3",
            "--grid-points", grid_points, "--out", str(out),
        ],
        capsys,
    )
    assert code == 2
    assert stdout == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:") and "grid_points" in err
    assert not out.exists()


@pytest.mark.parametrize("suffix", [".csv", ".json"])
def test_data_rejects_an_infinite_clip(tmp_path, capsys, suffix):
    out = tmp_path / f"q{suffix}"
    code, stdout, err = run(
        [
            "data", "--kind", "qpsk", "--m", "1", "--n", "2", "--count", "3",
            "--clip", "inf", "--out", str(out),
        ],
        capsys,
    )
    assert code == 2
    assert stdout == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:") and "clip" in err
    assert not out.exists()


def test_data_too_large_for_memory_exits_2(tmp_path, capsys, monkeypatch):
    import matvecnet.cli as cli

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "equispaced_real_dataset", exhausted)
    code, stdout, err = run(
        [
            "data", "--kind", "equispaced", "--m", "3000000", "--n", "3000", "--count", "1",
            "--out", str(tmp_path / "big.json"),
        ],
        capsys,
    )
    assert code == 2
    assert stdout == ""
    assert err.count("\n") == 1 and err.startswith("error:") and "too large" in err


# ---------------------------------------------------------------- report


def test_report_tabulates_verify_rows(tmp_path, capsys):
    net = build_matvec(tmp_path, capsys)
    report_csv = tmp_path / "rows.csv"
    for seed in ("1", "2"):
        run(
            [
                "verify", str(net),
                "--samples", "100", "--seed", seed, "--out", str(report_csv),
            ],
            capsys,
        )
    code, stdout, _ = run(["report", str(report_csv)], capsys)
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0].startswith("kind")
    assert sum(1 for line in lines if line.startswith("matvec")) == 2


def test_report_expands_globs(tmp_path, capsys):
    net = build_matvec(tmp_path, capsys)
    for name in ("a.csv", "b.csv"):
        run(
            [
                "verify", str(net),
                "--samples", "50", "--seed", "1", "--out", str(tmp_path / name),
            ],
            capsys,
        )
    code, stdout, _ = run(["report", str(tmp_path / "*.csv")], capsys)
    assert code == 0
    assert sum(1 for line in stdout.splitlines() if line.startswith("matvec")) == 2


def test_report_with_no_inputs_is_a_usage_error(capsys):
    code, _, stderr = run(["report"], capsys)
    assert code == 2
    assert "no report files" in stderr


def test_report_missing_file_is_an_io_error(tmp_path, capsys):
    code, _, stderr = run(["report", str(tmp_path / "absent.csv")], capsys)
    assert code == 3
    assert "i/o error" in stderr


@pytest.mark.parametrize("line", ["a,b", "1,2", ",".join(["x"] * 19)])
def test_report_refuses_a_row_that_is_no_verify_row(tmp_path, capsys, line):
    net = build_matvec(tmp_path, capsys)
    rows = tmp_path / "rows.csv"
    run(["verify", str(net), "--samples", "50", "--out", str(rows)], capsys)
    # a header, a verify row and a blank line, then the stray row on line 4
    with open(rows, "a") as fh:
        fh.write("\n" + line + "\n")
    code, stdout, stderr = run(["report", str(tmp_path / "*.csv")], capsys)
    assert (code, stdout) == (2, "")
    cells = len(line.split(","))
    assert stderr == (f"error: {rows}, line 4: {cells} cells, where a verify report row "
                      f"has {len(REPORT_COLUMNS)}\n")


# ---------------------------------------------------------------- plumbing


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_unknown_argument_is_a_usage_error(capsys):
    assert main(["build", "--kind", "square", "--frequency", "9"]) == 2
    capsys.readouterr()
