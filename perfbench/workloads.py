"""One benchmark workload of matvecnet, run in a process of its own.

``run.py`` starts this script once per untraced or traced run:

    python3 perfbench/workloads.py --workload real_sup --seed 0 --seconds 5 \\
        --trace 0 --workdir DIR --out result.json

It runs rounds in a closed loop (one client; each operation starts when the
previous one ended) until ``--seconds`` have passed and at least
``MIN_ROUNDS`` rounds are done. A round sets the network up and then runs one
verification call per worker count. After every operation it checks the
result against the paper's guarantees. With ``--trace 1`` set-ups are traced
with the spans of :mod:`tracer`, a round runs one traced and one untraced
``jobs=1`` call, and the activation census is taken outside the timed
regions. The result, timings and check outcomes go to ``--out`` as JSON.

Workloads:

* ``real_sup``: ``matvecnet build`` and ``matvecnet verify --jobs 1/2`` of
  matvec(8,4,D=2,eps=2^-5) through ``cli.main``, the README's command-line
  flow and the only workload that saves and loads a network file. Most of
  its time goes to per-row random streams; its CSR weights fit in L2.
* ``complex_qpsk``: complex_matvec(8,4,D=3,eps=2^-5) through the library:
  ``qpsk_rayleigh_dataset(clip=3)`` and ``dataset_error_report``. Batched
  evaluation of a wide network (W=1536) whose activations do not fit in L2.
  Complex verification has no worker count (the CLI ignores ``--jobs`` for
  it), so its ``jobs=2`` rounds time the same call.
* ``small_sobolev``: ``sobolev_error_matvec`` on matvec(2,2,D=1,eps=2^-4).
  The per-vector network path in a Python loop; ``evaluate_batch`` is never
  called, so batched-evaluation gains must leave it unchanged.
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import io
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
from scipy import sparse

import matvecnet as mv
from matvecnet import cli

from tracer import Tracer, delta

MIN_ROUNDS = 3
CENSUS_ROWS = 1024
# The verifiers reduce samples in chunks of this many rows; the loaded network
# is compared with the built one on the first chunk.
FIRST_CHUNK = 2048
SINGLE_PATH = ("network.evaluate", "network.preactivations", "network.jacobian")


class Checks:
    """Correctness checks attempted in a run, and a description of each miss."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def box_rows(seed: int, count: int, width: int, D: float) -> np.ndarray:
    """Rows 0..count-1 of the uniform box samples the verifiers draw from ``stream(seed, i)``."""
    return np.array([mv.stream(seed, i).random(width) * (2.0 * D) - D for i in range(count)])


def zero_factor_rows(m: int, n: int, D: float) -> np.ndarray:
    """Packed inputs with W = 0 (x at +D) and with x = 0 (W at +D)."""
    return np.vstack([
        mv.pack_matvec(np.zeros((m, n)), np.full(n, D)),
        mv.pack_matvec(np.full((m, n), D), np.zeros(n)),
    ])


def stored_mib(net) -> float:
    """MiB of the arrays, dense or scipy-sparse, held in the fields of the network's layers."""
    total = 0
    for layer in net.layers:
        for value in vars(layer).values():
            parts = [getattr(value, a, None) for a in ("data", "indices", "indptr", "row", "col")]
            arrays = parts if sparse.issparse(value) else [value]
            total += sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))
    return total / 2**20


def describe(net) -> dict:
    """Size and identity of a network, through its public interface only.

    The fingerprint hashes the outputs on fixed inputs and the five size
    measures, so it does not depend on how layers store their weights.
    """
    got = mv.metrics(net)
    fixed = np.sin(np.arange(64.0 * net.input_dim)).reshape(64, net.input_dim)
    digest = hashlib.sha256(np.concatenate([mv.evaluate(net, row) for row in fixed]).tobytes())
    digest.update(repr(got).encode())
    return {
        "fingerprint": digest.hexdigest(),
        "depth": got.depth,
        "max_width": got.max_width,
        "hidden_and_output_width": sum(net.widths[1:]),
        "nnz": got.connectivity,
        "dense_mib": stored_mib(net),
    }


def csv_line(cells: list[str]) -> str:
    buffer = io.StringIO()
    csv.writer(buffer).writerow(cells)
    return buffer.getvalue().rstrip("\r\n")


class RealSup:
    m, n, D, eps = 8, 4, 2.0, 2.0 ** -5
    jobs = (1, 2)
    setups_per_round = 1

    def __init__(self, seed: int, workdir: Path, tiny: bool):
        self.seed = seed
        self.workdir = workdir
        self.samples = 4096 if tiny else 16384
        self.path = workdir / "matvec.json"
        self.calls = 0
        self.first_chunk = box_rows(seed, FIRST_CHUNK, self.n * (self.m + 1), self.D)
        self.census_inputs = self.first_chunk[:CENSUS_ROWS]

    def setup(self):
        self.build_rc = cli.main([
            "build", "--kind", "matvec", "--m", "8", "--n", "4", "--D", "2",
            "--eps", "2^-5", "--out", str(self.path),
        ])
        return mv.load_fnn(self.path)

    def check_setup(self, net, checks: Checks) -> None:
        checks.expect(self.build_rc == 0, f"build exited {self.build_rc}")
        built = mv.matvec_net(self.m, self.n, self.D, self.eps)
        checks.expect(
            mv.evaluate_batch(built, self.first_chunk).tobytes()
            == mv.evaluate_batch(net, self.first_chunk).tobytes(),
            "loaded network differs from the built network on the first chunk",
        )
        zeros = mv.evaluate_batch(net, zero_factor_rows(self.m, self.n, self.D))
        checks.expect(bool(np.all(zeros == 0.0)), "zero-factor probe is not exactly 0.0")

    def verify(self, net, jobs: int):
        self.calls += 1
        out = self.workdir / f"report{self.calls}.csv"
        rc = cli.main([
            "verify", str(self.path), "--samples", str(self.samples),
            "--seed", str(self.seed), "--jobs", str(jobs), "--out", str(out),
        ])
        return rc, out

    def judge(self, net, result, checks: Checks) -> tuple[str, int]:
        rc, out = result
        header, line = out.read_text().splitlines()
        out.unlink()
        cells = dict(zip(header.split(","), next(csv.reader([line]))))
        holds = (
            rc == 0
            and float(cells["sup_error"]) <= self.eps
            and all(cells[flag] == "pass" for flag in ("depth_ok", "width_ok", "weight_ok"))
        )
        checks.expect(holds, f"verify exited {rc}: {line}")
        return line, int(cells["samples"])


class ComplexQpsk:
    m, n, D, eps = 8, 4, 3.0, 2.0 ** -5
    jobs = (1, 2)
    setups_per_round = 1

    def __init__(self, seed: int, workdir: Path, tiny: bool):
        self.seed = seed
        # count + 1 rows (the last is the zero-channel probe): two full
        # evaluation chunks of 4096 rows at full size.
        self.samples = 255 if tiny else 8191
        self.census_inputs = mv.qpsk_rayleigh_dataset(
            self.m, self.n, CENSUS_ROWS, clip=self.D, seed=seed,
        ).inputs[:CENSUS_ROWS]

    def setup(self):
        net = mv.complex_matvec_net(self.m, self.n, self.D, self.eps)
        mv.evaluate_batch(net, np.zeros((1, net.input_dim)))
        return net

    def check_setup(self, net, checks: Checks) -> None:
        budget = mv.predicted_budget("complex_matvec", m=self.m, n=self.n, D=self.D, eps=self.eps)
        self.compliance = mv.check_budget(net, budget)
        checks.expect(self.compliance.passed, "complex network misses its size budget")

    def verify(self, net, jobs: int):
        ds = mv.qpsk_rayleigh_dataset(self.m, self.n, self.samples, clip=self.D, seed=self.seed)
        report = mv.dataset_error_report(net, ds)
        return report, ds, mv.report_row(net, report, self.compliance)

    def judge(self, net, result, checks: Checks) -> tuple[str, int]:
        report, ds, row = result
        checks.expect(report.sup_error <= self.eps, f"sup error {report.sup_error!r} > eps")
        zero = mv.evaluate_batch(net, ds.inputs[-1:])
        checks.expect(
            bool(np.all(ds.inputs[-1, : 2 * self.m * self.n] == 0.0) and np.all(zero == 0.0)),
            "zero-channel probe is not exactly 0.0",
        )
        return csv_line(row), len(ds)


class SmallSobolev:
    m, n, D, eps = 2, 2, 1.0, 2.0 ** -4
    jobs = (1, 2)
    setups_per_round = 5

    def __init__(self, seed: int, workdir: Path, tiny: bool):
        self.seed = seed
        # Two reduction chunks at full size, so jobs=2 runs on two threads.
        self.samples = 200 if tiny else 4096
        self.census_inputs = box_rows(seed, CENSUS_ROWS, self.n * (self.m + 1), self.D)

    def setup(self):
        net = mv.matvec_net(self.m, self.n, self.D, self.eps)
        # The per-vector path builds the CSR kernels; evaluate_batch stays unused here.
        mv.evaluate(net, np.zeros(net.input_dim))
        return net

    def check_setup(self, net, checks: Checks) -> None:
        budget = mv.predicted_budget("matvec", m=self.m, n=self.n, D=self.D, eps=self.eps)
        self.compliance = mv.check_budget(net, budget)
        checks.expect(self.compliance.passed, "small network misses its size budget")
        zeros = [mv.evaluate(net, row) for row in zero_factor_rows(self.m, self.n, self.D)]
        checks.expect(bool(np.all(np.array(zeros) == 0.0)), "zero-factor probe is not exactly 0.0")

    def verify(self, net, jobs: int):
        report = mv.sobolev_error_matvec(
            net, self.m, self.n, self.D, self.samples, self.seed, jobs=jobs,
        )
        return report, mv.report_row(net, report, self.compliance)

    def judge(self, net, result, checks: Checks) -> tuple[str, int]:
        report, row = result
        worst = max(report.sup_error, report.grad_sup_error)
        checks.expect(worst <= self.eps, f"value/derivative deviation {worst!r} > eps")
        return csv_line(row), report.sample_count - report.kinks_skipped


WORKLOADS = {"real_sup": RealSup, "complex_qpsk": ComplexQpsk, "small_sobolev": SmallSobolev}


def census(net, inputs: np.ndarray) -> dict[str, float]:
    """Shares of hidden pre-activations that are positive and exactly zero."""
    active = zero = total = 0
    for row in inputs:
        for pre in mv.preactivations(net, row):
            active += int(np.count_nonzero(pre > 0.0))
            zero += int(np.count_nonzero(pre == 0.0))
            total += pre.size
    return {"active_frac": active / total, "zero_frac": zero / total}


def _median(episodes: list[dict], key: str) -> float:
    return statistics.median(e.get(key, 0) for e in episodes)


def layer_metrics(setup_eps: list[dict], verify_eps: list[dict], net_info: dict) -> dict:
    """Per-layer figures for one cycle: one set-up plus one jobs=1 verification call.

    Each total is the median over the traced set-ups plus the median over the
    traced calls. Counts repeat exactly from call to call.
    """
    keys = set().union(*setup_eps, *verify_eps)
    cycle = {k: _median(setup_eps, k) + _median(verify_eps, k) for k in keys}

    def layer_total(layer: str, suffix: str) -> float:
        return sum(v for k, v in cycle.items() if k.startswith(f"{layer}.") and k.endswith(suffix))

    def layer_self(layer: str) -> float:
        return layer_total(layer, ".self_s")

    def single_path(suffix: str) -> float:
        return sum(cycle.get(name + suffix, 0) for name in SINGLE_PATH)

    passes = cycle.get("batch_rows", 0) + cycle.get("vector_passes", 0)
    # The achieved rate leaves out set-up, whose first evaluate_batch also
    # converts the dense layers to CSR.
    call_rows = _median(verify_eps, "batch_rows")
    call_batch_s = _median(verify_eps, "network.evaluate_batch.self_s")
    stream_calls = cycle.get("rng.stream.calls", 0)
    nnz = net_info["nnz"]
    return {
        "rng.s": layer_self("rng"),
        "rng.stream_calls": stream_calls,
        "datasets.s": layer_self("datasets"),
        "network.batch_s": cycle.get("network.evaluate_batch.self_s", 0.0),
        "network.batch_rows": cycle.get("batch_rows", 0),
        "network.gflops": 2 * nnz * call_rows / call_batch_s / 1e9 if call_batch_s else 0.0,
        "network.single_s": single_path(".self_s"),
        "network.single_calls": single_path(".calls"),
        "network.nnz": nnz,
        "network.dense_mb": net_info["dense_mib"],
        "network.flops_computed": 2 * nnz * passes,
        "network.act_bytes_computed": 8 * net_info["hidden_and_output_width"] * passes,
        "verification.reference_s": cycle.get("verification.matvec_truth.self_s", 0.0),
        "verification.reference_calls": cycle.get("verification.matvec_truth.calls", 0),
        "verification.s": layer_self("verification"),
        "verification.accept_ratio": cycle["samples_used"] / stream_calls if stream_calls else 1.0,
        "constructors.s": layer_self("constructors"),
        "calculus.s": layer_self("calculus"),
        "calculus.calls": layer_total("calculus", ".calls"),
        "interchange.save_s": cycle.get("interchange.save_fnn.incl_s", 0.0),
        "interchange.load_s": cycle.get("interchange.load_fnn.incl_s", 0.0),
        "cli.s": layer_self("cli"),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path, tiny: bool) -> dict:
    wl = WORKLOADS[workload](seed, workdir, tiny)
    checks = Checks()
    tracer = Tracer() if trace else None

    def timed(fn, *args, traced=bool(tracer)):
        gc.collect()
        if traced:
            before = tracer.snapshot()
            tracer.install()
        start = perf_counter()
        try:
            result = fn(*args)
        finally:
            elapsed = perf_counter() - start
            if traced:
                tracer.uninstall()
        return result, elapsed, delta(before, tracer.snapshot()) if traced else {}

    setup_s, setup_eps = [], []
    # Calls as (label, jobs, traced). A traced run alternates traced jobs=1
    # calls with untraced ones, so that the tracing overhead is measured in
    # the same process and period.
    plan = [("1", 1, True), ("untraced", 1, False)] if trace else [
        (str(jobs), jobs, False) for jobs in wl.jobs
    ]
    calls = {label: [] for label, _, _ in plan}
    rows: list[str] = []
    verify_eps: list[dict] = []
    deadline = perf_counter() + seconds
    rounds = 0
    # A round sets the network up afresh and verifies with it, so set-up and
    # calls are sampled across the whole window alike.
    while rounds < (1 if tiny else MIN_ROUNDS) or perf_counter() < deadline:
        for _ in range(1 if tiny else wl.setups_per_round):
            net = None
            net, elapsed, episode = timed(wl.setup)
            wl.check_setup(net, checks)
            setup_s.append(elapsed)
            setup_eps.append(episode)
        for label, jobs, traced in plan if rounds % 2 == 0 else plan[::-1]:
            result, elapsed, episode = timed(wl.verify, net, jobs, traced=traced)
            row, used = wl.judge(net, result, checks)
            if rows:
                checks.expect(row == rows[0], f"report row of {label} call differs: {row}")
            rows.append(row)
            calls[label].append(elapsed)
            if traced:
                episode["samples_used"] = used
                verify_eps.append(episode)
        rounds += 1

    net_info = describe(net)
    out = {
        "workload": workload,
        "seed": seed,
        "samples": wl.samples,
        "setup_s": setup_s,
        "calls": calls,
        "rows": rows,
        "network": net_info,
    }
    if trace:
        counted = [{k: v for k, v in e.items() if not k.endswith("_s")} for e in verify_eps]
        checks.expect(all(c == counted[0] for c in counted), "layer counts differ between calls")
        layers = layer_metrics(setup_eps, verify_eps, net_info)
        layers["interchange.bytes"] = wl.path.stat().st_size if hasattr(wl, "path") else 0
        layers.update({f"network.{k}": v for k, v in census(net, wl.census_inputs).items()})
        out["layers"] = layers
    out["attempted"] = checks.attempted
    out["failures"] = checks.failures
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.workdir, args.tiny)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
