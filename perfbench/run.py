"""Benchmark of matvecnet: one workload per invocation, checked and timed.

    python3 perfbench/run.py --workload real_sup --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``, nothing needs installing. Workloads are ``real_sup``,
``complex_qpsk`` and ``small_sobolev`` (see ``workloads.py`` for what each
runs and why). Each run happens in a child process of its own, with BLAS
limited to one thread so that ``jobs`` sets the thread count.

``--trace 0`` makes one untraced run and reports the end-to-end metrics:

* ``samples_per_s``: samples verified per second with ``jobs=1``, from the
  start of the verification call to its verdict (median over calls);
* ``samples_per_s_jobs2``: the same with ``jobs=2``;
* ``setup_s``: time before the first sample is drawn (median over set-ups);
* ``peak_rss_mb``: peak resident memory of the run's process, in MiB.

``--trace 1`` makes an untraced run and then a traced one, each for half of
``--seconds``, and reports the per-layer metrics of the traced run (see
``workloads.layer_metrics``), the activation census, ``trace.overhead_s``
and ``failed_ratio``. The traced run alternates traced and untraced
``jobs=1`` calls; the overhead is the difference of their medians. The check
that traced and untraced report rows are identical counts like every other
check.

Every operation is checked against the paper's guarantees. Before the last
line the command prints the host, the failed checks if any, and a table in
the row layout of the ROADMAP "Baseline" section. The last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit
code is 0 when every check passed, 1 when one failed or a run broke, and 2
when the checkout holds no package source.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("real_sup", "complex_qpsk", "small_sobolev")
# The whole command must end within 180 s.
DEADLINE_S = 170.0
# One BLAS thread, so that ``jobs`` alone sets the thread count; a fixed hash
# seed, so that runs differ in their inputs and not in their dict layouts.
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

END_TO_END_UNITS = {
    "samples_per_s": "1/s",
    "samples_per_s_jobs2": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER_UNITS = {
    "rng.s": "s",
    "rng.stream_calls": "count",
    "datasets.s": "s",
    "network.batch_s": "s",
    "network.batch_rows": "count",
    "network.gflops": "GFLOP/s",
    "network.single_s": "s",
    "network.single_calls": "count",
    "network.nnz": "count",
    "network.dense_mb": "MiB",
    "network.flops_computed": "flop",
    "network.act_bytes_computed": "byte",
    "network.active_frac": "ratio",
    "network.zero_frac": "ratio",
    "verification.reference_s": "s",
    "verification.reference_calls": "count",
    "verification.s": "s",
    "verification.accept_ratio": "ratio",
    "constructors.s": "s",
    "calculus.s": "s",
    "calculus.calls": "count",
    "interchange.save_s": "s",
    "interchange.load_s": "s",
    "interchange.bytes": "byte",
    "cli.s": "s",
    "trace.overhead_s": "s",
    "failed_ratio": "ratio",
}


# Counters derived from sizes and call counts rather than clocks.
COMPUTED = {
    "network.nnz",
    "network.flops_computed",
    "network.act_bytes_computed",
    "interchange.bytes",
    "rng.stream_calls",
    "verification.reference_calls",
}


class RunFailed(RuntimeError):
    pass


def host_info(seed: int) -> dict:
    import numpy
    import scipy
    import matvecnet

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "l2": caches.get("L2", "unknown"),
        "l3": caches.get("L3", "unknown"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "child_env": CHILD_ENV,
        "matvecnet": matvecnet.__version__,
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_child(workload, seed, seconds, trace, workdir, tiny, deadline) -> dict:
    out = workdir / f"result-trace{trace}.json"
    cmd = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--workdir", str(workdir), "--out", str(out),
    ] + (["--tiny"] if tiny else [])
    env = dict(os.environ, PYTHONPATH=str(SRC), **CHILD_ENV)
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=max(1.0, deadline - perf_counter()),
        )
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{workload} (trace={trace}) did not finish in time") from None
    if proc.returncode != 0 or not out.is_file():
        raise RunFailed(f"{workload} (trace={trace}) exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(out.read_text())


def _fmt(value: float, unit: str) -> str:
    if unit in ("count", "flop", "byte"):
        return f"{value:,.0f} {unit}"
    return f"{value:.4g} {unit}"


def table(workload: str, untraced: dict, layers: dict | None, host: dict) -> list[str]:
    """Rows in the layout of the ROADMAP "Baseline" table, from medians."""
    net = untraced["network"]
    lines = ["| what | measured |", "|---|---|"]
    lines.append(
        f"| {workload}: network | L={net['depth']}, W={net['max_width']}, "
        f"M={net['nnz']:,} nonzero weights and biases, {net['dense_mib']:.1f} MiB stored |"
    )
    setups = untraced["setup_s"]
    lines.append(
        f"| {workload}: set-up | {statistics.median(setups):.4g} s "
        f"(median of {len(setups)}) |"
    )
    for jobs, times in untraced["calls"].items():
        med = statistics.median(times)
        lines.append(
            f"| {workload}: verify {untraced['samples']:,} samples, jobs={jobs} | "
            f"{med:.4g} s (median of {len(times)}, min {min(times):.4g}, max {max(times):.4g}), "
            f"{untraced['samples'] / med:,.0f} samples/s |"
        )
    lines.append(f"| {workload}: peak RSS | {untraced['peak_rss_mib']:.1f} MiB |")
    if layers:
        lines.append(
            f"| {workload} traced: a cycle | one set-up and one jobs=1 call; "
            "figures are medians over the traced cycles |"
        )
    for name, value in (layers or {}).items():
        label = " (computed, repeats exactly)" if name in COMPUTED else ""
        lines.append(f"| {workload} traced: {name} | {_fmt(value, PER_LAYER_UNITS[name])}{label} |")
    lines.append(
        f"| host | {host['nproc']} cores, {host['cpu']}, L2 {host['l2']}, L3 {host['l3']}, "
        f"Python {host['python']}, numpy {host['numpy']}, scipy {host['scipy']}, "
        f"{host['blas']} |"
    )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="matvecnet benchmark, one workload per run")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)
    deadline = perf_counter() + DEADLINE_S
    # Turn SIGTERM into an exception, so that subprocess.run kills and waits
    # for the running child and the finally block removes the work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "matvecnet" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    host = host_info(args.seed)
    print("host: " + json.dumps(host, sort_keys=True))

    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        if args.trace:
            half = args.seconds / 2
            untraced = run_child(args.workload, args.seed, half, 0, workdir, args.tiny, deadline)
            traced = run_child(args.workload, args.seed, half, 1, workdir, args.tiny, deadline)
        else:
            untraced = run_child(
                args.workload, args.seed, args.seconds, 0, workdir, args.tiny, deadline,
            )
            traced = None
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    attempted = untraced["attempted"]
    failures = list(untraced["failures"])
    samples = untraced["samples"]
    if traced is None:
        values = {
            "samples_per_s": samples / statistics.median(untraced["calls"]["1"]),
            "samples_per_s_jobs2": samples / statistics.median(untraced["calls"]["2"]),
            "setup_s": statistics.median(untraced["setup_s"]),
            "peak_rss_mb": untraced["peak_rss_mib"],
        }
        units = END_TO_END_UNITS
    else:
        attempted += traced["attempted"] + 1
        failures += traced["failures"]
        if any(row != untraced["rows"][0] for row in traced["rows"]):
            failures.append("traced report rows differ from untraced rows")
        values = dict(traced["layers"])
        values["trace.overhead_s"] = (
            statistics.median(traced["calls"]["1"]) - statistics.median(traced["calls"]["untraced"])
        )
        values["failed_ratio"] = len(failures) / attempted
        units = PER_LAYER_UNITS

    for failure in failures:
        print(f"FAILED: {failure}")
    for line in table(args.workload, untraced, values if traced else None, host):
        print(line)
    correct = not failures
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
