"""Command-line front end: build networks, verify bounds, generate data.

Exit codes separate scientific findings from plumbing problems:

* 0: requested work done, all checked bounds hold;
* 1: a verified bound was violated (a definitive counterexample, since the
  empirical sup is a lower bound of the true sup);
* 2: bad usage, out-of-range parameters, a malformed input file, or a
  request too large for memory;
* 3: the work was valid but an I/O operation failed.

``--eps`` accepts a decimal ("0.03125") or a power-of-two literal ("2^-5");
the latter avoids decimal-to-binary drift in reports. ``verify`` is
:func:`.verification.verify_network` on the loaded file; it honors
``--jobs`` on every kind without changing any reported number (see the
verification module's chunked reduction).
"""

from __future__ import annotations

import argparse
import csv
import glob
import re
import sys
from dataclasses import asdict
from pathlib import Path

from .constructors import KINDS
from .datasets import equispaced_real_dataset, qpsk_rayleigh_dataset, save_dataset
from .interchange import load_fnn, save_fnn
from .verification import (
    REPORT_COLUMNS,
    _fields,
    budget_line,
    check_budget,
    metrics_line,
    report_lines,
    report_row,
    verify_network,
)

__all__ = ["main", "parse_eps"]


def parse_eps(text: str) -> float:
    """Accuracy from a decimal or a "2^-k" power-of-two literal."""
    match = re.fullmatch(r"2\^(-?\d+)", text.strip())
    if match:
        try:
            return 2.0 ** int(match.group(1))
        except OverflowError:
            raise ValueError(f"eps {text!r} overflows a double") from None
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"cannot parse eps {text!r}; use a decimal or 2^-k") from None


def _count(text: str) -> int:
    """``--samples`` or ``--jobs`` value: a whole number of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a whole number, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


# log2 of a positive finite double lies within [-1074, 1024), so a depth
# constant up to this keeps the depth bound C * log2(...) finite.
_MAX_C = sys.float_info.max / 1075


def _depth_constant(text: str) -> float:
    """``--C`` value: a positive number small enough that the depth bound stays finite."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not 0 < value <= _MAX_C:
        raise argparse.ArgumentTypeError(
            f"must be positive and at most {_MAX_C:.4g}, so that the depth bound "
            f"C * log2(...) is finite; got {text!r}"
        )
    return value


def _build_network(kind: str, args: argparse.Namespace):
    """The kind's builder called on the options its ``KINDS`` row names, eps checked first."""
    entry = KINDS[kind]
    for name in reversed(entry.params):
        if getattr(args, name) is None:
            raise ValueError(f"--{name} is required to build a {kind} network")
    return entry.builder(*(getattr(args, name) for name in entry.params))


def cmd_build(args: argparse.Namespace) -> int:
    net = _build_network(args.kind, args)
    record = net.record
    compliance = check_budget(net, record.budget(args.C))
    got = compliance.measured
    out = args.out or f"{args.kind}.json"
    save_fnn(net, out, extra_meta={
        "metrics": _fields(measured=got),
        "budget": asdict(compliance.budget),
    })
    print(f"wrote {out}")
    print(f"packing: {record.input_packing}")
    print(metrics_line(got))
    if args.kind == "square":
        guaranteed = 2.0 ** (-2 * (record.sawtooth_order + 1))
        print(f"sawtooth order {record.sawtooth_order}, guaranteed sup error {guaranteed!r}")
    print(budget_line(compliance))
    return 0 if compliance.passed else 1


def _append_report(path, net, report, compliance) -> None:
    target = Path(path)
    fresh = not target.exists() or target.stat().st_size == 0
    with open(target, "a", newline="") as fh:
        writer = csv.writer(fh)
        if fresh:
            writer.writerow(REPORT_COLUMNS)
        writer.writerow(report_row(net, report, compliance))


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        net = load_fnn(args.network)
    except OSError as exc:
        raise ValueError(f"cannot read network file {args.network}: {exc}") from exc
    report, compliance, ok = verify_network(
        net, args.samples, args.seed, jobs=args.jobs, sobolev=args.sobolev, C=args.C,
    )
    for line in report_lines(net, report, compliance):
        print(line)
    _append_report(args.out or "reports.csv", net, report, compliance)
    print(f"verdict: {'ok' if ok else 'BOUND VIOLATED'} (eps={net.record.eps!r})")
    return 0 if ok else 1


def cmd_data(args: argparse.Namespace) -> int:
    if args.kind == "equispaced":
        ds = equispaced_real_dataset(
            args.m, args.n, args.count,
            half_width=args.half_width, grid_points=args.grid_points, seed=args.seed,
        )
    else:
        ds = qpsk_rayleigh_dataset(
            args.m, args.n, args.count, clip=args.clip, seed=args.seed,
        )
    out = args.out or f"{args.kind}.json"
    save_dataset(ds, out)
    print(f"wrote {out}")
    print(
        f"rows={len(ds)} input_width={ds.inputs.shape[1]} "
        f"target_width={ds.targets.shape[1]}"
    )
    if "clipped_entries" in ds.meta:
        print(f"clipped entries: {ds.meta['clipped_entries']}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    paths: list[str] = []
    for pattern in args.inputs:
        hits = sorted(glob.glob(pattern))
        paths.extend(hits if hits else [pattern])
    if not paths:
        raise ValueError("no report files given")
    rows: list[list[str]] = []
    for path in paths:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            for row in reader:
                if not row or row[0] == REPORT_COLUMNS[0]:
                    continue
                if len(row) != len(REPORT_COLUMNS):
                    raise ValueError(
                        f"{path}, line {reader.line_num}: {len(row)} cells, where a verify "
                        f"report row has {len(REPORT_COLUMNS)}"
                    )
                rows.append(row)
    if not rows:
        raise ValueError("no report rows found in the given files")
    widths = [len(name) for name in REPORT_COLUMNS]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    header = "  ".join(name.ljust(widths[i]) for i, name in enumerate(REPORT_COLUMNS))
    print(header)
    print("-" * len(header))
    for row in rows:
        print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matvecnet",
        description="construct, evaluate, and verify product-approximating ReLU networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="construct a network and write it to disk")
    buildable = [kind for kind, entry in KINDS.items() if entry.builder is not None]
    build.add_argument("--kind", choices=buildable, required=True)
    build.add_argument("--m", type=int, default=None)
    build.add_argument("--n", type=int, default=None)
    build.add_argument("--D", type=float, default=None)
    build.add_argument("--eps", type=parse_eps, default=None)
    build.add_argument("--C", type=_depth_constant, default=2.0, help="depth-bound constant")
    build.add_argument("--out", default=None)
    build.set_defaults(func=cmd_build)

    verify = sub.add_parser("verify", help="estimate errors of a stored network")
    verify.add_argument("network", help="interchange file produced by build")
    verify.add_argument("--samples", type=_count, default=100000)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--jobs", type=_count, default=1,
                        help="worker threads for the checks; a narrow network's checks run "
                             "inline whatever this asks, and no result depends on it")
    verify.add_argument("--C", type=_depth_constant, default=2.0, help="depth-bound constant")
    verify.add_argument("--sobolev", action="store_true",
                        help="also check the Jacobian against the exact product")
    verify.add_argument("--out", default=None, help="CSV file to append the report row to")
    verify.set_defaults(func=cmd_verify)

    data = sub.add_parser("data", help="generate a verification dataset")
    data.add_argument("--kind", choices=("equispaced", "qpsk"), required=True)
    data.add_argument("--m", type=int, required=True)
    data.add_argument("--n", type=int, required=True)
    data.add_argument("--count", type=int, required=True)
    data.add_argument("--seed", type=int, default=0)
    data.add_argument("--half-width", type=float, default=2.0)
    data.add_argument("--grid-points", type=int, default=1025)
    data.add_argument("--clip", type=float, default=3.0)
    data.add_argument("--out", default=None)
    data.set_defaults(func=cmd_data)

    report = sub.add_parser("report", help="tabulate rows from verify CSV files")
    report.add_argument("inputs", nargs="*", help="CSV files or globs")
    report.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: the request is too large for the available memory", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
