#!/usr/bin/env python3
"""Rebuild the two headline operating points and print their verification.

The real point is matvec(m=8, n=4) on [-2, 2] at accuracy 2^-5; the complex
point is complex_matvec(8, 4) on [-3, 3] at the same accuracy, checked on a
clipped Rayleigh/QPSK dataset. The derivative (Sobolev) check runs at
matvec(2, 2) on [-1, 1] at 2^-4 and at the real point, on at most 10^4
samples each, next to the value check on the same samples. Every stage is
one ``verify_network`` call, so it prints what ``matvecnet verify`` (with
``--sobolev`` for the derivative checks) prints for the same network. All
runs are seeded and bit-reproducible; pass --jobs to confirm worker counts
leave every reported number unchanged.

The real and complex points are saved to a network file and loaded back
before their value checks, as ``matvecnet build`` and ``verify`` do. The
stage prints the file's size, whether the loaded layers are bit-equal to
the built ones, and whether the file is its own document: its bytes are
``json.dumps(doc, allow_nan=False)`` plus a newline for the document ``doc``
they hold, with the keys in the documented order, ``doc``'s ``meta`` is the
network's record and its layers load bit-equal to the built ones. The
script exits 1 if either is not so. Each stage ends with
its elapsed time, the minor page faults the process took meanwhile and the
process's peak resident set so far, so a change that makes evaluation
allocate again, or a check that holds all its samples at once, shows here
without a profiler. The complex stage draws its rows chunk by chunk, so its
peak (68 MiB on a 2-core Xeon) is the same at 10^5 and 3 x 10^5 samples.
"""

import argparse
import json
import resource
import sys
import tempfile
import time
from pathlib import Path

from matvecnet import (
    complex_matvec_net,
    load_fnn,
    matvec_net,
    report_lines,
    save_fnn,
    verify_network,
)
from matvecnet.cli import _count
from matvecnet.interchange import network_from_document


def banner(title):
    print()
    print(title)
    print("=" * len(title))


def clock():
    return time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def print_elapsed(start):
    seconds, faults = (now - then for now, then in zip(clock(), start))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(f"elapsed: {seconds:.1f}s, minor page faults: {faults}, peak RSS: {peak:.1f} MiB")


def same_bits(net, back):
    """Whether two networks hold the same layer arrays, dtypes and bytes included."""
    return len(net.layers) == len(back.layers) and all(
        a.weights.shape == b.weights.shape
        and all(x.dtype == y.dtype and x.tobytes() == y.tobytes()
                for x, y in zip((*a.weights[:3], a.bias), (*b.weights[:3], b.bias)))
        for a, b in zip(net.layers, back.layers)
    )


def is_its_document(net, path):
    """Whether a network file is its own document on one line, written for net.

    The bytes must be ``json.dumps`` of the document they hold, with
    ``allow_nan=False``, and a newline; the keys must come in the order the
    file format documents; ``meta`` must be ``net.record.as_meta()``; and
    the layers must load bit-equal to net's.
    """
    text = Path(path).read_bytes()
    doc = json.loads(text)
    return (
        text == (json.dumps(doc, allow_nan=False) + "\n").encode()
        and list(doc) == ["format", "meta", "layers"]
        and all(list(layer) == ["shape", "rows", "cols", "values", "bias"]
                for layer in doc["layers"])
        and doc["meta"] == net.record.as_meta()
        and same_bits(net, network_from_document(doc))
    )


def round_trip(net):
    """The network saved to a file and loaded back; exits 1 unless the bits survive."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "net.json"
        start = time.perf_counter()
        save_fnn(net, path)
        saved = time.perf_counter()
        back = load_fnn(path)
        loaded = time.perf_counter()
        size = path.stat().st_size
        encoded = is_its_document(net, path)
    equal = same_bits(net, back)
    print(f"network file: {size} bytes, loaded layers bit-equal: {'yes' if equal else 'NO'}")
    print(f"network file equals json.dumps of its document: {'yes' if encoded else 'NO'}")
    print(f"save/load: {1e3 * (saved - start):.1f} ms / {1e3 * (loaded - saved):.1f} ms")
    if not equal:
        sys.exit("the loaded network differs from the built one")
    if not encoded:
        sys.exit("the network file is not json.dumps of the document it holds")
    return back


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=_count, default=100000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=_count, default=1)
    args = parser.parse_args()

    stages = [
        ("real matvec: m=8 n=4 D=2 eps=2^-5", matvec_net, (8, 4, 2.0, 2.0 ** -5), False),
        ("complex matvec: m=8 n=4 D=3 eps=2^-5 (clipped QPSK/Rayleigh)",
         complex_matvec_net, (8, 4, 3.0, 2.0 ** -5), False),
        ("derivative check: m=2 n=2 D=1 eps=2^-4", matvec_net, (2, 2, 1.0, 2.0 ** -4), True),
        ("derivative check: m=8 n=4 D=2 eps=2^-5", matvec_net, (8, 4, 2.0, 2.0 ** -5), True),
    ]
    for title, builder, params, sobolev in stages:
        banner(title)
        start = clock()
        net = builder(*params)
        if not sobolev:  # the operating points are checked as loaded from their files
            net = round_trip(net)
        samples = min(args.samples, 10000) if sobolev else args.samples
        report, compliance, _ = verify_network(
            net, samples, args.seed, jobs=args.jobs, sobolev=sobolev,
        )
        for line in report_lines(net, report, compliance):
            print(line)
        print_elapsed(start)


if __name__ == "__main__":
    main()
