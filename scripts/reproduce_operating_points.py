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

Each stage ends with its elapsed time and the minor page faults the process
took meanwhile, so a change that makes evaluation allocate again shows here
without a profiler.
"""

import argparse
import resource
import time

from matvecnet import complex_matvec_net, matvec_net, report_lines, verify_network
from matvecnet.cli import _count


def banner(title):
    print()
    print(title)
    print("=" * len(title))


def clock():
    return time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def print_elapsed(start):
    seconds, faults = (now - then for now, then in zip(clock(), start))
    print(f"elapsed: {seconds:.1f}s, minor page faults: {faults}")


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
        samples = min(args.samples, 10000) if sobolev else args.samples
        report, compliance, _ = verify_network(
            net, samples, args.seed, jobs=args.jobs, sobolev=sobolev,
        )
        for line in report_lines(net, report, compliance):
            print(line)
        print_elapsed(start)


if __name__ == "__main__":
    main()
