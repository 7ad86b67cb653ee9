#!/usr/bin/env python3
"""Rebuild the two headline operating points and print their verification.

The real point is matvec(m=8, n=4) on [-2, 2] at accuracy 2^-5; the complex
point is complex_matvec(8, 4) on [-3, 3] at the same accuracy, checked on a
clipped Rayleigh/QPSK dataset. The derivative (Sobolev) check runs at
matvec(2, 2) on [-1, 1] at 2^-4 and at the real point, on at most 10^4
samples each. All runs are seeded and bit-reproducible; pass --jobs to
confirm worker counts leave every reported number unchanged.

Each stage ends with its elapsed time and the minor page faults the process
took meanwhile, so a change that makes evaluation allocate again shows here
without a profiler.
"""

import argparse
import resource
import time

from matvecnet import (
    check_budget,
    complex_matvec_net,
    dataset_error_report,
    matvec_net,
    predicted_budget,
    qpsk_rayleigh_dataset,
    report_lines,
    sobolev_error_matvec,
    sup_error_matvec,
)


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
    parser.add_argument("--samples", type=int, default=100000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()

    banner("real matvec: m=8 n=4 D=2 eps=2^-5")
    start = clock()
    net = matvec_net(8, 4, 2.0, 2.0 ** -5)
    report = sup_error_matvec(net, 8, 4, 2.0, args.samples, args.seed, jobs=args.jobs)
    compliance = check_budget(net, predicted_budget("matvec", m=8, n=4, D=2.0, eps=2.0 ** -5))
    for line in report_lines(net, report, compliance):
        print(line)
    print_elapsed(start)

    banner("complex matvec: m=8 n=4 D=3 eps=2^-5 (clipped QPSK/Rayleigh)")
    start = clock()
    cnet = complex_matvec_net(8, 4, 3.0, 2.0 ** -5)
    ds = qpsk_rayleigh_dataset(8, 4, args.samples, clip=3.0, seed=args.seed)
    creport = dataset_error_report(cnet, ds)
    ccompliance = check_budget(
        cnet, predicted_budget("complex_matvec", m=8, n=4, D=3.0, eps=2.0 ** -5)
    )
    for line in report_lines(cnet, creport, ccompliance):
        print(line)
    print(f"clipped channel entries: {ds.meta['clipped_entries']}")
    print_elapsed(start)

    for m, n, D, eps, label in ((2, 2, 1.0, 2.0 ** -4, "D=1 eps=2^-4"),
                                (8, 4, 2.0, 2.0 ** -5, "D=2 eps=2^-5")):
        banner(f"derivative check: m={m} n={n} {label}")
        start = clock()
        snet = matvec_net(m, n, D, eps)
        sreport = sobolev_error_matvec(
            snet, m, n, D, min(args.samples, 10000), args.seed, jobs=args.jobs
        )
        scompliance = check_budget(snet, predicted_budget("matvec", m=m, n=n, D=D, eps=eps))
        for line in report_lines(snet, sreport, scompliance):
            print(line)
        print_elapsed(start)


if __name__ == "__main__":
    main()
