#!/usr/bin/env python3
"""Per-layer census of the evaluation plans at the two headline operating points.

For the real point matvec(8, 4) on [-2, 2] and the complex point
complex_matvec(8, 4) on [-3, 3], both at accuracy 2^-5, each row gives a
layer's width as stored, in the plan of distinct neurons, and in the live
plan (the distinct plan minus the neurons proven never active on the box,
which every estimator runs), followed by the kernel entries of the
distinct and live plans (weights, nonzero biases and the constant neuron's
own entry) and their tangent pairs: the rows of each layer's pair kernel,
the (neuron, input) pairs the Sobolev check carries, every (output, input)
in the last layer. Widths leave out the constant neuron. The last row sums
the hidden layers' widths and all entries and pairs. Two lines under each
table give the peak memory (tracemalloc, MiB) of building the distinct plan
and of proving the live plan from it, each result included, and the median
wall time of each over nine builds.

    python scripts/plan_census.py
"""

import argparse
import statistics
import time
import tracemalloc

from matvecnet import complex_matvec_net, matvec_net
from matvecnet.network import _distinct, _live, _tangents

POINTS = [
    ("real matvec: m=8 n=4 D=2 eps=2^-5", matvec_net, 2.0),
    ("complex matvec: m=8 n=4 D=3 eps=2^-5", complex_matvec_net, 3.0),
]
BUILDS = 9
HEADER = ("layer", "stored", "distinct", "live", "entries", "live entries", "pairs",
          "live pairs")


def traced(call):
    """``call()``'s result and the MiB tracemalloc saw it allocate at its peak."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, (tracemalloc.get_traced_memory()[1] - start) / 2 ** 20
    finally:
        tracemalloc.stop()


def timed(call):
    """The median wall time (ms) of ``BUILDS`` calls of ``call()``."""
    times = []
    for _ in range(BUILDS):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def census(net, D):
    """Rows (layer, stored, distinct, live, entries, live entries, pairs, live pairs),
    a total row, the traced peaks (MiB) of :func:`_distinct` and :func:`_live`, and
    their median wall times (ms)."""
    plan, distinct_peak = traced(lambda: _distinct(net))
    live, live_peak = traced(lambda: _live(plan, -D, D))
    times = timed(lambda: _distinct(net)), timed(lambda: _live(plan, -D, D))
    rows = [
        (k, stored, distinct, alive, len(kernel.data), len(kept.data), pairs.shape[0],
         live_pairs.shape[0])
        for k, (stored, distinct, alive, kernel, kept, pairs, live_pairs) in enumerate(zip(
            net.widths[1:], plan.widths[1:], live.widths[1:], plan.kernels, live.kernels,
            _tangents(plan).kernels, _tangents(live).kernels,
        ), start=1)
    ]
    hidden = rows[:-1]
    total = ("sum", *(sum(row[i] for row in hidden) for i in (1, 2, 3)),
             *(sum(row[i] for row in rows) for i in (4, 5, 6, 7)))
    return rows + [total], (distinct_peak, live_peak), times


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.parse_args()
    for title, builder, D in POINTS:
        print(title)
        print("  ".join(f"{name:>12}" for name in HEADER))
        rows, (distinct_peak, live_peak), (distinct_ms, live_ms) = census(
            builder(8, 4, D, 2.0 ** -5), D)
        for row in rows:
            print("  ".join(f"{cell:>12}" for cell in row))
        print(f"traced peak: _distinct {distinct_peak:.2f} MiB, _live {live_peak:.2f} MiB")
        print(f"median of {BUILDS} builds: _distinct {distinct_ms:.2f} ms, _live {live_ms:.2f} ms")
        print()


if __name__ == "__main__":
    main()
