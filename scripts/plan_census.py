#!/usr/bin/env python3
"""Per-layer census of the evaluation plans at the two headline operating points.

For the real point matvec(8, 4) on [-2, 2] and the complex point
complex_matvec(8, 4) on [-3, 3], both at accuracy 2^-5, each row gives a
layer's width as stored, in the plan of distinct neurons, and in the live
plan (the distinct plan minus the neurons proven never active on the box,
which the sup and dataset estimators run), followed by the kernel entries
of the distinct and live plans: weights, nonzero biases and the constant
neuron's own entry. Widths leave out the constant neuron. The last row sums
the hidden layers' widths and all entries.

    python scripts/plan_census.py
"""

import argparse

from matvecnet import complex_matvec_net, matvec_net
from matvecnet.network import _distinct, _live

POINTS = [
    ("real matvec: m=8 n=4 D=2 eps=2^-5", matvec_net, 2.0),
    ("complex matvec: m=8 n=4 D=3 eps=2^-5", complex_matvec_net, 3.0),
]
HEADER = ("layer", "stored", "distinct", "live", "entries", "live entries")


def census(net, D):
    """Rows (layer, stored, distinct, live, entries, live entries) and a total row."""
    plan = _distinct(net)
    live = _live(plan, -D, D)
    rows = [
        (k, stored, distinct, alive, len(kernel.data), len(kept.data))
        for k, (stored, distinct, alive, kernel, kept) in enumerate(zip(
            net.widths[1:], plan.widths[1:], live.widths[1:], plan.kernels, live.kernels,
        ), start=1)
    ]
    hidden = rows[:-1]
    total = ("sum", *(sum(row[i] for row in hidden) for i in (1, 2, 3)),
             *(sum(row[i] for row in rows) for i in (4, 5)))
    return rows + [total]


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.parse_args()
    for title, builder, D in POINTS:
        print(title)
        print("  ".join(f"{name:>12}" for name in HEADER))
        for row in census(builder(8, 4, D, 2.0 ** -5), D):
            print("  ".join(f"{cell:>12}" for cell in row))
        print()


if __name__ == "__main__":
    main()
