#!/usr/bin/env python3
"""Tabulate the squaring network's error decay against the exact law.

For each sawtooth order m the interpolant f_m of x^2 on [0,1] has sup error
exactly 2^(-2(m+1)). The dense dyadic grid used below contains the midpoints
where that error peaks, so the observed column should match the law to the
last bit for every order shown. The slope column confirms the derivative
magnitude stays below 2 everywhere off the kinks.
"""

import argparse

from matvecnet import metrics, square_error_curve, square_net_of_order, square_slope_sup


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-order", type=int, choices=range(25), default=10, metavar="0..24")
    args = parser.parse_args()

    print(f"{'order':>5}  {'observed sup':>22}  {'law 2^-2(m+1)':>22}  "
          f"{'slope sup':>10}  {'L':>3}  {'M':>4}")
    for order, observed in square_error_curve(args.max_order):
        law = 2.0 ** (-2 * (order + 1))
        net = square_net_of_order(order)
        slope = square_slope_sup(net, points=max(2048, 2 ** (order + 2)))
        got = metrics(net)
        flag = "" if observed == law else "   <- deviates"
        print(f"{order:>5}  {observed!r:>22}  {law!r:>22}  "
              f"{slope:>10.6f}  {got.depth:>3}  {got.connectivity:>4}{flag}")


if __name__ == "__main__":
    main()
