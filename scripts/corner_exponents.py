#!/usr/bin/env python3
"""Corner exponents on circular sectors: solution growth and gradient decay.

For each opening angle omega the solution above the apex grows like
r^{pi/omega} and its gradient like r^{pi/omega - 1}; both are fitted from
graded-mesh P1 solves.
"""

import argparse

import numpy as np

from polyhom import fem, harness


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--omegas", type=float, nargs="+",
                    default=[np.pi / 3, np.pi / 2, 2 * np.pi / 3])
    ap.add_argument("--h", type=float, default=0.05)
    args = ap.parse_args()

    print(f"{'omega':>8} {'u fitted':>10} {'u theory':>10} "
          f"{'grad fitted':>12} {'grad stderr':>12} {'grad theory':>12}")
    for omega in args.omegas:
        theory = np.pi / omega
        probe = fem.corner_probe(omega, h=args.h, grading=1.0)

        def wdata(pts, q=theory):
            r = np.linalg.norm(pts, axis=1)
            phi = np.arctan2(pts[:, 1], pts[:, 0])
            return r ** q * np.sin(q * phi)

        samples = fem.gradient_probe(
            fem.sector_polygon(omega), fem.CoefficientField.identity(), wdata,
            corner=(0.0, 0.0), direction=(np.cos(omega / 2), np.sin(omega / 2)),
            h=args.h, grading=1.0)
        grad_fit = harness.fit_rate(samples)  # the log-log fit corner_probe uses
        print(f"{omega:8.4f} {probe['fitted_exponent']:10.4f} {theory:10.4f} "
              f"{grad_fit.exponent:12.4f} {grad_fit.stderr:12.4f} {theory - 1.0:12.4f}")


if __name__ == "__main__":
    main()
