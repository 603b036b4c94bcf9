"""Shoot the unstable manifold of the Fisher saddle across a range of speeds.

At each speed the orbit leaves the rest state u = 1 along the unstable
eigendirection and is integrated toward the origin; the table shows how close
it comes and how far it drifts from the certified invariant cubic, which
lives in the orbit's own coordinates x = u, y = u'.  Only the certified speed
c = 5/6*sqrt(6) should land on both.

Run from the repository root:

    PYTHONPATH=src python scripts/fisher_shooting.py --speeds "5/6*sqrt(6),3"
"""

import argparse
import sys

from algwaves.fisher import FISHER_PDE, FRONT_SPEED, certify
from algwaves.numerics import curve_residual_along_orbit, shoot_unstable_manifold
from algwaves.pde import parse_pde
from algwaves.qfield import parse_quadext
from algwaves.reduction import to_planar, travelling_wave_reduce


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--speeds", default="2,5/6*sqrt(6),5/2,3",
                    help="comma-separated exact speeds to try")
    ap.add_argument("--horizon", type=float, default=60.0)
    ap.add_argument("--eps", type=float, default=1e-6)
    args = ap.parse_args()

    reduced = travelling_wave_reduce(parse_pde(FISHER_PDE))
    curve = certify().curve

    print("certified speed: c = %s = %.9f" % (FRONT_SPEED, float(FRONT_SPEED)))
    print()
    print("%-16s %-14s %-14s %s" % ("speed", "miss distance", "curve drift",
                                    "verdict"))
    for text in args.speeds.split(","):
        c = parse_quadext(text.strip())
        ps = to_planar(reduced.bind_speed(c))
        res = shoot_unstable_manifold(ps, (1, 0), (0.0, 0.0), eps=args.eps,
                                      horizon=args.horizon)
        drift = curve_residual_along_orbit(curve, res.orbit)
        hit = res.min_distance < 1e-6 and drift < 1e-5
        print("%-16s %-14.3e %-14.3e %s"
              % (text.strip(), res.min_distance, drift,
                 "algebraic front" if hit else "off the curve"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
