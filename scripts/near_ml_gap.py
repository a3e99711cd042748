#!/usr/bin/env python3
"""Uncoded 4x4 vector-error-rate curves: punctured-decomposition detector vs ML.

Runs both detectors on identical trials per SNR point and reports the
SNR gap at a target error rate.  Defaults reproduce the acceptance
setting at a lighter trial count.
"""

import argparse

import numpy as np

from mimodet.simharness import uncoded_ver_point


def snr_at_rate(grid, rates, level):
    """SNR where the rate curve crosses ``level``, interpolated in log rate.

    Returns None when no grid interval brackets the level, or when the
    bracketing interval has a zero rate (no errors seen), whose log
    cannot be interpolated.
    """
    target = np.log10(level)
    for i in range(len(grid) - 1):
        if rates[i] >= level >= rates[i + 1]:
            if rates[i + 1] <= 0:
                return None
            l0, l1 = np.log10(rates[i]), np.log10(rates[i + 1])
            f = (l0 - target) / (l0 - l1)
            return grid[i] + f * (grid[i + 1] - grid[i])
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--order", type=int, default=4, help="per-layer QAM order")
    ap.add_argument("--snr", type=float, nargs="+", default=[10, 12, 14, 16])
    ap.add_argument("--trials", type=int, default=20_000)
    ap.add_argument("--level", type=float, default=1e-2, help="target error rate")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--threads", type=int, default=2)
    args = ap.parse_args()

    mods = (args.order,) * 4
    wld, ml = [], []
    print(f"4x4 {args.order}-QAM, {args.trials} trials/point")
    for i, snr in enumerate(args.snr):
        rates = uncoded_ver_point(args.seed, i, snr, mods, args.trials, threads=args.threads)
        wld.append(rates["wld"])
        ml.append(rates["ml"])
        print(f"  snr={snr:5.1f} dB  wld={rates['wld']:.5f}  ml={rates['ml']:.5f}")
    sw = snr_at_rate(args.snr, wld, args.level)
    sm = snr_at_rate(args.snr, ml, args.level)
    if sw is None or sm is None:
        print(f"rate {args.level} not bracketed by the grid; widen --snr")
    else:
        print(f"SNR at rate {args.level}: wld={sw:.3f} dB, ml={sm:.3f} dB, gap={sw - sm:.3f} dB")


if __name__ == "__main__":
    main()
