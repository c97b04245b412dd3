#!/usr/bin/env python3
"""Watch the exact counts approach their asymptotic law.

Prints, for a sweep of ranks, the consecutive-count ratio against the growth
rate rho and the normalized count against the amplitude alpha.  Exact big
integers feed every row; only the final display is floating point.

    python scripts/asymptotics_sweep.py --max-n 200 --step 20
"""

from __future__ import annotations

import argparse

from clustertubes.asymptotics import asymptotic_check, growth_amplitude, growth_rate


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=120)
    parser.add_argument("--step", type=int, default=10)
    args = parser.parse_args()

    rho, alpha = growth_rate(), growth_amplitude()
    print(f"rho   = {rho:.15f}")
    print(f"alpha = {alpha:.16f}")
    print("n,ratio,ratio_rel_err,alpha_est,alpha_rel_err")
    for n in range(args.step, args.max_n + 1, args.step):
        ratio, alpha_est = asymptotic_check(n)
        print(
            f"{n},{ratio:.12f},{abs(ratio - rho) / rho:.3e},"
            f"{alpha_est:.12f},{abs(alpha_est - alpha) / alpha:.3e}"
        )


if __name__ == "__main__":
    main()
