#!/usr/bin/env python3
"""Emit torsion-pair count tables as CSV.

Plain counts for a rank range, or the full refined (k, l, m) table:

    python scripts/count_table.py --max-n 20
    python scripts/count_table.py --max-n 8 --refined > refined.csv
"""

from __future__ import annotations

import argparse
import sys

from clustertubes.counting import refined_table, torsion_count


def main() -> None:
    # Counts past about n = 5,150 have more digits than CPython's default
    # int/str limit; the function exists from Python 3.10.7 on.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=15)
    parser.add_argument("--refined", action="store_true")
    args = parser.parse_args()

    if args.refined:
        print("n,k,l,m,count")
        for n in range(1, args.max_n + 1):
            for (k, l, m), count in refined_table(n).items():
                print(f"{n},{k},{l},{m},{count}")
    else:
        print("n,count")
        for n in range(1, args.max_n + 1):
            print(f"{n},{torsion_count(n)}")


if __name__ == "__main__":
    main()
