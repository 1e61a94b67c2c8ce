#!/usr/bin/env python3
"""Degree-agreement sweep: Groebner staircase vs intersection number vs Eulerian.

Usage: python scripts/run_theorem_matrix.py [--max-total 6] [--budget-seconds 120]
"""

import argparse

from laurent_eulerian.cli import _seconds_arg
from laurent_eulerian.experiments import theorem_matrix


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-total", type=int, default=6)
    ap.add_argument("--budget-seconds", type=_seconds_arg, default=None)
    args = ap.parse_args()

    rep = theorem_matrix(args.max_total, args.budget_seconds)
    print(f"{'m':>3} {'n':>3} {'eulerian':>9} {'groebner':>9} {'chow':>6} {'unit':>5} status")
    for c in rep.cells:
        status = "timeout" if c.timeout else ("ok" if c.agrees else "MISMATCH")
        print(
            f"{c.m:>3} {c.n:>3} {c.eulerian_value:>9} "
            f"{str(c.groebner_degree):>9} {str(c.chow_degree):>6} "
            f"{str(c.unit_ideal):>5} {status}"
        )
    print("all agree" if rep.agrees else "DISAGREEMENT FOUND")
    return 0 if rep.agrees else 1


if __name__ == "__main__":
    raise SystemExit(main())
