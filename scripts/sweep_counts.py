"""Tabulate component counts of G(m, n) over a range of orders.

For each (m, n) prints the number of reducible components (one per
folded gcd index) and the number of irreducible arcs, and checks the
closed form against direct enumeration.

The script imports tkchar from the src/ directory of its own tree.

Usage:
    python3 scripts/sweep_counts.py --max 12
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tkchar.components import (  # noqa: E402
    GroupParams,
    count_irr,
    enumerate_irr,
    enumerate_red,
    self_loops,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max", type=int, default=12, help="largest order to sweep (default 12)")
    args = ap.parse_args()

    print(f"{'m':>3} {'n':>3} {'d':>3} {'red':>4} {'irr':>5} {'loops':>6}")
    for m in range(2, args.max + 1):
        for n in range(2, m + 1):
            p = GroupParams(m, n)
            irr = count_irr(p)
            assert irr == len(enumerate_irr(p)), (m, n)
            red = len(enumerate_red(p))
            loops = len(self_loops(p))
            print(f"{m:>3} {n:>3} {p.d:>3} {red:>4} {irr:>5} {loops:>6}")


if __name__ == "__main__":
    main()
