#!/usr/bin/env python3
"""Tabulate the split bias across all distinct-odd cycle types.

For every qualifying type up to a weight bound, print the nonzero bias
entries (index, signed value) next to the part product and element order,
optionally cross-checking each type's vector against the defining sum, exactly.

    python3 scripts/bias_table.py --max-n 17 --check
"""

import argparse
import math
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from altchar.acceptance import bias_failure
from altchar.multiplicity import bias_vector, order_of_type
from altchar.partitions import format_partition, has_distinct_odd_parts, partitions


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=15)
    ap.add_argument("--min-n", type=int, default=1)
    ap.add_argument("--check", action="store_true", help="replay the defining sum")
    ap.add_argument("--all", action="store_true", help="include all-zero rows")
    args = ap.parse_args()

    print(f"{'type':>14} {'M':>6} {'m':>5}  nonzero bias entries (i: d)")
    for n in range(args.min_n, args.max_n + 1):
        for mu in partitions(n):
            if not has_distinct_odd_parts(mu):
                continue
            results = bias_vector(mu)
            if args.check and (failure := bias_failure(mu, [r.value for r in results])):
                print(f"MISMATCH: {failure}")
                return 1
            nonzero = [(r.i, r.value) for r in results if r.value]
            if not nonzero and not args.all:
                continue
            body = "  ".join(f"{i}: {d:+d}" for i, d in nonzero) or "-"
            print(
                f"{format_partition(mu):>14} {math.prod(mu):>6} {order_of_type(mu):>5}  {body}"
            )
    return 0


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout early, as `| head` does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141  # 128 + SIGPIPE
    sys.exit(code)
