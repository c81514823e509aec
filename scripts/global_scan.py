#!/usr/bin/env python3
"""Scan alternating-group cycle types for global conjugacy classes.

Walks every even-permutation cycle type up to a weight bound, prints the
closed-form verdict where the classification applies, and (within the
brute-force range) the character-sum verdict with its least-hit irreducible.

    python3 scripts/global_scan.py --max-n 11 --only-qualifying
"""

import argparse
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from altchar.characters import in_alternating
from altchar.global_classes import (
    BRUTE_FORCE_BOUND,
    global_brute_force,
    is_global_class,
    qualifies,
)
from altchar.partitions import format_partition, partitions


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=BRUTE_FORCE_BOUND)
    ap.add_argument("--min-n", type=int, default=2)
    ap.add_argument("--only-qualifying", action="store_true")
    args = ap.parse_args()

    mismatches = 0
    start = time.perf_counter()
    print(f"{'type':>14} {'closed':>9} {'brute':>7}  least-hit irrep")
    for n in range(args.min_n, args.max_n + 1):
        for mu in partitions(n):
            if not in_alternating(mu):
                continue
            if args.only_qualifying and not qualifies(mu):
                continue
            closed = is_global_class(mu)
            closed_word = {True: "global", False: "not", None: "open"}[closed.is_global]
            if n <= BRUTE_FORCE_BOUND:
                brute = global_brute_force(mu)
                brute_word = "global" if brute.is_global else "not"
                witness = f"{brute.witness[0]} ({brute.witness[1]})"
                if closed.is_global is not None and closed.is_global != brute.is_global:
                    witness += "  <-- MISMATCH"
                    mismatches += 1
            else:
                brute_word, witness = "-", "-"
            print(f"{format_partition(mu):>14} {closed_word:>9} {brute_word:>7}  {witness}")
    elapsed = time.perf_counter() - start
    print(f"# {elapsed:.2f}s, {mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout early, as `| head` does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141  # 128 + SIGPIPE
    sys.exit(code)
