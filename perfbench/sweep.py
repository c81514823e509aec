"""Run the benchmark over several seeds and summarize every metric.

    python3 perfbench/sweep.py [--workloads vectors,tables,global,cli]
                               [--seeds 1-10] [--seconds 30] [--trace 0] [--out FILE]

Runs run.py once per workload and seed, one run at a time.  For each
metric it prints the median, the quartiles and the spread: the quartile
distance as a share of the median, as statistics.quantiles gives them.
With --out it also writes these as JSON; baseline.json was made this way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The result line of one run, with its `# env` record under "env"."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise SystemExit(f"run.py {workload} seed {seed} failed:\n{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["env"] = next(json.loads(l[len("# env "):]) for l in lines if l.startswith("# env "))
    return result


def summarize(results: list[dict]) -> dict:
    """Median, quartiles and spread of each metric over the results of one workload."""
    out = {
        "env": results[0]["env"],
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {},
    }
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        out["metrics"][name] = {
            "unit": first["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values,
        }
    return out


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="vectors,tables,global,cli")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    summary = {}
    for workload in args.workloads.split(","):
        results = [run_once(workload, seed, args.seconds, args.trace) for seed in args.seeds]
        summary[workload] = summarize(results)
        print(f"{workload}: {summary[workload]['attempted']} queries, "
              f"{summary[workload]['failed']} failed, seeds {args.seeds[0]}-{args.seeds[-1]}")
        for name, m in summary[workload]["metrics"].items():
            print(f"  {name:36s} {m['median']:12.6g} {m['unit']:6s} "
                  f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  spread {m['spread']:.3f}")
        sys.stdout.flush()
    if args.out:
        record = {"seconds": args.seconds, "seeds": args.seeds, "trace": args.trace,
                  "workloads": summary}
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
