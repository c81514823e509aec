"""Benchmark of the altchar library and CLI; see perfbench/README.md.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  A run is a closed loop of rounds: each round
is a fresh interpreter (worker.py) that imports altchar, builds the
workload's inputs from the seed, and issues its queries one at a time,
checking every output.  Rounds repeat until S seconds have passed (at least
MIN_ROUNDS rounds and MIN_QUERIES queries).  With --trace 0 the run reports
the end-to-end metrics of BENCHMARK.json; with --trace 1 it alternates
plain and traced rounds and reports the per-layer metrics.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = workloads.ROOT
OUT = ROOT / ".perfbench-out"
MIN_ROUNDS = 3
MIN_QUERIES = 100
SETUP_PROBES = 2  # set-up-only workers after each round, for a steadier setup_s
ROUND_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def worker_env() -> dict:
    """The environment of every process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(workloads.SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


def run_round(workload: str, seed: int, mode: str, spans_path: Path | None = None) -> dict:
    """One worker process; its result plus setup_s, the time to its "ready" line.

    In mode "setup" the result holds setup_s alone.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode, str(spans_path or "-")]
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=ROOT,
                            start_new_session=True)

    def kill() -> None:  # the worker leads its own process group
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    watchdog = threading.Timer(ROUND_TIMEOUT_S, kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            kill()
            proc.wait()
        proc.stdout.close()
    if ready != "ready\n" or code != 0:
        raise BenchError(f"worker for {workload} exited with {code} (see stderr)")
    if mode == "setup":
        return {"setup_s": setup_s}
    result = json.loads(rest)
    result["setup_s"] = setup_s
    result["query_s"] = sum(r[1] for r in result["records"])
    return result


def preflight() -> None:
    if not (workloads.SRC / "altchar" / "__init__.py").is_file():
        raise BenchError(f"no altchar sources under {workloads.SRC}")
    # compile the sources once, so no round pays for writing bytecode
    done = subprocess.run([sys.executable, "-c", "import altchar.cli"], env=worker_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
    if done.returncode != 0:
        raise BenchError(f"altchar does not import: {done.stderr.strip()[-500:]}")


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def best_latencies(rounds: list[dict]) -> dict[str, float]:
    """Each query's fastest time over the run's rounds.

    Timing noise on a shared machine is one-sided: slow phases lasting
    seconds add time and nothing takes time away.  The fastest of several
    rounds, spread over the run, drops them.
    """
    best: dict[str, float] = {}
    for rd in rounds:
        for key, seconds, *_ in rd["records"]:
            best[key] = min(seconds, best.get(key, seconds))
    return best


def end_to_end(rounds: list[dict], setups: list[float]) -> tuple[dict, dict]:
    best = best_latencies(rounds)
    latencies = list(best.values())
    # one round's verified queries over the time of its queries at their best
    round_ok = statistics.median(sum(1 for r in rd["records"] if r[2] is None) for rd in rounds)
    round_s = statistics.median(sum(best[r[0]] for r in rd["records"]) for rd in rounds)
    return {
        "setup_s": statistics.median(setups),
        "queries_per_s": round_ok / round_s,
        "query_p50_ms": 1000 * percentile(latencies, 50),
        "query_p90_ms": 1000 * percentile(latencies, 90),
        "peak_rss_mb": statistics.median(rd["peak_rss_kb"] / 1024 for rd in rounds),
    }, best


def per_layer(pairs: list[tuple[dict, dict]]) -> dict:
    per_round = []
    for _plain, traced in pairs:
        values = tracing.layer_metrics(traced["trace"])
        values["cli.import_s"] = traced["import_s"]
        per_round.append(values)
    out = {name: statistics.median(v[name] for v in per_round) for name in per_round[0]}
    out["trace.overhead_frac"] = (
        statistics.median(t["query_s"] for _, t in pairs)
        / statistics.median(p["query_s"] for p, _ in pairs)
        - 1
    )
    return out


def result_line(records: list[list], metrics: dict) -> dict:
    """The last line of a run: its correctness, query counts and metrics."""
    failed = sum(1 for r in records if r[2] is not None)
    return {"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": metrics}


def environment() -> dict:
    rev = None
    if (ROOT / ".git").exists():  # the benchmark's own checkout may have no history
        try:
            rev = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_rev": rev,
        "src_sha256": workloads.source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "sched_nproc": len(os.sched_getaffinity(0)),
    }


def record_digests() -> int:
    """Rewrite digests.json from one round of each workload at the default seed."""
    preflight()
    table = {}
    for workload in workloads.WORKLOADS:
        records = run_round(workload, workloads.DEFAULT_SEED, "digests")["records"]
        failed = [r for r in records if r[2] is not None]
        if failed:
            raise BenchError(f"{workload}: not recording digests of failed queries {failed[:3]}")
        table[workload] = {key: digest for key, _, _, digest in records}
    workloads.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite digests.json from the current program and exit")
    args = parser.parse_args(argv)
    if args.record_digests:
        try:
            return record_digests()
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
    if args.workload is None:
        parser.error("--workload is required")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        preflight()
        OUT.mkdir(exist_ok=True)
        rounds, pairs, setups = [], [], []
        spans = OUT / f"spans-{args.workload}-s{args.seed}.jsonl"
        spans.unlink(missing_ok=True)
        start = perf_counter()
        while True:
            before = perf_counter()
            if args.trace:
                plain = run_round(args.workload, args.seed, "0")
                traced = run_round(args.workload, args.seed, "1", spans)
                pairs.append((plain, traced))
                rounds += [plain, traced]
                enough = True
            else:
                rounds.append(run_round(args.workload, args.seed, "0"))
                setups.append(rounds[-1]["setup_s"])
                for _ in range(SETUP_PROBES):
                    setups.append(run_round(args.workload, args.seed, "setup")["setup_s"])
                queries = sum(len(r["records"]) for r in rounds)
                enough = len(rounds) >= MIN_ROUNDS and queries >= MIN_QUERIES
            last = perf_counter() - before
            if enough and perf_counter() - start + last > args.seconds:
                break
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    records = [r for rd in rounds for r in rd["records"]]
    failures = [r for r in records if r[2] is not None]
    if args.trace:
        values, best = per_layer(pairs), {}
    else:
        values, best = end_to_end(rounds, setups)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    env = environment()

    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(rounds)} rounds, {len(records)} queries, {len(failures)} failed "
          f"(failed_frac {len(failures) / len(records):.4f})")
    for failure in failures[:10]:
        print(f"#   FAILED {failure[0]}: {failure[2]}")
    for name, m in metrics.items():
        note = f"  (over {len(best)} distinct queries)" if name.startswith("query_p") else ""
        print(f"# {name} = {m['value']:.6g} {m['unit']}{note}")
    print(f"# env {json.dumps(env)}")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
              "metrics": metrics, "failures": failures, "best_latency_s": best,
              "setups_s": setups,
              "rounds": [{k: v for k, v in rd.items() if k != "records"} for rd in rounds]}
    (OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result_line(records, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
