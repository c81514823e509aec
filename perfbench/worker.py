"""One benchmark round, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED MODE SPANS_PATH

Imports altchar.cli, builds the workload's inputs from the seed and prints
"ready"; run.py times set-up up to that line.  Then it issues every query
once, each after the last one completes, checks each output, and prints one
JSON line with a record per query.  MODE is 0 for a plain round and
"setup" for a round that ends at "ready"; with 1 the layers are wrapped and
the spans are appended to SPANS_PATH; with "digests" every output digest is recorded
and none is compared.

Run with PYTHONPATH holding the repository's src directory.
"""

from __future__ import annotations

import json
import os
import resource
import sys
from time import perf_counter

import workloads
from workloads import Query


def execute(queries: list[Query], expected: dict | None = None, tracer=None,
            want_digests: bool = False) -> list[list]:
    """Run the queries in order; one record [key, seconds, failure, digest] each.

    A query fails when its call raises, its check fails, or (with `expected`)
    its output digest differs from the recorded one.  Failures are recorded,
    never raised.
    """
    kept: dict = {}
    records = []
    for q in queries:
        if tracer is not None:
            tracer.query, tracer.active = q.key, True
        start = perf_counter()
        try:
            out, failure = q.call(), None
        except Exception as exc:  # a failed query is counted, not fatal
            out, failure = None, f"raised {type(exc).__name__}: {exc}"
        seconds = perf_counter() - start
        if tracer is not None:
            tracer.active = False
        if failure is None:
            try:
                failure = q.check(out, kept)
            except Exception as exc:
                failure = f"check raised {type(exc).__name__}: {exc}"
        digest = None
        if failure is None and (expected is not None or want_digests):
            digest = workloads.digest(q.canon(out))
            if expected is not None and expected.get(q.key) != digest:
                failure = "output digest differs from the recorded one"
        if q.keep:
            kept[q.key] = out
        records.append([q.key, seconds, failure, digest])
    return records


def main(argv: list[str]) -> int:
    workload, seed, mode, spans_path = argv[0], int(argv[1]), argv[2], argv[3]
    trace = mode == "1"
    protocol, sys.stdout = sys.stdout, sys.stderr  # stray prints stay off the protocol

    start = perf_counter()
    import altchar.cli  # noqa: F401  (set-up: the import a user pays)

    import_s = perf_counter() - start
    queries = workloads.BUILDERS[workload](seed)
    protocol.write("ready\n")
    protocol.flush()
    if mode == "setup":
        return 0

    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    compare = seed == workloads.DEFAULT_SEED and mode != "digests"
    expected = workloads.recorded_digests(workload) if compare else None
    records = execute(queries, expected, tracer, want_digests=mode == "digests")

    result = {
        "import_s": import_s,
        "records": records,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": None,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        with open(spans_path, "a") as fh:  # one file for all rounds of a run
            for span in tracer.spans:
                fh.write(json.dumps([os.getpid(), *span]) + "\n")
    protocol.write(json.dumps(result) + "\n")
    protocol.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
