"""Tests of the benchmark itself: a wrong answer is counted, never hidden.

    python3 -m pytest perfbench

Each test injects a wrong answer into one public call and checks that the
query fails, that the others still pass, and that the run's result counts it.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import altchar  # noqa: E402
import pytest  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from worker import execute  # noqa: E402


def failures(records):
    return {key: reason for key, _, reason, _ in records if reason is not None}


def test_inputs_depend_only_on_the_seed():
    for build in (workloads.vectors, workloads.global_, workloads.tables):
        assert [q.key for q in build(5)] == [q.key for q in build(5)]
    assert [q.key for q in workloads.vectors(5)] != [q.key for q in workloads.vectors(6)]


def test_a_wrong_vector_is_counted(monkeypatch):
    queries = [q for q in workloads.vectors(3) if q.key.startswith("sn")]
    queries = sorted(queries, key=lambda q: len(q.key))[:6]
    victim = queries[2].key
    real = altchar.sn_multiplicity_vector

    def wrong(lam, mu):
        vec = real(lam, mu)
        if f"sn {workloads.fmt(lam)} @ {workloads.fmt(mu)}" == victim:
            entries = list(vec.entries)
            entries[0] += 1
            vec = dataclasses.replace(vec, entries=tuple(entries))
        return vec

    monkeypatch.setattr(altchar, "sn_multiplicity_vector", wrong)
    records = execute(queries)
    assert list(failures(records)) == [victim]
    assert "sum" in failures(records)[victim]


def test_split_halves_must_add_up(monkeypatch):
    queries = workloads.vectors(3)
    start = next(i for i, q in enumerate(queries) if q.key.startswith("an"))
    group = queries[start - 1:start + 2]  # the S_n vector and its two halves
    real = altchar.an_multiplicity_vector

    def swapped(rep, cls):  # moves one eigenvalue between entries: sums stay right
        vec = real(rep, cls)
        entries = list(vec.entries)
        if cls.tag == "-" and len(entries) > 1 and entries[0]:
            entries[0] -= 1
            entries[1] += 1
        return dataclasses.replace(vec, entries=tuple(entries))

    monkeypatch.setattr(altchar, "an_multiplicity_vector", swapped)
    reasons = failures(execute(group))
    assert list(reasons) == [group[2].key]
    assert "split halves" in reasons[group[2].key]


def test_a_wrong_table_is_counted(monkeypatch):
    queries = [workloads._table_query(n) for n in (4, 5, 6, 7)]
    real = altchar.character_table_an

    def wrong(n, bound):
        table = real(n, bound=bound)
        if n != 6:
            return table
        values = [list(row) for row in table.values]
        values[-1][-1] = altchar.QuadValue.whole(values[-1][-1].a // 2 + 1)
        return dataclasses.replace(table, values=tuple(map(tuple, values)))

    monkeypatch.setattr(altchar, "character_table_an", wrong)
    assert list(failures(execute(queries))) == ["table 6"]


def test_a_wrong_global_verdict_is_counted(monkeypatch):
    queries = [q for q in workloads.global_(3) if sum(map(int, q.key.split()[1].split(","))) <= 9]
    real = altchar.global_brute_force

    def wrong(mu, bound):
        verdict = real(mu, bound=bound)
        if mu == (5, 3, 1):
            verdict = dataclasses.replace(verdict, is_global=not verdict.is_global)
        return verdict

    monkeypatch.setattr(altchar, "global_brute_force", wrong)
    assert list(failures(execute(queries))) == ["global 5,3,1"]


def test_wrong_cli_output_and_exit_code_are_counted():
    args = workloads.GOLDEN_CASES["swanson_n6.json"]
    golden = (workloads.GOLDEN_DIR / "swanson_n6.json").read_text()
    queries = [
        workloads._cli_query("right", args, 0, golden),
        workloads._cli_query("wrong bytes", args, 0, golden.replace("6", "7", 1)),
        workloads._cli_query("wrong code", args, 2, ""),
    ]
    assert sorted(failures(execute(queries))) == ["wrong bytes", "wrong code"]


def test_a_raising_call_and_a_changed_digest_are_counted():
    raising = workloads.Query("raises", lambda: 1 // 0, lambda out, _: None, str)
    fine = workloads.Query("fine", lambda: 7, lambda out, _: None, str)
    expected = {"fine": workloads.digest("8"), "raises": None}
    reasons = failures(execute([raising, fine], expected))
    assert reasons["raises"].startswith("raised ZeroDivisionError")
    assert "digest" in reasons["fine"]


def test_the_result_line_counts_failures():
    records = [["a", 0.5, None, None], ["b", 0.25, "wrong", None]]
    line = run.result_line(records, {"setup_s": {"value": 0.1, "unit": "s"}})
    assert line == {"correct": False, "attempted": 2, "failed": 1,
                    "metrics": {"setup_s": {"value": 0.1, "unit": "s"}}}
    metrics, _ = run.end_to_end([{"records": records, "peak_rss_kb": 1024}], [0.1])
    assert metrics["queries_per_s"] == pytest.approx(1 / 0.75)
