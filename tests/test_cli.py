import csv
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import pytest
from jsonschema import validate

import altchar
from altchar import characters, cli
from altchar.acceptance import ALL_CRITERIA
from altchar.characters import QuadValue, class_splits, irrep_splits
from altchar.cli import main
from altchar.partitions import parse_partition
from conftest import run_with_closed_stdout

GOLDEN_DIR = Path(__file__).parent / "golden"

with (resources.files("altchar") / "schema" / "output.schema.json").open() as fh:
    SCHEMA = json.load(fh)


def run_cli(*argv: str):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


# every subcommand appears at least once
GOLDEN_CASES = {
    "bias_15_9_3_i9.json": ["--format", "json", "bias", "--mu", "15,9,3", "--i", "9"],
    "eigmult_an_21p_3p.json": ["--format", "json", "eigmult", "--group", "an", "--irrep", "2,1:+", "--class", "3:+"],
    "eigmult_sn_43_52.csv": ["--format", "csv", "eigmult", "--group", "sn", "--irrep", "4,3", "--class", "5,2"],
    "invariant_44_53.json": ["--format", "json", "invariant", "--group", "an", "--irrep", "4,4", "--class", "5,3"],
    "unisingular_sign4.json": ["--format", "json", "unisingular", "--group", "sn", "--irrep", "1,1,1,1"],
    "swanson_n6.json": ["--format", "json", "swanson", "--n", "6"],
    "powerconj_73_i2.json": ["--format", "json", "power-conj", "--mu", "7,3", "--i", "2"],
    "global_3311_verify.json": ["--format", "json", "global", "--mu", "3,3,1,1", "--verify"],
    "global_44.json": ["--format", "json", "global", "--mu", "4,4"],
    "chartable_n5.json": ["--format", "json", "chartable", "--n", "5"],
    "chartable_n5.txt": ["chartable", "--n", "5"],
    "selftest_c1.json": ["--format", "json", "selftest", "--criteria", "1"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden(name):
    code, out, err = run_cli(*GOLDEN_CASES[name])
    assert code == 0, err
    path = GOLDEN_DIR / name
    if os.environ.get("UPDATE_GOLDEN"):
        path.parent.mkdir(exist_ok=True)
        path.write_text(out)
    assert out == path.read_text()
    if name.endswith(".json"):
        validate(json.loads(out), SCHEMA)


def test_json_is_deterministic():
    first = run_cli("--format", "json", "chartable", "--n", "6")
    second = run_cli("--format", "json", "chartable", "--n", "6")
    assert first == second


def test_timing_flag_keeps_the_schema():
    code, out, _ = run_cli("--format", "json", "--timing", "bias", "--mu", "5,3")
    assert code == 0
    record = json.loads(out)
    validate(record, SCHEMA)
    assert record["timing_seconds"] >= 0


def test_selftest_timing_adds_seconds_to_each_check():
    code, out, _ = run_cli("--format", "json", "--timing", "selftest", "--criteria", "1")
    assert code == 0
    record = json.loads(out)
    validate(record, SCHEMA)
    assert [sorted(c) for c in record["results"]["checks"]] == [["criterion", "detail", "name", "ok", "seconds"]]
    assert record["results"]["checks"][0]["seconds"] >= 0


def test_invariant_sn_names_its_rule():
    argv = ["invariant", "--group", "sn", "--irrep", "2,2", "--class", "3,1"]
    assert run_cli(*argv) == (0, "2,2 has no invariant vector at class 3,1  [sn:(2,2)-at-(3,1)]\n", "")
    code, out, _ = run_cli("--format", "json", *argv)
    assert code == 0
    record = json.loads(out)
    validate(record, SCHEMA)
    assert record["results"] == {"has_invariant": False, "rule": "sn:(2,2)-at-(3,1)"}


def _csv_rows(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def test_eigmult_formats_agree():
    _, jout, _ = run_cli("--format", "json", "eigmult", "--group", "sn", "--irrep", "4,3", "--class", "5,2")
    _, cout, _ = run_cli("--format", "csv", "eigmult", "--group", "sn", "--irrep", "4,3", "--class", "5,2")
    entries = json.loads(jout)["results"]["entries"]
    header, rows = _csv_rows(cout)
    assert header == ["index", "multiplicity"]
    assert [int(r[1]) for r in rows] == entries


def test_bias_formats_agree():
    _, jout, _ = run_cli("--format", "json", "bias", "--mu", "5,3,1")
    _, cout, _ = run_cli("--format", "csv", "bias", "--mu", "5,3,1")
    values = json.loads(jout)["results"]["values"]
    header, rows = _csv_rows(cout)
    assert header == ["index", "value", "abs"]
    assert [(int(r[0]), int(r[1]), int(r[2])) for r in rows] == [
        (v["i"], v["value"], v["abs"]) for v in values
    ]


def test_chartable_formats_agree():
    _, jout, _ = run_cli("--format", "json", "chartable", "--n", "5")
    _, cout, _ = run_cli("--format", "csv", "chartable", "--n", "5")
    results = json.loads(jout)["results"]
    header, rows = _csv_rows(cout)
    assert header == ["irrep"] + results["classes"]
    assert [r[0] for r in rows] == results["irreps"]
    for row, jrow in zip(rows, results["values"]):
        assert row[1:] == [str(QuadValue(v["a"], v["b"], v["D"])) for v in jrow]


def test_selftest_formats_agree():
    _, jout, _ = run_cli("--format", "json", "selftest", "--criteria", "1,6")
    _, cout, _ = run_cli("--format", "csv", "selftest", "--criteria", "1,6")
    checks = json.loads(jout)["results"]["checks"]
    _, rows = _csv_rows(cout)
    assert [(int(r[0]), r[3]) for r in rows] == [(c["criterion"], c["detail"]) for c in checks]


# --- errors and guards ------------------------------------------------------


def test_missing_tag_is_an_error():
    code, _, err = run_cli("eigmult", "--group", "an", "--irrep", "2,1", "--class", "3:+")
    assert code == 2
    assert "tag" in err or "self-conjugate" in err


def test_tag_on_a_whole_shape_is_an_error():
    code, _, err = run_cli("eigmult", "--group", "an", "--irrep", "3,1:+", "--class", "2,2")
    assert code == 2


def test_untagged_split_inputs_are_fine_for_invariant():
    code, out, _ = run_cli("--format", "json", "invariant", "--group", "an", "--irrep", "2,1:+", "--class", "3")
    assert code == 0
    assert json.loads(out)["results"]["has_invariant"] is False


def test_bad_partition_is_a_parse_error():
    code, _, err = run_cli("bias", "--mu", "3,a")
    assert code == 2
    assert "error:" in err


def test_non_coprime_power_is_a_parse_error():
    code, _, err = run_cli("power-conj", "--mu", "5,3", "--i", "3")
    assert code == 2


def test_size_guard_and_override():
    over = ("eigmult", "--group", "sn", "--irrep", "31", "--class", "31")
    code, _, err = run_cli(*over)
    assert code == 2 and "--unsafe-bounds" in err
    code, out, _ = run_cli("--format", "json", "--unsafe-bounds", *over)
    assert code == 0
    entries = json.loads(out)["results"]["entries"]
    assert entries[0] == 1 and sum(entries) == 1
    code, out, err = run_cli(*over)  # the override does not carry over
    assert (code, out) == (2, "") and "--unsafe-bounds" in err


def test_table_guard():
    code, _, err = run_cli("chartable", "--n", "15")
    assert code == 2


def test_brute_force_guard():
    code, _, err = run_cli("global", "--mu", "13,9,3", "--verify")
    assert code == 2 and "brute force" in err


def test_unknown_subcommand_exits_2():
    code, _, _ = run_cli("frobnicate")
    assert code == 2


def test_global_out_of_scope_attaches_brute_force():
    code, out, _ = run_cli("--format", "json", "global", "--mu", "2,2")
    assert code == 0
    record = json.loads(out)
    assert record["results"]["closed_form"]["is_global"] is None
    assert record["results"]["brute_force"]["is_global"] is False
    assert record["results"]["brute_force"]["witness"]["multiplicity"] == 0


def test_closed_stdout_exits_141():
    """A reader that goes away early, as `| head` does, is no internal failure."""
    code, err = run_with_closed_stdout(
        ["-m", "altchar.cli", "--format", "csv", "eigmult", "--group", "sn",
         "--irrep", "20,5,3,2", "--class", "13,11,3,3"]
    )
    assert code == 141, err
    assert "Traceback" not in err


# --- one parser, many calls ------------------------------------------------


def _env_with_src() -> dict:
    """The environment with this checkout's altchar first on PYTHONPATH, for child interpreters."""
    src = str(Path(altchar.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _golden(name: str) -> tuple[int, str, str]:
    return 0, (GOLDEN_DIR / name).read_text(), ""


def test_the_parser_is_built_once_on_the_first_call():
    """Import builds no parser; the first main call builds the top-level one
    and one per subcommand (ten), and later calls build none."""
    assert cli.build_parser() is cli.build_parser()
    script = """
import argparse, contextlib, io
built = []
init = argparse.ArgumentParser.__init__
def counting_init(self, *args, **kwargs):
    built.append(self)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting_init
import altchar.cli
at_import = len(built)
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [altchar.cli.main(argv) for argv in (["swanson", "--n", "6"], ["bias", "--mu", "3,a"], ["frobnicate"])]
print(at_import, len(built), codes)
"""
    env = _env_with_src()
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 10 [0, 2, 2]\n"


@pytest.mark.parametrize(
    "first, name",
    [
        (["--format", "json", "chartable", "--n", "5"], "chartable_n5.txt"),
        (["--format", "json", "global", "--mu", "4,4", "--verify"], "global_44.json"),
        (["--format", "json", "eigmult", "--group", "sn", "--irrep", "4,3", "--class", "5,2", "--i", "3"],
         "eigmult_sn_43_52.csv"),
        (["--timing", "--format", "csv", "bias", "--mu", "15,9,3"], "bias_15_9_3_i9.json"),
    ],
    ids=["format", "verify", "index", "timing"],
)
def test_options_do_not_carry_over(first, name):
    assert run_cli(*first)[0] == 0
    assert run_cli(*GOLDEN_CASES[name]) == _golden(name)


@pytest.mark.parametrize(
    "bad",
    [["bias", "--mu", "3,a"], ["frobnicate"], ["bias"], ["--format", "xml", "swanson", "--n", "6"]],
    ids=["handler-error", "unknown-subcommand", "missing-option", "bad-choice"],
)
def test_a_bad_call_leaves_the_next_one_intact(bad):
    code, out, err = run_cli(*bad)
    assert (code, out) == (2, "") and "error:" in err
    assert run_cli(*GOLDEN_CASES["bias_15_9_3_i9.json"]) == _golden("bias_15_9_3_i9.json")


@pytest.mark.parametrize("argv", [["--help"], ["global", "--help"]], ids=["top", "subcommand"])
def test_help_then_a_normal_call(argv):
    code, out, err = run_cli(*argv)
    assert (code, err) == (0, "") and out.startswith("usage: altchar")
    assert run_cli(*argv) == (code, out, err)
    assert run_cli(*GOLDEN_CASES["swanson_n6.json"]) == _golden("swanson_n6.json")


def test_selftest_checks_survive_optimized_mode():
    """Exactness checks raise InternalCheckError, so -O strips none of them."""
    env = _env_with_src()
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "altchar.cli", "--format", "json", "selftest"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["results"]["passed"] == len(ALL_CRITERIA)


def test_irrational_inner_product_exits_1(monkeypatch):
    """A character sum whose radical parts fail to cancel is an internal fault."""
    monkeypatch.setattr(characters, "_an_value", lambda rep, cls, value: QuadValue(1, 1, 5))
    code, out, err = run_cli("global", "--mu", "5,3", "--verify")  # tally holds (5,3):+ and (5,3):-
    assert code == 1
    assert out == ""
    assert err.startswith("internal check failed: radical parts did not cancel")


# --- the operand path -------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["eigmult", "--group", "an", "--irrep", "2,1:x", "--class", "3:+"], id="bad-tag"),
        pytest.param(["eigmult", "--group", "sn", "--irrep", "2,1:+", "--class", "3"], id="tag-with-sn"),
        pytest.param(["invariant", "--group", "sn", "--irrep", "2,1", "--class", "3:-"], id="class-tag-with-sn"),
        pytest.param(["bias", "--mu", "5,3:+"], id="tag-on-mu"),
        pytest.param(["eigmult", "--group", "an", "--irrep", "2,1", "--class", "3:+"], id="missing-irrep-tag"),
        pytest.param(["eigmult", "--group", "an", "--irrep", "2,1:+", "--class", "3"], id="missing-class-tag"),
        pytest.param(["eigmult", "--group", "an", "--irrep", "3,1:+", "--class", "2,2"], id="tag-on-whole-shape"),
        pytest.param(["invariant", "--group", "an", "--irrep", "3,1", "--class", "2,2:-"], id="tag-on-whole-class"),
        pytest.param(["eigmult", "--group", "sn", "--irrep", "4,3", "--class", "5,1"], id="n-mismatch"),
        pytest.param(["invariant", "--group", "an", "--irrep", "2,1:+", "--class", "5"], id="an-n-mismatch"),
        pytest.param(["unisingular", "--group", "sn", "--irrep", "31"], id="size-guard"),
        pytest.param(["power-conj", "--mu", "31", "--i", "2"], id="mu-size-guard"),
        pytest.param(["bias", "--mu", ""], id="empty-bias"),
        pytest.param(["power-conj", "--mu", "", "--i", "1"], id="empty-power-conj"),
        pytest.param(["global", "--mu", ""], id="empty-global"),
        pytest.param(["eigmult", "--group", "sn", "--irrep", "", "--class", ""], id="empty-eigmult-sn"),
        pytest.param(["eigmult", "--group", "an", "--irrep", "", "--class", ""], id="empty-eigmult-an"),
        pytest.param(["invariant", "--group", "sn", "--irrep", "", "--class", ""], id="empty-invariant"),
        pytest.param(["invariant", "--group", "an", "--irrep", "2,1", "--class", ""], id="empty-class"),
        pytest.param(["unisingular", "--group", "an", "--irrep", ""], id="empty-unisingular"),
        pytest.param(["unisingular", "--group", "an", "--irrep", ":+"], id="empty-tagged"),
        pytest.param(["selftest", "--criteria", "1,x"], id="bad-criteria-list"),
        pytest.param(["selftest", "--criteria", "1,12"], id="unknown-criterion"),
    ],
)
def test_operand_errors_exit_2(argv):
    code, out, err = run_cli(*argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_missing_tag_message_keeps_the_label_form():
    _, _, err = run_cli("eigmult", "--group", "an", "--irrep", "2,1", "--class", "3:+")
    assert err == "error: shape 2,1 is self-conjugate; a ':+' or ':-' tag is required\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["global", "--mu", "2,1"], "cycle type 2,1 is odd, not an alternating class"),
        (["bias", "--mu", "4,2"], "bias is defined for distinct odd parts only: 4,2"),
    ],
    ids=["global", "bias"],
)
def test_error_messages_print_partitions_as_labels(argv, message):
    code, out, err = run_cli(*argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "group, irrep, cls",
    [("sn", "4,3", "5,2"), ("an", "3,3,2:+", "5,3:-"), ("an", "4,1", "3,1,1")],
)
@pytest.mark.parametrize("k", [0, 4, -1, -7, 15, 37])
def test_eigmult_entry_is_the_vector_entry(group, irrep, cls, k):
    argv = ["--format", "json", "eigmult", "--group", group, "--irrep", irrep, "--class", cls]
    _, whole, _ = run_cli(*argv)
    code, single, _ = run_cli(*argv, "--i", str(k))
    assert code == 0
    entries = json.loads(whole)["results"]["entries"]
    results = json.loads(single)["results"]
    assert results["index"] == k % len(entries)
    assert results["entry"] == entries[k % len(entries)]


def _halves(label: str, tagged: bool) -> list[str]:
    return [label + ":+", label + ":-"] if tagged else [label]


@pytest.mark.parametrize(
    "irrep, cls",
    [("2,1", "3"), ("4,4", "5,3"), ("3,3,2", "5,3"), ("3,3,2", "7,1"), ("2,2", "3,1"), ("5,1", "3,3")],
)
def test_untagged_split_label_answers_for_both_halves(irrep, cls):
    def verdict(*argv):
        code, out, err = run_cli("--format", "json", *argv)
        assert code == 0, err
        return json.loads(out)["results"]

    untagged = verdict("invariant", "--group", "an", "--irrep", irrep, "--class", cls)
    for r in _halves(irrep, irrep_splits(parse_partition(irrep))):
        for c in _halves(cls, class_splits(parse_partition(cls))):
            assert verdict("invariant", "--group", "an", "--irrep", r, "--class", c) == untagged
    single = verdict("unisingular", "--group", "an", "--irrep", irrep)
    for r in _halves(irrep, irrep_splits(parse_partition(irrep))):
        assert verdict("unisingular", "--group", "an", "--irrep", r) == single
