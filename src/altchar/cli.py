"""Command-line front end.

Every subcommand prints one output record -- command echo, inputs, results,
provenance -- as human-readable text (default), JSON, or CSV.  JSON output is
byte-identical across runs for identical inputs; wall-clock timing is only
attached when --timing is passed.  Exit codes: 0 success, 1 internal check
failure, 2 bad input, 141 when stdout is closed before the output is written.

Every partition-valued option (--irrep, --class, --mu) is read by
characters.parse_label and validated once, in _operands, before any
engine runs.

main(argv) can be called again and again in one process: it builds its
parser once, on the first call (not at import), and no option, default or
output format carries over from one call to the next.  Only the second and
later calls in a process skip the build; the altchar console script calls
main once per process, so each shell run still builds the parser.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import dataclass
from functools import cache

from .acceptance import ALL_CRITERIA, run_criteria
from .characters import (
    TABLE_BOUND,
    TAG_PLUS,
    AnClass,
    AnIrrep,
    character_table_an,
    class_splits,
    irrep_splits,
    parse_label,
)
from .classify import (
    invariant_failure_an,
    invariant_failure_sn,
    n_cycle_gaps,
    unisingular_an,
    unisingular_sn,
)
from .global_classes import BRUTE_FORCE_BOUND, global_brute_force, is_global_class
from .multiplicity import (
    an_multiplicity_vector,
    bias_vector,
    power_conjugacy,
    sn_multiplicity_vector,
)
from .partitions import InvalidPartitionError, format_partition

CLOSED_FORM_BOUND = 30


class CliError(Exception):
    """Bad input or an out-of-range request; maps to exit code 2."""


@dataclass
class Output:
    record: dict
    csv_header: list[str]
    csv_rows: list[list]
    text: list[str]
    exit_code: int = 0


def _record(command: str, inputs: dict, results, provenance: str) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "results": results,
        "provenance": provenance,
    }


def _check_bound(n: int, bound: int, what: str, args) -> None:
    if n > bound and not args.unsafe_bounds:
        raise CliError(
            f"n={n} exceeds the {what} bound ({bound}); pass --unsafe-bounds to force"
        )


def _operands(args, either_half: bool = False) -> list:
    """Parse the partition-valued options of args, each one validated once.

    The options present among --irrep, --class and --mu are read, in that
    order, by characters.parse_label.  Every operand must be a partition of
    some n >= 1 within the closed-form bound, and all must share that n.
    Split tags are accepted only with --group an, where each operand becomes
    an AnIrrep or AnClass; elsewhere it stays a plain partition.  Each
    operand yields one value.  With either_half set, an untagged shape or
    type that splits is read as its plus half, for callers whose answer
    reads no split tag.
    """
    an = getattr(args, "group", None) == "an"
    labels = []
    for option, attr, kind in (
        ("--irrep", "irrep", AnIrrep),
        ("--class", "cls", AnClass),
        ("--mu", "mu", AnClass),
    ):
        text = getattr(args, attr, None)
        if text is None:
            continue
        parts, tag = parse_label(text)
        if not parts:
            raise CliError(f"{option} is empty; it must be a partition of some n >= 1")
        if tag and not an:
            raise CliError("split tags only make sense with --group an")
        labels.append((parts, tag, kind))
    n = sum(labels[0][0])
    _check_bound(n, CLOSED_FORM_BOUND, "closed-form", args)
    if any(sum(parts) != n for parts, _, _ in labels):
        raise CliError("the shape and the cycle type must partition the same n")
    if not an:
        return [parts for parts, _, _ in labels]
    splits = {AnIrrep: irrep_splits, AnClass: class_splits}
    return [
        kind(parts, TAG_PLUS if either_half and not tag and splits[kind](parts) else tag)
        for parts, tag, kind in labels
    ]


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_eigmult(args) -> Output:
    inputs = {"group": args.group, "irrep": args.irrep, "class": args.cls, "index": args.i}
    irrep, cls = _operands(args)
    engine = sn_multiplicity_vector if args.group == "sn" else an_multiplicity_vector
    vec = engine(irrep, cls)
    results = vec.json_dict()
    text = [f"eigenvalue multiplicities for {vec.owner[0]} at class {vec.owner[1]} (order {vec.m})"]
    if args.i is None:
        rows = [[i, a] for i, a in enumerate(vec.entries)]
        text.append("  " + " ".join(str(a) for a in vec.entries))
    else:
        k = args.i % vec.m
        results["index"], results["entry"] = k, vec.entries[k]
        rows = [[k, vec.entries[k]]]
        text.append(f"  a_{k} = {vec.entries[k]}")
    return Output(
        _record("eigmult", inputs, results, "divisor-sum engine over power classes"),
        ["index", "multiplicity"],
        rows,
        text,
    )


def _cmd_bias(args) -> Output:
    [mu] = _operands(args)
    inputs = {"mu": args.mu, "index": args.i}
    results = bias_vector(mu)
    if args.i is not None:
        results = [results[args.i % len(results)]]
    payload = {"mu": format_partition(mu), "values": [r.json_dict() for r in results]}
    rows = [[r.i, r.value, r.abs_formula] for r in results]
    text = [f"split bias for cycle type ({format_partition(mu)})"]
    for r in results:
        text.append(f"  i={r.i}: d = {r.value} (|d| = {r.abs_formula})")
    return Output(
        _record("bias", inputs, payload, "closed-form product over prime-power Gauss sums"),
        ["index", "value", "abs"],
        rows,
        text,
    )


def _cmd_invariant(args) -> Output:
    inputs = {"group": args.group, "irrep": args.irrep, "class": args.cls}
    irrep, cls = _operands(args, either_half=True)
    if args.group == "sn":
        rule = invariant_failure_sn(irrep, cls)
        labels = (format_partition(irrep), format_partition(cls))
    else:
        rule = invariant_failure_an(irrep, cls)
        labels = (args.irrep, args.cls)
    verdict = rule is None
    results = {"has_invariant": verdict, "rule": rule}
    text = [
        f"{labels[0]} has {'an' if verdict else 'no'} invariant vector at class {labels[1]}"
        + (f"  [{rule}]" if rule else "")
    ]
    return Output(
        _record("invariant", inputs, results, "exception catalog: families plus sporadic pairs"),
        ["irrep", "class", "has_invariant", "rule"],
        [[labels[0], labels[1], verdict, rule or ""]],
        text,
    )


def _cmd_unisingular(args) -> Output:
    inputs = {"group": args.group, "irrep": args.irrep}
    [irrep] = _operands(args, either_half=True)
    if args.group == "sn":
        verdict = unisingular_sn(irrep)
        label = format_partition(irrep)
    else:
        verdict = unisingular_an(irrep)
        label = args.irrep
    results = {"unisingular": verdict}
    text = [f"{label} is {'unisingular' if verdict else 'not unisingular'}"]
    return Output(
        _record("unisingular", inputs, results, "exception catalog: families plus sporadic pairs"),
        ["irrep", "unisingular"],
        [[label, verdict]],
        text,
    )


def _cmd_swanson(args) -> Output:
    _check_bound(args.n, CLOSED_FORM_BOUND, "closed-form", args)
    if args.n < 2:
        raise CliError("the gap catalog needs n >= 2")
    gaps = n_cycle_gaps(args.n)
    inputs = {"n": args.n}
    results = {
        "n": args.n,
        "gaps": [
            {"shape": format_partition(g.lam), "index": g.i, "rule": g.rule} for g in gaps
        ],
    }
    rows = [[format_partition(g.lam), g.i, g.rule] for g in gaps]
    text = [f"missing eigenvalues of {args.n}-cycles ({len(gaps)} gaps)"]
    for g in gaps:
        text.append(f"  shape ({format_partition(g.lam)}) misses i={g.i}  [{g.rule}]")
    return Output(
        _record("swanson", inputs, results, "n-cycle gap catalog, families plus sporadic pairs"),
        ["shape", "index", "rule"],
        rows,
        text,
    )


def _cmd_power_conj(args) -> Output:
    [mu] = _operands(args)
    verdict = power_conjugacy(mu, args.i)
    inputs = {"mu": args.mu, "index": args.i}
    results = {"mu": format_partition(mu), "index": args.i, "verdict": verdict}
    word = "Same" if verdict == "same" else "Swapped"
    text = [f"w^{args.i} lands in the {word.lower()} split half as w for type ({format_partition(mu)})"]
    return Output(
        _record("power-conj", inputs, results, "quadratic-residue verdict on the part product"),
        ["mu", "index", "verdict"],
        [[format_partition(mu), args.i, word]],
        text,
    )


def _cmd_global(args) -> Output:
    [mu] = _operands(args)
    n = sum(mu)
    closed = is_global_class(mu)
    attach_brute = args.verify or closed.is_global is None
    brute = None
    if attach_brute:
        if n <= BRUTE_FORCE_BOUND or args.unsafe_bounds:
            brute = global_brute_force(mu, bound=n if args.unsafe_bounds else BRUTE_FORCE_BOUND)
        elif args.verify:
            raise CliError(
                f"brute force needs n <= {BRUTE_FORCE_BOUND} (n={n}); pass --unsafe-bounds to force"
            )
    inputs = {"mu": args.mu, "verify": args.verify}
    results = {"closed_form": closed.json_dict(), "brute_force": None if brute is None else brute.json_dict()}
    if closed.is_global is None:
        headline = "undecided by the classified family"
    else:
        headline = "global" if closed.is_global else "not global"
    text = [f"cycle type ({format_partition(mu)}): {headline}  [{closed.rule}]"]
    if brute is not None:
        text.append(
            f"  brute force: {'global' if brute.is_global else 'not global'}"
            + (f", least-hit irrep {brute.witness[0]} with multiplicity {brute.witness[1]}" if brute.witness else "")
            + f"  [{brute.method}]"
        )
    rows = [[
        format_partition(mu),
        closed.is_global,
        closed.rule,
        "" if brute is None else brute.is_global,
        "" if brute is None or brute.witness is None else brute.witness[0],
        "" if brute is None or brute.witness is None else brute.witness[1],
    ]]
    return Output(
        _record("global", inputs, results, "odd-parts-none-thrice classification with finite exception list"),
        ["mu", "is_global", "rule", "brute_force", "witness_irrep", "witness_multiplicity"],
        rows,
        text,
    )


def _cmd_chartable(args) -> Output:
    _check_bound(args.n, TABLE_BOUND, "table", args)
    if args.n < 1:
        raise CliError("n must be positive")
    table = character_table_an(args.n, bound=max(args.n, TABLE_BOUND))
    inputs = {"n": args.n}
    results = table.json_dict()
    header = ["irrep", *(c.label() for c in table.classes)]
    rows = [
        [rep.label(), *(str(v) for v in row)]
        for rep, row in zip(table.irreps, table.values)
    ]
    widths = [max(len(str(r[k])) for r in ([header] + rows)) for k in range(len(header))]
    text = [f"character table of the alternating group on {args.n} points"]
    for r in [header] + rows:
        text.append("  " + "  ".join(str(v).rjust(w) for v, w in zip(r, widths)))
    return Output(
        _record("chartable", inputs, results, "border-strip recursion with split-class square roots"),
        header,
        rows,
        text,
    )


def _cmd_selftest(args) -> Output:
    if args.criteria:
        try:
            numbers = sorted({int(tok) for tok in args.criteria.split(",")})
        except ValueError as exc:
            raise CliError(f"bad criteria list {args.criteria!r}") from exc
        unknown = [k for k in numbers if k not in ALL_CRITERIA]
        if unknown:
            raise CliError(f"unknown criteria {unknown}; valid: {list(ALL_CRITERIA)}")
    else:
        numbers = list(ALL_CRITERIA)
    outcomes = run_criteria(numbers)
    inputs = {"criteria": numbers}
    results = {
        "passed": sum(r.ok for r in outcomes),
        "failed": sum(not r.ok for r in outcomes),
        "checks": [
            {"criterion": r.number, "name": r.name, "ok": r.ok, "detail": r.detail}
            for r in outcomes
        ],
    }
    if args.timing:
        for entry, r in zip(results["checks"], outcomes):
            entry["seconds"] = round(r.seconds, 3)
    rows = [[r.number, r.name, r.ok, r.detail] for r in outcomes]
    text = [r.line(timing=args.timing) for r in outcomes]
    text.append(f"{results['passed']} passed, {results['failed']} failed")
    return Output(
        _record("selftest", inputs, results, "acceptance checklist"),
        ["criterion", "name", "ok", "detail"],
        rows,
        text,
        exit_code=0 if results["failed"] == 0 else 1,
    )


# ---------------------------------------------------------------------------
# parser and dispatch


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one argument parser of the process, built on the first call.

    Argparse reads sys.stdout, sys.stderr and the terminal width when it
    prints, not when it is built, and parse_args returns a fresh Namespace
    each time, so every main call can share it.
    """
    parser = argparse.ArgumentParser(
        prog="altchar",
        description="Eigenvalue multiplicities and split characters of alternating groups.",
    )
    parser.add_argument("--format", choices=("text", "json", "csv"), default="text")
    parser.add_argument("--timing", action="store_true", help="attach wall-clock timing")
    parser.add_argument(
        "--unsafe-bounds", action="store_true", help="lift the built-in size guards"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("eigmult", help="eigenvalue multiplicity vector or one entry")
    p.add_argument("--group", choices=("sn", "an"), required=True)
    p.add_argument("--irrep", required=True, help="shape, e.g. 4,3,1 or 2,1:+")
    p.add_argument("--class", dest="cls", required=True, help="cycle type, e.g. 5,3 or 5,3:-")
    p.add_argument("--i", type=int, default=None, help="single eigenvalue index")
    p.set_defaults(handler=_cmd_eigmult)

    p = sub.add_parser("bias", help="split bias d between the two class halves")
    p.add_argument("--mu", required=True, help="distinct-odd cycle type, e.g. 15,9,3")
    p.add_argument("--i", type=int, default=None)
    p.set_defaults(handler=_cmd_bias)

    p = sub.add_parser("invariant", help="does the class element fix a vector?")
    p.add_argument("--group", choices=("sn", "an"), required=True)
    p.add_argument("--irrep", required=True)
    p.add_argument("--class", dest="cls", required=True)
    p.set_defaults(handler=_cmd_invariant)

    p = sub.add_parser("unisingular", help="does every group element fix a vector?")
    p.add_argument("--group", choices=("sn", "an"), required=True)
    p.add_argument("--irrep", required=True)
    p.set_defaults(handler=_cmd_unisingular)

    p = sub.add_parser("swanson", help="missing eigenvalues of an n-cycle")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_swanson)

    p = sub.add_parser("power-conj", help="is w^i conjugate to w inside the alternating group?")
    p.add_argument("--mu", required=True, help="distinct-odd cycle type")
    p.add_argument("--i", type=int, required=True, help="exponent coprime to the element order")
    p.set_defaults(handler=_cmd_power_conj)

    p = sub.add_parser("global", help="does the class generate every irreducible?")
    p.add_argument("--mu", required=True)
    p.add_argument("--verify", action="store_true", help="attach the brute-force verdict")
    p.set_defaults(handler=_cmd_global)

    p = sub.add_parser("chartable", help="exact character table of an alternating group")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_chartable)

    p = sub.add_parser("selftest", help="run the acceptance checklist")
    p.add_argument("--criteria", default="", help="comma-separated subset, e.g. 1,4,6")
    p.set_defaults(handler=_cmd_selftest)

    return parser


def _emit(out: Output, fmt: str, timing: bool, seconds: float) -> None:
    if fmt == "json":
        record = dict(out.record)
        if timing:
            record["timing_seconds"] = round(seconds, 6)
        sys.stdout.write(json.dumps(record, indent=2) + "\n")
    elif fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(out.csv_header)
        for row in out.csv_rows:
            writer.writerow(["" if v is None else v for v in row])
    else:
        for line in out.text:
            sys.stdout.write(line + "\n")
        if timing:
            sys.stdout.write(f"# elapsed {seconds:.3f}s\n")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    start = time.perf_counter()
    try:
        out = args.handler(args)
    except (CliError, InvalidPartitionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 1
    try:
        _emit(out, args.format, args.timing, time.perf_counter() - start)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout early, as `| head` does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE
    return out.exit_code


if __name__ == "__main__":
    sys.exit(main())
