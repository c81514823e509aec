"""Seeded inputs and output checks for the four benchmark workloads.

The inputs are built from the seed by this module's own partition code, so
the program under test sees only the generated arguments.  The seed picks
the concrete shapes and cycle types; the properties that set the cost of a
query (element order, size n, number of parts, table size) are pinned per
slot, so runs with different seeds do the same amount of work.

Every check holds for any seed and recomputes what it can (dimensions,
group orders, the rationality of S_n multiplicities) without the code path
it checks.  For DEFAULT_SEED the outputs are also compared with the digests
recorded in digests.json.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
import shlex
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN_DIR = ROOT / "tests" / "golden"
README = ROOT / "README.md"
SCHEMA = SRC / "altchar" / "schema" / "output.schema.json"
DIGESTS = Path(__file__).resolve().parent / "digests.json"

WORKLOADS = ("vectors", "tables", "global", "cli")
DEFAULT_SEED = 1

# vectors: one S_n query per slot (order m, size n, parts of the shape).
# Weighted towards large m.  Each cluster of equal m has one cost, so the
# order statistics land inside a cluster whatever the seed: p90 in the
# m = 210 cluster, the median in the m = 60 one.  No query takes much more
# than 0.1 s, so each is timed several times in a run.


def _cluster(m: int, count: int, lo: int, hi: int):
    """`count` slots of order m, sizes spread over lo..hi, shapes of 6 to 9 parts."""
    return tuple((m, lo + round(i * (hi - lo) / (count - 1)), 6 + i % 4) for i in range(count))


SN_SLOTS = (
    *_cluster(420, 3, 28, 30),
    *_cluster(210, 14, 18, 29),
    *_cluster(120, 8, 16, 28),
    *_cluster(60, 30, 16, 30),
    *_cluster(30, 16, 16, 30),
    *_cluster(24, 10, 16, 30),
    *_cluster(12, 10, 16, 30),
)
# vectors: split pairs, one per entry; the seed picks a distinct-odd cycle
# type mu of that order with 16 <= n <= 30.
SPLIT_ORDERS = (165, 105, 105, 45, 45, 15)

# tables: the seed picks TABLE_SMALL sizes below TABLE_FIXED_FROM; every size
# from there up to TABLE_TOP (past the CLI's TABLE_BOUND = 14) always runs.
TABLE_SMALL = 4
TABLE_FIXED_FROM = 11
TABLE_TOP = 18

# global: every qualifying type up to GLOBAL_TOP, plus the even types with
# large centralizers of these families: a fixed prefix and then k ones,
# lo <= k <= hi.  The seed shuffles the order within each n.
GLOBAL_TOP = 18
NONQUALIFYING_FAMILIES = (
    ((), 9, 16), ((3,), 9, 13), ((2, 2), 8, 12), ((3, 3), 8, 10), ((2, 2, 2, 2), 6, 8),
)

# golden file -> arguments; mirrors the golden table of tests/test_cli.py
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
# bad input: exit 2, nothing on stdout (size guards are left out, since
# their values are meant to move)
ERROR_CASES = (
    ["eigmult", "--group", "an", "--irrep", "2,1", "--class", "3:+"],
    ["bias", "--mu", "3,a"],
    ["power-conj", "--mu", "5,3", "--i", "3"],
)


@dataclass
class Query:
    """One public call, its check, and the canonical text of its output."""

    key: str
    call: Callable[[], object]
    # (output, outputs of earlier queries by key) -> failure reason or None
    check: Callable[[object, dict], str | None]
    canon: Callable[[object], str]
    keep: bool = False  # a later query's check reads this output


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def recorded_digests(workload: str) -> dict:
    return json.loads(DIGESTS.read_text()).get(workload, {})


def source_digest() -> str:
    """Digest of the program's sources, which names the code under test."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# partitions, independently of the program


@cache
def _count(n: int, k: int) -> int:
    """Partitions of n with every part at most k."""
    if n == 0:
        return 1
    if k == 0:
        return 0
    return _count(n, k - 1) + (_count(n - k, k) if k <= n else 0)


def _random_partition(rng: random.Random, n: int, k: int) -> tuple[int, ...]:
    """Uniform partition of n with parts at most k, largest part first."""
    parts = []
    while n:
        r = rng.randrange(_count(n, k))
        for j in range(min(n, k), 0, -1):  # largest remaining part exactly j
            if r < _count(n - j, j):
                break
            r -= _count(n - j, j)
        parts.append(j)
        n, k = n - j, j
    return tuple(parts)


def random_shape(rng: random.Random, n: int, length: int) -> tuple[int, ...]:
    """Uniform partition of n with exactly `length` parts."""
    first = (length,) + _random_partition(rng, n - length, length)
    return conjugate(first)


def conjugate(lam) -> tuple[int, ...]:
    return tuple(sum(1 for p in lam if p > i) for i in range(lam[0])) if lam else ()


def dimension(lam) -> int:
    """Hook length formula."""
    lamc = conjugate(lam)
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= row - j + lamc[j] - i - 1
    return math.factorial(sum(lam)) // hooks


def phi(mu) -> tuple[int, ...]:
    """Self-conjugate shape whose diagonal hooks are the distinct odd parts of mu."""
    d = len(mu)
    arms = [(p - 1) // 2 for p in mu]
    rows = [arms[i] + i + 1 for i in range(d)]
    depth = rows[0] if d else 0
    rows += [sum(1 for i in range(d) if arms[i] + i + 1 > r) for r in range(d, depth)]
    return tuple(r for r in rows if r)


def _partitions(n: int, largest: int | None = None, odd: bool = False, distinct: bool = False):
    """Partitions of n, largest part first, optionally into odd or distinct parts."""
    if n == 0:
        yield ()
        return
    top = n if largest is None else min(n, largest)
    for p in range(top, 0, -1):
        if odd and p % 2 == 0:
            continue
        for rest in _partitions(n - p, p - 1 if distinct else p, odd, distinct):
            yield (p,) + rest


def distinct_odd_types(lo: int, hi: int) -> dict[int, list[tuple[int, ...]]]:
    """Cycle types with distinct odd parts and lo <= n <= hi, by element order."""
    out: dict[int, list[tuple[int, ...]]] = {}
    for n in range(lo, hi + 1):
        for mu in _partitions(n, odd=True, distinct=True):
            out.setdefault(math.lcm(*mu), []).append(mu)
    return out


def _prime_powers(m: int) -> list[int]:
    out, p = [], 2
    while m > 1:
        if m % p == 0:
            q = 1
            while m % p == 0:
                m //= p
                q *= p
            out.append(q)
        p += 1
    return out


def cycle_type_of_order(rng: random.Random, m: int, n: int) -> tuple[int, ...]:
    """A cycle type of n points whose element order is exactly m.

    The prime powers of m are grouped at random into core parts (each at
    most n); the rest of n is filled with divisors of m.
    """
    divisors = [d for d in range(1, n + 1) if m % d == 0]
    for _ in range(1000):
        core = []
        for q in rng.sample(_prime_powers(m), len(_prime_powers(m))):
            options = [i for i, c in enumerate(core) if c * q <= n]
            if options and rng.random() < 0.5:
                i = rng.choice(options)
                core[i] *= q
            else:
                core.append(q)
        rest = n - sum(core)
        if rest < 0:
            continue
        filler = []
        while rest:
            part = rng.choice([d for d in divisors if d <= rest])
            filler.append(part)
            rest -= part
        return tuple(sorted(core + filler, reverse=True))
    raise ValueError(f"no cycle type of order {m} on {n} points")


def fmt(mu) -> str:
    return ",".join(map(str, mu))


# ---------------------------------------------------------------------------
# vectors


def _check_vector(vec, m: int, total: int) -> str | None:
    entries = list(vec.entries)
    if len(entries) != m:
        return f"{len(entries)} entries for order {m}"
    if min(entries) < 0:
        return "negative multiplicity"
    if sum(entries) != total:
        return f"entries sum to {sum(entries)}, expected dimension {total}"
    return None


def _sn_query(lam, mu) -> Query:
    import altchar

    m = math.lcm(*mu)

    def check(vec, _earlier):
        bad = _check_vector(vec, m, dimension(lam))
        if bad:
            return bad
        entries = list(vec.entries)
        if any(entries[i] != entries[math.gcd(i, m) % m] for i in range(m)):
            return "S_n multiplicities must depend only on gcd(i, m)"
        return None

    return Query(
        f"sn {fmt(lam)} @ {fmt(mu)}",
        lambda: altchar.sn_multiplicity_vector(lam, mu),
        check,
        lambda vec: json.dumps(list(vec.entries)),
    )


def _an_query(lam, mu, class_tag: str, pair_with: str | None, sn_key: str) -> Query:
    import altchar
    from altchar.characters import AnClass, AnIrrep

    m = math.lcm(*mu)
    rep, cls = AnIrrep(lam, "+"), AnClass(mu, class_tag)

    def check(vec, earlier):
        bad = _check_vector(vec, m, dimension(lam) // 2)
        if bad or pair_with is None:
            return bad
        if pair_with not in earlier or sn_key not in earlier:
            return "the other split half or the S_n vector is missing"
        halves = [a + b for a, b in zip(earlier[pair_with].entries, list(vec.entries))]
        if halves != list(earlier[sn_key].entries):
            return "the split halves do not sum to the S_n vector"
        return None

    return Query(
        f"an {fmt(lam)}:+ @ {fmt(mu)}:{class_tag}",
        lambda: altchar.an_multiplicity_vector(rep, cls),
        check,
        lambda vec: json.dumps(list(vec.entries)),
    )


def vectors(seed: int) -> list[Query]:
    rng = random.Random(seed)
    groups, keys = [], set()
    for m, n, length in SN_SLOTS:
        while True:  # distinct queries only: a repeat would read a warm memo
            q = _sn_query(random_shape(rng, n, length), cycle_type_of_order(rng, m, n))
            if q.key not in keys:
                break
        keys.add(q.key)
        groups.append([q])
    split_types = distinct_odd_types(16, 30)
    picks = [mu for m in sorted(set(SPLIT_ORDERS))
             for mu in rng.sample(split_types[m], SPLIT_ORDERS.count(m))]
    for mu in picks:
        lam = phi(mu)
        sn = _sn_query(lam, mu)
        plus = _an_query(lam, mu, "+", None, sn.key)
        sn.keep = plus.keep = True
        groups.append([sn, plus, _an_query(lam, mu, "-", plus.key, sn.key)])
    rng.shuffle(groups)
    return [q for g in groups for q in g]


# ---------------------------------------------------------------------------
# tables


def _table_text(table) -> str:
    """Labels and exact values, row by row, without the bulk of the JSON form."""
    lines = [" ".join(c.label() for c in table.classes)]
    for rep, row in zip(table.irreps, table.values):
        lines.append(rep.label() + " " + " ".join(f"{v.a},{v.b},{v.D}" for v in row))
    return "\n".join(lines)


def _table_query(n: int) -> Query:
    import altchar

    order = max(math.factorial(n) // 2, 1)

    def check(table, _earlier):
        classes, values = table.classes, table.values
        if len(values) != len(classes) or any(len(row) != len(classes) for row in values):
            return "the table is not square"
        ident = [c.mu for c in classes].index((1,) * n)
        degrees = []
        for row in values:
            v = row[ident]
            if v.b != 0 or v.a % 2 or v.a <= 0:
                return f"degree {v} is not a positive integer"
            degrees.append(v.a // 2)
        if sum(d * d for d in degrees) != order:
            return f"sum of squared degrees {sum(d * d for d in degrees)} != |A_{n}| = {order}"
        if degrees != [rep.dim() for rep in table.irreps]:
            return "the identity column disagrees with the irreducibles' dimensions"
        return None

    return Query(
        f"table {n}",
        lambda: altchar.character_table_an(n, bound=n),
        check,
        _table_text,
    )


def tables(seed: int) -> list[Query]:
    rng = random.Random(seed)
    small = sorted(rng.sample(range(1, TABLE_FIXED_FROM), TABLE_SMALL))
    return [_table_query(n) for n in small + list(range(TABLE_FIXED_FROM, TABLE_TOP + 1))]


# ---------------------------------------------------------------------------
# global


def qualifies(mu) -> bool:
    """The classification's hypothesis: >= 2 parts, all odd, none thrice."""
    return len(mu) >= 2 and all(p % 2 for p in mu) and all(mu.count(p) <= 2 for p in set(mu))


@cache
def _an_degree_sum(n: int) -> int:
    """Sum of the degrees of the irreducibles of A_n.

    A pair of conjugate shapes gives one irreducible of degree f; a
    self-conjugate shape gives two of degree f/2.
    """
    every = self_conjugate = 0
    for lam in _partitions(n):
        every += dimension(lam)
        if lam == conjugate(lam):
            self_conjugate += dimension(lam)
    return (every + self_conjugate) // 2


def _class_size_sn(mu) -> int:
    z = 1
    for p in set(mu):
        k = mu.count(p)
        z *= p**k * math.factorial(k)
    return math.factorial(sum(mu)) // z


def _global_query(mu, qualifying: bool) -> Query:
    import altchar

    n = sum(mu)

    def check(verdict, _earlier):
        if tuple(verdict.mu) != mu or verdict.is_global not in (True, False):
            return f"malformed verdict {verdict}"
        if verdict.witness is None or (verdict.witness[1] >= 1) != verdict.is_global:
            return f"witness {verdict.witness} contradicts the verdict"
        if qualifying:
            closed = altchar.is_global_class(mu).is_global
            if verdict.is_global != closed:
                return f"brute force says {verdict.is_global}, closed form {closed}"
        elif verdict.is_global and _class_size_sn(mu) < _an_degree_sum(n):
            # [A_n : C] equals the S_n class size for a class that does not
            # split; an induced character of smaller degree misses an irreducible
            return "global, but the index is below the sum of the degrees"
        return None

    return Query(
        f"global {fmt(mu)}",
        lambda: altchar.global_brute_force(mu, bound=n),
        check,
        lambda v: json.dumps(v.json_dict(), sort_keys=True),
    )


def global_(seed: int) -> list[Query]:
    rng = random.Random(seed)
    types = [(mu, True) for n in range(2, GLOBAL_TOP + 1)
             for mu in _partitions(n, odd=True) if qualifies(mu)]
    types += [(prefix + (1,) * k, False) for prefix, lo, hi in NONQUALIFYING_FAMILIES
              for k in range(lo, hi + 1)]
    # ascending n, as a sweep would go; which type of an n comes first, and
    # fills the memo for the others, is the seed's choice
    rng.shuffle(types)
    types.sort(key=lambda t: sum(t[0]))
    return [_global_query(mu, qualifying) for mu, qualifying in types]


# ---------------------------------------------------------------------------
# cli


def _readme_cases() -> list[tuple[list[str], str]]:
    """(arguments, expected stdout) for every `$ altchar ...` example in README.md."""
    cases, args, lines = [], None, []
    for line in README.read_text().splitlines():
        if line.startswith("$ altchar "):
            args, lines = shlex.split(line[len("$ altchar "):]), []
        elif args is not None and line.strip() and not line.startswith("```"):
            lines.append(line)
        elif args is not None:
            cases.append((args, "".join(l + "\n" for l in lines)))
            args = None
    return cases


def _cli_query(key: str, args: list[str], code: int, stdout: str) -> Query:
    import altchar.cli

    def call():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            got = altchar.cli.main(list(args))
        return got, out.getvalue(), err.getvalue()

    def check(result, _earlier):
        got, out, err = result
        if got != code:
            return f"exit {got}, expected {code}: {err.strip()[-200:]}"
        if out != stdout:
            return "stdout differs from the expected bytes"
        if code == 2 and not err.startswith("error:"):
            return "bad input without an 'error:' message"
        if "--format" in args and args[args.index("--format") + 1] == "json":
            import jsonschema

            try:
                jsonschema.validate(json.loads(out), json.loads(SCHEMA.read_text()))
            except (ValueError, jsonschema.ValidationError) as exc:
                return f"JSON output fails the schema: {str(exc)[:200]}"
        return None

    return Query(key, call, check, lambda result: f"{result[0]}\n{result[1]}")


def cli(seed: int) -> list[Query]:
    """`altchar.cli.main(argv)` once per case, in seeded order.

    The call captures stdout and stderr the way the CLI tests do.  Starting
    a fresh `python -m altchar.cli` for each query was tried first: its
    timings varied by a quarter to a third between runs on a shared VM,
    since interpreter start-up is what suffers most when the host is busy.
    The import a user's process pays is measured by setup_s and
    cli.import_s instead.
    """
    cases = [(f"golden {name}", args, 0, (GOLDEN_DIR / name).read_text())
             for name, args in GOLDEN_CASES.items()]
    cases += [(f"readme {shlex.join(args)}", args, 0, out) for args, out in _readme_cases()]
    cases += [(f"error {shlex.join(args)}", args, 2, "") for args in ERROR_CASES]
    random.Random(seed).shuffle(cases)
    return [_cli_query(key, args, code, out) for key, args, code, out in cases]


BUILDERS = {"vectors": vectors, "tables": tables, "global": global_, "cli": cli}
