"""The acceptance checklist: nine executable criteria with timing.

Each criterion recomputes a closed form against an independent route
(oracle, exhaustive engine sweep, or brute-force character sums) over a
stated range, and carries a generous wall-clock budget.  The CLI selftest
subcommand and the test suite both run these.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass

from .characters import (
    TAG_MINUS,
    TAG_PLUS,
    TABLE_BOUND,
    AnIrrep,
    an_classes,
    an_irreps,
    character_table_an,
    irrep_splits,
    mn_character,
)
from .classify import has_invariant_an, n_cycle_gap_set
from .global_classes import global_brute_force, is_global_class, qualifies
from .multiplicity import (
    an_multiplicity_vector,
    bias_oracle,
    bias_vector,
    order_of_type,
    power_conjugacy,
    sn_multiplicity_oracle,
    sn_multiplicity_vector,
)
from .errors import InternalCheckError
from .partitions import (
    dimension,
    factorize,
    has_distinct_odd_parts,
    partitions,
    phi,
)
from . import perms


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    ok: bool
    seconds: float
    limit: float
    detail: str

    def line(self, timing: bool = False) -> str:
        status = "PASS" if self.ok else "FAIL"
        suffix = f"  [{self.seconds:.2f}s / {self.limit:.0f}s]" if timing else ""
        return f"[{status}] criterion {self.number}: {self.name} -- {self.detail}{suffix}"


def _criterion_1() -> tuple[bool, str]:
    """Worked example for the bias at cycle type (15,9,3)."""
    mu = (15, 9, 3)
    expect = {0: 0, 1: 0, 15: 0, 3: 3, 9: 6}
    vector = bias_vector(mu)
    problems = []
    for i, absval in expect.items():
        r = vector[i]
        if r.abs_formula != absval or abs(r.value) != absval:
            problems.append((i, r.value))
    ok = not problems
    return ok, f"bias at (15,9,3) indices {sorted(expect)}" + ("" if ok else f" wrong: {problems}")


def _criterion_2() -> tuple[bool, str]:
    """Closed-form bias equals the defining sum everywhere through weight 25."""
    checked = 0
    for n in range(1, 26):
        for mu in partitions(n):
            if not has_distinct_odd_parts(mu):
                continue
            m = order_of_type(mu)
            M = math.prod(mu)
            square_M = math.isqrt(M) ** 2 == M
            squarefree_m = all(e == 1 for _, e in factorize(m))
            values = [r.value for r in bias_vector(mu)]
            for i, d in enumerate(values):
                if d != bias_oracle(mu, i):
                    return False, f"bias mismatch at mu={mu}, i={i}"
                if n > 1 and d * d >= M:
                    return False, f"|d| not < sqrt(M) at mu={mu}, i={i}"
                checked += 1
            if ((values[0] != 0) != square_M) or ((values[1 % m] != 0) != squarefree_m):
                return False, f"corollary characterization fails at mu={mu}"
    return True, f"{checked} (mu, i) pairs, weights <= 25"


def _criterion_3() -> tuple[bool, str]:
    """Fourier engine vs cyclotomic oracle, all shapes and types through n=9."""
    checked = 0
    for n in range(1, 10):
        for mu in partitions(n):
            m = order_of_type(mu)
            for lam in partitions(n):
                entries = sn_multiplicity_vector(lam, mu).entries
                for i in range(m):
                    if entries[i] != sn_multiplicity_oracle(lam, mu, i):
                        return False, f"oracle mismatch at lam={lam}, mu={mu}, i={i}"
                if sum(entries) != dimension(lam):
                    return False, f"entries do not sum to the dimension at lam={lam}, mu={mu}"
                rebuilt = sum(
                    a * cmath.exp(2j * math.pi * i / m) for i, a in enumerate(entries)
                )
                if abs(rebuilt - mn_character(lam, mu)) > 1e-8:
                    return False, f"character reconstruction off at lam={lam}, mu={mu}"
                checked += m
    return True, f"{checked} multiplicities cross-checked, n <= 9"


def _criterion_4() -> tuple[bool, str]:
    """The n-cycle gap list matches the computed zero set for 2 <= n <= 12."""
    for n in range(2, 13):
        computed = {
            (lam, i)
            for lam in partitions(n)
            for i, a in enumerate(sn_multiplicity_vector(lam, (n,)).entries)
            if a == 0
        }
        if computed != n_cycle_gap_set(n):
            diff = computed ^ n_cycle_gap_set(n)
            return False, f"gap set differs at n={n}: {sorted(diff)[:4]}"
    return True, "zero sets match for 2 <= n <= 12"


def _criterion_5() -> tuple[bool, str]:
    """Invariant-vector classification matches the engine for 3 <= n <= 12."""
    pairs = 0
    for n in range(3, 13):
        for rep in an_irreps(n):
            for cls in an_classes(n):
                engine_zero = an_multiplicity_vector(rep, cls).entries[0] == 0
                if engine_zero == has_invariant_an(rep, cls):
                    return False, f"mismatch at {rep.label()} / {cls.label()} (n={n})"
                pairs += 1
    return True, f"{pairs} (irrep, class) pairs, 3 <= n <= 12"


def _criterion_6() -> tuple[bool, str]:
    """Power conjugacy: Jacobi verdict equals conjugator parity through weight 10."""
    checked = 0
    for n in range(1, 11):
        for mu in partitions(n):
            if not has_distinct_odd_parts(mu):
                continue
            m = order_of_type(mu)
            w = perms.standard_rep(mu)
            for i in range(1, m + 1):
                if math.gcd(i, m) != 1:
                    continue
                rho = perms.conjugator(w, perms.perm_power(w, i))
                if rho is None:
                    raise InternalCheckError(f"no conjugator from w to w^{i} at mu={mu}")
                explicit = "same" if perms.sign(rho) == 1 else "swapped"
                if power_conjugacy(mu, i) != explicit:
                    return False, f"verdict differs at mu={mu}, i={i}"
                checked += 1
    return True, f"{checked} coprime powers, weights <= 10"


def _criterion_7() -> tuple[bool, str]:
    """Global classes: closed form equals brute force through weight 16."""
    checked = 0
    for n in range(2, 17):
        for mu in partitions(n):
            if not qualifies(mu):
                continue
            closed = is_global_class(mu)
            brute = global_brute_force(mu, bound=16)
            if closed.is_global != brute.is_global:
                return False, f"verdicts differ at mu={mu}"
            checked += 1
    for mu in ((3, 1), (3, 3), (3, 3, 1, 1)):
        if global_brute_force(mu).is_global:
            return False, f"{mu} should not be global"
    witness = global_brute_force((5, 3)).witness
    if global_brute_force((5, 3)).is_global or witness is None or witness[1] != 0:
        return False, "(5,3) should fail with a zero-multiplicity witness"
    for mu in ((7, 1), (5, 5), (5, 3, 1), (7, 3, 1)):
        if not global_brute_force(mu).is_global:
            return False, f"{mu} should be global"
    return True, f"{checked} qualifying types, weights <= 16; named cases confirmed"


def _criterion_8() -> tuple[bool, str]:
    """Character tables through n=TABLE_BOUND: orthogonality and the dimension sum."""
    for n in range(2, TABLE_BOUND + 1):
        table = character_table_an(n)
        order = table.group_order()
        if sum(r.dim() ** 2 for r in table.irreps) != order:
            return False, f"dimension sum wrong at n={n}"
        rows = [[complex(v) for v in row] for row in table.values]
        sizes = [c.size() for c in table.classes]
        k = len(table.irreps)
        for a in range(k):
            for b in range(a, k):
                inner = (
                    sum(s * x * y.conjugate() for s, x, y in zip(sizes, rows[a], rows[b]))
                    / order
                )
                if abs(inner - (1 if a == b else 0)) > 1e-8:
                    return False, f"row orthogonality fails at n={n} ({a},{b})"
        for a in range(k):
            for b in range(a, k):
                inner = (
                    sum(rows[r][a] * rows[r][b].conjugate() for r in range(k))
                    * sizes[a]
                    / order
                )
                if abs(inner - (1 if a == b else 0)) > 1e-8:
                    return False, f"column orthogonality fails at n={n} ({a},{b})"
    return True, f"orthogonality within 1e-8 and dim sums exact, n <= {TABLE_BOUND}"


def _criterion_9() -> tuple[bool, str]:
    """Away from its own hook type, a split pair shares the halved count."""
    checked = 0
    for n in range(3, 13):
        split_shapes = [lam for lam in partitions(n) if irrep_splits(lam)]
        for lam in split_shapes:
            plus = AnIrrep(lam, TAG_PLUS)
            minus = AnIrrep(lam, TAG_MINUS)
            for cls in an_classes(n):
                if cls.tag and phi(cls.mu) == lam:
                    continue
                whole = sn_multiplicity_vector(lam, cls.mu).entries
                halves = zip(*(an_multiplicity_vector(rep, cls).entries for rep in (plus, minus)))
                for i, (a, (p, q)) in enumerate(zip(whole, halves)):
                    if a % 2:
                        return False, f"odd count at lam={lam}, class {cls.label()}, i={i}"
                    if p != a // 2 or q != a // 2:
                        return False, f"halving fails at lam={lam}, class {cls.label()}, i={i}"
                    checked += 1
    return True, f"{checked} halved multiplicities, n <= 12"


_CRITERIA: dict[int, tuple[str, float, object]] = {
    1: ("worked bias example", 1.0, _criterion_1),
    2: ("bias closed form vs defining sum", 120.0, _criterion_2),
    3: ("multiplicity engine vs cyclotomic oracle", 300.0, _criterion_3),
    4: ("n-cycle gap list", 120.0, _criterion_4),
    5: ("invariant-vector classification", 600.0, _criterion_5),
    6: ("power conjugacy verdicts", 60.0, _criterion_6),
    7: ("global classes vs brute force", 600.0, _criterion_7),
    8: ("character table orthogonality", 120.0, _criterion_8),
    9: ("split-pair halving", 300.0, _criterion_9),
}

ALL_CRITERIA = tuple(sorted(_CRITERIA))


def run_criterion(number: int) -> CriterionResult:
    name, limit, fn = _CRITERIA[number]
    start = time.perf_counter()
    ok, detail = fn()
    elapsed = time.perf_counter() - start
    if elapsed > limit:
        ok = False
        detail += f" (over time budget: {elapsed:.1f}s > {limit:.0f}s)"
    return CriterionResult(number, name, ok, elapsed, limit, detail)


def run_criteria(numbers=None) -> list[CriterionResult]:
    return [run_criterion(k) for k in (numbers or ALL_CRITERIA)]
