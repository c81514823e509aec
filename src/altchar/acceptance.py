"""The acceptance checklist: nine executable criteria with timing.

Each criterion recomputes a closed form against an independent route
(oracle, exhaustive engine sweep, or brute-force character sums) over a
stated range, and carries a generous wall-clock budget.  The CLI selftest
subcommand and the test suite both run these.

The checklist's two exact reference checks live here, apart from the
engines: sn_multiplicity_failure and bias_failure each require a whole
vector's polynomial sum a_i x**i to leave known residues modulo the
cyclotomic factors of x**m - 1.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cache
from itertools import product

from .characters import (
    TAG_MINUS,
    TAG_NONE,
    TAG_PLUS,
    TABLE_BOUND,
    AnIrrep,
    CharacterTable,
    an_classes,
    an_irreps,
    character_table_an,
    irrep_splits,
    _sn_values,
)
from .classify import invariant_failure_an, n_cycle_gaps
from .global_classes import an_inner_products, global_brute_force, is_global_class, qualifies
from .multiplicity import (
    an_multiplicity_vector,
    bias_vector,
    order_of_type,
    power_conjugacy,
    sn_multiplicity_vector,
)
from .errors import InternalCheckError
from .numtheory import divisors, jacobi
from .partitions import (
    Partition,
    check_partition,
    factorize,
    partitions,
    phi,
    _dimension,
    _distinct_odd,
)
from . import perms


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    ok: bool
    seconds: float
    limit: int
    detail: str

    def line(self, timing: bool = False) -> str:
        status = "PASS" if self.ok else "FAIL"
        suffix = f"  [{self.seconds:.2f}s / {self.limit:.0f}s]" if timing else ""
        return f"[{status}] criterion {self.number}: {self.name} -- {self.detail}{suffix}"


# ---------------------------------------------------------------------------
# reference oracles


def _divmod_monic(num: list[int], den: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Quotient and remainder, trailing zeros dropped, of integer polynomials by a monic den."""
    deg = len(den) - 1
    terms = [(j - deg, dj) for j, dj in enumerate(den) if dj]
    rem = list(num)
    quotient = [0] * max(len(rem) - deg, 0)
    for k in range(len(rem) - 1, deg - 1, -1):
        c = quotient[k - deg] = rem[k]
        if c:
            for j, dj in terms:
                rem[k + j] -= c * dj
    while rem and rem[-1] == 0:
        rem.pop()
    return quotient, rem


@cache
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of the m-th cyclotomic polynomial, ascending degree.

    >>> cyclotomic_polynomial(9)
    (1, 0, 0, 1, 0, 0, 1)
    """
    if m < 1:
        raise ValueError("m must be positive")
    coeffs = [-1] + [0] * (m - 1) + [1]  # x**m - 1
    for d in divisors(m)[:-1]:
        coeffs, rem = _divmod_monic(coeffs, cyclotomic_polynomial(d))
        if rem:
            raise InternalCheckError(f"cyclotomic polynomial {d} does not divide x**{m} - 1")
    return tuple(coeffs)


def _cyclotomic_remainder(coeffs, m: int) -> list[int]:
    """sum of coeffs[k] * x**k, folded through x**m = 1, modulo the minimal polynomial of zeta_m.

    The remainder is empty iff the sum is 0 at zeta_m.

    >>> _cyclotomic_remainder([0, 1, 1, 1], 3)  # zeta + zeta**2 + 1 == 0
    []
    """
    return _divmod_monic([sum(coeffs[k::m]) for k in range(m)], cyclotomic_polynomial(m))[1]


def _residue_failure(entries, m: int, target) -> str | None:
    """Where sum entries[i] * x**i and target(e) differ modulo Phi_e for some e | m, or None.

    x**m - 1 is the product of the Phi_e, so these residues fix the whole
    vector; the sum at x = zeta_m**j is its residue at e = m / gcd(j, m).
    """
    if len(entries) != m:
        return f"{len(entries)} entries where m = {m}"
    for e in divisors(m):
        if _cyclotomic_remainder(entries, e) != _cyclotomic_remainder(target(e), e):
            return f"wrong residue modulo the cyclotomic polynomial of order {e}"
    return None


@cache
def _power_types(mu: Partition) -> dict[int, Partition]:
    """The type of w**(m/e) for each divisor e of m, read off the permutation w_mu; mu is trusted."""
    m, w = order_of_type(mu), perms.standard_rep(mu)
    return {e: perms.cycle_type(perms.perm_power(w, m // e)) for e in divisors(m)}


def sn_multiplicity_failure(lam: Partition, mu: Partition, entries) -> str | None:
    """Where entries fail to be the m eigenvalue multiplicities of w_mu in the shape lam, or None.

    They are right exactly when sum_i a_i * zeta_m**(i*j) = chi(w**j) for
    every j.  chi is rational and w**j has the type of w**(m/e), read off
    the permutation, so the residue modulo each Phi_e is chi(w**(m/e)).
    """
    lam, mu = check_partition(lam), check_partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError("sizes differ")
    types = _power_types(mu)
    chi = dict(zip(types, _sn_values(lam, list(types.values()))))
    failure = _residue_failure(entries, order_of_type(mu), lambda e: [chi[e]])
    return failure and f"{failure} at lam={lam}, mu={mu}"


def bias_failure(mu: Partition, values) -> str | None:
    """Where values fail to be the bias d_0..d_{m-1} of the split type mu, or None.

    The defining sum d_i = (sqrt(eps*M)/m) * sum over l mod m of
    (l|M) * zeta_m**(-i*l), on the principal branch, gives
    sum_i d_i * zeta_m**(i*j) = (j|M) * sqrt(eps*M): 0 unless j is a unit
    mod m.  Write M = root**2 * core, core squarefree (the product of the
    odd-exponent primes of M, a divisor of m).  No eps is needed: eps = M
    mod 4 and root is odd, so eps * core = core* = (-1)**((core-1)/2) * core,
    and by the sign of Gauss's sum sqrt(eps*M) = root * G(core), where
    G(core) = sum over a mod core of (a|core) * zeta_core**a.  So the
    residue is 0 modulo Phi_e for e < m, and root * G(core) with zeta_core
    = x**(m/core) modulo Phi_m.
    """
    mu = check_partition(mu)
    if not _distinct_odd(mu):
        raise ValueError("the bias needs distinct odd parts")
    m, factors = order_of_type(mu), factorize(math.prod(mu))
    root = math.prod(p ** (e // 2) for p, e in factors)
    core = math.prod(p for p, e in factors if e % 2)
    gauss = [0] * (m + 1)
    for a in range(1, core + 1):
        gauss[a * (m // core)] = root * jacobi(a, core)
    failure = _residue_failure(values, m, lambda e: gauss if e == m else [])
    return failure and f"{failure} for the bias at mu={mu}"


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
    """Closed-form bias equals the defining sum everywhere through weight 31."""
    checked = 0
    for n in range(1, 32):
        for mu in partitions(n):
            if not _distinct_odd(mu):
                continue
            values = [r.value for r in bias_vector(mu)]
            if failure := bias_failure(mu, values):
                return False, failure
            m, M = len(values), math.prod(mu)
            if n > 1 and any(d * d >= M for d in values):
                return False, f"|d| not < sqrt(M) at mu={mu}"
            square_M = math.isqrt(M) ** 2 == M
            squarefree_m = all(e == 1 for _, e in factorize(m))
            if ((values[0] != 0) != square_M) or ((values[1 % m] != 0) != squarefree_m):
                return False, f"corollary characterization fails at mu={mu}"
            checked += m
    return True, f"{checked} (mu, i) pairs, weights <= 31"


def _criterion_3() -> tuple[bool, str]:
    """Fourier engine vs cyclotomic oracle and hook lengths, all shapes and types through n=11."""
    checked = 0
    for n in range(1, 12):
        for mu in partitions(n):
            for lam in partitions(n):
                entries = sn_multiplicity_vector(lam, mu).entries
                if failure := sn_multiplicity_failure(lam, mu, entries):
                    return False, failure
                # The entries sum to the engine's value at (1^n), which _mn
                # takes from Frobenius' bead formula (characters._mask_degree);
                # _dimension is the hook-length product, kept independent.
                if sum(entries) != _dimension(lam):
                    return False, f"entries do not sum to the dimension at lam={lam}, mu={mu}"
                checked += len(entries)
    return True, f"{checked} multiplicities cross-checked, n <= 11"


def _criterion_4() -> tuple[bool, str]:
    """The n-cycle gap list matches the computed zero set for 2 <= n <= 24."""
    for n in range(2, 25):
        computed = {
            (lam, i)
            for lam in partitions(n)
            for i, a in enumerate(sn_multiplicity_vector(lam, (n,)).entries)
            if a == 0
        }
        listed = {(g.lam, g.i) for g in n_cycle_gaps(n)}
        if computed != listed:
            return False, f"gap set differs at n={n}: {sorted(computed ^ listed)[:4]}"
    return True, "zero sets match for 2 <= n <= 24"


def _criterion_5() -> tuple[bool, str]:
    """Invariant-vector classification matches the engine for 3 <= n <= 12."""
    pairs = 0
    for n in range(3, 13):
        for rep in an_irreps(n):
            for cls in an_classes(n):
                engine_zero = an_multiplicity_vector(rep, cls).entries[0] == 0
                if engine_zero == (invariant_failure_an(rep, cls) is None):
                    return False, f"mismatch at {rep.label()} / {cls.label()} (n={n})"
                pairs += 1
    return True, f"{pairs} (irrep, class) pairs, 3 <= n <= 12"


def _criterion_6() -> tuple[bool, str]:
    """Power conjugacy: Jacobi verdict equals conjugator parity through weight 10."""
    checked = 0
    for n in range(1, 11):
        for mu in partitions(n):
            if not _distinct_odd(mu):
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


def _split_centralizer_failure(mu: Partition) -> str | None:
    """Where an_inner_products(mu), mu split, differs from the table's rows summed over the
    centralizer: the rotations of standard_rep(mu)'s cycles, split ones tagged as in criterion 6."""
    table = character_table_an(sum(mu))
    column = {(c.mu, c.tag): j for j, c in enumerate(table.classes)}
    weights = [0] * len(column)
    blocks = perms.cycles(perms.standard_rep(mu))
    for rotations in product(*map(range, mu)):
        g = tuple(c[(j + r) % len(c)] for c, r in zip(blocks, rotations) for j in range(len(c)))
        t = perms.cycle_type(g)
        even = perms.sign(perms.conjugator(perms.standard_rep(t), g)) == 1
        weights[column[t, TAG_NONE if not _distinct_odd(t) else TAG_PLUS if even else TAG_MINUS]] += 1
    inner, _ = an_inner_products(mu)
    for rep, row in zip(table.irreps, table.values):
        rational, radical = _inner_product(weights, row, table.values[0])  # the trivial row
        if any(radical.values()) or rational != 4 * sum(weights) * inner[rep]:
            return f"{rep.label()} summed over the centralizer of {mu} differs"
    return None


def _criterion_7() -> tuple[bool, str]:
    """Global classes: closed form equals brute force through weight 20; split types' sums equal table rows."""
    checked = 0
    for n in range(2, 21):
        for mu in partitions(n):
            if n <= TABLE_BOUND and _distinct_odd(mu) and (failure := _split_centralizer_failure(mu)):
                return False, failure
            if not qualifies(mu):
                continue
            closed = is_global_class(mu)
            brute = global_brute_force(mu, bound=20)
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
    detail = f"{checked} qualifying types, weights <= 20; named cases confirmed"
    return True, f"{detail}; split types' row sums, n <= {TABLE_BOUND}"


def _inner_product(weights, xs, ys) -> tuple[int, dict[int, int]]:
    """4 * sum of w * x * conj(y) over QuadValue cells: its rational part, and its sqrt(D) part per D.

    conj(sqrt(D)) is -sqrt(D) for D < 0, so sqrt(D) * conj(sqrt(D)) = |D|;
    two irrational cells in one term must share their D.
    """
    rational = 0
    radical: dict[int, int] = {}
    for w, x, y in zip(weights, xs, ys):
        rational += w * x.a * y.a
        if x.b:
            radical[x.D] = radical.get(x.D, 0) + w * x.b * y.a
        if y.b:
            radical[y.D] = radical.get(y.D, 0) + w * x.a * (y.b if y.D > 0 else -y.b)
            if x.b:
                if x.D != y.D:
                    raise InternalCheckError(f"cells with sqrt({x.D}) and sqrt({y.D}) meet in one term")
                rational += w * x.b * y.b * abs(x.D)
    return rational, radical


def _orthogonality_failure(table: CharacterTable) -> str | None:
    """Where the rows or columns of table fail to be orthonormal, or None.

    Square roots of distinct squarefree integers are independent over Q, so
    every sqrt(D) part must vanish; the rational part is 4 * |A_n| * delta.
    """
    order = table.group_order()
    sizes = [c.size() for c in table.classes]
    for kind, lines in (("row", table.values), ("column", tuple(zip(*table.values)))):
        for a, x in enumerate(lines):
            weights = sizes if kind == "row" else [sizes[a]] * len(sizes)
            for b in range(a, len(lines)):
                rational, radical = _inner_product(weights, x, lines[b])
                if any(radical.values()) or rational != 4 * order * (a == b):
                    return f"{kind} orthogonality fails at n={table.n} ({a},{b})"
    return None


def _criterion_8() -> tuple[bool, str]:
    """Character tables through n=TABLE_BOUND: exact orthogonality and the dimension sum."""
    for n in range(2, TABLE_BOUND + 1):
        table = character_table_an(n)
        if sum(r.dim() ** 2 for r in table.irreps) != table.group_order():
            return False, f"dimension sum wrong at n={n}"
        if failure := _orthogonality_failure(table):
            return False, failure
    return True, f"orthogonality and dim sums exact, n <= {TABLE_BOUND}"


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


_CRITERIA: dict[int, tuple[str, int, object]] = {
    1: ("worked bias example", 1, _criterion_1),
    2: ("bias closed form vs defining sum", 120, _criterion_2),
    3: ("multiplicity engine vs cyclotomic oracle", 300, _criterion_3),
    4: ("n-cycle gap list", 120, _criterion_4),
    5: ("invariant-vector classification", 600, _criterion_5),
    6: ("power conjugacy verdicts", 60, _criterion_6),
    7: ("global classes vs brute force", 600, _criterion_7),
    8: ("character table orthogonality", 120, _criterion_8),
    9: ("split-pair halving", 300, _criterion_9),
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
