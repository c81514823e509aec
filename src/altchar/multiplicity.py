"""Eigenvalue multiplicities of permutation representatives, exactly.

Fix w of cycle type mu, of order m, acting in an irreducible.  The
multiplicity of the eigenvalue zeta_m^i is the discrete Fourier
coefficient

    a_i = (1/m) * sum over j mod m of chi(w^j) * zeta_m^(-i*j).

Since chi(w^j) depends on j only through gcd(j, m), the sum collapses to
divisors d of m weighted by Ramanujan sums c_{m/d}(i); and since the
characters of S_n are rational, a_i depends on i only through
g = gcd(i, m).  The production path therefore evaluates chi once at each
of the tau(m) power types w^d, solves a_g once for each divisor g of m,
and broadcasts a_i = a_{gcd(i, m)}.  A slower independent oracle reduces
the same data modulo a cyclotomic polynomial instead.

For a split class (distinct odd parts) the plus and minus halves of the
self-conjugate shape of matching hook type differ by a bias d_i, which has
a closed form in terms of Gauss sums: a global constant times one local
factor per prime power p**f exactly dividing m, each depending only on
i mod p**f.  The irrational parts of the Gauss sums cancel against the
constant, so the form is evaluated in plain integers.  bias() evaluates
it at one index, bias_vector() at every index from one table per prime
over the residues mod p**f, and bias_oracle() recomputes the defining
sum in floating point.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cache

from .characters import TAG_NONE, AnClass, AnIrrep, mn_character
from .errors import InternalCheckError
from .numtheory import divisors, jacobi, p_adic_split, ramanujan, unit_sum
from .partitions import (
    Partition,
    check_partition,
    cycle_type_data,
    format_partition,
    has_distinct_odd_parts,
    phi,
)
from . import perms


def _power_type(mu: Partition, d: int) -> Partition:
    parts: list[int] = []
    for p in mu:
        g = math.gcd(p, d)
        parts.extend([p // g] * g)
    return tuple(sorted(parts, reverse=True))


def power_cycle_type(mu: Partition, d: int) -> Partition:
    """Cycle type of the d-th power, computed part by part.

    A part splits into gcd(part, d) cycles of length part/gcd(part, d).

    >>> power_cycle_type((15, 9, 3), 3)
    (5, 5, 5, 3, 3, 3, 1, 1, 1)
    """
    return _power_type(check_partition(mu), d)


def _order(mu: Partition) -> int:
    return math.lcm(*mu) if mu else 1


def order_of_type(mu: Partition) -> int:
    return _order(check_partition(mu))


def _check_pair(lam: Partition, mu: Partition) -> tuple[Partition, Partition]:
    lam = check_partition(lam)
    mu = check_partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError("sizes differ")
    return lam, mu


def _gcd_multiplicities(lam: Partition, mu: Partition, gcds) -> dict[int, int]:
    """a_g for each g in gcds, every g a divisor of the order m of mu.

    chi is evaluated once at each of the tau(m) power types; each a_g is then
    a sum of tau(m) Ramanujan terms.  lam and mu are trusted partitions of
    the same size.
    """
    m = _order(mu)
    divs = divisors(m)
    chi = [mn_character(lam, _power_type(mu, d)) for d in divs]
    out = {}
    for g in gcds:
        total = sum(c * ramanujan(m // d, g) for c, d in zip(chi, divs))
        q, r = divmod(total, m)
        if r != 0 or q < 0:
            raise InternalCheckError(
                f"non-integral multiplicity for {lam} at {mu}, gcd(i, m)={g}"
            )
        out[g] = q
    return out


def sn_multiplicity(lam: Partition, mu: Partition, i: int) -> int:
    """Multiplicity of zeta_m^i as an eigenvalue of w_mu in the shape lam."""
    lam, mu = _check_pair(lam, mu)
    g = math.gcd(i, _order(mu))
    return _gcd_multiplicities(lam, mu, (g,))[g]


@dataclass(frozen=True)
class MultiplicityVector:
    """All m eigenvalue multiplicities of one representative in one irreducible."""

    owner: tuple[str, str]  # (irreducible label, class or type label)
    m: int
    entries: tuple[int, ...]

    def json_dict(self) -> dict:
        return {
            "irrep": self.owner[0],
            "class": self.owner[1],
            "m": self.m,
            "entries": list(self.entries),
        }


def _sn_entries(lam: Partition, mu: Partition) -> tuple[int, ...]:
    m = _order(mu)
    by_gcd = _gcd_multiplicities(lam, mu, divisors(m))
    return tuple(by_gcd[math.gcd(i, m)] for i in range(m))


def sn_multiplicity_vector(lam: Partition, mu: Partition) -> MultiplicityVector:
    """All m multiplicities of w_mu in the shape lam, over the tau(m) divisors of m.

    The characters of S_n are rational, so a_i depends only on gcd(i, m):
    chi is evaluated at the tau(m) power types, a_g is solved once per
    divisor g of m, and entry i is a_{gcd(i, m)}.
    """
    lam, mu = _check_pair(lam, mu)
    entries = _sn_entries(lam, mu)
    return MultiplicityVector((format_partition(lam), format_partition(mu)), len(entries), entries)


# ---------------------------------------------------------------------------
# independent oracle: reduce modulo a cyclotomic polynomial


def _poly_trim(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _poly_divexact(num: list[int], den: list[int]) -> list[int]:
    """Exact quotient of integer polynomials (ascending coefficients)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c, r = divmod(num[k + len(den) - 1], den[-1])
        if r != 0:
            raise InternalCheckError("leading coefficient does not divide exactly")
        out[k] = c
        for j, dj in enumerate(den):
            num[k + j] -= c * dj
    if any(num):
        raise InternalCheckError("polynomial division left a remainder")
    return out


@cache
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of the m-th cyclotomic polynomial, ascending degree.

    >>> cyclotomic_polynomial(9)
    (1, 0, 0, 1, 0, 0, 1)
    """
    if m < 1:
        raise ValueError("m must be positive")
    coeffs = [-1] + [0] * (m - 1) + [1]  # x**m - 1
    for d in divisors(m):
        if d < m:
            coeffs = _poly_divexact(coeffs, list(cyclotomic_polynomial(d)))
    return tuple(coeffs)


def sn_multiplicity_oracle(lam: Partition, mu: Partition, i: int) -> int:
    """Same multiplicity through permutation powers and cyclotomic reduction.

    Forms sum_j chi(w^j) x^(-i*j mod m) and reduces modulo the m-th
    cyclotomic polynomial; the remainder must be the constant m * a_i.
    """
    lam = check_partition(lam)
    mu = check_partition(mu)
    m = order_of_type(mu)
    w = perms.standard_rep(mu)
    coeffs = [0] * m
    current = perms.identity(sum(mu))
    for j in range(m):
        coeffs[(-i * j) % m] += mn_character(lam, perms.cycle_type(current))
        current = perms.compose(w, current)
    modulus = list(cyclotomic_polynomial(m))
    deg = len(modulus) - 1
    rem = list(coeffs)
    for k in range(len(rem) - 1, deg - 1, -1):
        c = rem[k]
        if c:
            for j, mj in enumerate(modulus):
                rem[k - deg + j] -= c * mj
    rem = _poly_trim(rem)
    if len(rem) > 1:
        raise InternalCheckError(f"non-constant cyclotomic remainder for {lam} at {mu}, i={i}")
    value = rem[0] if rem else 0
    q, r = divmod(value, m)
    if r != 0:
        raise InternalCheckError("remainder not divisible by the order")
    return q


# ---------------------------------------------------------------------------
# bias between the split halves


@dataclass(frozen=True)
class PrimeCondition:
    """Local data at one prime: i == u * p**d mod p**f, and whether it passes.

    Odd-exponent primes pass only at d == f-1; even-exponent primes pass at
    d == f-1 and d == f.
    """

    p: int
    f: int
    d: int
    u: int
    ok: bool


@dataclass(frozen=True)
class BiasResult:
    """Closed-form bias d_i = a_i(plus half) - a_i(minus half) at one i."""

    mu: Partition
    i: int
    value: int
    abs_formula: int
    conditions: tuple[PrimeCondition, ...]

    @property
    def nonzero(self) -> bool:
        return all(c.ok for c in self.conditions)

    def json_dict(self) -> dict:
        return {
            "mu": format_partition(self.mu),
            "i": self.i,
            "value": self.value,
            "abs": self.abs_formula,
            "conditions": [
                {"p": c.p, "f": c.f, "d": c.d, "u": c.u, "ok": c.ok} for c in self.conditions
            ],
        }


# Local data of one prime at one residue r mod p**f: its condition, its
# integer factor of d_i (0 when the condition fails) and its factor of the
# magnitude numerator (p - 1 when p**f divides r, else 1).
_Local = tuple[PrimeCondition, int, int]


class _BiasForm:
    """The bias closed form for one distinct-odd cycle type, in integers.

    The defining sum is sqrt(eps*M)/m times one Gauss-sum factor per prime
    power p**f exactly dividing m.  Write M = root**2 * odd_core.  An
    odd-exponent prime p contributes p**(f-1) * (-u*m/p**f | p) * g(p) or
    zero, where g(p) is sqrt(p) for p = 1 mod 4 and i*sqrt(p) for
    p = 3 mod 4.  With t such primes of residue 3 mod 4, the irrational
    parts combine to

        sqrt(eps*M) * prod g(p) = i**([eps < 0] + t) * root * odd_core,

    and eps = (-1)**t because eps = M mod 4, so the power of i is the sign
    (-1)**(([eps < 0] + t) / 2).  Every local factor is therefore a plain
    integer, and d_i = sign * root * odd_core * prod(factors) / m.
    bias() and bias_vector() share this form.
    """

    def __init__(self, mu: Partition) -> None:
        mu = check_partition(mu)
        if not has_distinct_odd_parts(mu):
            raise ValueError(f"bias is defined for distinct odd parts only: {mu}")
        data = cycle_type_data(mu)
        if data.epsilon is None:
            raise InternalCheckError(f"no sign epsilon for distinct odd type {mu}")
        odd = data.primes[: data.s]
        odd_core = math.prod(pd.p for pd in odd)
        root = math.isqrt(data.M // odd_core)
        if root * root * odd_core != data.M:
            raise InternalCheckError("part product over odd-exponent primes is not square")
        quarter_turns = (data.epsilon < 0) + sum(pd.p % 4 == 3 for pd in odd)
        if quarter_turns % 2:
            raise InternalCheckError(f"non-real bias constant for {mu}: eps is not M mod 4")
        self.data = data
        self.scale = (-1) ** (quarter_turns // 2) * root * odd_core
        self.root = root
        self.even_core = math.prod(pd.p for pd in data.primes[data.s :])

    def local(self, j: int, r: int) -> _Local:
        """The local factor of the j-th prime p at residue r mod p**f.

        With r == u * p**d mod p**f, an odd-exponent prime contributes
        p**(f-1) * (-u*m/p**f | p) when d == f-1 and 0 otherwise (its
        Gauss sum g(p) is in the scale); an even-exponent prime contributes
        the unit sum at r.  The prime passes where its factor is nonzero.
        """
        pd = self.data.primes[j]
        d, u = p_adic_split(r, pd.p, pd.f)
        if j >= self.data.s:
            factor = unit_sum(pd.p, pd.f, r)
        elif d == pd.f - 1:
            factor = pd.p ** (pd.f - 1) * jacobi(-(self.data.m // pd.p**pd.f) * u, pd.p)
        else:
            factor = 0
        cond = PrimeCondition(pd.p, pd.f, d, u, factor != 0)
        if not cond.ok:
            return cond, factor, 0
        return cond, factor, pd.p - 1 if d == pd.f else 1

    def result(self, i: int, local: list[_Local]) -> BiasResult:
        """d_i from the local factors of i, one per prime, magnitude cross-checked."""
        data = self.data
        conditions = tuple(c for c, _, _ in local)
        if not all(c.ok for c in conditions):
            return BiasResult(data.mu, i % data.m, 0, 0, conditions)
        value, r = divmod(self.scale * math.prod(f for _, f, _ in local), data.m)
        if r != 0:
            raise InternalCheckError(f"non-integral bias at {data.mu}, i={i}")
        magnitude, r = divmod(self.root * math.prod(k for _, _, k in local), self.even_core)
        if r != 0 or abs(value) != magnitude:
            raise InternalCheckError(f"magnitude closed form disagrees at {data.mu}, i={i}")
        return BiasResult(data.mu, i % data.m, value, magnitude, conditions)


def bias(mu: Partition, i: int) -> BiasResult:
    """Exact bias between the split halves at eigenvalue index i.

    The plus half is anchored to the class of standard_rep(mu); with that
    convention each odd-exponent prime's Gauss-sum factor absorbs a (-1|p)
    from the orientation of the defining Fourier sum, so it is
    p**(f-1) * (-u*m/p**f | p) * g(p).  The g(p) and sqrt(eps*M) combine
    to an integer with a sign, and the value is computed in integers.
    """
    form = _BiasForm(mu)
    primes = form.data.primes
    return form.result(i, [form.local(j, i % pd.p**pd.f) for j, pd in enumerate(primes)])


def bias_vector(mu: Partition) -> tuple[BiasResult, ...]:
    """bias(mu, i) for every i mod m, from one residue table per prime power.

    Each local factor depends on i only through i mod p**f, so the table of
    prime p**f holds its factor at every residue; entry i combines the
    table rows at i mod p**f (Chinese remaindering), at a cost of
    O(sum of p**f + m) local factors and products instead of m full
    evaluations.
    """
    form = _BiasForm(mu)
    moduli = [pd.p**pd.f for pd in form.data.primes]
    tables = [[form.local(j, r) for r in range(q)] for j, q in enumerate(moduli)]
    return tuple(
        form.result(i, [table[i % q] for table, q in zip(tables, moduli)])
        for i in range(form.data.m)
    )


def bias_oracle(mu: Partition, i: int, tol: float = 1e-6) -> int:
    """The defining Fourier sum of the bias, evaluated numerically.

    d_i = (sqrt(eps*M)/m) * sum over l mod m of (l|M) * zeta_m^(-i*l),
    with the principal branch sqrt(-x) = i*sqrt(x).
    """
    mu = check_partition(mu)
    if not has_distinct_odd_parts(mu):
        raise ValueError("bias oracle needs distinct odd parts")
    data = cycle_type_data(mu)
    if data.epsilon is None:
        raise InternalCheckError(f"no sign epsilon for distinct odd type {mu}")
    total = 0j
    for l in range(data.m):
        total += jacobi(l, data.M) * cmath.exp(-2j * math.pi * i * l / data.m)
    z = cmath.sqrt(complex(data.epsilon * data.M)) * total / data.m
    nearest = round(z.real)
    if abs(z.imag) > tol or abs(z.real - nearest) > tol:
        raise InternalCheckError(f"bias oracle did not land on an integer: {z}")
    return nearest


# ---------------------------------------------------------------------------
# alternating-group dispatch


def _halve(rep: AnIrrep, cls: AnClass, i: int, a: int, d: int) -> int:
    """(a +- d)/2 for a split half, the sign set by whether the tags agree."""
    numer = a + d if rep.tag == cls.tag else a - d
    q, r = divmod(numer, 2)
    if r != 0 or q < 0:
        raise InternalCheckError(f"half-multiplicity failed for {rep.label()} at {cls.label()}, i={i}")
    return q


def _own_type(rep: AnIrrep, cls: AnClass) -> bool:
    """True when cls is a split class of the hook type of the split half rep."""
    return bool(cls.tag) and phi(cls.mu) == rep.lam


def an_multiplicity(rep: AnIrrep, cls: AnClass, i: int) -> int:
    """Eigenvalue multiplicity in an alternating-group irreducible.

    Whole irreducibles inherit the symmetric-group count.  A split half at
    a split class of its own hook type gets (a +- d)/2, the sign set by
    whether the irreducible and class tags agree; at every other class the
    symmetric-group count halves evenly.
    """
    if rep.n != cls.n:
        raise ValueError("size mismatch")
    a = sn_multiplicity(rep.lam, cls.mu, i)
    if rep.tag == TAG_NONE:
        return a
    d = bias(cls.mu, i).value if _own_type(rep, cls) else 0
    return _halve(rep, cls, i, a, d)


def an_multiplicity_vector(rep: AnIrrep, cls: AnClass) -> MultiplicityVector:
    """All m multiplicities in an alternating-group irreducible.

    The symmetric-group vector is built once; a split half at its own hook
    type combines it with one bias_vector, anywhere else it halves evenly.
    """
    if rep.n != cls.n:
        raise ValueError("size mismatch")
    entries = _sn_entries(rep.lam, cls.mu)
    if rep.tag != TAG_NONE:
        if _own_type(rep, cls):
            biases = [b.value for b in bias_vector(cls.mu)]
        else:
            biases = [0] * len(entries)
        entries = tuple(_halve(rep, cls, i, a, d) for i, (a, d) in enumerate(zip(entries, biases)))
    return MultiplicityVector((rep.label(), cls.label()), len(entries), entries)


def power_conjugacy(mu: Partition, i: int) -> str:
    """Whether w^i lands in the same split class as w ("same" or "swapped").

    Requires distinct odd parts and gcd(i, m) == 1; the verdict is the
    Jacobi symbol (i | M).
    """
    mu = check_partition(mu)
    if not has_distinct_odd_parts(mu):
        raise ValueError("power conjugacy concerns split classes: distinct odd parts required")
    data = cycle_type_data(mu)
    if math.gcd(i, data.m) != 1:
        raise ValueError(f"i={i} must be coprime to the order {data.m}")
    return "same" if jacobi(i, data.M) == 1 else "swapped"
