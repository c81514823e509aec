"""Eigenvalue multiplicities of permutation representatives, exactly.

Fix w of cycle type mu, of order m, acting in an irreducible.  The
multiplicity of the eigenvalue zeta_m^i is the discrete Fourier
coefficient

    a_i = (1/m) * sum over j mod m of chi(w^j) * zeta_m^(-i*j).

Since chi(w^j) depends on j only through gcd(j, m), the sum collapses to
divisors d of m weighted by Ramanujan sums c_{m/d}(i); and since the
characters of S_n are rational, a_i depends on i only through
g = gcd(i, m).  sn_multiplicity_vector therefore evaluates chi once at
each of the tau(m) power types w^d, solves a_g once for each divisor g
of m, and broadcasts a_i = a_{gcd(i, m)}.  The Fourier data depend on m
alone and are built once per element order asked, by _fourier_plan: the
divisors, the tau(m) x tau(m) Ramanujan matrix and the divisor slot of
each index, tau(m)**2 + tau(m) + m integers per order in an unbounded
memo.  At the CLI's CLOSED_FORM_BOUND, n = 30, the largest order is
m = 4620, where tau(m) = 48.

For a split class (distinct odd parts) the plus and minus halves of the
self-conjugate shape of matching hook type differ by a bias d_i, which has
a closed form in terms of Gauss sums: a global constant times one local
factor per prime power p**f exactly dividing m, each depending only on
i mod p**f.  The irrational parts of the Gauss sums cancel against the
constant, so bias_vector evaluates the form in plain integers, from one
table per prime over the residues mod p**f.  an_multiplicity_vector
combines the two.

Each question has one production function, and it answers for every
index at once: a single entry is read from the vector, as in
sn_multiplicity_vector(lam, mu).entries[i % m] or bias_vector(mu)[i % m].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from operator import mul

from .characters import TAG_NONE, AnClass, AnIrrep, _sn_values
from .errors import InternalCheckError
from .numtheory import _squarefree_split, divisors, jacobi, p_adic_split, ramanujan
from .partitions import Partition, check_partition, factorize, format_partition, _distinct_odd, _epsilon, _phi


def _power_type(mu: Partition, d: int) -> Partition:
    """Cycle type of the d-th power, computed part by part.

    A part splits into gcd(part, d) cycles of length part/gcd(part, d).

    >>> _power_type((15, 9, 3), 3)
    (5, 5, 5, 3, 3, 3, 1, 1, 1)
    """
    parts: list[int] = []
    for p in mu:
        g = math.gcd(p, d)
        parts.extend([p // g] * g)
    return tuple(sorted(parts, reverse=True))


def order_of_type(mu: Partition) -> int:
    """Order of a permutation of cycle type mu: the lcm of its parts."""
    return math.lcm(*mu) if mu else 1


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


@cache
def _fourier_plan(m: int) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The Fourier data of order m: divisors(m), one row per divisor g and one slot per index.

    Row g holds the Ramanujan sums c_{m/d}(g) over the divisors d; slot i
    is the position of gcd(i, m) in divisors(m), for 0 <= i < m.
    """
    divs = divisors(m)
    rows = tuple(tuple(ramanujan(m // d, g) for d in divs) for g in divs)
    slot = {g: s for s, g in enumerate(divs)}
    return divs, rows, tuple(slot[math.gcd(i, m)] for i in range(m))


def _sn_entries(lam: Partition, mu: Partition) -> tuple[int, ...]:
    """The entries of sn_multiplicity_vector; lam and mu are trusted, of equal size."""
    m = order_of_type(mu)
    divs, rows, slots = _fourier_plan(m)
    chi = _sn_values(lam, [_power_type(mu, d) for d in divs])
    by_gcd = []
    for g, row in zip(divs, rows):
        a, r = divmod(sum(map(mul, chi, row)), m)
        if r != 0 or a < 0:
            raise InternalCheckError(f"non-integral multiplicity for {lam} at {mu}, gcd(i, m)={g}")
        by_gcd.append(a)
    return tuple(map(by_gcd.__getitem__, slots))


def sn_multiplicity_vector(lam: Partition, mu: Partition) -> MultiplicityVector:
    """All m multiplicities of w_mu in the shape lam, over the tau(m) divisors of m.

    The characters of S_n are rational, so a_i depends only on gcd(i, m):
    chi is evaluated at the tau(m) power types, a_g is solved once per
    divisor g of m, and entry i is a_{gcd(i, m)}.
    """
    lam, mu = check_partition(lam), check_partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError("sizes differ")
    entries = _sn_entries(lam, mu)
    return MultiplicityVector((format_partition(lam), format_partition(mu)), len(entries), entries)


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


def bias_vector(mu: Partition) -> tuple[BiasResult, ...]:
    """Exact bias d_i between the split halves, at every index i mod m.

    The plus half is anchored to the class of standard_rep(mu).  The
    constants come from the parts: eps from _epsilon, M = prod(mu) =
    root**2 * odd_core from _squarefree_split, and m = lcm(mu) from
    order_of_type, whose factorization gives the prime powers p**f.  A
    prime has an odd exponent in M exactly when it divides odd_core; those
    primes come first, each group ascending.  The defining sum is
    sqrt(eps*M)/m times one Gauss-sum factor per prime power p**f exactly
    dividing m, and each factor depends on i only through i mod p**f.
    Write i == u * p**d mod p**f.  With the orientation of the defining
    Fourier sum, an odd-exponent prime p contributes
    p**(f-1) * (-u*m/p**f | p) * g(p) at d == f-1 and zero otherwise,
    where g(p) is sqrt(p) for p = 1 mod 4 and i*sqrt(p) for p = 3 mod 4;
    an even-exponent prime contributes the Ramanujan sum c_{p**f}(i).
    With t odd-exponent primes of residue 3 mod 4, the irrational parts
    combine to

        sqrt(eps*M) * prod g(p) = i**([eps < 0] + t) * root * odd_core,

    and eps = (-1)**t because eps = M mod 4, so the power of i is the sign
    (-1)**(([eps < 0] + t) / 2).  Every local factor is therefore a plain
    integer, and d_i = sign * root * odd_core * prod(factors) / m.

    One table per prime power holds its factor at every residue mod p**f;
    entry i combines the rows at i mod p**f (Chinese remaindering), at a
    cost of O(sum of p**f + m) local factors and products.  Each nonzero
    entry is cross-checked against the closed form of its magnitude.
    """
    mu = check_partition(mu)
    if not _distinct_odd(mu):
        raise ValueError(f"bias is defined for distinct odd parts only: {format_partition(mu)}")
    m = order_of_type(mu)
    root, odd_core = _squarefree_split(math.prod(mu))
    odd = [(p, f) for p, f in factorize(m) if odd_core % p == 0]
    even = [(p, f) for p, f in factorize(m) if odd_core % p]
    quarter_turns = (_epsilon(mu) < 0) + sum(p % 4 == 3 for p, _ in odd)
    if quarter_turns % 2:
        raise InternalCheckError(f"non-real bias constant for {mu}: eps is not M mod 4")
    scale = (-1) ** (quarter_turns // 2) * root * odd_core
    even_core = math.prod(p for p, _ in even)

    # Per prime power, at each residue r: its condition, its factor of d_i
    # and its factor of the magnitude numerator (p - 1 when p**f divides r).
    tables = []
    for j, (p, f) in enumerate(odd + even):
        q = p**f
        rows = []
        for r in range(q):
            d, u = p_adic_split(r, p, f)
            if j >= len(odd):
                factor = ramanujan(q, r)
            elif d == f - 1:
                factor = p ** (f - 1) * jacobi(-(m // q) * u, p)
            else:
                factor = 0
            cond = PrimeCondition(p, f, d, u, factor != 0)
            magnitude = (p - 1 if d == f else 1) if factor else 0
            rows.append((cond, factor, magnitude))
        tables.append((q, rows))

    out = []
    for i in range(m):
        local = [rows[i % q] for q, rows in tables]
        conditions = tuple(c for c, _, _ in local)
        if not all(c.ok for c in conditions):
            out.append(BiasResult(mu, i, 0, 0, conditions))
            continue
        value, r = divmod(scale * math.prod(f for _, f, _ in local), m)
        if r != 0:
            raise InternalCheckError(f"non-integral bias at {mu}, i={i}")
        magnitude, r = divmod(root * math.prod(k for _, _, k in local), even_core)
        if r != 0 or abs(value) != magnitude:
            raise InternalCheckError(f"magnitude closed form disagrees at {mu}, i={i}")
        out.append(BiasResult(mu, i, value, magnitude, conditions))
    return tuple(out)


# ---------------------------------------------------------------------------
# alternating-group dispatch


def an_multiplicity_vector(rep: AnIrrep, cls: AnClass) -> MultiplicityVector:
    """All m multiplicities in an alternating-group irreducible.

    Whole irreducibles inherit the symmetric-group vector.  A split half at
    a split class of its own hook type gets (a_i +- d_i)/2 from one
    bias_vector, the sign set by whether the irreducible and class tags
    agree; at every other class the symmetric-group count halves evenly.
    """
    if rep.n != cls.n:
        raise ValueError("size mismatch")
    entries = _sn_entries(rep.lam, cls.mu)
    if rep.tag != TAG_NONE:
        biases = [0] * len(entries)
        if cls.tag and _phi(cls.mu) == rep.lam:
            sign = 1 if rep.tag == cls.tag else -1
            biases = [sign * b.value for b in bias_vector(cls.mu)]
        halves = []
        for i, (a, d) in enumerate(zip(entries, biases)):
            half, r = divmod(a + d, 2)
            if r != 0 or half < 0:
                raise InternalCheckError(f"half-multiplicity failed for {rep.label()} at {cls.label()}, i={i}")
            halves.append(half)
        entries = tuple(halves)
    return MultiplicityVector((rep.label(), cls.label()), len(entries), entries)


def power_conjugacy(mu: Partition, i: int) -> str:
    """Whether w^i lands in the same split class as w ("same" or "swapped").

    Requires distinct odd parts and gcd(i, m) == 1; the verdict is the
    Jacobi symbol (i | M).
    """
    mu = check_partition(mu)
    if not _distinct_odd(mu):
        raise ValueError("power conjugacy concerns split classes: distinct odd parts required")
    m = order_of_type(mu)
    if math.gcd(i, m) != 1:
        raise ValueError(f"i={i} must be coprime to the order {m}")
    return "same" if jacobi(i, math.prod(mu)) == 1 else "swapped"
