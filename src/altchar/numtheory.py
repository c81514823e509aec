"""Jacobi symbols, character sums over prime-power units, and exact radicals.

The closed forms here evaluate sums of the shape

    sum over units l mod p**f of  zeta^(i*l)        (unit_sum)
    sum over units l mod p**f of  (l|p) zeta^(i*l)  (twisted_sum)

for odd primes p, where zeta = exp(2*pi*I/p**f).  The twisted sum is a
scaled quadratic Gauss sum; its value is held exactly by GaussPhase,
a number of the form  rational * i**quarter_turns * sqrt(radicand).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .errors import InternalCheckError
from .partitions import factorize


class IrrationalResidueError(ArithmeticError):
    """A phase expected to collapse to an integer did not (non-real or irrational)."""


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for odd positive n; (a|1) == 1.

    Computed by the binary reciprocity algorithm, no factoring.
    """
    if n <= 0 or n % 2 == 0:
        raise ValueError("n must be odd and positive")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


@cache
def euler_phi(q: int) -> int:
    if q < 1:
        raise ValueError("q must be positive")
    out = q
    for p, _ in factorize(q):
        out = out // p * (p - 1)
    return out


@cache
def moebius(q: int) -> int:
    if q < 1:
        raise ValueError("q must be positive")
    fac = factorize(q)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def divisors(q: int) -> tuple[int, ...]:
    """Positive divisors of q, ascending."""
    out = [1]
    for p, e in factorize(q):
        out = [d * p**k for d in out for k in range(e + 1)]
    return tuple(sorted(out))


def ramanujan(q: int, i: int) -> int:
    """Ramanujan sum: sum of zeta_q^(i*l) over units l mod q.

    Evaluated by Hoelder's formula moebius(q/g) * phi(q) / phi(q/g)
    with g = gcd(i, q).

    >>> ramanujan(15, 3)
    -2
    """
    g = math.gcd(i, q)
    core = q // g
    mu = moebius(core)
    if mu == 0:
        return 0
    val, rem = divmod(euler_phi(q), euler_phi(core))
    if rem != 0:
        raise InternalCheckError(f"phi({core}) does not divide phi({q})")
    return mu * val


def p_adic_split(i: int, p: int, f: int) -> tuple[int, int]:
    """(d, u) with i == u * p**d mod p**f, 0 <= d <= f and p not dividing u.

    When p**f divides i, returns (f, 1).
    """
    r = i % p**f
    if r == 0:
        return f, 1
    d = 0
    while r % p == 0:
        r //= p
        d += 1
    return d, r


def unit_sum(p: int, f: int, i: int) -> int:
    """Sum of zeta^(i*l) over units l mod p**f, zeta of order p**f.

    Equals  p**f - p**(f-1)  when p**f divides i,
            -p**(f-1)        when i is exactly divisible by p**(f-1),
            0                otherwise.
    """
    _require_odd_prime_power(p, f)
    d, _ = p_adic_split(i, p, f)
    if d == f:
        return p**f - p ** (f - 1)
    if d == f - 1:
        return -(p ** (f - 1))
    return 0


def _require_odd_prime_power(p: int, f: int) -> None:
    if f < 1:
        raise ValueError("f must be at least 1")
    if p == 2 or factorize(p) != ((p, 1),):
        raise ValueError("p must be an odd prime")


def _squarefree_split(n: int) -> tuple[int, int]:
    """(root, core) with n == root**2 * core and core squarefree; n positive."""
    root = 1
    core = 1
    for p, e in factorize(n):
        root *= p ** (e // 2)
        if e % 2:
            core *= p
    return root, core


@dataclass(frozen=True)
class GaussPhase:
    """Exact number  rational * i**quarter_turns * sqrt(radicand).

    Normal form: radicand is squarefree and positive, quarter_turns is
    reduced mod 4, and zero is (0, 0, 1).  Use :func:`phase` to build
    values in normal form.
    """

    rational: Fraction
    quarter_turns: int
    radicand: int

    def __complex__(self) -> complex:
        return complex(self.rational) * 1j**self.quarter_turns * math.sqrt(self.radicand)

    def __mul__(self, other: "GaussPhase") -> "GaussPhase":
        return phase(
            self.rational * other.rational,
            self.quarter_turns + other.quarter_turns,
            self.radicand * other.radicand,
        )

    def is_zero(self) -> bool:
        return self.rational == 0


def phase(rational, quarter_turns: int = 0, radicand: int = 1) -> GaussPhase:
    """GaussPhase in normal form; square factors of the radicand move out."""
    rational = Fraction(rational)
    if radicand <= 0:
        raise ValueError("radicand must be positive (fold signs into quarter_turns)")
    if rational == 0:
        return GaussPhase(Fraction(0), 0, 1)
    root, core = _squarefree_split(radicand)
    return GaussPhase(rational * root, quarter_turns % 4, core)


PHASE_ONE = GaussPhase(Fraction(1), 0, 1)
PHASE_ZERO = GaussPhase(Fraction(0), 0, 1)


def phase_product(factors) -> GaussPhase:
    out = PHASE_ONE
    for f in factors:
        out = out * f
    return out


def sqrt_phase(x: int) -> GaussPhase:
    """Principal square root of a nonzero integer: sqrt(-n) = i*sqrt(n)."""
    if x == 0:
        return PHASE_ZERO
    if x > 0:
        return phase(1, 0, x)
    return phase(1, 1, -x)


def gauss_sum(p: int) -> GaussPhase:
    """Quadratic Gauss sum g(p) = sum of (l|p) zeta_p^l over l mod p.

    Equals sqrt(p) for p = 1 mod 4 and i*sqrt(p) for p = 3 mod 4.
    """
    _require_odd_prime_power(p, 1)
    return phase(1, 0 if p % 4 == 1 else 1, p)


def twisted_sum(p: int, f: int, i: int) -> GaussPhase:
    """Sum of (l|p) zeta^(i*l) over units l mod p**f, zeta of order p**f.

    Writing i == u * p**d mod p**f, the sum is p**(f-1) * (u|p) * g(p)
    when d == f - 1 and vanishes otherwise.
    """
    _require_odd_prime_power(p, f)
    d, u = p_adic_split(i, p, f)
    if d != f - 1:
        return PHASE_ZERO
    return phase(p ** (f - 1) * jacobi(u, p)) * gauss_sum(p)


def phase_to_integer(x: GaussPhase) -> int:
    """Collapse a phase that must be a plain integer; raise otherwise."""
    if x.is_zero():
        return 0
    if x.radicand != 1:
        raise IrrationalResidueError(f"irrational residue: {x}")
    if x.quarter_turns % 2:
        raise IrrationalResidueError(f"non-real residue: {x}")
    value = x.rational if x.quarter_turns == 0 else -x.rational
    if value.denominator != 1:
        raise IrrationalResidueError(f"non-integral residue: {x}")
    return int(value)
