"""Jacobi symbols, divisor functions and Ramanujan sums.

ramanujan(q, i) evaluates

    sum over units l mod q of  zeta^(i*l),   zeta = exp(2*pi*I/q),

and p_adic_split gives the (d, u) with i == u * p**d mod p**f on which
the split bias depends.  Everything is an integer.
"""

from __future__ import annotations

import math
from functools import cache

from .errors import InternalCheckError
from .partitions import factorize


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


def _squarefree_split(n: int) -> tuple[int, int]:
    """(root, core) with n == root**2 * core and core squarefree; n positive."""
    root = 1
    core = 1
    for p, e in factorize(n):
        root *= p ** (e // 2)
        if e % 2:
            core *= p
    return root, core
