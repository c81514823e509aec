"""Integer partitions, the hook bijection phi, and the sign of a split class.

A partition is a plain tuple of weakly decreasing positive integers; the
empty tuple is the unique partition of 0.

A partition is checked once, where it enters the library: by
parse_partition when it arrives as text, by the AnIrrep and AnClass
constructors when it arrives as a label, and by every partition-taking
function that the altchar package exports.  Each raises
InvalidPartitionError on a malformed tuple.  Code below those points,
here and in the other modules, takes canonical tuples on trust and calls
the trusted kernels: _conjugate, _distinct_odd, _phi, _dimension and
_epsilon.  A checked entry point is its check followed by its kernel.
The labels that characters.an_irreps and an_classes build are not checked
either: their shapes come from partitions(n) and their tags from the
transpose map or class_splits, so a character table checks no partition.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import cache

Partition = tuple[int, ...]


class InvalidPartitionError(ValueError):
    """Raised when a sequence is not a weakly decreasing positive tuple."""


def check_partition(parts) -> Partition:
    """Return parts as a canonical partition tuple, or raise."""
    mu = tuple(parts)
    for p in mu:
        if not isinstance(p, int) or isinstance(p, bool):
            raise InvalidPartitionError(f"parts must be integers: {mu!r}")
    if any(a < b for a, b in zip(mu, mu[1:])):
        raise InvalidPartitionError(f"parts must be weakly decreasing: {mu!r}")
    if mu and mu[-1] <= 0:
        raise InvalidPartitionError(f"parts must be positive: {mu!r}")
    return mu


def parse_partition(text: str) -> Partition:
    """Parse a comma-separated partition label like "15,9,3".

    The empty string denotes the empty partition.
    """
    text = text.strip()
    if not text:
        return ()
    try:
        parts = tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise InvalidPartitionError(f"cannot parse partition {text!r}") from exc
    return check_partition(parts)


def format_partition(mu: Partition) -> str:
    """Inverse of parse_partition.

    >>> format_partition((5, 3, 1))
    '5,3,1'
    """
    return ",".join(str(p) for p in mu)


@cache
def partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n, in descending lexicographic order."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return ((),)
    out: list[Partition] = []

    def extend(remaining: int, biggest: int, prefix: list[int]) -> None:
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for p in range(min(biggest, remaining), 0, -1):
            prefix.append(p)
            extend(remaining - p, p, prefix)
            prefix.pop()

    extend(n, n, [])
    return tuple(out)


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram.

    >>> conjugate((3, 3, 1))
    (3, 2, 2)
    """
    return _conjugate(check_partition(lam))


def _conjugate(lam: Partition) -> Partition:
    """conjugate on a trusted tuple."""
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > i) for i in range(lam[0]))


def has_distinct_odd_parts(mu: Partition) -> bool:
    return _distinct_odd(check_partition(mu))


def _distinct_odd(mu: Partition) -> bool:
    """has_distinct_odd_parts on a trusted tuple: the types whose class splits."""
    return all(p % 2 for p in mu) and len(set(mu)) == len(mu)


def _epsilon(mu: Partition) -> int:
    """The sign (-1)**sum((p-1)/2) of a trusted type with distinct odd parts.

    It equals the part product mod 4, so eps * prod(mu) == 1 mod 4.
    """
    return -1 if sum((p - 1) // 2 for p in mu) % 2 else 1


def phi(mu: Partition) -> Partition:
    """The self-conjugate partition whose diagonal hook lengths are the parts of mu.

    Defined for partitions with distinct odd parts; inverse of reading off
    diagonal hooks.

    >>> phi((5, 3))
    (3, 3, 2)
    """
    mu = check_partition(mu)
    if not _distinct_odd(mu):
        raise InvalidPartitionError(f"parts must be distinct and odd: {mu}")
    return _phi(mu)


@cache
def _phi(mu: Partition) -> Partition:
    """phi on a trusted tuple with distinct odd parts, one memo entry per type."""
    # Row i < d is i cells left of the diagonal, the diagonal cell and its
    # arm (p_i - 1)/2.  The shape is self-conjugate, so column j < d is as
    # long as row j, and row r >= d counts the columns j < d longer than r.
    d = len(mu)
    rows = [(p - 1) // 2 + i + 1 for i, p in enumerate(mu)]
    depth = rows[0] if d else 0
    return tuple(rows + [sum(1 for row in rows if row > r) for r in range(d, depth)])


def dimension(lam: Partition) -> int:
    """Number of standard Young tableaux of shape lam (hook length formula)."""
    return _dimension(check_partition(lam))


@cache
def _dimension(lam: Partition) -> int:
    """n! over the product of the hook lengths of lam, cell by cell; lam is trusted.

    characters._mask_degree gives the same number by Frobenius' formula on
    the beta-set, for the MN leaf.  Neither calls the other: criterion 3
    checks each multiplicity vector's sum, built on the bead formula,
    against this hook-length product.
    """
    # Checked before the memo: (True,) and (2.0,) hash like (1,) and (2,).
    n = sum(lam)
    lamc = _conjugate(lam)
    denom = 1
    for i, row in enumerate(lam):
        for j in range(row):
            denom *= row - j + lamc[j] - i - 1
    return math.factorial(n) // denom


def centralizer_order_sn(mu: Partition) -> int:
    """Order of the centralizer in the symmetric group of a permutation of cycle type mu."""
    z = 1
    for part, k in Counter(mu).items():
        z *= part**k * math.factorial(k)
    return z


def sn_class_size(mu: Partition) -> int:
    return math.factorial(sum(mu)) // centralizer_order_sn(mu)


@cache
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization by trial division, ascending primes.

    >>> factorize(405)
    ((3, 4), (5, 1))
    """
    if n < 1:
        raise ValueError("n must be positive")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)
