"""Global conjugacy classes: classes whose centralizer subgroup is global.

A class is global when inducing the trivial representation of the
centralizer of one of its elements up to the whole group hits every
irreducible.  By Frobenius reciprocity the multiplicity of an irreducible
chi is (1/|Z|) * sum of chi over the centralizer Z, so the brute-force
check is a character sum over Z.

The sum is folded by Clifford theory from untagged S_n row sums.  Let Z
be the S_n-centralizer of w of cycle type mu, e = |Z n A_n| the number of
its even elements, and S(lam) = sum over even types t of count_t *
chi^lam(t), from characters._row_sums.  A whole irreducible restricts
from chi^lam, so its multiplicity is S/e.  When Z has an odd element (mu
does not split and n >= 2), that element normalizes Z n A_n and swaps the
two halves of a split lam, so each half takes S/(2e).  When Z lies in
A_n (mu splits, or n < 2), a half differs from chi^lam/2 only on the two
classes of its own hook type, (eps +- sqrt(eps M))/2 at lam = phi(mu),
the self-conjugate shape of diagonal hook lengths mu; and the only split
type in Z is mu itself: its prod phi(mu_i) elements (Euler's phi) with
unit rotations r_i.  Multiplying Z/mu_i by r_i has sign (r_i | mu_i)
(Frobenius-Zolotarev), so such an element lies in the plus class exactly
when prod (r_i | mu_i) = 1, and the plus count minus the minus count is
prod of sum over units r of (r | mu_i): phi(mu_i) when mu_i is a square,
else 0.  So a half has (S +- c)/(2e), plus on the plus half, with c = 0
unless every part of mu is a square and lam = phi(mu); there M is the
square prod mu_i, eps = 1 because every odd square is 1 mod 8, and
c = prod phi(mu_i) * sqrt(mu_i).  No sum reads a split class's tag.

The centralizer is a direct product of wreath products C_l wr S_k, one per
family of k cycles of length l.  The two routes, a verdict's method, differ
only in where each factor's distribution comes from: "explicit-centralizer"
walks its elements, when no part occurs thrice (the classification's own
hypothesis), so each factor has k <= 2 and l or 2 l**2 elements;
"type-distribution" takes the recurrence _wreath_type_distribution.  Both
are memoized per (l, k) as sorted (type, count) tuples, so a factor is
walked once per process however many types share it; with k <= 2 the walk
memo holds at most two entries per cycle length.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import chain
from itertools import permutations as iter_permutations
from itertools import product as iter_product

from .characters import (
    TAG_PLUS,
    AnIrrep,
    an_irreps,
    class_splits,
    in_alternating,
    _row_sums,
)
from .errors import InternalCheckError
from .partitions import (
    Partition,
    centralizer_order_sn,
    check_partition,
    format_partition,
    _phi,
)
from . import perms

BRUTE_FORCE_BOUND = 11

_GLOBAL_EXCEPTIONS = {(3, 1), (3, 3), (5, 3), (3, 3, 1, 1)}


def _none_thrice(mu: Partition) -> bool:
    """No part of mu occurs three or more times."""
    return max(Counter(mu).values(), default=0) <= 2


def qualifies(mu: Partition) -> bool:
    """Hypothesis of the classification: >= 2 parts, all odd, none thrice."""
    return len(mu) >= 2 and all(p % 2 for p in mu) and _none_thrice(mu)


@dataclass(frozen=True)
class GlobalVerdict:
    """Outcome of a global-class query."""

    mu: Partition
    is_global: bool | None  # None: outside the classified family
    rule: str
    method: str
    witness: tuple[str, int] | None = None  # least-hit irreducible, multiplicity

    def json_dict(self) -> dict:
        return {
            "mu": format_partition(self.mu),
            "n": sum(self.mu),
            "is_global": self.is_global,
            "rule": self.rule,
            "method": self.method,
            "witness": None
            if self.witness is None
            else {"irrep": self.witness[0], "multiplicity": self.witness[1]},
        }


def is_global_class(mu: Partition) -> GlobalVerdict:
    """Closed-form verdict; is_global is None outside the classified family."""
    mu = check_partition(mu)
    if not in_alternating(mu):
        raise ValueError(f"cycle type {format_partition(mu)} is odd, not an alternating class")
    if not qualifies(mu):
        return GlobalVerdict(mu, None, "global:out-of-scope", "closed-form")
    if mu in _GLOBAL_EXCEPTIONS:
        return GlobalVerdict(mu, False, "global:exception-list", "closed-form")
    return GlobalVerdict(mu, True, "global:odd-none-thrice", "closed-form")


# ---------------------------------------------------------------------------
# the centralizer's cycle-type distribution, walked or by recurrence


def _convolve(left, right) -> Counter:
    """The cycle-type distribution of a direct product, from its factors' (type, count) pairs."""
    out: Counter = Counter()
    for a, wa in left:
        for b, wb in right:
            out[tuple(sorted(a + b, reverse=True))] += wa * wb
    return out


@cache
def _walked_wreath_distribution(length: int, k: int) -> tuple[tuple[Partition, int], ...]:
    """Cycle-type distribution of C_length wr S_k, walked: each element takes block j, the points
    j*length onwards, to block arrangement[j] with its own rotation; memoized as the recurrence is."""
    blocks = [[tuple(b * length + (t + r) % length for t in range(length)) for r in range(length)]
              for b in range(k)]
    words = (tuple(chain.from_iterable(rotated)) for arrangement in iter_permutations(range(k))
             for rotated in iter_product(*[blocks[b] for b in arrangement]))
    return tuple(sorted(Counter(tuple(sorted(map(len, perms.cycles(w)), reverse=True)) for w in words).items()))


@cache
def _wreath_type_distribution(length: int, k: int) -> tuple[tuple[Partition, int], ...]:
    """Cycle-type distribution of C_length wr S_k on length*k points, by recurrence on k.

    An element is a permutation pi of the k blocks with a rotation in each.
    A c-cycle of pi whose rotations sum to r mod length is, on its points,
    gcd(length, r) cycles of size c*length/gcd(length, r): its c-th power
    rotates each of its blocks by r.  Of the length**c rotation vectors
    along it, length**(c-1) have each sum r; call that distribution R_c.
    Block 0 lies on one c-cycle of pi, whose other c - 1 blocks, in cycle
    order, are one of (k-1)!/(k-c)! sequences; the other k - c blocks carry
    any element of C_length wr S_(k-c).  So
    dist(k) = sum over c = 1..k of (k-1)!/(k-c)! * R_c (x) dist(k - c),
    with dist(0) = {(): 1}, (x) the convolution of a direct product, and
    the memo holds each smaller k.
    """
    if k == 0:
        return (((), 1),)
    gcds = Counter(math.gcd(length, r) for r in range(length))
    dist: Counter = Counter()
    sequences = 1  # (k-1)!/(k-c)!
    for c in range(1, k + 1):
        cycle = {(c * length // g,) * g: sequences * m * length ** (c - 1) for g, m in gcds.items()}
        dist.update(_convolve(cycle.items(), _wreath_type_distribution(length, k - c)))
        sequences *= k - c
    return tuple(sorted(dist.items()))


def _type_distribution(mu: Partition, factor) -> Counter:
    """The centralizer's cycle-type distribution, convolved from factor(l, k) per family of k l-cycles."""
    dist: Counter = Counter({(): 1})
    for length, k in sorted(Counter(mu).items()):
        dist = _convolve(dist.items(), factor(length, k))
    if sum(dist.values()) != centralizer_order_sn(mu):
        raise InternalCheckError(f"type distribution of the centralizer of {mu} has the wrong size")
    return dist


def an_inner_products(mu: Partition) -> tuple[dict[AnIrrep, int], str]:
    """Multiplicities of each irreducible in the induced trivial, plus the route.

    The Clifford fold of the module docstring.  At (9,), e = 9 and c = 6 * 3,
    from the six unit rotations of the 9-cycle, so the halves of
    phi(9) = (5, 1, 1, 1, 1) part by 2:

    >>> inner, _ = an_inner_products((9,))
    >>> [inner[AnIrrep((5, 1, 1, 1, 1), tag)] for tag in "+-"]
    [5, 3]
    """
    walk = _none_thrice(mu)
    dist = _type_distribution(mu, _walked_wreath_distribution if walk else _wreath_type_distribution)
    even = {t: count for t, count in dist.items() if in_alternating(t)}
    size = sum(even.values())
    # With no odd element (mu splits or has fewer than 2 points) every element is even; else half are.
    if (1 if class_splits(mu) or sum(mu) < 2 else 2) * size != centralizer_order_sn(mu):
        raise InternalCheckError(f"the even elements of the centralizer of {mu} are miscounted")
    squares = class_splits(mu) and all(math.isqrt(p) ** 2 == p for p in mu)
    hook = _phi(mu) if squares else None
    c = even[mu] * math.isqrt(math.prod(mu)) if squares else 0  # even[mu] = prod phi(mu_i)
    out = {}
    for rep, total in _row_sums(sum(mu), even):
        if rep.lam == hook:
            total += c if rep.tag == TAG_PLUS else -c
        den = 2 * size if rep.tag else size
        value, rem = divmod(total, den)
        if rem != 0 or value < 0:
            raise InternalCheckError(f"inner product not a non-negative integer: {total}/{den}")
        out[rep] = value
    return out, "explicit-centralizer" if walk else "type-distribution"


def global_brute_force(mu: Partition, bound: int = BRUTE_FORCE_BOUND) -> GlobalVerdict:
    """Verdict by summing every irreducible character over the centralizer."""
    mu = check_partition(mu)
    if sum(mu) > bound:
        raise ValueError(f"brute force bounded at n={bound}; raise it explicitly if intended")
    if not in_alternating(mu):
        raise ValueError(f"cycle type {format_partition(mu)} is odd, not an alternating class")
    inner, method = an_inner_products(mu)
    if inner[an_irreps(sum(mu))[0]] < 1:
        raise InternalCheckError(f"the trivial irreducible is missed at {mu}")
    least = min(inner.values())
    rep = min((r for r, v in inner.items() if v == least), key=AnIrrep.label)
    return GlobalVerdict(
        mu,
        least >= 1,
        "global:character-sums",
        method,
        (rep.label(), least),
    )
