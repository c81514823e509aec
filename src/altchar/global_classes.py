"""Global conjugacy classes: classes whose centralizer subgroup is global.

A class is global when inducing the trivial representation of the
centralizer of one of its elements up to the whole group hits every
irreducible.  By Frobenius reciprocity the multiplicity of an irreducible
chi is (1/|Z|) * sum of chi over the centralizer Z, so the brute-force
check is a character sum over Z.

The sum itself is characters._induced_trivial, over a tally of the even
centralizer elements by alternating class that _tally reads off the
centralizer's cycle-type distribution, with one rule for the split classes.
The centralizer is a direct product of wreath products C_l wr S_k, one per
family of k cycles of length l.  The two routes, a verdict's method, differ
only in where each factor's distribution comes from: "explicit-centralizer"
walks its elements, when no part occurs thrice (the classification's own
hypothesis), so each factor has k <= 2 and l or 2 l**2 elements;
"type-distribution" takes the recurrence _wreath_type_distribution.
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
    TAG_NONE,
    TAG_PLUS,
    TAG_MINUS,
    AnIrrep,
    an_irreps,
    class_splits,
    in_alternating,
    _induced_trivial,
)
from .errors import InternalCheckError
from .partitions import (
    Partition,
    centralizer_order_sn,
    check_partition,
    format_partition,
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


def _walked_wreath_distribution(length: int, k: int):
    """Cycle-type distribution of C_length wr S_k, walked: each element takes block j, the points
    j*length onwards, to block arrangement[j] with its own rotation."""
    blocks = [[tuple(b * length + (t + r) % length for t in range(length)) for r in range(length)]
              for b in range(k)]
    words = (tuple(chain.from_iterable(rotated)) for arrangement in iter_permutations(range(k))
             for rotated in iter_product(*[blocks[b] for b in arrangement]))
    return Counter(tuple(sorted(map(len, perms.cycles(w)), reverse=True)) for w in words).items()


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


def _tally(mu: Partition, dist) -> Counter:
    """Even centralizer elements of standard_rep(mu) per (cycle type, tag) key, from the type distribution dist.

    When mu does not split, an odd centralizer element swaps the two
    classes of each split type, so each takes half the type's count.  When
    mu splits, the centralizer is the product of its cycles' rotations, and
    mu is its one split type: the elements with unit rotations r_i.
    Multiplying Z/mu_i by r_i has sign (r_i | mu_i) (Frobenius-Zolotarev),
    so such an element is plus, in the class of standard_rep(mu), exactly
    when prod (r_i | mu_i) = 1: all prod phi(mu_i) of them when every part
    is a square, as the six unit rotations of the 9-cycle at (9, 1), and
    half otherwise, as 4 and 4 at (5, 3).

    >>> tallies = {mu: _tally(mu, _type_distribution(mu, _wreath_type_distribution)) for mu in ((9, 1), (5, 3))}
    >>> [tallies[mu][mu, tag] for mu in tallies for tag in "+-"]
    [6, 0, 4, 4]
    """
    tally: Counter = Counter()
    for t, count in dist.items():
        if not in_alternating(t):
            continue
        if not class_splits(t):
            tally[t, TAG_NONE] = count
        elif t != mu and count % 2:
            raise InternalCheckError(f"odd count {count} on split type {t} in the centralizer of {mu}")
        else:
            plus = count if t == mu and all(math.isqrt(p) ** 2 == p for p in mu) else count // 2
            tally[t, TAG_PLUS], tally[t, TAG_MINUS] = plus, count - plus
    # With no odd element (mu splits or has fewer than 2 points) every element is even; else half are.
    if (1 if class_splits(mu) or sum(mu) < 2 else 2) * sum(tally.values()) != centralizer_order_sn(mu):
        raise InternalCheckError(f"the even elements of the centralizer of {mu} are miscounted")
    return tally


def an_inner_products(mu: Partition) -> tuple[dict[AnIrrep, int], str]:
    """Multiplicities of each irreducible in the induced trivial, plus the route."""
    walk = _none_thrice(mu)
    dist = _type_distribution(mu, _walked_wreath_distribution if walk else _wreath_type_distribution)
    return _induced_trivial(sum(mu), _tally(mu, dist)), "explicit-centralizer" if walk else "type-distribution"


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
