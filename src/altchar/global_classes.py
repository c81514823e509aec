"""Global conjugacy classes: classes whose centralizer subgroup is global.

A class is global when inducing the trivial representation of the
centralizer of one of its elements up to the whole group hits every
irreducible.  By Frobenius reciprocity the multiplicity of an irreducible
chi is (1/|Z|) * sum of chi over the centralizer Z, so the brute-force
check is a character sum over Z.

The sum itself is characters._induced_trivial, over a tally of the even
centralizer elements by alternating class; this module builds the
centralizer, counts the tally and reads the verdict.  The centralizer is a
direct product of wreath products C_l wr S_k, one per family of k cycles of
length l, and two routes count the tally.  The explicit route walks the
elements of each factor once (one rotation per cycle, block swaps between
equal-length cycles), groups them by cycle type and multiplies the group
sizes; only the elements of a split type are built across factors, each
tagged by the parity of the word that lays its cycles end to end.  It is
the reference.  The distribution route never touches elements: each
factor's cycle-type distribution has a classical combinatorial
description, which _wreath_type_distribution builds by a recurrence on
the number k of cycles, each smaller k from its memo, and
_distribution_tally says why each half of a split type gets half its
count.  It covers exactly the types whose centralizer contains an odd
permutation, which includes every type that the explicit route's size
guard rejects.
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
    _distinct_odd,
    centralizer_order_sn,
    check_partition,
    format_partition,
)
from . import perms

BRUTE_FORCE_BOUND = 11
_EXPLICIT_LIMIT = 250_000

_GLOBAL_EXCEPTIONS = {(3, 1), (3, 3), (5, 3), (3, 3, 1, 1)}


def qualifies(mu: Partition) -> bool:
    """Hypothesis of the classification: >= 2 parts, all odd, none thrice."""
    if len(mu) < 2 or any(p % 2 == 0 for p in mu):
        return False
    return max(Counter(mu).values()) <= 2


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
# the centralizer, explicitly


def _factor_groups(length: int, k: int, offset: int) -> list[list]:
    """The elements of C_length wr S_k, grouped by cycle type.

    Each element is a word on the factor's own length*k points: block j,
    the points j*length onwards, goes to block arrangement[j] with its own
    rotation.  Each group is [type, count, elements].  Only a type with
    distinct odd parts can be part of a split type, so only such a group
    keeps its elements, each as its cycles by decreasing length, shifted
    by offset onto the factor's points in standard_rep(mu); every other
    group keeps None.
    """
    blocks = [[tuple(b * length + (t + r) % length for t in range(length)) for r in range(length)]
              for b in range(k)]
    groups: dict[Partition, list] = {}
    for arrangement in iter_permutations(range(k)):
        for rotated in iter_product(*[blocks[b] for b in arrangement]):
            cs = perms.cycles(tuple(chain.from_iterable(rotated)))
            t = tuple(sorted(map(len, cs), reverse=True))
            group = groups.get(t)
            if group is None:
                group = groups[t] = [t, 0, [] if _distinct_odd(t) else None]
            group[1] += 1
            if group[2] is not None:
                cs.sort(key=len, reverse=True)
                group[2].append([tuple(x + offset for x in c) for c in cs] if offset else cs)
    return list(groups.values())


def _explicit_tally(mu: Partition) -> Counter:
    """Even centralizer elements per (cycle type, tag) key, one factor at a time.

    The centralizer of standard_rep(mu) is the direct product of one
    C_l wr S_k per family of k cycles of length l.  Each factor's elements
    are walked once and grouped by cycle type (_factor_groups), and one
    group per factor gives a type, counted by the product of the group
    sizes.  A split type has one cycle of each length, so its groups kept
    their elements, and each element of their product is tagged on its
    own.  Laying its cycles end to end by decreasing length gives the word
    of the conjugator that carries standard_rep of its type onto it, cycle
    onto cycle, each from its smallest point.  The element lies in the
    plus class, the one of standard_rep, exactly when that word is even.
    """
    order = centralizer_order_sn(mu)
    if order > _EXPLICIT_LIMIT:
        raise InternalCheckError(f"centralizer order {order} exceeds {_EXPLICIT_LIMIT}")
    factors = []
    offset = 0
    for length, k in Counter(mu).items():
        factors.append(_factor_groups(length, k, offset))
        offset += length * k
    tally: Counter = Counter()
    counted = 0
    for combo in iter_product(*factors):
        types, sizes, kept = zip(*combo)
        t = tuple(sorted(chain.from_iterable(types), reverse=True))
        size = math.prod(sizes)
        counted += size
        if not in_alternating(t):
            continue
        if not class_splits(t):
            tally[t, TAG_NONE] += size
            continue
        for element in iter_product(*kept):
            word = tuple(chain.from_iterable(sorted(chain.from_iterable(element), key=len, reverse=True)))
            tally[t, TAG_PLUS if perms.sign(word) == 1 else TAG_MINUS] += 1
    if counted != order:
        raise InternalCheckError(f"counted {counted} centralizer elements for {mu}, expected {order}")
    return tally


# ---------------------------------------------------------------------------
# the centralizer, by cycle-type distribution


def _convolve(left, right) -> Counter:
    """The cycle-type distribution of a direct product, from its factors' (type, count) pairs."""
    out: Counter = Counter()
    for a, wa in left:
        for b, wb in right:
            out[tuple(sorted(a + b, reverse=True))] += wa * wb
    return out


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


def centralizer_type_distribution(mu: Partition) -> dict[Partition, int]:
    """How many centralizer elements of standard_rep(mu) have each cycle type."""
    dist: Counter = Counter({(): 1})
    for length, k in sorted(Counter(mu).items()):
        dist = _convolve(dist.items(), _wreath_type_distribution(length, k))
    if sum(dist.values()) != centralizer_order_sn(mu):
        raise InternalCheckError(f"type distribution of the centralizer of {mu} has the wrong size")
    return dict(dist)


def _distribution_tally(mu: Partition) -> Counter:
    """Even centralizer elements per (cycle type, tag) key, from cycle types alone.

    Valid only when the centralizer contains an odd permutation: conjugating
    by it swaps the two halves of any split class, so each half receives
    half of its type's count.
    """
    if class_splits(mu):
        raise InternalCheckError(f"distribution route needs an odd element in the centralizer of {mu}")
    tally: Counter = Counter()
    for t, count in centralizer_type_distribution(mu).items():
        if not in_alternating(t):
            continue
        if not class_splits(t):
            tally[t, TAG_NONE] = count
        elif count % 2:
            raise InternalCheckError(f"odd count {count} on split type {t} in the centralizer of {mu}")
        else:
            tally[t, TAG_PLUS] = tally[t, TAG_MINUS] = count // 2
    if 2 * sum(tally.values()) != centralizer_order_sn(mu):
        raise InternalCheckError(f"even elements are not half the centralizer of {mu}")
    return tally


def an_inner_products(mu: Partition) -> tuple[dict[AnIrrep, int], str]:
    """Multiplicities of each irreducible in the induced trivial, plus the route."""
    if class_splits(mu) or centralizer_order_sn(mu) <= _EXPLICIT_LIMIT:
        return _induced_trivial(sum(mu), _explicit_tally(mu)), "explicit-centralizer"
    return _induced_trivial(sum(mu), _distribution_tally(mu)), "type-distribution"


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
