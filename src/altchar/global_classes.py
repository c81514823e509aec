"""Global conjugacy classes: classes whose centralizer subgroup is global.

A class is global when inducing the trivial representation of the
centralizer of one of its elements up to the whole group hits every
irreducible.  By Frobenius reciprocity the multiplicity of an irreducible
chi is (1/|Z|) * sum of chi over the centralizer Z, so the brute-force
check is a character sum over Z.

The sum itself is characters._induced_trivial, over a tally of the even
centralizer elements by alternating class; this module builds the
centralizer, counts the tally and reads the verdict.  Two routes count the
tally.  The explicit route builds the centralizer elements from its
generators (one rotation per cycle, block swaps between equal-length
cycles) and tags each split element by the parity of the word that lays
its cycles end to end; it is the reference.  The distribution route never
touches elements: the centralizer is a direct product of wreath products
C_l wr S_k, whose cycle-type distribution has a classical combinatorial
description, and _distribution_tally says why each half of a split type
gets half its count.  It covers exactly the types whose centralizer
contains an odd permutation, which includes every type that the
explicit route's size guard rejects.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cache
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
    partitions,
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


def centralizer_elements(mu: Partition) -> list[perms.Perm]:
    """All permutations commuting with standard_rep(mu), by direct product.

    Per family of k cycles of common length l the factor is C_l wr S_k:
    an independent rotation of each cycle and a permutation of the blocks.
    The route dispatch in an_inner_products sends only centralizers of at
    most _EXPLICIT_LIMIT elements here.
    """
    order = centralizer_order_sn(mu)
    if order > _EXPLICIT_LIMIT:
        raise InternalCheckError(f"centralizer order {order} exceeds {_EXPLICIT_LIMIT}")
    n = sum(mu)
    blocks: dict[int, list[list[int]]] = {}
    start = 0
    for part in mu:
        blocks.setdefault(part, []).append(list(range(start, start + part)))
        start += part

    factor_choices = []
    for length, family in blocks.items():
        k = len(family)
        choices = []
        for arrangement in iter_permutations(range(k)):
            for rotations in iter_product(range(length), repeat=k):
                choices.append((family, arrangement, rotations, length))
        factor_choices.append(choices)

    out = []
    for combo in iter_product(*factor_choices):
        images = [0] * n
        for family, arrangement, rotations, length in combo:
            for j, block in enumerate(family):
                target = family[arrangement[j]]
                r = rotations[j]
                for t in range(length):
                    images[block[t]] = target[(t + r) % length]
        out.append(tuple(images))
    if len(out) != order:
        raise InternalCheckError(f"built {len(out)} centralizer elements for {mu}, expected {order}")
    return out


def _explicit_tally(mu: Partition) -> Counter:
    """Even centralizer elements per (cycle type, tag) key, tagged one by one.

    A split type has one cycle of each length, so laying an element's
    cycles end to end by decreasing length gives the word of the
    conjugator that carries standard_rep of its type onto it, cycle onto
    cycle, each from its smallest point.  The element lies in the plus
    class, the one of standard_rep, exactly when that word is even.
    """
    tally: Counter = Counter()
    for g in centralizer_elements(mu):
        cs = sorted(perms.cycles(g), key=len, reverse=True)
        t = tuple(len(c) for c in cs)
        if not in_alternating(t):
            continue
        if class_splits(t):
            word = tuple(x for c in cs for x in c)
            tally[t, TAG_PLUS if perms.sign(word) == 1 else TAG_MINUS] += 1
        else:
            tally[t, TAG_NONE] += 1
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
    """Cycle-type distribution of C_length wr S_k on length*k points.

    An element is a permutation pi of the k blocks with a rotation in each;
    a c-cycle of pi whose rotations sum to r contributes gcd(length, r)
    cycles of size c*length/gcd(length, r), and the number of rotation
    vectors along the c-cycle with a given sum is length**(c-1).
    """
    dist: Counter = Counter()
    for kappa in partitions(k):
        weight = math.factorial(k) // centralizer_order_sn(kappa)
        partial: Counter = Counter({(): weight})
        for c in kappa:
            per_cycle: Counter = Counter()
            for r in range(length):
                g = math.gcd(length, r)
                per_cycle[(c * length // g,) * g] += length ** (c - 1)
            partial = _convolve(partial.items(), per_cycle.items())
        dist.update(partial)
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
