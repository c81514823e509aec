"""Closed-form classifiers: invariant vectors, unisingularity, n-cycle gaps.

Each group's invariant-vector result is written once, as one ordered list
of (rule id, shape, class) per n, _sn_rules and _an_rules, naming every
pair whose class element fixes no nonzero vector of the shape.  The
invariant_failure predicates return the first rule that matches; the
unisingular predicates ask whether any rule names the shape.  The engine is
never called here: the tests replay every list against whole character
columns, so a transcription slip surfaces as a failure, not a wrong answer.

Rule identifiers double as provenance strings: the CLI prints them as the
rule behind each verdict or gap, in every output format.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .characters import AnClass, AnIrrep, in_alternating
from .partitions import Partition, check_partition

Rule = tuple[str, Partition, "Partition | None"]  # (rule id, shape, class)


def _hook_with_two(n: int) -> Partition:
    return (2,) + (1,) * (n - 2)


def _two_column(n: int) -> Partition:
    return (2, 2) + (1,) * (n - 4)


# ---------------------------------------------------------------------------
# invariant vectors under a single permutation, symmetric group

_SN_SPORADIC = {
    ((2, 2), (3, 1)): "sn:(2,2)-at-(3,1)",
    ((2, 2, 2), (3, 2, 1)): "sn:(2,2,2)-at-(3,2,1)",
    ((2, 2, 2, 2), (5, 3)): "sn:(2,2,2,2)-at-(5,3)",
    ((4, 4), (5, 3)): "sn:(4,4)-at-(5,3)",
    ((2, 2, 2, 2, 2), (5, 3, 2)): "sn:(2,2,2,2,2)-at-(5,3,2)",
}


@cache
def _sn_rules(n: int) -> tuple[Rule, ...]:
    """The S_n rules of size n in precedence order: the four families, then the sporadic pairs.

    Class None is every odd class.  Two pairs meet two rules and take the
    first: (1,1) at (2) is the sign rule, and (2,1) at (3) the standard one.
    """
    rules: list[Rule] = []
    if n >= 2:
        rules.append(("sn:sign-at-odd-class", (1,) * n, None))
        rules.append(("sn:standard-at-n-cycle", (n - 1, 1), (n,)))
    if n >= 3 and n % 2 == 1:
        rules.append(("sn:twisted-standard-at-n-cycle", _hook_with_two(n), (n,)))
    if n >= 5 and n % 2 == 1:
        rules.append(("sn:two-column-at-near-cycle", _two_column(n), (n - 2, 2)))
    rules.extend((rule, lam, mu) for (lam, mu), rule in _SN_SPORADIC.items() if sum(lam) == n)
    return tuple(rules)


def invariant_failure_sn(lam: Partition, mu: Partition) -> str | None:
    """Rule id when w_mu has no invariant vector in shape lam, else None."""
    lam = check_partition(lam)
    mu = check_partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError("sizes differ")
    for rule, shape, cls in _sn_rules(sum(lam)):
        if shape == lam and (cls == mu if cls else not in_alternating(mu)):
            return rule
    return None


def unisingular_sn(lam: Partition) -> bool:
    """True when every permutation has an invariant vector in shape lam."""
    lam = check_partition(lam)
    return all(shape != lam for _, shape, _ in _sn_rules(sum(lam)))


# ---------------------------------------------------------------------------
# the same questions inside the alternating group

_AN_SPORADIC = {
    ((2, 1), (3,)): "an:(2,1)-at-(3)",
    ((2, 2), (3, 1)): "an:(2,2)-at-(3,1)",
    ((4, 4), (5, 3)): "an:(4,4)-at-(5,3)",
}


@cache
def _an_rules(n: int) -> tuple[Rule, ...]:
    """The A_n rules of size n in precedence order: the sporadic pairs, then the standard family.

    No rule reads a split tag, so both halves of a split irreducible fail
    together, at both halves of a split class.
    """
    rules: list[Rule] = [(rule, lam, mu) for (lam, mu), rule in _AN_SPORADIC.items() if sum(lam) == n]
    if n > 3 and n % 2 == 1:
        rules.append(("an:standard-at-n-cycle", (n - 1, 1), (n,)))
    return tuple(rules)


def invariant_failure_an(rep: AnIrrep, cls: AnClass) -> str | None:
    """Rule id when the class has no invariant vector in rep, else None."""
    if rep.n != cls.n:
        raise ValueError("sizes differ")
    for rule, shape, mu in _an_rules(rep.n):
        if shape == rep.lam and mu == cls.mu:
            return rule
    return None


def unisingular_an(rep: AnIrrep) -> bool:
    """True when every element of the alternating group has an invariant vector in rep."""
    return all(shape != rep.lam for _, shape, _ in _an_rules(rep.n))


# ---------------------------------------------------------------------------
# eigenvalue gaps of an n-cycle


@dataclass(frozen=True)
class NCycleGap:
    """One missing eigenvalue index of the n-cycle in one shape."""

    lam: Partition
    i: int
    rule: str


def n_cycle_gaps(n: int) -> tuple[NCycleGap, ...]:
    """All (shape, index) pairs where the n-cycle misses eigenvalue zeta_n^i.

    Five families and three sporadic shapes.  The one-row, one-column and
    standard families are encoded as computation fixes them: the one-row
    shape has only the eigenvalue 1 whatever the parity of n, the
    one-column shape follows the sign of the n-cycle, and the standard
    shape misses exactly the eigenvalue 1.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    gaps: list[NCycleGap] = []
    seen: set[tuple[Partition, int]] = set()

    def add(lam: Partition, indices, rule: str) -> None:
        for i in indices:
            key = (lam, i % n)
            if key not in seen:
                seen.add(key)
                gaps.append(NCycleGap(lam, i % n, rule))

    add((n,), range(1, n), "ncycle:one-row")
    sign_index = 0 if n % 2 == 1 else n // 2
    add((1,) * n, (i for i in range(n) if i != sign_index), "ncycle:one-column")
    add((n - 1, 1), [0], "ncycle:standard")
    if n >= 3:
        add(_hook_with_two(n), [0 if n % 2 == 1 else n // 2], "ncycle:twisted-standard")
    if n == 4:
        add((2, 2), (1, 3), "ncycle:(2,2)")
    if n == 6:
        add((2, 2, 2), (1, 5), "ncycle:(2,2,2)")
        add((3, 3), (2, 4), "ncycle:(3,3)")
    return tuple(gaps)
