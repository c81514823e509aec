"""Closed-form classifiers: invariant vectors, unisingularity, n-cycle gaps.

Each predicate is evaluated from a finite list of exception families and
sporadic cases, in constant time; the multiplicity engine is never called
here.  The verification suite replays every list against the engine, so a
transcription slip in a family would surface as a test failure, not as a
silent wrong answer.

Rule identifiers double as provenance strings: the CLI prints them as the
rule behind each verdict or gap, in every output format.
"""

from __future__ import annotations

from dataclasses import dataclass

from .characters import AnClass, AnIrrep, in_alternating
from .partitions import Partition, check_partition


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


def invariant_failure_sn(lam: Partition, mu: Partition) -> str | None:
    """Rule id when w_mu has no invariant vector in shape lam, else None."""
    lam = check_partition(lam)
    mu = check_partition(mu)
    n = sum(lam)
    if n != sum(mu):
        raise ValueError("sizes differ")
    if n >= 2 and lam == (1,) * n and not in_alternating(mu):
        return "sn:sign-at-odd-class"
    if n >= 2 and lam == (n - 1, 1) and mu == (n,):
        return "sn:standard-at-n-cycle"
    if n >= 3 and n % 2 == 1 and lam == _hook_with_two(n) and mu == (n,):
        return "sn:twisted-standard-at-n-cycle"
    if n >= 5 and n % 2 == 1 and lam == _two_column(n) and mu == (n - 2, 2):
        return "sn:two-column-at-near-cycle"
    return _SN_SPORADIC.get((lam, mu))


def has_invariant_sn(lam: Partition, mu: Partition) -> bool:
    return invariant_failure_sn(lam, mu) is None


def unisingular_sn(lam: Partition) -> bool:
    """True when every permutation has an invariant vector in shape lam."""
    lam = check_partition(lam)
    n = sum(lam)
    if n >= 2 and lam in ((1,) * n, (n - 1, 1)):
        return False
    if n >= 3 and n % 2 == 1 and lam == _hook_with_two(n):
        return False
    if n >= 5 and n % 2 == 1 and lam == _two_column(n):
        return False
    return lam not in {pair[0] for pair in _SN_SPORADIC}


# ---------------------------------------------------------------------------
# the same questions inside the alternating group

_AN_SPORADIC = {
    ((2, 1), (3,)): "an:(2,1)-at-(3)",
    ((2, 2), (3, 1)): "an:(2,2)-at-(3,1)",
    ((4, 4), (5, 3)): "an:(4,4)-at-(5,3)",
}


def invariant_failure_an(rep: AnIrrep, cls: AnClass) -> str | None:
    """Rule id when the class has no invariant vector in rep, else None.

    The verdict never depends on the split tags; both halves of a split
    irreducible fail together, at both halves of a split class.
    """
    if rep.n != cls.n:
        raise ValueError("sizes differ")
    n = rep.n
    sporadic = _AN_SPORADIC.get((rep.lam, cls.mu))
    if sporadic:
        return sporadic
    if n > 3 and n % 2 == 1 and rep.lam == (n - 1, 1) and cls.mu == (n,):
        return "an:standard-at-n-cycle"
    return None


def has_invariant_an(rep: AnIrrep, cls: AnClass) -> bool:
    return invariant_failure_an(rep, cls) is None


def unisingular_an(rep: AnIrrep) -> bool:
    n = rep.n
    if rep.lam in {pair[0] for pair in _AN_SPORADIC}:
        return False
    if n > 3 and n % 2 == 1 and rep.lam == (n - 1, 1):
        return False
    return True


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


def n_cycle_gap_set(n: int) -> frozenset[tuple[Partition, int]]:
    return frozenset((g.lam, g.i) for g in n_cycle_gaps(n))
