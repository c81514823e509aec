import cmath
import math

import pytest

from altchar import perms
from altchar.characters import (
    TAG_MINUS,
    TAG_NONE,
    TAG_PLUS,
    AnClass,
    an_classes,
    an_irreps,
    mn_character,
)
from altchar.classify import (
    invariant_failure_an,
    invariant_failure_sn,
    n_cycle_gaps,
    unisingular_an,
    unisingular_sn,
)
from altchar.multiplicity import (
    _power_type,
    an_multiplicity_vector,
    bias_vector,
    order_of_type,
    power_conjugacy,
    sn_multiplicity_vector,
)
from altchar.numtheory import divisors, euler_phi
from altchar.partitions import partitions, phi
from conftest import an_character, column, quad_complex


@pytest.mark.parametrize("n", range(1, 10))
def test_symmetric_invariants_match_the_engine(n):
    for lam in partitions(n):
        for mu in partitions(n):
            predicted = invariant_failure_sn(lam, mu) is None
            assert predicted == (sn_multiplicity_vector(lam, mu).entries[0] > 0), (lam, mu)


@pytest.mark.parametrize("n", range(2, 10))
def test_alternating_invariants_match_the_engine(n):
    for rep in an_irreps(n):
        for cls in an_classes(n):
            predicted = invariant_failure_an(rep, cls) is None
            assert predicted == (an_multiplicity_vector(rep, cls).entries[0] > 0), (rep, cls)


def test_sporadic_failures_carry_rules():
    assert invariant_failure_sn((2, 2), (3, 1)) == "sn:(2,2)-at-(3,1)"
    assert invariant_failure_sn((4, 4), (5, 3)) == "sn:(4,4)-at-(5,3)"
    assert invariant_failure_sn((3, 1), (3, 1)) is None


def test_family_failures_carry_rules():
    # the sign shape fails at any class with an odd permutation power pattern
    assert invariant_failure_sn((1, 1, 1, 1), (2, 1, 1)) == "sn:sign-at-odd-class"
    assert invariant_failure_sn((4, 1), (5,)) == "sn:standard-at-n-cycle"
    # two pairs meet two rules, and the first rule in the list names them
    assert invariant_failure_sn((1, 1), (2,)) == "sn:sign-at-odd-class"  # (1,1) is also the standard shape
    assert invariant_failure_sn((2, 1), (3,)) == "sn:standard-at-n-cycle"  # (2,1) is also the twisted one


def invariant_counts(n: int) -> dict:
    """a_0 of every shape at every type of size n, as {mu: a_0 by row of partitions(n)}.

    a_0 = (1/m) * sum over d | m of phi(m/d) * chi(w**d), the i = 0 case of
    the Fourier step (c_q(0) = phi(q)), for all shapes at once from columns.
    """
    out = {}
    for mu in partitions(n):
        m = order_of_type(mu)
        total = [0] * len(partitions(n))
        for d in divisors(m):
            for r, chi in enumerate(column(_power_type(mu, d))):
                total[r] += euler_phi(m // d) * chi
        assert all(t % m == 0 for t in total), mu
        out[mu] = [t // m for t in total]
    return out


def an_invariant_count(rep, cls, counts, row) -> int:
    """a_0 of rep at cls: (a_0 +- d_0)/2 for a split half at its own hook class, a_0/2 at the others."""
    a0 = counts[cls.mu][row[rep.lam]]
    if not rep.tag:
        return a0
    if cls.tag and phi(cls.mu) == rep.lam:
        d0 = bias_vector(cls.mu)[0].value
        a0 += d0 if rep.tag == cls.tag else -d0
    assert a0 % 2 == 0, (rep, cls)
    return a0 // 2


@pytest.mark.parametrize("n", range(1, 19))
def test_every_rule_list_replays_against_whole_columns(n):
    """Both invariant-vector lists and both unisingular predicates, on every pair of size n."""
    counts = invariant_counts(n)
    row = {lam: r for r, lam in enumerate(partitions(n))}
    for lam, r in row.items():
        fixes = [counts[mu][r] > 0 for mu in partitions(n)]
        for mu, fixed in zip(partitions(n), fixes):
            assert fixed == (invariant_failure_sn(lam, mu) is None), (lam, mu)
        assert unisingular_sn(lam) == all(fixes), lam
    for rep in an_irreps(n):
        fixes = [an_invariant_count(rep, cls, counts, row) > 0 for cls in an_classes(n)]
        for cls, fixed in zip(an_classes(n), fixes):
            assert fixed == (invariant_failure_an(rep, cls) is None), (rep, cls)
        assert unisingular_an(rep) == all(fixes), rep


@pytest.mark.parametrize("n", range(1, 10))
def test_unisingular_sn_is_the_conjunction(n):
    for lam in partitions(n):
        brute = all(sn_multiplicity_vector(lam, mu).entries[0] > 0 for mu in partitions(n))
        assert unisingular_sn(lam) == brute


@pytest.mark.parametrize("n", range(2, 10))
def test_unisingular_an_is_the_conjunction(n):
    for rep in an_irreps(n):
        brute = all(an_multiplicity_vector(rep, cls).entries[0] > 0 for cls in an_classes(n))
        assert unisingular_an(rep) == brute


def test_unisingular_known_cases():
    assert unisingular_sn((6,))  # trivial
    assert not unisingular_sn((1, 1, 1, 1))  # sign dies on odd classes
    assert not unisingular_sn((2, 2))  # sporadic failure at (3,1)
    assert not unisingular_sn((5, 1))  # standard shape misses the 6-cycle


@pytest.mark.parametrize("n", range(2, 10))
def test_gap_catalog_equals_the_computed_zero_set(n):
    computed = {
        (lam, i)
        for lam in partitions(n)
        for i, a in enumerate(sn_multiplicity_vector(lam, (n,)).entries)
        if a == 0
    }
    assert {(g.lam, g.i) for g in n_cycle_gaps(n)} == computed


def test_gap_catalog_is_duplicate_free():
    for n in range(2, 10):
        gaps = n_cycle_gaps(n)
        assert len({(g.lam, g.i) for g in gaps}) == len(gaps)
        for g in gaps:
            assert sum(g.lam) == n and 0 <= g.i < n


def test_gap_rules_for_small_cases():
    rules = {(g.lam, g.i): g.rule for g in n_cycle_gaps(4)}
    assert rules[(4,), 2] == "ncycle:one-row"
    assert rules[(3, 1), 0] == "ncycle:standard"
    assert rules[(2, 2), 1] == "ncycle:(2,2)"
    assert rules[(1, 1, 1, 1), 0] == "ncycle:one-column"


def an_multiplicities_from_characters(rep, cls) -> list[int]:
    """All m multiplicities of cls in rep, by a float transform of an_character.

    w^j stays in a split class only for j coprime to m, and it is in the
    class of w or of its partner as power_conjugacy says; every other power
    lies in a class that does not split.
    """
    mu, m = cls.mu, order_of_type(cls.mu)
    values = []
    for j in range(m):
        tag = TAG_NONE
        if cls.tag and math.gcd(j, m) == 1:
            tag = cls.tag
            if power_conjugacy(mu, j) == "swapped":
                tag = TAG_MINUS if tag == TAG_PLUS else TAG_PLUS
        values.append(quad_complex(an_character(rep, AnClass(_power_type(mu, j), tag))))
    out = []
    for i in range(m):
        z = sum(v * cmath.exp(-2j * math.pi * i * j / m) for j, v in enumerate(values)) / m
        assert abs(z - round(z.real)) < 1e-8
        out.append(round(z.real))
    return out


@pytest.mark.parametrize("n", range(1, 9))
def test_full_minimal_polynomial_sn(n):
    """The m-th roots of unity that occur, so whether all do, match a numerical transform of chi(w**j)."""
    for mu in partitions(n):
        m, w = order_of_type(mu), perms.standard_rep(mu)
        types = [perms.cycle_type(perms.perm_power(w, j)) for j in range(m)]
        zeta = [cmath.exp(-2j * math.pi * k / m) for k in range(m)]
        for lam in partitions(n):
            chi = [mn_character(lam, t) for t in types]
            occurs = [sum(c * zeta[i * j % m] for j, c in enumerate(chi)).real / m > 0.5 for i in range(m)]
            assert [a > 0 for a in sn_multiplicity_vector(lam, mu).entries] == occurs, (lam, mu)


@pytest.mark.parametrize("n", range(2, 9))
def test_full_minimal_polynomial_an(n):
    """On A_n the whole vector equals the transform of the exact characters."""
    for rep in an_irreps(n):
        for cls in an_classes(n):
            oracle = an_multiplicities_from_characters(rep, cls)
            assert list(an_multiplicity_vector(rep, cls).entries) == oracle, (rep, cls)
