import cmath
import hashlib
import json
import math

import pytest
from hypothesis import given, strategies as st

from altchar import perms
from altchar.acceptance import bias_failure, cyclotomic_polynomial, sn_multiplicity_failure
from altchar.characters import AnClass, AnIrrep, an_classes, an_irreps, irrep_splits
from altchar.multiplicity import (
    _fourier_plan,
    _power_type,
    an_multiplicity_vector,
    bias_vector,
    order_of_type,
    power_conjugacy,
    sn_multiplicity_vector,
)
from altchar.numtheory import divisors, ramanujan
from altchar.partitions import (
    _epsilon,
    dimension,
    format_partition,
    has_distinct_odd_parts,
    partitions,
    phi,
)
from conftest import an_character, distinct_odd_types, mid_partitions, quad_complex, shape_type_pairs


@given(mid_partitions, st.integers(min_value=0, max_value=40))
def test_power_cycle_type_matches_permutations(mu, d):
    w = perms.standard_rep(mu)
    assert _power_type(mu, d) == perms.cycle_type(perms.perm_power(w, d))


def test_order_of_type():
    assert order_of_type((15, 9, 3)) == 45
    assert order_of_type((1, 1)) == 1


CYCLOTOMIC_KNOWN = {
    1: (-1, 1),
    2: (1, 1),
    6: (1, -1, 1),
    12: (1, 0, -1, 0, 1),
}


@pytest.mark.parametrize("m, coeffs", sorted(CYCLOTOMIC_KNOWN.items()))
def test_cyclotomic_known(m, coeffs):
    assert cyclotomic_polynomial(m) == coeffs


def test_cyclotomic_degrees():
    from altchar.numtheory import euler_phi

    for m in range(1, 40):
        poly = cyclotomic_polynomial(m)
        assert len(poly) == euler_phi(m) + 1
        assert poly[-1] == 1


# --- the symmetric-group engine ----------------------------------------------


@given(shape_type_pairs(max_n=9))
def test_entries_sum_to_the_dimension(pair):
    lam, mu = pair
    vec = sn_multiplicity_vector(lam, mu)
    assert sum(vec.entries) == dimension(lam)
    assert all(a >= 0 for a in vec.entries)


@given(shape_type_pairs(max_n=9), st.data())
def test_multiplicity_depends_only_on_the_gcd(pair, data):
    """Galois conjugate eigenvalues appear equally often, by the cyclotomic oracle.

    The engine broadcasts a_{gcd(i, m)} by construction, so the oracle,
    whose residues fix the whole vector, is what tests the premise: it
    accepts the vector with its indices multiplied by any unit k.
    """
    lam, mu = pair
    m = order_of_type(mu)
    k = data.draw(st.sampled_from([k for k in range(1, m + 1) if math.gcd(k, m) == 1]))
    entries = sn_multiplicity_vector(lam, mu).entries
    assert sn_multiplicity_failure(lam, mu, [entries[k * i % m] for i in range(m)]) is None


@pytest.mark.parametrize("n", range(1, 9))
def test_engine_equals_oracle(n):
    for mu in partitions(n):
        m = order_of_type(mu)
        for lam in partitions(n):
            vec = sn_multiplicity_vector(lam, mu)
            assert vec.m == len(vec.entries) == m
            assert sn_multiplicity_failure(lam, mu, vec.entries) is None


def test_fourier_plan_equals_the_ramanujan_sums():
    """Each order's plan holds c_{m/d}(g) entry by entry and the slot of gcd(i, m), m <= 500."""
    for m in range(1, 501):
        divs, rows, slots = _fourier_plan(m)
        assert divs == divisors(m)
        assert rows == tuple(tuple(ramanujan(m // d, g) for d in divs) for g in divs)
        assert slots == tuple(divs.index(math.gcd(i, m)) for i in range(m))


def test_trivial_shape_sees_only_eigenvalue_one():
    for mu in partitions(6):
        entries = sn_multiplicity_vector((6,), mu).entries
        assert entries == (1,) + (0,) * (order_of_type(mu) - 1)


def test_mismatched_weights_rejected():
    with pytest.raises(ValueError):
        sn_multiplicity_vector((3, 1), (5,))


# --- the bias ----------------------------------------------------------------


def test_bias_worked_example():
    values = {r.i: (r.value, r.abs_formula) for r in bias_vector((15, 9, 3))}
    assert values[0] == (0, 0)
    assert values[1] == (0, 0)
    assert values[15] == (0, 0)
    assert values[3][1] == 3
    assert values[9][1] == 6
    # M = 405 = 3**4 * 5: the odd-exponent prime 5 comes before 3
    assert [c.p for c in bias_vector((15, 9, 3))[0].conditions] == [5, 3]


def test_bias_on_a_three_cycle():
    assert [r.value for r in bias_vector((3,))] == [0, 1, -1]


@pytest.mark.parametrize("n", range(1, 14))
def test_bias_equals_the_defining_sum(n):
    for mu in partitions(n):
        if not has_distinct_odd_parts(mu):
            continue
        results = bias_vector(mu)
        assert bias_failure(mu, [r.value for r in results]) is None
        for i, r in enumerate(results):
            assert r.i == i
            assert abs(r.value) == r.abs_formula
            assert all(c.ok for c in r.conditions) == (r.value != 0)


@given(distinct_odd_types, st.integers(min_value=0, max_value=200))
def test_bias_magnitude_bound(mu, i):
    r = bias_vector(mu)[i % order_of_type(mu)]
    M = math.prod(mu)
    if len(mu) > 1:
        assert r.value * r.value < M
    assert r.value * r.value <= M


def test_bias_zero_index_characterization():
    """d_0 is nonzero exactly when the part product is a perfect square."""
    for n in range(1, 15):
        for mu in partitions(n):
            if not has_distinct_odd_parts(mu):
                continue
            M = math.prod(mu)
            square = math.isqrt(M) ** 2 == M
            assert (bias_vector(mu)[0].value != 0) == square


def _distinct_odd_types(n: int) -> list:
    """Partitions of n into distinct odd parts, in descending lexicographic order."""
    out = []

    def extend(remaining: int, biggest: int, prefix: tuple) -> None:
        if remaining == 0:
            out.append(prefix)
        for p in range(min(biggest, remaining), 0, -1):
            if p % 2:
                extend(remaining - p, p - 2, prefix + (p,))

    extend(n, n, ())
    return out


def test_sign_epsilon_is_the_part_product_mod_4():
    """eps = M mod 4, which makes the bias constant of the integer form real,
    and the signed square root eps*M is 1 mod 4."""
    for n in range(1, 41):
        for mu in _distinct_odd_types(n):
            eps, M = _epsilon(mu), math.prod(mu)
            assert eps == (-1) ** sum((p - 1) // 2 for p in mu), mu
            assert (eps - M) % 4 == 0 and (eps * M) % 4 == 1, mu


def test_bias_vectors_are_pinned_through_weight_32():
    """Every bias vector with n <= 32, hashed; criterion 2's exact check stops at n = 31."""
    rows = [
        [
            format_partition(mu),
            [
                [b.value, b.abs_formula, [[c.p, c.f, c.d, c.u, c.ok] for c in b.conditions]]
                for b in bias_vector(mu)
            ],
        ]
        for n in range(1, 33)
        for mu in _distinct_odd_types(n)
    ]
    assert len(rows) == 223
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest[:16] == "59ed0cacbd8f25a6"


def test_bias_rejects_bad_types():
    with pytest.raises(ValueError):
        bias_vector((3, 3))
    with pytest.raises(ValueError):
        bias_vector((4, 1))


# --- the alternating dispatch --------------------------------------------------


@pytest.mark.parametrize("n", range(2, 10))
def test_an_vectors_reconstruct_the_character(n):
    for rep in an_irreps(n):
        for cls in an_classes(n):
            vec = an_multiplicity_vector(rep, cls)
            rebuilt = sum(
                a * cmath.exp(2j * math.pi * i / vec.m) for i, a in enumerate(vec.entries)
            )
            assert abs(rebuilt - quad_complex(an_character(rep, cls))) < 1e-8
            assert sum(vec.entries) == rep.dim()
            assert all(a >= 0 for a in vec.entries)


def test_own_type_splits_by_the_bias():
    rep = AnIrrep((2, 1), "+")
    assert an_multiplicity_vector(rep, AnClass((3,), "+")).entries == (0, 1, 0)
    assert an_multiplicity_vector(rep, AnClass((3,), "-")).entries == (0, 0, 1)


@pytest.mark.parametrize("n", range(3, 13))
def test_split_vectors_equal_the_single_index_engine(n):
    """Split halves against the exact references of their sum and difference.

    The halves sum to the symmetric-group vector, which the cyclotomic
    oracle accepts.  At a class of their own hook type their difference,
    times the sign of the class tag, is the vector bias_failure accepts;
    at every other class they agree.
    """
    for lam in partitions(n):
        if not irrep_splits(lam):
            continue
        for cls in an_classes(n):
            plus, minus = (an_multiplicity_vector(AnIrrep(lam, t), cls).entries for t in "+-")
            whole = [p + q for p, q in zip(plus, minus)]
            assert sn_multiplicity_failure(lam, cls.mu, whole) is None
            sign = 1 if cls.tag == "+" else -1
            diff = [sign * (p - q) for p, q in zip(plus, minus)]
            if cls.tag and phi(cls.mu) == lam:
                assert bias_failure(cls.mu, diff) is None
            else:
                assert not any(diff)


def test_split_pair_shares_counts_away_from_its_type():
    plus = AnIrrep((3, 3, 2), "+")
    minus = AnIrrep((3, 3, 2), "-")
    cls = AnClass((7, 1), "+")  # distinct-odd, but not the hook type of (3,3,2)
    assert an_multiplicity_vector(plus, cls).entries == an_multiplicity_vector(minus, cls).entries


# --- power conjugacy -----------------------------------------------------------


def test_power_conjugacy_examples():
    assert power_conjugacy((5, 3), 2) == "same"  # jacobi(2,15) = 1
    assert power_conjugacy((7, 3), 2) == "swapped"
    assert power_conjugacy((3,), 2) == "swapped"


def test_power_conjugacy_rejects():
    with pytest.raises(ValueError):
        power_conjugacy((5, 3), 3)  # not coprime to the order
    with pytest.raises(ValueError):
        power_conjugacy((3, 3), 1)  # class does not split


def test_power_conjugacy_matches_explicit_conjugators():
    """Every coprime power of every split type of weight <= 14 (225 powers).

    (9,3) is the first type whose order m = 9 and part product M = 27 give
    different Jacobi symbols, (2 | 9) = 1 against (2 | 27) = -1, so a
    verdict that read the order instead of M would fail there.
    """
    checked = 0
    for n in range(1, 15):
        for mu in _distinct_odd_types(n):
            m = order_of_type(mu)
            w = perms.standard_rep(mu)
            for i in range(1, m + 1):
                if math.gcd(i, m) != 1:
                    continue
                rho = perms.conjugator(w, perms.perm_power(w, i))
                expected = "same" if perms.sign(rho) == 1 else "swapped"
                assert power_conjugacy(mu, i) == expected, (mu, i)
                checked += 1
    assert checked == 225
