import math

import pytest
from hypothesis import given, strategies as st

from altchar import perms
from altchar.characters import in_alternating
from altchar.partitions import partitions
from conftest import compose, identity, inverse, multiplication_perm, small_perms, small_partitions


@given(small_perms(), st.integers(min_value=-20, max_value=20), st.integers(min_value=-20, max_value=20))
def test_powers_add_their_exponents(a, j, k):
    assert perms.perm_power(a, j + k) == compose(perms.perm_power(a, j), perms.perm_power(a, k))


@given(small_perms())
def test_minus_first_power_is_the_inverse(a):
    assert perms.perm_power(a, -1) == inverse(a)
    assert compose(a, inverse(a)) == identity(len(a)) == compose(inverse(a), a)


@given(small_partitions)
def test_standard_rep_has_the_right_type(mu):
    assert perms.cycle_type(perms.standard_rep(mu)) == mu


def test_cycles_partition_the_points():
    sigma = perms.standard_rep((3, 2, 1))
    assert sorted(x for c in perms.cycles(sigma) for x in c) == list(range(6))


@given(small_perms(), st.data())
def test_sign_is_multiplicative(a, data):
    b = tuple(data.draw(st.permutations(range(len(a)))))
    assert perms.sign(compose(a, b)) == perms.sign(a) * perms.sign(b)


@given(small_partitions)
def test_sign_matches_type_parity(mu):
    assert perms.sign(perms.standard_rep(mu)) == (1 if in_alternating(mu) else -1)


@given(small_perms(), st.integers(min_value=0, max_value=20))
def test_perm_power_matches_iteration(a, k):
    slow = identity(len(a))
    for _ in range(k):
        slow = compose(slow, a)
    assert perms.perm_power(a, k) == slow


@given(small_perms(), st.data())
def test_conjugator_conjugates(a, data):
    rho = tuple(data.draw(st.permutations(range(len(a)))))
    b = compose(compose(rho, a), inverse(rho))
    found = perms.conjugator(a, b)
    assert found is not None
    assert compose(compose(found, a), inverse(found)) == b


def test_conjugator_rejects_different_types():
    assert perms.conjugator(perms.standard_rep((3,)), perms.standard_rep((2, 1))) is None


def test_multiplication_perm_is_a_homomorphism():
    for m in (5, 9, 15, 21):
        for i in range(1, m):
            for j in range(1, m):
                if any(math.gcd(x, m) != 1 for x in (i, j)):
                    continue
                left = compose(multiplication_perm(i, m), multiplication_perm(j, m))
                assert left == multiplication_perm(i * j % m, m)


@pytest.mark.parametrize("n", range(1, 7))
def test_power_order(n):
    for mu in partitions(n):
        w = perms.standard_rep(mu)
        m = 1
        for part in mu:
            m = m * part // math.gcd(m, part)
        assert perms.perm_power(w, m) == identity(n)
