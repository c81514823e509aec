import cmath
import math

import pytest
from hypothesis import given, strategies as st

from altchar import perms
from altchar.numtheory import (
    divisors,
    euler_phi,
    jacobi,
    moebius,
    p_adic_split,
    ramanujan,
    _squarefree_split,
)
from conftest import multiplication_perm

ODD_PRIME_POWERS = [3, 9, 27, 81, 243, 5, 25, 125, 7, 49, 11, 13, 17, 19, 23]


def _zeta_power_sum(modulus: int, weights) -> complex:
    return sum(w * cmath.exp(2j * math.pi * r / modulus) for r, w in weights)


# --- Jacobi symbol ---------------------------------------------------------


@pytest.mark.parametrize(
    "a, n, value",
    [(2, 15, 1), (7, 15, -1), (1, 1, 1), (5, 21, 1), (2, 7, 1), (3, 7, -1), (6, 9, 0)],
)
def test_jacobi_known_values(a, n, value):
    assert jacobi(a, n) == value


def test_jacobi_rejects_bad_modulus():
    with pytest.raises(ValueError):
        jacobi(3, 4)
    with pytest.raises(ValueError):
        jacobi(3, -5)


@given(st.integers(min_value=1, max_value=500), st.integers(min_value=1, max_value=500))
def test_jacobi_multiplicative_in_the_top(a, b):
    n = 105
    assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)


@given(st.integers(min_value=1, max_value=500))
def test_jacobi_periodic(a):
    for n in (9, 15, 35):
        assert jacobi(a, n) == jacobi(a + n, n)


def test_jacobi_is_the_sign_of_multiplication():
    """Zolotarev: (a|m) equals the parity of x -> ax on Z/m, odd m."""
    for m in range(1, 46, 2):
        for a in range(1, m + 1):
            if math.gcd(a, m) != 1:
                continue
            assert jacobi(a, m) == perms.sign(multiplication_perm(a, m))


# --- classical multiplicative functions ------------------------------------


@given(st.integers(min_value=1, max_value=2000))
def test_phi_sums_over_divisors(n):
    assert sum(euler_phi(d) for d in divisors(n)) == n


@given(st.integers(min_value=1, max_value=2000))
def test_moebius_sums_over_divisors(n):
    assert sum(moebius(d) for d in divisors(n)) == (1 if n == 1 else 0)


def test_ramanujan_against_the_defining_sum():
    for q in range(1, 31):
        for i in range(q + 1):
            direct = _zeta_power_sum(
                q, ((j * i % q, 1) for j in range(q) if math.gcd(j, q) == 1)
            )
            assert abs(direct - ramanujan(q, i)) < 1e-9


def test_ramanujan_edge_values():
    assert ramanujan(1, 0) == 1
    assert ramanujan(6, 0) == euler_phi(6)
    assert ramanujan(9, 3) == -3  # -p for i a single factor short of the modulus


# --- p-adic bookkeeping -----------------------------------------------------


def test_squarefree_split_by_trial_squares():
    """root**2 * core == n with no square above 1 dividing core, which fixes both."""
    for n in range(1, 3000):
        root, core = _squarefree_split(n)
        assert root * root * core == n
        assert all(core % (d * d) for d in range(2, math.isqrt(core) + 1)), n


@given(st.integers(min_value=-200, max_value=200))
def test_p_adic_split_reconstructs(i):
    for p, f in ((3, 2), (5, 3), (7, 1)):
        d, u = p_adic_split(i, p, f)
        if d == f:
            assert u == 1 and i % p**f == 0
        else:
            assert 0 <= d < f and u % p != 0
            assert (u * p**d - i) % p**f == 0


@pytest.mark.parametrize("q", ODD_PRIME_POWERS)
def test_unit_sum_against_floats(q):
    """The unit sum over a prime power, which bias_vector uses, is ramanujan(q, i)."""
    p = min(pp for pp in range(2, q + 1) if q % pp == 0)
    for i in range(-q, 2 * q):
        direct = _zeta_power_sum(
            q, ((u * i % q, 1) for u in range(q) if u % p != 0)
        )
        assert abs(direct - ramanujan(q, i)) < 1e-7


# --- the Gauss sums behind the integer bias form ------------------------------


def _gauss_sum(p: int) -> complex:
    """g(p) = sqrt(p) for p = 1 mod 4 and i*sqrt(p) for p = 3 mod 4."""
    return math.sqrt(p) * (1 if p % 4 == 1 else 1j)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29])
def test_gauss_sum_value(p):
    direct = _zeta_power_sum(p, ((j, jacobi(j, p)) for j in range(1, p)))
    assert abs(direct - _gauss_sum(p)) < 1e-9


@pytest.mark.parametrize("q", ODD_PRIME_POWERS)
def test_twisted_sum_against_floats(q):
    """The quadratic twist: only the top unit layer survives, with a Gauss sum.

    With i == u * p**d mod p**f, the sum of (l|p) zeta^(i*l) over units l is
    p**(f-1) * (u|p) * g(p) when d == f-1 and 0 otherwise; the bias form
    takes its odd-exponent local factors from this.
    """
    p = min(pp for pp in range(2, q + 1) if q % pp == 0)
    f = round(math.log(q, p))
    for i in range(q):
        direct = _zeta_power_sum(
            q, ((u * i % q, jacobi(u, p)) for u in range(q) if u % p != 0)
        )
        d, u = p_adic_split(i, p, f)
        closed = p ** (f - 1) * jacobi(u, p) * _gauss_sum(p) if d == f - 1 else 0
        assert abs(direct - closed) < 1e-7
