import math

import pytest
from hypothesis import given, strategies as st

from altchar.characters import in_alternating
from altchar.partitions import (
    InvalidPartitionError,
    centralizer_order_sn,
    check_partition,
    conjugate,
    dimension,
    factorize,
    format_partition,
    has_distinct_odd_parts,
    parse_partition,
    partitions,
    phi,
    sn_class_size,
)
from conftest import distinct_odd_types, mid_partitions, self_conjugate_shapes

# first values of the partition-counting function
PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]


def test_parse_round_trip():
    assert parse_partition("15,9,3") == (15, 9, 3)
    assert parse_partition("") == ()
    assert format_partition((5, 3, 1)) == "5,3,1"


@pytest.mark.parametrize("bad", ["3,a", "0", "3,-1", "3,5", "1,2", "2,,1"])
def test_parse_rejects(bad):
    with pytest.raises(InvalidPartitionError):
        parse_partition(bad)


def test_check_partition_rejects_non_integers():
    with pytest.raises(InvalidPartitionError):
        check_partition((3.0, 1))
    with pytest.raises(InvalidPartitionError):
        check_partition((True,))


@given(mid_partitions)
def test_format_parse_inverse(mu):
    assert parse_partition(format_partition(mu)) == mu


@pytest.mark.parametrize("n", range(len(PARTITION_COUNTS)))
def test_partition_counts(n):
    assert len(partitions(n)) == PARTITION_COUNTS[n]


def test_partitions_canonical_and_ordered():
    for n in range(9):
        plist = partitions(n)
        assert len(set(plist)) == len(plist)
        for mu in plist:
            assert sum(mu) == n
            assert check_partition(mu) == mu
        assert list(plist) == sorted(plist, reverse=True)


def test_conjugate_examples():
    assert conjugate((4, 2, 1)) == (3, 2, 1, 1)
    assert conjugate((1, 1, 1)) == (3,)
    assert conjugate(()) == ()


@given(mid_partitions)
def test_conjugate_is_an_involution(lam):
    assert conjugate(conjugate(lam)) == lam
    assert sum(conjugate(lam)) == sum(lam)


def to_frobenius(lam):
    """Frobenius coordinates: the arm and leg lengths along the main diagonal."""
    lamc = conjugate(lam)
    d = sum(1 for i, p in enumerate(lam) if p >= i + 1)
    return tuple(lam[i] - i - 1 for i in range(d)), tuple(lamc[i] - i - 1 for i in range(d))


def from_frobenius(arms, legs):
    """The partition with the given Frobenius coordinates."""
    rows = [a + i + 1 for i, a in enumerate(arms)]
    cols = [b + j + 1 for j, b in enumerate(legs)]
    depth = cols[0] if cols else 0
    return tuple(rows + [sum(1 for c in cols if c > r) for r in range(len(cols), depth)])


@given(mid_partitions)
def test_frobenius_round_trip(lam):
    assert to_frobenius((3, 3, 1)) == ((2, 1), (2, 0))
    arms, legs = to_frobenius(lam)
    assert from_frobenius(arms, legs) == lam
    assert to_frobenius(conjugate(lam)) == (legs, arms)


@given(self_conjugate_shapes)
def test_self_conjugate_has_symmetric_coordinates(lam):
    arms, legs = to_frobenius(lam)
    assert arms == legs


def diagonal_hooks(lam):
    """Hook lengths of the diagonal cells (i, i)."""
    arms, legs = to_frobenius(lam)
    return tuple(a + b + 1 for a, b in zip(arms, legs))


@given(distinct_odd_types)
def test_phi_lands_on_self_conjugate_shapes(mu):
    """phi pairs distinct-odd types with self-conjugate shapes, hooks inverting it."""
    lam = phi(mu)
    assert lam == conjugate(lam)
    assert sum(lam) == sum(mu)
    assert diagonal_hooks(lam) == mu


def test_phi_counts_agree():
    for n in range(1, 20):
        odd = [mu for mu in partitions(n) if has_distinct_odd_parts(mu)]
        sc = [lam for lam in partitions(n) if lam == conjugate(lam)]
        assert len(odd) == len(sc)
        assert sorted(phi(mu) for mu in odd) == sorted(sc)


@pytest.mark.parametrize(
    "lam, dim",
    [((1,), 1), ((5,), 1), ((1, 1, 1, 1), 1), ((4, 1), 4), ((3, 2), 5), ((2, 2, 1), 5), ((3, 1, 1), 6), ((2, 2), 2)],
)
def test_dimension_known_values(lam, dim):
    assert dimension(lam) == dim


@pytest.mark.parametrize("n", range(1, 9))
def test_dimension_squares_sum_to_group_order(n):
    assert sum(dimension(lam) ** 2 for lam in partitions(n)) == math.factorial(n)


@pytest.mark.parametrize("n", range(1, 9))
def test_class_sizes_sum_to_group_order(n):
    assert sum(sn_class_size(mu) for mu in partitions(n)) == math.factorial(n)


def test_centralizer_order_examples():
    assert centralizer_order_sn((3, 1)) == 3
    assert centralizer_order_sn((2, 2)) == 8
    assert centralizer_order_sn((1, 1, 1)) == 6


@given(mid_partitions)
def test_parity_counts_even_parts(mu):
    assert in_alternating(mu) == ((sum(mu) - len(mu)) % 2 == 0)


@given(st.integers(min_value=2, max_value=10_000))
def test_factorize_recomposes(n):
    pairs = factorize(n)
    assert math.prod(p**e for p, e in pairs) == n
    for p, _ in pairs:
        assert all(p % q for q in range(2, p)) and p >= 2
