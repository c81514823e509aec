"""The nine acceptance criteria, one test (and one printed verdict line) each,
and the exact checks of criteria 2, 3 and 8 on corrupted inputs."""

import math
from dataclasses import replace

import pytest

from altchar.acceptance import (
    ALL_CRITERIA,
    _cyclotomic_remainder,
    _inner_product,
    _orthogonality_failure,
    bias_failure,
    run_criterion,
    sn_multiplicity_failure,
)
from altchar.characters import QuadValue, character_table_an, mn_character
from altchar.errors import InternalCheckError
from altchar.multiplicity import bias_vector, order_of_type, sn_multiplicity_vector
from altchar.partitions import has_distinct_odd_parts, partitions, phi


@pytest.mark.parametrize("number", ALL_CRITERIA)
def test_criterion(number, capfd):
    result = run_criterion(number)
    with capfd.disabled():
        print(result.line(timing=True))
    assert result.ok, result.line(timing=True)


# --- criterion 8: exact orthogonality ---------------------------------------


def _own_hook_cells(table):
    """(row, plus column, minus column) of the first split row at its own hook classes."""
    r, rep = next((r, rep) for r, rep in enumerate(table.irreps) if rep.tag)
    plus, minus = (c for c, cls in enumerate(table.classes) if cls.tag and phi(cls.mu) == rep.lam)
    return r, plus, minus


def _with_cells(table, cells):
    rows = [list(row) for row in table.values]
    for (r, c), v in cells.items():
        rows[r][c] = v
    return replace(table, values=tuple(map(tuple, rows)))


@pytest.mark.parametrize("n", [5, 7, 8])
def test_orthogonality_rejects_swapped_own_hook_cells(n):
    table = character_table_an(n)
    assert _orthogonality_failure(table) is None
    r, plus, minus = _own_hook_cells(table)
    x, y = table.values[r][plus], table.values[r][minus]
    assert x != y
    assert _orthogonality_failure(_with_cells(table, {(r, plus): y, (r, minus): x})) is not None


@pytest.mark.parametrize("n", [5, 7, 8])
def test_orthogonality_rejects_a_dropped_root(n):
    table = character_table_an(n)
    r, plus, _ = _own_hook_cells(table)
    x = table.values[r][plus]
    assert x.b != 0
    assert _orthogonality_failure(_with_cells(table, {(r, plus): QuadValue(x.a, 0, 0)})) is not None


def test_orthogonality_checks_the_root_parts_on_their_own():
    """4 * x * conj(x) is 4 + 2*sqrt(3) at x = (1 + sqrt(3))/2: the rational part
    of the trivial group's one value, and a root part that must not pass."""
    trivial = character_table_an(1)
    assert _orthogonality_failure(trivial) is None
    assert _orthogonality_failure(replace(trivial, values=((QuadValue(1, 1, 3),),))) is not None


def test_inner_product_keeps_each_root_apart():
    golden = QuadValue(1, 1, 5)  # (1 + sqrt(5))/2
    assert _inner_product([1], [golden], [golden]) == (6, {5: 2})
    eisenstein = QuadValue(-1, 1, -3)  # (-1 + sqrt(-3))/2, of modulus 1
    assert _inner_product([1], [eisenstein], [eisenstein]) == (4, {-3: 0})
    with pytest.raises(InternalCheckError):
        _inner_product([1], [golden], [eisenstein])


# --- criterion 3: the cyclotomic oracle ----------------------------------------


@pytest.mark.parametrize("n", range(3, 8))
def test_cyclotomic_rebuild_rejects_a_moved_unit(n):
    """Moving one unit of multiplicity between indices of different gcd with m
    changes the sum by zeta^j - zeta^i, two roots of different orders."""
    moved = 0
    for mu in partitions(n):
        m = order_of_type(mu)
        for lam in partitions(n):
            entries = sn_multiplicity_vector(lam, mu).entries
            assert sn_multiplicity_failure(lam, mu, entries) is None
            i = next(i for i, a in enumerate(entries) if a)
            for j in range(m):
                if math.gcd(j, m) != math.gcd(i, m):
                    bad = list(entries)
                    bad[i] -= 1
                    bad[j] += 1
                    assert sn_multiplicity_failure(lam, mu, bad) is not None, (lam, mu, i, j)
                    moved += 1
    assert moved


def test_cyclotomic_oracle_checks_every_divisor():
    """Adding the coefficients of Phi_1 * Phi_6 = x^3 - 2x^2 + 2x - 1 keeps the
    sum and the value at zeta_6, which is all a rebuild of chi(w) checks; the
    value at -1 moves by -6."""
    lam = mu = (3, 2, 1)
    entries = sn_multiplicity_vector(lam, mu).entries
    assert entries == (2, 3, 3, 2, 3, 3)
    bad = [a + b for a, b in zip(entries, [-1, 2, -2, 1, 0, 0])]
    chi = mn_character(lam, mu)
    assert sum(bad) == sum(entries)
    assert _cyclotomic_remainder([bad[0] - chi, *bad[1:]], 6) == []
    assert "order 2" in sn_multiplicity_failure(lam, mu, bad)


def test_cyclotomic_oracle_rejects_a_wrong_length():
    assert sn_multiplicity_failure((2, 1), (3,), [1, 0]) is not None
    assert bias_failure((3,), [0, 1]) is not None


# --- criterion 2: the exact bias check ------------------------------------------


@pytest.mark.parametrize("n", range(1, 14))
def test_bias_check_rejects_a_flipped_sign(n):
    """The engine's vector passes; with one nonzero entry negated, or all of
    them (the wrong anchor, or the other branch of the square root), it fails."""
    for mu in partitions(n):
        if not has_distinct_odd_parts(mu):
            continue
        values = [r.value for r in bias_vector(mu)]
        assert bias_failure(mu, values) is None
        for i, d in enumerate(values):
            if d:
                flipped = [-d if k == i else v for k, v in enumerate(values)]
                assert bias_failure(mu, flipped) is not None, (mu, i)
        assert bias_failure(mu, [-d for d in values]) is not None, mu
