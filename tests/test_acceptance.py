"""The nine acceptance criteria, one test (and one printed verdict line) each,
and the exact checks of criteria 3 and 8 on corrupted inputs."""

import math
from dataclasses import replace

import pytest

from altchar.acceptance import (
    ALL_CRITERIA,
    _cyclotomic_remainder,
    _inner_product,
    _orthogonality_failure,
    run_criterion,
)
from altchar.characters import QuadValue, character_table_an, mn_character
from altchar.errors import InternalCheckError
from altchar.multiplicity import order_of_type, sn_multiplicity_vector
from altchar.partitions import partitions, phi


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


# --- criterion 3: exact character rebuild -------------------------------------


def _rebuild_remainder(entries, m, chi):
    return _cyclotomic_remainder([entries[0] - chi, *entries[1:]], m)


@pytest.mark.parametrize("n", range(3, 8))
def test_cyclotomic_rebuild_rejects_a_moved_unit(n):
    """Moving one unit of multiplicity between indices of different gcd with m
    changes the sum by zeta^j - zeta^i, two roots of different orders."""
    moved = 0
    for mu in partitions(n):
        m = order_of_type(mu)
        for lam in partitions(n):
            entries = sn_multiplicity_vector(lam, mu).entries
            chi = mn_character(lam, mu)
            assert _rebuild_remainder(entries, m, chi) == []
            i = next(i for i, a in enumerate(entries) if a)
            for j in range(m):
                if math.gcd(j, m) != math.gcd(i, m):
                    bad = list(entries)
                    bad[i] -= 1
                    bad[j] += 1
                    assert _rebuild_remainder(bad, m, chi) != [], (lam, mu, i, j)
                    moved += 1
    assert moved
