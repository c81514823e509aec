import math
from fractions import Fraction

import pytest
from hypothesis import given

from altchar import characters
from altchar.characters import (
    AnClass,
    AnIrrep,
    QuadValue,
    _beta_mask,
    _fill_columns,
    _mask_degree,
    _mn,
    _rim_hooks,
    _rim_table,
    _row_index,
    an_classes,
    an_irreps,
    _an_value,
    character_table_an,
    class_splits,
    in_alternating,
    irrep_splits,
    mn_character,
    parse_label,
)
from altchar.errors import InternalCheckError
from altchar.partitions import (
    _dimension,
    centralizer_order_sn,
    conjugate,
    dimension,
    partitions,
    phi,
    sn_class_size,
)
from altchar.multiplicity import _power_type, order_of_type, sn_multiplicity_vector
from altchar.numtheory import divisors
from conftest import an_character, column, shape_type_pairs, suffix_closure

# the symmetric group on 4 points: rows are shapes, columns cycle types
S4_TYPES = [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]
S4_TABLE = {
    (4,): [1, 1, 1, 1, 1],
    (3, 1): [3, 1, -1, 0, -1],
    (2, 2): [2, 0, 2, -1, 0],
    (2, 1, 1): [3, -1, -1, 0, 1],
    (1, 1, 1, 1): [1, -1, 1, 1, -1],
}


def test_murnaghan_nakayama_on_the_s4_table():
    for lam, row in S4_TABLE.items():
        assert [mn_character(lam, mu) for mu in S4_TYPES] == row


def test_murnaghan_nakayama_hooks():
    # an n-cycle sees only hooks, with the leg sign
    assert mn_character((3, 1, 1), (5,)) == 1
    assert mn_character((4, 1), (5,)) == -1
    assert mn_character((3, 2), (5,)) == 0


@given(shape_type_pairs(max_n=10))
def test_conjugate_shape_twists_by_the_sign(pair):
    lam, mu = pair
    sign = 1 if in_alternating(mu) else -1
    assert mn_character(conjugate(lam), mu) == sign * mn_character(lam, mu)


@given(shape_type_pairs(max_n=9))
def test_identity_column_is_the_dimension(pair):
    lam, _ = pair
    n = sum(lam)
    assert mn_character(lam, (1,) * n) == dimension(lam)


@pytest.mark.parametrize("n", range(1, 7))
def test_column_orthogonality_exact(n):
    plist = partitions(n)
    for mu in plist:
        for nu in plist:
            inner = sum(mn_character(lam, mu) * mn_character(lam, nu) for lam in plist)
            assert inner == (centralizer_order_sn(mu) if mu == nu else 0)


def test_columns_equal_the_recursion(monkeypatch):
    """The column engine, one type at a time from an empty memo, agrees with the per-entry recursion, n <= 14."""
    monkeypatch.setattr(characters, "_COLUMNS", {(): (1,)})
    for n in range(15):
        plist = partitions(n)
        for mu in plist:
            assert list(column(mu)) == [mn_character(lam, mu) for lam in plist]


def test_one_fill_of_every_type_equals_the_recursion(monkeypatch):
    """From an empty column memo, one _fill_columns call fills all of partitions(n) right, n <= 14."""
    for n in range(1, 15):
        monkeypatch.setattr(characters, "_COLUMNS", {(): (1,)})
        plist = partitions(n)
        _fill_columns(plist)
        for mu in plist:
            assert list(characters._COLUMNS[mu]) == [mn_character(lam, mu) for lam in plist], mu


def test_a_mixed_group_equals_its_columns_one_at_a_time(monkeypatch):
    """Every type of one (n, h), both parities, filled at once and one by one, n = 12, h = 3.

    The odd group meets the self-conjugate rows, whose values there are 0.
    """
    n, h = 12, 3
    group = [mu for mu in partitions(n) if mu[0] == h]
    assert {(n - len(mu)) % 2 for mu in group} == {0, 1}
    assert sum(lam == conjugate(lam) for lam in partitions(n)) >= 2
    monkeypatch.setattr(characters, "_COLUMNS", {(): (1,)})
    _fill_columns(group)
    together = {mu: characters._COLUMNS[mu] for mu in group}
    for mu in group:
        monkeypatch.setattr(characters, "_COLUMNS", {(): (1,)})
        _fill_columns([mu])
        assert characters._COLUMNS[mu] == together[mu], mu
        assert list(together[mu]) == [mn_character(lam, mu) for lam in partitions(n)], mu


def test_transpose_map_pairs_each_row_with_its_conjugate():
    """Row r maps to the row of conjugate(lam), n <= 20; columns sum exactly the rows of lam >= lam'.

    For n <= 12 each kept row's plus and minus fields are the rows, in
    partitions(n - h), of the shapes its h-rim hooks of sign +1 and -1
    leave, in hook order.
    """
    for n in range(21):
        plist = partitions(n)
        row = {lam: r for r, lam in enumerate(plist)}
        index, twin = _row_index(n)
        assert list(index.values()) == list(range(len(plist)))
        assert twin == tuple(row[conjugate(lam)] for lam in plist)
        kept = [(r, row[conjugate(lam)]) for r, lam in enumerate(plist) if lam >= conjugate(lam)]
        for h in range(1, n + 1):
            table = _rim_table(n, h)
            assert [(r, t) for r, t, _, _ in table] == kept, (n, h)
            if n > 12:
                continue
            below = {_beta_mask(lam): i for i, lam in enumerate(partitions(n - h))}
            for r, _, plus, minus in table:
                hooks = _rim_hooks(_beta_mask(plist[r]), h)
                assert plus == tuple(below[s] for sign, s in hooks if sign == 1), (plist[r], h)
                assert minus == tuple(below[s] for sign, s in hooks if sign == -1), (plist[r], h)


def test_a_wrong_transpose_map_is_refused(monkeypatch):
    """The map is checked as it is built, by a raise that python -O keeps."""
    monkeypatch.setattr(characters, "_transpose_mask", lambda beta: beta)
    with pytest.raises(InternalCheckError):
        _row_index.__wrapped__(6)


def beta_set(lam):
    """The beta-set of lam as a decreasing tuple: bead lam[i] + k - 1 - i for row i."""
    k = len(lam)
    return tuple(lam[i] + k - 1 - i for i in range(k))


def tuple_rim_hooks(beta, h):
    """(sign, smaller shape) per rim hook of length h, on the beta-set tuple of a shape.

    The reference for the mask step _rim_hooks.  A hook moves bead b down
    to an empty place c = b - h, highest bead first, with the sign of the
    number of beads it passes; the smaller shape is read back from the
    moved tuple, dropping rows of length 0.
    """
    k = len(beta)
    present = set(beta)
    out = []
    for i, b in enumerate(beta):
        c = b - h
        if c < 0 or c in present:
            continue
        j = i + 1
        while j < k and beta[j] > c:
            j += 1
        moved = beta[:i] + beta[i + 1 : j] + (c,) + beta[j:]
        out.append(((-1) ** (j - i - 1), tuple(x - (k - 1 - t) for t, x in enumerate(moved) if x > k - 1 - t)))
    return out


def test_masks_are_distinct_and_canonical():
    """One mask per shape, n <= 14; bit 0 is clear, and only () has mask 0."""
    masks = {}
    for n in range(15):
        for lam in partitions(n):
            mask = _beta_mask(lam)
            assert mask & 1 == 0
            assert (mask == 0) == (lam == ())
            assert masks.setdefault(mask, lam) == lam


def test_mask_step_equals_the_tuple_step():
    """Same hooks, signs and order as the tuple step, each result the canonical mask, n <= 14."""
    for n in range(15):
        for lam in partitions(n):
            beta = _beta_mask(lam)
            for h in range(1, n + 1):
                expected = [(sign, _beta_mask(shape)) for sign, shape in tuple_rim_hooks(beta_set(lam), h)]
                assert _rim_hooks(beta, h) == expected, (lam, h)


def test_bead_degree_equals_the_hook_length_product():
    """Frobenius' formula on the beads gives the hook-length degree, every shape with n <= 20."""
    for n in range(21):
        for lam in partitions(n):
            assert _mask_degree(_beta_mask(lam)) == _dimension(lam), lam


def test_the_leaf_equals_the_identity_column():
    """The entry at (1^n), a leaf of _mn, equals the column's row by row, n <= 14.

    The column recursion strips every part and never reaches the leaf.
    """
    for n in range(15):
        ones = (1,) * n
        assert [_mn(_beta_mask(lam), ones) for lam in partitions(n)] == list(column(ones))


def test_mn_memo_holds_one_key_per_shape_and_suffix():
    """The entry memo holds one key per (shape, suffix) pair the tuple recursion visits.

    A shape reached under two masks would still give right values while
    doubling the memo; this counts the keys.  An all-ones suffix is a leaf
    of _mn, so the walk does not go below it.
    """
    queries = [
        ((5, 4, 3, 2, 1), (7, 5, 3)),
        ((5, 4, 3, 2, 1), (6, 4, 2, 1, 1, 1)),
        ((6, 3, 3, 2, 1), (5, 4, 3, 2, 1)),
        ((4, 4, 4, 4), (8, 5, 3)),
        ((9, 2, 1), (4, 3, 3, 2)),
        ((1,) * 12, (6, 4, 2)),
        ((1,), (1,)),
    ]
    _mn.cache_clear()
    for lam, mu in queries:
        sn_multiplicity_vector(lam, mu)
    visited = set()

    def visit(lam, mu):
        if (lam, mu) in visited:
            return
        visited.add((lam, mu))
        if mu and mu[0] > 1:
            for _, smaller in tuple_rim_hooks(beta_set(lam), mu[0]):
                visit(smaller, mu[1:])

    for lam, mu in queries:
        for d in divisors(order_of_type(mu)):
            visit(lam, _power_type(mu, d))
    assert _mn.cache_info().currsize == len(visited)


# --- the alternating side ----------------------------------------------------


def test_split_predicates():
    assert in_alternating((5, 3)) and not in_alternating((4, 3, 1))
    assert class_splits((5, 3)) and not class_splits((3, 3))
    assert not class_splits((1,))  # nothing splits below two points
    assert irrep_splits((2, 1)) and not irrep_splits((3, 1))


def test_labels_round_trip():
    assert AnClass(*parse_label("5,3:+")).label() == "5,3:+"
    assert AnClass(*parse_label("3,1,1")).label() == "3,1,1"
    assert AnIrrep(*parse_label("2,1:-")).label() == "2,1:-"
    assert AnIrrep(*parse_label("3,1")).label() == "3,1"


def test_tag_validation():
    with pytest.raises(ValueError):
        AnClass((5, 3))  # split class needs a tag
    with pytest.raises(ValueError):
        AnClass((3, 3), "+")  # non-split class refuses one
    with pytest.raises(ValueError):
        AnClass((4, 3, 1))  # odd permutation type
    with pytest.raises(ValueError):
        AnIrrep((2, 1))  # self-conjugate shape needs a tag
    with pytest.raises(ValueError):
        AnIrrep((3, 1), "+")


def test_whole_irreps_identify_conjugate_shapes():
    assert AnIrrep((3, 1)) == AnIrrep((2, 1, 1))
    assert AnIrrep((3, 1)).lam == (3, 1)


def test_label_sets_are_built_once_per_n():
    assert an_irreps(7) is an_irreps(7)
    assert an_classes(7) is an_classes(7)


@pytest.mark.parametrize("n", range(1, 21))
def test_trusted_labels_equal_the_checked_ones(n):
    """The unchecked labels of an_irreps and an_classes, one by one, against the checking constructors."""
    reps, rows = characters._irrep_index(n)
    assert an_irreps(n) is reps
    for rep, r in zip(reps, rows):
        checked = AnIrrep(rep.lam, rep.tag)
        assert rep == checked and hash(rep) == hash(checked), rep
        assert partitions(n)[r] == rep.lam
    for cls in an_classes(n):
        checked = AnClass(cls.mu, cls.tag)
        assert cls == checked and hash(cls) == hash(checked), cls


@pytest.mark.parametrize("n", range(1, 11))
def test_class_and_irrep_counts_match(n):
    classes = an_classes(n)
    reps = an_irreps(n)
    assert len(classes) == len(reps)
    order = max(math.factorial(n) // 2, 1)
    assert sum(c.size() for c in classes) == order
    assert sum(r.dim() ** 2 for r in reps) == order


def test_split_class_sizes_halve():
    full = sn_class_size((5, 3))
    assert AnClass((5, 3), "+").size() == full // 2


@pytest.mark.parametrize("n", range(2, 10))
def test_split_pair_sums_to_the_symmetric_value(n):
    """chi+ + chi- must recover the symmetric-group character everywhere."""
    for rep in an_irreps(n):
        if rep.tag != "+":
            continue
        partner = AnIrrep(rep.lam, "-")
        for cls in an_classes(n):
            plus, minus = an_character(rep, cls), an_character(partner, cls)
            assert plus.D == minus.D and plus.b + minus.b == 0
            assert plus.a + minus.a == 2 * mn_character(rep.lam, cls.mu)


@pytest.mark.parametrize("n", range(2, 10))
def test_whole_values_restrict(n):
    for rep in an_irreps(n):
        if rep.tag:
            continue
        for cls in an_classes(n):
            v = an_character(rep, cls)
            assert v.is_rational()
            assert v.a == 2 * mn_character(rep.lam, cls.mu)


def test_a5_golden_ratio_entries():
    plus = an_character(AnIrrep((3, 1, 1), "+"), AnClass((5,), "+"))
    assert (plus.a, plus.b, plus.D) == (1, 1, 5)
    swapped = an_character(AnIrrep((3, 1, 1), "+"), AnClass((5,), "-"))
    assert (swapped.a, swapped.b, swapped.D) == (1, -1, 5)


def table_value(table, rep: AnIrrep, cls: AnClass) -> QuadValue:
    """The entry of table at the row of rep and the column of cls."""
    return table.values[table.irreps.index(rep)][table.classes.index(cls)]


def test_a3_table_is_the_cube_root_table():
    table = character_table_an(3)
    dims = sorted(r.dim() for r in table.irreps)
    assert dims == [1, 1, 1]
    omega_class = AnClass((3,), "+")
    values = sorted(
        (v.a, v.b, v.D) for v in (table_value(table, r, omega_class) for r in table.irreps)
    )
    # 1 and the two primitive cube roots (-1 +- sqrt(-3))/2
    assert values == [(-1, -1, -3), (-1, 1, -3), (2, 0, 0)]


@pytest.mark.parametrize("n", range(1, 17))
def test_table_cells_equal_an_character(n):
    """Every cell, split and own-hook-type ones included, equals the per-entry value."""
    table = character_table_an(n, bound=n)
    for rep, row in zip(table.irreps, table.values):
        assert list(row) == [an_character(rep, cls) for cls in table.classes]


@pytest.mark.parametrize("n", [5, 9, 14])
def test_whole_cells_of_one_value_are_one_object(n):
    """Within a table, equal whole-row cells are one QuadValue.

    So the distinct cell objects number at most the distinct S_n values
    of the whole rows plus the cells of the split rows.
    """
    table = character_table_an(n)
    first = {}
    for rep, row in zip(table.irreps, table.values):
        if not rep.tag:
            for cell in row:
                assert first.setdefault(cell.a // 2, cell) is cell
    split_cells = sum(len(row) for rep, row in zip(table.irreps, table.values) if rep.tag)
    assert len({id(cell) for row in table.values for cell in row}) <= len(first) + split_cells


@pytest.mark.parametrize("n", range(1, 13))
def test_a_table_leaves_only_its_class_types_and_their_suffixes(monkeypatch, n):
    monkeypatch.setattr(characters, "_COLUMNS", {(): (1,)})
    character_table_an(n)
    assert set(characters._COLUMNS) == suffix_closure(c.mu for c in an_classes(n))


def test_the_seed_1_table_round_leaves_979_columns(monkeypatch):
    """The tables at n = 1, 2, 3, 5 and 11..18, the perfbench tables round of seed 1."""
    monkeypatch.setattr(characters, "_COLUMNS", {(): (1,)})
    sizes = (1, 2, 3, 5, *range(11, 19))
    for n in sizes:
        character_table_an(n, bound=n)
    assert set(characters._COLUMNS) == suffix_closure(c.mu for n in sizes for c in an_classes(n))
    assert len(characters._COLUMNS) == 979


def test_tables_do_not_fill_the_entry_memo():
    before = _mn.cache_info().currsize
    character_table_an(13, bound=13)
    assert _mn.cache_info().currsize == before


def test_own_hook_cells_do_not_evaluate_the_entry():
    """A split half on its own hook type takes its value from the class data alone.

    _an_value ignores the S_n value it is handed there, so a wrong one
    gives the same cell, and working it out leaves the entry memo alone.
    """
    mu = (13, 7, 3)
    rep = AnIrrep(phi(mu), "+")
    before = _mn.cache_info().currsize
    cells = {tag: _an_value(rep, AnClass(mu, tag), 0) for tag in ("+", "-")}
    assert _mn.cache_info().currsize == before
    for tag, cell in cells.items():
        assert not cell.is_rational()
        assert cell == an_character(rep, AnClass(mu, tag))
    assert cells["+"] != cells["-"]


def test_table_bound_guard():
    with pytest.raises(ValueError):
        character_table_an(15)


# --- exact quadratic arithmetic ----------------------------------------------


def test_quadvalue_normal_form():
    assert QuadValue(1, 3, 1) == QuadValue(4, 0, 0)  # perfect square folds
    assert QuadValue(2, 0, 5) == QuadValue(2, 0, 0)  # dropped radical clears D
    with pytest.raises(ValueError):
        QuadValue(1, 2, 0)


def test_quadvalue_string_forms():
    assert str(QuadValue(4, 0, 0)) == "2"
    assert str(QuadValue(1, 0, 0)) == "1/2"
    assert str(QuadValue(1, 1, 5)) == "(1+sqrt(5))/2"
    assert str(QuadValue(1, -1, 5)) == "(1-sqrt(5))/2"
    assert str(QuadValue(0, 1, -3)) == "sqrt(-3)/2"
    assert str(QuadValue(0, -2, 5)) == "-2*sqrt(5)/2"
    for a in range(-1000, 1001):  # a rational value prints as its reduced fraction
        assert str(QuadValue.half(a)) == str(Fraction(a, 2)), a
