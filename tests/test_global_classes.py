import math
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement, permutations, product

import pytest

from altchar import characters, perms
from altchar.characters import (
    AnClass,
    AnIrrep,
    _induced_trivial,
    _mn,
    an_classes,
    an_irreps,
    class_splits,
    in_alternating,
    mn_character,
)
from altchar.errors import InternalCheckError
from altchar.numtheory import euler_phi
from altchar import global_classes
from altchar.global_classes import (
    _EXPLICIT_LIMIT,
    _distribution_tally,
    _explicit_tally,
    an_inner_products,
    centralizer_type_distribution,
    global_brute_force,
    is_global_class,
    qualifies,
)
from altchar.partitions import centralizer_order_sn, partitions
from conftest import an_character, compose, inverse, suffix_closure


def test_qualifies():
    assert qualifies((5, 3)) and qualifies((3, 3, 1, 1)) and qualifies((1, 1))
    assert not qualifies((7,))  # single part
    assert not qualifies((4, 2))  # even parts
    assert not qualifies((3, 3, 3, 1))  # a part three times


def test_closed_form_exceptions():
    assert is_global_class((3, 1)).is_global is False
    assert is_global_class((3, 3)).is_global is False
    assert is_global_class((5, 3)).is_global is False
    assert is_global_class((3, 3, 1, 1)).is_global is False
    assert is_global_class((5, 3, 1)).is_global is True
    assert is_global_class((4, 4)).is_global is None  # out of scope
    assert is_global_class((3, 3, 3, 1)).is_global is None


# --- the centralizer -----------------------------------------------------------


def centralizer_elements(mu):
    """All permutations commuting with standard_rep(mu), by direct product.

    Per family of k cycles of common length l the factor is C_l wr S_k:
    an independent rotation of each cycle and a permutation of the blocks.
    Every element is built whole on all n points, independently of
    _explicit_tally's factor-by-factor walk: this is the oracle behind
    conjugator_tally.
    """
    n = sum(mu)
    blocks = {}
    start = 0
    for part in mu:
        blocks.setdefault(part, []).append(list(range(start, start + part)))
        start += part
    factor_choices = [
        [(family, arrangement, rotations, length)
         for arrangement in permutations(range(len(family)))
         for rotations in product(range(length), repeat=len(family))]
        for length, family in blocks.items()
    ]
    out = []
    for combo in product(*factor_choices):
        images = [0] * n
        for family, arrangement, rotations, length in combo:
            for j, block in enumerate(family):
                target = family[arrangement[j]]
                for t in range(length):
                    images[block[t]] = target[(t + rotations[j]) % length]
        out.append(tuple(images))
    return out


@pytest.mark.parametrize("mu", [(3,), (5, 3), (3, 3), (2, 2, 1), (4, 2), (3, 1, 1)])
def test_centralizer_enumeration(mu):
    elements = centralizer_elements(mu)
    assert len(elements) == centralizer_order_sn(mu)
    assert len(set(elements)) == len(elements)
    w = perms.standard_rep(mu)
    for g in elements:
        assert compose(g, w) == compose(w, g)


@pytest.mark.parametrize("mu", [(3,), (5, 3), (3, 3), (2, 2, 1), (4, 2), (6, 3, 1)])
def test_type_distribution_matches_enumeration(mu):
    counted = Counter(perms.cycle_type(g) for g in centralizer_elements(mu))
    assert centralizer_type_distribution(mu) == dict(counted)


def split_class_of(sigma):
    """Tag of the split class containing sigma, by the parity of a conjugator.

    The oracle for _explicit_tally's tags: perms.conjugator builds some
    rho with rho standard_rep(t) rho^-1 == sigma, and sigma lies in the
    plus class, that of standard_rep(t), exactly when rho is even.
    """
    t = perms.cycle_type(sigma)
    if not class_splits(t):
        raise ValueError(f"cycle type {t} does not split")
    rho = perms.conjugator(perms.standard_rep(t), sigma)
    assert rho is not None
    return "+" if perms.sign(rho) == 1 else "-"


@cache
def conjugator_tally(mu):
    """Even centralizer elements per (cycle type, tag) key, tagged by split_class_of."""
    tally = Counter()
    for g in centralizer_elements(mu):
        t = perms.cycle_type(g)
        if in_alternating(t):
            tally[t, split_class_of(g) if class_splits(t) else ""] += 1
    return tally


def test_split_class_of():
    w = perms.standard_rep((5, 3))
    assert split_class_of(w) == "+"
    t = (1, 0) + tuple(range(2, 8))  # conjugate by a transposition
    swapped = compose(compose(t, w), inverse(t))
    assert split_class_of(swapped) == "-"
    assert split_class_of(perms.perm_power(w, 2)) == "+"  # jacobi(2,15)=1


def constructions(monkeypatch, label_class) -> list:
    """A list that grows by one for every label_class object built from now on."""
    built = []
    original = label_class.__post_init__

    def counted(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(label_class, "__post_init__", counted)
    return built


def test_a_repeated_n_builds_no_irreducible(monkeypatch):
    global_brute_force((5, 3, 1))
    built = constructions(monkeypatch, AnIrrep)
    assert global_brute_force((7, 1, 1)).is_global
    assert built == []


def test_the_explicit_route_builds_one_class_label_per_class(monkeypatch):
    mu = (1,) * 8  # its tally holds the split types (7, 1) and (5, 3)
    limit = len(an_classes(sum(mu)))
    built = constructions(monkeypatch, AnClass)
    verdict = global_brute_force(mu, bound=sum(mu))
    assert verdict.method == "explicit-centralizer"
    assert sum(perms.sign(g) == 1 for g in centralizer_elements(mu)) == 20160
    assert 0 < len(built) <= limit


def test_split_class_of_rejects_non_split_types():
    with pytest.raises(ValueError):
        split_class_of(perms.standard_rep((3, 3)))


def explicit_types(n):
    """The even cycle types on n points that the explicit route takes."""
    return [mu for mu in partitions(n) if in_alternating(mu) and centralizer_order_sn(mu) <= _EXPLICIT_LIMIT]


def conjugator_tag_types(n):
    """The types whose explicit tally is checked against conjugator_tally.

    Every type the explicit route takes up to n = 10, and beyond it the
    qualifying types, which the benchmark's explicit route serves to n = 18.
    """
    return explicit_types(n) if n <= 10 else [mu for mu in partitions(n) if qualifies(mu)]


@pytest.mark.parametrize("n", range(1, 19))
def test_explicit_tally_equals_the_conjugator_tags(n):
    """Every type of conjugator_tag_types(n) against conjugator_tally.

    (9,) and (9, 1) put all six unit rotations of the 9-cycle in the plus
    class, so a flipped tag or a reversed cycle order shows there.  Past
    n = 10 the split types (7, 5, 3, 1) and (9, 5, 3, 1) take each tagged
    element from four factors, laid end to end.
    """
    for mu in conjugator_tag_types(n):
        assert _explicit_tally(mu) == conjugator_tally(mu), mu


def test_conjugator_tag_check_leaves_out_only_the_identities():
    """Of the even types with n <= 10, only (1^9) and (1^10) are past _EXPLICIT_LIMIT.

    The check covers all 83 qualifying types with n <= 18.
    """
    left_out = [mu for n in range(1, 11) for mu in partitions(n) if in_alternating(mu) and mu not in explicit_types(n)]
    assert left_out == [(1,) * 9, (1,) * 10]
    assert sum(len(explicit_types(n)) for n in range(1, 11)) == 73
    qualifying = [mu for n in range(1, 19) for mu in partitions(n) if qualifies(mu)]
    assert len(qualifying) == 83
    assert all(mu in conjugator_tag_types(sum(mu)) for mu in qualifying)


def test_route_preconditions_are_internal_errors():
    """The route dispatch keeps both unreachable; a bug that breaks it is no bad input."""
    with pytest.raises(InternalCheckError):
        _explicit_tally((1,) * 10)  # 10! elements, past the explicit limit
    with pytest.raises(InternalCheckError):
        _distribution_tally((5, 3))  # split type: no odd centralizer element


def test_an_odd_count_on_a_split_type_is_an_internal_error(monkeypatch):
    """Each half of a split type gets half its count, so the count must be even."""
    # (2, 2) has 8 centralizer elements, and these 4 even ones are half of them.
    fake = {(3, 1): 3, (1, 1, 1, 1): 1, (2, 1, 1): 4}
    monkeypatch.setattr(global_classes, "centralizer_type_distribution", lambda mu: fake)
    with pytest.raises(InternalCheckError, match="odd count 3 on split type"):
        _distribution_tally((2, 2))


# --- brute force ----------------------------------------------------------------


def test_inner_products_routes_agree():
    """The explicit enumeration and the type-distribution route must coincide."""
    for mu in [(2, 2), (4, 2), (2, 2, 1, 1), (3, 3), (6, 2), (4, 4)]:
        explicit, _ = an_inner_products(mu)
        assert explicit == _induced_trivial(sum(mu), _distribution_tally(mu))
    # The distribution tally rests on an odd centralizer element swapping
    # the halves of every split class; the enumeration checks that directly.
    checked = 0
    for n in range(2, 13):
        for mu in partitions(n):
            if in_alternating(mu) and not class_splits(mu) and centralizer_order_sn(mu) <= 20_000:
                assert _explicit_tally(mu) == _distribution_tally(mu), mu
                checked += 1
    assert checked == 116


def test_explicit_tally_of_a_split_type_on_its_own_classes():
    """N_+- = (prod phi(mu_i) +- prod S_i) / 2, S_i = phi(mu_i) on squares, else 0.

    By the Frobenius-Zolotarev lemma the centralizer element with unit
    rotations (r_i) lies in the class of standard_rep(mu) exactly when
    prod (r_i | mu_i) = 1.
    """
    checked = 0
    for n in range(2, 21):
        for mu in partitions(n):
            if not class_splits(mu):
                continue
            units = math.prod(euler_phi(p) for p in mu)
            squares = math.prod(euler_phi(p) if math.isqrt(p) ** 2 == p else 0 for p in mu)
            tally = _explicit_tally(mu)
            assert (tally[mu, "+"], tally[mu, "-"]) == ((units + squares) // 2, (units - squares) // 2), mu
            checked += 1
    assert checked == 54


def per_entry_inner_products(mu, method):
    """Multiplicities in the induced trivial, summed entry by entry with an_character.

    On the explicit route the centralizer is enumerated and each split
    element tagged; on the distribution route each half of a split class
    gets half its cycle type's count, as an odd centralizer element swaps
    the halves.
    """
    weights = Counter()
    if method == "explicit-centralizer":
        for (t, tag), count in conjugator_tally(mu).items():
            weights[AnClass(t, tag)] += count
    else:
        for t, count in centralizer_type_distribution(mu).items():
            if not in_alternating(t):
                continue
            if class_splits(t):
                assert count % 2 == 0
                weights[AnClass(t, "+")] += count // 2
                weights[AnClass(t, "-")] += count // 2
            else:
                weights[AnClass(t)] += count
    size = sum(weights.values())
    out = {}
    for rep in an_irreps(sum(mu)):
        values = [(an_character(rep, cls), w) for cls, w in weights.items()]
        radical = Counter()
        for v, w in values:
            radical[v.D] += w * v.b
        assert not any(radical.values()), "radical parts did not cancel"
        out[rep] = Fraction(sum(w * v.a for v, w in values), 2 * size)
    return out


def assert_inner_products_match_the_entries(mu):
    inner, method = an_inner_products(mu)
    assert inner == per_entry_inner_products(mu, method), mu
    return method


@pytest.mark.parametrize("n", range(2, 11))
def test_inner_products_equal_per_entry_sums(n):
    """Both column routes, on every even type, against per-entry character sums."""
    methods = {
        assert_inner_products_match_the_entries(mu) for mu in partitions(n) if in_alternating(mu)
    }
    assert "explicit-centralizer" in methods


@pytest.mark.parametrize("mu", [(1,) * 11, (1,) * 12, (2, 2) + (1,) * 8, (3,) + (1,) * 9])
def test_distribution_route_equals_per_entry_sums(mu):
    assert assert_inner_products_match_the_entries(mu) == "type-distribution"


@pytest.mark.parametrize("mu", [(5, 3), (3, 3, 1, 1), (7, 5, 1), (2, 2) + (1,) * 8, (3,) + (1,) * 9])
def test_inner_products_leave_only_their_tally_types_and_suffixes(monkeypatch, mu):
    monkeypatch.setattr(characters, "_COLUMNS", {(): (1,)})
    _, method = an_inner_products(mu)
    tally = _explicit_tally(mu) if method == "explicit-centralizer" else _distribution_tally(mu)
    assert set(characters._COLUMNS) == suffix_closure(t for t, _ in tally)


def test_global_does_not_fill_the_entry_memo():
    before = _mn.cache_info().currsize
    assert global_brute_force((7, 5, 1), bound=13).method == "explicit-centralizer"
    assert global_brute_force((2, 2) + (1,) * 9, bound=13).method == "type-distribution"
    assert _mn.cache_info().currsize == before


def test_inner_products_are_non_negative_and_hit_the_trivial():
    for mu in [(3, 1), (5, 3), (2, 2), (3, 3, 1)]:
        inner, _ = an_inner_products(mu)
        assert inner[AnIrrep((sum(mu),))] >= 1
        assert all(v >= 0 for v in inner.values())


def test_witness_for_5_3():
    verdict = global_brute_force((5, 3))
    assert verdict.is_global is False
    assert verdict.witness == ("4,4", 0)


def test_witness_is_the_least_label_at_the_least_multiplicity():
    """Ties are common here: at (1^7) eight irreducibles share multiplicity 0."""
    for n in range(1, 8):
        for mu in partitions(n):
            if not in_alternating(mu):
                continue
            inner, _ = an_inner_products(mu)
            least = min(inner.values())
            labels = sorted(rep.label() for rep, v in inner.items() if v == least)
            assert global_brute_force(mu).witness == (labels[0], least), mu


def test_brute_force_bound():
    with pytest.raises(ValueError):
        global_brute_force((13, 9, 3))


@pytest.mark.parametrize("n", range(2, 11))
def test_closed_form_matches_brute_force(n):
    for mu in partitions(n):
        if not qualifies(mu):
            continue
        assert is_global_class(mu).is_global == global_brute_force(mu).is_global, mu


def _an_centralizer_order(mu):
    # For all-odd cycle types the S_n centralizer meets the odd coset exactly
    # when some part repeats (swapping equal odd cycles is odd).
    order = centralizer_order_sn(mu)
    return order // 2 if len(set(mu)) < len(mu) else order


def test_union_of_globals_is_global():
    """Concatenating global odd types stays global when the centralizer factors.

    The pool is decided by character sums, so it includes the single-part
    degenerate case (1).  The pairing condition is that the centralizer of
    the union is the product of the two centralizers; without it the join of
    (3,3,1) and (1) would land on the non-global type (3,3,1,1).
    """
    pool = [
        mu
        for n in range(1, 11)
        for mu in partitions(n)
        if all(p % 2 == 1 for p in mu) and global_brute_force(mu).is_global
    ]
    assert (1,) in pool and (5, 1) in pool
    checked = set()
    for a, b in combinations_with_replacement(pool, 2):
        union = tuple(sorted(a + b, reverse=True))
        if sum(union) > 11 or max(union.count(p) for p in union) > 2:
            continue
        if _an_centralizer_order(union) != _an_centralizer_order(a) * _an_centralizer_order(b):
            continue
        assert global_brute_force(union).is_global is True, union
        if qualifies(union):
            assert is_global_class(union).is_global is True
        checked.add(union)
    assert len(checked) >= 5
    assert (3, 3, 1, 1) not in checked


# --- the symmetric-group analogue ------------------------------------------------


def sundaram_is_global_sn(mu):
    """Closed form at the symmetric-group level: >= 2 distinct odd parts.

    (Not asserted at n = 4 or 8, which the classification excludes.)
    """
    return len(mu) >= 2 and all(p % 2 == 1 for p in mu) and len(set(mu)) == len(mu)


def sn_global_brute_force(mu):
    """Symmetric-group verdict via type-distribution character sums."""
    dist = centralizer_type_distribution(mu)
    size = centralizer_order_sn(mu)
    for lam in partitions(sum(mu)):
        total = sum(count * mn_character(lam, t) for t, count in dist.items())
        value, rem = divmod(total, size)
        assert rem == 0 and value >= 0, "inner product not a non-negative integer"
        if value == 0:
            return False
    return True


@pytest.mark.parametrize("n", [2, 3, 5, 6, 7, 9, 10])
def test_sundaram_consistency(n):
    """Distinct-odd-parts predicate against character sums, off n = 4 and 8."""
    for mu in partitions(n):
        assert sundaram_is_global_sn(mu) == sn_global_brute_force(mu), mu


def test_sundaram_exceptional_sizes():
    # at n = 4 and 8 the predicate genuinely overshoots
    assert sundaram_is_global_sn((3, 1)) and not sn_global_brute_force((3, 1))
    assert sundaram_is_global_sn((5, 3)) and not sn_global_brute_force((5, 3))
