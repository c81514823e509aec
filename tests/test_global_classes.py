import hashlib
import json
import math
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement, permutations, product

import pytest

from altchar import characters, global_classes, perms
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
from altchar.cli import CLOSED_FORM_BOUND
from altchar.global_classes import (
    _tally,
    _type_distribution,
    _walked_wreath_distribution,
    _wreath_type_distribution,
    an_inner_products,
    global_brute_force,
    is_global_class,
    qualifies,
)
from altchar.partitions import centralizer_order_sn, partitions
from conftest import an_character, compose, identity, inverse, suffix_closure


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


def cycle_blocks(mu):
    """The points of each cycle of standard_rep(mu), grouped by cycle length."""
    blocks = {}
    start = 0
    for part in mu:
        blocks.setdefault(part, []).append(list(range(start, start + part)))
        start += part
    return blocks


def centralizer_elements(mu):
    """All permutations commuting with standard_rep(mu), by direct product.

    Per family of k cycles of common length l the factor is C_l wr S_k:
    an independent rotation of each cycle and a permutation of the blocks.
    Every element is built whole on all n points, independently of the
    explicit route's factor-by-factor walk: this is the oracle behind
    conjugator_tally.
    """
    n = sum(mu)
    blocks = cycle_blocks(mu)
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


def centralizer_type_distribution(mu):
    """How many centralizer elements of standard_rep(mu) have each cycle type, by the recurrence."""
    return dict(_type_distribution(mu, _wreath_type_distribution))


@pytest.mark.parametrize("mu", [(3,), (5, 3), (3, 3), (2, 2, 1), (4, 2), (6, 3, 1)])
def test_type_distribution_matches_enumeration(mu):
    counted = Counter(perms.cycle_type(g) for g in centralizer_elements(mu))
    assert centralizer_type_distribution(mu) == dict(counted)


def per_kappa_wreath_distribution(length, k):
    """Cycle-type distribution of C_length wr S_k, one term per cycle of every kappa |- k.

    The oracle for _wreath_type_distribution's recurrence on k.  The
    (k! / z_kappa) block permutations of type kappa each take one rotation
    vector per cycle; a c-cycle whose rotations sum to r gives
    gcd(length, r) cycles of size c*length/gcd(length, r), and
    length**(c-1) rotation vectors along it have each sum.
    """
    def convolve(left, right):
        out = Counter()
        for a, wa in left.items():
            for b, wb in right.items():
                out[tuple(sorted(a + b, reverse=True))] += wa * wb
        return out

    per_cycle = {}
    for c in range(1, k + 1):
        counts = Counter()
        for r in range(length):
            g = math.gcd(length, r)
            counts[(c * length // g,) * g] += length ** (c - 1)
        per_cycle[c] = counts
    dist = Counter()
    for kappa in partitions(k):
        partial = Counter({(): math.factorial(k) // centralizer_order_sn(kappa)})
        for c in kappa:
            partial = convolve(partial, per_cycle[c])
        dist.update(partial)
    return tuple(sorted(dist.items()))


def test_wreath_recurrence_equals_the_per_kappa_sum():
    checked = 0
    for length in range(1, 21):
        for k in range(20 // length + 1):
            assert _wreath_type_distribution(length, k) == per_kappa_wreath_distribution(length, k), (length, k)
            checked += 1
    assert checked == 86


def test_wreath_distribution_counts_the_whole_factor():
    """length**k * k! elements, each a permutation of length*k points."""
    for length in range(1, 31):
        for k in range(30 // length + 1):
            dist = _wreath_type_distribution(length, k)
            assert sum(count for _, count in dist) == length**k * math.factorial(k), (length, k)
            assert all(sum(t) == length * k for t, _ in dist), (length, k)


def split_class_of(sigma):
    """Tag of the split class containing sigma, by the parity of a conjugator.

    The oracle for _tally's tags: perms.conjugator builds some
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


def test_a_repeated_n_builds_no_irreducible():
    global_brute_force((5, 3, 1))
    before = characters._irrep_index.cache_info()
    assert global_brute_force((7, 1, 1)).is_global
    after = characters._irrep_index.cache_info()
    assert after.misses == before.misses and after.hits > before.hits


def test_the_explicit_route_builds_one_class_label_per_class(monkeypatch):
    """The split types (7, 1) and (5, 3) on the walk, and (1^8), whose tally holds both, by recurrence."""
    limit = len(an_classes(8))
    built = constructions(monkeypatch, AnClass)
    for mu, method in [((7, 1), "explicit-centralizer"), ((5, 3), "explicit-centralizer"),
                       ((1,) * 8, "type-distribution")]:
        built.clear()
        assert global_brute_force(mu).method == method
        assert 0 < len(built) <= limit, mu
    assert sum(perms.sign(g) == 1 for g in centralizer_elements((1,) * 8)) == 20160


def test_split_class_of_rejects_non_split_types():
    with pytest.raises(ValueError):
        split_class_of(perms.standard_rep((3, 3)))


def walked_tally(mu):
    """The explicit route's tally: _tally over the walked type distribution, on any type."""
    return _tally(mu, _type_distribution(mu, _walked_wreath_distribution))


def recurrence_tally(mu):
    """The distribution route's tally: _tally over the recurrence's type distribution."""
    return _tally(mu, centralizer_type_distribution(mu))


ENUMERATED = math.factorial(8)  # the largest centralizer, of (1^8), that conjugator_tally enumerates


def conjugator_tag_types(n):
    """The types whose walked tally is checked against conjugator_tally.

    Up to n = 10 every even type whose centralizer has at most ENUMERATED
    elements, those with a part thrice included, though production takes
    them by recurrence; beyond it the qualifying types, which the
    benchmark's explicit route serves to n = 18.
    """
    if n > 10:
        return [mu for mu in partitions(n) if qualifies(mu)]
    return [mu for mu in partitions(n) if in_alternating(mu) and centralizer_order_sn(mu) <= ENUMERATED]


@pytest.mark.parametrize("n", range(1, 19))
def test_explicit_tally_equals_the_conjugator_tags(n):
    """Every type of conjugator_tag_types(n) against conjugator_tally.

    (9,) and (9, 1) put all six unit rotations of the 9-cycle in the plus
    class, so a flipped tag or a dropped all-squares rule shows there.
    Past n = 10 the split types (7, 5, 3, 1) and (9, 5, 3, 1) tag elements
    of four factors.
    """
    for mu in conjugator_tag_types(n):
        assert walked_tally(mu) == conjugator_tally(mu), mu


def test_conjugator_tag_check_leaves_out_only_the_identities():
    """Of the even types with n <= 10, only (1^9) and (1^10) are past ENUMERATED.

    Of the 73 checked, 30 have a part thrice.  The check covers all 83
    qualifying types with n <= 18.
    """
    left_out = [mu for n in range(1, 11) for mu in partitions(n)
                if in_alternating(mu) and mu not in conjugator_tag_types(n)]
    assert left_out == [(1,) * 9, (1,) * 10]
    checked = [mu for n in range(1, 11) for mu in conjugator_tag_types(n)]
    assert len(checked) == 73
    assert sum(max(Counter(mu).values()) >= 3 for mu in checked) == 30
    qualifying = [mu for n in range(1, 19) for mu in partitions(n) if qualifies(mu)]
    assert len(qualifying) == 83
    assert all(mu in conjugator_tag_types(sum(mu)) for mu in qualifying)


def test_the_walk_takes_at_most_two_cycles_per_factor(monkeypatch):
    """Production walks only types with no part thrice, so every walked C_l wr S_k has k <= 2.

    The walk then visits l or 2 l**2 elements per factor, with no size
    guard; every other type, (1^k) among them, goes by recurrence.
    """
    calls = []

    def recording(length, k):
        calls.append((length, k))
        return _walked_wreath_distribution(length, k)

    monkeypatch.setattr(global_classes, "_walked_wreath_distribution", recording)
    routes = Counter(an_inner_products(mu)[1] for n in range(1, 17) for mu in partitions(n) if in_alternating(mu))
    assert routes == {"explicit-centralizer": 208, "type-distribution": 265}
    assert calls and max(k for _, k in calls) == 2


def test_a_large_split_type_takes_the_walk(monkeypatch):
    """(15, 13, 11, 9, 7, 5, 1) has 675,675 centralizer elements, but its walk visits only 61.

    Its character sum needs columns over every shape of 61, so the sum is
    stubbed out; the tally it is handed must equal the recurrence's.
    """
    mu = (15, 13, 11, 9, 7, 5, 1)
    assert centralizer_order_sn(mu) == 675_675
    handed = []

    def handing(n, tally):
        handed.append(tally)
        return {}

    monkeypatch.setattr(global_classes, "_induced_trivial", handing)
    assert an_inner_products(mu) == ({}, "explicit-centralizer")
    assert handed == [recurrence_tally(mu)]
    assert len(handed[0]) == 193


def test_an_odd_count_on_a_split_type_is_an_internal_error():
    """Each half of a split type gets half its count, so the count must be even."""
    # (2, 2) has 8 centralizer elements, and these 4 even ones are half of them.
    fake = {(3, 1): 3, (1, 1, 1, 1): 1, (2, 1, 1): 4}
    with pytest.raises(InternalCheckError, match="odd count 3 on split type"):
        _tally((2, 2), fake)


def test_a_miscounted_even_part_is_an_internal_error():
    """Half the centralizer is even when it holds an odd element, and all of it when mu splits."""
    with pytest.raises(InternalCheckError, match="miscounted"):
        _tally((2, 2), {(2, 2): 8})  # the 8 elements of the centralizer of (2, 2), all counted even
    with pytest.raises(InternalCheckError, match="miscounted"):
        _tally((5, 3), {(5, 3): 8, (5, 1, 1, 1): 4, (3, 1, 1, 1, 1, 1): 2})  # 14 of its 15 elements


# --- brute force ----------------------------------------------------------------


def test_inner_products_routes_agree():
    """The walked and the recurrence type distributions must give one tally, split types included.

    On every type with a centralizer of at most 20,000 elements up to
    n = 12, and on every type with no part thrice, the ones production
    walks, up to n = 18.
    """
    for mu in [(2, 2), (4, 2), (2, 2, 1, 1), (3, 3), (6, 2), (4, 4)]:
        explicit, _ = an_inner_products(mu)
        assert explicit == _induced_trivial(sum(mu), recurrence_tally(mu))
    checked = 0
    for n in range(2, 13):
        for mu in partitions(n):
            if in_alternating(mu) and centralizer_order_sn(mu) <= 20_000:
                assert walked_tally(mu) == recurrence_tally(mu), mu
                checked += 1
    assert checked == 132  # 116 non-split and 16 split types
    walked = [mu for n in range(1, 19) for mu in partitions(n) if in_alternating(mu) and max(Counter(mu).values()) <= 2]
    for mu in walked:
        assert walked_tally(mu) == recurrence_tally(mu), mu
    assert len(walked) == 332


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
            tally = walked_tally(mu)
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
    tally = walked_tally(mu) if method == "explicit-centralizer" else recurrence_tally(mu)
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


def centralizer_generators(mu):
    """Generators of the centralizer of standard_rep(mu) in A_n.

    In S_n each family of k cycles of length l gives C_l wr S_k, generated
    by the rotation of its first cycle, the swap of its first two cycles
    and the k-cycle of its cycles.  The even part comes by Schreier's
    lemma, with transversal {1, g0} for one odd generator g0.
    """
    n = sum(mu)
    gens = []
    for length, family in cycle_blocks(mu).items():
        k = len(family)
        rotate, swap, shift = list(range(n)), list(range(n)), list(range(n))
        for t in range(length):
            rotate[family[0][t]] = family[0][(t + 1) % length]
            for j, block in enumerate(family):
                shift[block[t]] = family[(j + 1) % k][t]
            if k >= 2:
                swap[family[0][t]], swap[family[1][t]] = family[1][t], family[0][t]
        gens += [tuple(rotate)] + [tuple(swap)] * (k >= 2) + [tuple(shift)] * (k >= 3)
    odd = [g for g in gens if perms.sign(g) == -1]
    if not odd:
        return gens
    g0, g0_inv = odd[0], inverse(odd[0])
    return [s if perms.sign(s) == 1 else compose(s, g0_inv) for s in gens] + [
        compose(compose(g0, s), g0_inv) if perms.sign(s) == 1 else compose(g0, s) for s in gens
    ]


@pytest.mark.parametrize("mu", [(3,), (5, 3), (3, 3), (2, 2, 1), (4, 2), (3, 1, 1), (2, 2, 2), (1, 1, 1, 1, 1)])
def test_centralizer_generators_generate_the_even_centralizer(mu):
    group, todo = {identity(sum(mu))}, [identity(sum(mu))]
    while todo:
        g = todo.pop()
        for s in centralizer_generators(mu):
            h = compose(s, g)
            if h not in group:
                group.add(h)
                todo.append(h)
    assert group == {g for g in centralizer_elements(mu) if perms.sign(g) == 1}


def orbit_counts(mu):
    """Orbits of the A_n-centralizer of standard_rep(mu) on points, 2-subsets and ordered pairs.

    Counted by walking each orbit with the generators, with no character
    value and no cycle-type tally.
    """
    n = sum(mu)
    gens = centralizer_generators(mu)

    def components(items, act):
        seen, count = set(), 0
        for x in items:
            if x in seen:
                continue
            count += 1
            seen.add(x)
            todo = [x]
            while todo:
                y = todo.pop()
                for g in gens:
                    z = act(g, y)
                    if z not in seen:
                        seen.add(z)
                        todo.append(z)
        return count

    points = components(range(n), lambda g, x: g[x])
    subsets = components([(i, j) for i in range(n) for j in range(i + 1, n)],
                         lambda g, p: tuple(sorted((g[p[0]], g[p[1]]))))
    ordered = components([(i, j) for i in range(n) for j in range(n) if i != j],
                         lambda g, p: (g[p[0]], g[p[1]]))
    return points, subsets, ordered


def burnside_counts(types):
    """Orbit counts on points, 2-subsets and ordered pairs from (cycle type, count) pairs alone.

    An element with a_1 fixed points and a_2 two-cycles fixes a_1 points,
    C(a_1, 2) + a_2 two-subsets and a_1 (a_1 - 1) ordered pairs.
    """
    size = sum(count for _, count in types)
    fixed = [0, 0, 0]
    for t, count in types:
        a1, a2 = t.count(1), t.count(2)
        for i, f in enumerate((a1, a1 * (a1 - 1) // 2 + a2, a1 * (a1 - 1))):
            fixed[i] += count * f
    assert all(f % size == 0 for f in fixed)
    return tuple(f // size for f in fixed)


def orbit_rows(inner, n):
    """The orbit counts that Young's rule reads off the rows (n-1,1), (n-2,2) and (n-2,1,1), for n >= 6.

    On points 1 + chi^(n-1,1), on 2-subsets that plus chi^(n-2,2), and on
    ordered pairs 1 + 2 chi^(n-1,1) + chi^(n-2,2) + chi^(n-2,1,1); none of
    the three shapes is self-conjugate, so each restricts to A_n whole.
    """
    std, two, wedge = (inner[AnIrrep(lam)] for lam in [(n - 1, 1), (n - 2, 2), (n - 2, 1, 1)])
    return 1 + std, 1 + std + two, 1 + 2 * std + two + wedge


@pytest.mark.parametrize("n", range(6, 17))
def test_three_rows_equal_the_orbit_counts(n):
    """Both tallies and the engine's rows against Burnside, on every even type of n.

    The orbits come from the centralizer's generators; the even part of the
    type distribution must give the same counts by Burnside, and the rows
    of an_inner_products, on its own route and on the distribution route,
    the same counts by Young's rule.
    """
    routes = Counter()
    for mu in partitions(n):
        if not in_alternating(mu):
            continue
        orbits = orbit_counts(mu)
        even = [(t, count) for t, count in centralizer_type_distribution(mu).items() if in_alternating(t)]
        assert burnside_counts(even) == orbits, mu
        inner, method = an_inner_products(mu)
        assert orbit_rows(inner, n) == orbits, (mu, method)
        routes[method] += 1
        assert orbit_rows(_induced_trivial(n, recurrence_tally(mu)), n) == orbits, mu
    assert routes["explicit-centralizer"] > 0 and routes["type-distribution"] > 0


def test_the_closed_form_names_a_global_class_at_every_n():
    """Heide and Zalessky's existence result: A_n has a global class for every n >= 5.

    The closed form names (n-1, 1) for n even and (n-2, 1, 1) for n odd;
    brute force agrees up to n = 18.
    """
    for n in range(5, CLOSED_FORM_BOUND + 1):
        mu = (n - 1, 1) if n % 2 == 0 else (n - 2, 1, 1)
        assert is_global_class(mu).is_global is True, mu
        if n <= 18:
            assert global_brute_force(mu, bound=n).is_global is True, mu


def test_the_verdict_table_to_n_16_is_pinned():
    """Brute-force verdict and witness of every even type with n <= 16, by digest.

    The route each type takes is left out, so renaming a method moves
    nothing; a change to any verdict or witness fails here.  291 of the 473
    types are global.
    """
    rows = [[list(mu), v.is_global, list(v.witness)] for n in range(1, 17) for mu in partitions(n)
            if in_alternating(mu) for v in [global_brute_force(mu, bound=n)]]
    assert (len(rows), sum(is_global for _, is_global, _ in rows)) == (473, 291)
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == "a7d0a736d0b78b254719efcb0d017acf87ef194f4d98b90ae9c603cf0e50a992"


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
