"""Characters of symmetric and alternating groups, held exactly.

Symmetric-group character values come from the Murnaghan-Nakayama rule:
strip every rim hook of length mu[0] off the shape and recurse on mu[1:].
Inside this module a shape is held by its beta-set, as one int bit mask
(_beta_mask), and both engines take their hooks from one rim-hook step on
those masks, _rim_hooks.  _mn evaluates one entry, memoized by (mask,
suffix of mu), for mn_character and the multiplicity vectors; at an
all-ones suffix (1^k) it stops and returns the degree, which
_mask_degree reads off the beads by Frobenius' formula
f = n! * prod over i < j of (b_j - b_i) / prod of b_i!.  Whole columns,
every shape's value at one cycle type, serve the A_n character tables
and the character sums over a subgroup: _fill_columns builds the columns
of many types at once into the dict _COLUMNS.  Types that share
(n, h = mu[0], parity of n - len(mu)) form one group, with one rim table
per (n, h) whose rows hold the rows left by each shape's h-rim hooks, split
by sign; the group's columns are one sparse product, each table row summed
once over the whole group.  A column sums one row per transpose pair, the
shape lam >= lam', and writes its transpose's row by the sign twist
chi^lam'(mu) = sgn(mu) chi^lam(mu).  Callers outside the module hand over
shapes and class tallies, never masks, rows or columns.

Restricting to the alternating group, the representation of a
non-self-conjugate shape stays irreducible (and equals that of its
transpose), while a self-conjugate shape splits into a plus and a minus
half; the split halves take values in Z[(1+sqrt(D))/2] for a single
discriminant D per split class, which QuadValue stores exactly.
character_table_an and _induced_trivial read each irreducible's S_n row
from _irrep_rows; _induced_trivial sums the rows over a subgroup H, given
by its count of elements per A_n class, into each irreducible's
multiplicity in the trivial character of H induced up to A_n.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cache
from operator import add, mul, neg, sub

from .partitions import (
    Partition,
    check_partition,
    format_partition,
    parse_partition,
    partitions,
    sn_class_size,
    _conjugate,
    _dimension,
    _distinct_odd,
    _epsilon,
    _phi,
)
from .errors import InternalCheckError
from .numtheory import _squarefree_split

TAG_NONE = ""
TAG_PLUS = "+"
TAG_MINUS = "-"


def _beta_mask(lam: Partition) -> int:
    """The beta-set of lam as a bit mask: bead lam[i] + k - 1 - i for each of its k rows.

    Bit 0 is clear for every shape but (), whose mask is 0, and this
    canonical mask is the key every memo below holds a shape by.
    """
    k = len(lam)
    return sum(1 << (part + k - 1 - i) for i, part in enumerate(lam))


def _transpose_mask(beta: int) -> int:
    """The mask of the transpose: beta complemented and reversed within its bit_length.

    >>> _beta_mask((3, 1)), _beta_mask((2, 1, 1)), _transpose_mask(18), _transpose_mask(22)
    (18, 22, 22, 18)
    """
    return int(format(beta, "b")[::-1], 2) ^ ((1 << beta.bit_length()) - 1)


def _rim_hooks(beta: int, h: int) -> list[tuple[int, int]]:
    """(sign, mask of lam minus the hook) for each rim hook of length h in lam, of mask beta.

    The one rim-hook step of the MN rule.  A hook moves one bead b down to
    an empty place c = b - h, highest bead first; its height is the number
    of beads strictly between c and b, and its sign is (-1)^height.  When
    c = 0, the beads left at 0, 1, ... are rows of length 0 and are
    shifted out, so every result is canonical again.

    >>> _beta_mask((2, 2)), _beta_mask((1, 1)), _beta_mask((2,))
    (12, 6, 4)
    >>> _rim_hooks(12, 2)
    [(-1, 6), (1, 4)]
    """
    between = (1 << (h - 1)) - 1
    move = (1 << h) | 1
    ends = (beta & ~(beta << h)) >> h  # c = b - h for each bead b whose place c is empty
    out = []
    while ends:
        c = ends.bit_length() - 1
        ends ^= 1 << c
        smaller = beta ^ (move << c)
        if c == 0:
            smaller >>= (smaller ^ (smaller + 1)).bit_length() - 1
        out.append((-1 if ((beta >> (c + 1)) & between).bit_count() & 1 else 1, smaller))
    return out


def _mask_degree(beta: int) -> int:
    """The degree f^lam of the shape lam of mask beta, by Frobenius' formula on its beads.

    With beads b_1 < ... < b_k, n = sum(b) - k(k-1)/2 and
    f = n! * prod over i < j of (b_j - b_i) / prod of b_i!.  It is kept
    apart from partitions._dimension, the hook-length product cell by
    cell, so that criterion 3's check of each vector's sum against
    _dimension compares two independent formulas.

    >>> _mask_degree(_beta_mask((3, 2))), _mask_degree(_beta_mask((2, 1, 1))), _mask_degree(0)
    (5, 3, 1)
    """
    beads = [b for b in range(beta.bit_length()) if beta >> b & 1]
    k = len(beads)
    num, den = math.factorial(sum(beads) - k * (k - 1) // 2), 1
    for j, b in enumerate(beads):
        den *= math.factorial(b)
        for a in beads[:j]:
            num *= b - a
    f, r = divmod(num, den)
    if r:
        raise InternalCheckError(f"Frobenius' degree formula is not integral at mask {beta}")
    return f


@cache
def _mn(beta: int, mu: Partition) -> int:
    """chi^lam(mu) for the shape lam of mask beta, memoized by (mask, suffix of mu).

    An all-ones suffix is a leaf: chi^lam(1^k) is the degree, which
    _mask_degree reads off the beads instead of walking every subshape.
    """
    if not mu:
        return 1
    if mu[0] == 1:
        return _mask_degree(beta)
    rest = mu[1:]  # one suffix tuple, shared by every child's memo key
    total = 0
    for sign, smaller in _rim_hooks(beta, mu[0]):
        total += sign * _mn(smaller, rest)
    return total


def _sn_values(lam: Partition, types: list[Partition]) -> list[int]:
    """chi^lam at each cycle type in types, through _mn; lam and types are trusted."""
    beta = _beta_mask(lam)
    return [_mn(beta, mu) for mu in types]


@cache
def _row_index(n: int) -> tuple[dict[int, int], tuple[int, ...]]:
    """The row in partitions(n) of each shape of size n, by mask; and twin, each row's transpose row.

    Rows run in descending lexicographic order, so lam >= lam' exactly when
    r <= twin[r].  twin is checked once: an involution fixing the phi images
    of the distinct-odd types, so with (p(n) + #fixed)/2 rows r <= twin[r].
    """
    plist = partitions(n)
    index = {_beta_mask(lam): i for i, lam in enumerate(plist)}
    twin = tuple(index[_transpose_mask(beta)] for beta in index)
    fixed = {r for r, t in enumerate(twin) if r == t}
    selfconj = {index[_beta_mask(_phi(mu))] for mu in plist if _distinct_odd(mu)}
    kept = sum(r <= t for r, t in enumerate(twin))
    if any(twin[t] != r for r, t in enumerate(twin)) or fixed != selfconj or 2 * kept != len(plist) + len(fixed):
        raise InternalCheckError(f"the transpose map of size {n} fails its check")
    return index, twin


@cache
def _rim_table(n: int, h: int) -> tuple[tuple[int, int, tuple[int, ...], tuple[int, ...]], ...]:
    """For each row r of partitions(n) with lam >= lam': (r, twin[r], plus, minus).

    plus and minus hold the rows in partitions(n - h) of lam's h-rim hooks
    of sign +1 and -1, split once, here.  It walks the masks of
    _row_index(n), which are in partitions(n) order, and finds each smaller
    shape's row by its mask in _row_index(n - h).  The memo holds one such
    tuple per (n, h); the _row_index memo holds one mask-to-row dict and one
    transpose map per size.  At n = 4, h = 2 the self-conjugate row (2, 2)
    loses a horizontal domino with sign +1, leaving (2,), and a vertical
    one with sign -1, leaving (1, 1):

    >>> partitions(4)[2], partitions(2)
    ((2, 2), ((2,), (1, 1)))
    >>> _rim_table(4, 2)
    ((0, 4, (0,), ()), (1, 3, (1,), ()), (2, 2, (0,), (1,)))
    """
    (index, twin), below = _row_index(n), _row_index(n - h)[0]
    out = []
    for r, (beta, t) in enumerate(zip(index, twin)):
        if r <= t:
            plus, minus = [], []
            for sign, smaller in _rim_hooks(beta, h):
                (plus if sign > 0 else minus).append(below[smaller])
            out.append((r, t, tuple(plus), tuple(minus)))
    return tuple(out)


_COLUMNS: dict[Partition, tuple[int, ...]] = {(): (1,)}  # cycle type -> column, filled by _fill_columns


def _fill_columns(types) -> None:
    """Put the column of each cycle type in types into _COLUMNS, one rim-table pass per group.

    A column is the values chi^lam(mu) for every lam in partitions(sum(mu)),
    in that order.  The suffixes mu[1:] of the missing types are filled
    first, recursively.  The missing types are then grouped by (n, h, parity)
    with h = mu[0] and parity that of n - len(mu): a group shares one rim
    table and one sign sgn(mu) = (-1)^(n - len(mu)).  Its below-columns are
    transposed into rows, one value per type, so each kept row of the table
    is one sum over the whole group: the plus rows added and the minus rows
    subtracted by map, and a single-hook row taken as it is.  The row of
    lam' is that times sgn(mu); a self-conjugate row of an odd group is 0.
    """
    missing = [mu for mu in dict.fromkeys(types) if mu not in _COLUMNS]
    if not missing:
        return
    _fill_columns([mu[1:] for mu in missing])
    groups: dict[tuple[int, int, int], list[Partition]] = {}
    for mu in missing:
        n = sum(mu)
        groups.setdefault((n, mu[0], (n - len(mu)) & 1), []).append(mu)
    for (n, h, odd), group in groups.items():
        below = list(zip(*[_COLUMNS[mu[1:]] for mu in group]))
        rows = [(0,) * len(group)] * len(_row_index(n)[1])
        for r, t, plus, minus in _rim_table(n, h):
            if (odd and r == t) or not (plus or minus):
                continue
            if plus:
                row = below[plus[0]]
                for i in plus[1:]:
                    row = map(add, row, below[i])
            else:
                row, minus = map(neg, below[minus[0]]), minus[1:]
            for i in minus:
                row = map(sub, row, below[i])
            row = tuple(row)  # a single plus hook keeps its below row as it is
            rows[r] = row
            if t != r:
                rows[t] = tuple(map(neg, row)) if odd else row
        for mu, col in zip(group, zip(*rows)):
            _COLUMNS[mu] = col


def mn_character(lam: Partition, mu: Partition) -> int:
    """Symmetric-group character value of shape lam at cycle type mu.

    >>> mn_character((2, 2), (3, 1))
    -1
    """
    lam = check_partition(lam)
    mu = check_partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError(f"sizes differ: |{format_partition(lam)}| != |{format_partition(mu)}|")
    return _mn(_beta_mask(lam), mu)


# ---------------------------------------------------------------------------
# labels for alternating-group classes and irreducibles


def in_alternating(mu: Partition) -> bool:
    """True when permutations of cycle type mu are even."""
    return sum(1 for p in mu if p % 2 == 0) % 2 == 0


def class_splits(mu: Partition) -> bool:
    """True when the symmetric-group class of type mu splits in two."""
    return sum(mu) >= 2 and _distinct_odd(mu)


def irrep_splits(lam: Partition) -> bool:
    """True when the restriction of shape lam splits in two."""
    return _transpose_and_split(lam)[1]


def _transpose_and_split(lam: Partition) -> tuple[Partition, bool]:
    """The transpose of lam, and whether lam splits, from one transpose."""
    lamc = _conjugate(lam)
    return lamc, sum(lam) >= 2 and lam == lamc


def parse_label(label: str) -> tuple[Partition, str]:
    """Split a label like "3,3,2:+" into its partition and its split tag.

    The tag is "+" or "-" after a colon, or "" when the label has none;
    the partition part is read by parse_partition, so "" is the empty
    partition.  Whether the tag fits the shape or type is left to AnIrrep
    and AnClass.

    >>> parse_label("3,3,2:+")
    ((3, 3, 2), '+')
    >>> parse_label("5,3")
    ((5, 3), '')
    """
    body, sep, tag = label.partition(":")
    mu = parse_partition(body)
    if not sep:
        return mu, TAG_NONE
    if tag not in (TAG_PLUS, TAG_MINUS):
        raise ValueError(f"bad split tag in {label!r}; expected ':+' or ':-'")
    return mu, tag


@dataclass(frozen=True)
class AnClass:
    """Conjugacy class of an alternating group: cycle type plus split tag.

    The tag is "+"/"-" exactly when the class splits, else "".  The plus
    class is the one containing standard_rep(mu).
    """

    mu: Partition
    tag: str = TAG_NONE

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu", check_partition(self.mu))
        if not in_alternating(self.mu):
            raise ValueError(f"cycle type {format_partition(self.mu)} is odd, not an alternating class")
        if class_splits(self.mu):
            if self.tag not in (TAG_PLUS, TAG_MINUS):
                raise ValueError(f"class {format_partition(self.mu)} splits; a ':+' or ':-' tag is required")
        elif self.tag != TAG_NONE:
            raise ValueError(f"class {format_partition(self.mu)} does not split; no tag allowed")

    @property
    def n(self) -> int:
        return sum(self.mu)

    def size(self) -> int:
        full = sn_class_size(self.mu)
        return full // 2 if self.tag else full

    def label(self) -> str:
        return format_partition(self.mu) + (f":{self.tag}" if self.tag else "")


@dataclass(frozen=True)
class AnIrrep:
    """Irreducible of an alternating group.

    A whole (unsplit) irreducible is stored by the lexicographically larger
    of the shape and its transpose; split halves carry a "+" or "-" tag and
    a self-conjugate shape.
    """

    lam: Partition
    tag: str = TAG_NONE

    def __post_init__(self) -> None:
        lam = check_partition(self.lam)
        lamc, splits = _transpose_and_split(lam)
        if self.tag == TAG_NONE:
            object.__setattr__(self, "lam", max(lam, lamc))
            if splits:
                raise ValueError(f"shape {format_partition(lam)} is self-conjugate; a ':+' or ':-' tag is required")
        elif self.tag in (TAG_PLUS, TAG_MINUS):
            object.__setattr__(self, "lam", lam)
            if not splits:
                raise ValueError(f"shape {format_partition(lam)} does not split; no tag allowed")
        else:
            raise ValueError(f"bad tag {self.tag!r}")

    @property
    def n(self) -> int:
        return sum(self.lam)

    def dim(self) -> int:
        d = _dimension(self.lam)
        if self.tag:
            if d % 2:
                raise InternalCheckError(f"split shape {format_partition(self.lam)} has odd dimension {d}")
            return d // 2
        return d

    def label(self) -> str:
        return format_partition(self.lam) + (f":{self.tag}" if self.tag else "")


def _trusted(label_class, shape: Partition, tag: str = TAG_NONE):
    """label_class(shape, tag) with its two fields set as given, not checked by __post_init__.

    For shapes from partitions(n) with tags read off _row_index or
    class_splits, which are canonical by construction; a label from a user
    goes through the checking constructor.
    """
    label = object.__new__(label_class)
    label.__dict__.update(zip(label_class.__dataclass_fields__, (shape, tag)))
    return label


@cache
def an_classes(n: int) -> tuple[AnClass, ...]:
    """Conjugacy classes of the alternating group on n points.

    The memo holds one shared tuple of frozen labels per n asked, built
    unchecked from the even types of partitions(n), two tagged labels for a
    type that class_splits.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    out = []
    for mu in partitions(n):
        if not in_alternating(mu):
            continue
        if class_splits(mu):
            out.append(_trusted(AnClass, mu, TAG_PLUS))
            out.append(_trusted(AnClass, mu, TAG_MINUS))
        else:
            out.append(_trusted(AnClass, mu))
    return tuple(out)


@cache
def _irrep_index(n: int) -> tuple[tuple[AnIrrep, ...], tuple[int, ...]]:
    """The irreducibles of A_n, trivial first, and the row in partitions(n) of each one's shape.

    Shapes come in partitions(n) order with their transpose rows from
    _row_index: row r is kept when r <= twin[r] (lam >= lam'), and splits
    into a plus and a minus half when r == twin[r] and n >= 2.  The labels
    are built unchecked from those trusted shapes and tags.
    """
    twin = _row_index(n)[1]
    reps, rows = [], []
    for r, lam in enumerate(partitions(n)):
        if r == twin[r] and n >= 2:
            reps += [_trusted(AnIrrep, lam, TAG_PLUS), _trusted(AnIrrep, lam, TAG_MINUS)]
            rows += [r, r]
        elif r <= twin[r]:
            reps.append(_trusted(AnIrrep, lam))
            rows.append(r)
    return tuple(reps), tuple(rows)


def an_irreps(n: int) -> tuple[AnIrrep, ...]:
    """Irreducibles of the alternating group on n points, trivial first.

    One shared tuple of frozen labels per n, from the _irrep_index memo.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    return _irrep_index(n)[0]


# ---------------------------------------------------------------------------
# exact character values


@dataclass(frozen=True)
class QuadValue:
    """Exact value (a + b*sqrt(D))/2 with D a squarefree signed integer.

    D == 0 exactly when b == 0; negative D means b*i*sqrt(|D|).
    """

    a: int
    b: int
    D: int

    def __post_init__(self) -> None:
        if self.D == 1:  # perfect-square radicand: fold into the rational part
            object.__setattr__(self, "a", self.a + self.b)
            object.__setattr__(self, "b", 0)
        if self.b == 0:
            object.__setattr__(self, "D", 0)
        elif self.D == 0:
            raise ValueError("a nonzero radical part needs a discriminant")

    @staticmethod
    def whole(k: int) -> "QuadValue":
        return QuadValue(2 * k, 0, 0)

    @staticmethod
    def half(k: int) -> "QuadValue":
        return QuadValue(k, 0, 0)

    def is_rational(self) -> bool:
        return self.b == 0

    def json_dict(self) -> dict:
        return {"a": self.a, "b": self.b, "D": self.D}

    def __str__(self) -> str:
        if self.is_rational():
            return str(self.a // 2) if self.a % 2 == 0 else f"{self.a}/2"
        root = f"sqrt({self.D})" if abs(self.b) == 1 else f"{abs(self.b)}*sqrt({self.D})"
        sign = "-" if self.b < 0 else ("+" if self.a else "")
        lead = str(self.a) if self.a else ""
        body = f"{lead}{sign}{root}"
        return f"({body})/2" if self.a else f"{body}/2"


def _an_value(rep: AnIrrep, cls: AnClass, value: int,
              half: Callable[[int], QuadValue] = QuadValue.half) -> QuadValue:
    """The value of rep at cls, given value, the S_n value of rep.lam at cls.mu.

    On a whole irreducible it is value itself.  A split half takes
    (eps +- sqrt(eps*M))/2 on the two classes of its own hook type (plus
    sign when the tags agree), and value/2, as half(value), everywhere
    else; a caller may pass a half that hands out shared QuadValues.  Both
    constants come from the parts of the split type: eps from _epsilon,
    and M, the part product, as root**2 * core from _squarefree_split.
    """
    if rep.tag == TAG_NONE:
        return QuadValue.whole(value)
    if cls.tag and _phi(cls.mu) == rep.lam:
        eps = _epsilon(cls.mu)
        root, core = _squarefree_split(math.prod(cls.mu))
        b = root if rep.tag == cls.tag else -root
        return QuadValue(eps, b, eps * core)
    return half(value)


def _irrep_rows(n: int, types: list[Partition]) -> list[tuple[AnIrrep, tuple[int, ...]]]:
    """Each irreducible of A_n with its S_n row: chi^lam at each type in types, in that order.

    One _fill_columns call builds every column, one transpose turns them
    into rows by shape, and _irrep_index gives the row of each
    irreducible's shape; the two halves of a split shape share its row.
    """
    _fill_columns(types)
    rows = list(zip(*[_COLUMNS[mu] for mu in types]))
    reps, index = _irrep_index(n)
    return [(rep, rows[r]) for rep, r in zip(reps, index)]


@dataclass(frozen=True)
class CharacterTable:
    """Full character table of an alternating group, exact values.

    The values are immutable QuadValues; equal cells may be one object.
    """

    n: int
    irreps: tuple[AnIrrep, ...]
    classes: tuple[AnClass, ...]
    values: tuple[tuple[QuadValue, ...], ...]

    def group_order(self) -> int:
        return max(math.factorial(self.n) // 2, 1)

    def json_dict(self) -> dict:
        return {
            "n": self.n,
            "irreps": [r.label() for r in self.irreps],
            "dims": [r.dim() for r in self.irreps],
            "classes": [c.label() for c in self.classes],
            "sizes": [c.size() for c in self.classes],
            "values": [[v.json_dict() for v in row] for row in self.values],
        }


TABLE_BOUND = 14


def character_table_an(n: int, bound: int = TABLE_BOUND) -> CharacterTable:
    """The character table of the alternating group on n points, n <= bound.

    Each irreducible's cells are read from its S_n row over the classes'
    cycle types, from _irrep_rows.  Its one _fill_columns call builds the
    columns of all the classes from the columns of their suffixes by
    the MN rule, one rim-table pass per (n, mu[0], parity) group, summing
    one row per transpose pair.  Whole rows share one QuadValue per
    distinct S_n value, and split rows one QuadValue.half per value, from
    memos that live for this call; split rows go through _an_value.
    Four unbounded memos back it, as one does _mn, whose keys are
    (beta-set mask, suffix of mu) pairs: the _COLUMNS dict, filled per
    group, holds one tuple per type asked and per suffix of one,
    _rim_table one tuple of kept rows with their transpose rows and plus
    and minus hook rows per (n, h) it met, _row_index one dict from
    beta-set mask to row and one transpose map per size, and _irrep_index
    one tuple of irreducible labels and one of their rows per size, as
    many as A_n has classes (200 at n = 18, 860 over every n up to 18).
    The tables for every n up to 18 leave 981 columns and 162 rim tables;
    those at n = 1, 2, 3, 5 and 11 to 18 leave 979 and 161.
    The column and row memos are shared with _induced_trivial, and
    neither calls _mn.
    """
    if n > bound:
        raise ValueError(f"n={n} exceeds the table bound {bound}; raise it explicitly if intended")
    reps = an_irreps(n)
    classes = an_classes(n)
    if len(reps) != len(classes):
        raise InternalCheckError(f"A_{n} has {len(reps)} irreducibles but {len(classes)} classes")
    whole, half = cache(QuadValue.whole), cache(QuadValue.half)
    values = tuple(
        tuple(_an_value(r, c, v, half) for c, v in zip(classes, row))
        if r.tag
        else tuple(map(whole, row))
        for r, row in _irrep_rows(n, [c.mu for c in classes])
    )
    return CharacterTable(n, reps, classes, values)


def _induced_trivial(n: int, tally: dict[tuple[Partition, str], int]) -> dict[AnIrrep, int]:
    """Multiplicity of each irreducible of A_n in the trivial character of H induced up to A_n.

    H is given by its tally: how many of its elements lie in each class,
    keyed by (cycle type, tag).  By Frobenius reciprocity the multiplicity
    of chi is (1/|H|) * sum over H of chi.  Each S_n row is summed whole,
    count * value, in integers.  A split half differs from half that sum
    only on its own hook type's split classes, so it reads the split-class
    cells through _an_value and corrects the sum there; they are of one
    type, so the radical parts share one D.
    """
    counts = list(tally.values())
    size = sum(counts)
    split = [(j, AnClass(t, tag), count) for j, ((t, tag), count) in enumerate(tally.items()) if tag]
    out = {}
    for rep, row in _irrep_rows(n, [t for t, _ in tally]):
        total = sum(map(mul, counts, row))
        if rep.tag != TAG_NONE:
            radical = 0
            for j, cls, count in split:
                v = _an_value(rep, cls, row[j])
                total += count * (v.a - row[j])
                radical += count * v.b
            if radical != 0:
                raise InternalCheckError(f"radical parts did not cancel for {rep.label()}: {radical}")
            num, rem = divmod(total, 2)
            if rem != 0:
                raise InternalCheckError(f"odd character sum {total} for split {rep.label()}")
            total = num
        value, rem = divmod(total, size)
        if rem != 0 or value < 0:
            raise InternalCheckError(f"inner product not a non-negative integer: {total}/{size}")
        out[rep] = value
    return out
