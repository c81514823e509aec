"""Permutations of {0, ..., n-1} in one-line word form.

A permutation is a tuple ``w`` where ``w[x]`` is the image of ``x``, so
the helpers below stay tuple-in, tuple-out and need no classes.

Three production paths use explicit permutations: the explicit centralizer
route of global_classes (only cycles, of each factor's elements),
acceptance.sn_multiplicity_failure (the cycle type of each power w**(m/e)),
and acceptance criteria 6 and 7, which tag by conjugator parity.
"""

from __future__ import annotations

from .partitions import Partition

Perm = tuple[int, ...]


def check_perm(images) -> Perm:
    w = tuple(images)
    if sorted(w) != list(range(len(w))):
        raise ValueError(f"not a permutation word: {w!r}")
    return w


def cycles(a: Perm) -> list[tuple[int, ...]]:
    """Cycle decomposition including fixed points.

    Each cycle starts at its smallest element and follows the orbit; cycles
    are listed by increasing starting element.

    >>> cycles((1, 2, 0, 4, 3))
    [(0, 1, 2), (3, 4)]
    """
    seen = [False] * len(a)
    out = []
    for start in range(len(a)):
        if seen[start]:
            continue
        orbit = [start]
        seen[start] = True
        x = a[start]
        while x != start:
            orbit.append(x)
            seen[x] = True
            x = a[x]
        out.append(tuple(orbit))
    return out


def cycle_type(a: Perm) -> Partition:
    return tuple(sorted((len(c) for c in cycles(a)), reverse=True))


def sign(a: Perm) -> int:
    return -1 if (len(a) - len(cycles(a))) % 2 else 1


def standard_rep(mu: Partition) -> Perm:
    """Representative of cycle type mu with cycles laid out consecutively.

    >>> standard_rep((3, 2))
    (1, 2, 0, 4, 3)
    """
    images = list(range(sum(mu)))
    start = 0
    for part in mu:
        for off in range(part):
            images[start + off] = start + (off + 1) % part
        start += part
    return tuple(images)


def perm_power(a: Perm, k: int) -> Perm:
    """k-th power (k may be negative) computed by jumping along cycles."""
    n = len(a)
    images = [0] * n
    for orbit in cycles(a):
        size = len(orbit)
        shift = k % size
        for t, x in enumerate(orbit):
            images[x] = orbit[(t + shift) % size]
    return tuple(images)


def conjugator(a: Perm, b: Perm) -> Perm | None:
    """Some rho with rho a rho^-1 == b, or None if the cycle types differ.

    The choice is canonical: cycles of equal length are matched in the
    order produced by :func:`cycles` and aligned entry by entry.
    """
    if len(a) != len(b):
        raise ValueError("size mismatch")
    if cycle_type(a) != cycle_type(b):
        return None
    by_len_a: dict[int, list[tuple[int, ...]]] = {}
    by_len_b: dict[int, list[tuple[int, ...]]] = {}
    for c in cycles(a):
        by_len_a.setdefault(len(c), []).append(c)
    for c in cycles(b):
        by_len_b.setdefault(len(c), []).append(c)
    rho = [0] * len(a)
    for size, group in by_len_a.items():
        for ca, cb in zip(group, by_len_b[size]):
            for x, y in zip(ca, cb):
                rho[x] = y
    return check_perm(rho)
