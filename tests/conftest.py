"""Shared hypothesis strategies drawn from the exact partition enumerator,
and test-only helpers that more than one test module uses."""

import cmath
import math
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import strategies as st

import altchar
from altchar import characters
from altchar.characters import _an_value, _fill_columns, mn_character
from altchar.partitions import conjugate, has_distinct_odd_parts, partitions


def partition_pool(max_n: int, min_n: int = 1, pred=None) -> list:
    out = []
    for n in range(min_n, max_n + 1):
        out.extend(p for p in partitions(n) if pred is None or pred(p))
    return out


small_partitions = st.sampled_from(partition_pool(12))
mid_partitions = st.sampled_from(partition_pool(18))
distinct_odd_types = st.sampled_from(partition_pool(17, pred=has_distinct_odd_parts))
self_conjugate_shapes = st.sampled_from(partition_pool(17, pred=lambda lam: lam == conjugate(lam)))


@st.composite
def shape_type_pairs(draw, max_n: int = 9):
    """A shape and a cycle type of the same weight."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pool = partitions(n)
    return draw(st.sampled_from(pool)), draw(st.sampled_from(pool))


@st.composite
def small_perms(draw, max_n: int = 8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    return tuple(draw(st.permutations(range(n))))


def identity(n: int) -> tuple[int, ...]:
    """The identity permutation word on n points."""
    return tuple(range(n))


def compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The permutation word applying b first, then a."""
    if len(a) != len(b):
        raise ValueError("size mismatch")
    return tuple(a[x] for x in b)


def inverse(a: tuple[int, ...]) -> tuple[int, ...]:
    """The inverse permutation word of a."""
    inv = [0] * len(a)
    for x, y in enumerate(a):
        inv[y] = x
    return tuple(inv)


def an_character(rep, cls):
    """The A_n character value of rep at cls, one entry through _mn.

    The per-entry oracle for the column engines: it feeds _an_value the
    S_n value from the MN recursion instead of a column.
    """
    if rep.n != cls.n:
        raise ValueError("size mismatch between irreducible and class")
    return _an_value(rep, cls, mn_character(rep.lam, cls.mu))


def column(mu) -> tuple:
    """chi^lam(mu) for every lam in partitions(sum(mu)), in that order: mu filled as a group of one.

    It reads characters._COLUMNS at call time, so a test that swaps in an
    empty memo sees the fill start from there.
    """
    _fill_columns((mu,))
    return characters._COLUMNS[mu]


def suffix_closure(types) -> set:
    """Every suffix mu[i:] of every type in types, () included: the columns a fill of types leaves."""
    out = {()}
    for mu in types:
        out.update(mu[i:] for i in range(len(mu)))
    return out


def quad_complex(v) -> complex:
    """The complex number (a + b*sqrt(D))/2 that a QuadValue v stands for.

    The library holds no float view of its values; tests that rebuild a
    character numerically take it from here, with sqrt(D) = i*sqrt(|D|)
    for D < 0 (the principal branch of cmath.sqrt).
    """
    return (v.a + v.b * cmath.sqrt(v.D)) / 2


def multiplication_perm(i: int, modulus: int) -> tuple[int, ...]:
    """The permutation x -> i*x mod modulus on {0, ..., modulus-1}."""
    if math.gcd(i, modulus) != 1:
        raise ValueError("i must be a unit modulo the modulus")
    return tuple((i * x) % modulus for x in range(modulus))


def run_with_closed_stdout(args: list[str]) -> tuple[int, str]:
    """Run python with args, its stdout a pipe whose read end is already closed.

    Returns the exit code and stderr.  The parent closes the read end as
    soon as the child starts, long before the child has imported anything.
    """
    src = str(Path(altchar.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return proc.wait(timeout=300), err
