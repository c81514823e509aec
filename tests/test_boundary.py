"""Every partition-taking name that altchar exports checks its partitions,
and checks each one once.

The modules below the package take canonical tuples on trust, so these
entry points are the only guard against a malformed partition.
"""

import sys

import pytest

import altchar
from altchar.partitions import InvalidPartitionError

BAD = [(1, 3), (2, 0), (2.0,), (True,)]

ENTRY_POINTS = {
    "check_partition": altchar.check_partition,
    "conjugate": altchar.conjugate,
    "has_distinct_odd_parts": altchar.has_distinct_odd_parts,
    "phi": altchar.phi,
    "dimension": altchar.dimension,
    "mn_character(lam)": lambda mu: altchar.mn_character(mu, (2,)),
    "mn_character(mu)": lambda mu: altchar.mn_character((2,), mu),
    "sn_multiplicity_vector(lam)": lambda mu: altchar.sn_multiplicity_vector(mu, (2,)),
    "sn_multiplicity_vector(mu)": lambda mu: altchar.sn_multiplicity_vector((2,), mu),
    "sn_multiplicity_failure(lam)": lambda mu: altchar.sn_multiplicity_failure(mu, (2,), [1, 0]),
    "sn_multiplicity_failure(mu)": lambda mu: altchar.sn_multiplicity_failure((2,), mu, [1, 0]),
    "bias_vector": altchar.bias_vector,
    "bias_failure": lambda mu: altchar.bias_failure(mu, [1]),
    "power_conjugacy": lambda mu: altchar.power_conjugacy(mu, 1),
    "invariant_failure_sn(lam)": lambda mu: altchar.invariant_failure_sn(mu, (2,)),
    "invariant_failure_sn(mu)": lambda mu: altchar.invariant_failure_sn((2,), mu),
    "unisingular_sn": altchar.unisingular_sn,
    "is_global_class": altchar.is_global_class,
    "global_brute_force": altchar.global_brute_force,
    "AnIrrep": altchar.AnIrrep,
    "AnIrrep(tagged)": lambda mu: altchar.AnIrrep(mu, "+"),
    "AnClass": altchar.AnClass,
    "AnClass(tagged)": lambda mu: altchar.AnClass(mu, "+"),
}


@pytest.mark.parametrize("bad", BAD, ids=repr)
@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_exported_entry_points_reject_malformed_partitions(name, bad):
    with pytest.raises(InvalidPartitionError):
        ENTRY_POINTS[name](bad)


def test_dimension_checks_before_its_memo():
    """(True,) and (2.0,) hash like (1,) and (2,), so a memo hit must not skip the check."""
    assert altchar.dimension((1,)) == altchar.dimension((2,)) == 1
    for bad in [(True,), (2.0,)]:
        with pytest.raises(InvalidPartitionError):
            altchar.dimension(bad)


@pytest.fixture
def checks(monkeypatch):
    """Count check_partition calls through every altchar module that binds it."""
    real = altchar.partitions.check_partition
    count = [0]

    def counted(parts):
        count[0] += 1
        return real(parts)

    for name, module in list(sys.modules.items()):
        if (name == "altchar" or name.startswith("altchar.")) and getattr(module, "check_partition", None) is real:
            monkeypatch.setattr(module, "check_partition", counted)
    return count


@pytest.mark.parametrize("n", range(1, 13))
def test_a_table_makes_no_partition_check(checks, n):
    """Its labels are built from the trusted shapes of partitions(n), not by their checking constructors."""
    altchar.characters._irrep_index.cache_clear()
    altchar.an_classes.cache_clear()
    altchar.character_table_an(n)
    assert checks[0] == 0


ONE_PARTITION = {  # name: (partitions taken, call)
    "bias_vector": (1, lambda: altchar.bias_vector((15, 9, 3))),
    "bias_failure": (1, lambda: altchar.bias_failure((5, 3), [0] * 15)),
    "sn_multiplicity_failure": (2, lambda: altchar.sn_multiplicity_failure((3, 2, 1), (3, 2, 1), [2, 3, 3, 2, 3, 3])),
    "power_conjugacy": (1, lambda: altchar.power_conjugacy((15, 9, 3), 2)),
    "phi": (1, lambda: altchar.phi((5, 3))),
    "has_distinct_odd_parts": (1, lambda: altchar.has_distinct_odd_parts((5, 3))),
    "dimension": (1, lambda: altchar.dimension((4, 2, 1))),
    "AnIrrep": (1, lambda: altchar.AnIrrep((4, 2, 1)).dim()),
    "AnIrrep(tagged)": (1, lambda: altchar.AnIrrep((3, 3, 2), "+").dim()),
    "AnClass": (1, lambda: altchar.AnClass((3, 1, 1)).size()),
    "AnClass(tagged)": (1, lambda: altchar.AnClass((5, 3), "+").size()),
}


@pytest.mark.parametrize("name", ONE_PARTITION)
def test_an_entry_point_checks_its_partition_once(checks, name):
    taken, call = ONE_PARTITION[name]
    call()
    assert checks[0] == taken
