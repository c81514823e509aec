"""Every partition-taking name that altchar exports checks its partitions.

The modules below the package take canonical tuples on trust, so these
entry points are the only guard against a malformed partition.
"""

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
    "cycle_type_data": altchar.cycle_type_data,
    "mn_character(lam)": lambda mu: altchar.mn_character(mu, (2,)),
    "mn_character(mu)": lambda mu: altchar.mn_character((2,), mu),
    "sn_multiplicity_vector(lam)": lambda mu: altchar.sn_multiplicity_vector(mu, (2,)),
    "sn_multiplicity_vector(mu)": lambda mu: altchar.sn_multiplicity_vector((2,), mu),
    "sn_multiplicity_oracle(lam)": lambda mu: altchar.sn_multiplicity_oracle(mu, (2,), 1),
    "sn_multiplicity_oracle(mu)": lambda mu: altchar.sn_multiplicity_oracle((2,), mu, 1),
    "bias_vector": altchar.bias_vector,
    "bias_oracle": lambda mu: altchar.bias_oracle(mu, 1),
    "power_conjugacy": lambda mu: altchar.power_conjugacy(mu, 1),
    "has_invariant_sn(lam)": lambda mu: altchar.has_invariant_sn(mu, (2,)),
    "has_invariant_sn(mu)": lambda mu: altchar.has_invariant_sn((2,), mu),
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
