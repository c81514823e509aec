"""Exact eigenvalue multiplicities and class classifiers for alternating groups."""

from .partitions import (
    Partition,
    check_partition,
    conjugate,
    dimension,
    format_partition,
    has_distinct_odd_parts,
    parse_partition,
    phi,
)
from .characters import (
    AnClass,
    AnIrrep,
    CharacterTable,
    QuadValue,
    an_classes,
    an_irreps,
    character_table_an,
    mn_character,
)
from .multiplicity import (
    BiasResult,
    MultiplicityVector,
    an_multiplicity_vector,
    bias_vector,
    power_conjugacy,
    sn_multiplicity_vector,
)
from .classify import (
    invariant_failure_an,
    invariant_failure_sn,
    n_cycle_gaps,
    unisingular_an,
    unisingular_sn,
)
from .global_classes import (
    GlobalVerdict,
    global_brute_force,
    is_global_class,
)
from .acceptance import CriterionResult, bias_failure, run_criteria, run_criterion, sn_multiplicity_failure

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
