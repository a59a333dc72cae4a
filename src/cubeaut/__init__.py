"""Finite groups, automorphisms that cube many elements, and
solution-free subsets of cyclic groups."""

from .groups import (
    FiniteGroup,
    Subgroup,
    from_cayley_table,
    from_permutation_generators,
    group_to_json,
    load_group_file,
    max_abelian_subgroup_order,
)
from .builders import (
    alternating,
    cyclic,
    dihedral,
    direct_product,
    pgl2,
    psl2,
    quaternion8,
    semidirect_product,
    symmetric,
    type3_group_i,
    type3_group_ii,
)
from .automorphisms import (
    AutomorphismGroup,
    GroupMap,
    automorphism_group,
    compose,
    enumerate_automorphisms,
    identity_map,
    induced_on_quotient,
    inner_automorphism,
    invert,
    is_n_abelian,
    power_map,
    restrict,
)
from .cubing import (
    ClassificationVerdict,
    CosetTrace,
    CubeReport,
    Kind,
    Type3Decomposition,
    build_type_I,
    build_type_II,
    build_type_III,
    classify_cubing_structure,
    coset_trace,
    cube_set,
    find_type3_decomposition,
    max_cube_ratio,
)
from .sfs import (
    LinearEquation,
    SfsInstance,
    SfsResult,
    canonical_form,
    enumerate_extremal,
    find_nontrivial_solution,
    is_avoiding,
    max_free_subset,
    reproduce_table,
    verify_tau_bound,
)
from .catalog import Catalog, build_named_group, built_in_catalog
from .verifier import (
    check_property,
    check_quotient_inequality,
    power_pattern_search,
    verify_properties,
    verify_solvability_boundary,
    verify_abelian_indices,
    verify_classification,
)

__all__ = [
    "FiniteGroup", "Subgroup", "from_cayley_table",
    "from_permutation_generators", "group_to_json", "load_group_file",
    "max_abelian_subgroup_order",
    "alternating", "cyclic", "dihedral", "direct_product", "pgl2", "psl2",
    "quaternion8", "semidirect_product", "symmetric", "type3_group_i",
    "type3_group_ii",
    "AutomorphismGroup", "GroupMap", "automorphism_group", "compose",
    "enumerate_automorphisms", "identity_map", "induced_on_quotient",
    "inner_automorphism", "invert", "is_n_abelian", "power_map", "restrict",
    "ClassificationVerdict", "CosetTrace", "CubeReport", "Kind",
    "Type3Decomposition", "build_type_I", "build_type_II", "build_type_III",
    "classify_cubing_structure", "coset_trace", "cube_set",
    "find_type3_decomposition", "max_cube_ratio",
    "LinearEquation", "SfsInstance", "SfsResult", "canonical_form",
    "enumerate_extremal", "find_nontrivial_solution", "is_avoiding",
    "max_free_subset", "reproduce_table", "verify_tau_bound",
    "Catalog", "build_named_group", "built_in_catalog",
    "check_property", "check_quotient_inequality", "power_pattern_search",
    "verify_properties", "verify_solvability_boundary", "verify_abelian_indices",
    "verify_classification",
]
