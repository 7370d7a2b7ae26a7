"""Exact symbolic verification and construction for Nijenhuis Lie conformal algebras."""

from .poly import Poly
from .grammar import format_poly, parse_poly
from .lca import (
    LCA,
    ConfLinMap,
    Elem,
    FreeModule,
    RepTable,
    StructureTable,
    check_lca,
    check_morphism,
    check_representation,
    eval_bracket,
    semidirect,
)
from .nijenhuis import (
    NijenhuisLCA,
    NijenhuisRep,
    check_nij_representation,
    check_nijenhuis,
    deformed_table,
    nij_semidirect,
    power_compatibility_suite,
)
from .cohomology import (
    Cochain,
    CochainPair,
    adjoint_rep,
    apply_dN,
    apply_dNL,
    apply_dNM,
    apply_delta,
    check_cochain_skew,
    cup_product,
    eval_cochain,
    fn_bracket,
    fn_bracket_of_maps,
    image_contains,
    nr_bracket,
    random_cochain,
    skew_symmetrize,
    solve_truncated,
    xi_map,
)
from .deformation import (
    DeformationSeries,
    check_order,
    infinitesimal_cocycle,
    obstruction,
    operator_coboundary,
    verify_equivalence_order1,
)
from .homotopy import (
    CrossedModule,
    HomotopyNijenhuis,
    TwoTermConformal,
    check_2term,
    check_crossed_module,
    check_homomorphism,
    check_homotopy_nijenhuis,
    classify,
    crossed_direct_sum,
    crossed_to_strict,
    skeletal_to_cocycle,
    strict_crossed_roundtrip,
    strict_to_crossed,
)
from .extension import (
    ExtensionData,
    NonAbelianCocycle,
    build_extension,
    check_extension,
    check_extension_equivalence,
    check_nonabelian_cocycle,
    checked_extension,
    cocycle_equivalence,
    extract_cocycle,
    shear_map,
)
from .wells import (
    AutomorphismPair,
    check_automorphism_pair,
    check_h_automorphism,
    induced_pair,
    inducibility,
    lift,
    lift_map,
    transform_cocycle,
    wells_obstruction,
    wells_sequence_check,
)
from .report import Report

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
