"""Combinatorics of diagrammatic Cherednik algebras.

Loadings and dominance, semistandard tableaux with degrees, graded
decomposition numbers by two independent engines, brick-signature
equivalence with slot transport, and adjacency-free tensor factorization.
"""

from .coords import ExactCoord, as_fraction, coord
from .diagonals import (
    ChiSymbol,
    DiagonalModelViolation,
    IDiagonal,
    chi_sequence,
    format_chi,
    i_diagonals,
    parse_chi,
)
from .equivalence import EquivalenceReport, chi_equivalent, visible_invariant
from .gamma import (
    GammaContext,
    MultisetTooLarge,
    NotAdmissible,
    NotInGamma,
    addable_nodes,
    build_gamma_set,
    gamma_context_for_pair,
    is_admissible,
    removable_nodes,
)
from .laurent import LaurentPoly, PositivityViolation, t_power
from .loadings import (
    Dominance,
    DuplicateCoordinate,
    Loading,
    dominates,
    loading_of,
    residue_multiset,
    theta_dominance,
    theta_leq,
)
from .params import AdjacencyViolation, ParamContext, ValidationError
from .partitions import Multipartition, Node, empty_multipartition, mp
from .peeling import (
    DecompositionMatrix,
    EngineDisagreement,
    InvariantViolation,
    NonSaturatedPoset,
    decomp_number,
    family_entries,
    gamma_peel_matrix,
    interval_peel_matrix,
    peel_matrix,
    verify_reassembly,
)
from .tableaux import (
    Tableau,
    delta_character,
    enumerate_sstd,
    identity_tableau,
    tableau_degree,
)
from .tensor import (
    FactoredContext,
    factor_check,
    factor_context,
    psi_inverse,
    psi_multipartition,
    psi_tableau,
)
from .terrain import (
    DecoratedTerrain,
    LatticedPath,
    Terrain,
    UnbalancedDecoration,
    WellNestedFamily,
    decorate,
    filled_edges,
    latticed_paths,
    nested_decomposition_number,
    slot_word,
    terrain_of,
    well_nested_families,
)
from .transport import (
    IncompatibleContexts,
    NotComparable,
    TransportMap,
    component_word,
    interval_length,
    sigma_indices,
    tableau_from_word,
)

__version__ = "0.1.0"
