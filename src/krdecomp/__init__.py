"""Kantorovich-Rubinstein norms (balanced and extended) of finitely
supported signed measures on boxes, with transport plans, Lipschitz dual
witnesses, and constructive atomic decompositions into canonical dipoles
and point masses."""

from .decompose import (
    AtomicDecomposition,
    BoundReport,
    TermBoundCheck,
    TruncationCoverageError,
    decompose_balanced,
    decompose_full,
    decompose_l1_minimal,
    mass_identity_check,
    reconstruct,
    term_measure,
    testfn_eval,
    verify_bounds,
    verify_term_lower_bound,
)
from .family import (
    DEFAULT_OFFSET,
    DeltaAtom,
    FamilyConfig,
    FamilyPair,
    FamilyPoint,
    d1_point,
    d2_point,
    delta_atom,
    dump_pairs_csv,
    family_pair,
    nearest_family_point,
    pair_components,
    pair_index,
    snap_radius,
)
from .measures import (
    DegenerateDipoleError,
    DiscreteSignedMeasure,
    Domain,
    DomainMembershipError,
    HahnJordanPair,
    Point,
    dipole,
    dirac,
    euclidean,
    measure_from_json,
    measure_to_json,
)
from .oracle import (
    InstanceTooLargeError,
    QuantizationError,
    oracle_dual_grid,
    oracle_kr,
    oracle_kr0,
    quantize,
)
from .solver import (
    GAP_TOL,
    MASS_BALANCE_TOL,
    BalanceViolationError,
    DualPotential,
    DuplicatePointError,
    EmptyPotentialError,
    LPSolveError,
    LPStats,
    NormResult,
    TransportEdge,
    TransportPlan,
    kr0_norm,
    kr_norm,
    lip_norm,
    lipschitz_seminorm,
    mcshane_extend,
    variant_norm,
)

__version__ = "0.1.0"
