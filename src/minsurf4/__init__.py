"""Minimal surfaces in Euclidean 4-space from rational Weierstrass-type data.

Exact verification of completeness, exceptional-value counts, and the
associated sharpness families; the minimal-Lagrangian pipeline; and the
Moebius-strip construction on involution-symmetric annulus data.
"""

from .domains import Annulus, PuncturedPlane
from .errors import (
    BadStencil,
    ConditionViolation,
    ConfigError,
    ConstantMapError,
    DegenerateFrame,
    DegeneratePoint,
    DomainError,
    ExponentUndefined,
    FlatSurfaceError,
    InfeasibleSampling,
    InvalidPath,
    IrregularData,
    KSearchExhausted,
    MinSurfError,
    MultivaluedImmersion,
    PeriodObstruction,
    RequiresExactMode,
    UnsupportedPoint,
)
from .gaussmap import (
    exceptional_values,
    falsify,
    lift_equivalence,
    nonorientable_check,
    r4_gauss_check,
    verify_main_inequality,
)
from .lagrangian import (
    HolomorphicPair,
    LagrangianSpec,
    corollary_bound_check,
    immersion_f,
    immersion_xyzw,
    lagrangian_minimality_check,
    metric_curvature,
    nondegenerate,
    spinors,
)
from .laurent import LaurentPoly, format_laurent, parse_laurent
from .meshing import Mesh, annulus_grid, export_mesh, plane_grid
from .metric import (
    MetricSpec,
    boundary_exponent,
    conformal_factor,
    gauss_curvature_numeric,
    is_complete,
)
from .nonorientable import (
    CoverSpec,
    FCandidate,
    SymmetricLaurentData,
    assemble_report,
    build_f,
    check_weierstrass_symmetry,
    f_bounds,
    involution,
    involution_omitted_closure,
    pullback_psi,
    residue_condition,
    validate_symmetric_laurent,
)
from .poly import Polynomial, format_poly, parse_poly, roots
from .rational import MoebiusTransform, RationalFunction, format_rational, parse_rational
from .scalars import GaussianRational, format_scalar, parse_scalar
from .sphere import INFINITY, RP2Point, SpherePoint, antipodal, chordal, rp2_count
from .weierstrass import (
    PhiForms,
    WeierstrassData,
    check_conformality,
    check_regularity,
    data_from_phis,
    immerse,
    induced_metric_identity,
    period_residues,
    phis_from_data,
)

__version__ = "0.1.0"
