"""Bicomplex harmonic morphisms toolkit.

Bicomplex/hyperbolic arithmetic, chart atlases for the complexified sphere
and its quadric compactifications, Weierstrass-type congruence solving, and
numerical verification of the complex-harmonic morphism equations, with the
three real-slice reductions.
"""

from .core import (
    BACKEND,
    Bicomplex,
    Hyperbolic,
    embed_complex,
    embed_complex_i1,
    embed_hyperbolic,
)
from .errors import (
    BhmError,
    BranchJumpError,
    DegenerateAllComponentsError,
    DegenerateDirectionError,
    DegeneratePointError,
    ExprSchemaError,
    InvalidInputError,
    NotInSliceError,
    OutOfDomainError,
    PoleEncounteredError,
    RangeOverflowError,
    ZeroDivisorError,
)
from .geometry import (
    BVec3,
    Chart,
    CVec3,
    QuadricPointB,
    QuadricPointC,
    S2CPoint,
    Space,
    chart_to_point,
    complex_representative,
    forget_orientation,
    fundamental_identity_check,
    phi_compactify,
    point_to_chart,
    psi_decompactify,
    q1b_star_to_s2c,
    s2c_to_q2c,
    transition,
)
from .holo import (
    Const,
    Expr,
    HoloFn,
    Var,
    cr_residual,
    expr_from_json,
    expr_to_json,
    holofn_from_json,
    holofn_to_json,
)
from .slices import (
    SliceKind,
    embed_domain,
    project_codomain,
    projectable_roots,
    slice_checks,
    slice_compactification_check,
    slice_data,
    tracked_real_branch,
    wave_residual,
)
from .verify import (
    PdeResidualReport,
    PointClass,
    PointClassification,
    classify_point,
    fd_residuals,
    point_checks,
    rank_one_degeneracy_check,
    tracked_branch,
)
from .weierstrass import (
    CongruenceSolution,
    FibreDescription,
    FibreTag,
    WeierstrassData,
    fibre_at,
    fibre_position_via_chart,
    gauss_map,
    solve_phi,
    solve_roots,
    xi_direction,
    xi_from_fibres,
    xi_from_gh,
)

__version__ = "0.1.0"
