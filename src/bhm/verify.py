"""Independent numerical verification of candidate complex-harmonic morphisms.

Everything here works from point evaluations of a map C^3 -> B only, so it
cross-checks the exact implicit formulas of the solver with no shared code
path.  Each complex coordinate is treated as two real directions; holomorphy
in each variable is itself measured (the Cauchy-Riemann residual) since the
complex Laplacian only means anything for holomorphic maps.

Derivatives are Richardson-extrapolated central differences over the step
pair (h, h/2), default h = 1e-3 * scale.  The extrapolation kills the h^2
truncation term (which a plain 1e-5 stencil cannot beat on stiff branches)
while the large base step keeps the rounding floor of second differences
near eps/h^2 ~ 1e-9.  Branch tracking is policed by demanding consistency
of the two step scales: a tracked root that hops branches inside the stencil
breaks it by orders of magnitude.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum
from math import sqrt

from .core import Bicomplex
from .errors import BranchJumpError, InvalidInputError
from .geometry import BVec3, CVec3
from .weierstrass import WeierstrassData, solve_roots

DEFAULT_STEP = 1e-3
CLASSIFY_TOL = 1e-9


class PointClass(str, Enum):
    ZERO_DIFFERENTIAL = "zero_differential"
    REGULAR = "regular"
    DEGENERATE = "degenerate"


@dataclass
class PointClassification:
    kind: PointClass
    dilation: complex  # square dilation Lambda = CN(grad)


@dataclass
class PdeResidualReport:
    laplacian_residual: float
    nullness_residual: float
    cr_residual: float
    classification: PointClassification
    gradient: BVec3

    def to_json(self):
        return {
            "laplacian": self.laplacian_residual,
            "nullness": self.nullness_residual,
            "cr": self.cr_residual,
            "class": self.classification.kind.value,
            "lambda": [self.classification.dilation.real,
                       self.classification.dilation.imag],
        }


def classify_point(gradient: BVec3, tol=CLASSIFY_TOL) -> PointClassification:
    """Trichotomy: zero differential / regular / degenerate."""
    n2 = gradient.norm2()
    if n2 <= tol * tol:
        return PointClassification(PointClass.ZERO_DIFFERENTIAL, 0j)
    lam = gradient.cn()
    if abs(lam) > tol * n2:
        return PointClassification(PointClass.REGULAR, lam)
    return PointClassification(PointClass.DEGENERATE, lam)


def _shifted(z: CVec3, k: int, dz: complex) -> CVec3:
    c = [z.u1, z.u2, z.u3]
    c[k] = c[k] + dz
    return CVec3(*c)


def _richardson_line(f0, fp, fm, fp2, fm2, h):
    """First and second derivative along one direction from values at
    +-h and +-h/2, Richardson-extrapolated; raises on scale inconsistency."""
    d1_h = (fp - fm) * (0.5 / h)
    d1_h2 = (fp2 - fm2) * (1.0 / h)
    d2_h = (fp - 2 * f0 + fm) * (1.0 / (h * h))
    d2_h2 = (fp2 - 2 * f0 + fm2) * (4.0 / (h * h))
    floor = 1e-6 * (abs(f0) + 1.0)
    dev1 = abs(d1_h - d1_h2)
    if dev1 > 0.4 * max(abs(d1_h), abs(d1_h2)) and dev1 > floor:
        raise BranchJumpError(
            f"first-derivative estimates disagree across scales ({dev1:.3e})"
        )
    dev2 = abs(d2_h - d2_h2)
    if dev2 > 0.4 * max(abs(d2_h), abs(d2_h2)) and dev2 > floor / h:
        raise BranchJumpError(
            f"second-derivative estimates disagree across scales ({dev2:.3e})"
        )
    d1 = (4.0 * d1_h2 - d1_h) * (1.0 / 3.0)
    d2 = (4.0 * d2_h2 - d2_h) * (1.0 / 3.0)
    return d1, d2


def fd_stencil(z: CVec3, h=None):
    """The step h and the 24 points at which ``fd_residuals`` reads phi around
    z, in reading order: per coordinate, the real line at +h, -h, +h/2,
    -h/2, then the imaginary line at the same steps."""
    scale = max(1.0, z.norm())
    h = h if h is not None else DEFAULT_STEP * scale
    points = []
    for k in range(3):
        for step in (1.0, 1j):
            points += (_shifted(z, k, step * h), _shifted(z, k, -step * h),
                       _shifted(z, k, step * h * 0.5), _shifted(z, k, -step * h * 0.5))
    return h, points


def fd_residuals(phi, z, h=None, tol=CLASSIFY_TOL) -> PdeResidualReport:
    """Finite-difference residuals of the harmonic-morphism equations at z.

    ``phi`` maps CVec3 -> Bicomplex and must be single-valued on the stencil
    (use ``tracked_branch`` for congruence solutions).  Raises BranchJumpError
    when the two stencil scales disagree, as they do when a tracked root hops
    to another branch.
    """
    if not isinstance(z, CVec3):
        z = CVec3(*z)
    h, points = fd_stencil(z, h)
    f0 = phi(z)

    grads = []
    seconds = []
    cr_worst = 0.0
    for k in range(3):
        line = points[8 * k:8 * k + 8]
        dx, dxx = _richardson_line(f0, *map(phi, line[:4]), h)
        dy, dyy = _richardson_line(f0, *map(phi, line[4:]), h)
        grads.append((dx - 1j * dy) * 0.5)
        cr_worst = max(cr_worst, abs((dx + 1j * dy) * 0.5))
        # for holomorphic phi, d^2/dz^2 = (d_xx - d_yy)/2
        seconds.append((dxx - dyy) * 0.5)

    gradient = BVec3(*grads)
    lap = seconds[0] + seconds[1] + seconds[2]
    nullness = grads[0] * grads[0] + grads[1] * grads[1] + grads[2] * grads[2]
    return PdeResidualReport(
        laplacian_residual=abs(lap),
        nullness_residual=abs(nullness),
        cr_residual=cr_worst,
        classification=classify_point(gradient, tol=tol),
        gradient=gradient,
    )


_POINT_BITS = struct.Struct("<6d").pack


def point_key(z: CVec3) -> bytes:
    """Exact key of a point in a root table: its bits, since ``0j == -0j``
    and the two zeros can give different roots."""
    return _POINT_BITS(z.u1.real, z.u1.imag, z.u2.real, z.u2.imag,
                       z.u3.real, z.u3.imag)


def nearest_root(roots, q0: Bicomplex) -> Bicomplex:
    """The root closest to q0, the first one in the list on a tie: the same
    arithmetic as ``abs(q - q0)``, with no Bicomplex built for ``q - q0``."""
    a, b = q0.z1, q0.z2
    return min(roots, key=lambda q: sqrt(abs(q.z1 - a) ** 2 + abs(q.z2 - b) ** 2))


def tracked_branch(data: WeierstrassData, z0, q0: Bicomplex | None = None,
                   branch: int = 0, roots: dict | None = None):
    """Single-valued branch of the congruence solutions near z0.

    The branch is anchored at the root ``q0`` (or the ``branch``-th root in
    canonical order at z0); at nearby points the nearest root is selected.
    Only the roots are solved for, never their derivatives: a stencil reads
    the values alone.

    ``roots`` is a root table: a dict from ``point_key(z)`` to
    ``solve_roots(data, z)``.  Every branch tracked from one point can share
    one table, so each stencil point is solved once for all of them; a
    caller that passes none gets a private table.
    """
    if not isinstance(z0, CVec3):
        z0 = CVec3(*z0)
    table = {} if roots is None else roots

    def roots_at(z):
        key = point_key(z)
        found = table.get(key)
        if found is None:
            found = table[key] = solve_roots(data, z)
        return found

    if q0 is None:
        anchor = roots_at(z0)
        if not anchor:
            raise InvalidInputError("no congruence solutions at the anchor point")
        q0 = anchor[branch]

    def phi(z):
        found = roots_at(z)
        if not found:
            raise BranchJumpError(f"no roots at {z!r}")
        return nearest_root(found, q0)

    return phi


def rank_one_degeneracy_check(phi, points, tol=1e-8, h=None) -> dict:
    """Degeneracy pattern of a map with values in the embedded i1-plane.

    Maps into C[i1] have complex rank at most one, so away from critical
    points every sample must classify degenerate.  When a value leaves the
    i1-plane the check does not apply and the report flags full rank instead.
    """
    n_zero = n_deg = n_reg = 0
    max_off = 0.0
    for z in points:
        if not isinstance(z, CVec3):
            z = CVec3(*z)
        value = phi(z)
        max_off = max(max_off, abs(value.z2))
        report = fd_residuals(phi, z, h=h)
        kind = report.classification.kind
        if kind is PointClass.ZERO_DIFFERENTIAL:
            n_zero += 1
        elif kind is PointClass.DEGENERATE:
            n_deg += 1
        else:
            n_reg += 1
    applicable = max_off <= tol
    return {
        "applicable": applicable,
        "rank2_detected": not applicable,
        "max_offplane": max_off,
        "n_points": n_zero + n_deg + n_reg,
        "n_zero_differential": n_zero,
        "n_degenerate": n_deg,
        "n_regular": n_reg,
        "ok": (not applicable) or n_reg == 0,
    }
