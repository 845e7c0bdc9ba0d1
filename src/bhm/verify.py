"""Independent numerical verification of candidate complex-harmonic morphisms.

The reference check, ``fd_residuals``, works from point evaluations of a
map C^3 -> B only, so it cross-checks the solver's implicit formulas.  It
shares two helpers with them: ``weierstrass._null_parts`` (|grad|^2 and
CN(grad), summed), which ``classify_point`` calls, and
``weierstrass._max`` (Python's ``max``), which ``fd_report`` calls; and
``tracked_branch`` reads its roots from ``solve_roots``.  The batched
checks, ``point_checks`` and the loop it shares with
``slices.slice_checks``, solve each block's stencil points in one
``RootBatch`` and compute the reports over lanes with the reference's bits
(``fd_lanes``); a root they flag gets the reference's own report.

Each complex coordinate is treated as two real directions; holomorphy
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

from dataclasses import dataclass
from enum import Enum
from functools import partial
from itertools import accumulate, islice
from math import sqrt

import numpy as np

from .core import BArray, Bicomplex, CArray
from .errors import BranchJumpError, InvalidInputError
from .geometry import BVec3, CVec3
from .weierstrass import RootBatch, WeierstrassData, _blocks, _degrees, _max, _null_parts
from .weierstrass import _until_error, solve_roots

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
    n2, lam = _null_parts(tuple(gradient))
    zero, regular = _classes(n2, abs(lam), tol)
    if zero:
        return PointClassification(PointClass.ZERO_DIFFERENTIAL, 0j)
    if regular:
        return PointClassification(PointClass.REGULAR, lam)
    return PointClassification(PointClass.DEGENERATE, lam)


# The formulas below run on scalars (Bicomplex, complex, Hyperbolic) and on
# lanes (BArray, CArray, HArray) alike: the scalar reports and their lane
# forms share them, so each lane gets the scalar bits.


def _classes(n2, lam_abs, tol):
    """``classify_point``'s two tests from |grad|^2 and |CN(grad)|: a zero
    differential, and else a regular point.  (|CN(grad)| <= |grad|^2, so
    taking |CN(grad)| at a zero differential raises nothing.)"""
    return n2 <= tol * tol, lam_abs > tol * n2


def _shifted(z: CVec3, k: int, dz: complex) -> CVec3:
    c = [z.u1, z.u2, z.u3]
    c[k] = c[k] + dz
    return CVec3(*c)


def _estimates(f0, fp, fm, fp2, fm2, h):
    """The first and the second derivative along one direction from the
    values at +-h and at +-h/2: (d1 at h, d1 at h/2, d2 at h, d2 at h/2)."""
    d1_h = (fp - fm) * (0.5 / h)
    d1_h2 = (fp2 - fm2) * (1.0 / h)
    d2_h = (fp - 2 * f0 + fm) * (1.0 / (h * h))
    d2_h2 = (fp2 - 2 * f0 + fm2) * (4.0 / (h * h))
    return d1_h, d1_h2, d2_h, d2_h2


def _deviation(at_h, at_h2):
    """How far the estimates at the two scales differ, and the bound they
    must agree within: 0.4 times the larger of them."""
    return abs(at_h - at_h2), 0.4 * _max(abs(at_h), abs(at_h2))


def _extrapolated(at_h, at_h2):
    return (4.0 * at_h2 - at_h) * (1.0 / 3.0)


def _richardson_line(f0, fp, fm, fp2, fm2, h):
    """First and second derivative along one direction from values at
    +-h and +-h/2, Richardson-extrapolated; raises on scale inconsistency.
    The second check's values are taken only after the first passes, so an
    ``abs`` that overflows there raises only where it always did."""
    d1_h, d1_h2, d2_h, d2_h2 = _estimates(f0, fp, fm, fp2, fm2, h)
    floor = 1e-6 * (abs(f0) + 1.0)
    dev1, bound1 = _deviation(d1_h, d1_h2)
    if dev1 > bound1 and dev1 > floor:
        raise BranchJumpError(
            f"first-derivative estimates disagree across scales ({dev1:.3e})"
        )
    dev2, bound2 = _deviation(d2_h, d2_h2)
    if dev2 > bound2 and dev2 > floor / h:
        raise BranchJumpError(
            f"second-derivative estimates disagree across scales ({dev2:.3e})"
        )
    return _extrapolated(d1_h, d1_h2), _extrapolated(d2_h, d2_h2)


def _richardson_lanes(f0, fp, fm, fp2, fm2, h):
    """``_richardson_line`` over lanes: (d1, d2, flagged), flagged where the
    scalar line raises BranchJumpError, or where a value it compares is not
    finite (an ``abs`` the scalar line may raise OverflowError on, or a NaN
    it compares otherwise)."""
    d1_h, d1_h2, d2_h, d2_h2 = _estimates(f0, fp, fm, fp2, fm2, h)
    floor = 1e-6 * (abs(f0) + 1.0)
    dev1, bound1 = _deviation(d1_h, d1_h2)
    dev2, bound2 = _deviation(d2_h, d2_h2)
    flagged = ((dev1 > bound1) & (dev1 > floor)) | ((dev2 > bound2) & (dev2 > floor / h))
    for v in (floor, dev1, bound1, dev2, bound2):
        flagged |= ~np.isfinite(v)
    return _extrapolated(d1_h, d1_h2), _extrapolated(d2_h, d2_h2), flagged


def _fd_coordinate(dx, dxx, dy, dyy):
    """One coordinate's terms of ``fd_report`` from its real (x) and
    imaginary (y) lines: the gradient entry, the Cauchy-Riemann residual and,
    for holomorphic phi, d^2/dz^2 = (d_xx - d_yy)/2."""
    return (dx - 1j * dy) * 0.5, abs((dx + 1j * dy) * 0.5), (dxx - dyy) * 0.5


def _fd_sums(grads, seconds):
    """|Laplacian| and |nullness| from the coordinates' terms."""
    lap = seconds[0] + seconds[1] + seconds[2]
    nullness = grads[0] * grads[0] + grads[1] * grads[1] + grads[2] * grads[2]
    return abs(lap), abs(nullness)


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
    return fd_report(phi(z), map(phi, points), h, tol=tol)


def fd_report(f0, values, h, tol=CLASSIFY_TOL) -> PdeResidualReport:
    """``fd_residuals`` from phi's value f0 at z and its values at the points
    of ``fd_stencil(z)``, in reading order.  ``values`` is read four at a
    time, one Richardson line after another, so a value that raises does so
    where a point-by-point read raises."""
    values = iter(values)
    grads = []
    seconds = []
    cr_worst = 0.0
    for k in range(3):
        dx, dxx = _richardson_line(f0, *islice(values, 4), h)
        dy, dyy = _richardson_line(f0, *islice(values, 4), h)
        grad, cr, second = _fd_coordinate(dx, dxx, dy, dyy)
        grads.append(grad)
        cr_worst = _max(cr_worst, cr)
        seconds.append(second)

    gradient = BVec3(*grads)
    lap, nullness = _fd_sums(grads, seconds)
    return PdeResidualReport(
        laplacian_residual=lap,
        nullness_residual=nullness,
        cr_residual=cr_worst,
        classification=classify_point(gradient, tol=tol),
        gradient=gradient,
    )


# the PointClass values by index, as fd_lanes numbers them
_CLASS_NAMES = [kind.value for kind in PointClass]


def fd_lanes(z1, z2, h, tol=CLASSIFY_TOL):
    """``fd_report(f0, values, h).to_json()`` over lanes, with its bits.

    Lane r reads the branch values z1[r] + z2[r] i2 (complex arrays of
    shape (lanes, 25)): f0 first, then the values at the points of
    ``fd_stencil``, in reading order; ``h`` holds each lane's step.  Returns
    (report, flagged), where ``report(r)`` builds lane r's report from the
    arrays: a flagged lane's report is not valid, since the scalar report
    raises there (a branch jump, an ``abs`` past the double range) or
    compares or returns a value that is not finite."""
    with np.errstate(all="ignore"):
        values = BArray(CArray(z1.real, z1.imag), CArray(z2.real, z2.imag))
        d1, d2, flagged = _richardson_lanes(values[:, :1], values[:, 1::4], values[:, 2::4],
                                            values[:, 3::4], values[:, 4::4], h[:, None])
        flagged = flagged.any(axis=1)
        grads = []
        seconds = []
        cr_worst = 0.0
        for k in range(3):
            grad, cr, second = _fd_coordinate(d1[:, 2 * k], d2[:, 2 * k],
                                              d1[:, 2 * k + 1], d2[:, 2 * k + 1])
            grads.append(grad)
            cr_worst = _max(cr_worst, cr)
            seconds.append(second)
            flagged |= ~np.isfinite(cr)
        lap, nullness = _fd_sums(grads, seconds)
        n2, lam = _null_parts(grads)
        lam_abs = abs(lam)
    zero, regular = _classes(n2, lam_abs, tol)
    for v in (lap, nullness, n2, lam_abs):
        flagged |= ~np.isfinite(v)
    kind = np.where(zero, 0, np.where(regular, 1, 2))
    lam_re = np.where(zero, 0.0, lam.re)
    lam_im = np.where(zero, 0.0, lam.im)

    def report(r):
        return {"laplacian": float(lap[r]), "nullness": float(nullness[r]),
                "cr": float(cr_worst[r]), "class": _CLASS_NAMES[kind[r]],
                "lambda": [float(lam_re[r]), float(lam_im[r])]}

    return report, flagged


def nearest_root(roots, q0: Bicomplex) -> Bicomplex:
    """The root closest to q0, the first one in the list on a tie: the same
    arithmetic as ``abs(q - q0)``, with no Bicomplex built for ``q - q0``."""
    a, b = q0.z1, q0.z2
    return min(roots, key=lambda q: sqrt(abs(q.z1 - a) ** 2 + abs(q.z2 - b) ** 2))


# the largest distance table nearest_lanes holds at a time, in keys (at
# least one lane's roots): it bounds the memory of a point with many roots
NEAREST_CHUNK = 1 << 17


def nearest_lanes(r1, r2, count, lane, q1, q2):
    """``nearest_root`` at many queries, with its key's bits.

    Query k picks, from the roots ``r1[j] + r2[j] i2`` of lane j = lane[k]
    (complex arrays of shape (lanes, width), the first count[j] of a row
    in canonical order), the root nearest q1[k] + q2[k] i2, the first on a
    tie.  Returns the picked roots' z1 and z2, and whether each pick is
    ``nearest_root``'s: not where the lane has no roots, or where a key may
    not be finite (the scalar key raises OverflowError there, or compares a
    NaN; a key past 1e150 counts as such).  The queries go in chunks of at
    most NEAREST_CHUNK keys."""
    width = r1.shape[1]
    padding = np.arange(width) >= count[:, None]
    z1 = np.empty(len(lane), dtype=complex)
    z2 = np.empty(len(lane), dtype=complex)
    exact = np.empty(len(lane), dtype=bool)
    step = max(1, NEAREST_CHUNK // width)
    for lo in range(0, len(lane), step):
        rows = lane[lo:lo + step]
        c1, c2 = r1[rows], r2[rows]
        pad = padding[rows]
        with np.errstate(all="ignore"):
            d1 = c1 - q1[lo:lo + step, None]
            d2 = c2 - q2[lo:lo + step, None]
            # the key's square by plain products, within a relative 1e-14 of
            # it (1e-300 near underflow) where it stays below 1e300: the key
            # itself (libm's hypot and pow, 30 times as slow) is needed only
            # where this is near its row's least, which keeps every root
            # that wins or ties there
            near = d1.real * d1.real + d1.imag * d1.imag + d2.real * d2.real + d2.imag * d2.imag
            exact[lo:lo + step] = ((near <= 1e300) | pad).all(axis=1) & (count[rows] > 0)
            np.putmask(near, pad, np.inf)
            i, j = np.nonzero(near <= near.min(axis=1, keepdims=True) * (1.0 + 1e-12) + 1e-300)
            e1, e2 = d1[i, j], d2[i, j]
            key = np.full(near.shape, np.inf)
            key[i, j] = np.sqrt(np.float_power(np.hypot(e1.real, e1.imag), 2)
                                + np.float_power(np.hypot(e2.real, e2.imag), 2))
        pick = key.argmin(axis=1)[:, None]
        z1[lo:lo + step] = np.take_along_axis(c1, pick, axis=1)[:, 0]
        z2[lo:lo + step] = np.take_along_axis(c2, pick, axis=1)[:, 0]
    return z1, z2, exact


def branch_roots(roots, z: CVec3):
    """The roots at z that a tracked branch picks from; raises
    BranchJumpError when there are none."""
    if not roots:
        raise BranchJumpError(f"no roots at {z!r}")
    return roots


def tracked_branch(data: WeierstrassData, z0, q0: Bicomplex | None = None,
                   branch: int = 0):
    """Single-valued branch of the congruence solutions near z0.

    The branch is anchored at the root ``q0`` (or the ``branch``-th root in
    canonical order at z0); at nearby points the nearest root is selected.
    Only the roots are solved for, never their derivatives: a stencil reads
    the values alone.
    """
    if not isinstance(z0, CVec3):
        z0 = CVec3(*z0)
    if q0 is None:
        anchor = solve_roots(data, z0)
        if not anchor:
            raise InvalidInputError("no congruence solutions at the anchor point")
        q0 = anchor[branch]

    def phi(z):
        return nearest_root(branch_roots(solve_roots(data, z), z), q0)

    return phi


def point_checks(data: WeierstrassData, zs):
    """``fd_residuals`` at every root of every point, batched.

    Yields, per point z (a CVec3) of zs in order, (z, [(sol, check), ...])
    for the solutions of ``solve_phi(data, z)``: ``check()`` gives
    ``fd_residuals(tracked_branch(data, z, q0=sol.q), z).to_json()``, with
    its bits, or is None where the root has no gradient.  A point's solve
    error is raised after the points before it; a check raises where the
    reference raises, when it is called."""

    def reference(z, q):
        return fd_residuals(tracked_branch(data, z, q0=q), z).to_json()

    return _stencil_checks(data, zs, lambda z: z, list, (fd_stencil, fd_lanes, reference))


def _stencil_checks(data, anchors, embed, select, stencil):
    """The loop of ``point_checks`` and ``slices.slice_checks``: per anchor,
    in order, (anchor, [(sol, check), ...]).

    A block of anchors, embedded in C^3 by ``embed``, is solved in one
    RootBatch, and ``select(sols)`` keeps the solutions to check.
    ``stencil`` is None (no checks) or (points, lanes, reference):
    ``points(anchor)`` gives (h, the stencil's points in C^3, in reading
    order), ``lanes`` is ``fd_lanes`` or ``wave_lanes``, and
    ``reference(anchor, q)`` is the library's scalar check of the branch
    through the root q.  A kept root with a gradient gets its report from
    the lanes (``_stencil_lanes``) or, where they flag it, from
    ``reference`` itself, called in that root's turn, so it raises what a
    point-by-point run raises.  A report's Python objects are made only when
    its check is called: held through a block's rows, they fragmented the
    pools of the 25 000-point slice grid's rows and raised its peak RSS.
    numpy's warnings are off while a block is solved and while a reference
    runs, as in the CLI: the scalar path a lane falls back on warns where
    its values leave the double range."""
    if stencil is not None:
        points, lanes, reference = stencil
    for block in _blocks(anchors, _degrees(data)):
        with np.errstate(all="ignore"):
            solved, error = _until_error(RootBatch(data, [embed(a) for a in block]).solutions,
                                         range(len(block)))
            kept = [select(sols) for sols in solved]
            report, flagged, first = None, None, [None] * len(block)
            if stencil is not None:
                report, flagged, first = _stencil_lanes(data, points, lanes, block, solved, kept)
        for anchor, chosen, k in zip(block, kept, first):
            pairs = []
            for sol in chosen:
                check = None
                if stencil is not None and sol.gradient is not None:
                    check = (partial(_quietly, reference, anchor, sol.q) if flagged[k]
                             else partial(report, k))
                    k += 1
                pairs.append((sol, check))
            yield anchor, pairs
        if error is not None:
            raise error


def _quietly(fn, *args):
    """``fn(*args)`` with numpy's floating-point warnings off."""
    with np.errstate(all="ignore"):
        return fn(*args)


def _stencil_lanes(data, points, lanes, block, solved, kept):
    """The reports of a block's kept roots with a gradient, over lanes:
    (report, flagged, first).  The roots of anchor a are lanes first[a],
    first[a] + 1, ...; ``report(k)`` builds lane k's report, which is valid
    where flagged[k] is false.  Every lane of an anchor whose stencil
    points raise is flagged: its roots' references raise that error.

    Every stencil point of the block is solved in one RootBatch.  For each
    root, ``nearest_lanes`` picks its branch's value at the anchor (the
    nearest of all the anchor's roots) and at every stencil point, and
    ``lanes`` computes every report at once.  A root with a pick that is
    not ``nearest_root``'s is flagged too."""
    found = [None] * len(block)
    first = [None] * len(block)
    raised = []
    for a, (anchor, chosen) in enumerate(zip(block, kept)):
        n_roots = sum(sol.gradient is not None for sol in chosen)
        if n_roots:
            try:
                found[a] = points(anchor)
            except ArithmeticError:
                raised.append((a, n_roots))
    live = [a for a, f in enumerate(found) if f is not None]
    report = None
    flagged = []
    if live:
        n = len(found[live[0]][1])
        batch = RootBatch(data, [z for a in live for z in found[a][1]])
        q0 = [[sol.q for sol in kept[a] if sol.gradient is not None] for a in live]
        owner = np.repeat(np.arange(len(live)), [len(qs) for qs in q0])
        q1 = np.array([q.z1 for qs in q0 for q in qs])
        q2 = np.array([q.z2 for qs in q0 for q in qs])
        width = max(len(solved[a]) for a in live)
        anchor_roots = [[sol.q for sol in solved[a]] for a in live]
        a1, a2 = (np.array([[getattr(q, part) for q in roots] + [0j] * (width - len(roots))
                            for roots in anchor_roots]) for part in ("z1", "z2"))
        f1, f2, f_exact = nearest_lanes(a1, a2, np.array([len(r) for r in anchor_roots]),
                                        owner, q1, q2)
        r1, r2, count = batch.padded_roots()
        v1, v2, v_exact = nearest_lanes(r1, r2, count,
                                        (owner[:, None] * n + np.arange(n)).ravel(),
                                        np.repeat(q1, n), np.repeat(q2, n))
        z1 = np.concatenate([f1[:, None], v1.reshape(-1, n)], axis=1)
        z2 = np.concatenate([f2[:, None], v2.reshape(-1, n)], axis=1)
        exact = np.concatenate([f_exact[:, None], v_exact.reshape(-1, n)], axis=1)
        report, flagged = lanes(z1, z2, np.array([found[a][0] for a in live])[owner])
        flagged = (flagged | ~exact.all(axis=1)).tolist()
        for a, k in zip(live, accumulate([0] + [len(qs) for qs in q0])):
            first[a] = k
    for a, n_roots in raised:
        first[a] = len(flagged)
        flagged += [True] * n_roots
    return report, flagged, first


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
