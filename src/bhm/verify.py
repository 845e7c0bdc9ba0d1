"""Independent numerical verification of candidate complex-harmonic morphisms.

The reference check, ``fd_residuals``, works from point evaluations of a
map C^3 -> B only, so it cross-checks the solver's implicit formulas.  It
shares two helpers with them: ``weierstrass._null_parts`` (|grad|^2 and
CN(grad), summed), which ``classify_point`` calls, and
``weierstrass._max`` (Python's ``max``), which ``fd_report`` calls; and
``tracked_branch`` reads its roots from ``solve_roots``.  The batched
checks, ``point_checks`` and the loop it shares with
``slices.slice_checks`` (``_stencil_checks``), work on lanes: a block's
anchors and their stencil points are built as CArray lanes with the bits
of ``fd_stencil`` (``_fd_points``), all solved in one ``RootBatch`` root
pass, and the reports are computed over lanes with the reference's bits
(``fd_lanes``); a root they flag gets the reference's own report.  Every
root is handed on as its root lane in the block's RootBatch, which has
merged the solutions of any anchor left to ``solve_phi`` when it was
built, one block at a time, and the CLI builds its rows, and
``point_checks`` each CongruenceSolution, from those lanes.

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
from itertools import accumulate, compress, islice
from math import sqrt

import numpy as np

from .core import BArray, Bicomplex, CArray, I_LANE
from .errors import BranchJumpError, InvalidInputError, RangeOverflowError
from .geometry import BVec3, CVec3
from .weierstrass import RootBatch, WeierstrassData, _blocks, _degrees, _max, _null_parts
from .weierstrass import solve_roots

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


def _fd_step(z: CVec3, h):
    """``fd_stencil``'s step at z: h, or DEFAULT_STEP times the scale
    max(1, |z|); raises RangeOverflowError where ``z.norm()`` overflows, h
    given or not."""
    try:
        scale = max(1.0, z.norm())
    except OverflowError:  # a component's modulus, or its square, past the double range
        raise RangeOverflowError(f"the stencil scale |z| overflows at z = {z!r}") from None
    return h if h is not None else DEFAULT_STEP * scale


def _fd_offsets(h, i):
    """``fd_stencil``'s four steps along one line, in reading order: i is
    1.0 on a real line and the imaginary unit on an imaginary one, 1j for a
    float h and ``I_LANE`` for float lanes h (h promoted to h + 0j, as
    CPython promotes it)."""
    return i * h, -i * h, i * h * 0.5, -i * h * 0.5


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
    h = _fd_step(z, h)
    points = []
    for k in range(3):
        for i in (1.0, 1j):
            points += [_shifted(z, k, dz) for dz in _fd_offsets(h, i)]
    return h, points


def _fd_points(z: CArray, h):
    """``fd_stencil``'s points around n anchors, as lanes with its bits: z
    holds the anchors as CArray lanes of shape (n, 3), h their steps.
    Returns the points as CArray lanes of shape (24 n, 3), anchor by
    anchor, each in reading order."""
    dz = CArray.stack([d for i in (1.0, I_LANE) for d in _fd_offsets(h, i)])
    re = np.repeat(z.re[:, None, :], 24, axis=1)
    im = np.repeat(z.im[:, None, :], 24, axis=1)
    for k in range(3):
        shifted = z[:, k:k + 1] + dz
        re[:, 8 * k:8 * k + 8, k] = shifted.re
        im[:, 8 * k:8 * k + 8, k] = shifted.im
    return CArray(re.reshape(-1, 3), im.reshape(-1, 3))


def _fd_stencils(anchors, z: CArray):
    """``fd_stencil`` at the anchors (CVec3s; z their CArray lanes, shape
    (n, 3)): (h, raised, points), each anchor's step, whether its scale
    raises (its step is then 0), and ``_fd_points`` of those that do not."""
    h = np.zeros(len(anchors))
    raised = np.zeros(len(anchors), dtype=bool)
    for a, anchor in enumerate(anchors):
        try:
            h[a] = _fd_step(anchor, None)
        except ArithmeticError:
            raised[a] = True
    return h, raised, _fd_points(z[~raised], h[~raised])


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


# the PointClass values by index, as _class_index numbers them
_CLASS_NAMES = [kind.value for kind in PointClass]


def _class_index(n2, lam_abs, tol):
    """``classify_point``'s kind over lanes, from |grad|^2 and |CN(grad)|,
    as an index into _CLASS_NAMES."""
    zero, regular = _classes(n2, lam_abs, tol)
    return np.where(zero, 0, np.where(regular, 1, 2))


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
    kind = _class_index(n2, lam_abs, tol)
    zero = kind == 0
    for v in (lap, nullness, n2, lam_abs):
        flagged |= ~np.isfinite(v)
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
        roots = solve_roots(data, z)
        if not roots:
            raise BranchJumpError(f"no roots at {z!r}")
        return nearest_root(roots, q0)

    return phi


def point_checks(data: WeierstrassData, zs):
    """``fd_residuals`` at every root of every point, batched.

    Yields, per point z (a CVec3) of zs in order, (z, [(sol, check), ...])
    for the solutions of ``solve_phi(data, z)``: ``check()`` gives
    ``fd_residuals(tracked_branch(data, z, q0=sol.q), z).to_json()``, with
    its bits, or is None where the root has no gradient.  A point's solve
    error is raised after the points before it; a check raises where the
    reference raises, when it is called."""
    return _solutions(_point_roots(data, zs))


def _point_roots(data, zs):
    """``point_checks`` with each root as ``_stencil_checks`` gives it."""

    def reference(z, q):
        return fd_residuals(tracked_branch(data, z, q0=q), z).to_json()

    return _stencil_checks(data, zs, _point_lanes, None, (_fd_stencils, fd_lanes, reference))


def _point_lanes(block):
    """Points in C^3 (CVec3s) as ``_stencil_checks`` reads its anchors: one
    CArray of shape (n, 3), both their coordinates and their points."""
    z = CArray.of([tuple(p) for p in block])
    return z, z


def _solutions(blocks):
    """``_stencil_checks``' blocks as one item per anchor, with each root as
    its CongruenceSolution."""
    for batch, items in blocks:
        for anchor, pairs in items:
            yield anchor, [(batch.solution(k), check) for k, check in pairs]


def _stencil_checks(data, anchors, lanes, keep, stencil):
    """The loop of ``point_checks``, ``slices.slice_checks`` and the CLI's
    ``solve`` (``stencil`` None): per block of anchors, in order, (batch,
    [(anchor, [(k, check), ...]), ...]) for the block's solved anchors and
    their kept roots, each k a root lane of ``batch``, the block's RootBatch
    (``batch.solution(k)`` builds its CongruenceSolution).  The error of
    the block's first anchor whose solve raises (``batch.error``) is raised
    when the loop is resumed after the block, so errors come in the order
    of a point-by-point run.

    A block of anchors is solved in one RootBatch: ``lanes(anchors)`` gives
    their coordinates as lanes, one row per anchor, and their points in C^3
    as CArray lanes of shape (n, 3).  With a stencil, the anchors' stencil
    points are built first, from their coordinates alone, and solved in the
    anchors' root pass (``RootBatch(data, points, stencil=...)``), whether
    or not an anchor turns out to have a root to check; the derivative step
    and every read take the anchors alone.  The RootBatch puts the
    solutions of an anchor left to ``solve_phi`` on root lanes too, so every
    root is read from the lanes.  ``keep`` is None, and every root is kept,
    or gives the mask of the roots to keep from complex arrays of their q's
    z1 and z2.

    ``stencil`` is None (no checks) or (points, lanes, reference):
    ``points(anchors, coordinates)`` gives the anchors' steps, where their
    scale raises, and the stencil points of the others as lanes, anchor by
    anchor (``_fd_stencils``); ``lanes`` is ``fd_lanes`` or ``wave_lanes``;
    and ``reference(anchor, q)`` is the library's scalar check of the branch
    through the root q.  A kept root with a gradient gets its report from
    the lanes (``_stencil_lanes``) or, where they flag it, from
    ``reference`` itself, called in that root's turn, so it raises what a
    point-by-point run raises; any other root's check is None.  A report's
    Python objects are made only when its check is called: held through a
    block's rows, they fragmented the pools of the 25 000-point slice
    grid's rows and raised its peak RSS.  numpy's warnings are off while a
    block is solved and while a reference runs, as in the CLI: the scalar
    path a lane falls back on warns where its values leave the double
    range."""
    for block in _blocks(anchors, _degrees(data)):
        coords, points = lanes(block)
        with np.errstate(all="ignore"):
            found = None
            if stencil is not None:
                h, raised, found = stencil[0](block, coords)
            batch = RootBatch(data, points, stencil=found)
            kept = _kept(batch, keep)
            has_gradient = batch.implicit.has_gradient.tolist()
            report, flagged, first = None, None, [None] * batch.solved
            if stencil is not None:
                checked = [[k for k in roots if has_gradient[k]] for roots in kept]
                report, flagged, first = _stencil_lanes(stencil[1], h, raised.tolist(), batch,
                                                        checked)
        items = []
        for anchor, roots, c in zip(block, kept, first):
            pairs = []
            for k in roots:
                check = None
                if stencil is not None and has_gradient[k]:
                    if flagged[c]:
                        check = partial(_quietly, stencil[2], anchor, batch.implicit.q.item(k))
                    else:
                        check = partial(report, c)
                    c += 1
                pairs.append((k, check))
            items.append((anchor, pairs))
        yield batch, items
        if batch.error is not None:
            raise batch.error


def _kept(batch, keep):
    """The kept root lanes of each of the batch's solved points."""
    roots = [batch.lanes(i) for i in range(batch.solved)]
    if keep is None:
        return roots
    q = batch.implicit.q
    mask = keep(q.z1.complex(), q.z2.complex()).tolist()
    return [list(compress(r, mask[r.start:r.stop])) for r in roots]


def _quietly(fn, *args):
    """``fn(*args)`` with numpy's floating-point warnings off."""
    with np.errstate(all="ignore"):
        return fn(*args)


def _stencil_lanes(lanes, h, raised, batch, checked):
    """The reports of a block's roots to check, over lanes: (report,
    flagged, first).  ``checked[a]`` holds anchor a's kept root lanes with
    a gradient.  They are lanes first[a], first[a] + 1, ...; ``report(k)``
    builds lane k's report, which is valid where flagged[k] is false.
    Anchor a's step is h[a]; every lane of an anchor whose scale raised
    (raised[a]) is flagged: its roots' references raise that error.

    The stencil points of the anchors whose scale did not raise, in anchor
    order, were solved with the anchors, in ``batch``'s root pass.  Every
    branch pick of the block is one ``nearest_lanes`` call: for each root,
    its branch's value at the anchor (the nearest of all the anchor's
    roots) and at each of the anchor's stencil points.  ``lanes`` then
    computes every report at once.  A root with a pick that is not
    ``nearest_root``'s is flagged too.  The stencil points' roots are
    dropped once the picks are made."""
    s1, s2, s_count = batch.stencil_roots()
    first = [None] * len(checked)
    live = [a for a, roots in enumerate(checked) if roots]
    report = None
    flagged = []
    ok = [a for a in live if not raised[a]]
    if ok:
        sizes = [len(checked[a]) for a in ok]
        owner = np.repeat(np.arange(len(ok)), sizes)
        for a, k in zip(ok, accumulate(sizes, initial=0)):
            first[a] = k
        q = batch.implicit.q[[k for a in ok for k in checked[a]]]
        q1, q2 = q.z1.complex(), q.z2.complex()
        r1, r2, count = batch.padded_roots()
        # the table: the anchors' rows, then every stencil point's; anchor
        # a's stencil points are rows start[a], start[a] + 1, ...
        solved = [a for a, r in enumerate(raised) if not r]
        n = len(s1) // len(solved)
        start = np.zeros(len(raised), dtype=np.intp)
        start[solved] = np.arange(len(ok), len(ok) + len(s1), n)
        rows = np.empty((len(owner), n + 1), dtype=np.intp)
        rows[:, 0] = owner
        rows[:, 1:] = start[ok][owner][:, None] + np.arange(n)
        t1, t2 = (_rows(a[ok], b) for a, b in ((r1, s1), (r2, s2)))
        # each copy freed as soon as it is read: held through the picks,
        # they raised the 2 000-point verify --points run's peak RSS
        del s1, s2
        z1, z2, exact = nearest_lanes(t1, t2, np.concatenate((count[ok], s_count)),
                                      rows.ravel(), np.repeat(q1, n + 1), np.repeat(q2, n + 1))
        del t1, t2
        report, flagged = lanes(z1.reshape(-1, n + 1), z2.reshape(-1, n + 1), h[ok][owner])
        flagged = (flagged | ~exact.reshape(-1, n + 1).all(axis=1)).tolist()
    for a in live:
        if raised[a]:
            first[a] = len(flagged)
            flagged += [True] * len(checked[a])
    return report, flagged, first


def _rows(a, b):
    """The rows of a, then those of b, zero-padded to the wider."""
    out = np.zeros((len(a) + len(b), max(a.shape[1], b.shape[1])), dtype=a.dtype)
    out[:len(a), :a.shape[1]] = a
    out[len(a):, :b.shape[1]] = b
    return out


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
