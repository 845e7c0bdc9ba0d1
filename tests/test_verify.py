"""Finite-difference verification against the exact implicit formulas."""

import contextlib
import gc
import io
import json
import math
import sys
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bhm.cli
import bhm.slices
import bhm.verify
import bhm.weierstrass
from bhm.cli import run
from bhm.core import Bicomplex, CArray, I1, I2, J
from bhm.errors import BhmError, BranchJumpError, DegenerateAllComponentsError
from bhm.geometry import BVec3, CVec3
from bhm.holo import Const, HoloFn, Var, holofn_from_json
from bhm.slices import (
    SliceKind,
    embed_domain,
    projectable_roots,
    slice_checks,
    slice_data,
    tracked_real_branch,
    wave_residual,
    wave_stencil,
)
from bhm.verify import (
    DEFAULT_STEP,
    PointClass,
    classify_point,
    fd_residuals,
    fd_stencil,
    nearest_lanes,
    nearest_root,
    point_checks,
    rank_one_degeneracy_check,
    tracked_branch,
)
from bhm.weierstrass import RootBatch, WeierstrassData, solve_phi, solve_roots

from conftest import rand_complex
import report_rows as rr

Q = Var()
RADIAL = WeierstrassData(HoloFn(Q), HoloFn(Const(0)))
PROJECTION = WeierstrassData(HoloFn(Const(0)), HoloFn(Q * 0.5))
DISC = WeierstrassData(HoloFn(Q), HoloFn(Q) * HoloFn.const(I2))


def proj_phi(z):
    return Bicomplex(z.u2, z.u3)


class TestClassification:
    def test_spec_examples(self):
        zero = classify_point(BVec3(Bicomplex(0), Bicomplex(0), Bicomplex(0)))
        assert zero.kind is PointClass.ZERO_DIFFERENTIAL and zero.dilation == 0
        reg = classify_point(BVec3(Bicomplex(0), Bicomplex(1), I2))
        assert reg.kind is PointClass.REGULAR and abs(reg.dilation - 2) < 1e-14
        deg = classify_point(BVec3((1 + J), (1 + J) * I1, Bicomplex(0)))
        assert deg.kind is PointClass.DEGENERATE

    def test_trichotomy_random(self, rng):
        for _ in range(200):
            grad = BVec3(*(Bicomplex(rand_complex(rng), rand_complex(rng))
                           for _ in range(3)))
            kinds = [classify_point(grad).kind]
            assert len(kinds) == 1  # classify returns exactly one kind

    def test_scaled_null_gradient_stays_degenerate(self, rng):
        base = BVec3((1 + J), (1 + J) * I1, Bicomplex(0))
        for s in (1e-3, 1.0, 1e3):
            assert classify_point(base * Bicomplex(s)).kind is PointClass.DEGENERATE


class TestFdResiduals:
    def test_projection_anywhere(self, rng):
        for _ in range(10):
            z = CVec3(*(rand_complex(rng, 3.0) for _ in range(3)))
            rep = fd_residuals(proj_phi, z)
            assert rep.laplacian_residual <= 1e-8
            assert rep.nullness_residual <= 1e-8
            assert rep.cr_residual <= 1e-8
            assert rep.classification.kind is PointClass.REGULAR
            assert abs(rep.classification.dilation - 2) <= 1e-6

    def test_radial_regular_branch(self):
        phi = tracked_branch(RADIAL, (0, 1, 0), branch=3)
        rep = fd_residuals(phi, (0, 1, 0))
        assert rep.laplacian_residual <= 1e-6
        assert rep.nullness_residual <= 1e-6
        assert rep.classification.kind is PointClass.REGULAR

    def test_radial_degenerate_branch(self):
        sols = solve_phi(RADIAL, (0, 1, 0))
        jroot = next(s for s in sols if abs(s.q - J) < 1e-9)
        phi = tracked_branch(RADIAL, (0, 1, 0), q0=jroot.q)
        rep = fd_residuals(phi, (0, 1, 0))
        assert rep.classification.kind is PointClass.DEGENERATE
        assert rep.laplacian_residual <= 1e-6
        assert rep.nullness_residual <= 1e-6

    def test_gradient_agreement_with_implicit(self, rng):
        count = 0
        while count < 20:
            z = CVec3(*(rand_complex(rng) for _ in range(3)))
            if abs(z.square()) < 0.1 or abs(z.u2 ** 2 + z.u3 ** 2) < 0.1:
                continue
            count += 1
            sols = [s for s in solve_phi(RADIAL, z) if s.gradient is not None]
            for sol in sols:
                phi = tracked_branch(RADIAL, z, q0=sol.q)
                rep = fd_residuals(phi, z)
                diff = max(abs(a - b) for a, b in zip(rep.gradient, sol.gradient))
                assert diff <= 1e-5 * max(1.0, sol.gradient.norm())

    def test_branch_jump_detection(self):
        # a discontinuous map must be flagged
        def jumpy(z):
            return Bicomplex(0 if z.u1.real <= 0 else 1e3, 0)

        with pytest.raises(BranchJumpError):
            fd_residuals(jumpy, (0, 1, 0))

    def test_report_json(self):
        rep = fd_residuals(proj_phi, (0.5, 1, 2))
        js = rep.to_json()
        assert set(js) == {"laplacian", "nullness", "cr", "class", "lambda"}
        assert js["class"] == "regular"


class TestRankOne:
    def test_null_linear_map(self, rng):
        phi = lambda z: Bicomplex(z.u1 + 1j * z.u2, 0.0)
        pts = [CVec3(*(rand_complex(rng) for _ in range(3))) for _ in range(10)]
        report = rank_one_degeneracy_check(phi, pts)
        assert report["applicable"] and report["ok"]
        assert report["n_degenerate"] == report["n_points"]

    def test_constant_map(self, rng):
        phi = lambda z: Bicomplex(3.25, 0.0)
        pts = [CVec3(*(rand_complex(rng) for _ in range(3))) for _ in range(5)]
        report = rank_one_degeneracy_check(phi, pts)
        assert report["applicable"] and report["ok"]
        assert report["n_zero_differential"] == report["n_points"]

    def test_full_rank_flagged(self, rng):
        pts = [CVec3(*(rand_complex(rng) for _ in range(3))) for _ in range(5)]
        report = rank_one_degeneracy_check(proj_phi, pts)
        assert report["rank2_detected"] and not report["applicable"]
        assert report["ok"]

    def test_holomorphic_null_gradient_map(self, rng):
        # phi(z) = (z1 + i z2)^2 into C[i1]: rank one, degenerate off criticals
        phi = lambda z: Bicomplex((z.u1 + 1j * z.u2) ** 2, 0.0)
        pts = [CVec3(1 + 0.2 * k, 0.5, -0.3) for k in range(5)]
        report = rank_one_degeneracy_check(phi, pts)
        assert report["applicable"] and report["ok"]
        assert report["n_regular"] == 0


# ---------------------------------------------------------------------------
# point_checks and slice_checks, and the CLI on them, read their stencils'
# roots from a RootBatch by lane; the library's fd_residuals/wave_residual
# over tracked branches are the reference

VAR_JSON = {"op": "var"}
CONST0_JSON = {"op": "const", "value": [0, 0]}
HALF_Q_JSON = {"op": "mul", "args": [{"op": "const", "value": [0.5, 0]}, VAR_JSON]}

_complex = st.builds(complex, st.floats(-2, 2), st.floats(-2, 2))
_gaussian_int = st.builds(complex, st.integers(-2, 2), st.integers(-2, 2))
# a zero of either sign, in either part
_signed_zero_part = st.sampled_from([0.0, -0.0])
_zero_coord = st.one_of(st.builds(complex, _signed_zero_part, _signed_zero_part),
                        st.builds(complex, _signed_zero_part, st.floats(-2, 2)),
                        st.builds(complex, st.floats(-2, 2), _signed_zero_part))
# Gaussian integers make exact ties; zeros of either sign keep their bits
_coordinate = st.one_of(_complex, _gaussian_int, _zero_coord)
_coefficient = st.one_of(_complex, _gaussian_int)
_real_coordinate = st.one_of(st.floats(-1.5, 1.5), st.integers(-1, 1).map(float),
                             _signed_zero_part)
_real_coefficient = st.one_of(st.floats(-2, 2), st.integers(-2, 2).map(float))
# near and past the edge of the double range of a square
_huge = st.sampled_from([1e154, 1e155, -1e155, 1e300, -1e300])
_huge_coordinate = st.one_of(_complex, st.builds(complex, _huge, st.floats(-2, 2)),
                             st.builds(complex, st.floats(-2, 2), _huge))
# G = q with H = 0 (radial) or H = q i2 (disc)
_radial_or_disc = st.sampled_from([
    ({"f": VAR_JSON}, {"f": CONST0_JSON}),
    ({"f": VAR_JSON}, {"f1": {"op": "mul", "args": [{"op": "const", "value": [0, 1]}, VAR_JSON]},
                       "f2": {"op": "mul", "args": [{"op": "const", "value": [0, -1]}, VAR_JSON]}}),
])


def _poly_json(c0, c1, c2):
    def const(c):
        return {"op": "const", "value": [c.real, c.imag]}
    return {"op": "add", "args": [const(c0), {"op": "mul", "args": [const(c1), VAR_JSON]},
                                  {"op": "mul", "args": [const(c2), {"op": "pow",
                                                                     "args": [VAR_JSON],
                                                                     "exp": 2}]}]}


@st.composite
def _quadratic(draw, coeff=_complex):
    """Per-side quadratic data as CLI JSON: the f-side polynomial may differ
    from the e-side."""
    def poly():
        return _poly_json(*(complex(c) for c in draw(st.lists(coeff, min_size=3,
                                                              max_size=3))))
    f1 = poly()
    return {"f1": f1, "f2": poly()} if draw(st.booleans()) else {"f": f1}


def _bits(z):
    """Exact key of a point: its bits, since ``0j == -0j``."""
    return tuple(x.hex() for c in (z.u1, z.u2, z.u3) for x in (c.real, c.imag))


def _count_solves(monkeypatch, batches=None):
    """Every point the CLI solves: the lanes of its batched root passes (the
    anchors and the stencil points that share their pass) and the lanes a
    batch leaves to the scalar path.  Each RootBatch built is appended to
    ``batches``, if given."""
    calls = []
    solve = bhm.weierstrass.solve_roots
    batch = bhm.verify.RootBatch

    def counted(data, z):
        calls.append(z)
        return solve(data, z)

    def points_of(points):
        # the stencil checks hand the batch their points as (n, 3) lanes
        if isinstance(points, CArray):
            return [CVec3(*z) for z in points.complex().tolist()]
        return list(points)

    def counted_batch(data, points, stencil=None):
        points = points_of(points)
        calls.extend(points)
        if stencil is not None:
            stencil = points_of(stencil)
            calls.extend(stencil)
        made = batch(data, points, stencil=stencil)
        if batches is not None:
            batches.append(made)
        return made

    monkeypatch.setattr(bhm.weierstrass, "solve_roots", counted)
    monkeypatch.setattr(bhm.verify, "RootBatch", counted_batch)
    return calls


def _report(config):
    out = io.StringIO()
    assert run(config, out) == 0
    return json.loads(out.getvalue())["results"]


def _outcome(fn):
    """``fn()``, or the type and message of the error it raises."""
    try:
        return fn()
    except Exception as exc:
        return type(exc).__name__, str(exc)


# the keys of PdeResidualReport.to_json, in its order
_FD_KEYS = ("laplacian", "nullness", "cr", "class", "lambda")


def _verify_fd(G, H, *zs):
    """Per root of a ``verify --points`` run at the points zs: its ``fd``
    entry, or the error the run raises.  The reference is ``fd_residuals``
    over ``tracked_branch``, point by point; ``point_checks``, run with no
    ``np.errstate``, must give it too."""
    config = {"task": "verify", "data": {"G": G, "H": H},
              "points": [[[c.real, c.imag] for c in z] for z in zs]}
    data = WeierstrassData(holofn_from_json(G), holofn_from_json(H))

    def cli():
        with np.errstate(all="ignore"):  # as bhm.cli.main runs
            results = rr.results("verify", config)
        # the report's keys are sorted; to_json's order is the reference's
        return [repr(r["fd"] and {key: r["fd"][key] for key in _FD_KEYS})
                for res in results for r in res["roots"]]

    def library():
        return [repr(None if check is None else check())
                for _, checks in point_checks(data, zs) for _, check in checks]

    def reference():
        with np.errstate(all="ignore"):
            return [repr(None if sol.gradient is None else fd_residuals(
                        tracked_branch(data, z, q0=sol.q), z).to_json())
                    for z in zs for sol in solve_phi(data, z)]

    want = _outcome(reference)
    assert _outcome(library) == want
    return _outcome(cli), want


def _slice_row(check):
    """A slice row's (harmonic_res, null_res, error) from its check."""
    if check is None:
        return repr((None, None, None))
    try:
        hr, nr = check()
    except BhmError as exc:
        return repr((None, None, type(exc).__name__))
    return repr((hr + 0.0, nr + 0.0, None))


def _slice_rows(kind, G, H, *xs):
    """Per row of a ``slice`` run at the real points xs: (harmonic_res,
    null_res, error), or the error the run raises.  The reference is
    ``wave_residual`` over ``tracked_real_branch``, point by point;
    ``slice_checks``, run with no ``np.errstate``, must give it too, at the
    default step and at h = 3e-4."""
    config = {"slice": kind.value, "g": G, "h": H, "points": [list(x) for x in xs]}
    data = slice_data(kind, holofn_from_json(G), holofn_from_json(H))

    def cli():
        with np.errstate(all="ignore"):  # as bhm.cli.main runs
            rows = rr.results("slice", config)
        return [repr((r["harmonic_res"], r["null_res"], r.get("error"))) for r in rows]

    def library(h):
        return [_slice_row(check) for _, checks in slice_checks(kind, data, xs, h=h)
                for _, check in checks]

    def reference(h):
        with np.errstate(all="ignore"):
            return [_slice_row(None if sol.gradient is None else partial(
                        wave_residual, kind, tracked_real_branch(kind, data, x, q0=sol.q), x, h))
                    for x in xs for sol in projectable_roots(kind, data, x)]

    want = _outcome(partial(reference, None))
    assert _outcome(partial(library, None)) == want
    assert _outcome(partial(library, 3e-4)) == _outcome(partial(reference, 3e-4))
    return _outcome(cli), want


@contextlib.contextmanager
def _block_points(n):
    """Root passes in blocks of n anchors where both components have degree
    2 (4 lanes an anchor), as ``weierstrass.BLOCK_LANES`` 4n (None: left at
    its default)."""
    saved = bhm.weierstrass.BLOCK_LANES
    bhm.weierstrass.BLOCK_LANES = 4 * n if n else saved
    try:
        yield
    finally:
        bhm.weierstrass.BLOCK_LANES = saved


class TestRootTable:
    """The roots a point's stencils read: each stencil point solved once,
    shared by every root of the point, and the nearest root on a tie."""

    @pytest.mark.parametrize("kind, g, h, points, n_rows", [
        ("euclidean", VAR_JSON, CONST0_JSON, [[0.3, 0.7, -0.4], [1.2, 0.5, 0.3]], 4),
        ("minkowski_d", VAR_JSON, CONST0_JSON, [[0.3, 0.7, -0.4]], 4),
        ("minkowski_c", CONST0_JSON, HALF_Q_JSON, [[0.3, 0.7, -0.4]], 1),
    ], ids=["euclidean-2-roots", "minkowski_d-4-roots", "projection-1-root"])
    def test_slice_point_solves_its_stencil_once(self, kind, g, h, points, n_rows,
                                                 monkeypatch):
        batches = []
        calls = _count_solves(monkeypatch, batches)
        rows = _report({"task": "slice", "slice": kind, "g": {"f": g}, "h": {"f": h},
                        "points": points})
        assert len(rows) == n_rows
        assert all(r["harmonic_res"] is not None for r in rows)
        # the centre and its 12 offsets, each solved once, however many
        # roots share them
        assert len(calls) == 13 * len(points)
        assert len({_bits(z) for z in calls}) == len(calls)
        # the anchors and their stencil points share one root pass
        assert len(batches) == 1

    def test_verify_point_solves_its_stencil_once(self, monkeypatch):
        batches = []
        calls = _count_solves(monkeypatch, batches)
        points = [[0.3, 1.1, -0.2], [1.0, -0.5, [0.2, 0.4]]]
        results = _report({"task": "verify", "points": points,
                           "data": {"G": {"f": VAR_JSON}, "H": {"f": CONST0_JSON}}})
        assert [sum(r["fd"] is not None for r in res["roots"]) for res in results] == [4, 4]
        assert len(calls) == 25 * len(points)
        assert len({_bits(z) for z in calls}) == len(calls)
        assert len(batches) == 1

    @pytest.mark.parametrize("block", [None, 1, 2])
    @pytest.mark.parametrize("config, per_point", [
        ({"task": "slice", "slice": "euclidean", "g": {"f": VAR_JSON},
          "h": {"f": CONST0_JSON}}, 13),
        ({"task": "verify", "data": {"G": {"f": VAR_JSON}, "H": {"f": CONST0_JSON}}}, 25),
        ({"task": "slice", "slice": "euclidean", "g": {"f": VAR_JSON},
          "h": {"f": CONST0_JSON}, "fd": False}, 1),
    ], ids=["slice", "verify", "slice-no-fd"])
    def test_one_root_pass_per_block(self, config, per_point, block, monkeypatch):
        # the anchors of a block and their stencil points are solved in one
        # RootBatch, each point once; with "fd" off no stencil point is built
        points = [[0.3, 1.1, -0.2], [1.0, -0.5, 0.2], [0.7, 0.1, 0.9]]
        batches = []
        calls = _count_solves(monkeypatch, batches)
        with _block_points(block):
            _report(dict(config, points=points))
        assert len(batches) == {None: 1, 1: 3, 2: 2}[block]
        assert len(calls) == per_point * len(points)
        assert len({_bits(z) for z in calls}) == len(calls)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(roots=st.lists(st.builds(Bicomplex, _gaussian_int, _gaussian_int),
                          min_size=1, max_size=8),
           q0=st.builds(Bicomplex, _complex, st.sampled_from([0j, 1j, -1 + 0.5j])))
    def test_nearest_root_is_min_of_abs(self, roots, q0):
        # integer roots around q0 tie often: the first in the list wins
        assert nearest_root(roots, q0) is min(roots, key=lambda q: abs(q - q0))

    def test_exact_ties_keep_the_first_root(self):
        roots = [Bicomplex(1), Bicomplex(-1), Bicomplex(1j), Bicomplex(0, 1)]
        for k in range(len(roots)):
            order = roots[k:] + roots[:k]
            assert nearest_root(order, Bicomplex(0)) is order[0]


class TestStencilLanes:
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(G=_quadratic(), H=_quadratic(), z=st.tuples(*[_complex] * 3))
    def test_verify_fd_matches_fd_residuals(self, G, H, z):
        got, want = _verify_fd(G, H, CVec3(*z))
        assert got == want

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(G=_quadratic(), H=_quadratic(),
           z=st.tuples(_zero_coord, st.one_of(_zero_coord, _complex), _complex))
    def test_stencil_zeros_of_either_sign(self, G, H, z):
        # a stencil point keeps the anchor's signed zeros in the coordinates
        # it does not shift, and its shifted coordinate's zero real part
        # turns +0.0 on the imaginary line (x + 0.0): each lane keeps its bits
        got, want = _verify_fd(G, H, CVec3(*z))
        assert got == want

    def test_the_stencil_holds_both_zeros(self):
        z = CVec3(complex(-0.0, 0.5), complex(-0.0, -0.0), -0.2)
        points = fd_stencil(z)[1]
        zeros = {math.copysign(1.0, x) for p in points
                 for c in (p.u1, p.u2, p.u3) for x in (c.real, c.imag) if x == 0.0}
        assert zeros == {1.0, -1.0}
        assert math.copysign(1.0, points[4].u1.real) == 1.0

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    # real coefficients: random complex ones leave almost no root in a slice
    @given(G=_quadratic(st.floats(-2, 2)), H=_quadratic(st.floats(-2, 2)),
           kind=st.sampled_from(list(SliceKind)),
           x=st.tuples(*[st.floats(-1.5, 1.5)] * 3))
    def test_slice_rows_match_wave_residual(self, G, H, kind, x):
        got, want = _slice_rows(kind, G, H, x)
        assert got == want

    # G = q, H = c q: at x = (a, 0, 0) both sides are linear with the root 0,
    # in every slice; at x1 = -c both vanish identically.  With c = -(a + h)
    # the stencil's first point x + h is such a point
    SCALAR_LANE = (0.3, 0.0, 0.0)
    SCALAR_C = -(0.3 + DEFAULT_STEP)

    def _scalar_lane_data(self):
        return {"f": VAR_JSON}, {"f": {"op": "mul", "args": [
            {"op": "const", "value": [self.SCALAR_C, 0]}, VAR_JSON]}}

    def test_a_raising_scalar_lane_is_a_slice_row_error(self):
        G, H = self._scalar_lane_data()
        x = self.SCALAR_LANE
        data = slice_data(SliceKind.EUCLIDEAN, holofn_from_json(G), holofn_from_json(H))
        stencil = [embed_domain(SliceKind.EUCLIDEAN, p) for p in wave_stencil(x)[2]]
        # the batch leaves the lane to the scalar path, which raises: the
        # array pass found no roots there
        batch = RootBatch(data, stencil)
        assert batch.solved == 0 and batch.padded_roots()[2][0] == 0
        with pytest.raises(DegenerateAllComponentsError):
            solve_roots(data, stencil[0])
        got, want = _slice_rows(SliceKind.EUCLIDEAN, G, H, x)
        assert got == want == [repr((None, None, "DegenerateAllComponentsError"))]

    def test_a_raising_scalar_lane_fails_verify(self, monkeypatch, capsys):
        G, H = self._scalar_lane_data()
        z = CVec3(*self.SCALAR_LANE)
        data = WeierstrassData(holofn_from_json(G), holofn_from_json(H))
        batch = RootBatch(data, fd_stencil(z)[1])
        assert batch.solved == 0 and batch.padded_roots()[2][0] == 0
        got, want = _verify_fd(G, H, z)
        assert got == want
        assert want[0] == "DegenerateAllComponentsError"
        config = {"task": "verify", "data": {"G": G, "H": H}, "points": [list(self.SCALAR_LANE)]}
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(config)))
        code = bhm.cli.main([])
        out, err = capsys.readouterr()
        assert (code, out) == (3, "")
        with pytest.raises(DegenerateAllComponentsError) as scalar:
            solve_roots(data, fd_stencil(z)[1][0])
        assert json.loads(err) == {"error": {"type": "DegenerateAllComponentsError",
                                             "message": str(scalar.value)}}

    # -- blocks of many points, read over lanes ---------------------------

    @pytest.mark.parametrize("block", [1, 2, 7, None])
    @settings(max_examples=8, deadline=None, derandomize=True, database=None)
    @given(G=_quadratic(_coefficient), H=_quadratic(_coefficient),
           zs=st.lists(st.tuples(*[_coordinate] * 3), min_size=1, max_size=6))
    def test_verify_blocks_match_fd_residuals(self, block, G, H, zs):
        with _block_points(block):
            got, want = _verify_fd(G, H, *(CVec3(*z) for z in zs))
        assert got == want

    @pytest.mark.parametrize("block", [1, 2, 7, None])
    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(G=_quadratic(_real_coefficient), H=_quadratic(_real_coefficient),
           kind=st.sampled_from(list(SliceKind)),
           xs=st.lists(st.tuples(*[_real_coordinate] * 3), min_size=1, max_size=9))
    def test_slice_blocks_match_wave_residual(self, block, G, H, kind, xs):
        with _block_points(block):
            got, want = _slice_rows(kind, G, H, *xs)
        assert got == want

    # G = q, H = c q with c = -(1 + 0.3 h): the anchor root at x = (1, 0, 0)
    # is q = 0, and on the z2 lines of the stencil the four roots lie at
    # distance exactly 1.0 from it.  The run reads those ties, though its
    # output does not depend on them (an earlier line jumps); the first root
    # winning a tie is TestNearestLanes' test
    TIE_C = -(1.0 + 0.3 * DEFAULT_STEP)

    def _tie_data(self):
        return {"f": VAR_JSON}, {"f": {"op": "mul", "args": [
            {"op": "const", "value": [self.TIE_C, 0]}, VAR_JSON]}}

    def test_the_tie_data_ties(self):
        G, H = self._tie_data()
        data = WeierstrassData(holofn_from_json(G), holofn_from_json(H))
        h, points = fd_stencil(CVec3(1.0, 0.0, 0.0))
        keys = [abs(q) for q in solve_roots(data, points[12])]
        assert len(keys) == 4 and keys.count(min(keys)) == 4

    @pytest.mark.parametrize("block", [1, 2, None])
    def test_verify_with_exact_ties(self, block):
        G, H = self._tie_data()
        with _block_points(block):
            got, want = _verify_fd(G, H, CVec3(0.3, 0.5, 0.9), CVec3(1.0, 0.0, 0.0))
        assert got == want
        assert want[0] == "BranchJumpError"

    @pytest.mark.parametrize("kind", list(SliceKind))
    def test_slices_with_exact_ties(self, kind):
        G, H = self._tie_data()
        got, want = _slice_rows(kind, G, H, (0.3, 0.5, 0.9), (1.0, 0.0, 0.0), (2.0, 1.0, 0.0))
        assert got == want

    def test_a_branch_jump_is_a_slice_row_error(self):
        # G = q, H = -h q at the origin of Minkowski -> D
        G = {"f": VAR_JSON}
        H = {"f": {"op": "mul", "args": [{"op": "const", "value": [-DEFAULT_STEP, 0]},
                                         VAR_JSON]}}
        got, want = _slice_rows(SliceKind.MINKOWSKI_D, G, H, (0.3, 0.2, 0.1), (0.0, 0.0, 0.0))
        assert got == want
        assert repr((None, None, "BranchJumpError")) in want

    def test_a_branch_jump_fails_verify_with_the_scalar_message(self, monkeypatch, capsys):
        # radial data a step from the root collision z.z = 0
        G, H = {"f": VAR_JSON}, {"f": CONST0_JSON}
        z = CVec3(1e-3, 1.0, 1j)
        got, want = _verify_fd(G, H, CVec3(0.3, 1.1, -0.2), z)
        assert got == want
        assert want[0] == "BranchJumpError"
        config = {"task": "verify", "data": {"G": G, "H": H},
                  "points": [[0.3, 1.1, -0.2], [1e-3, 1.0, [0.0, 1.0]]]}
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(config)))
        code = bhm.cli.main([])
        out, err = capsys.readouterr()
        assert (code, out) == (3, "")
        assert json.loads(err) == {"error": {"type": "BranchJumpError", "message": want[1]}}

    def test_a_stencil_value_off_the_slice_is_a_row_error(self):
        # radial data on Minkowski -> C, a step off the light cone
        got, want = _slice_rows(SliceKind.MINKOWSKI_C, {"f": VAR_JSON}, {"f": CONST0_JSON},
                                (0.3, 1.2, 0.4), (1.0 + DEFAULT_STEP, 1.0, 0.0))
        assert got == want
        assert repr((None, None, "NotInSliceError")) in want

    @pytest.mark.parametrize("block", [1, 3, None])
    def test_a_raising_lane_among_other_points(self, block):
        G, H = self._scalar_lane_data()
        with _block_points(block):
            got, want = _slice_rows(SliceKind.EUCLIDEAN, G, H, (0.9, 0.4, -0.2),
                                    self.SCALAR_LANE, (1.3, -0.5, 0.7))
            assert got == want
            assert repr((None, None, "DegenerateAllComponentsError")) in want
            got, want = _verify_fd(G, H, CVec3(0.9, 0.4, -0.2), CVec3(*self.SCALAR_LANE))
        assert got == want
        assert want[0] == "DegenerateAllComponentsError"

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(GH=_radial_or_disc, zs=st.lists(st.tuples(*[_huge_coordinate] * 3),
                                           min_size=1, max_size=3))
    def test_values_past_the_double_range_of_squares(self, GH, zs):
        # a key, an abs or a float ** 2 that overflows raises OverflowError on
        # the scalar path, and a NaN compares otherwise; the lanes flag both
        # and leave the root to that path
        got, want = _verify_fd(*GH, *(CVec3(*z) for z in zs))
        assert got == want

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(GH=_radial_or_disc, kind=st.sampled_from(list(SliceKind)),
           xs=st.lists(st.tuples(*[st.one_of(st.floats(-1.5, 1.5), _huge)] * 3),
                       min_size=1, max_size=3))
    def test_slice_values_past_the_double_range_of_squares(self, GH, kind, xs):
        got, want = _slice_rows(kind, *GH, *xs)
        assert got == want


def _const(z):
    return {"op": "const", "value": [complex(z).real, complex(z).imag]}


# slices whose stencils meet keys that are not finite: a NaN key, where
# nearest_root keeps the first root (here one off the slice), and a key past
# the double range
@pytest.mark.parametrize("g, h, x", [
    ({"f": {"op": "sub", "args": [_const(-1), VAR_JSON]}},
     {"f1": {"op": "mul", "args": [_const(-2), VAR_JSON]},
      "f2": {"op": "pow", "args": [VAR_JSON], "exp": 2}},
     (0.0, -2.0, 0.0)),
    ({"f": _poly_json(1, -1.4559415168715484 + 1j, -1.34 + 1.41j)},
     {"f1": _poly_json(-2 + 0.2j, -1.125805460875931j, -1), "f2": _const(0.31 - 0.25j)},
     (-1.2178561279776225, -1e155, 0.8013907338723274)),
], ids=["nan-key", "huge-key"])
def test_slice_rows_with_keys_that_are_not_finite(g, h, x):
    got, want = _slice_rows(SliceKind.EUCLIDEAN, g, h, (0.9, 0.4, -0.2), x)
    assert got == want
    assert want[-1] != repr((None, None, None))


class TestNearestLanes:
    """``nearest_lanes`` picks what ``nearest_root`` picks, ties and all,
    and says where it cannot."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(lanes=st.lists(st.lists(st.builds(Bicomplex, _gaussian_int, _gaussian_int),
                                   max_size=6), min_size=1, max_size=4),
           q0=st.builds(Bicomplex, st.one_of(_complex, st.builds(complex, _huge, _huge)),
                        st.sampled_from([0j, 1j, -1 + 0.5j, 3e149 + 0j, 1e151j, 1e300 + 0j])))
    def test_picks_nearest_root(self, lanes, q0):
        # Gaussian-integer roots around q0 tie often: the first in a lane
        # wins.  A pick is exact wherever the keys stay below 1e150, and
        # never where one is not finite
        width = max(1, max(map(len, lanes)))
        r1, r2 = (np.array([[getattr(q, part) for q in lane] + [7j] * (width - len(lane))
                            for lane in lanes]) for part in ("z1", "z2"))
        count = np.array([len(lane) for lane in lanes])
        queries = np.arange(len(lanes)).repeat(2)
        z1, z2, exact = nearest_lanes(r1, r2, count, queries,
                                      np.full(len(queries), q0.z1), np.full(len(queries), q0.z2))
        for k, j in enumerate(queries):
            try:
                want = nearest_root(lanes[j], q0) if lanes[j] else None
                keys = [math.sqrt(abs(q.z1 - q0.z1) ** 2 + abs(q.z2 - q0.z2) ** 2)
                        for q in lanes[j]]
                finite = want is not None and all(map(math.isfinite, keys))
            except OverflowError:
                finite = False
            if finite and max(keys) < 1e150:
                assert exact[k]
            if exact[k]:
                assert finite
                assert _bits(CVec3(z1[k], z2[k], 0)) == _bits(CVec3(want.z1, want.z2, 0))

    def test_chunks_give_the_same_picks(self):
        roots = [[Bicomplex(complex(a, b), complex(b, -a)) for a in range(-2, 3)
                  for b in range(-1, 2)][:n] for n in (15, 3, 0, 9)]
        r1, r2 = (np.array([[getattr(q, part) for q in lane] + [0j] * (15 - len(lane))
                            for lane in roots]) for part in ("z1", "z2"))
        count = np.array([len(lane) for lane in roots])
        lane = np.arange(4).repeat(5)
        q1 = np.array([0.3 + 0.2j, 0j, -1 + 1j, 2.0 + 0j, 0.5j] * 4)
        q2 = np.array([0j, 1j, 0.5 + 0j, -0.25j, 1.0 + 0j] * 4)
        default = nearest_lanes(r1, r2, count, lane, q1, q2)
        for chunk in (1, 3, 16, 17, 40):
            with _patched(bhm.verify, "NEAREST_CHUNK", chunk):
                got = nearest_lanes(r1, r2, count, lane, q1, q2)
            for a, b in zip(got, default):
                assert a.tobytes() == b.tobytes()


@contextlib.contextmanager
def _patched(module, name, value):
    saved = getattr(module, name)
    setattr(module, name, value)
    try:
        yield
    finally:
        setattr(module, name, saved)


# cubic G and quadratic H on both sides: 36 roots at each point
_CUBIC_DATA = {
    "G": {"f1": {"op": "add", "args": [
        {"op": "const", "value": [0.5, 0]},
        {"op": "mul", "args": [{"op": "const", "value": [-1, 0]}, VAR_JSON]},
        {"op": "mul", "args": [{"op": "const", "value": [0.25, 0]},
                               {"op": "pow", "args": [VAR_JSON], "exp": 2}]},
        {"op": "pow", "args": [VAR_JSON], "exp": 3}]},
          "f2": {"op": "add", "args": [
        {"op": "const", "value": [-0.5, 0]},
        {"op": "mul", "args": [{"op": "const", "value": [0, 0.5]}, VAR_JSON]},
        {"op": "pow", "args": [VAR_JSON], "exp": 2},
        {"op": "pow", "args": [VAR_JSON], "exp": 3}]}},
    "H": {"f1": _poly_json(0.5, 1j, -0.5), "f2": _poly_json(1, -0.5, 0.25)},
}


@pytest.mark.parametrize("chunk", [1, 3])
def test_nearest_chunks_leave_verify_unchanged(chunk):
    config = {"task": "verify", "data": _CUBIC_DATA,
              "points": [[0.3, [0.7, 0.2], -0.4], [0.1, 0.9, [0.5, 0.5]],
                         [[-0.6, 0.1], 0.4, 1.2]]}
    default = _report(config)
    assert [sum(r["fd"] is not None for r in res["roots"]) for res in default] == [36] * 3
    with _patched(bhm.verify, "NEAREST_CHUNK", chunk):
        assert _report(config) == default


# benchmark-like scenes: radial and disc data at points off the singular sets
_CLEAN_SCENES = [
    {"task": "verify", "data": {"G": {"f": VAR_JSON}, "H": {"f": CONST0_JSON}},
     "points": [[0.3, 1.1, -0.2], [1.0, -0.5, [0.2, 0.4]], [[0.4, -0.3], 0.8, 1.5]]},
    {"task": "slice", "slice": "euclidean", "g": {"f": VAR_JSON}, "h": {"f": CONST0_JSON},
     "grid": {"min": [0.5, 0.8, 0.2], "max": [0.9, 1.2, 0.6], "counts": [2, 2, 2]}},
    {"task": "slice", "slice": "minkowski_c", "g": {"f": CONST0_JSON}, "h": {"f": HALF_Q_JSON},
     "grid": {"min": [-0.5, 0.3, 0.2], "max": [0.5, 0.9, 0.6], "counts": [2, 2, 2]}},
    {"task": "slice", "slice": "minkowski_d", "g": {"f": VAR_JSON},
     "h": {"f1": {"op": "mul", "args": [{"op": "const", "value": [-1, 0]}, VAR_JSON]},
           "f2": VAR_JSON},
     "grid": {"min": [0.3, -0.1, 0.1], "max": [0.5, 0.1, 0.3], "counts": [2, 2, 2]}},
]


def test_clean_stencil_blocks_never_call_the_scalar_path(monkeypatch):
    # no root of these scenes is flagged: every report comes from the lanes,
    # with no call of the reference the loop falls back on, no nearest_root,
    # no scalar report and no read of a stencil lane
    def scalar(*args, **kwargs):
        raise AssertionError("scalar stencil path called")

    read = []
    scalar_solve = bhm.weierstrass.solve_phi

    def counted_solve(data, z):
        read.append(z)
        return scalar_solve(data, z)

    for module, name in ((bhm.verify, "fd_residuals"), (bhm.verify, "tracked_branch"),
                         (bhm.slices, "wave_residual"), (bhm.slices, "tracked_real_branch"),
                         (bhm.verify, "nearest_root"), (bhm.verify, "fd_report"),
                         (bhm.slices, "wave_report")):
        monkeypatch.setattr(module, name, scalar)
    monkeypatch.setattr(bhm.weierstrass, "solve_phi", counted_solve)
    for config in _CLEAN_SCENES:
        read.clear()
        results = _report(config)
        # the anchors' rows and the stencil picks read the batches' arrays:
        # no point is left to solve_phi, of the anchors or of the stencils
        assert read == []
        if config["task"] == "slice":
            assert results and all(r["harmonic_res"] is not None for r in results)


# flagged roots, each next to a clean anchor: a branch jump (G = q, H = -h q
# at the origin of Minkowski -> D), a stencil lane that raises (G = q,
# H = c q, see TestStencilLanes.SCALAR_LANE) and stencil values off the
# slice (radial data on Minkowski -> C, a step off the light cone)
_FLAGGED_SCENES = [
    (SliceKind.MINKOWSKI_D, {"f": VAR_JSON}, {"f": {"op": "mul", "args": [
        {"op": "const", "value": [-DEFAULT_STEP, 0]}, VAR_JSON]}}, (0.0, 0.0, 0.0),
     "BranchJumpError"),
    (SliceKind.EUCLIDEAN, {"f": VAR_JSON}, {"f": {"op": "mul", "args": [
        {"op": "const", "value": [-(0.3 + DEFAULT_STEP), 0]}, VAR_JSON]}}, (0.3, 0.0, 0.0),
     "DegenerateAllComponentsError"),
    (SliceKind.MINKOWSKI_C, {"f": VAR_JSON}, {"f": CONST0_JSON}, (1.0 + DEFAULT_STEP, 1.0, 0.0),
     "NotInSliceError"),
]


def _counted(monkeypatch, module, name):
    """Patch ``module.name`` to log each call in the list it returns."""
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("kind, G, H, x, error", _FLAGGED_SCENES,
                         ids=["branch-jump", "raising-lane", "off-slice"])
def test_each_flagged_root_calls_the_reference_once_in_its_turn(kind, G, H, x, error,
                                                                monkeypatch):
    calls = _counted(monkeypatch, bhm.slices, "wave_residual")
    data = slice_data(kind, holofn_from_json(G), holofn_from_json(H))
    rows = []
    for _, pairs in slice_checks(kind, data, [(0.9, 0.4, -0.2), x]):
        for _, check in pairs:
            before = len(calls)
            row = _slice_row(check)
            rows.append((row, len(calls) - before))
    # every call is made in a check's turn: one per flagged root, none for
    # the others
    assert sum(n for _, n in rows) == len(calls)
    assert all(n == (1 if "Error" in row else 0) for row, n in rows)
    assert repr((None, None, error)) in [row for row, _ in rows]


def test_a_raising_lane_calls_the_verify_reference_once(monkeypatch):
    calls = _counted(monkeypatch, bhm.verify, "fd_residuals")
    G, H = TestStencilLanes()._scalar_lane_data()
    data = WeierstrassData(holofn_from_json(G), holofn_from_json(H))
    checks = point_checks(data, [CVec3(0.9, 0.4, -0.2), CVec3(*TestStencilLanes.SCALAR_LANE)])
    (_, clean), (_, raising) = checks
    for _, check in clean:
        check()
    assert calls == []
    (_, check), = raising
    with pytest.raises(DegenerateAllComponentsError):
        check()
    assert len(calls) == 1


@pytest.mark.parametrize("kind, G, H, x, error", _FLAGGED_SCENES,
                         ids=["branch-jump", "raising-lane", "off-slice"])
def test_the_reference_shares_no_batch_code(kind, G, H, x, error, monkeypatch):
    # once the loop has made the checks, none reads the batch: a flagged
    # root's runs the scalar reference alone
    data = slice_data(kind, holofn_from_json(G), holofn_from_json(H))
    xs = [(0.9, 0.4, -0.2), x]
    checks = [check for _, pairs in slice_checks(kind, data, xs) for _, check in pairs]

    def batch(*args, **kwargs):
        raise AssertionError("batch code called")

    for module, name in ((bhm.verify, "RootBatch"), (bhm.weierstrass, "RootBatch"),
                         (bhm.verify, "nearest_lanes"), (bhm.verify, "fd_lanes"),
                         (bhm.slices, "wave_lanes")):
        monkeypatch.setattr(module, name, batch)
    got = [_slice_row(check) for check in checks]
    with np.errstate(all="ignore"):
        want = [_slice_row(None if sol.gradient is None else partial(
                    wave_residual, kind, tracked_real_branch(kind, data, y, q0=sol.q), y))
                for y in xs for sol in projectable_roots(kind, data, y)]
    assert got == want
    assert repr((None, None, error)) in got


def test_stencil_batches_leave_no_blocks_allocated():
    # a small block left allocated by each stencil pass pins one allocator
    # arena per block of a long run, as np.cumsum once did in RootBatch
    def stencil_blocks():
        for config in _CLEAN_SCENES:
            _report(config)

    for _ in range(3):
        stencil_blocks()
    gc.collect()
    before = sys.getallocatedblocks()
    for _ in range(50 // len(_CLEAN_SCENES) + 1):
        stencil_blocks()
    gc.collect()
    assert sys.getallocatedblocks() - before < 10


def test_a_root_without_a_gradient_has_no_check():
    # radial data at (1, i, 0): one root, of multiplicity 4 and with no
    # gradient, in one block with a point whose roots all have one
    zs = [CVec3(1, 1j, 0), CVec3(0.3, 0.2, 0.1)]
    (_, first), (z, second) = point_checks(RADIAL, zs)
    assert [(sol.multiplicity, sol.gradient, check) for sol, check in first] == [(4, None, None)]
    assert len(second) == 4
    for sol, check in second:
        assert repr(check()) == repr(fd_residuals(tracked_branch(RADIAL, z, q0=sol.q),
                                                  z).to_json())


# the lane formulas on their own: branch values drawn directly, each line of
# a stencil quadratic in its step (so its scales agree) or, in a quarter of
# the rows, noisy; in a quarter of the rows the base value, and in a quarter
# the slopes, also take NaN and parts past the double range of a square
_part = st.one_of(st.floats(-3, 3), _signed_zero_part)
_rare_base = st.one_of(_part, st.sampled_from([1e154, -1e155, 1e300, -1e300, math.nan]))
_rare_slope = st.one_of(_part, st.sampled_from([1e150, -1e152, 1e300]))


@st.composite
def _branch_rows(draw, width, parts=4):
    """Rows of ``width`` branch values as (z1, z2) real parts: a base value,
    then four values per line, in the stencils' reading order."""
    lines = (width - 1) // 4
    noisy = draw(st.integers(0, 4 * lines - 1))  # the noisy line, if < lines

    def drawn(part):
        return [draw(part) for _ in range(parts)] + [0.0] * (4 - parts)

    base = drawn(_rare_base if draw(st.integers(0, 3)) == 0 else _part)
    slopes = _rare_slope if draw(st.integers(0, 3)) == 0 else _part
    row = [tuple(base)]
    for line in range(lines):
        slope, curve = drawn(slopes), drawn(slopes)
        for t in (1.0, -1.0, 0.5, -0.5):
            row.append(tuple(b + s * t + c * t * t + (draw(_part) if line == noisy else 0.0)
                             for b, s, c in zip(base, slope, curve)))
    return row


def _lane_arrays(rows):
    z1 = np.array([[complex(v[0], v[1]) for v in row] for row in rows])
    z2 = np.array([[complex(v[2], v[3]) for v in row] for row in rows])
    return z1, z2


class TestLaneFormulas:
    """``fd_lanes`` and ``wave_lanes`` give each lane the scalar report's
    bits, and flag every lane where the scalar report raises."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(rows=st.lists(_branch_rows(25), min_size=1, max_size=4),
           h=st.sampled_from([1e-3, 2.5e-3, 1e150]))
    def test_fd_lanes_give_fd_report_bits(self, rows, h):
        z1, z2 = _lane_arrays(rows)
        report, flagged = bhm.verify.fd_lanes(z1, z2, np.full(len(rows), h))
        for r, row in enumerate(rows):
            values = [Bicomplex(complex(a, b), complex(c, d)) for a, b, c, d in row]
            try:
                with np.errstate(all="ignore"):
                    want = bhm.verify.fd_report(values[0], values[1:], h).to_json()
            except (BranchJumpError, OverflowError):
                assert flagged[r]
                continue
            if not flagged[r]:
                assert repr(report(r)) == repr(want)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(kind=st.sampled_from(list(SliceKind)), data=st.data(),
           h=st.sampled_from([1e-3, 2.5e-3, 1e150]))
    def test_wave_lanes_give_wave_report_bits(self, kind, data, h):
        # values mostly in the slice: the parts off it are drawn as zeros
        # for all but some rows
        parts = data.draw(st.sampled_from([2, 4]))
        rows = data.draw(st.lists(_branch_rows(13, parts), min_size=1, max_size=4))
        if kind is SliceKind.MINKOWSKI_D:
            # the slice parts of D are z1.real and z2.imag
            rows = [[(a, c, d, b) for a, b, c, d in row] for row in rows]
        elif parts == 2:
            rows = [[(a, c, b, d) for a, b, c, d in row] for row in rows]
        z1, z2 = _lane_arrays(rows)
        report, flagged = bhm.slices.wave_lanes(kind, z1, z2, np.full(len(rows), h))
        for r, row in enumerate(rows):
            values = [Bicomplex(complex(a, b), complex(c, d)) for a, b, c, d in row]
            try:
                with np.errstate(all="ignore"):
                    project = partial(bhm.slices.project_codomain, kind)
                    want = bhm.slices.wave_report(kind, project(values[0]),
                                                  map(project, values[1:]), h)
            except (BhmError, OverflowError):
                assert flagged[r]
                continue
            if not flagged[r]:
                assert repr(report(r)) == repr(want)
