"""Finite-difference verification against the exact implicit formulas."""

import io
import json
import math
import sys

import pytest
from hypothesis import given, settings, strategies as st

import bhm.cli
import bhm.weierstrass
from bhm.cli import run
from bhm.core import Bicomplex, I1, I2, J
from bhm.errors import BhmError, BranchJumpError, DegenerateAllComponentsError
from bhm.geometry import BVec3, CVec3
from bhm.holo import Const, HoloFn, Var, holofn_from_json
from bhm.slices import (
    SliceKind,
    embed_domain,
    projectable_roots,
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
    nearest_root,
    rank_one_degeneracy_check,
    tracked_branch,
)
from bhm.weierstrass import RootBatch, WeierstrassData, solve_phi, solve_roots

from conftest import rand_complex

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
# the CLI's stencils read their roots from a RootBatch by lane; the library's
# fd_residuals/wave_residual over tracked branches are the reference

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


def _count_solves(monkeypatch):
    """Every point the CLI solves: the lanes of its batched root passes and
    the lanes a batch leaves to the scalar path."""
    calls = []
    solve = bhm.weierstrass.solve_roots
    batch = bhm.cli.RootBatch

    def counted(data, z):
        calls.append(z)
        return solve(data, z)

    def counted_batch(data, points):
        calls.extend(points)
        return batch(data, points)

    monkeypatch.setattr(bhm.weierstrass, "solve_roots", counted)
    monkeypatch.setattr(bhm.cli, "RootBatch", counted_batch)
    return calls


def _report(config):
    out = io.StringIO()
    assert run(config, out) == 0
    return json.loads(out.getvalue())["results"]


def _verify_fd(G, H, z):
    """Per root of a ``verify --points`` run at z: its ``fd`` entry, or the
    error the run raises.  The reference is ``fd_residuals`` over
    ``tracked_branch``."""
    config = {"task": "verify", "data": {"G": G, "H": H},
              "points": [[[c.real, c.imag] for c in z]]}
    data = WeierstrassData(holofn_from_json(G), holofn_from_json(H))
    try:
        roots = bhm.cli._task_verify(config, None, 0)["results"][0]["roots"]
        got = [repr(r["fd"]) for r in roots]
    except Exception as exc:
        got = type(exc).__name__, str(exc)
    try:
        want = []
        for sol in solve_phi(data, z):
            want.append(repr(None if sol.gradient is None else fd_residuals(
                tracked_branch(data, z, q0=sol.q), z).to_json()))
    except Exception as exc:
        want = type(exc).__name__, str(exc)
    return got, want


def _slice_rows(kind, G, H, x):
    """Per row of a ``slice`` run at x: (harmonic_res, null_res, error), or
    the error the run raises.  The reference is ``wave_residual`` over
    ``tracked_real_branch``."""
    config = {"slice": kind.value, "g": G, "h": H, "points": [list(x)]}
    data = slice_data(kind, holofn_from_json(G), holofn_from_json(H))
    try:
        rows = bhm.cli._task_slice(config, None, 0)["results"]
        got = [repr((r["harmonic_res"], r["null_res"], r.get("error"))) for r in rows]
    except Exception as exc:
        got = type(exc).__name__, str(exc)
    try:
        want = []
        for sol in projectable_roots(kind, data, x):
            row = None, None, None
            if sol.gradient is not None:
                phi = tracked_real_branch(kind, data, x, q0=sol.q)
                try:
                    hr, nr = wave_residual(kind, phi, x)
                    row = hr + 0.0, nr + 0.0, None
                except BhmError as exc:
                    row = None, None, type(exc).__name__
            want.append(repr(row))
    except Exception as exc:
        want = type(exc).__name__, str(exc)
    return got, want


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
        calls = _count_solves(monkeypatch)
        rows = _report({"task": "slice", "slice": kind, "g": {"f": g}, "h": {"f": h},
                        "points": points})
        assert len(rows) == n_rows
        assert all(r["harmonic_res"] is not None for r in rows)
        # the centre and its 12 offsets, each solved once, however many
        # roots share them
        assert len(calls) == 13 * len(points)
        assert len({_bits(z) for z in calls}) == len(calls)

    def test_verify_point_solves_its_stencil_once(self, monkeypatch):
        calls = _count_solves(monkeypatch)
        points = [[0.3, 1.1, -0.2], [1.0, -0.5, [0.2, 0.4]]]
        results = _report({"task": "verify", "points": points,
                           "data": {"G": {"f": VAR_JSON}, "H": {"f": CONST0_JSON}}})
        assert [sum(r["fd"] is not None for r in res["roots"]) for res in results] == [4, 4]
        assert len(calls) == 25 * len(points)
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
        # the batch leaves the lane to the scalar path, which raises
        assert not RootBatch(data, stencil)._ok[0]
        with pytest.raises(DegenerateAllComponentsError):
            solve_roots(data, stencil[0])
        got, want = _slice_rows(SliceKind.EUCLIDEAN, G, H, x)
        assert got == want == [repr((None, None, "DegenerateAllComponentsError"))]

    def test_a_raising_scalar_lane_fails_verify(self, monkeypatch, capsys):
        G, H = self._scalar_lane_data()
        z = CVec3(*self.SCALAR_LANE)
        data = WeierstrassData(holofn_from_json(G), holofn_from_json(H))
        assert not RootBatch(data, fd_stencil(z)[1])._ok[0]
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
