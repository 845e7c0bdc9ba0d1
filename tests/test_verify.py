"""Finite-difference verification against the exact implicit formulas."""

import io
import json

import pytest
from hypothesis import given, settings, strategies as st

import bhm.verify
from bhm.cli import run
from bhm.core import Bicomplex, I1, I2, J
from bhm.errors import BhmError, BranchJumpError, DegenerateAllComponentsError
from bhm.geometry import BVec3, CVec3
from bhm.holo import Const, HoloFn, Var
from bhm.slices import (
    SliceKind,
    projectable_roots,
    slice_data,
    tracked_real_branch,
    wave_residual,
)
from bhm.verify import (
    PointClass,
    classify_point,
    fd_residuals,
    nearest_root,
    point_key,
    rank_one_degeneracy_check,
    tracked_branch,
)
from bhm.weierstrass import WeierstrassData, solve_phi

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
# one root table per point, shared by every branch tracked from it

VAR_JSON = {"op": "var"}
CONST0_JSON = {"op": "const", "value": [0, 0]}
HALF_Q_JSON = {"op": "mul", "args": [{"op": "const", "value": [0.5, 0]}, VAR_JSON]}

_complex = st.builds(complex, st.floats(-2, 2), st.floats(-2, 2))
_gaussian_int = st.builds(complex, st.integers(-2, 2), st.integers(-2, 2))


@st.composite
def _quadratic(draw, coeff=_complex):
    """Per-side quadratic data: the f-side polynomial may differ from the e-side."""
    def poly():
        c0, c1, c2 = draw(st.lists(coeff, min_size=3, max_size=3))
        return Const(c0) + Const(c1) * Q + Const(c2) * Q ** 2
    f1 = poly()
    return HoloFn(f1, poly() if draw(st.booleans()) else f1)


def _outcome(fn):
    """repr of the result (exact, signed zeros kept), or the error raised."""
    try:
        return repr(fn())
    except BhmError as exc:
        return type(exc).__name__, str(exc)


def _count_solves(monkeypatch):
    calls = []
    solve = bhm.verify.solve_roots

    def counted(data, z):
        calls.append(z)
        return solve(data, z)

    monkeypatch.setattr(bhm.verify, "solve_roots", counted)
    return calls


def _report(config):
    out = io.StringIO()
    assert run(config, out) == 0
    return json.loads(out.getvalue())["results"]


class TestRootTable:
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
        # 12 offsets a point, however many roots share them; the centre is
        # the anchor's own solve
        assert len(calls) == 12 * len(points)

    def test_verify_point_solves_its_stencil_once(self, monkeypatch):
        calls = _count_solves(monkeypatch)
        points = [[0.3, 1.1, -0.2], [1.0, -0.5, [0.2, 0.4]]]
        results = _report({"task": "verify", "points": points,
                           "data": {"G": {"f": VAR_JSON}, "H": {"f": CONST0_JSON}}})
        assert [sum(r["fd"] is not None for r in res["roots"]) for res in results] == [4, 4]
        assert len(calls) == 24 * len(points)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(G=_quadratic(), H=_quadratic(),
           z=st.tuples(*[_complex] * 3))
    def test_fd_residuals_same_bits_through_a_shared_table(self, G, H, z):
        data = WeierstrassData(G, H)
        z = CVec3(*z)
        try:
            sols = solve_phi(data, z)
        except DegenerateAllComponentsError:
            return
        table = {point_key(z): [s.q for s in sols]}
        for sol in sols:
            if sol.gradient is None:
                continue
            shared = tracked_branch(data, z, q0=sol.q, roots=table)
            private = tracked_branch(data, z, q0=sol.q)
            assert (_outcome(lambda: fd_residuals(shared, z).to_json())
                    == _outcome(lambda: fd_residuals(private, z).to_json()))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    # real coefficients: random complex ones leave almost no root in a slice
    @given(G=_quadratic(st.floats(-2, 2)), H=_quadratic(st.floats(-2, 2)),
           kind=st.sampled_from(list(SliceKind)),
           x=st.tuples(*[st.floats(-1.5, 1.5)] * 3))
    def test_wave_residual_same_bits_through_a_shared_table(self, G, H, kind, x):
        data = slice_data(kind, G, H)
        table = {}
        try:
            sols = projectable_roots(kind, data, x, roots=table)
        except DegenerateAllComponentsError:
            return
        for sol in sols:
            if sol.gradient is None:
                continue
            shared = tracked_real_branch(kind, data, x, q0=sol.q, roots=table)
            private = tracked_real_branch(kind, data, x, q0=sol.q)
            assert (_outcome(lambda: wave_residual(kind, shared, x))
                    == _outcome(lambda: wave_residual(kind, private, x)))

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

    def test_signed_zero_misses_the_table(self):
        plus, minus = CVec3(0j, 1, 0), CVec3(complex(-0.0, 0.0), 1, 0)
        assert plus.u1 == minus.u1 and point_key(plus) != point_key(minus)
        sentinel = Bicomplex(7.0)
        table = {point_key(plus): [sentinel]}
        phi = tracked_branch(RADIAL, plus, q0=sentinel, roots=table)
        assert phi(CVec3(0j, 1, 0)) is sentinel  # the same bits hit
        assert phi(minus) is not sentinel        # the other zero is solved
        assert len(table) == 2
