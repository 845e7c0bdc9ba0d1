"""Acceptance suite: one test per criterion, printed as PASS/FAIL lines.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Each criterion enforces its stated tolerances and wall-clock budget.
"""

import random
import time

import numpy as np
import pytest

from bhm.core import Bicomplex, I2, J
from bhm.errors import NotInSliceError, ZeroDivisorError
from bhm.geometry import (
    BVec3,
    Chart,
    CVec3,
    QuadricPointB,
    QuadricPointC,
    Space,
    chart_to_point,
    cp2_isclose,
    forget_orientation,
    fundamental_identity_check,
    phi_compactify,
    point_to_chart,
    psi_decompactify,
    transition,
)
from bhm.holo import Const, HoloFn, Var
from bhm.slices import projectable_roots, slice_checks, slice_data
from bhm.verify import PointClass, classify_point, fd_residuals, tracked_branch
from bhm.weierstrass import (
    FibreTag,
    WeierstrassData,
    fibre_at,
    solve_phi,
    xi_direction,
    xi_from_fibres,
)

Q = Var()
RADIAL = WeierstrassData(HoloFn(Q), HoloFn(Const(0)))
PROJECTION = WeierstrassData(HoloFn(Const(0)), HoloFn(Q * 0.5))
DISC_T = 0.5 + 0.25j  # generic complex disc parameter
DISC = WeierstrassData(HoloFn(Q), HoloFn(Const(DISC_T)) * HoloFn(Q) * HoloFn.const(I2))


def _report(n, label, t0, limit):
    elapsed = time.perf_counter() - t0
    print(f"\nACCEPTANCE {n} PASS ({elapsed:.2f}s < {limit}s): {label}")
    assert elapsed < limit, f"criterion {n} exceeded its {limit}s budget"


def rand_c(rng, s=2.0):
    return complex(rng.uniform(-s, s), rng.uniform(-s, s))


def rand_b(rng, s=2.0):
    return Bicomplex(rand_c(rng, s), rand_c(rng, s))


def test_criterion_1_algebra():
    t0 = time.perf_counter()
    rng = random.Random(1001)
    for _ in range(10_000):
        p, q, r = rand_b(rng), rand_b(rng), rand_b(rng)
        scale = max(1.0, abs(p) * abs(q) * max(1.0, abs(r)))
        assert abs(p * q - q * p) <= 1e-12 * scale
        assert abs((p * q) * r - p * (q * r)) <= 1e-12 * scale
        assert abs(p * (q + r) - (p * q + p * r)) <= 1e-12 * scale
        cn_pq = (p * q).cn()
        assert abs(cn_pq - p.cn() * q.cn()) <= 1e-12 * max(1.0, abs(cn_pq))
        star = p * p.conj()
        assert abs(star - Bicomplex(p.cn(), 0)) <= 1e-12 * max(1.0, abs(p) ** 2)
        e, f = p.ringleb()
        assert abs(Bicomplex.from_ringleb(e, f) - p) <= 1e-12 * max(1.0, abs(p))
        epq, fpq = (p * q).ringleb()
        eq_, fq_ = q.ringleb()
        assert abs(epq - e * eq_) <= 1e-12 * max(1.0, abs(epq))
        assert abs(fpq - f * fq_) <= 1e-12 * max(1.0, abs(fpq))
    # the zero-divisor set z(1 +- j) is detected exactly
    for _ in range(1000):
        z = rand_c(rng, 10.0)
        for sign in (1.0, -1.0):
            zd = Bicomplex(z, sign * 1j * z)
            assert not zd.is_unit()
            with pytest.raises(ZeroDivisorError):
                zd.inverse()
        u = rand_b(rng)
        e, f = u.ringleb()
        if abs(e * f) > 1e-6 * max(1.0, u.norm2()):
            assert u.is_unit()
    _report(1, "ring axioms, CN multiplicativity, q q* = CN, Ringleb "
               "isomorphism on 1e4 samples; zero divisors z(1 +- j) detected",
            t0, 5.0)


def test_criterion_2_chart_atlases():
    t0 = time.perf_counter()
    rng = random.Random(1002)
    charts = [Chart.G, Chart.GCHECK, Chart.L, Chart.K]

    def sample(space):
        while True:
            g = rand_b(rng)
            if abs(g.cn()) < 1e-2:
                continue
            if space is Space.S2C and abs(g.cn() + 1) < 1e-2:
                continue
            return g

    for space in (Space.S2C, Space.Q1B, Space.Q2C):
        for chart in charts:
            for _ in range(200):
                g = sample(space)
                point = chart_to_point(space, chart, g)
                back = point_to_chart(space, chart, point)
                assert abs(back - g) <= 1e-10 * max(1.0, abs(g))
        # transition coherence across all chart pairs on this space
        for src in charts:
            for dst in charts:
                if src == dst:
                    continue
                done = 0
                while done < 25:
                    g = sample(space)
                    try:
                        h = transition(src, dst, g)
                        p1 = chart_to_point(space, src, g)
                        p2 = chart_to_point(space, dst, h)
                    except Exception:
                        continue
                    done += 1
                    if space is Space.S2C:
                        ok = all(abs(a - b) <= 1e-9 * max(1.0, abs(a))
                                 for a, b in zip(p1, p2))
                    else:
                        ok = p1.isclose(p2, tol=1e-9)
                    assert ok, (space, src, dst, g)
    # G -> K agrees with the route through the sphere
    for _ in range(200):
        g = sample(Space.S2C)
        try:
            direct = transition(Chart.G, Chart.K, g)
            via = point_to_chart(Space.S2C, Chart.K,
                                 chart_to_point(Space.S2C, Chart.G, g))
        except Exception:
            continue
        assert abs(direct - via) <= 1e-10 * max(1.0, abs(direct))
    _report(2, "chart/inverse/transition round-trips for S2C, Q1B, Q2C at "
               "200 points each, tol 1e-10; G->K coherent via the sphere",
            t0, 5.0)


def _random_null_direction(rng):
    while True:
        a, b = rand_c(rng, 1.5), rand_c(rng, 1.5)
        if abs(a) + abs(b) < 0.3:
            continue
        n = CVec3(a * a - b * b, 1j * (a * a + b * b), 2 * a * b)
        lam = rand_b(rng)
        if abs(lam.cn()) < 0.1:
            continue
        return QuadricPointB(BVec3.from_cvec(n) * lam)


def _random_q2c_infinity(rng):
    while True:
        a, b = rand_c(rng, 1.5), rand_c(rng, 1.5)
        if abs(a) + abs(b) < 0.3:
            continue
        return QuadricPointC((0.0, a * a - b * b, 1j * (a * a + b * b), 2 * a * b))


def test_criterion_3_compactification():
    t0 = time.perf_counter()
    rng = random.Random(1003)
    n_null = 0
    for k in range(500):
        if k % 5 == 0:  # >= 100 null directions among the 500
            p = _random_null_direction(rng)
            n_null += 1
        else:
            g = rand_b(rng)
            if abs(g.cn()) < 1e-2:
                continue
            p = chart_to_point(Space.Q1B, Chart.G, g)
        z = phi_compactify(p)
        assert psi_decompactify(z).isclose(p)
    assert n_null >= 50
    n_inf = 0
    for k in range(500):
        if k % 5 == 0:
            z = _random_q2c_infinity(rng)
            n_inf += 1
        else:
            z = chart_to_point(Space.Q2C, Chart.G, rand_b(rng))
        p = psi_decompactify(z)
        assert phi_compactify(p).isclose(z)
    assert n_inf >= 50
    # fundamental identity on every chart's outputs
    for chart in (Chart.G, Chart.GCHECK, Chart.L, Chart.K):
        for _ in range(100):
            g = rand_b(rng)
            if abs(g.cn()) < 1e-2:
                continue
            xi = chart_to_point(Space.Q1B, chart, g).xi
            assert fundamental_identity_check(xi) <= 1e-10 * max(1.0, xi.norm2() ** 2)
    # forget-orientation: 2:1 away from the branch conic, 1:1 on it
    for _ in range(100):
        g = rand_b(rng)
        z = chart_to_point(Space.Q2C, Chart.G, g)
        if z.is_at_infinity(tol=1e-3):
            continue
        z0 = z.zeta
        zflip = QuadricPointC((-z0[0], z0[1], z0[2], z0[3]))
        assert not z.isclose(zflip)
        assert cp2_isclose(forget_orientation(z), forget_orientation(zflip))
    for _ in range(100):
        z = _random_q2c_infinity(rng)
        image = forget_orientation(z)
        # on the conic: [0, zeta] is its own flip, and the image is null
        assert abs(image.square()) <= 1e-9 * max(1.0, image.norm() ** 2)
    _report(3, "phi/psi inverse round-trips on 500 points per quadric "
               "(incl. null/infinity), fundamental identity <= 1e-10, "
               "forget-orientation 2:1 with branch conic", t0, 10.0)


def test_criterion_4_weierstrass_exactness():
    t0 = time.perf_counter()
    rng = random.Random(1004)
    for _ in range(1000):
        gc = [rand_c(rng) for _ in range(3)]
        hc = [rand_c(rng) for _ in range(3)]
        data = WeierstrassData(
            HoloFn(Const(gc[0]) + Const(gc[1]) * Q + Const(gc[2]) * Q ** 2),
            HoloFn(Const(hc[0]) + Const(hc[1]) * Q + Const(hc[2]) * Q ** 2),
        )
        q = rand_b(rng)
        xi = xi_direction(data, q)
        assert abs(xi.square()) <= 1e-12 * max(1.0, xi.norm2())
    sols = solve_phi(RADIAL, (0, 1, 0))
    assert len(sols) == 4
    expect = {(1, 0, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, -1)}
    for s in sols:
        got = s.q.to_reals()
        best = min(expect, key=lambda e: max(abs(a - b) for a, b in zip(e, got)))
        assert max(abs(a - b) for a, b in zip(best, got)) <= 1e-10
        expect.discard(best)
    assert not expect
    for _ in range(100):
        z = CVec3(rand_c(rng), rand_c(rng), rand_c(rng))
        sols = solve_phi(PROJECTION, z)
        assert len(sols) == 1
        assert abs(sols[0].q - Bicomplex(z.u2, z.u3)) <= 1e-10 * max(1.0, z.norm())
    _report(4, "xi null to 1e-12 on 1e3 random (G,H,q); radial roots "
               "{1,-1,j,-j} at (0,1,0); projection reproduces z2 + z3 i2",
            t0, 5.0)


def test_criterion_5_harmonicity():
    t0 = time.perf_counter()
    rng = random.Random(1005)
    for data in (RADIAL, DISC):
        done = 0
        while done < 100:
            z = CVec3(rand_c(rng), rand_c(rng), rand_c(rng))
            if abs(z.u2 ** 2 + z.u3 ** 2) < 0.3:
                continue
            sols = [s for s in solve_phi(data, z)
                    if s.gradient is not None and not s.degenerate
                    and s.multiplicity == 1]
            sols = [s for s in sols if s.gradient.norm() < 15.0]
            if not sols:
                continue
            sol = sols[done % len(sols)]
            done += 1
            gn = max(1.0, sol.gradient.norm2())
            assert abs(sol.laplacian) <= 1e-8 * gn
            assert abs(sol.gradient.square()) <= 1e-8 * gn
            phi = tracked_branch(data, z, q0=sol.q)
            rep = fd_residuals(phi, z)
            assert rep.laplacian_residual <= 1e-6 * gn
            assert rep.nullness_residual <= 1e-6 * gn
            diff = max(abs(a - b) for a, b in zip(rep.gradient, sol.gradient))
            assert diff <= 1e-5 * max(1.0, sol.gradient.norm())
    _report(5, "implicit Laplacian/nullness <= 1e-8 and independent FD "
               "residuals <= 1e-6 at 100 regular points for radial and disc; "
               "gradients agree to 1e-5", t0, 30.0)


def test_criterion_6_degeneracy():
    t0 = time.perf_counter()
    rng = random.Random(1006)
    # radial j-branches: degenerate, with null fibre-plane normals
    done = 0
    while done < 50:
        z = CVec3(rand_c(rng), rand_c(rng), rand_c(rng))
        if abs(z.u2 ** 2 + z.u3 ** 2) < 0.3 or abs(z.square()) < 0.3:
            continue
        jroots = [s for s in solve_phi(RADIAL, z)
                  if s.gradient is not None and abs(s.q.cn() + 1) < 1e-6]
        if not jroots:
            continue
        done += 1
        for s in jroots:
            assert s.degenerate
            assert classify_point(s.gradient).kind is PointClass.DEGENERATE
            fibre = fibre_at(RADIAL, s.q)
            assert fibre.tag is FibreTag.DEGENERATE_PLANE
            assert abs(fibre.normal.square()) <= 1e-10 * max(1.0, fibre.normal.norm() ** 2)
    # trichotomy sweep over CN(G) = -1, both ways, 100 cases each
    for _ in range(100):
        g1 = rand_c(rng)
        g2 = 1j * np.sqrt(1 + g1 * g1)
        g = Bicomplex(g1, g2)
        assert abs(g.cn() + 1) < 1e-10
        mu = rand_c(rng)
        with_sol = WeierstrassData(HoloFn.const(g), HoloFn.const(g * mu))
        fibre = fibre_at(with_sol, rand_b(rng))
        assert fibre.tag is FibreTag.DEGENERATE_PLANE
        assert abs(fibre.normal.square()) <= 1e-10
        h = Bicomplex(-g2.conjugate(), g1.conjugate())  # orthogonal to (g1, g2)
        if abs(h.z1 * g2 - h.z2 * g1) < 1e-3:
            continue
        without = WeierstrassData(HoloFn.const(g), HoloFn.const(h + g * mu))
        assert fibre_at(without, rand_b(rng)).tag is FibreTag.EMPTY
    _report(6, "radial j-branches degenerate with null plane normals; "
               "CN(G) = -1 trichotomy: solutions exist iff H is a complex "
               "multiple of G (100 cases each way)", t0, 10.0)


def _grid(lo, hi, n):
    axis = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    return [(a, b, c) for a in axis for b in axis for c in axis]


def _slice_residual_sweep(kind, data, points, pick, n_target=1000,
                          forbid_degenerate=False, min_separation=0.2,
                          h=3e-4):
    checked = 0
    for x, pairs in slice_checks(kind, data, points, h=h):
        if checked >= n_target:
            break
        all_roots = [sol for sol, _ in pairs]
        checks = {id(sol): check for sol, check in pairs}
        roots = [r for r in all_roots
                 if r.gradient is not None and r.multiplicity == 1]

        # stay away from branch points of the congruence: roots must be
        # separated, and the separation must not be closable within a short
        # walk in x (rate bounded by the gradient norms)
        def clear_of_collisions(r):
            gr = r.gradient.norm()
            for o in all_roots:
                if o is r:
                    continue
                d = abs(r.q - o.q)
                go = o.gradient.norm() if o.gradient is not None else gr
                if d < min_separation or d < 0.1 * (gr + go):
                    return False
            return True

        roots = pick([r for r in roots if clear_of_collisions(r)])
        if not roots:
            continue
        for sol in roots:
            if forbid_degenerate:
                assert not sol.degenerate, (kind, x)
            try:
                hr, nr = checks[id(sol)]()
            except NotInSliceError:
                continue
            assert hr <= 1e-6, (kind, x, sol.q, hr)
            assert nr <= 1e-6, (kind, x, sol.q, nr)
            checked += 1
    assert checked >= n_target, f"only {checked} usable points for {kind}"
    return checked


def test_criterion_7_real_slices():
    t0 = time.perf_counter()
    tame = lambda roots: [r for r in roots if r.gradient.norm() < 10.0]
    smallest = lambda roots: tame(sorted(roots, key=lambda r: abs(r.q))[:1])

    # Euclidean: projection, radial (off the singular sets), disc
    proj_e = slice_data("euclidean", HoloFn(Const(0)), HoloFn(Q * 0.5))
    _slice_residual_sweep("euclidean", proj_e, _grid(-2, 2, 11), tame,
                          forbid_degenerate=True)
    radial_e = slice_data("euclidean", HoloFn(Q), HoloFn(Const(0)))
    pts = [x for x in _grid(-2, 2, 13)
           if x[1] ** 2 + x[2] ** 2 > 0.5 and sum(v * v for v in x) > 0.5]
    _slice_residual_sweep("euclidean", radial_e, pts, tame,
                          forbid_degenerate=True)
    disc_e = slice_data("euclidean", HoloFn(Q), HoloFn(Q) * HoloFn.const(I2))
    pts = [x for x in _grid(-2, 2, 13) if x[1] ** 2 + x[2] ** 2 > 0.5]
    _slice_residual_sweep("euclidean", disc_e, pts, tame,
                          forbid_degenerate=True)

    # Minkowski -> C: projection, radial (interior + exterior branches), disc
    proj_m = slice_data("minkowski_c", HoloFn(Const(0)), HoloFn(Q * 0.5))
    _slice_residual_sweep("minkowski_c", proj_m, _grid(-2, 2, 11), tame)
    radial_m = slice_data("minkowski_c", HoloFn(Q), HoloFn(Const(0)))
    pts = [x for x in _grid(-2, 2, 13)
           if abs(-x[0] ** 2 + x[1] ** 2 + x[2] ** 2) > 0.5
           and x[1] ** 2 + x[2] ** 2 > 0.5]
    _slice_residual_sweep("minkowski_c", radial_m, pts, tame)
    disc_m = slice_data("minkowski_c", HoloFn(Q), HoloFn(Q) * HoloFn.const(I2))
    _slice_residual_sweep("minkowski_c", disc_m, _grid(-2, 2, 11), smallest)

    # Minkowski -> D: projection, radial (exterior), disc (t = i1)
    proj_d = slice_data("minkowski_d", HoloFn(Const(0)), HoloFn(Q * 0.5))
    _slice_residual_sweep("minkowski_d", proj_d, _grid(-2, 2, 11), tame)
    radial_d = slice_data("minkowski_d", HoloFn(Q), HoloFn(Const(0)))
    pts = [x for x in _grid(-2, 2, 17)
           if -x[0] ** 2 + x[1] ** 2 + x[2] ** 2 > 0.5
           and abs(x[0] + x[1]) > 0.4 and abs(x[0] - x[1]) > 0.4]
    _slice_residual_sweep("minkowski_d", radial_d, pts, tame)
    disc_d = slice_data("minkowski_d", HoloFn(Q), HoloFn(Q) * HoloFn.const(J))
    pts = [x for x in _grid(-0.6, 0.6, 13)]
    _slice_residual_sweep("minkowski_d", disc_d, pts, smallest)

    # disc-example branch exists on the full [-2, 2]^3 Minkowski grid
    for x in _grid(-2.0, 2.0, 10):
        roots = projectable_roots("minkowski_c", disc_m, x)
        live = [r for r in roots if r.gradient is not None and not r.degenerate]
        assert live, f"no submersive disc branch at {x}"
        assert any(abs(r.q) <= 1.0 + 1e-9 for r in live)
    _report(7, "wave/Laplace residuals <= 1e-6 on 1e3 grid points per kind "
               "(projection, radial, disc); Euclidean solutions never "
               "degenerate; disc branch exists on the full Minkowski grid",
            t0, 60.0)


def test_criterion_8_converse_reconstruction():
    t0 = time.perf_counter()
    rng = random.Random(1008)
    for data in (PROJECTION, DISC):
        done = 0
        while done < 50:
            q = rand_b(rng)
            g = data.G(q)
            if abs(g.cn() + 1) < 0.1:
                continue
            fibre = fibre_at(data, q)
            if fibre.tag is not FibreTag.NON_NULL_LINE:
                continue
            if abs(fibre.base.square()) < 1e-3:
                continue
            done += 1
            (_, xi), = xi_from_fibres([(q, fibre)])
            for _ in range(5):  # held-out fibre points
                z = fibre.base + fibre.direction * rand_c(rng, 3.0)
                val = xi.inner(BVec3.from_cvec(z))
                assert abs(val - 1) <= 1e-8 * max(1.0, xi.norm() * z.norm())
    _report(8, "xi reconstructed from sampled projection/disc fibres "
               "satisfies <xi(q), z> = 1 on held-out fibre points to 1e-8",
            t0, 10.0)
