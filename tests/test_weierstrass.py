"""Null data, congruence fibres, root solving and reconstruction."""

import math
import random
import warnings

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from bhm.core import Bicomplex, I1, I2, J
from bhm.errors import (
    DegenerateAllComponentsError,
    DegeneratePointError,
    InvalidInputError,
)
from bhm.geometry import BVec3, Chart, CVec3, Space, chart_to_point
from bhm.holo import Const, HoloFn, Var
from bhm.slices import projectable_roots
from bhm.weierstrass import (
    FibreTag,
    WeierstrassData,
    fibre_at,
    fibre_position_via_chart,
    _poly_roots,
    gauss_map,
    solve_phi,
    solve_roots,
    xi_direction,
    xi_from_fibres,
    xi_from_gh,
)

from conftest import rand_bicomplex, rand_complex, rand_unit

Q = Var()
RADIAL = WeierstrassData(HoloFn(Q), HoloFn(Const(0)))
PROJECTION = WeierstrassData(HoloFn(Const(0)), HoloFn(Q * 0.5))
DISC = WeierstrassData(HoloFn(Q), HoloFn(Q) * HoloFn.const(I2))


def rand_poly_data(rng, deg_g=2, deg_h=2):
    def rand_poly(deg):
        e = Const(rand_complex(rng))
        f = Const(rand_complex(rng))
        for k in range(1, deg + 1):
            e = e + Const(rand_complex(rng)) * Q ** k
            f = f + Const(rand_complex(rng)) * Q ** k
        return HoloFn(e, f)

    return WeierstrassData(rand_poly(deg_g), rand_poly(deg_h))


class TestXi:
    def test_projection_example(self):
        v = xi_from_gh(PROJECTION, Bicomplex(1, 0))
        assert v.normalized
        # G=0, H=1/2: xi = (0, 1, i2)
        assert (v.vec - BVec3(Bicomplex(0), Bicomplex(1), I2)).norm() < 1e-12

    def test_radial_unnormalized_flag(self):
        v = xi_from_gh(RADIAL, Bicomplex(1, 0))
        assert not v.normalized
        assert (v.vec - BVec3(Bicomplex(-2), Bicomplex(0), 2 * I2)).norm() < 1e-12

    def test_null_identity_random(self, rng):
        for _ in range(200):
            data = rand_poly_data(rng)
            q = rand_bicomplex(rng)
            xi = xi_direction(data, q)
            assert abs(xi.square()) <= 1e-12 * max(1.0, xi.norm2())

    def test_normalized_xi_gives_congruence(self, rng):
        # when H is a unit, <xi, z> = 1 iff the congruence holds
        count = 0
        while count < 50:
            data = rand_poly_data(rng, 1, 1)
            q = rand_bicomplex(rng)
            if not (2 * data.H(q)).is_unit(1e-6):
                continue
            count += 1
            v = xi_from_gh(data, q)
            assert v.normalized
            fibre = fibre_at(data, q)
            if fibre.tag is not FibreTag.NON_NULL_LINE:
                continue
            z = fibre.base + fibre.direction * rand_complex(rng)
            val = v.vec.inner(BVec3.from_cvec(z))
            assert abs(val - 1) <= 1e-7 * max(1.0, v.vec.norm() * z.norm())


class TestFibreAt:
    def test_projection_line(self):
        fibre = fibre_at(PROJECTION, Bicomplex(1, 2))
        assert fibre.tag is FibreTag.NON_NULL_LINE
        assert (fibre.base - CVec3(0, 1, 2)).norm() < 1e-12
        assert abs(fibre.direction.square() - 1) < 1e-12
        assert fibre.contains(CVec3(7.5, 1, 2))

    def test_degenerate_plane_example(self):
        data = WeierstrassData(HoloFn(Const(1j)), HoloFn(Const(0)))
        fibre = fibre_at(data, rand_bicomplex(random.Random(5)))
        assert fibre.tag is FibreTag.DEGENERATE_PLANE
        assert (fibre.normal - CVec3(1, 1j, 0)).norm() < 1e-12
        assert abs(fibre.normal.square()) < 1e-12
        assert fibre.offset == 0
        # the null normal itself lies in the plane, as does the z3-axis
        assert fibre.contains(CVec3(1, 1j, 0))
        assert fibre.contains(CVec3(0, 0, 7.5))

    def test_empty_fibre(self):
        # H = i2 has components (0, 1), not a complex multiple of (i1, 0)
        data = WeierstrassData(HoloFn(Const(1j)), HoloFn.const(I2))
        assert fibre_at(data, Bicomplex(0)).tag is FibreTag.EMPTY

    def test_h_complex_multiple_of_g_gives_plane(self):
        # G = i1, H = 1 = (-i1) * G: solvable, plane <n, z> = i1
        data = WeierstrassData(HoloFn(Const(1j)), HoloFn(Const(1)))
        fibre = fibre_at(data, Bicomplex(0))
        assert fibre.tag is FibreTag.DEGENERATE_PLANE
        assert abs(fibre.offset - 1j) < 1e-12

    def test_trichotomy_sweep(self, rng):
        # CN(G) = -1 samples, H built both as a multiple and not
        for _ in range(100):
            g1 = rand_complex(rng)
            g2 = 1j * (1 + g1 * g1) ** 0.5
            g = Bicomplex(g1, g2)
            assert abs(g.cn() + 1) < 1e-12
            mu = rand_complex(rng)
            data_mult = WeierstrassData(HoloFn.const(g), HoloFn.const(g * mu))
            assert fibre_at(data_mult, Bicomplex(0)).tag is FibreTag.DEGENERATE_PLANE
            # a non-multiple: add something orthogonal to (g1, g2)
            h = Bicomplex(g1 - g2.conjugate(), g2 + g1.conjugate())
            hx, hy = h.z1, h.z2
            if abs(hx * g2 - hy * g1) > 1e-6:
                data_no = WeierstrassData(HoloFn.const(g), HoloFn.const(h))
                assert fibre_at(data_no, Bicomplex(0)).tag is FibreTag.EMPTY

    def test_line_direction_matches_gauss_chart(self, rng):
        for _ in range(50):
            g = rand_unit(rng)
            if abs(g.cn() + 1) < 1e-2:
                continue
            data = WeierstrassData(HoloFn.const(g), HoloFn.const(rand_bicomplex(rng)))
            fibre = fibre_at(data, Bicomplex(0))
            gamma = chart_to_point(Space.S2C, Chart.G, g)
            assert (fibre.direction - CVec3(*gamma)).norm() < 1e-8


class TestSolvePhi:
    def test_radial_four_roots(self):
        sols = solve_phi(RADIAL, (0, 1, 0))
        got = sorted(tuple(s.q.to_reals()) for s in sols)
        expected = sorted([(1, 0, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, -1)])
        assert len(got) == 4
        for s, e in zip(got, expected):
            assert max(abs(a - b) for a, b in zip(s, e)) < 1e-10

    def test_projection_single_root(self):
        sols = solve_phi(PROJECTION, (5, 1, 2))
        assert len(sols) == 1
        assert abs(sols[0].q - Bicomplex(1, 2)) < 1e-12

    def test_radial_degenerate_z_axis(self):
        # at (1,0,0) degrees drop to (1,1): single root 0
        sols = solve_phi(RADIAL, (1, 0, 0))
        assert len(sols) == 1
        assert abs(sols[0].q) < 1e-12
        assert sols[0].multiplicity == 1
        assert sols[0].gradient is not None

    def test_identically_zero_component(self):
        # G = H = 0: F = z2 + z3*i2; at z3 = i1*z2 the e-component vanishes
        # identically, so the solution set is not discrete
        data = WeierstrassData(HoloFn(Const(0)), HoloFn(Const(0)))
        for solve in (solve_phi, solve_roots):
            with pytest.raises(DegenerateAllComponentsError):
                solve(data, (1, 1, 1j))

    def test_zero_divisor_valued_h_still_solvable(self):
        # at z = (t, 1, i1) the projection congruence root is q = 1 + j, where
        # H(q) = q/2 is a nonzero zero divisor: the F-form still solves, while
        # the normalized null data cannot exist there
        sols = solve_phi(PROJECTION, (0.3, 1.0, 1j))
        assert len(sols) == 1
        s = sols[0]
        assert abs(s.q - (1 + J)) <= 1e-10
        assert s.residual <= 1e-9
        assert s.gradient is not None
        v = xi_from_gh(PROJECTION, s.q)
        assert not v.normalized

    def test_one_sided_h_data_has_no_discrete_solutions(self):
        # H = (1+j) q / 2 kills the e-component of the congruence: generic z
        # gives no roots, and z with z2 + i1 z3 = 0 gives a continuum
        h = HoloFn.const(1 + J) * HoloFn(Q) * 0.5
        data = WeierstrassData(HoloFn(Const(0)), h)
        assert solve_phi(data, (1.0, 0.7, -0.4)) == []
        with pytest.raises(DegenerateAllComponentsError):
            solve_phi(data, (1.0, 1.0, 1j))

    def test_non_polynomial_data_rejected(self):
        data = WeierstrassData(HoloFn(1 / (Q + 2)), HoloFn(Const(0)))
        with pytest.raises(InvalidInputError):
            solve_phi(data, (0, 1, 0))

    def test_constant_nonzero_component_means_no_roots(self):
        data = WeierstrassData(HoloFn(Const(0)), HoloFn(Const(0)))
        assert solve_phi(data, (1, 0, -1j)) == []  # F = -j, never zero

    def test_root_completeness_and_residuals(self, rng):
        for _ in range(40):
            data = rand_poly_data(rng, 2, 2)
            z = CVec3(*(rand_complex(rng) for _ in range(3)))
            from bhm.weierstrass import congruence_components, _trim
            fe, ff = congruence_components(data, z)
            d1 = len(_trim(fe)) - 1
            d2 = len(_trim(ff)) - 1
            if d1 <= 0 or d2 <= 0:
                continue
            sols = solve_phi(data, z)
            assert sum(s.multiplicity for s in sols) == d1 * d2
            for s in sols:
                assert s.residual <= 1e-8 * max(1.0, z.norm() ** 2)

    def test_gradient_null_and_laplacian(self, rng):
        for _ in range(40):
            data = rand_poly_data(rng, 2, 1)
            z = CVec3(*(rand_complex(rng) for _ in range(3)))
            for s in solve_phi(data, z):
                if s.gradient is None:
                    continue
                assert abs(s.gradient.square()) <= 1e-9 * max(1.0, s.gradient.norm2())
                assert abs(s.laplacian) <= 1e-8 * max(1.0, s.gradient.norm2())

    def test_canonical_order(self, rng):
        sols = solve_phi(RADIAL, (0.3, 1.1, -0.2))
        keys = [tuple(p for c in s.q.ringleb() for p in (c.real, c.imag)) for s in sols]
        assert keys == sorted(keys)

    def test_multiplicity_at_double_root(self):
        # radial at z on the null cone: s-discriminant zero -> double root
        # z = (1, i, 0) has z^2 = 0; e-poly: (z2 - i z3) s^2 + 2 z1 s - (z2 + i z3)
        sols = solve_phi(RADIAL, (1, 1j, 0))
        assert any(s.multiplicity > 1 or s.partially_degenerate for s in sols) or len(sols) < 4

    def test_radial_matches_closed_form_enumeration(self, rng):
        # closed form: q = (-z1 + eps*sqrt(z.z)) / (z2 - z3*i2) for
        # eps in {1, -1, j, -j}; the solver never takes the square root, so
        # this is an independent oracle for the combined-root procedure
        import cmath

        count = 0
        while count < 40:
            z = CVec3(*(rand_complex(rng) for _ in range(3)))
            if abs(z.square()) < 0.2 or abs(z.u2 ** 2 + z.u3 ** 2) < 0.2:
                continue
            count += 1
            w = cmath.sqrt(z.square())
            den_inv = Bicomplex(z.u2, -z.u3).inverse()
            closed = {}
            for name, eps in (("+1", Bicomplex(1)), ("-1", Bicomplex(-1)),
                              ("+j", J), ("-j", -J)):
                closed[name] = (eps * w - z.u1) * den_inv
            sols = solve_phi(RADIAL, z)
            assert len(sols) == 4
            for name, q in closed.items():
                match = min(sols, key=lambda s: abs(s.q - q))
                assert abs(match.q - q) <= 1e-9 * max(1.0, abs(q)), name
                # the j-branches are exactly the degenerate ones (CN = -1)
                if name in ("+j", "-j"):
                    assert abs(q.cn() + 1) <= 1e-9
                    assert match.degenerate
                else:
                    assert not match.degenerate
            # eps = +-1 pairs equal-sign component roots, +-j mixed ones:
            # recompose(e of +1, f of -1) reproduces one of the j-branches
            e1, _ = closed["+1"].ringleb()
            _, fm1 = closed["-1"].ringleb()
            mixed = Bicomplex.from_ringleb(e1, fm1)
            assert min(abs(mixed - closed["+j"]),
                       abs(mixed - closed["-j"])) <= 1e-9 * max(1.0, abs(mixed))

    def test_fibre_solution_duality(self, rng):
        count = 0
        while count < 30:
            data = rand_poly_data(rng, 1, 1)
            z = CVec3(*(rand_complex(rng) for _ in range(3)))
            sols = solve_phi(data, z)
            if not sols:
                continue
            count += 1
            for s in sols:
                if s.multiplicity > 1:
                    continue
                fibre = fibre_at(data, s.q)
                assert fibre.tag is not FibreTag.EMPTY
                assert fibre.contains(z, tol=1e-6), (data, z, s.q)


class TestGaussMap:
    def test_projection_gauss(self):
        sols = solve_phi(PROJECTION, (5, 1, 2))
        g = gauss_map(sols[0].gradient)
        assert (g - CVec3(1, 0, 0)).norm() < 1e-12

    def test_radial_gauss_matches_chart(self):
        sols = solve_phi(RADIAL, (0, 1, 0))
        regular = [s for s in sols if not s.degenerate]
        for s in regular:
            gamma = gauss_map(s.gradient)
            expected = chart_to_point(Space.S2C, Chart.G, RADIAL.G(s.q))
            assert (gamma - CVec3(*expected)).norm() < 1e-8

    def test_gauss_unit_square(self, rng):
        for _ in range(50):
            data = rand_poly_data(rng, 1, 1)
            z = CVec3(*(rand_complex(rng) for _ in range(3)))
            for s in solve_phi(data, z):
                if s.gradient is None or s.degenerate:
                    continue
                gamma = gauss_map(s.gradient)
                assert abs(gamma.square() - 1) <= 1e-7

    def test_scaling_invariance(self, rng):
        sols = solve_phi(PROJECTION, (5, 1, 2))
        grad = sols[0].gradient
        lam = rand_unit(rng)
        assert (gauss_map(grad * lam) - gauss_map(grad)).norm() < 1e-9

    def test_degenerate_error(self):
        grad = BVec3(Bicomplex(1), I1, Bicomplex(0)) * (1 + J)
        with pytest.raises(DegeneratePointError):
            gauss_map(grad)


class TestFibrePosition:
    def test_projection_example(self):
        fibre = fibre_at(PROJECTION, Bicomplex(1, 2))
        c = fibre.base
        assert (c - CVec3(0, 1, 2)).norm() < 1e-12
        assert abs(c.dot(fibre.direction)) < 1e-12

    def test_radial_zero_displacement(self, rng):
        for _ in range(20):
            q = rand_unit(rng)
            if abs(q.cn() + 1) < 1e-2 or abs(q.cn() - 1) < 1e-2:
                continue
            fibre = fibre_at(RADIAL, q)
            if fibre.tag is not FibreTag.NON_NULL_LINE:
                continue
            assert fibre.base.norm() < 1e-9

    def test_matches_chart_differential(self, rng):
        count = 0
        while count < 50:
            data = rand_poly_data(rng, 1, 1)
            q = rand_bicomplex(rng)
            g = data.G(q)
            if abs(g.cn() + 1) < 0.1:
                continue
            fibre = fibre_at(data, q)
            if fibre.tag is not FibreTag.NON_NULL_LINE:
                continue
            count += 1
            lhs = fibre.base
            rhs = fibre_position_via_chart(data, q)
            assert (lhs - rhs).norm() <= 1e-7 * max(1.0, rhs.norm())

    def test_invalid_for_planes(self):
        data = WeierstrassData(HoloFn(Const(1j)), HoloFn(Const(0)))
        fibre = fibre_at(data, Bicomplex(0))
        # a plane has no base point
        assert fibre.tag is not FibreTag.NON_NULL_LINE and fibre.base is None


class TestReconstruction:
    def test_projection_congruence(self):
        q = Bicomplex(1, 2)
        fibre = fibre_at(PROJECTION, q)
        (qq, xi), = xi_from_fibres([(q, fibre)])
        # held-out fibre points satisfy <xi, z> = 1
        for t in (0.0, 1.0, -2.5, 0.5 + 0.5j):
            z = fibre.base + fibre.direction * t
            assert abs(xi.inner(BVec3.from_cvec(z)) - 1) < 1e-10

    def test_matches_xi_from_gh(self, rng):
        count = 0
        while count < 30:
            data = rand_poly_data(rng, 1, 1)
            q = rand_bicomplex(rng)
            if not (2 * data.H(q)).is_unit(1e-6):
                continue
            if abs(data.G(q).cn() + 1) < 0.1:
                continue
            fibre = fibre_at(data, q)
            if fibre.tag is not FibreTag.NON_NULL_LINE:
                continue
            c2 = fibre.base.square()
            if abs(c2) < 1e-4:
                continue
            count += 1
            (_, xi), = xi_from_fibres([(q, fibre)])
            direct = xi_from_gh(data, q)
            assert direct.normalized
            assert (xi - direct.vec).norm() <= 1e-7 * max(1.0, direct.vec.norm())

    def test_origin_fibre_rejected(self):
        fibre = fibre_at(RADIAL, Bicomplex(2, 0))
        with pytest.raises(InvalidInputError):
            xi_from_fibres([(Bicomplex(2, 0), fibre)])

    def test_null_base_rejected(self):
        fibre = fibre_at(PROJECTION, Bicomplex(1, 1j))  # base (0, 1, i): c^2 = 0
        with pytest.raises(InvalidInputError):
            xi_from_fibres([(Bicomplex(1, 1j), fibre)])


# ---------------------------------------------------------------------------
# the roots-only solve behind the finite-difference stencils

_coeff = st.one_of(
    st.just(0j),
    st.builds(complex, st.floats(-2, 2), st.floats(-2, 2)),
)


@st.composite
def _poly_tree(draw):
    coeffs = draw(st.lists(_coeff, min_size=1, max_size=4))  # degree 0-3
    tree = Const(coeffs[0])
    for k, c in enumerate(coeffs[1:], start=1):
        tree = tree + Const(c) * Q ** k
    return tree


@st.composite
def _holofn(draw):
    f1 = draw(_poly_tree())
    # per-side data: the f-side tree differs from the e-side one
    return HoloFn(f1, draw(_poly_tree()) if draw(st.booleans()) else f1)


_point = st.one_of(
    st.tuples(*[st.builds(complex, st.floats(-3, 3), st.floats(-3, 3))] * 3),
    # points where a congruence component vanishes identically for G = H = 0
    st.sampled_from([(1, 1, 1j), (1, 1, -1j), (0, 1, 1j)]),
)


def _bits(qs):
    return [[x.hex() for x in q.to_reals()] for q in qs]


class TestSolveRoots:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(G=_holofn(), H=_holofn(), z=_point)
    def test_matches_solve_phi_bit_for_bit(self, G, H, z):
        data = WeierstrassData(G, H)
        try:
            sols = solve_phi(data, z)
        except DegenerateAllComponentsError:
            with pytest.raises(DegenerateAllComponentsError):
                solve_roots(data, z)
            return
        assert _bits(solve_roots(data, z)) == _bits([s.q for s in sols])

    def test_a_subnormal_coordinate_warns_nothing(self):
        # (-b + sq) / (2 a) overflows in np.complex128 at this point: a
        # library caller outside np.errstate gets what the CLI gets, and no
        # warning (an error under the suite's filter)
        x = (0.0, 0.0, 2.2250738585e-313)
        calls = (lambda: solve_phi(RADIAL, CVec3(*x)),
                 lambda: solve_roots(RADIAL, CVec3(*x)),
                 lambda: projectable_roots("euclidean", RADIAL, x))
        for call in calls:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = repr(call())
            with np.errstate(all="ignore"):
                assert got == repr(call())

    def test_nan_coefficients_do_not_read_a_stale_errno(self):
        # at z1 = 1.7e308 the components' coefficients overflow to NaN parts.
        # CPython's complex abs leaves errno as it finds it on a NaN part, so
        # a caught overflow just before (errno ERANGE) once turned the NaN
        # roots into OverflowError
        data = WeierstrassData(HoloFn.identity(), HoloFn.const(0.0))
        z = CVec3(1.7e308, 0, 0)

        def outcome(solve, stale):
            math.exp(0.0)  # leaves errno at 0
            if stale:
                try:
                    math.exp(1000.0)  # leaves errno at ERANGE
                except OverflowError:
                    pass
            try:
                return repr(solve(data, z))
            except Exception as exc:
                return type(exc).__name__, str(exc)

        nan = "Bicomplex((nan+nanj), (nan+nanj))"
        assert outcome(solve_roots, False) == f"[{', '.join([nan] * 4)}]"
        for solve in (solve_roots, solve_phi):
            assert outcome(solve, True) == outcome(solve, False)

    def test_a_lone_nan_companion_coefficient_is_an_overflow(self):
        # G's e-side -1e155 i + q + q^2 at z = 0: the degree-4 component is
        # [0, 0, 0, 0, nan + nan i] from its leading term down, so np.roots
        # sees one NaN coefficient and no companion row, and returned no roots
        g = HoloFn(Const(-1e155j) + Q * (1 + Q), Const(1.0))
        data = WeierstrassData(g, HoloFn.const(0.0))
        for solve in (solve_roots, solve_phi):
            with pytest.raises(InvalidInputError, match="the data overflow at this point"):
                solve(data, CVec3(0, 0, 0))

    def test_non_polynomial_data_serves_fibres(self):
        # the coefficients are built lazily, so non-polynomial data still
        # constructs and classifies fibres; only solving rejects it, each time
        data = WeierstrassData(HoloFn(1 / (Q + 2)), HoloFn(Q * 0.5))
        q = Bicomplex(0.3 + 0.1j, -0.2 + 0.4j)
        fibre = fibre_at(data, q)
        assert fibre.tag is FibreTag.NON_NULL_LINE
        assert fibre.contains(fibre.sample_points([0.7])[0])
        for _ in range(2):
            with pytest.raises(InvalidInputError):
                solve_roots(data, (0, 1, 0))


# ---------------------------------------------------------------------------
# _poly_roots against 50-digit roots of the same double coefficients

ORACLE_DPS = 50
CLUSTER_RTOL = 1e-7  # the clustering threshold of _poly_roots, times scale


@mpmath.workdps(ORACLE_DPS)
def _coeffs_from_roots(roots, lead=1.3 - 0.2j):
    """Ascending double coefficients of lead * prod(x - r), expanded at 50
    digits and rounded once."""
    c = [mpmath.mpc(lead)]
    for r in roots:
        r = mpmath.mpc(r)
        nxt = [mpmath.mpc(0)] * (len(c) + 1)
        for k, a in enumerate(c):
            nxt[k + 1] += a
            nxt[k] -= a * r
        c = nxt
    return [complex(x) for x in c]


@mpmath.workdps(ORACLE_DPS)
def _oracle(coeffs):
    """Exact roots of the double coefficients, clustered like the solver's
    documented rule: (mean, multiplicity, distance to the nearest other
    cluster, scale)."""
    roots = mpmath.polyroots([mpmath.mpc(c) for c in reversed(coeffs)],
                             maxsteps=200, extraprec=200)
    scale = max(mpmath.mpf(1), max(abs(r) for r in roots))
    groups = []
    for r in roots:
        for g in groups:
            if abs(r - g[0]) <= CLUSTER_RTOL * scale:
                g.append(r)
                break
        else:
            groups.append([r])
    means = [sum(g) / len(g) for g in groups]
    out = []
    for i, g in enumerate(groups):
        # every root inside a cluster, or every gap between clusters, must
        # sit a factor 2 from the threshold, or the case decides nothing
        for a in g:
            for b in g:
                assert abs(a - b) <= CLUSTER_RTOL * scale / 2
        others = [abs(a - b) for j, h in enumerate(groups) if j != i
                  for a in g for b in h]
        gap = min(others) if others else scale
        assert gap >= 2 * CLUSTER_RTOL * scale
        out.append((means[i], len(g), float(gap / scale), float(scale)))
    return out


def _assert_matches_oracle(coeffs):
    got = _poly_roots(coeffs)
    want = _oracle(coeffs)
    assert sorted(m for _, m in got) == sorted(m for _, m, _, _ in want)
    for r, m in got:
        mean, m_want, gap, scale = min(want, key=lambda w: abs(w[0] - r))
        assert m == m_want
        err = float(abs(mean - r)) / scale
        if m > 1:
            tol = 5e-8           # the mean of a cluster of polished roots
        elif gap < 1e-3:
            tol = 1e-8           # one of a near-double pair
        else:
            tol = 1e-13 / gap    # a well-separated simple root
        assert err <= tol, (r, m, err, tol)


_NEAR_DOUBLE = [(a, rel, extra)
                for a in (0.7 - 0.4j, 2.0 + 1.5j, -3.1 + 0.2j)
                for rel in (1e-5, 3e-7, 3e-8, 1e-9, 0.0)
                for extra in ([], [0.3 + 1.1j], [0.3 + 1.1j, -1.7 - 0.6j])]


class TestPolyRootsOracle:
    @pytest.mark.parametrize("a, rel, extra", _NEAR_DOUBLE)
    def test_near_double_roots(self, a, rel, extra):
        # a pair a, a + d with |d| = rel * scale: 3e-7 and above stay two
        # simple roots, 3e-8 and below merge into one double root
        scale = max(1.0, abs(a), *(abs(e) for e in extra))
        d = rel * scale * (0.6 + 0.8j)
        coeffs = _coeffs_from_roots([a, a + d] + extra)
        _assert_matches_oracle(coeffs)
        want = [1, 1] if rel >= 3e-7 else [2]
        assert sorted(m for _, m in _poly_roots(coeffs)) == sorted(want + [1] * len(extra))

    @pytest.mark.parametrize("degree", [2, 3, 4, 6])
    def test_random_simple_roots(self, degree):
        rng = random.Random(7000 + degree)
        for _ in range(20):
            roots = [rand_complex(rng) for _ in range(degree)]
            _assert_matches_oracle(_coeffs_from_roots(roots, lead=rand_complex(rng) + 2.5))


# ---------------------------------------------------------------------------
# the implicit derivatives against sympy's derivatives of the congruence
#
# The map q = z1 + z2*i2 -> z1 + side*i*z2 (side = +1 for the e-part, -1
# for the f-part) is a ring homomorphism onto C that sends i2 to side*i and
# fixes the complex point coordinates.  So each part of F(z, q) = 0 is the
# complex equation -2 g(w) z1 + (1 - g(w)^2) z2 + side*i (1 + g(w)^2) z3
# - 2 h(w) = 0 in the part w of q, with g and h the same part of G and H.
# sympy differentiates it once for generic coefficients; the derivatives
# are evaluated at 30 digits.

IMPLICIT_DEG = 3      # the largest degree of the random G and H
IMPLICIT_RTOL = 1e-10  # relative to the sum of the terms' magnitudes


@pytest.fixture(scope="module")
def side_derivatives():
    w, side = sympy.symbols("w side")
    z = sympy.symbols("z1:4")
    a = sympy.symbols(f"a0:{IMPLICIT_DEG + 1}")
    b = sympy.symbols(f"b0:{IMPLICIT_DEG + 1}")
    g = sum(c * w ** k for k, c in enumerate(a))
    h = sum(c * w ** k for k, c in enumerate(b))
    F = -2 * g * z[0] + (1 - g ** 2) * z[1] + side * sympy.I * (1 + g ** 2) * z[2] - 2 * h

    def numeric(expr):
        return sympy.lambdify((w, side, *z, *a, *b), expr, modules="mpmath")

    return {"F_q": numeric(sympy.diff(F, w)),
            "F_qq": numeric(sympy.diff(F, w, 2)),
            "F_z": [numeric(sympy.diff(F, zi)) for zi in z],
            "F_zq": [numeric(sympy.diff(F, zi, w)) for zi in z]}


def _rand_side_coeffs(rng, deg):
    """Ringleb pair of random polynomial trees and their padded ascending
    coefficient lists, e-side first."""
    trees, coeffs = [], []
    for _ in range(2):
        c = [rand_complex(rng) for _ in range(deg + 1)]
        tree = Const(c[0])
        for k in range(1, deg + 1):
            tree = tree + Const(c[k]) * Q ** k
        trees.append(tree)
        coeffs.append(c + [0j] * (IMPLICIT_DEG - deg))
    return HoloFn(*trees), coeffs


class TestImplicitRelationOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_second_order_relation(self, seed, side_derivatives):
        # F_q Phi_ii + F_qq Phi_i^2 + 2 F_{z_i q} Phi_i = 0, summed over i
        # (F is linear in z), and F_q Phi_i + F_{z_i} = 0 for each i
        d = side_derivatives
        rng = random.Random(9100 + seed)
        checked = 0
        for _ in range(5):
            G, g_sides = _rand_side_coeffs(rng, rng.randint(1, IMPLICIT_DEG))
            H, h_sides = _rand_side_coeffs(rng, rng.randint(0, IMPLICIT_DEG))
            z = [rand_complex(rng) for _ in range(3)]
            for sol in solve_phi(WeierstrassData(G, H), CVec3(*z)):
                if sol.gradient is None:
                    continue
                checked += 1
                for side, g, h in zip((1, -1), g_sides, h_sides):
                    def part(x):
                        return mpmath.mpc(x.z1 + side * 1j * x.z2)

                    with mpmath.workdps(30):
                        args = [part(sol.q), side, *z, *g, *h]
                        f_q, f_qq = d["F_q"](*args), d["F_qq"](*args)
                        phi = [part(x) for x in sol.gradient]
                        for f_z, p in zip(d["F_z"], phi):
                            terms = [f_q * p, f_z(*args)]
                            assert abs(sum(terms)) <= IMPLICIT_RTOL * sum(map(abs, terms))
                        terms = [f_q * part(sol.laplacian)]
                        for f_zq, p in zip(d["F_zq"], phi):
                            terms += [f_qq * p * p, 2 * f_zq(*args) * p]
                        assert abs(sum(terms)) <= IMPLICIT_RTOL * sum(map(abs, terms))
        assert checked >= 20
