"""Euclidean and Minkowski real reductions."""

import math

import pytest

from bhm.core import Bicomplex, Hyperbolic, I2, J
from bhm.errors import BranchJumpError, InvalidInputError, NotInSliceError
from bhm.holo import Const, HoloFn, Var
from bhm.slices import (
    embed_domain,
    project_codomain,
    projectable_roots,
    slice_compactification_check,
    slice_data,
    tracked_real_branch,
    wave_residual,
)
from bhm.weierstrass import FibreTag, fibre_at

Q = Var()
ZERO = HoloFn(Const(0))
HALF_Q = HoloFn(Q * 0.5)


def small_branch(kind, data, x):
    roots = projectable_roots(kind, data, x)
    assert roots, f"no projectable roots at {x}"
    q0 = min(roots, key=lambda r: abs(r.q)).q
    return tracked_real_branch(kind, data, x, q0=q0)


class TestEmbeddings:
    def test_spec_examples(self):
        assert tuple(embed_domain("euclidean", (1, 2, 3))) == (1, 2, 3)
        assert tuple(embed_domain("minkowski_c", (1, 2, 3))) == (1, 2j, 3j)
        assert tuple(embed_domain("minkowski_d", (1, 2, 3))) == (3, 1j, -2)

    def test_quadratic_forms(self, rng):
        # the embeddings turn the real quadratic forms into z.z
        for _ in range(50):
            x = [rng.uniform(-2, 2) for _ in range(3)]
            z = embed_domain("euclidean", x)
            assert abs(z.square() - (x[0] ** 2 + x[1] ** 2 + x[2] ** 2)) < 1e-12
            z = embed_domain("minkowski_c", x)
            assert abs(z.square() - (x[0] ** 2 - x[1] ** 2 - x[2] ** 2)) < 1e-12
            z = embed_domain("minkowski_d", x)
            assert abs(z.square() - (-x[0] ** 2 + x[1] ** 2 + x[2] ** 2)) < 1e-12


class TestSliceData:
    def test_euclidean_identity(self):
        data = slice_data("euclidean", ZERO, HALF_Q)
        assert abs(data.G(Bicomplex(1, 2))) == 0
        assert abs(data.H(Bicomplex(1, 2)) - Bicomplex(0.5, 1)) < 1e-14

    def test_minkowski_scaling(self):
        data = slice_data("minkowski_c", HoloFn(Q), ZERO)
        q = Bicomplex(1, 2)
        assert abs(data.G(q) - q * 1j) < 1e-14  # G = g*i1


class TestProjection:
    def test_spec_examples(self):
        assert project_codomain("minkowski_c", Bicomplex(3, 4)) == 3 + 4j
        h = project_codomain("minkowski_d", Bicomplex(1, 2j))
        assert h == Hyperbolic(1, 2)
        with pytest.raises(NotInSliceError):
            project_codomain("minkowski_c", J)

    def test_euclidean_same_as_c(self):
        assert project_codomain("euclidean", Bicomplex(3, 4)) == 3 + 4j
        with pytest.raises(NotInSliceError):
            project_codomain("euclidean", Bicomplex(3 + 1e-4 * 1j, 4))


class TestEuclidean:
    def test_projection_residuals(self, rng):
        data = slice_data("euclidean", ZERO, HALF_Q)
        for _ in range(5):
            x = [rng.uniform(-2, 2) for _ in range(3)]
            phi = tracked_real_branch("euclidean", data, x)
            assert phi(x) == pytest.approx(complex(x[1], x[2]))
            hr, nr = wave_residual("euclidean", phi, x)
            assert hr <= 1e-8 and nr <= 1e-8

    def test_radial_residuals_and_nondegeneracy(self, rng):
        data = slice_data("euclidean", HoloFn(Q), ZERO)
        done = 0
        while done < 10:
            x = [rng.uniform(-2, 2) for _ in range(3)]
            r2 = sum(v * v for v in x)
            if r2 < 0.3 or abs(x[1]) + abs(x[2]) < 0.3:
                continue
            done += 1
            roots = projectable_roots("euclidean", data, x)
            assert len(roots) == 2  # only the +-1 branches restrict
            for sol in roots:
                assert not sol.degenerate
                phi = tracked_real_branch("euclidean", data, x, q0=sol.q)
                hr, nr = wave_residual("euclidean", phi, x)
                assert hr <= 1e-6 and nr <= 1e-6

    def test_disc_residuals(self, rng):
        data = slice_data("euclidean", HoloFn(Q), HoloFn(Q) * HoloFn.const(I2))
        done = 0
        while done < 5:
            x = [rng.uniform(-1.5, 1.5) for _ in range(3)]
            if abs(x[1]) + abs(x[2]) < 0.4:
                continue
            roots = projectable_roots("euclidean", data, x)
            if not roots:
                continue
            done += 1
            phi = small_branch("euclidean", data, x)
            hr, nr = wave_residual("euclidean", phi, x)
            assert hr <= 1e-6 and nr <= 1e-6


class TestMinkowskiC:
    def test_radial_interior(self, rng):
        data = slice_data("minkowski_c", HoloFn(Q), ZERO)
        done = 0
        while done < 10:
            x = [rng.uniform(-2, 2) for _ in range(3)]
            if -x[0] ** 2 + x[1] ** 2 + x[2] ** 2 > -0.3:  # need interior
                continue
            if abs(x[1]) + abs(x[2]) < 0.2:
                continue
            done += 1
            roots = projectable_roots("minkowski_c", data, x)
            assert roots
            phi = tracked_real_branch("minkowski_c", data, x, q0=roots[0].q)
            hr, nr = wave_residual("minkowski_c", phi, x)
            assert hr <= 1e-6 and nr <= 1e-6

    def test_radial_exterior_degenerate_branches(self, rng):
        data = slice_data("minkowski_c", HoloFn(Q), ZERO)
        done = 0
        while done < 10:
            x = [rng.uniform(-2, 2) for _ in range(3)]
            if -x[0] ** 2 + x[1] ** 2 + x[2] ** 2 < 0.3:  # need exterior
                continue
            done += 1
            roots = projectable_roots("minkowski_c", data, x)
            assert roots
            for sol in roots:
                # these are the j-branches: degenerate, CN(G(q)) = -1
                assert sol.degenerate
                g = data.G(sol.q)
                assert abs(g.cn() + 1) <= 1e-8
                fibre = fibre_at(data, sol.q)
                assert fibre.tag is FibreTag.DEGENERATE_PLANE
                assert abs(fibre.normal.square()) <= 1e-10
                # the fibre plane is tangent to the light cone: its normal is
                # null and lies in the plane itself
                assert fibre.contains(fibre.normal * 1.0 + fibre.sample_points([0])[0])

    def test_radial_branch_pairing_record(self, rng):
        # empirical record of the branch labels: every slice-restricting root
        # pairs an e-root with a conjugate f-root; inside the light cone the
        # restricting pairings keep CN(G(q)) != -1 (the +-1 branches), outside
        # they force CN(G(q)) = -1 (the +-j branches)
        data = slice_data("minkowski_c", HoloFn(Q), ZERO)
        for interior in (True, False):
            done = 0
            while done < 10:
                x = [rng.uniform(-2, 2) for _ in range(3)]
                s2 = -x[0] ** 2 + x[1] ** 2 + x[2] ** 2
                if (s2 > -0.3) if interior else (s2 < 0.3):
                    continue
                if abs(x[1]) + abs(x[2]) < 0.2:
                    continue
                done += 1
                roots = projectable_roots("minkowski_c", data, x)
                assert len(roots) == 2
                for r in roots:
                    e, f = r.q.ringleb()
                    assert abs(f - e.conjugate()) <= 1e-8 * max(1.0, abs(e))
                    cng = data.G(r.q).cn()
                    if interior:
                        assert abs(cng + 1) > 0.1
                    else:
                        assert abs(cng + 1) <= 1e-8

    def test_disc_full_grid_existence(self):
        data = slice_data("minkowski_c", HoloFn(Q), HoloFn(Q) * HoloFn.const(I2))
        n = 0
        vals = [-2.0, -1.0, 0.0, 1.0, 2.0]
        for x1 in vals:
            for x2 in vals:
                for x3 in vals:
                    roots = projectable_roots("minkowski_c", data, (x1, x2, x3))
                    live = [r for r in roots if r.gradient is not None
                            and not r.degenerate]
                    assert live, (x1, x2, x3)
                    assert any(abs(r.q) < 1.0 + 1e-9 for r in live)
                    n += 1
        assert n == 125

    def test_disc_spec_point(self):
        # t = 1 at x = (0.3, 0.1, 0.2)
        data = slice_data("minkowski_c", HoloFn(Q), HoloFn(Q) * HoloFn.const(I2))
        phi = small_branch("minkowski_c", data, (0.3, 0.1, 0.2))
        hr, nr = wave_residual("minkowski_c", phi, (0.3, 0.1, 0.2))
        assert hr <= 1e-6 and nr <= 1e-6

    def test_disc_residuals_and_value_in_disc(self, rng):
        data = slice_data("minkowski_c", HoloFn(Q), HoloFn(Q) * HoloFn.const(I2))
        for _ in range(8):
            x = [rng.uniform(-2, 2) for _ in range(3)]
            phi = small_branch("minkowski_c", data, x)
            assert abs(phi(x)) <= 1.0 + 1e-9
            hr, nr = wave_residual("minkowski_c", phi, x)
            assert hr <= 1e-6 and nr <= 1e-6


class TestMinkowskiD:
    def test_radial_exterior(self, rng):
        data = slice_data("minkowski_d", HoloFn(Q), ZERO)
        done = 0
        while done < 10:
            x = [rng.uniform(-2, 2) for _ in range(3)]
            if -x[0] ** 2 + x[1] ** 2 + x[2] ** 2 < 0.3:
                continue
            if abs(x[0]) + abs(x[2]) < 0.2:
                continue
            done += 1
            roots = projectable_roots("minkowski_d", data, x)
            assert roots
            regular = [r for r in roots if not r.degenerate]
            assert regular
            phi = tracked_real_branch("minkowski_d", data, x, q0=regular[0].q)
            assert isinstance(phi(x), Hyperbolic)
            hr, nr = wave_residual("minkowski_d", phi, x)
            assert hr <= 1e-6 and nr <= 1e-6

    def test_spec_example_point(self):
        data = slice_data("minkowski_d", HoloFn(Q), ZERO)
        x = (0.0, 2.0, 0.0)
        phi = small_branch("minkowski_d", data, x)
        hr, nr = wave_residual("minkowski_d", phi, x)
        assert hr <= 1e-6 and nr <= 1e-6

    def test_disc_t_i1(self, rng):
        # t = i1 variant: h = q*j
        data = slice_data("minkowski_d", HoloFn(Q), HoloFn(Q) * HoloFn.const(J))
        done = 0
        while done < 5:
            x = [rng.uniform(-0.5, 0.5) for _ in range(3)]
            roots = projectable_roots("minkowski_d", data, x)
            roots = [r for r in roots if r.gradient is not None and not r.degenerate]
            if not roots:
                continue
            done += 1
            phi = small_branch("minkowski_d", data, x)
            hr, nr = wave_residual("minkowski_d", phi, x)
            assert hr <= 1e-6 and nr <= 1e-6


class TestSliceClosure:
    def test_projectable_roots_give_small_wave_residuals(self, rng):
        # reduction claim: any root that projects satisfies the real PDEs
        cases = [
            ("euclidean", slice_data("euclidean", HoloFn(Q), ZERO)),
            ("minkowski_c", slice_data("minkowski_c", HoloFn(Q),
                                       HoloFn(Q) * HoloFn.const(I2))),
            ("minkowski_d", slice_data("minkowski_d", HoloFn(Q), ZERO)),
        ]
        for kind, data in cases:
            done = 0
            while done < 8:
                x = [rng.uniform(-2, 2) for _ in range(3)]
                roots = [r for r in projectable_roots(kind, data, x)
                         if r.gradient is not None and r.multiplicity == 1]
                if not roots:
                    continue
                done += 1
                for sol in roots:
                    phi = tracked_real_branch(kind, data, x, q0=sol.q)
                    try:
                        hr, nr = wave_residual(kind, phi, x)
                    except NotInSliceError:
                        continue  # branch leaves the slice inside the stencil
                    # residuals relative to the branch's natural scales: the
                    # null sum is quadratic in the gradient, the wave sum
                    # linear in the curvature, both blow up near branch poles
                    g = sol.gradient.norm()
                    assert hr <= 1e-5 * max(1.0, g ** 2), (kind, x, sol.q)
                    assert nr <= 1e-5 * max(1.0, g ** 2), (kind, x, sol.q)

    @pytest.mark.parametrize("kind, phi", [
        # a jump in value breaks the first-derivative scales
        ("euclidean", lambda x: complex(0 if x[0] <= 0 else 1e3, 0)),
        ("minkowski_d", lambda x: Hyperbolic(0 if x[0] <= 0 else 1e3, 0)),
        # a kink keeps the first derivatives, breaks the second
        ("minkowski_c", lambda x: complex(abs(x[0]), 0)),
    ], ids=["euclidean-jump", "minkowski_d-jump", "minkowski_c-kink"])
    def test_branch_jump_detection(self, kind, phi):
        # a real map that is not smooth on the stencil must be flagged
        with pytest.raises(BranchJumpError):
            wave_residual(kind, phi, (0, 1, 0))


class TestCompactificationChecks:
    def sample_euclidean(self, rng, n=30):
        out = []
        for _ in range(n):
            v = [rng.gauss(0, 1) for _ in range(3)]
            r = math.sqrt(sum(x * x for x in v))
            if r < 1e-3:
                continue
            out.append([x / r for x in v])
        return out

    def sample_h2(self, rng, n=30):
        out = []
        for _ in range(n):
            a, b = rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)
            x1 = math.sqrt(1 + a * a + b * b)
            out.append([x1 if rng.random() < 0.5 else -x1, a, b])
        return out

    def sample_s21(self, rng, n=30):
        out = []
        for _ in range(n):
            t = rng.uniform(-1.2, 1.2)
            th = rng.uniform(0, 2 * math.pi)
            r = math.sqrt(1 + t * t)
            out.append([t, r * math.cos(th), r * math.sin(th)])
        return out

    def test_euclidean(self, rng):
        report = slice_compactification_check("euclidean", self.sample_euclidean(rng))
        assert report["ok"], report

    def test_minkowski_c(self, rng):
        report = slice_compactification_check("minkowski_c", self.sample_h2(rng))
        assert report["ok"], report

    def test_minkowski_d(self, rng):
        report = slice_compactification_check("minkowski_d", self.sample_s21(rng))
        assert report["ok"], report

    def test_spec_example_rows(self):
        r = slice_compactification_check("euclidean", [(0, 0, 1)])
        assert r["rows"][0]["eta"] == [1, 0, 0, 1]
        r = slice_compactification_check("minkowski_c", [(1, 0, 0)])
        assert r["rows"][0]["eta"] == [1, 1, 0, 0]
        r = slice_compactification_check("minkowski_d", [(0, 1, 0)])
        assert r["rows"][0]["eta"] == [1, 0, 0, -1]

    def test_off_surface_rejected(self):
        with pytest.raises(InvalidInputError):
            slice_compactification_check("euclidean", [(1, 1, 1)])
