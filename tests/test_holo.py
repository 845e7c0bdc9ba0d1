"""Expression trees and bicomplex-holomorphic functions."""

import json

import pytest

from bhm.core import Bicomplex, I2, J, embed_complex, embed_complex_i1, embed_hyperbolic
from bhm.core import Hyperbolic
from bhm.errors import ExprSchemaError, InvalidInputError, PoleEncounteredError, RangeOverflowError
from bhm.holo import (
    Const,
    HoloFn,
    Var,
    cr_residual,
    expr_from_json,
    expr_to_json,
    holofn_from_json,
    holofn_to_json,
    poly_coefficients,
)

from conftest import rand_bicomplex, rand_complex

Q = Var()

# the four unit directions and their exact inverses, for difference quotients
DIRECTIONS = [
    ("1", lambda t: Bicomplex(t, 0), lambda t: Bicomplex(1 / t, 0)),
    ("i1", lambda t: Bicomplex(t * 1j, 0), lambda t: Bicomplex(-1j / t, 0)),
    ("i2", lambda t: Bicomplex(0, t), lambda t: Bicomplex(0, -1 / t)),
    ("j", lambda t: Bicomplex(0, t * 1j), lambda t: Bicomplex(0, 1j / t)),
]


class TestExpr:
    def test_eval_basic(self):
        e = (Q ** 2 + 3) * Q - Const(1j)
        z = 0.7 - 0.2j
        assert abs(e(z) - ((z * z + 3) * z - 1j)) < 1e-14

    def test_derivative_product_rule_against_fd(self, rng):
        f = (Q ** 3 - 2 * Q) * (Q ** 2 + Const(1j))
        df = f.diff()
        h = 1e-5
        for _ in range(50):
            z = rand_complex(rng)
            fd = (f(z + h) - f(z - h)) / (2 * h)
            assert abs(fd - df(z)) <= 1e-6 * max(1.0, abs(df(z)))

    def test_division_derivative(self, rng):
        f = (Q - 1) / (Q + 1)
        df = f.diff()
        for _ in range(50):
            z = rand_complex(rng)
            if abs(z + 1) < 0.2:
                continue
            expected = 2 / (z + 1) ** 2
            assert abs(df(z) - expected) <= 1e-10 * max(1.0, abs(expected))

    def test_a_quotient_derivative_folds_the_square_of_a_constant_divisor(self):
        # (q / c)' = c / c^2, with c^2 folded to one constant where it is
        # finite; where it passes the double range the derivative names the
        # divisor (was the bare OverflowError: complex exponentiation)
        c = complex(1e150, -3e149)
        assert expr_to_json((Q / Const(c)).diff()) == {
            "op": "div", "args": [expr_to_json(Const(c)), expr_to_json(Const(c ** 2))]}
        with pytest.raises(RangeOverflowError, match=r"divisor \(1e\+155\+0j\) overflows"):
            (Q / Const(1e155)).diff()

    def test_pole_detection(self):
        f = 1 / (Q - 1)
        with pytest.raises(PoleEncounteredError):
            f(1.0)

    def test_substitution(self, rng):
        f = Q ** 2 + 1
        g = Q ** 3 - Q
        comp = f.subs({"q": g})
        for _ in range(20):
            z = rand_complex(rng)
            assert abs(comp(z) - (g(z) ** 2 + 1)) < 1e-12 * max(1.0, abs(z) ** 6)

    def test_poly_coefficients(self):
        f = (Q - 1) * (Q + Const(2j))
        assert poly_coefficients(f) == [-2j, -1 + 2j, 1 + 0j]
        assert poly_coefficients(Const(5)) == [5 + 0j]
        assert poly_coefficients(Q / 2) == [0j, 0.5 + 0j]
        with pytest.raises(InvalidInputError):
            poly_coefficients(1 / Q)


class TestExprJSON:
    def test_grammar_roundtrip(self, rng):
        f = ((Q ** 2 - Const(1 + 2j)) * Q + 5) / (Q + 3)
        f2 = expr_from_json(json.loads(json.dumps(expr_to_json(f))))
        for _ in range(20):
            z = rand_complex(rng)
            assert abs(f(z) - f2(z)) < 1e-13 * max(1.0, abs(f(z)))

    def test_scalar_const_accepted(self):
        assert expr_from_json({"op": "const", "value": 2})(0) == 2

    @pytest.mark.parametrize("bad", [
        {"op": "nope"},
        {"op": "const"},
        {"op": "add", "args": [{"op": "var"}]},
        {"op": "pow", "args": [{"op": "var"}], "exp": "2"},
        {"op": "pow", "args": [{"op": "var"}, {"op": "var"}], "exp": 2},
        "not an object",
    ])
    def test_schema_errors(self, bad):
        with pytest.raises(ExprSchemaError):
            expr_from_json(bad)


class TestHoloFn:
    def test_eval_identity_and_square(self):
        ident = HoloFn.identity()
        q = Bicomplex(2, 3)
        assert abs(ident(q) - q) == 0
        sq = HoloFn(Q ** 2)
        assert (sq(I2)).to_reals() == [-1, 0, 0, 0]

    def test_one_sided_projection(self):
        # f1 = var, f2 = 0 evaluates to e*(1-j)/2: direct Ringleb oracle
        psi = HoloFn(Q, Const(0))
        val = psi(Bicomplex(1, 0))
        assert val.to_reals() == [0.5, 0, 0, -0.5]  # (1-j)/2

    def test_eval_splits_through_ringleb(self, rng):
        psi = HoloFn(Q ** 2 - 1, Q ** 3 + Const(2j))
        for _ in range(50):
            q = rand_bicomplex(rng)
            e, f = q.ringleb()
            ve, vf = psi(q).ringleb()
            assert abs(ve - (e * e - 1)) < 1e-11 * max(1.0, abs(e) ** 2)
            assert abs(vf - (f ** 3 + 2j)) < 1e-11 * max(1.0, abs(f) ** 3)

    def test_derivative_examples(self):
        sq = HoloFn(Q ** 2)
        assert abs(sq.derivative()(Bicomplex(1, 1)) - Bicomplex(2, 2)) < 1e-14
        const = HoloFn.const(Bicomplex(1, 2))
        assert abs(const.derivative()(Bicomplex(0.3, 4))) == 0
        cube = HoloFn(Q ** 3)
        assert abs(cube.derivative()(J) - 3) < 1e-14  # 3 j^2 = 3

    def test_derivative_against_difference_quotients(self, rng):
        psi = HoloFn(Q ** 3 - Q, Q ** 2 + Const(1j) * Q)
        dpsi = psi.derivative()
        t = 1e-6
        for _ in range(20):
            q = rand_bicomplex(rng)
            for _, mk, mk_inv in DIRECTIONS:
                quotient = (psi(q + mk(t)) - psi(q)) * mk_inv(t)
                assert abs(quotient - dpsi(q)) <= 1e-5 * max(1.0, abs(dpsi(q)))

    def test_composition_is_exact(self, rng):
        outer = HoloFn(Q ** 2 + 1, Q - Const(2j))
        inner = HoloFn(Q ** 2, Q ** 3)
        comp = outer.compose(inner)
        dcomp = comp.derivative()
        chain = (outer.derivative().compose(inner))
        dinner = inner.derivative()
        for _ in range(30):
            q = rand_bicomplex(rng, 1.2)
            assert abs(comp(q) - outer(inner(q))) < 1e-11 * max(1.0, abs(q) ** 6)
            lhs = dcomp(q)
            rhs = chain(q) * dinner(q)
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))

    def test_pole_through_holofn(self):
        f = HoloFn(1 / (Q - 1))
        with pytest.raises(PoleEncounteredError):
            f(Bicomplex(1, 0))


class TestRestriction:
    def test_i1_axis_restriction_any_coefficients(self, rng):
        # f1 = f2 = f extends f along the i1-plane, exactly
        f = Const(1j) * Q ** 2 + Const(2 - 1j) * Q + 5
        psi = HoloFn(f)
        for _ in range(50):
            z = rand_complex(rng)
            lhs = psi(embed_complex_i1(z))
            rhs = embed_complex_i1(f(z))
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))

    def test_i2_axis_restriction_real_coefficients(self, rng):
        f = Q ** 3 - 2 * Q + 1
        psi = HoloFn(f)
        for _ in range(50):
            z = rand_complex(rng)
            lhs = psi(embed_complex(z))
            rhs = embed_complex(f(z))
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))

    def test_i2_axis_restriction_conjugate_pair(self, rng):
        # f2 with conjugated coefficients keeps the i2-plane invariant
        f1 = Const(1j) * Q ** 2 + Const(2 - 1j)
        f2 = Const(-1j) * Q ** 2 + Const(2 + 1j)
        psi = HoloFn(f1, f2)
        for _ in range(50):
            z = rand_complex(rng)
            val = psi(embed_complex(z))
            assert abs(val.z1.imag) < 1e-12 and abs(val.z2.imag) < 1e-12

    def test_hyperbolic_restriction_real_coefficients(self, rng):
        f = Q ** 2 - 3 * Q + 0.5
        psi = HoloFn(f)
        for _ in range(50):
            h = Hyperbolic(rng.uniform(-2, 2), rng.uniform(-2, 2))
            val = psi(embed_hyperbolic(h))
            # D-valued: z1 real, z2 imaginary
            assert abs(val.z1.imag) < 1e-12
            assert abs(val.z2.real) < 1e-12


class TestCRResidual:
    def test_induced_pairs_satisfy_cr(self, rng):
        for fn in (HoloFn(Q ** 2), HoloFn(Q ** 3 - Q, Q ** 2 + 1),
                   HoloFn((Q - 1) / (Q + 1))):
            p1, p2 = fn.i2_components()
            checked = 0
            while checked < 100:
                q = rand_bicomplex(rng, 5.0)
                try:
                    r = cr_residual(p1, p2, q)
                except PoleEncounteredError:
                    continue
                checked += 1
                assert r <= 1e-10

    def test_violating_pair(self):
        assert cr_residual(Var("q1"), Var("q1"), Bicomplex(0, 0)) == 1.0

    def test_constant_pair(self):
        assert cr_residual(Const(3 + 1j), Const(-2), Bicomplex(1, 2)) == 0.0

    def test_square_example(self):
        p1, p2 = HoloFn(Q ** 2).i2_components()
        assert cr_residual(p1, p2, Bicomplex(1, 1)) <= 1e-10


class TestHoloFnJSON:
    def test_shorthand_and_pair(self):
        assert holofn_from_json({"f": {"op": "var"}})(Bicomplex(1, 2)) == Bicomplex(1, 2)
        fn = holofn_from_json({
            "f1": {"op": "pow", "args": [{"op": "var"}], "exp": 2},
            "f2": {"op": "const", "value": [0, 0]},
        })
        e, f = fn(Bicomplex(1, 2)).ringleb()
        assert abs(f) == 0

    def test_roundtrip(self, rng):
        fn = HoloFn(Q ** 2 - Const(2j), Q + 1)
        fn2 = holofn_from_json(json.loads(json.dumps(holofn_to_json(fn))))
        for _ in range(20):
            q = rand_bicomplex(rng)
            assert abs(fn(q) - fn2(q)) < 1e-13 * max(1.0, abs(q) ** 2)

    def test_schema_error(self):
        with pytest.raises(ExprSchemaError):
            holofn_from_json({"f1": {"op": "var"}})
