"""The batched root pass against the scalar path it reproduces.

``CArray`` operations are held to CPython's complex arithmetic, the
batch's numpy quotient to numpy's scalar one, and ``RootBatch`` lanes to
``solve_roots``, ``solve_phi`` and ``fibre_at``, bit for bit: every
comparison is on ``float.hex`` of each part, in order.  Lane arithmetic
runs under the caller's ``np.errstate``, so the tests that call it directly
hold one, as the library's batches do.
"""

import gc
import io
import json
import math
import random
import sys
from collections import Counter

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bhm.cli
from bhm.cli import _congruence_residual, run
import bhm.weierstrass
from bhm.core import C_POWI_MAX, I2, BArray, Bicomplex, CArray
from bhm.errors import PoleEncounteredError
from bhm.geometry import CVec3
from bhm.holo import Add, Const, Div, HoloFn, Lanes, Mul, Pow, Sub, Var
from bhm.weierstrass import (
    FibreBatch,
    RootBatch,
    WeierstrassData,
    _canonical_roots,
    _coeff_scale,
    _coeff_scale_lanes,
    _derivative_lanes,
    _evaluate,
    _lane_fibres,
    _numpy_quotient,
    _poly_roots,
    _side_roots,
    _stacked_solve,
    fibre_at,
    solve_phi,
    solve_roots,
)

Q = Var()

# finite doubles of every kind: signed zeros, subnormals, huge and ordinary
_finite = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-300, 1e300,
                     -1e300, 1.7e308, 1.0, -1.0, 0.5]),
    st.floats(-4, 4),
    st.floats(allow_nan=False, allow_infinity=False),
)
_double = st.one_of(_finite, st.sampled_from([math.inf, -math.inf, math.nan]))
_complex = st.builds(complex, _double, _double)


def _bits(z):
    """Exact bits of a complex (NaN payloads aside)."""
    return tuple("nan" if x != x else x.hex() for x in (z.real, z.imag))


def _lanes(a):
    return [complex(z) for z in a.complex()]


def _scalar(op, *args):
    try:
        return _bits(op(*args))
    except (ZeroDivisionError, OverflowError) as exc:
        return type(exc).__name__


# ---------------------------------------------------------------------------
# the exact array layer

_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / b,
    "neg": lambda a, b: -a,
    "int-rsub": lambda a, b: 1 - a,
    "int-rmul": lambda a, b: -2 * a,
    "int-mul": lambda a, b: a * 3,
    "float-div": lambda a, b: a / 2.0,
    "complex-div": lambda a, b: a / (0.25 - 3j),
    "complex-div-by-re": lambda a, b: a / (-1.5 + 0.75j),
    "complex-rmul": lambda a, b: 1j * a,
}


class TestExactArrays:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(a=st.lists(_complex, min_size=1, max_size=40), data=st.data(),
           op=st.sampled_from(sorted(_OPS)))
    def test_each_op_matches_cpython(self, a, data, op):
        b = data.draw(st.lists(_complex, min_size=len(a), max_size=len(a)))
        fn = _OPS[op]
        with np.errstate(all="ignore"):
            lanes = _lanes(fn(CArray.of(a), CArray.of(b)))
        for x, y, got in zip(a, b, lanes):
            want = _scalar(fn, x, y)
            if want == "ZeroDivisionError":
                continue  # documented: the caller masks a zero divisor
            assert _bits(got) == want, (op, x, y)

    @pytest.mark.parametrize("op", sorted(_OPS))
    def test_each_op_on_seeded_operands(self, op):
        # ordinary operands round differently under numpy's own complex
        # arithmetic on about half the lanes; a few special values ride along
        rng = random.Random(sorted(_OPS).index(op))
        special = [0.0, -0.0, 5e-324, 1e300, -1e-300, math.inf, math.nan]

        def part():
            return rng.choice(special) if rng.random() < 0.05 else rng.uniform(-4, 4)

        a = [complex(part(), part()) for _ in range(2000)]
        b = [complex(part(), part()) for _ in range(2000)]
        fn = _OPS[op]
        with np.errstate(all="ignore"):
            lanes = _lanes(fn(CArray.of(a), CArray.of(b)))
        for x, y, got in zip(a, b, lanes):
            want = _scalar(fn, x, y)
            if want != "ZeroDivisionError":
                assert _bits(got) == want, (op, x, y)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(a=st.lists(_complex, min_size=1, max_size=40), data=st.data())
    def test_numpy_quotient_matches_numpy_scalars(self, a, data):
        # the scalar _poly_roots divides np.complex128 values (np.sqrt's,
        # np.roots') by Python complex ones and Python ones by them
        b = data.draw(st.lists(_complex, min_size=len(a), max_size=len(a)))
        with np.errstate(all="ignore"):
            got = _lanes(_numpy_quotient(CArray.of(a), CArray.of(b)))
            for x, y, g in zip(a, b, got):
                assert _bits(g) == _bits(complex(np.complex128(x) / y)) == \
                    _bits(complex(x / np.complex128(y)))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(a=st.lists(_complex, min_size=1, max_size=40))
    def test_abs_is_hypot_and_sqrt_is_numpy(self, a):
        with np.errstate(all="ignore"):
            mag = abs(CArray.of(a))
        for x, m in zip(a, mag.tolist()):
            want = _scalar(abs, x)
            if want != "OverflowError":  # hypot past the double range
                assert m == abs(x) or (m != m and abs(x) != abs(x))
        with np.errstate(all="ignore"):
            arr = np.sqrt(CArray.of(a).complex())
            assert [_bits(complex(r)) for r in arr] == \
                [_bits(complex(np.sqrt(x))) for x in a]

    def test_assembly_keeps_negative_zero(self):
        lanes = _lanes(CArray(np.array([-0.0, 1.0]), np.array([-0.0, -0.0])))
        assert [_bits(z) for z in lanes] == [_bits(complex(-0.0, -0.0)),
                                            _bits(complex(1.0, -0.0))]


# ---------------------------------------------------------------------------
# one side's roots: mixed degrees, trimmed leads, zero constants, clusters


def _side_outcome(re, im, lane):
    coeffs = [complex(r, i) for r, i in zip(re[lane], im[lane])]
    try:
        with np.errstate(all="ignore"):
            return [(_bits(r), m) for r, m in _poly_roots(coeffs)]
    except Exception as exc:
        return type(exc).__name__


def _scalar_only(re, im, lane, want):
    """Whether a lane may be left to the scalar path: that path raises, a
    coefficient or root is not finite, or np.roots' all-zero case applies
    (a power s^d, d >= 3, whose roots come back real-typed)."""
    if isinstance(want, str):
        return True
    if not (np.isfinite(re[lane]).all() and np.isfinite(im[lane]).all()):
        return True
    if any(x == "nan" or not math.isfinite(float.fromhex(x)) for r, _ in want for x in r):
        return True
    return sum(m for _, m in want) >= 3 and all(r == ("0x0.0p+0", "0x0.0p+0")
                                                 for r, _ in want)


def _from_roots(roots, lead):
    c = [lead]
    for r in roots:
        nxt = [0j] * (len(c) + 1)
        for k, a in enumerate(c):
            nxt[k + 1] += a
            nxt[k] -= a * r
        c = nxt
    return c


@st.composite
def _side_lane(draw, width=7):
    """Ascending coefficients of degree 0-6, padded to ``width``: random,
    with repeated roots, a zero constant term or a trimmed lead."""
    kind = draw(st.sampled_from(["random", "double", "zero-const", "trimmed", "wild"]))
    deg = draw(st.integers(0, width - 1))
    if kind == "wild":
        coeffs = draw(st.lists(_complex, min_size=deg + 1, max_size=deg + 1))
    elif kind == "double" and deg >= 2:
        r = draw(st.builds(complex, st.floats(-2, 2), st.floats(-2, 2)))
        rest = draw(st.lists(st.builds(complex, st.floats(-2, 2), st.floats(-2, 2)),
                             min_size=deg - 2, max_size=deg - 2))
        coeffs = _from_roots([r, r] + rest, complex(draw(st.floats(0.5, 2)), 0.3))
    else:
        coeffs = draw(st.lists(st.builds(complex, st.floats(-3, 3), st.floats(-3, 3)),
                               min_size=deg + 1, max_size=deg + 1))
    if kind == "zero-const":
        coeffs[0] = complex(0.0, draw(st.sampled_from([0.0, -0.0])))
        if deg >= 2 and draw(st.booleans()):
            coeffs[1] = 0j
    if kind == "trimmed" and coeffs:
        coeffs[-1] = coeffs[-1] * 1e-14
    return coeffs + [0j] * (width - len(coeffs))


class TestSideRoots:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(lanes=st.lists(_side_lane(), min_size=1, max_size=24))
    def test_lanes_match_poly_roots(self, lanes):
        a = np.array(lanes, dtype=complex)
        re, im = a.real.copy(), a.imag.copy()
        with np.errstate(all="ignore"):
            ok, reps, mult, count = _side_roots(re, im)
        for lane in range(len(lanes)):
            want = _side_outcome(re, im, lane)
            if not ok[lane]:
                assert _scalar_only(re, im, lane, want)
                continue
            got = [(_bits(complex(reps.re[lane, k], reps.im[lane, k])), int(mult[lane, k]))
                   for k in range(count[lane])]
            assert got == want

    def test_finite_regular_lanes_are_all_batched(self):
        rng = random.Random(7)
        lanes = [[complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(d + 1)]
                 + [0j] * (6 - d) for d in range(7) for _ in range(20)]
        a = np.array(lanes)
        ok, *_ = _side_roots(a.real.copy(), a.imag.copy())
        assert ok.all()


# ---------------------------------------------------------------------------
# whole points: RootBatch against _canonical_roots and solve_phi


def _poly(coeffs):
    e = Const(coeffs[0])
    for k, c in enumerate(coeffs[1:], start=1):
        e = e + Const(c) * Q ** k
    return e


_coeff = st.builds(complex, st.floats(-2, 2), st.floats(-2, 2))


@st.composite
def _data(draw, max_deg=3):
    def side():
        return _poly(draw(st.lists(_coeff, min_size=1, max_size=max_deg + 1)))
    G = HoloFn(side(), side())
    H = HoloFn(side(), side())
    return WeierstrassData(G, H)


_coord = st.one_of(_coeff, st.builds(complex, _finite, _finite),
                   st.sampled_from([0j, complex(-0.0, 0.0), complex(0.0, -0.0), 1j]))
_point = st.builds(CVec3, _coord, _coord, _coord)


def _solution_outcome(fn):
    try:
        sols = fn()
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return [repr(s) for s in sols]


def _roots_outcome(fn):
    try:
        roots = fn()
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return [(_bits(q.z1), _bits(q.z2)) for q in roots]


def _assert_point_matches(data, batch, i, z):
    """Lane i of the batch reads as the scalar path at z: its roots, bit for
    bit, and its solutions (each root's multiplicity, residual and implicit
    derivatives, which read the lane's side roots and components), or the
    error the scalar path raises."""
    assert _roots_outcome(lambda: batch.roots(i)) == _roots_outcome(lambda: solve_roots(data, z))
    assert (_solution_outcome(lambda: batch.solutions(i))
            == _solution_outcome(lambda: solve_phi(data, z)))


class TestRootBatch:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(data=_data(), points=st.lists(_point, min_size=1, max_size=12))
    def test_lanes_match_canonical_roots(self, data, points):
        with np.errstate(all="ignore"):
            batch = RootBatch(data, points)
            for i, z in enumerate(points):
                _assert_point_matches(data, batch, i, z)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(data=_data(max_deg=2),
           points=st.lists(st.builds(CVec3, _coeff, _coeff, _coeff), min_size=1, max_size=6))
    def test_solutions_match_solve_phi(self, data, points):
        batch = RootBatch(data, points)
        for i, z in enumerate(points):
            assert (_solution_outcome(lambda: batch.solutions(i))
                    == _solution_outcome(lambda: solve_phi(data, z)))

    def test_mixed_degrees_in_one_batch(self):
        # the top coefficients cancel where z2 = +-i z3 and the constant
        # term where H(0) = 0 meets z = 0 components: one batch holds
        # lanes of several trimmed degrees on each side
        data = WeierstrassData(HoloFn(_poly([0.5, 1 - 1j, 0.3j]), _poly([1, 0.2, 0.7])),
                               HoloFn(_poly([0, 1, 0.5, 0.25]), _poly([0, 2j, 1])))
        rng = random.Random(3)
        points = []
        for _ in range(40):
            z3 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            z2 = rng.choice([1j * z3, -1j * z3, complex(rng.uniform(-1, 1), 0.5)])
            z1 = rng.choice([0j, complex(rng.uniform(-1, 1), rng.uniform(-1, 1))])
            points.append(CVec3(z1, z2, z3))
        batch = RootBatch(data, points)
        degrees = set()
        for i, z in enumerate(points):
            fe, ff, pairs = _canonical_roots(data, z)
            degrees.add((sum(m for _, m in _poly_roots(fe)), sum(m for _, m in _poly_roots(ff))))
            assert batch._ok[i]
            _assert_point_matches(data, batch, i, z)
        assert len(degrees) >= 3

    def test_error_lanes_raise_on_read(self):
        # with G = H = 0 the sides are the constants z2 +- i z3: the e-side
        # vanishes identically at the first point, the f-side at the second
        data = WeierstrassData(HoloFn(Const(0)), HoloFn(Const(0)))
        points = [CVec3(1, 1, 1j), CVec3(0.5, 2j, 2)]
        batch = RootBatch(data, points)
        for i, z in enumerate(points):
            assert not batch._ok[i]
            with pytest.raises(Exception) as want:
                _canonical_roots(data, z)
            want = type(want.value).__name__, str(want.value)
            for read in (batch.roots, batch.solutions, lambda i: list(batch.fibres(i))):
                assert _solution_outcome(lambda: read(i)) == want

    def test_huge_lane_is_left_to_the_scalar_path(self):
        data = WeierstrassData(HoloFn(Const(0)), HoloFn(Q))
        # the e-side constant term z2 + i z3 is 1.5e308 (1 + i): finite, but
        # past the range of its abs
        points = [CVec3(0, 1.5e308j, -1.5e308j), CVec3(0.3, 1.1, -0.2)]
        # the array pass keeps its overflow warnings to itself (warnings
        # are errors in this suite); the scalar path it leaves the lane to
        # warns as it always did
        batch = RootBatch(data, points)
        assert batch._ok == [False, True]
        with np.errstate(all="ignore"):
            for i, z in enumerate(points):
                _assert_point_matches(data, batch, i, z)


# ---------------------------------------------------------------------------
# whole congruence solves against a 50-digit oracle

ORACLE_DPS = 50


def _side_value(g, h, s, z, unit):
    """F on one idempotent side at s: -2 G z1 + (1 - G^2) z2 + (1 + G^2) z3 u - 2 H."""
    gs = mpmath.polyval(list(reversed(g)), s)
    hs = mpmath.polyval(list(reversed(h)), s)
    terms = [-2 * gs * z[0], (1 - gs * gs) * z[1], (1 + gs * gs) * z[2] * unit, -2 * hs]
    return abs(sum(terms)), max(mpmath.mpf(1), sum(abs(t) for t in terms))


def _oracle_cases(seed=11, n=24):
    """Seeded per-side polynomial G and H of degree 1-3 with a point z; in
    every third case H is tuned to give the e-side a near-double root."""
    rng = random.Random(seed)

    def rc():
        return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))

    cases = []
    for k in range(n):
        z = [rc(), rc(), rc()]
        g = {side: [rc() for _ in range(rng.randint(2, 4))] for side in "ef"}
        h = {side: [rc() for _ in range(rng.randint(2, 4))] for side in "ef"}
        if k % 3 == 0:
            # deg G = 1 on the e-side: its quadratic is A(s) - 2 H(s); pick H
            # so that it is lead * (s - a) (s - a - delta)
            g0, g1 = g["e"][:2] = [rc(), complex(1.0, 0.5)]
            g["e"] = [g0, g1]
            a_coeffs = [-2 * g0 * z[0] + (1 - g0 * g0) * z[1] + (1 + g0 * g0) * z[2] * 1j,
                        -2 * g1 * z[0] + (-2 * g0 * g1) * z[1] + (2 * g0 * g1) * z[2] * 1j,
                        (-g1 * g1) * z[1] + (g1 * g1) * z[2] * 1j]
            a, delta = rc(), 10.0 ** -rng.randint(4, 9)
            lead = a_coeffs[2]
            target = [lead * a * (a + delta), -lead * (2 * a + delta), lead]
            h["e"] = [(x - y) / 2 for x, y in zip(a_coeffs[:2], target[:2])]
        cases.append((z, g, h))
    return cases


def _data_of(g, h):
    return WeierstrassData(HoloFn(_poly(g["e"]), _poly(g["f"])),
                           HoloFn(_poly(h["e"]), _poly(h["f"])))


class TestCongruenceOracle:
    @pytest.mark.parametrize("path", ["scalar", "batched"])
    @mpmath.workdps(ORACLE_DPS)
    def test_roots_solve_the_congruence(self, path):
        cases = _oracle_cases()
        datas = [_data_of(g, h) for _, g, h in cases]
        for (z, g, h), data in zip(cases, datas):
            zc = CVec3(*z)
            if path == "scalar":
                pairs = [(q, ms * mw) for q, _, ms, _, mw in _canonical_roots(data, zc)[2]]
            else:
                batch = RootBatch(data, [zc])
                assert batch._ok[0]
                pairs = [(sol.q, sol.multiplicity) for sol in batch.solutions(0)]
                assert [q for q, _ in pairs] == batch.roots(0)
            fe, ff, _ = _canonical_roots(data, zc)
            d_e = sum(m for _, m in _poly_roots(fe))
            d_f = sum(m for _, m in _poly_roots(ff))
            assert sum(m for _, m in pairs) == d_e * d_f
            mz = [mpmath.mpc(c) for c in z]
            ge = [mpmath.mpc(c) for c in g["e"]]
            gf = [mpmath.mpc(c) for c in g["f"]]
            he = [mpmath.mpc(c) for c in h["e"]]
            hf = [mpmath.mpc(c) for c in h["f"]]
            for q, _ in pairs:
                z1, z2 = mpmath.mpc(q.z1), mpmath.mpc(q.z2)
                s, w = z1 + 1j * z2, z1 - 1j * z2
                for coeffs_g, coeffs_h, x, unit in ((ge, he, s, 1j), (gf, hf, w, -1j)):
                    value, scale = _side_value(coeffs_g, coeffs_h, x, mz, unit)
                    assert value <= 1e-10 * scale, (path, z, q)


# ---------------------------------------------------------------------------
# the CLI's blocks do not change a byte


_BLOCK_CONFIGS = [
    {"task": "slice", "slice": "euclidean", "g": {"f": {"op": "var"}},
     "h": {"f": {"op": "const", "value": [0, 0]}},
     "grid": {"min": [0.3, 0.4, 0.5], "max": [1.7, 1.9, 1.2], "counts": [3, 2, 2]},
     "format": "csv"},
    {"task": "slice", "slice": "minkowski_d", "g": {"f": {"op": "var"}},
     "h": {"f1": {"op": "mul", "args": [{"op": "const", "value": [-1, 0]}, {"op": "var"}]},
           "f2": {"op": "var"}},
     "points": [[0.3, 0.7, -0.4], [0.5, -0.1, 0.2], [0.9, 0.2, 0.1], [0.0, 0.0, 0.0]]},
    {"task": "verify", "data": {"G": {"f": {"op": "var"}},
                                "H": {"f": {"op": "const", "value": [0, 0]}}},
     "points": [[0.3, 1.1, -0.2], [1.0, -0.5, [0.2, 0.4]], [0.7, 0.1, 0.9],
                [[0, -0.0], 1, [0, 1]]]},
    {"task": "solve", "data": {"G": {"f": {"op": "pow", "args": [{"op": "var"}], "exp": 3}},
                               "H": {"f": {"op": "var"}}},
     "points": [[0.3, 1.1, -0.2], [1.0, -0.5, [0.2, 0.4]], [0.7, 0.1, 0.9]]},
]


def _cli_output(config):
    out = io.StringIO()
    with np.errstate(all="ignore"):
        try:
            run(config, out)
        except Exception as exc:
            return type(exc).__name__, str(exc)
    return out.getvalue()


@pytest.mark.parametrize("config", _BLOCK_CONFIGS, ids=["slice-grid", "slice-points",
                                                        "verify", "solve"])
def test_block_size_does_not_change_the_output(config, monkeypatch):
    default = _cli_output(config)
    assert isinstance(default, str) and default
    for size in (1, 3):
        monkeypatch.setattr(bhm.weierstrass, "BLOCK_POINTS", size)
        assert _cli_output(config) == default


def test_an_error_keeps_its_place_across_blocks(monkeypatch):
    # the second point's component vanishes identically (DegenerateAll),
    # the first's stencil is fine: whatever the block, the run raises the
    # same error, and with a point-by-point run's message
    config = {"task": "verify", "data": {"G": {"f": {"op": "const", "value": [0, 1]}},
                                         "H": {"f": {"op": "const", "value": [0, 0]}}},
              "points": [[0.3, 1.1, -0.2], [0, 0, 0]]}
    default = _cli_output(config)
    assert isinstance(default, tuple)
    for size in (1, 3):
        monkeypatch.setattr(bhm.weierstrass, "BLOCK_POINTS", size)
        assert _cli_output(config) == default


# ---------------------------------------------------------------------------
# powers, trees and the derivative step over lanes


def _nonfinite(z):
    return not (math.isfinite(z.real) and math.isfinite(z.imag))


class TestLanePowers:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(a=st.lists(_complex, min_size=1, max_size=40), n=st.integers(-64, 64))
    def test_power_matches_cpython(self, a, n):
        with np.errstate(all="ignore"):
            lanes = _lanes(CArray.of(a) ** n)
        for x, got in zip(a, lanes):
            want = _scalar(lambda x: x ** n, x)
            if isinstance(want, str):
                # CPython raises on an infinite part (OverflowError) and on
                # 1 / 0 (ZeroDivisionError): the lane is not finite
                assert _nonfinite(got), (x, n)
            else:
                assert _bits(got) == want, (x, n)

    def test_power_on_seeded_operands(self):
        rng = random.Random(5)
        special = [0.0, -0.0, 5e-324, -2.2e-308, 1e-160, 1e154, -1e300]

        def part():
            return rng.choice(special) if rng.random() < 0.05 else rng.uniform(-3, 3)

        a = [complex(part(), part()) for _ in range(2000)]
        arr = CArray.of(a)
        for n in list(range(1, 65)) + [-1, -2, -3, -7]:
            with np.errstate(all="ignore"):
                lanes = _lanes(arr ** n)
            for x, got in zip(a, lanes):
                want = _scalar(lambda x: x ** n, x)
                if isinstance(want, str):
                    assert _nonfinite(got), (x, n)
                else:
                    assert _bits(got) == want, (x, n)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(x=st.lists(_finite.map(abs), min_size=1, max_size=40), k=st.integers(0, 8))
    def test_float_power_is_cpython_float_pow(self, x, k):
        # libm's pow, which CPython's float ** k calls and numpy's ** does not
        with np.errstate(over="ignore"):
            got = np.float_power(np.array(x), k).tolist()
        for v, g in zip(x, got):
            try:
                want = v ** k
            except OverflowError:
                assert g == math.inf
                continue
            assert g.hex() == want.hex(), (v, k)


def _seeded_parts(rng, n, special=(0.0, -0.0, 5e-324, 1e-160, 1e154, -1e300, 1.5e308)):
    def part():
        return rng.choice(special) if rng.random() < 0.05 else rng.uniform(-3, 3)
    return [complex(part(), part()) for _ in range(n)]


_LANE_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "rsub-bicomplex": lambda a, b: Bicomplex(0.0) - a,
    "rsub-int": lambda a, b: 1 - a,
    "mul": lambda a, b: a * b,
    "rmul-int": lambda a, b: -2 * a,
    "mul-i2": lambda a, b: a * I2,
    "mul-complex": lambda a, b: a * b.z1,
    "cn": lambda a, b: a.cn(),
    "norm2": lambda a, b: a.norm2(),
    "abs": lambda a, b: abs(a),
    "ringleb": lambda a, b: a.ringleb()[1],
    "from_ringleb": lambda a, b: type(a).from_ringleb(a.z1, b.z2),
}


def _lane_parts(value, k):
    """Lane k of a BArray, CArray or float array as a tuple of part bits."""
    if isinstance(value, BArray):
        return _bits(complex(value.z1.re[k], value.z1.im[k])) + \
            _bits(complex(value.z2.re[k], value.z2.im[k]))
    if isinstance(value, CArray):
        return _bits(complex(value.re[k], value.im[k]))
    return _bits(complex(float(value[k]), 0.0))


def _scalar_parts(value):
    if isinstance(value, Bicomplex):
        return _bits(value.z1) + _bits(value.z2)
    return _bits(complex(value))


@pytest.mark.parametrize("op", sorted(_LANE_OPS))
def test_bicomplex_lanes_match_bicomplex(op):
    # libm's pow (float ** 2) and numpy's x ** 2 part on about 1 operand in
    # 1 000: norm2 and abs need 5 000 lanes to show it
    rng = random.Random(sorted(_LANE_OPS).index(op))
    z1, z2, w1, w2 = (_seeded_parts(rng, 5000) for _ in range(4))
    fn = _LANE_OPS[op]
    with np.errstate(all="ignore"):
        lanes = fn(BArray(CArray.of(z1), CArray.of(z2)), BArray(CArray.of(w1), CArray.of(w2)))
    for k in range(5000):
        try:
            want = _scalar_parts(fn(Bicomplex(z1[k], z2[k]), Bicomplex(w1[k], w2[k])))
        except OverflowError:
            continue  # CPython raises where the lane holds inf: callers check finiteness
        assert _lane_parts(lanes, k) == want, (op, k)


def test_coeff_scale_lanes_match_coeff_scale():
    rng = random.Random(9)
    width = 7
    coeffs = [_seeded_parts(rng, width) for _ in range(3000)]
    degs = [rng.randint(1, width - 1) for _ in coeffs]
    roots = _seeded_parts(rng, 3000, special=(0.0, -0.0, 1e-160, 1e60))
    a = np.array(coeffs)
    d = np.array(degs)
    with np.errstate(all="ignore"):
        dre, dim = _derivative_lanes(a.real.copy(), a.imag.copy(), d)
        got = _coeff_scale_lanes(dre, dim, d, CArray.of(roots)).tolist()
    for c, deg, s, g in zip(coeffs, degs, roots, got):
        dfe = [k * x for k, x in enumerate(c[:deg + 1])][1:]
        try:
            want = _coeff_scale(dfe, s)
        except OverflowError:
            assert g == math.inf or g != g
            continue
        assert g.hex() == want.hex() if want == want else g != g


_near_pole = st.sampled_from([1e-12, 3e-12, -2e-12j, 1e-11 + 1e-11j, 5e-13, 1e-300, 0j,
                              -0.0 + 0j])


def _trees():
    leaves = st.one_of(st.just(Var()), _coeff.map(Const))

    def extend(t):
        return st.one_of(st.builds(Add, t, t), st.builds(Sub, t, t), st.builds(Mul, t, t),
                         st.builds(Div, t, _near_pole.map(Const)), st.builds(Div, t, t),
                         st.builds(Pow, t, st.integers(-3, 4)))

    return st.recursive(leaves, extend, max_leaves=8)


def _evaluation(tree, x):
    try:
        return tree.evaluate({"q": x})
    except Exception as exc:
        return exc


class TestLaneEvaluation:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(tree=_trees(), points=st.lists(
        st.one_of(_coeff, st.sampled_from([0j, complex(-0.0, 0.0), 1e-12 + 0j, 1e-6j,
                                           1.5e308 + 1.5e308j, -1e300j])),
        min_size=1, max_size=16))
    def test_lanes_flag_where_the_scalar_raises(self, tree, points):
        env = Lanes(CArray.of(points))
        try:
            with np.errstate(all="ignore"):
                value = tree.evaluate(env)
        except ArithmeticError:
            # a subtree with no lane raised: it raises at every point
            assert all(isinstance(_evaluation(tree, x), ArithmeticError) for x in points)
            return
        if not isinstance(value, CArray):
            value = CArray.of([value] * len(points))
        for x, got, flagged in zip(points, _lanes(value), env.poles.tolist()):
            want = _evaluation(tree, x)
            if isinstance(want, PoleEncounteredError):
                assert flagged, (tree, x)
            elif isinstance(want, Exception):
                assert flagged, (tree, x, want)
            elif not _nonfinite(want):
                assert not flagged and _bits(got) == _bits(want), (tree, x)

    def test_near_pole_constants_flag_by_magnitude(self):
        # |den| <= 1e-12 * max(1, |num|): a 1e-11 divisor is a pole exactly
        # where |num| >= 10
        tree = Div(Mul(Const(20.0), Var()), Const(1e-11))
        points = [0.1, 0.5, 0.49, 0.51, 1j, -0.0, 2.0]
        env = Lanes(CArray.of(points))
        with np.errstate(all="ignore"):
            tree.evaluate(env)
        want = [isinstance(_evaluation(tree, complex(x)), PoleEncounteredError)
                for x in points]
        assert env.poles.tolist() == want
        assert want == [False, True, False, True, True, False, True]

    def test_a_power_past_c_powi_flags_every_lane(self):
        # CPython's complex ** n leaves c_powi past |n| = C_POWI_MAX: those
        # lanes are the scalar path's
        e = CArray.of([0.5, 1 + 1j, -0.0])
        with np.errstate(all="ignore"):
            for n in (C_POWI_MAX + 1, -C_POWI_MAX - 1):
                env = Lanes(e)
                Pow(Var(), n).evaluate(env)
                assert env.poles.tolist() == [True] * 3
                value, flagged = _evaluate(HoloFn(Pow(Var(), n)), e, e)
                assert flagged.tolist() == [True] * 3
            env = Lanes(e)
            Pow(Var(), C_POWI_MAX).evaluate(env)
        assert env.poles.tolist() == [False] * 3

    def test_an_overflowing_abs_is_flagged(self):
        # |1.5e308 (1 + i)| is past the double range: CPython's abs raises
        # in the pole check, the lane's hypot is inf
        points = CArray.of([1.5e308 + 1.5e308j, 1 + 1j])
        for tree in (Div(Const(1.0), Var()), Pow(Var(), -1)):
            env = Lanes(points)
            with np.errstate(all="ignore"):
                tree.evaluate(env)
            assert env.poles.tolist() == [True, False]
            assert isinstance(_evaluation(tree, complex(1.5e308, 1.5e308)), OverflowError)


def _outcome(fn):
    try:
        return fn()
    except Exception as exc:
        return type(exc).__name__, str(exc)


def _fibre_or_none(data, q):
    """``fibre_at``'s repr, or None where it raises: the lanes the batch
    leaves to it."""
    want = _outcome(lambda: repr(fibre_at(data, q)))
    return want if isinstance(want, str) else None


def _lane_fibre_reprs(data, q):
    """The repr of ``_lane_fibres``' fibre at each parameter in q, None where
    it leaves the lane to ``fibre_at``."""
    e, f = BArray(CArray.of([p.z1 for p in q]), CArray.of([p.z2 for p in q])).ringleb()
    (gv, bad_g), (hv, bad_h) = (_evaluate(fn, e, f) for fn in (data.G, data.H))
    fibres = _lane_fibres(gv, hv, bad_g | bad_h)
    return [repr(fibres.fibre(k)) if fibres.tag[k] >= 0 else None for k in range(len(q))]


def _fibres_outcome(fibres):
    """The reprs of the fibres in turn, up to the error of the first that
    raises."""
    out = []
    try:
        for fibre in fibres:
            out.append(repr(fibre))
    except Exception as exc:
        out.append((type(exc).__name__, str(exc)))
    return out


def _assert_batch_matches_scalar(data, points):
    batch = RootBatch(data, points)
    for i, z in enumerate(points):
        want = _solution_outcome(lambda: solve_phi(data, z))
        assert _solution_outcome(lambda: batch.solutions(i)) == want
        if isinstance(want, tuple):
            continue  # the point raised
        assert _fibres_outcome(batch.fibres(i)) == \
            _fibres_outcome(fibre_at(data, q) for q in solve_roots(data, z))


class TestDerivativeStep:
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(data=_data(max_deg=3),
           points=st.lists(st.builds(CVec3, _coord, _coord, _coord), min_size=1, max_size=6))
    def test_solutions_and_fibres_match_the_scalar_path(self, data, points):
        with np.errstate(all="ignore"):
            _assert_batch_matches_scalar(data, points)

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_seeded_polynomial_data_is_batched(self, degree):
        rng = random.Random(degree)

        def rc():
            return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))

        data = WeierstrassData(HoloFn(_poly([rc() for _ in range(degree + 1)]),
                                      _poly([rc() for _ in range(degree + 1)])),
                               HoloFn(_poly([rc() for _ in range(degree + 1)]),
                                      _poly([rc() for _ in range(degree + 1)])))
        points = [CVec3(rc(), rc(), rc()) for _ in range(12)]
        _assert_batch_matches_scalar(data, points)
        batch = RootBatch(data, points)
        assert not any(batch._implicit.scalar)
        assert (batch._fibres.tag == 0).all()  # every fibre a line solved in the batch

    def test_constant_g_with_cn_minus_one(self, monkeypatch):
        # CN(G) = G_e G_f = -1: the fibres at the roots are degenerate planes.
        # F = A(z) - 2 H(q) with A(z) = -2 G z1 at z = (c, 0, 0), so there
        # H(q) = -c G at the roots: a plane with offset c; at z = 0, H(q) = 0:
        # a plane through the origin.  The batch solves the derivative step
        # and the planes
        a = 0.8 - 0.6j
        data = WeierstrassData(HoloFn(Const(a), Const(-1 / a)),
                               HoloFn(_poly([0.3, 1.0, 0.5j]), _poly([-0.2j, 0.7, 0.4])))
        points = [CVec3(0.5 + 0.1j, 0, 0), CVec3(0, 0, 0), CVec3(-1.2, 0, 0),
                  CVec3(0.3, 1.1, -0.2), CVec3(0.4j, -0.5, 0.9)]
        _assert_batch_matches_scalar(data, points)
        batch = RootBatch(data, points)
        assert not any(batch._implicit.scalar)
        assert (batch._fibres.tag == 1).all()  # every fibre a plane solved in the batch
        want = [[repr(fibre_at(data, q)) for q in batch.roots(i)] for i in range(len(points))]
        called = []
        monkeypatch.setattr(bhm.weierstrass, "fibre_at", lambda *args: called.append(args))
        for i in range(len(points)):
            fibres = list(batch.fibres(i))
            assert [repr(f) for f in fibres] == want[i]
            assert {f.tag.value for f in fibres} == {"degenerate_plane"}
        assert [f.offset for f in batch.fibres(1)] == [0j] * 4
        assert called == []

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(g=st.sampled_from([0.8 - 0.6j, 2.0, 1e-3j, 30 + 40j]),
           h=st.lists(_coeff, min_size=2, max_size=2), scale=_coeff,
           qs=st.lists(st.one_of(_coeff, st.sampled_from([0j, complex(-0.0, -0.0)])),
                       min_size=1, max_size=8))
    def test_fibres_at_any_q_with_cn_minus_one(self, g, h, scale, qs):
        # off the roots, H(q) may or may not be a multiple of G: planes
        # through the origin, other planes and empty fibres
        G = HoloFn(Const(g), Const(-1 / g))
        cases = [WeierstrassData(G, HoloFn(_poly(h), _poly([h[0] * scale, h[1]]))),
                 WeierstrassData(G, G * scale),
                 WeierstrassData(G, HoloFn.const(0))]
        q = [Bicomplex(x, y) for x, y in zip(qs, reversed(qs))]
        with np.errstate(all="ignore"):
            for data in cases:
                assert _lane_fibre_reprs(data, q) == [_fibre_or_none(data, p) for p in q]

    def test_fibres_at_any_q_take_every_branch(self):
        rng = random.Random(2)
        q = [Bicomplex(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                       complex(rng.uniform(-1, 1), rng.uniform(-1, 1))) for _ in range(8)]
        G = HoloFn(Const(1 + 1j), Const(-1 / (1 + 1j)))
        tags = {}
        for name, data in [("line", WeierstrassData(HoloFn(Q), HoloFn(Q * Q))),
                           ("empty", WeierstrassData(G, HoloFn(Q))),
                           ("plane", WeierstrassData(G, G * (0.3 + 2j))),
                           ("origin", WeierstrassData(G, HoloFn.const(0)))]:
            with np.errstate(all="ignore"):
                assert _lane_fibre_reprs(data, q) == [_fibre_or_none(data, p) for p in q]
            tags[name] = {(fibre_at(data, p).tag.value, fibre_at(data, p).offset == 0j)
                          for p in q}
        assert tags == {"line": {("non_null_line", False)}, "empty": {("empty", False)},
                        "plane": {("degenerate_plane", False)},
                        "origin": {("degenerate_plane", True)}}


# ---------------------------------------------------------------------------
# the parameter batch: fibres, samples, contains and residuals over lanes


def _scalar_check(data, q, z, tol):
    """What ``verify --samples`` reads at (q, z), in its order: fibre_at,
    then the residual, then contains."""
    fibre = fibre_at(data, q)
    residual = _congruence_residual(data, q, z)
    return residual.hex(), fibre.contains(z, tol=tol)


def _assert_fibre_batch_matches(data, qs, zs, ts, tol=1e-8):
    """Each lane of a FibreBatch reads as the scalar path: its fibre by
    repr, its samples at ts, its residual and contains test at z, or the
    error the scalar path raises.  Returns the lanes whose samples and whose
    checks the batch computed itself."""
    batch = FibreBatch(data, qs)
    points, sampled = batch.samples(ts)
    residual, on_fibre, checked = batch.checks(_array(zs), tol)
    for k, (q, z) in enumerate(zip(qs, zs)):
        want = _outcome(lambda: repr(fibre_at(data, q)))
        assert _outcome(lambda: repr(batch.fibre(k))) == want
        assert batch.fibres.tag[k] < 0 or isinstance(want, str)
        if sampled[k]:
            n = 0 if batch.fibres.tag[k] == 2 else len(ts)
            assert [repr(CVec3(*p)) for p in points[k, :n].tolist()] == \
                _outcome(lambda: [repr(p) for p in fibre_at(data, q).sample_points(ts)])
        if checked[k]:
            assert (float(residual[k]).hex(), bool(on_fibre[k])) == \
                _outcome(lambda: _scalar_check(data, q, z, tol))
    return sampled, checked


def _array(points):
    return np.array([[p.u1, p.u2, p.u3] for p in points], dtype=complex)


def _on_fibre(data, q, z, t=0.7):
    """A point of the fibre at q, or z where there is none."""
    try:
        points = fibre_at(data, q).sample_points([t])
    except Exception:
        return z
    return points[0] if points else z


_R = 1 / math.sqrt(2)
# constant G with CN(G) = -1 whose i2-parts tie in modulus: from these
# Ringleb parts G(q) is exactly g1 = g2 = i r, or g1 = i r, g2 = -0.0 - i r
_TIES = [HoloFn(Const(complex(-_R, _R)), Const(complex(_R, _R))),
         HoloFn(Const(complex(_R, _R)), Const(complex(-_R, _R)))]
_e = st.one_of(st.sampled_from([0.8 - 0.6j, 2.0, 1e-3j, 30 + 40j, 1e155, 1e-155j]),
               _coeff.filter(lambda z: abs(z) > 0.1))
_extreme = st.sampled_from([0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(5e-324, -0.0),
                            complex(2.2e-308, 1.0), complex(1e155, 0.0), complex(0.0, 1e300),
                            complex(-1e300, 1e-160), 1j])
_q = st.builds(Bicomplex, st.one_of(_coeff, _extreme), st.one_of(_coeff, _extreme))


@st.composite
def _fibre_data(draw):
    """Data whose fibres are non-null lines, or, with CN(G) = -1, planes
    through the origin (H = 0), planes (H = mu G) or empty (H a
    polynomial); G may tie |g1| = |g2|, and data with a pole at q = 0."""
    kind = draw(st.sampled_from(["multiple", "origin", "empty", "line", "pole"]))
    if kind == "line":
        return draw(_data(max_deg=2))
    if kind == "pole":
        pole = HoloFn(Const(1.0) / Q, Const(1.0) / Q)
        other = draw(_data(max_deg=1))
        return WeierstrassData(pole, other.H) if draw(st.booleans()) else \
            WeierstrassData(other.G, pole)
    G = draw(st.one_of(st.sampled_from(_TIES), st.builds(lambda e: HoloFn(Const(e), Const(-1 / e)), _e)))
    if kind == "origin":
        return WeierstrassData(G, HoloFn.const(0))
    if kind == "multiple":
        mu = draw(st.one_of(_coeff, st.sampled_from([1e155, 1e300, 5e-324, complex(-0.0, 0.0)])))
        return WeierstrassData(G, G * mu)
    return WeierstrassData(G, HoloFn(_poly(draw(st.lists(_coeff, min_size=1, max_size=3))),
                                     _poly(draw(st.lists(_coeff, min_size=1, max_size=3)))))


class TestFibreBatch:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(data=_fibre_data(), qs=st.lists(_q, min_size=1, max_size=8),
           zs=st.lists(_point, min_size=8, max_size=8),
           on=st.lists(st.booleans(), min_size=8, max_size=8),
           ts=st.lists(st.floats(-2, 2), max_size=3),
           tol=st.sampled_from([1e-8, 0.0, 1e-3]))
    def test_lanes_match_the_scalar_path(self, data, qs, zs, on, ts, tol):
        with np.errstate(all="ignore"):
            zs = [_on_fibre(data, q, z) if o else z for q, z, o in zip(qs, zs, on)]
            _assert_fibre_batch_matches(data, qs, zs, ts, tol)

    def test_every_kind_of_fibre_is_computed_here(self):
        # lines, planes through the origin, planes H = mu G, empty fibres and
        # both ties, at ordinary parameters: no lane is left to the scalar
        # path, and each takes the branch fibre_at takes
        rng = random.Random(5)

        def rc():
            return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))

        qs = [Bicomplex(rc(), rc()) for _ in range(10)] + [Bicomplex(0j, complex(-0.0, 0.0))]
        ts = [rng.uniform(-2, 2) for _ in range(3)]
        G = HoloFn(Const(0.8 - 0.6j), Const(-1 / (0.8 - 0.6j)))
        cases = {"line": (WeierstrassData(HoloFn(_poly([rc(), rc(), rc()]), _poly([rc(), rc()])),
                                          HoloFn(_poly([rc(), rc()]), _poly([rc(), rc(), rc()]))),
                          {"non_null_line"}),
                 "origin": (WeierstrassData(G, HoloFn.const(0)), {"degenerate_plane"}),
                 "multiple": (WeierstrassData(G, G * (0.3 - 2j)), {"degenerate_plane"}),
                 "empty": (WeierstrassData(G, HoloFn(_poly([rc(), 1.0]), _poly([rc()]))), {"empty"})}
        for k, tie in enumerate(_TIES):
            g = tie(qs[0])
            assert abs(g.z1) == abs(g.z2) and (g.z1 == g.z2) == (k == 0)
            cases[f"tie{k}"] = (WeierstrassData(tie, tie * (1.5 + 0.5j)), {"degenerate_plane"})
            cases[f"tie{k}-empty"] = (WeierstrassData(tie, HoloFn(_poly([rc(), 1.0]), _poly([rc()]))),
                                      {"empty"})
        for name, (data, tags) in cases.items():
            zs = [_on_fibre(data, q, CVec3(rc(), rc(), rc())) for q in qs]
            sampled, checked = _assert_fibre_batch_matches(data, qs, zs, ts)
            assert sampled.all() and checked.all(), name
            assert {fibre_at(data, q).tag.value for q in qs} == tags, name
            if tags != {"empty"}:
                batch = FibreBatch(data, qs)
                assert batch.checks(_array(zs), 1e-8)[1].all(), name  # the samples are on their fibres

    def test_poles_and_overflows_are_left_to_the_scalar_path(self):
        # G = 1/q: a pole at q = 0; at q = 1e300 the fibre is finite, but
        # |z|^2 overflows at z = (1e200, 0, 0), where contains raises
        data = WeierstrassData(HoloFn(Const(1.0) / Q, Const(1.0) / Q), HoloFn(Q, Q))
        qs = [Bicomplex(0.5, 0.25j), Bicomplex(0.0, 0.0), Bicomplex(1e300, 0.0)]
        zs = [CVec3(1, 0, 0), CVec3(1, 0, 0), CVec3(1e200, 0, 0)]
        with np.errstate(all="ignore"):
            sampled, checked = _assert_fibre_batch_matches(data, qs, zs, [0.5])
        assert sampled.tolist() == [True, False, True]
        assert checked.tolist() == [True, False, False]
        assert _outcome(lambda: fibre_at(data, qs[1]))[0] == "PoleEncounteredError"
        assert _outcome(lambda: _scalar_check(data, qs[2], zs[2], 1e-8))[0] == "OverflowError"


def _point_by_point(config, tol=None, seed=0):
    """The ``fibres`` or ``verify --samples`` report of a run that takes one
    parameter at a time through fibre_at, sample_points, contains and the
    scalar residual, formatted as ``run`` formats it."""
    data = bhm.cli._parse_data(config)
    if config["task"] == "fibres":
        rng = random.Random(seed)
        ts = [rng.uniform(-2.0, 2.0) for _ in range(config.get("samples", 3))]
        results = []
        for q in [bhm.cli._parse_bicomplex(p) for p in config["params"]]:
            results.append({"q": bhm.cli._b(q), **bhm.cli._fibre_json(fibre_at(data, q), ts)})
        report = {"task": "fibres", "results": results}
    else:
        tol = 1e-8 if tol is None else tol
        results = []
        for s in config["samples"]:
            q, z = bhm.cli._parse_sample(s)
            fibre = fibre_at(data, q)
            res = _congruence_residual(data, q, z)
            results.append({"q": bhm.cli._b(q), "z": bhm.cli._cvec(z), "tag": fibre.tag.value,
                            "residual": bhm.cli._f(res),
                            "on_fibre": bool(fibre.contains(z, tol=tol))})
        report = {"task": "verify", "results": results}
    out = io.StringIO()
    if config.get("format") == "csv":
        bhm.cli._csv_fibres(report, out)
    else:
        out.write(json.dumps(report, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n")
    return out.getvalue()


def _fibre_configs():
    rng = random.Random(9)

    def rc():
        return [rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)]

    def const(z):
        return {"op": "const", "value": z}

    def poly(n):
        e = const(rc())
        for _ in range(n):
            e = {"op": "add", "args": [const(rc()), {"op": "mul", "args": [{"op": "var"}, e]}]}
        return e

    a = complex(*rc())
    g = {"f1": const([a.real, a.imag]), "f2": const([(-1 / a).real, (-1 / a).imag])}
    mu = complex(*rc())
    planes = {"G": g, "H": {"f1": const([(mu * a).real, (mu * a).imag]),
                            "f2": const([(-mu / a).real, (-mu / a).imag])}}
    lines = {"G": {"f1": poly(2), "f2": poly(1)}, "H": {"f1": poly(1), "f2": poly(2)}}
    empty = {"G": g, "H": {"f": poly(1)}}
    pole = {"G": {"f": {"op": "div", "args": [const(1), {"op": "var"}]}}, "H": {"f": poly(1)}}
    params = [[rng.uniform(-1.5, 1.5) for _ in range(4)] for _ in range(15)]
    params[4] = [0.0, -0.0, 0.0, 0.0]
    configs = []
    for data in (lines, planes, empty, pole):
        configs.append({"task": "fibres", "data": data, "params": params, "samples": 2})
        configs.append({"task": "fibres", "data": data, "params": params, "samples": 1,
                        "format": "csv"})
        samples = [{"q": p, "z": [rc(), rc(), rc()]} for p in params]
        configs.append({"task": "verify", "data": data, "samples": samples})
    # a pole at the fifth sample comes before a malformed ninth
    configs.append({"task": "verify", "data": pole,
                    "samples": samples[:8] + [{"q": [1, 0, 0]}] + samples[9:]})
    configs.append({"task": "verify", "data": lines,
                    "samples": samples[:8] + [{"q": [1, 0, 0], "z": [0, 0, 0]}] + samples[9:]})
    return configs


@pytest.mark.parametrize("config", _fibre_configs())
def test_fibre_tasks_match_a_point_by_point_run(config, monkeypatch):
    want = _outcome(lambda: _point_by_point(config))
    assert _cli_output(config) == want
    for size in (1, 2, 7):
        monkeypatch.setattr(bhm.weierstrass, "BLOCK_POINTS", size)
        assert _cli_output(config) == want


def test_fibre_tasks_never_call_the_scalar_path(monkeypatch):
    # the fibres-roundtrip benchmark's data: quadratic G and H (lines), and
    # constant G with CN(G) = -1 and H = mu G (planes): no scalar fibre_at
    # and no HoloFn call, in fibres or in verify --samples
    called = []
    call = HoloFn.__call__

    def counting_call(fn, q):
        called.append(q)
        return call(fn, q)

    def no_fibre_at(*args):
        raise AssertionError("fibre_at called")

    monkeypatch.setattr(HoloFn, "__call__", counting_call)
    monkeypatch.setattr(bhm.cli, "fibre_at", no_fibre_at)
    monkeypatch.setattr(bhm.weierstrass, "fibre_at", no_fibre_at)
    for config in _fibre_configs()[:6]:
        report = json.loads(_cli_output(config) if config.get("format") != "csv"
                            else _cli_output(dict(config, format="json")))
        if config["task"] == "fibres":
            samples = [{"q": row["q"], "z": z} for row in report["results"]
                       for z in row["samples"]]
            verify = json.loads(_cli_output({"task": "verify", "data": config["data"],
                                             "samples": samples}))
            assert len(verify["results"]) == len(samples) > 0
            assert all(row["on_fibre"] for row in verify["results"])
    assert called == []


def test_fibre_batches_leave_no_blocks_allocated():
    a = 0.8 - 0.6j
    data = WeierstrassData(HoloFn(Const(a), Const(-1 / a)), HoloFn(Q, Q * Q))
    qs = [Bicomplex(0.3 + 0.01 * k, 0.5j) for k in range(16)]
    zs = [CVec3(0.3, 0.5, 0.7)] * 16

    def fibre_block():
        batch = FibreBatch(data, qs)
        batch.samples([0.5, -1.0])
        batch.checks(_array(zs), 1e-8)

    for _ in range(5):
        fibre_block()
    gc.collect()
    before = sys.getallocatedblocks()
    for _ in range(50):
        fibre_block()
    gc.collect()
    assert sys.getallocatedblocks() - before < 10


def test_stacked_solve_gives_single_call_bits_and_leaves_a_singular_system():
    rng = random.Random(4)
    a = np.array([[[complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3)]
                   for _ in range(3)] for _ in range(6)])
    b = np.array([[[complex(rng.uniform(-1, 1), rng.uniform(-1, 1))] for _ in range(3)]
                  for _ in range(6)])
    single = [[_bits(complex(x)) for x in np.linalg.solve(a[k], b[k, :, 0])] for k in range(6)]
    assert [[_bits(complex(x)) for x in row] for row in _stacked_solve(a, b)] == single
    a[2] = [[1, 2, 3], [2, 4, 6], [0, 1, 1j]]  # rank 2: LAPACK finds a zero pivot
    got = _stacked_solve(a, b)
    assert np.isnan(got[2]).all()
    assert [[_bits(complex(x)) for x in got[k]] for k in (0, 1, 3, 4, 5)] == \
        [single[k] for k in (0, 1, 3, 4, 5)]


def test_each_tree_is_evaluated_once_per_block(monkeypatch):
    # a batched solve evaluates G, H, dG, d2G and d2H once per block over its
    # root lanes, and never calls HoloFn for a root the batch solved
    evaluated, called, parsed = [], [], []
    evaluate, call, parse = bhm.weierstrass._evaluate, HoloFn.__call__, bhm.cli._parse_data

    def counting_evaluate(fn, e, f):
        evaluated.append((fn, len(e.re)))
        return evaluate(fn, e, f)

    def counting_call(fn, q):
        called.append(q)
        return call(fn, q)

    def keeping_parse(config):
        parsed.append(parse(config))
        return parsed[-1]

    monkeypatch.setattr(bhm.weierstrass, "_evaluate", counting_evaluate)
    monkeypatch.setattr(HoloFn, "__call__", counting_call)
    monkeypatch.setattr(bhm.cli, "_parse_data", keeping_parse)
    monkeypatch.setattr(bhm.weierstrass, "BLOCK_POINTS", 2)
    config = {"task": "solve",
              "data": {"G": {"f": {"op": "add", "args": [{"op": "var"},
                                                         {"op": "const", "value": [0.3, 0]}]}},
                       "H": {"f1": {"op": "mul", "args": [{"op": "const", "value": [0.5, 0]},
                                                          {"op": "var"}]},
                             "f2": {"op": "pow", "args": [{"op": "var"}], "exp": 2}}},
              "points": [[0.3, 1.1, -0.2], [1.0, -0.5, [0.2, 0.4]], [0.7, 0.1, 0.9],
                         [[0.2, -0.1], 0.4, 1.3], [-0.6, 0.8, 0.25]]}
    report = json.loads(_cli_output(config))
    (data,) = parsed
    trees = {data.G, data.H, data.dG, data.d2G, data.d2H}
    assert len(trees) == 5
    blocks = [report["results"][k:k + 2] for k in range(0, 5, 2)]
    assert len(evaluated) == 5 * len(blocks)
    for b, block in enumerate(blocks):
        fns, lanes = zip(*evaluated[5 * b:5 * b + 5])
        assert set(fns) == trees
        assert set(lanes) == {sum(len(res["roots"]) for res in block)}
    assert called == []


def test_batches_leave_no_blocks_allocated():
    # a small block left allocated by each batch pins one allocator arena
    # per block of a long run: np.cumsum in RootBatch._span did so under
    # numpy 2.4 and raised the 25 000-point slice grid's peak RSS by 5-10 MB
    data = WeierstrassData(HoloFn(Var()), HoloFn(Const(0.0)))
    points = [CVec3(0.3 + 0.01 * k, 0.5, 0.7) for k in range(16)]

    def solve_block():
        batch = RootBatch(data, points)
        for i in range(len(points)):
            batch.solutions(i)

    for _ in range(5):
        solve_block()
    gc.collect()
    before = sys.getallocatedblocks()
    for _ in range(50):
        solve_block()
    gc.collect()
    assert sys.getallocatedblocks() - before < 10


@pytest.mark.parametrize("config", [*_BLOCK_CONFIGS, _fibre_configs()[0]],
                         ids=["slice-grid", "slice-points", "verify", "solve", "fibres"])
def test_numpy_error_state_is_entered_per_batch(config, monkeypatch):
    # lane arithmetic runs under its caller's np.errstate: the library
    # enters one per batch or pass over a batch, none per operation
    entered = Counter()
    errstate = np.errstate

    def counting(**kwargs):
        entered[sys._getframe(1).f_globals["__name__"]] += 1
        return errstate(**kwargs)

    monkeypatch.setattr(np, "errstate", counting)
    run(config, io.StringIO())
    assert "bhm.core" not in entered
    assert sum(entered.values()) <= 12, entered  # each config is one block
