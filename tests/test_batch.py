"""The batched root pass against the scalar path it reproduces.

``CArray`` operations are held to CPython's (and numpy's scalar) complex
arithmetic, and ``RootBatch`` lanes to ``_canonical_roots``/``solve_phi``,
bit for bit: every comparison is on ``float.hex`` of each part, in order.
"""

import io
import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bhm.cli
from bhm.cli import run
from bhm.core import CArray
from bhm.geometry import CVec3
from bhm.holo import Const, HoloFn, Var
from bhm.weierstrass import (
    RootBatch,
    WeierstrassData,
    _canonical_roots,
    _poly_roots,
    _side_roots,
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
    "complex-rmul": lambda a, b: 1j * a,
}


class TestExactArrays:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(a=st.lists(_complex, min_size=1, max_size=40), data=st.data(),
           op=st.sampled_from(sorted(_OPS)))
    def test_each_op_matches_cpython(self, a, data, op):
        b = data.draw(st.lists(_complex, min_size=len(a), max_size=len(a)))
        fn = _OPS[op]
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
        lanes = _lanes(fn(CArray.of(a), CArray.of(b)))
        for x, y, got in zip(a, b, lanes):
            want = _scalar(fn, x, y)
            if want != "ZeroDivisionError":
                assert _bits(got) == want, (op, x, y)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(a=st.lists(_complex, min_size=1, max_size=40), data=st.data())
    def test_numpy_typed_division_matches_numpy_scalars(self, a, data):
        b = data.draw(st.lists(_complex, min_size=len(a), max_size=len(a)))
        with np.errstate(all="ignore"):
            got = _lanes(CArray.of(a, numpy_typed=True) / CArray.of(b))
            got_r = _lanes(CArray.of(a) / CArray.of(b, numpy_typed=True))
            for x, y, g, gr in zip(a, b, got, got_r):
                want = _bits(complex(np.complex128(x) / np.complex128(y)))
                assert _bits(g) == want and _bits(gr) == want

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(a=st.lists(_complex, min_size=1, max_size=40))
    def test_abs_is_hypot_and_sqrt_is_numpy(self, a):
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


def _canon_outcome(fn):
    try:
        fe, ff, pairs = fn()
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return ([_bits(c) for c in fe], [_bits(c) for c in ff],
            [(_bits(q.z1), _bits(q.z2), _bits(s), ms, _bits(w), mw)
             for q, s, ms, w, mw in pairs])


def _solution_outcome(fn):
    try:
        sols = fn()
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return [repr(s) for s in sols]


class TestRootBatch:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(data=_data(), points=st.lists(_point, min_size=1, max_size=12))
    def test_lanes_match_canonical_roots(self, data, points):
        with np.errstate(all="ignore"):
            batch = RootBatch(data, points)
            for i, z in enumerate(points):
                want = _canon_outcome(lambda: _canonical_roots(data, z))
                assert _canon_outcome(lambda: batch.canonical(i)) == want
                roots = batch.roots(i)
                if roots is not None:
                    assert [(_bits(q.z1), _bits(q.z2)) for q in roots] == \
                        [(_bits(q.z1), _bits(q.z2)) for q in solve_roots(data, z)]

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
            assert batch.roots(i) is not None
            assert _canon_outcome(lambda: batch.canonical(i)) == \
                _canon_outcome(lambda: (fe, ff, pairs))
        assert len(degrees) >= 3

    def test_error_lanes_raise_on_read(self):
        # with G = H = 0 the sides are the constants z2 +- i z3: the e-side
        # vanishes identically at the first point, the f-side at the second
        data = WeierstrassData(HoloFn(Const(0)), HoloFn(Const(0)))
        points = [CVec3(1, 1, 1j), CVec3(0.5, 2j, 2)]
        batch = RootBatch(data, points)
        for i in range(len(points)):
            assert batch.roots(i) is None
            with pytest.raises(Exception) as got:
                batch.canonical(i)
            with pytest.raises(Exception) as want:
                _canonical_roots(data, points[i])
            assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))

    def test_huge_lane_is_left_to_the_scalar_path(self):
        data = WeierstrassData(HoloFn(Const(0)), HoloFn(Q))
        # the e-side constant term z2 + i z3 is 1.5e308 (1 + i): finite, but
        # past the range of its abs
        points = [CVec3(0, 1.5e308j, -1.5e308j), CVec3(0.3, 1.1, -0.2)]
        # the array pass keeps its overflow warnings to itself (warnings
        # are errors in this suite); the scalar path it leaves the lane to
        # warns as it always did
        batch = RootBatch(data, points)
        assert batch.roots(0) is None and batch.roots(1) is not None
        with np.errstate(all="ignore"):
            for i, z in enumerate(points):
                assert _canon_outcome(lambda: batch.canonical(i)) == \
                    _canon_outcome(lambda: _canonical_roots(data, z))


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
                pairs = _canonical_roots(data, zc)[2]
            else:
                batch = RootBatch(data, [zc])
                assert batch.roots(0) is not None
                pairs = batch.canonical(0)[2]
            fe, ff, _ = _canonical_roots(data, zc)
            d_e = sum(m for _, m in _poly_roots(fe))
            d_f = sum(m for _, m in _poly_roots(ff))
            assert sum(ms * mw for _, _, ms, _, mw in pairs) == d_e * d_f
            mz = [mpmath.mpc(c) for c in z]
            ge = [mpmath.mpc(c) for c in g["e"]]
            gf = [mpmath.mpc(c) for c in g["f"]]
            he = [mpmath.mpc(c) for c in h["e"]]
            hf = [mpmath.mpc(c) for c in h["f"]]
            for q, *_ in pairs:
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
        monkeypatch.setattr(bhm.cli, "BLOCK_POINTS", size)
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
        monkeypatch.setattr(bhm.cli, "BLOCK_POINTS", size)
        assert _cli_output(config) == default
