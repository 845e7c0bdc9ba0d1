"""The batched root pass against the scalar path it reproduces.

``CArray`` operations are held to CPython's complex arithmetic, the
batch's numpy quotient to numpy's scalar one, ``RootBatch`` lanes to
``solve_roots`` and ``solve_phi``, and ``FibreBatch`` lanes to
``fibre_at``, bit for bit: every comparison is on ``float.hex`` of each
part, in order.  Lane arithmetic runs under the caller's ``np.errstate``,
so the tests that call it directly hold one, as the library's batches do.
"""

import gc
import io
import itertools
import json
import math
import random
import sys
import tracemalloc
from collections import Counter
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bhm.cli
from bhm.cli import run
import bhm.weierstrass
import report_rows as rr
from bhm.core import C_POWI_MAX, I2, BArray, Bicomplex, CArray
from bhm.errors import (BhmError, BranchJumpError, DegenerateDirectionError,
                        DegeneratePointError, PoleEncounteredError, RangeOverflowError)
from bhm.geometry import Chart, CVec3, transition
from bhm.holo import Add, Const, Div, HoloFn, Lanes, Mul, Pow, Sub, Var, holofn_from_json
from bhm.slices import (
    SliceKind,
    _embedded,
    _in_slice,
    _wave_stencils,
    embed_domain,
    in_slice,
    project_codomain,
    projectable_roots,
    slice_checks,
    slice_data,
    tracked_real_branch,
    wave_residual,
    wave_stencil,
)
from bhm.verify import _fd_stencils, classify_point, fd_stencil
from bhm.weierstrass import (
    FibreBatch,
    RootBatch,
    WeierstrassData,
    _canonical_roots,
    _coeff_scale,
    _coeff_scale_lanes,
    _derivative_lanes,
    _evaluate,
    _numpy_quotient,
    _poly_roots,
    _residual,
    _side_roots,
    _stacked_solve,
    _trim,
    _until_error,
    fibre_at,
    gauss_map,
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
    # one divisor for every lane: each of _Py_c_quot's branches, signed
    # zeros, a subnormal, and an infinite or NaN divisor
    "neg-float-div": lambda a, b: a / -2.0,
    "imag-div": lambda a, b: a / 3j,
    "neg-imag-div": lambda a, b: a / -0.5j,
    "subnormal-div": lambda a, b: a / 5e-324,
    "inf-div": lambda a, b: a / complex(math.inf, 1),
    "nan-div": lambda a, b: a / complex(math.nan, 0),
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
            ok, reps, mult, count, deg = _side_roots(re, im)
        for lane in range(len(lanes)):
            want = _side_outcome(re, im, lane)
            if not ok[lane]:
                assert _scalar_only(re, im, lane, want)
                continue
            # the trimmed degree the derivative step reads
            assert deg[lane] == len(_trim(lanes[lane])) - 1
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


def _rebatched(data, points):
    """RootBatches that between them reach every point: one over the points,
    then, past each batch's point ``solved`` (which raised), one over the
    points after it.  Yields (the index of the batch's first point, the
    batch)."""
    start = 0
    while start < len(points):
        batch = RootBatch(data, points[start:])
        yield start, batch
        start += batch.solved + 1


def _solved(batch, i):
    """The solutions of the batch's point i < ``solved``, from its root
    lanes."""
    return [batch.solution(k) for k in batch.lanes(i)]


def _batch_outcome(batch, i):
    """``_solution_outcome`` of the batch's point i <= ``solved``."""
    if i < batch.solved:
        return [repr(sol) for sol in _solved(batch, i)]
    return type(batch.error).__name__, str(batch.error)


def _padded_outcome(batch, i):
    """``_roots_outcome`` of row i of the batch's ``padded_roots``."""
    z1, z2, counts = batch.padded_roots()
    return [(_bits(a), _bits(b)) for a, b in zip(z1[i, :counts[i]].tolist(),
                                                  z2[i, :counts[i]].tolist())]


def _assert_points_match(data, points):
    """Every point reads as the scalar path: its solutions (each root's
    multiplicity, residual and implicit derivatives, which read the lane's
    side roots and components), or the error the scalar path raises, and,
    where it is solved or the array pass found its roots, those roots, bit
    for bit."""
    for start, batch in _rebatched(data, points):
        for i, z in enumerate(points[start:start + batch.solved + 1]):
            assert _batch_outcome(batch, i) == _solution_outcome(lambda: solve_phi(data, z))
            # a point left to solve_phi past ``solved`` keeps its roots
            # only where the array pass found them, and then it has some
            if i < batch.solved or batch.padded_roots()[2][i]:
                assert _padded_outcome(batch, i) == _roots_outcome(lambda: solve_roots(data, z))


class TestRootBatch:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(data=_data(), points=st.lists(_point, min_size=1, max_size=12))
    def test_lanes_match_canonical_roots(self, data, points):
        with np.errstate(all="ignore"):
            _assert_points_match(data, points)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(data=_data(max_deg=2),
           points=st.lists(st.builds(CVec3, _coeff, _coeff, _coeff), min_size=1, max_size=6))
    def test_solutions_match_solve_phi(self, data, points):
        for start, batch in _rebatched(data, points):
            for i, z in enumerate(points[start:start + batch.solved + 1]):
                assert _batch_outcome(batch, i) == _solution_outcome(lambda: solve_phi(data, z))

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
        assert batch.left == []
        _assert_points_match(data, points)
        assert len(degrees) >= 3

    def test_error_lanes_raise_on_read(self):
        # with G = H = 0 the sides are the constants z2 +- i z3: the e-side
        # vanishes identically at the first point, the f-side at the second
        data = WeierstrassData(HoloFn(Const(0)), HoloFn(Const(0)))
        points = [CVec3(1, 1, 1j), CVec3(0.5, 2j, 2)]
        batch = RootBatch(data, points)
        # neither point has a root lane: the array pass found no roots
        assert batch.left == [0, 1] and batch.padded_roots()[2].tolist() == [0, 0]
        raised = []
        for start, batch in _rebatched(data, points):
            z = points[start]
            assert batch.left == list(range(len(points) - start)) and batch.solved == 0
            with pytest.raises(Exception) as want:
                _canonical_roots(data, z)
            assert _batch_outcome(batch, 0) == (type(want.value).__name__, str(want.value))
            assert batch.padded_roots()[2][0] == 0
            raised.append(z)
        assert raised == points

    def test_huge_lane_is_left_to_the_scalar_path(self):
        data = WeierstrassData(HoloFn(Const(0)), HoloFn(Q))
        # the e-side constant term z2 + i z3 is 1.5e308 (1 + i): finite, but
        # past the range of its abs
        points = [CVec3(0, 1.5e308j, -1.5e308j), CVec3(0.3, 1.1, -0.2)]
        # the batch keeps its overflow warnings to itself (warnings are
        # errors in this suite), those of the scalar path it leaves the
        # lane to as well; that path called alone warns as it always did
        batch = RootBatch(data, points)
        assert (batch.left, batch.solved) == ([0], 0)
        assert batch.padded_roots()[2][0] == 0
        with np.errstate(all="ignore"):
            _assert_points_match(data, points)


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
                assert batch.left == [] and batch.solved == 1
                pairs = [(sol.q, sol.multiplicity) for sol in _solved(batch, 0)]
                assert [(_bits(q.z1), _bits(q.z2)) for q, _ in pairs] == _padded_outcome(batch, 0)
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
        monkeypatch.setattr(bhm.weierstrass, "BLOCK_LANES", rr.block_lanes(size, config))
        assert _cli_output(config) == default


def test_blocks_share_one_lane_budget(monkeypatch):
    # a root pass takes BLOCK_LANES / d^2 anchors (d at least 2), a one-lane
    # pass BLOCK_LANES values; rr.block_lanes sets either to n
    blocks = bhm.weierstrass._blocks
    points = list(range(3000))
    assert [len(b) for b in blocks(points)] == [1024, 1024, 952]
    assert {len(b) for b in blocks(points, (2, 1))[:-1]} == {256}
    assert {len(b) for b in blocks(points, (6, 4))[:-1]} == {28}
    assert {len(b) for b in blocks(points, (48, 2))} == {1}
    for n in (1, 2, 7):
        monkeypatch.setattr(bhm.weierstrass, "BLOCK_LANES", rr.block_lanes(n, {"task": "solve"}))
        assert len(blocks(points, (2, 2))[0]) == n
        for config in ({"task": "fibres"}, {"task": "verify", "samples": []}, {"task": "charts"}):
            monkeypatch.setattr(bhm.weierstrass, "BLOCK_LANES", rr.block_lanes(n, config))
            assert len(blocks(points)[0]) == n


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
        monkeypatch.setattr(bhm.weierstrass, "BLOCK_LANES", rr.block_lanes(size, config))
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
    it leaves the lane to ``fibre_at`` (``FibreBatch.left``)."""
    batch = FibreBatch(data, q)
    return [None if k in batch.left else repr(batch.fibre(k)) for k in range(len(q))]


def _batch_fibres(data, roots):
    """The fibres at the roots, one at a time, read from a FibreBatch over
    them as the CLI's ``solve`` reads them."""
    batch = FibreBatch(data, roots)
    return (batch.fibre(k) for k in range(len(roots)))


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
    for start, batch in _rebatched(data, points):
        for i, z in enumerate(points[start:start + batch.solved]):
            assert _batch_outcome(batch, i) == _solution_outcome(lambda: solve_phi(data, z))
            assert _fibres_outcome(_batch_fibres(data, _roots(batch, i))) == \
                _fibres_outcome(fibre_at(data, q) for q in solve_roots(data, z))
        if batch.error is not None:
            z = points[start + batch.solved]
            assert _batch_outcome(batch, batch.solved) == \
                _solution_outcome(lambda: solve_phi(data, z))


def _roots(batch, i):
    """The roots of the batch's point i < ``solved``, from its root lanes."""
    return [batch.implicit.q.item(k) for k in batch.lanes(i)]


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
        assert (batch.left, batch.solved) == ([], len(points))
        fibres = FibreBatch(data, [q for i in range(len(points)) for q in _roots(batch, i)]).fibres
        assert (fibres.tag == 0).all()  # every fibre a line solved in the batch

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
        assert (batch.left, batch.solved) == ([], len(points))
        fibres = FibreBatch(data, [q for i in range(len(points)) for q in _roots(batch, i)]).fibres
        assert (fibres.tag == 1).all()  # every fibre a plane solved in the batch
        want = [[repr(fibre_at(data, q)) for q in _roots(batch, i)] for i in range(len(points))]
        called = []
        monkeypatch.setattr(bhm.weierstrass, "fibre_at", lambda *args: called.append(args))
        for i in range(len(points)):
            fibres = list(_batch_fibres(data, _roots(batch, i)))
            assert [repr(f) for f in fibres] == want[i]
            assert {f.tag.value for f in fibres} == {"degenerate_plane"}
        assert [f.offset for f in _batch_fibres(data, _roots(batch, 1))] == [0j] * 4
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
    residual = _residual(data.G(q), data.H(q), z)
    return residual.hex(), fibre.contains(z, tol=tol)


def _assert_fibre_batch_matches(data, qs, zs, ts, tol=1e-8):
    """Each lane reads as a lane-by-lane run of the scalar path: its fibre
    by repr, its samples at ts, and its residual and contains test at z.
    A FibreBatch's ``solved``, or the checked lanes of its ``checks``, end
    at the first lane that raises, with that lane's error; a new batch over
    the lanes after it goes on, so that every lane is compared.  Returns
    the lanes left to ``fibre_at`` and those whose check takes the scalar
    path, over all the batches."""
    left, scalar = [], []
    start = 0
    while start < len(qs):
        batch = FibreBatch(data, qs[start:])
        points = batch.samples(ts)
        residual, on_fibre, n, error = batch.checks(_array(zs[start:]), tol)
        end = len(qs) - start  # the lanes of this batch that are compared
        for k, (q, z) in enumerate(zip(qs[start:], zs[start:])):
            try:
                fibre = fibre_at(data, q)
            except Exception as exc:
                assert (batch.solved, n) == (k, k)
                assert (type(error), str(error)) == (type(exc), str(exc))
                assert batch.error is error
                assert _outcome(lambda: batch.fibre(k)) == (type(exc).__name__, str(exc))
                end = k + 1
                break
            assert repr(batch.fibre(k)) == repr(fibre)
            samples = [repr(p) for p in fibre.sample_points(ts)]
            assert [repr(CVec3(*p)) for p in points[k, :len(samples)].tolist()] == samples
            try:
                want = _scalar_check(data, q, z, tol)
            except OverflowError:
                assert n == k < batch.solved
                assert (type(error), str(error)) == (
                    RangeOverflowError, f"the residual or the fibre test overflows at the "
                                        f"sample q = {q!r}, z = {z!r}")
                end = k + 1
                break
            assert (float(residual[k]).hex(), bool(on_fibre[k])) == want
        else:
            assert (batch.solved, n, error) == (end, end, None)
        with np.errstate(all="ignore"):
            ok = batch._check_lanes(bhm.weierstrass._lanes(_array(zs[start:])), tol)[2]
        left += [start + k for k in batch.left if k < end]
        scalar += [start + k for k in np.flatnonzero(~ok[:min(end, batch.solved)]).tolist()]
        start += end
    return left, scalar


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
            assert _assert_fibre_batch_matches(data, qs, zs, ts) == ([], []), name
            assert {fibre_at(data, q).tag.value for q in qs} == tags, name
            if tags != {"empty"}:
                batch = FibreBatch(data, qs)
                assert batch.checks(_array(zs), 1e-8)[1].all(), name  # the samples are on their fibres

    def test_poles_and_overflows_are_left_to_the_scalar_path(self):
        # G = 1/q: a pole at q = 0, which fibre_at raises; at q = 1e300 the
        # fibre is finite and sampled here, but |z|^2 overflows at
        # z = (1e200, 0, 0), where the scalar contains raises.  With the
        # pole, the batch ends at its lane, and the batch after it at the
        # overflow; without it, the first batch ends at the overflow
        data = WeierstrassData(HoloFn(Const(1.0) / Q, Const(1.0) / Q), HoloFn(Q, Q))
        qs = [Bicomplex(0.5, 0.25j), Bicomplex(0.0, 0.0), Bicomplex(1e300, 0.0)]
        zs = [CVec3(1, 0, 0), CVec3(1, 0, 0), CVec3(1e200, 0, 0)]
        with np.errstate(all="ignore"):
            assert _assert_fibre_batch_matches(data, qs, zs, [0.5]) == ([1], [2])
            assert _assert_fibre_batch_matches(data, qs[::2], zs[::2], [0.5]) == ([], [1])
            assert FibreBatch(data, qs[::2]).checks(_array(zs[::2]), 1e-8)[2] == 1
        assert _outcome(lambda: fibre_at(data, qs[1]))[0] == "PoleEncounteredError"
        assert _outcome(lambda: _scalar_check(data, qs[2], zs[2], 1e-8))[0] == "OverflowError"

    def test_flagged_lanes_are_checked_on_the_scalar_path(self):
        # a power past C_POWI_MAX flags every lane, whose finite value is
        # then not G(q): fibre_at and the check run on the scalar path
        data = WeierstrassData(HoloFn(Pow(Q, C_POWI_MAX + 1)), HoloFn(Q))
        qs = [Bicomplex(1.001, 0.002j), Bicomplex(0.999, 0.001)]
        zs = [CVec3(0.3, 0.2, 0.1), CVec3(1, 0, 0)]
        with np.errstate(all="ignore"):
            assert _assert_fibre_batch_matches(data, qs, zs, [0.5]) == ([0, 1], [0, 1])

    @pytest.mark.parametrize("xs, forced, left", [
        # no lane raises
        ([0.5, 0.7], None, []),
        # the first lane raises (G's pole at q = 0)
        ([0.0, 0.5], None, [0]),
        # a middle lane raises, after a lane forced onto fibre_at
        ([1.0, 0.0, 0.5], 0, [0, 1]),
        # a lane left to fibre_at past the first error is not solved
        ([0.0, 0.5, 0.0], None, [0, 2]),
    ])
    def test_a_batch_solves_its_lanes_up_to_the_first_error(self, xs, forced, left,
                                                           monkeypatch):
        # a FibreBatch is finished when it is built: the lanes left to
        # fibre_at, how many are solved and the error of the next are those
        # of a lane-by-lane run; every solved lane reads its fibre, and a
        # lane past them raises that error
        if forced is not None:
            lane_fibres = bhm.weierstrass._lane_fibres

            def leave(g, h, flagged):
                fibres = lane_fibres(g, h, flagged)
                fibres.tag[forced] = -1
                return fibres

            monkeypatch.setattr(bhm.weierstrass, "_lane_fibres", leave)
        data = WeierstrassData(HoloFn(Const(1.0) / Q, Const(1.0) / Q), HoloFn(Q, Q * Q))
        qs = [Bicomplex(x, 0.25j * x) for x in xs]
        with np.errstate(all="ignore"):
            batch = FibreBatch(data, qs)
        want = [_outcome(lambda: repr(fibre_at(data, q))) for q in qs]
        raised = [k for k, outcome in enumerate(want) if isinstance(outcome, tuple)]
        solved = raised[0] if raised else len(qs)
        assert batch.left == left
        assert batch.solved == solved
        assert [repr(batch.fibre(k)) for k in range(solved)] == want[:solved]
        assert [_outcome(lambda: batch.fibre(k)) for k in range(solved, len(qs))] == \
            want[solved:solved + 1] * (len(qs) - solved)
        assert (batch.error is None) == (not raised)
        if raised:
            assert (type(batch.error).__name__, str(batch.error)) == want[solved]

    @pytest.mark.parametrize("swap", [False, True], ids=["check-first", "fibre-first"])
    def test_checks_end_at_the_first_lane_that_raises(self, swap):
        # G = q, H = q q: the check at z = (1e155, 0, 0) overflows on the
        # scalar path, and fibre_at raises at q = 1e300, where |G(q)|^2
        # overflows.  Whichever lane comes first ends the checked lanes
        # with its error, as in a lane-by-lane run
        samples = [([0.5, 0, 0, 0], [1, 0, 0]), ([0.5, 0, 0, 0], [1e155, 0, 0]),
                   ([1e300, 0, 0, 0], [1, 0, 0])]
        if swap:
            samples[1:] = samples[:0:-1]
        config = {"task": "verify", "data": {"G": {"f": _VAR}, "H": {"f": {
            "op": "mul", "args": [_VAR, _VAR]}}},
                  "samples": [{"q": q, "z": z} for q, z in samples]}
        data = bhm.cli._parse_data(config)
        qs, zs = zip(*(bhm.cli._parse_sample(s) for s in config["samples"]))
        with np.errstate(all="ignore"):
            assert _assert_fibre_batch_matches(data, qs, zs, [0.5]) == \
                (([1], [2]) if swap else ([2], [1]))
            batch = FibreBatch(data, list(qs))
            _, _, n, error = batch.checks(_array(zs), 1e-8)
            want = _outcome(lambda: _point_by_point(config))
        assert (n, batch.solved, type(error)) == (1, 1 if swap else 2, RangeOverflowError)
        assert (error is batch.error) == swap
        assert want == (type(error).__name__, str(error))
        assert _cli_output(config) == want


def _implicit_abs(sol, z):
    """|Laplacian| and |nullness| of a root's row by the scalar ``abs``,
    whose OverflowError past the double range the CLI names, naming the
    root q and the point z."""
    cli = bhm.cli
    try:
        return rr.f(abs(sol.laplacian)), rr.f(abs(sol.gradient.square()))
    except OverflowError:
        raise RangeOverflowError(f"|Laplacian| or |nullness| overflows at the root "
                                 f"q = {sol.q!r} of z = {z!r}") from None


def _root_json(sol, z, fibre):
    """Root ``sol`` of point z's ``solve`` row, built from its
    CongruenceSolution, with its fibre's row."""
    cli = bhm.cli
    gradient = laplacian_abs = nullness_abs = gauss = None
    if sol.gradient is not None:
        gradient = [rr.b(q) for q in sol.gradient]
        laplacian_abs, nullness_abs = _implicit_abs(sol, z)
        if not sol.degenerate:
            try:
                gauss = rr.cvec(gauss_map(sol.gradient))
            except DegeneratePointError:
                pass  # |gradient|^2 underflows to 0: no direction, and not degenerate
    return {"q": rr.b(sol.q), "multiplicity": sol.multiplicity,
            "residual": rr.f(sol.residual), "degenerate": sol.degenerate,
            "partially_degenerate": sol.partially_degenerate, "gradient": gradient,
            "laplacian_abs": laplacian_abs, "nullness_abs": nullness_abs, "gauss": gauss,
            "fibre": fibre}


def _point_by_point(config, tol=None, seed=0):
    """The ``solve``, ``fibres`` or ``verify --samples`` report of a run that
    takes one point or parameter at a time through solve_phi, fibre_at,
    sample_points, contains and the scalar residual, formatted as ``run``
    formats it."""
    data = bhm.cli._parse_data(config)
    if config["task"] == "solve":
        results = []
        for z in [bhm.cli._parse_point(p) for p in config["points"]]:
            roots = [_root_json(sol, z, rr.fibre_json(fibre_at(data, sol.q), ()))
                     for sol in solve_phi(data, z)]
            results.append({"point": rr.cvec(z), "roots": roots})
        report = {"task": "solve", "results": results}
    elif config["task"] == "fibres":
        rng = random.Random(seed)
        ts = [rng.uniform(-2.0, 2.0) for _ in range(config.get("samples", 3))]
        results = []
        for q in [bhm.cli._parse_bicomplex(p) for p in config["params"]]:
            results.append({"q": rr.b(q), **rr.fibre_json(fibre_at(data, q), ts)})
        report = {"task": "fibres", "results": results}
    else:
        tol = 1e-8 if tol is None else tol
        results = []
        for s in config["samples"]:
            q, z = bhm.cli._parse_sample(s)
            fibre = fibre_at(data, q)
            try:
                res = _residual(data.G(q), data.H(q), z)
                on_fibre = bool(fibre.contains(z, tol=tol))
            except OverflowError:  # named by the CLI
                raise RangeOverflowError(f"the residual or the fibre test overflows at the "
                                         f"sample q = {q!r}, z = {z!r}") from None
            results.append({"q": rr.b(q), "z": rr.cvec(z), "tag": fibre.tag.value,
                            "residual": rr.f(res), "on_fibre": on_fibre})
        report = {"task": "verify", "results": results}
    return rr.write(report, config.get("format", "json"))


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
        monkeypatch.setattr(bhm.weierstrass, "BLOCK_LANES", rr.block_lanes(size, config))
        assert _cli_output(config) == want


@pytest.mark.parametrize("config", [c for c in _fibre_configs() if c["task"] == "verify"])
def test_samples_forced_onto_the_scalar_path_match_a_point_by_point_run(config, monkeypatch):
    # a verify --samples lane whose check takes the scalar path, every
    # other lane here, gives a point-by-point run's row or error, and so
    # does each lane after it; with a sample whose residual overflows
    # (xi(G(q)) . z at z = (1e155, 0, 0)) added at the end, that sample's
    # named error follows the rows before it
    check_lanes = FibreBatch._check_lanes

    def every_other(batch, z, tol):
        residual, on_fibre, ok = check_lanes(batch, z, tol)
        return residual, on_fibre, ok & (np.arange(len(ok)) % 2 == 1)

    overflowing = dict(config, samples=config["samples"] + [{"q": [0.5, 0, 0, 0],
                                                             "z": [1e155, 0, 0]}])
    outcomes = []
    for cfg in (config, overflowing):
        with np.errstate(all="ignore"):
            want = _outcome(lambda: _point_by_point(cfg))
        outcomes.append(want)
        assert _cli_output(cfg) == want
        with monkeypatch.context() as m:
            m.setattr(FibreBatch, "_check_lanes", every_other)
            assert _cli_output(cfg) == want
    if isinstance(outcomes[0], str):  # no earlier error: the added sample's is raised
        assert outcomes[1][0] == "RangeOverflowError"


def _shift_laplacian(monkeypatch):
    """Shift the implicit Laplacian helper, which solve_phi and the batch
    both run, by 1e200 z1: at a point with z1 = 1 its |Laplacian|^2 passes
    the double range, so the scalar abs raises OverflowError, which the CLI
    names RangeOverflowError, while the root's report row is built; at
    z1 = 0 nothing changes.  (A harmonic morphism's Laplacian vanishes up
    to rounding, so unshifted data does not get there.)"""
    laplacian = bhm.weierstrass._laplacian

    def shifted(g, dg, d2g, d2h, z, grad, fq_inv):
        return laplacian(g, dg, d2g, d2h, z, grad, fq_inv) + z.u1 * 1e200

    monkeypatch.setattr(bhm.weierstrass, "_laplacian", shifted)


def test_solve_errors_keep_a_point_by_point_order(monkeypatch):
    # G = q and H = q / 1e-3, whose scalar Div finds a pole where a part of
    # q passes 1e9.  With the Laplacian shifted (_shift_laplacian), the
    # report row of the first root at z = (1, 0.3, 0.2) raises
    # RangeOverflowError.  At z1 = 1e10 three roots have a part near 2e10,
    # and their fibres raise at H's pole.  At z = (-1000, 0, 0) both
    # components vanish and the solve raises.  In one block, each error
    # comes before the next one's, as in a point-by-point run
    var = {"op": "var"}
    data = {"G": {"f": var},
            "H": {"f": {"op": "div", "args": [var, {"op": "const", "value": [1e-3, 0]}]}}}
    report_error = [1, 0.3, 0.2]
    fibre_error = [1e10, [0.3, 0.1], 0.7]
    solve_error = [-1000, 0, 0]
    for points, first, shift in [([report_error, fibre_error], "RangeOverflowError", True),
                                 ([fibre_error, solve_error], "PoleEncounteredError", False)]:
        config = {"task": "solve", "data": data, "points": points}
        with monkeypatch.context() as m:
            if shift:
                _shift_laplacian(m)
            with np.errstate(all="ignore"):
                want = _outcome(lambda: _point_by_point(config))
            assert want[0] == first
            assert _cli_output(config) == want


def _horner(coeffs):
    """c0 + q (c1 + q (c2 + ...)) as expression JSON, coefficients [re, im]."""
    e = {"op": "const", "value": coeffs[-1]}
    for c in reversed(coeffs[:-1]):
        e = {"op": "add", "args": [{"op": "const", "value": c},
                                   {"op": "mul", "args": [{"op": "var"}, e]}]}
    return e


def _cubic_solve_config(seed, n_points):
    """``solve`` on seeded per-side cubic G and quadratic H, the shape of
    the solve-dense benchmark's scenes: degree-6 components, 36 roots a
    point where z2 -+ i z3 stays away from 0."""
    rng = random.Random(seed)

    def rc(lo=0.0):
        while True:
            z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            if abs(z) >= lo:
                return [z.real, z.imag]

    g = {f: _horner([rc() for _ in range(3)] + [rc(0.5)]) for f in ("f1", "f2")}
    h = {f: _horner([rc() for _ in range(3)]) for f in ("f1", "f2")}
    points = []
    while len(points) < n_points:
        z = [complex(*rc()) for _ in range(3)]
        if min(abs(z[1] - 1j * z[2]), abs(z[1] + 1j * z[2])) >= 0.3:
            points.append([[c.real, c.imag] for c in z])
    return {"task": "solve", "data": {"G": g, "H": h}, "points": points}


def _solve_row_configs():
    var = {"op": "var"}
    zero = {"op": "const", "value": [0, 0]}
    radial = {"G": {"f": var}, "H": {"f": zero}}
    # the e-side alone has a double root on the null cone z = (1, i, 0)
    partial = {"G": {"f": var}, "H": {"f1": zero, "f2": {"op": "const", "value": [0.5, 0]}}}
    # the one root at z1 = 1e163 is about 1e-163: its gradient's squares
    # underflow, so |gradient|^2 = 0 and CN(gradient) = 0, yet it is not
    # degenerate
    underflow = {"G": {"f": var},
                 "H": {"f": {"op": "div", "args": [var, {"op": "const", "value": [1e-3, 0]}]}}}
    cubic = _cubic_solve_config(1, 9)
    return {
        "cubic": cubic,
        # z2 = +-i z3 drops a component's degree, and z = 0 leaves -2H
        "cubic-mixed-degrees": dict(cubic, points=cubic["points"][:6] + [
            [0.3, [0.5, 0], [0, 0.5]], [0, 1, [0, -1]], [0, 0, 0]]),
        "radial": {"task": "solve", "data": radial,
                   "points": [[0, 1, 0], [1, [0, 1], 0], [0.31, 1.07, -0.55],
                              [[-0.0, 0.0], [0.5, -0.0], -0.0], [-0.0, [-0.0, -0.0], 1]]},
        "partial": {"task": "solve", "data": partial,
                    "points": [[1, [0, 1], 0], [0.3, 1.1, -0.2], [[0, -0.0], 1, 0]]},
        "underflow": {"task": "solve", "data": underflow,
                      "points": [[0.3, 1.1, -0.2], [1e163, 0.3, 0.2], [0.7, -0.2, 0.4]]},
        # at z1 = 1e154 the root's CN(gradient) is 5e-309, a subnormal that
        # passes gauss_map's test: the root is oriented, and its Gauss map's
        # 2 / CN(gradient) overflows, so the map is not finite
        "subnormal-cn": {"task": "solve", "data": underflow,
                         "points": [[0.3, 1.1, -0.2], [1e154, 0.3, 0.2], [0.7, -0.2, 0.4]]},
    }


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("name", list(_solve_row_configs()))
def test_solve_rows_from_lanes_match_a_point_by_point_run(name, fmt, monkeypatch):
    # every root's row, built from the batch's lanes, equals _root_json's
    # row of solve_phi's solution, at any block size
    config = dict(_solve_row_configs()[name], format=fmt)
    with np.errstate(all="ignore"):
        want = _outcome(lambda: _point_by_point(config))
    if name == "subnormal-cn":
        data = bhm.cli._parse_data(config)
        with np.errstate(all="ignore"):
            batch = RootBatch(data, [bhm.cli._parse_point(p) for p in config["points"]])
            finite = [c.isfinite() for c in batch.gauss]
        assert (batch.implicit.oriented & ~(finite[0] & finite[1] & finite[2])).any()
    if name == "subnormal-cn" and fmt == "json":
        # the JSON report is refused, naming the Gauss map's infinity; the
        # CSV report has no Gauss map column
        assert want == ("ValueError", "non-finite value inf in the JSON report")
    else:
        assert isinstance(want, str)
    for size in (None, 1, 2, 7):
        if size is not None:
            monkeypatch.setattr(bhm.weierstrass, "BLOCK_LANES", rr.block_lanes(size, config))
        assert _cli_output(config) == want, size
    if fmt == "json" and isinstance(want, str):
        roots = [r for res in json.loads(want)["results"] for r in res["roots"]]
        flags = {(r["multiplicity"] > 1, r["degenerate"], r["partially_degenerate"],
                  r["gradient"] is None, r["gauss"] is None) for r in roots}
        if name == "radial":  # a degenerate root, a multiple one, a regular one
            assert {(False, True, False, False, True), (True, False, False, True, True),
                    (False, False, False, False, False)} <= flags
        if name == "partial":
            assert (True, False, True, True, True) in flags
        if name == "underflow":  # reported with no Gauss map, and not degenerate
            assert (False, False, False, False, True) in flags


def test_solve_scene_reads_every_row_from_the_lanes(monkeypatch):
    # a scene of the solve-dense benchmark's shape builds no
    # CongruenceSolution, and calls neither gauss_map nor RootBatch.solution
    config = _cubic_solve_config(0, 32)
    called = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            called[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(bhm.weierstrass, "CongruenceSolution",
                        counting("CongruenceSolution", bhm.weierstrass.CongruenceSolution))
    monkeypatch.setattr(bhm.weierstrass, "gauss_map",
                        counting("gauss_map", bhm.weierstrass.gauss_map))
    monkeypatch.setattr(RootBatch, "solution", counting("solution", RootBatch.solution))
    report = json.loads(_cli_output(config))
    assert [len(res["roots"]) for res in report["results"]] == [36] * 32
    assert sum(r["gauss"] is not None for res in report["results"] for r in res["roots"]) > 0
    assert called == Counter()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_an_overflowing_laplacian_abs_takes_the_scalar_row_in_its_turn(fmt, monkeypatch):
    # with the Laplacian shifted (_shift_laplacian), the roots at z1 = 1
    # have a finite Laplacian whose scalar abs overflows: the batch keeps
    # the point, its report marks the roots, and the first of them raises
    # RangeOverflowError naming its q and z after its fibre, in the turn
    # where a point-by-point run's scalar abs raises; the point before reads
    # its rows from the lanes
    _shift_laplacian(monkeypatch)
    var = {"op": "var"}
    config = {"task": "solve", "format": fmt,
              "data": {"G": {"f": var}, "H": {"f": {"op": "const", "value": [0.2, 0.1]}}},
              "points": [[0, 1.1, -0.2], [1, 0.3, 0.2], [0, [0.5, -0.3], 0.7]]}
    data = bhm.cli._parse_data(config)
    z = bhm.cli._parse_point(config["points"][1])
    with np.errstate(all="ignore"):
        want = _outcome(lambda: _point_by_point(config))
        batch = RootBatch(data, [bhm.cli._parse_point(p) for p in config["points"]])
        assert batch.lanes(1) is not None
        assert all(batch.report.overflow[batch.lanes(1)])
        assert not any(batch.report.overflow[batch.lanes(0)])
        q = solve_phi(data, z)[0].q
        assert _outcome(lambda: abs(solve_phi(data, z)[0].laplacian)) == \
            ("OverflowError", "(34, 'Numerical result out of range')")
    assert want == ("RangeOverflowError",
                    f"|Laplacian| or |nullness| overflows at the root q = {q!r} of z = {z!r}")
    assert _cli_output(config) == want
    # the fibre of the raising root comes first: with its fibre raising
    # too, the fibre's error is raised; with the next root's fibre raising,
    # the |Laplacian| error still is
    roots = [batch.implicit.q.item(k) for k in batch.lanes(1)]
    assert len(roots) >= 2
    lane_fibres = bhm.weierstrass._lane_fibres

    def left(g, h, flagged):
        return lane_fibres(g, h, np.ones_like(flagged))

    for bad, error in [(roots[0], ("DegenerateDirectionError", f"no fibre at {roots[0]!r}")),
                       (roots[1], want)]:
        def raising(data, q, bad=bad):
            if repr(q) == repr(bad):
                raise DegenerateDirectionError(f"no fibre at {q!r}")
            return fibre_at(data, q)

        with monkeypatch.context() as m:
            m.setattr(bhm.weierstrass, "_lane_fibres", left)
            m.setattr(bhm.weierstrass, "fibre_at", raising)
            assert _cli_output(config) == error
    del config["points"][1]
    with np.errstate(all="ignore"):
        want = _point_by_point(config)
    assert isinstance(want, str) and _cli_output(config) == want


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

    lefts = []
    init = FibreBatch.__init__

    def recording(batch, *args):
        init(batch, *args)
        lefts.append(batch.left)

    monkeypatch.setattr(HoloFn, "__call__", counting_call)
    monkeypatch.setattr(bhm.weierstrass, "fibre_at", no_fibre_at)
    monkeypatch.setattr(FibreBatch, "__init__", recording)
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
    assert lefts and all(left == [] for left in lefts)


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
    # a batched solve evaluates G, dG, d2G and d2H once per block over its
    # root lanes in the RootBatch, then G and H once over the same lanes in
    # the FibreBatch of its fibres, and never calls HoloFn for a root the
    # batch solved
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
    monkeypatch.setattr(bhm.weierstrass, "BLOCK_LANES", 4 * 2)  # 2 anchors
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
    roots = {data.G, data.dG, data.d2G, data.d2H}
    fibres = {data.G, data.H}
    assert len(roots | fibres) == 5
    blocks = [report["results"][k:k + 2] for k in range(0, 5, 2)]
    assert len(evaluated) == 6 * len(blocks)
    for b, block in enumerate(blocks):
        fns, lanes = zip(*evaluated[6 * b:6 * b + 6])
        assert set(fns[:4]) == roots and set(fns[4:]) == fibres
        assert set(lanes) == {sum(len(res["roots"]) for res in block)}
    assert called == []


def test_batches_leave_no_blocks_allocated():
    # a small block left allocated by each batch pins one allocator arena
    # per block of a long run: np.cumsum in RootBatch._solve did so under
    # numpy 2.4 and raised the 25 000-point slice grid's peak RSS by 5-10 MB
    data = WeierstrassData(HoloFn(Var()), HoloFn(Const(0.0)))
    points = [CVec3(0.3 + 0.01 * k, 0.5, 0.7) for k in range(16)]

    def solve_block():
        batch = RootBatch(data, points)
        for i in range(len(points)):
            _solved(batch, i)

    for _ in range(5):
        solve_block()
    gc.collect()
    before = sys.getallocatedblocks()
    for _ in range(50):
        solve_block()
    gc.collect()
    assert sys.getallocatedblocks() - before < 10


def test_a_batch_holds_no_more_than_its_anchors_once_its_stencil_roots_are_dropped():
    # a batch solved with its stencil points holds only its anchors' root
    # lanes, gathered from the root pass: once the stencil roots are handed
    # over and dropped, no view of the pass's arrays keeps them alive
    q = Var()
    data = WeierstrassData(HoloFn(q ** 3 + q), HoloFn(q ** 2))
    rng = random.Random(7)
    anchors = [CVec3(*(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3)))
               for _ in range(40)]
    stencil = [p for z in anchors for p in fd_stencil(z)[1]]

    def alone():
        return RootBatch(data, anchors)

    def fused():
        batch = RootBatch(data, anchors, stencil=stencil)
        batch.stencil_roots()
        return batch

    def held(build):
        gc.collect()
        tracemalloc.start()
        try:
            batch = build()
            gc.collect()
            return tracemalloc.get_traced_memory()[0], batch
        finally:
            tracemalloc.stop()

    with np.errstate(all="ignore"):
        for build in (alone, fused):  # the caches of data's derivatives, filled once
            build()
        (base, a), (total, b) = held(alone), held(fused)
    assert a.left == b.left == [] and a.solved == b.solved == len(anchors)
    assert total <= 1.02 * base


# CArray's operators, each a few numpy calls on a block's small arrays
_CARRAY_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
                     "__rmul__", "__truediv__", "__rtruediv__", "__pow__", "__abs__")
_RADIAL_SLICE = {"task": "slice", "slice": "euclidean", "g": {"f": {"op": "var"}},
                 "h": {"f": {"op": "const", "value": [0, 0]}}}
_RADIAL_DATA = {"G": {"f": {"op": "var"}}, "H": {"f": {"op": "const", "value": [0, 0]}}}


def _counted(monkeypatch, owner, names):
    """A Counter of the calls of ``owner``'s functions ``names``, patched."""
    calls = Counter()
    for name in names:
        def counting(*args, _fn=getattr(owner, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize("config, bound", [
    (dict(_RADIAL_SLICE, points=[[0.3, 0.5, 0.7]]), 245),
    ({"task": "verify", "data": _RADIAL_DATA, "points": [[0.3, 1.1, -0.2]]}, 702),
], ids=["slice", "verify"])
def test_a_one_point_block_is_a_bounded_number_of_lane_operations(config, bound, monkeypatch):
    # a block's cost is mostly fixed: one root pass over both sides of the
    # components of its anchors and their stencil points together, and no
    # Laplacian where no row reads one (588 and 839 operations with a pass
    # per side and an eager Laplacian, 318 and 775 with a pass for the
    # anchors and one for the stencil points)
    run(config, io.StringIO())
    calls = _counted(monkeypatch, CArray, _CARRAY_OPERATORS)
    with np.errstate(all="ignore"):
        run(config, io.StringIO())
    assert 0 < sum(calls.values()) <= bound, calls


@pytest.mark.parametrize("config, blocks", [
    (dict(_RADIAL_SLICE, grid={"min": [0.3, 0.4, 0.5], "max": [1.7, 1.9, 1.2],
                               "counts": [3, 2, 1]}), 0),
    ({"task": "verify", "data": _RADIAL_DATA,
      "points": [[0.3, 1.1, -0.2], [1.0, -0.5, [0.2, 0.4]], [0.7, 0.1, 0.9]]}, 2),
    ({"task": "solve", "data": _RADIAL_DATA,
      "points": [[0.3, 1.1, -0.2], [1.0, -0.5, [0.2, 0.4]], [0.7, 0.1, 0.9]]}, 2),
], ids=["slice", "verify", "solve"])
def test_the_laplacian_is_built_once_per_block_that_reads_it(config, blocks, monkeypatch):
    # slice rows read no Laplacian: its lanes are never built; a solve or
    # verify --points block builds them once, for its report
    monkeypatch.setattr(bhm.weierstrass, "BLOCK_LANES", rr.block_lanes(2, config))
    want = _cli_output(config)
    calls = _counted(monkeypatch, bhm.weierstrass, ["_laplacian", "solve_phi"])
    assert _cli_output(config) == want
    assert calls == Counter({"_laplacian": blocks} if blocks else {})


def _fused_configs():
    """Data whose e- and f-sides differ in width and degree, at points
    where a side's degree drops, a side has zero roots (np.roots'
    trailing zeros) or a side vanishes."""
    rng = random.Random(18)

    def rc():
        return complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))

    def poly(coeffs):
        return _horner([[c.real, c.imag] for c in coeffs])

    points = []
    for _ in range(6):
        z2 = rc()
        points += [[[c.real, c.imag] for c in (rc(), rc(), rc())],
                   # z2 + i z3 = 0: with G(0) = H(0) = 0 on the e-side, its
                   # constant term vanishes, and a linear f-side's quadratic
                   # term with it
                   [[c.real, c.imag] for c in (rc(), z2, 1j * z2)],
                   # z2 - i z3 = 0: an f-side of G = H = 0 vanishes, and a
                   # linear e-side's quadratic term
                   [[c.real, c.imag] for c in (rc(), z2, -1j * z2)]]
    points += [[0, 0, 0], [[0.5, 0.2], 0, 0]]
    # a cubic e-side G with a linear f-side G: e-side width 7, f-side 3
    cubic = {"G": {"f1": poly([0, rc(), rc(), rc()]), "f2": poly([rc(), rc()])},
             "H": {"f1": poly([0, rc()]), "f2": poly([rc(), rc(), rc()])}}
    # e-side as above, a constant f-side: width 1, and 0 where z2 = i z3
    constant = {"G": {"f1": poly([0, rc(), rc(), rc()]), "f2": poly([0])},
                "H": {"f1": poly([0, rc()]), "f2": poly([0])}}
    # a linear e-side G with a cubic f-side: the f-side is the wider one
    linear = {"G": {"f1": poly([rc(), rc()]), "f2": poly([0, rc(), 0, rc()])},
              "H": {"f1": poly([rc(), rc()]), "f2": poly([0, rc()])}}
    return [{"task": "solve", "data": data, "points": points}
            for data in (cubic, constant, linear)]


@pytest.mark.parametrize("config", _fused_configs(), ids=["cubic-linear", "cubic-constant",
                                                          "linear-cubic"])
@pytest.mark.parametrize("size", [None, 1, 2, 7])
def test_one_root_pass_over_both_sides_matches_the_scalar_path(config, size, monkeypatch):
    # both sides' lanes share one _side_roots pass, the narrower side zero-
    # padded: each lane still reads as _canonical_roots and solve_phi, in
    # every block, and the CLI's report is a point-by-point run's
    if size is not None:
        monkeypatch.setattr(bhm.weierstrass, "BLOCK_LANES", rr.block_lanes(size, config))
    data = bhm.cli._parse_data(config)
    points = [bhm.cli._parse_point(p) for p in config["points"]]
    kinds = Counter()
    with np.errstate(all="ignore"):
        for block in bhm.weierstrass._blocks(points, bhm.weierstrass._degrees(data)):
            _assert_points_match(data, block)
            for z in block:
                fe, ff = bhm.weierstrass.congruence_components(data, z)
                for side in (fe, ff):
                    outcome = _outcome(lambda: _poly_roots(side))
                    kinds[("raises" if isinstance(outcome, tuple)
                           else "zero-root" if any(r == 0 for r, _ in outcome)
                           else len(outcome))] += 1
        want = _outcome(lambda: _point_by_point(config))
    assert "zero-root" in kinds and len(kinds) >= 4, kinds
    assert _cli_output(config) == want


# G = 1e154 q + 1e7, H = 2e9 q + 1e60 q^2: at z = (0.02, 0, 0) a root's
# gradient is finite and its Laplacian is not
_LAPLACIAN_OVERFLOW = {
    "G": {"f": {"op": "add", "args": [{"op": "const", "value": [1e7, 0]},
                                      {"op": "mul", "args": [{"op": "const", "value": [1e154, 0]},
                                                             {"op": "var"}]}]}},
    "H": {"f": {"op": "add", "args": [
        {"op": "mul", "args": [{"op": "const", "value": [2e9, 0]}, {"op": "var"}]},
        {"op": "mul", "args": [{"op": "const", "value": [1e60, 0]},
                               {"op": "pow", "args": [{"op": "var"}], "exp": 2}]}]}}}
_OUT_OF_RANGE = {"type": "ValueError", "message": "non-finite value nan in the JSON report"}
_VANISHES = {"type": "DegenerateAllComponentsError",
             "message": "congruence component vanishes identically; solution set is not discrete"}


@pytest.mark.parametrize("task", ["solve", "verify"])
@pytest.mark.parametrize("points, want", [
    ([[0.02, 0, 0]], _OUT_OF_RANGE),
    ([[0.5, 0.2, 0.1], [0.02, 0, 0]], _OUT_OF_RANGE),
    # a later point's solve error comes first: the report is refused only
    # once it is written
    ([[0.02, 0, 0], [0.5, 1e300, 0]], _VANISHES),
])
def test_a_laplacian_that_is_not_finite_keeps_its_lanes_and_its_output(task, points, want,
                                                                      monkeypatch, capsys):
    # the scalar Laplacian cannot raise, so such a root stays on the lanes
    # (it took the scalar path while every batch built the Laplacian), its
    # row is built from its solution, and main's exit code, stdout and
    # stderr are those recorded when it took the scalar path
    config = {"task": task, "data": _LAPLACIAN_OVERFLOW, "points": points}
    with np.errstate(all="ignore"):
        batch = RootBatch(bhm.cli._parse_data(config),
                          [bhm.cli._parse_point(p) for p in points])
        k = points.index([0.02, 0, 0])
        assert k < batch.solved and k not in batch.left
        lanes = batch.lanes(k)
        assert not batch.implicit.laplacian()[lanes].isfinite().all()
        assert batch.implicit.has_gradient[lanes].any()
        for c in batch.implicit.gradient:
            assert c[lanes].isfinite().all()
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(config)))
    assert bhm.cli.main([]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == json.dumps({"error": want}) + "\n"
    if task == "solve":
        with np.errstate(all="ignore"):
            assert _outcome(lambda: _point_by_point(config)) == tuple(want.values())


@pytest.mark.parametrize("size", [None, 1, 2])
@pytest.mark.parametrize("task, fmt", [("solve", "json"), ("solve", "csv"), ("verify", "json")])
@pytest.mark.parametrize("points, first", [
    ([[0.02, 0, 0]], None),
    ([[0.5, 0.2, 0.1], [0.02, 0, 0], [0.4, 0.3, 0.1]], None),
    ([[0.02, 0, 0], [0.4, 0.3, 0.1], [0.5, 1e300, 0]], _VANISHES),
])
def test_a_non_finite_value_in_an_early_block_is_refused_after_the_run(task, fmt, points, first,
                                                                       size, monkeypatch,
                                                                       capsys):
    # the report is written block by block, and a block's non-finite
    # Laplacian is refused only once the run is done: a later block's
    # domain error still comes first, and stdout stays empty
    config = {"task": task, "data": _LAPLACIAN_OVERFLOW, "points": points, "format": fmt}
    if size is not None:
        monkeypatch.setattr(bhm.weierstrass, "BLOCK_LANES", rr.block_lanes(size, config))
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(config)))
    assert bhm.cli.main([]) == 3
    out, err = capsys.readouterr()
    if first is None:
        first = (_OUT_OF_RANGE if fmt == "json" else
                 {"type": "ValueError", "message": "non-finite value nan in the CSV report"})
    assert out == "" and json.loads(err) == {"error": first}
    if task == "solve":
        with np.errstate(all="ignore"):
            assert _outcome(lambda: _point_by_point(config)) == tuple(first.values())


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


# ---------------------------------------------------------------------------
# the stencil tasks over lanes: points, rows and their order

# coordinates of every kind: signed zeros, subnormals, and values past the
# range of a square (1e155), of a step (1.7e308) and between them
_stencil_edges = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-300, 1e154,
                                  1.34e154, 1e155, -1e155, 1e300, -1e300, 1.7e308, -1.7e308])
_stencil_finite = st.one_of(_stencil_edges, st.floats(-4, 4),
                            st.floats(allow_nan=False, allow_infinity=False))


def _cvec_reprs(points):
    """CArray lanes of shape (n, 3) as the reprs of the CVec3s they hold."""
    return [repr(CVec3(*z)) for z in points.complex().tolist()]


class TestStencilPoints:
    """The stencil points ``slice`` and ``verify --points`` solve, built
    over lanes, against ``wave_stencil`` + ``embed_domain`` and
    ``fd_stencil``, by repr."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(kind=st.sampled_from(list(SliceKind)),
           xs=st.lists(st.tuples(*[st.one_of(_stencil_finite, st.sampled_from(
               [math.inf, -math.inf, math.nan]))] * 3), min_size=1, max_size=4),
           h=st.one_of(st.none(), st.sampled_from([3e-4, 1e-3, 2.5])))
    def test_slice_points_match_wave_stencil(self, kind, xs, h):
        x = np.array(xs, dtype=float)
        with np.errstate(all="ignore"):
            anchors = _embedded(kind, x)
            steps, raised, points = _wave_stencils(kind, h, xs, x)
        assert _cvec_reprs(anchors) == [repr(embed_domain(kind, p)) for p in xs]
        want = [wave_stencil(p, h) for p in xs]
        assert [repr(s) for s in steps.tolist()] == [repr(step) for _, step, _ in want]
        assert not raised.any()
        assert _cvec_reprs(points) == [repr(embed_domain(kind, p))
                                       for _, _, stencil in want for p in stencil]

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(zs=st.lists(st.tuples(*[st.builds(complex, _stencil_finite, _stencil_finite)] * 3),
                       min_size=1, max_size=4))
    def test_verify_points_match_fd_stencil(self, zs):
        zs = [CVec3(*z) for z in zs]
        with np.errstate(all="ignore"):
            steps, raised, points = _fd_stencils(zs, CArray.of([tuple(z) for z in zs]))
        want = []
        for z, step, flagged in zip(zs, steps.tolist(), raised.tolist()):
            try:
                h, stencil = fd_stencil(z)
            except OverflowError:
                assert flagged  # its scale raises
                continue
            assert not flagged and repr(step) == repr(h)
            want += stencil
        assert _cvec_reprs(points) == [repr(p) for p in want]

    def test_an_anchor_whose_norm_overflows_is_flagged(self, monkeypatch):
        # |z|^2 passes the double range at z1 = 1e155, where z.norm() raises;
        # at 1e154 in every coordinate each square is finite and their sum
        # is inf, a scale that raises nothing (and an infinite step)
        zs = [CVec3(0.3, 1.1, -0.2), CVec3(1e155, 0, 0), CVec3(1e154, 1e154, 1e154)]
        with np.errstate(all="ignore"):
            steps, raised, points = _fd_stencils(zs, CArray.of([tuple(z) for z in zs]))
        assert raised.tolist() == [False, True, False]
        assert steps[2] == math.inf == fd_stencil(zs[2])[0]
        assert _cvec_reprs(points) == [repr(p) for z in (zs[0], zs[2]) for p in fd_stencil(z)[1]]
        # every root of the raising anchor takes the reference, which raises
        # the scale's OverflowError, named, when its check is called, in its
        # turn
        data = WeierstrassData(HoloFn(Var()), HoloFn(Const(0.0)))
        references = []
        fd_residuals = bhm.verify.fd_residuals

        def counted(phi, z, *args):
            references.append(z)
            return fd_residuals(phi, z, *args)

        monkeypatch.setattr(bhm.verify, "fd_residuals", counted)
        checks = iter(bhm.verify.point_checks(data, zs[:2]))
        z, pairs = next(checks)
        assert [check() is not None for _, check in pairs] == [True] * 4
        z, pairs = next(checks)
        assert pairs and references == []
        named = r"^the stencil scale \|z\| overflows at z = CVec3\(\(1e\+155\+0j\)"
        with pytest.raises(RangeOverflowError, match=named):
            pairs[0][1]()
        assert references == [zs[1]]


# slice and verify --points configs of the stencil benchmark's shape: the
# quadratic radial, projection and disc data (h = q j for Minkowski -> D),
# off their singular sets
_VAR = {"op": "var"}


def _times(c):
    return {"op": "mul", "args": [{"op": "const", "value": c}, _VAR]}


_RADIAL = ({"f": _VAR}, {"f": {"op": "const", "value": [0, 0]}})
_DISC = ({"f": _VAR}, {"f1": _times([0, 1]), "f2": _times([0, -1])})
_STENCIL_SCENES = [
    *({"task": "slice", "slice": kind, "g": g, "h": h,
       "grid": {"min": [0.6, 0.7, 0.5], "max": [0.9, 1.2, 0.8], "counts": [2, 3, 2]}}
      for kind in ("euclidean", "minkowski_c")
      for g, h in [_RADIAL, ({"f": {"op": "const", "value": [0, 0]}}, {"f": _times([0.5, 0])}),
                   _DISC]),
    {"task": "slice", "slice": "minkowski_d", "g": {"f": _VAR},
     "h": {"f1": _times([-1, 0]), "f2": _VAR},
     "grid": {"min": [0.3, -0.1, 0.1], "max": [0.5, 0.1, 0.3], "counts": [2, 2, 3]}},
    *({"task": "verify", "data": {"G": g, "H": h},
       "points": [[[0.3, 0.1], [1.1, -0.2], [-0.2, 0.4]], [1.0, -0.5, [0.2, 0.4]],
                  [0.7, [0.1, 0.3], 0.9]]}
      for g, h in (_RADIAL, _DISC)),
]


def test_stencil_scenes_build_no_solution_on_the_lanes(monkeypatch):
    # every root of these scenes is read from the lanes: no
    # CongruenceSolution (so none for a root the slice drops), no
    # classify_point and no CVec3 but verify's parsed points
    called = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            called[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    init = CVec3.__init__
    monkeypatch.setattr(bhm.weierstrass, "CongruenceSolution",
                        counting("CongruenceSolution", bhm.weierstrass.CongruenceSolution))
    monkeypatch.setattr(bhm.verify, "classify_point", counting("classify_point",
                                                               bhm.verify.classify_point))
    monkeypatch.setattr(CVec3, "__init__", counting("CVec3", init))
    dropped = 0
    for config in _STENCIL_SCENES:
        if config["task"] == "slice":
            kind = SliceKind(config["slice"])
            data = slice_data(kind, holofn_from_json(config["g"]), holofn_from_json(config["h"]))
            roots = sum(len(solve_roots(data, embed_domain(kind, x)))
                        for x in bhm.cli._grid_points(config["grid"]))
        called.clear()
        report = json.loads(_cli_output(config))
        if config["task"] == "slice":
            rows = report["results"]
            assert rows and all(r["class"] is not None and r["harmonic_res"] is not None
                                for r in rows)
            dropped += roots - len(rows)
            assert called == Counter()
        else:
            assert [len(res["roots"]) for res in report["results"]] == [4, 4, 4]
            assert all(r["fd"] is not None for res in report["results"] for r in res["roots"])
            assert called == Counter(CVec3=3)
    assert dropped > 0


def test_slice_checks_build_a_solution_per_kept_root(monkeypatch):
    # the library's slice_checks gives each kept root's CongruenceSolution,
    # built from the lanes, and builds none for a root it drops
    data = slice_data(SliceKind.EUCLIDEAN, HoloFn(Var()), HoloFn(Const(0.0)))
    xs = [(0.6, 0.7, 0.5), (0.8, 1.2, 0.6), (0.9, 0.7, 0.8)]
    built = []
    solution = bhm.weierstrass.CongruenceSolution

    def counting(*args, **kwargs):
        built.append(args)
        return solution(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(bhm.weierstrass, "CongruenceSolution", counting)
        got = [(x, [(repr(sol), check()) for sol, check in pairs])
               for x, pairs in slice_checks(SliceKind.EUCLIDEAN, data, xs)]
    kept = sum(len(pairs) for _, pairs in got)
    assert 0 < kept < 4 * len(xs) and len(built) == kept
    with np.errstate(all="ignore"):
        want = [(x, [(repr(sol), wave_residual(
                    SliceKind.EUCLIDEAN,
                    tracked_real_branch(SliceKind.EUCLIDEAN, data, x, q0=sol.q), x))
                     for sol in projectable_roots(SliceKind.EUCLIDEAN, data, x)])
                for x in xs]
    assert got == want


def _stencil_point_by_point(config):
    """The ``verify --points`` or ``slice`` report of a run that takes one
    point at a time through solve_phi (projectable_roots) and the library's
    scalar references, formatted as ``run`` formats it."""
    cli = bhm.cli
    if config["task"] == "verify":
        data = cli._parse_data(config)
        results = []
        for z in [cli._parse_point(p) for p in config["points"]]:
            roots = []
            for sol in solve_phi(data, z):
                entry = {"q": rr.b(sol.q), "implicit": None, "fd": None}
                if sol.gradient is not None:
                    laplacian, nullness = _implicit_abs(sol, z)
                    entry["implicit"] = {"laplacian": laplacian, "nullness": nullness}
                    entry["fd"] = bhm.verify.fd_residuals(
                        bhm.verify.tracked_branch(data, z, q0=sol.q), z).to_json()
                roots.append(entry)
            results.append({"point": rr.cvec(z), "roots": roots})
        report = {"task": "verify", "results": results}
    else:
        kind = SliceKind(config["slice"])
        data = slice_data(kind, holofn_from_json(config["g"]), holofn_from_json(config["h"]))
        rows = []
        for x in [tuple(float(v) for v in p) for p in config["points"]]:
            for idx, sol in enumerate(projectable_roots(kind, data, x)):
                value = project_codomain(kind, sol.q)
                row = {"x": [rr.f(v) for v in x], "branch": idx, "q": rr.b(sol.q),
                       "value": rr.c(value) if isinstance(value, complex) else
                                [rr.f(value.x), rr.f(value.y)],
                       "degenerate": sol.degenerate,
                       "class": (classify_point(sol.gradient).kind.value
                                 if sol.gradient is not None else None),
                       "harmonic_res": None, "null_res": None}
                if sol.gradient is not None and config.get("fd", True):
                    try:
                        hr, nr = bhm.slices.wave_residual(
                            kind, tracked_real_branch(kind, data, x, q0=sol.q), x)
                        row["harmonic_res"] = rr.f(hr)
                        row["null_res"] = rr.f(nr)
                    except BhmError as exc:
                        row["error"] = type(exc).__name__
                rows.append(row)
        report = {"task": "slice", "slice": kind.value, "results": rows}
    return rr.dumps(report)


def _leave_to_the_scalar_path(monkeypatch, z1):
    """Leave every point whose first coordinate is z1 to the scalar path,
    as a batch does where a point's derivative step overflows."""
    implicit_lanes = RootBatch._implicit_lanes

    def leave(batch, *results):
        implicit, scalar = implicit_lanes(batch, *results)
        return implicit, [s or u == z1 for s, u in zip(scalar, batch._z.u1.re.tolist())]

    monkeypatch.setattr(RootBatch, "_implicit_lanes", leave)


# G = q and H = -h q, h the step at |z| <= 1 (DEFAULT_STEP): at z = 0 the
# root q = 0 is kept and regular, and its stencil's first point z + h e1,
# where both components vanish, makes the root's check raise
# DegenerateAllComponentsError from the reference; at z = (h, 0, 0) the
# solve itself raises it.  z = (0, 1.5e308 i, -1.5e308 i) is left to the
# scalar path, whose solve raises RangeOverflowError (a congruence
# coefficient's modulus is past the double range)
_JUMP_DATA = {"G": {"f": _VAR}, "H": {"f": _times([-1e-3, 0])}}
_CHECK_ERROR = [0, 0, 0]
_SOLVE_ERROR = [0, [0, 1.5e308], [0, -1.5e308]]


@pytest.mark.parametrize("points, forced, left", [
    # no point raises
    ([[0.5, 0.3, 0.2], [0.7, 0.1, 0.9]], None, []),
    # the first point raises
    ([[1e-3, 0, 0], [0.5, 0.3, 0.2]], None, [0]),
    # a middle point raises, after a point forced onto the scalar path
    ([[1, 0.3, 0.2], [1e-3, 0, 0], [0.5, 0.3, 0.2]], 1, [0, 1]),
])
def test_a_batch_solves_its_points_up_to_the_first_error(points, forced, left, monkeypatch):
    # a RootBatch is finished when it is built: the points left to
    # solve_phi, how many are solved and the error of the next are those
    # of a point-by-point run, and every solved point reads its solutions
    if forced is not None:
        _leave_to_the_scalar_path(monkeypatch, forced)
    data = bhm.cli._parse_data({"data": _JUMP_DATA})
    zs = [bhm.cli._parse_point(p) for p in points]
    with np.errstate(all="ignore"):
        batch = RootBatch(data, zs)
        want = [_solution_outcome(lambda: solve_phi(data, z)) for z in zs]
    raised = [i for i, outcome in enumerate(want) if isinstance(outcome, tuple)]
    solved = raised[0] if raised else len(zs)
    assert batch.left == left
    assert batch.solved == solved
    assert (batch.error is None) == (not raised)
    assert [_batch_outcome(batch, i) for i in range(min(solved + 1, len(zs)))] == \
        want[:solved + 1]


@pytest.mark.parametrize("points, first, scalar", [
    # a check's error before a later root's row that overflows, and after
    ([_CHECK_ERROR, [1, 0.3, 0.2]], "DegenerateAllComponentsError", None),
    ([[1, 0.3, 0.2], _CHECK_ERROR], "RangeOverflowError", None),
    # a point left to the scalar path, whose rows raise, before and after
    ([[2, 0.3, 0.2], _CHECK_ERROR], "RangeOverflowError", 2),
    ([_CHECK_ERROR, [2, 0.3, 0.2]], "DegenerateAllComponentsError", 2),
    # a check on the scalar path before a later point's solve error
    ([_CHECK_ERROR, _SOLVE_ERROR], "DegenerateAllComponentsError", 0),
    ([[1, 0.3, 0.2], _SOLVE_ERROR], "RangeOverflowError", None),
])
def test_verify_errors_keep_a_point_by_point_order(points, first, scalar, monkeypatch):
    # with the Laplacian shifted (_shift_laplacian), a row at z1 = 1 or 2
    # overflows: a point-by-point run's abs raises OverflowError as the row
    # is built, and the CLI raises RangeOverflowError there, before the
    # root's check.  In one block, each error comes before the next one's,
    # as in a point-by-point run
    _shift_laplacian(monkeypatch)
    if scalar is not None:
        _leave_to_the_scalar_path(monkeypatch, scalar)
    config = {"task": "verify", "data": _JUMP_DATA, "points": points}
    with np.errstate(all="ignore"):
        want = _outcome(lambda: _stencil_point_by_point(config))
    assert want[0] == first
    assert _cli_output(config) == want
    if scalar is not None:  # the forced point really left the lanes
        with np.errstate(all="ignore"):
            batch = RootBatch(bhm.cli._parse_data(config),
                              [bhm.cli._parse_point(p) for p in points])
        assert [i in batch.left for i in range(len(points))] == [p[0] == scalar for p in points]


@pytest.mark.parametrize("points, first, scalar", [
    ([[0, 0, 0], [1e-3, 0, 0]], "ArithmeticError", None),
    ([[0, 0, 0], [1e-3, 0, 0]], "ArithmeticError", 0),
    ([[1e-3, 0, 0], [0, 0, 0]], "DegenerateAllComponentsError", None),
    ([[0.6, 0.7, 0.5], [0, 0, 0], [1e-3, 0, 0]], "ArithmeticError", 0.6),
])
def test_slice_errors_keep_a_point_by_point_order(points, first, scalar, monkeypatch):
    # slice rows take a check's BhmError as the row's "error"; any other
    # error of the reference is raised, in the root's turn.  Here the
    # reference raises ArithmeticError at the origin, whose root's check is
    # flagged, and the solve at (h, 0, 0) raises DegenerateAllComponentsError
    wave = bhm.slices.wave_residual

    def raising(kind, phi, x, h=None):
        if tuple(x) == (0, 0, 0):
            raise ArithmeticError("the reference raises")
        return wave(kind, phi, x, h)

    monkeypatch.setattr(bhm.slices, "wave_residual", raising)
    if scalar is not None:
        _leave_to_the_scalar_path(monkeypatch, scalar)
    config = {"task": "slice", "slice": "euclidean", "g": _JUMP_DATA["G"], "h": _JUMP_DATA["H"],
              "points": points}
    with np.errstate(all="ignore"):
        want = _outcome(lambda: _stencil_point_by_point(config))
    assert want[0] == first
    assert _cli_output(config) == want


def _stencil_csv(text):
    """A ``slice`` report's CSV, written from its JSON as ``run`` writes
    it."""
    return rr.csv_text("slice", json.loads(text))


def _forced_configs():
    """Clean ``solve``, ``verify --points`` and ``slice`` configs, each with
    the first coordinates (in C^3) of the points to force onto the scalar
    path: the first, middle and last point's.  The radial ``solve`` data
    has a multiple and a degenerate root, the partial data a partially
    degenerate one; a forced z1 also forces any other point with that z1."""
    rows = _solve_row_configs()
    solve = [rows["radial"], rows["partial"], rows["cubic-mixed-degrees"]]
    verify = [c for c in _STENCIL_SCENES if c["task"] == "verify"]
    slices = []
    for kind, g, h, points in [
            ("euclidean", *_RADIAL, [[0.6, 0.7, 0.5], [0.75, 1.2, 0.8], [0.9, 0.95, 0.65]]),
            ("minkowski_c", *_DISC, [[0.6, 0.7, 0.5], [0.75, 1.2, 0.8], [0.9, 0.95, 0.65]]),
            ("minkowski_d", {"f": _VAR}, {"f1": _times([-1, 0]), "f2": _VAR},
             [[0.3, -0.1, 0.1], [0.4, 0.0, 0.2], [0.5, 0.1, 0.3]])]:
        slices.append({"task": "slice", "slice": kind, "g": g, "h": h, "points": points})
    configs = []
    for config in solve + verify + slices:
        if config["task"] == "slice":
            zs = [embed_domain(SliceKind(config["slice"]), x) for x in config["points"]]
        else:
            zs = [bhm.cli._parse_point(p) for p in config["points"]]
        forced = [zs[0].u1.real, zs[len(zs) // 2].u1.real, zs[-1].u1.real]
        for fmt in ("json", "csv") if config["task"] != "verify" else ("json",):
            configs.append((dict(config, format=fmt), forced))
    return configs


@pytest.mark.parametrize("config, forced", _forced_configs())
def test_points_forced_onto_the_scalar_path_match_a_point_by_point_run(config, forced,
                                                                       monkeypatch):
    # a point whose solutions come from solve_phi gives the rows of a
    # point-by-point run, byte for byte, wherever it sits in its block and
    # whatever the block size
    if config["task"] == "solve":
        want = _point_by_point(config)
    else:
        want = _stencil_point_by_point(config)
        if config["format"] == "csv":
            want = _stencil_csv(want)
    assert isinstance(want, str)
    for z1 in forced:
        with monkeypatch.context() as m:
            _leave_to_the_scalar_path(m, z1)
            for size in (None, 1, 2, 7):
                if size is not None:
                    m.setattr(bhm.weierstrass, "BLOCK_LANES", rr.block_lanes(size, config))
                assert _cli_output(config) == want, (z1, size)
            # the forced points really leave the lanes
            if config["task"] == "slice":
                kind = SliceKind(config["slice"])
                points = _embedded(kind, np.array(config["points"], dtype=float))
                data = slice_data(kind, holofn_from_json(config["g"]),
                                  holofn_from_json(config["h"]))
            else:
                points = [bhm.cli._parse_point(p) for p in config["points"]]
                data = bhm.cli._parse_data(config)
            with np.errstate(all="ignore"):
                batch = RootBatch(data, points)
            left = [i in batch.left for i in range(len(config["points"]))]
            assert any(left) and left == [u == z1 for u in batch._z.u1.re.tolist()]


def _array_bits(x):
    """Every array in x (arrays, lists, CArray or BArray lanes, tuples of
    them, functions that build them) as (dtype, shape, bytes), in order."""
    if callable(x):
        return _array_bits(x())
    if isinstance(x, BArray):
        return _array_bits((x.z1, x.z2))
    if isinstance(x, CArray):
        return _array_bits((x.re, x.im))
    if isinstance(x, tuple):
        return [bits for part in x for bits in _array_bits(part)]
    a = np.asarray(x)
    return [(a.dtype.str, a.shape, a.tobytes())]


def _padded_bits(roots):
    """``RootBatch.padded_roots``' roots: each row's first counts[i]
    entries, as bits, the width and the padding aside."""
    z1, z2, counts = roots
    return [_array_bits((r1[:c], r2[:c])) for r1, r2, c in zip(z1, z2, counts.tolist())]


class _SpiedBatch(RootBatch):
    """A block's RootBatch, which keeps its points and stencil points and
    the stencil roots it hands over."""

    def __init__(self, made, data, points, stencil=None):
        super().__init__(data, points, stencil=stencil)
        self.args = data, points, stencil
        self.handed = []
        made.append(self)

    def stencil_roots(self):
        self.handed.append(super().stencil_roots())
        return self.handed[-1]


# a verify --points block with an anchor whose scale raises (z1 = 1e155),
# one left to solve_phi (z1 = 1.0), and one where the e-side's leading
# coefficient i z3 - z2 vanishes, so that the anchor has fewer roots than
# its stencil points; a minkowski_d slice block, G = q and H = 0, whose
# points at x = (1.2, 0.4, x3) have no root in the slice, with those at
# x3 = 0.5 left to solve_phi
_FUSED_CASES = [
    ({"task": "verify", "data": _RADIAL_DATA,
      "points": [[0.3, 1.1, -0.2], [1e155, 0.5, 0.2], [1.0, -0.5, [0.2, 0.4]],
                 [0.7, 0.1, 0.9], [0.5, [0.2, 0.1], 0.1], [0.3, [0, 0.5], 0.5]]}, 1.0),
    ({"task": "slice", "slice": "minkowski_d", "g": {"f": _VAR},
      "h": {"f": {"op": "const", "value": [0, 0]}},
      "points": [[a, b, c] for a in (0.3, 1.2) for b in (0.4, 1.5) for c in (0.5, -0.7)]},
     0.5),
]


@pytest.mark.parametrize("size", [None, 1, 2, 7])
@pytest.mark.parametrize("config, z1", _FUSED_CASES, ids=["verify", "slice"])
def test_one_root_pass_reads_as_separate_batches(config, z1, size, monkeypatch):
    # a block's anchors and stencil points share one root pass: what the
    # loop reads of the anchors (implicit, report, padded roots, lanes)
    # equals a RootBatch of the anchors alone, and the stencil roots it
    # hands over once equal a RootBatch of the stencil points alone, bit
    # for bit; the output stays a point-by-point run's
    with np.errstate(all="ignore"):
        want = _outcome(lambda: _stencil_point_by_point(config))
    made = []
    _leave_to_the_scalar_path(monkeypatch, z1)
    if size is not None:
        monkeypatch.setattr(bhm.weierstrass, "BLOCK_LANES", rr.block_lanes(size, config))
    monkeypatch.setattr(bhm.verify, "RootBatch", lambda *args, **kw: _SpiedBatch(made, *args, **kw))
    assert _cli_output(config) == want
    # every block, with no check called: the verify run stops at the
    # anchor whose scale raises
    made.clear()
    if config["task"] == "verify":
        items = list(bhm.verify._point_roots(bhm.cli._parse_data(config),
                                             [bhm.cli._parse_point(p) for p in config["points"]]))
    else:
        kind = SliceKind(config["slice"])
        data = slice_data(kind, holofn_from_json(config["g"]), holofn_from_json(config["h"]))
        items = list(bhm.slices._slice_roots(kind, data, config["points"]))
    assert len(made) == len(bhm.weierstrass._blocks(config["points"], (2, 2)))
    assert {bool(pairs) for _, block in items for _, pairs in block} == (
        {True} if config["task"] == "verify" else {True, False})
    merged = 0
    for batch in made:
        data, points, stencil = batch.args
        with np.errstate(all="ignore"):
            alone = RootBatch(data, points)
            n = len(alone.padded_roots()[2])
            assert batch.left == alone.left
            assert batch.solved == alone.solved == n and batch.error is alone.error is None
            assert len(batch.handed) == 1 and batch.stencil_roots() is None
            assert _padded_bits(batch.handed[0]) == _padded_bits(
                RootBatch(data, stencil).padded_roots())
            for read in ("implicit", "report"):
                assert _array_bits(getattr(batch, read)) == _array_bits(getattr(alone, read))
            assert _padded_bits(batch.padded_roots()) == _padded_bits(alone.padded_roots())
            assert [batch.lanes(i) for i in range(n)] == [alone.lanes(i) for i in range(n)]
        merged += sum(u == z1 for u in batch._z.u1.re.tolist())
    assert merged


def test_the_cli_builds_no_row_from_a_solution(monkeypatch):
    # every solve, verify --points and slice row is read from root lanes:
    # with points forced onto the scalar path, rows whose Laplacian is not
    # finite, and rows that overflow (_shift_laplacian) and raise, no
    # RootBatch.solution is built
    calls = _counted(monkeypatch, RootBatch, ["solution"])
    outputs = Counter()
    for config, forced in _forced_configs():
        for z1 in forced:
            with monkeypatch.context() as m:
                _leave_to_the_scalar_path(m, z1)
                outputs[type(_cli_output(config))] += 1
    for config in _solve_row_configs().values():
        outputs[type(_cli_output(config))] += 1
    for task in ("solve", "verify"):
        outputs[type(_cli_output({"task": task, "data": _LAPLACIAN_OVERFLOW,
                                  "points": [[0.5, 0.2, 0.1], [0.02, 0, 0]]}))] += 1
        with monkeypatch.context() as m:
            _shift_laplacian(m)
            outputs[type(_cli_output({"task": task, "data": _JUMP_DATA,
                                      "points": [[0.5, 0.3, 0.2], [1, 0.3, 0.2]]}))] += 1
    assert outputs[str] >= 40 and outputs[tuple] == 5, outputs
    assert calls == Counter()


def test_slice_rows_of_points_on_the_scalar_path_are_their_solutions_rows():
    # where the lanes leave a point to solve_phi and it returns, the slice
    # row fields read from the merged root lanes (cli._slice_lanes) are the
    # ones its solutions give through project_codomain and classify_point:
    # slice rows need no fallback onto the solutions.  A block whose values
    # repeat holds their text, so both sides are compared as the text each
    # value is written as: float.__repr__'s
    values = [0.5, -1.3, 1e154, -3e154, 1e200, 1.7e308, 5e-324]
    xs = [x for x in itertools.product(values, repeat=3)]
    cli = bhm.cli
    merged = 0
    for kind in SliceKind:
        for g, h in [_RADIAL, _DISC, ({"f": {"op": "mul", "args": [_VAR, _VAR]}}, {"f": _VAR})]:
            data = slice_data(kind, holofn_from_json(g), holofn_from_json(h))
            with np.errstate(all="ignore"):
                solved = [(x, _outcome(lambda: solve_phi(data, embed_domain(kind, x))))
                          for x in xs]
                solved = [(x, sols) for x, sols in solved if isinstance(sols, list)]
                batch = RootBatch(data, _embedded(kind, np.array([x for x, _ in solved])))
                assert (batch.solved, batch.error) == (len(solved), None)
                rows, flags = cli._slice_lanes(kind, batch)
            merged += len(batch.left)
            for i, (x, sols) in enumerate(solved):
                want = []
                for sol in in_slice(kind, sols):
                    v = project_codomain(kind, sol.q)
                    value = rr.c(v) if isinstance(v, complex) else [rr.f(v.x), rr.f(v.y)]
                    want.append((list(map(float.__repr__, rr.b(sol.q))),
                                 list(map(float.__repr__, value)),
                                 sol.degenerate,
                                 (classify_point(sol.gradient).kind.value
                                  if sol.gradient is not None else None)))
                lanes = batch.lanes(i)
                z1 = batch.implicit.q.z1.complex()[lanes.start:lanes.stop]
                z2 = batch.implicit.q.z2.complex()[lanes.start:lanes.stop]
                kept = [k for k, keep in zip(lanes, _in_slice(kind, z1, z2, 1e-8)) if keep]
                got = [(list(map(str, rows[k][:4])), list(map(str, rows[k][4:6])),
                        flags[k][1], flags[k][0]) for k in kept]
                assert repr(got) == repr(want), (kind, g, h, x)
    assert merged > 1000


# ---------------------------------------------------------------------------
# bulk values as arrays: the list parsers and the chart transitions

# JSON numbers of every kind: ints past 2**53 and near the double range,
# signed zeros, subnormals, and values from 1e155 to 1.7e308
_json_number = st.one_of(
    st.integers(-2 ** 70, 2 ** 70),
    st.sampled_from([2 ** 53 + 1, -(2 ** 63) - 1, 10 ** 308, -(10 ** 300)]),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585e-313, 1e155, -1e155,
                     1e300, 1.7e308, -1.7e308]),
    st.floats(-4, 4),
    st.floats(allow_nan=False, allow_infinity=False),
)
# what else JSON can put where a number is due
_json_other = st.one_of(st.booleans(), st.none(), st.just("1"),
                        st.lists(_json_number, max_size=2), st.just({"x": 1}))


def _numbers(n):
    return st.lists(_json_number, min_size=n, max_size=n)


def _spoiled(row):
    """The list ``row`` with one entry replaced by a non-number, one too few
    or too many entries, or something else in its place."""
    return st.one_of(
        st.builds(lambda k, x: row[:k] + [x] + row[k + 1:],
                  st.integers(0, len(row) - 1), _json_other),
        st.just(row[:-1]), st.just(row + [0.5]), _json_other, _json_number)


@st.composite
def _json_rows(draw, row):
    """Lists of valid rows, some of them (often none) spoiled."""
    rows = draw(st.lists(row, min_size=1, max_size=6))
    for k in draw(st.sets(st.integers(0, len(rows) - 1), max_size=2)):
        rows[k] = draw(_spoiled(rows[k]))
    return rows


@st.composite
def _json_sample(draw):
    """A valid sample, or one with its q or z spoiled, a point component
    given as a bare number, a key missing, or no object at all."""
    sample = {"q": draw(_numbers(4)), "z": draw(st.lists(_numbers(2), min_size=3,
                                                         max_size=3))}
    how = draw(st.sampled_from(["valid", "valid", "q", "z", "component", "bare", "key",
                                "other"]))
    if how in ("q", "z"):
        sample[how] = draw(_spoiled(sample[how]))
    elif how in ("component", "bare"):
        k = draw(st.integers(0, 2))
        sample["z"][k] = draw(_spoiled(sample["z"][k]) if how == "component"
                              else _json_number)
    elif how == "key":
        del sample[draw(st.sampled_from(["q", "z"]))]
    elif how == "other":
        return draw(_json_other)
    return sample


def _error(exc):
    return None if exc is None else (type(exc).__name__, str(exc))


class TestArrayParsing:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(values=_json_rows(_numbers(4)))
    def test_bicomplex_rows_match_the_item_parser(self, values):
        parsed, want = _until_error(bhm.cli._parse_bicomplex, values)
        # the array parser takes exactly the lists the item parser takes
        rows = bhm.cli._number_rows(values, 4)
        assert (rows is None) == (want is not None)
        rows, error = bhm.cli._bicomplex_rows(values)
        assert repr(rows.tolist()) == repr([q.to_reals() for q in parsed])
        assert _error(error) == _error(want)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(samples=st.lists(_json_sample(), min_size=1, max_size=6))
    def test_sample_arrays_match_the_item_parser(self, samples):
        parsed, want = _until_error(bhm.cli._parse_sample, samples)
        q, z, error = bhm.cli._sample_arrays(samples)
        assert repr(q.tolist()) == repr([p.to_reals() for p, _ in parsed])
        assert repr(z.tolist()) == repr([list(p) for _, p in parsed])
        assert _error(error) == _error(want)
        if all(isinstance(s, dict) for s in samples):
            # a point's [re, im] components are read as arrays exactly
            # where the item parser takes them all
            zs = [s.get("z") for s in samples]
            pairs = bhm.cli._number_rows(zs, 3, 2)
            taken = _outcome(lambda: [bhm.cli._parse_point(p) for p in zs])
            all_pairs = all(isinstance(p, list) and all(isinstance(c, list) for c in p)
                            for p in zs)
            assert (pairs is not None) == (not isinstance(taken, tuple) and all_pairs)


def _charts_point_by_point(src, dst, values):
    """The ``charts`` transition results of a run that parses and maps one
    value at a time, up to the first error."""
    results = []
    for v in values:
        q = bhm.cli._parse_bicomplex(v)
        try:
            result = transition(src, dst, q)
        except OverflowError:  # named by the CLI
            raise RangeOverflowError(f"'transition' overflows from chart {src.value} to chart "
                                     f"{dst.value} at the value {q!r}") from None
        # in the report's sorted-key order
        results.append({"result": rr.b(result), "value": rr.b(q)})
    return results


def _charts_config(src, dst, values):
    return {"task": "charts", "charts": {"op": "transition", "from": src.value,
                                         "to": dst.value, "values": values}}


# idempotent parts at the poles of every transition (e or f at 0, -1, 1,
# -i and i), next to them, and past the range of a square
_pole_parts = st.one_of(
    st.sampled_from([0j, complex(-0.0, 0.0), 1 + 0j, -1 + 0j, 1j, -1j, 1e-13 + 0j,
                     complex(-1, 1e-13), 1e155 + 0j, 1e300j, 5e-324 + 0j]),
    st.builds(complex, st.floats(-3, 3), st.floats(-3, 3)),
)
_chart_value = st.one_of(
    st.builds(lambda e, f: Bicomplex.from_ringleb(e, f).to_reals(), _pole_parts, _pole_parts),
    _numbers(4),
)


class TestLaneCharts:
    @pytest.mark.parametrize("src, dst", [(a, b) for a in Chart for b in Chart],
                             ids=lambda c: c.value)
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(values=_json_rows(_chart_value))
    def test_lane_transitions_match_transition(self, src, dst, values):
        # outside the CLI's np.errstate: the lane pass holds its own
        want = _outcome(lambda: _charts_point_by_point(src, dst, values))
        config = _charts_config(src, dst, values)
        with mock.patch.object(bhm.weierstrass, "BLOCK_LANES", rr.block_lanes(2, config)):
            got = _outcome(lambda: rr.results("charts", config))
        assert repr(got) == repr(want)

    @pytest.mark.parametrize("values, error", [
        ([[1, 0, 0, 0], [-1, 0, 0, 0], [1, 2, 3]], "OutOfDomainError"),
        ([[1, 0, 0, 0], [1, 2, 3], [-1, 0, 0, 0]], "ExprSchemaError"),
        ([[0.5, 0, 0, 0], [0, 0, 0, 0], [-1, 0, 0, 0], [True, 0, 0, 0]], "OutOfDomainError"),
    ], ids=["pole-then-malformed", "malformed-then-pole", "pole-in-a-later-block"])
    def test_charts_raise_in_a_point_by_point_order(self, values, error, monkeypatch):
        # G -> L has its pole at q = -1
        want = _outcome(lambda: _charts_point_by_point(Chart.G, Chart.L, values))
        assert want[0] == error
        config = _charts_config(Chart.G, Chart.L, values)
        for size in (1, 2, 256):
            monkeypatch.setattr(bhm.weierstrass, "BLOCK_LANES", rr.block_lanes(size, config))
            assert _cli_output(config) == want


def test_bulk_value_tasks_never_call_the_per_item_path(monkeypatch):
    # valid lists: the fibres-roundtrip benchmark's fibres, verify --samples
    # and charts configs parse their lists as arrays and map them on lanes
    called = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            called[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(HoloFn, "__call__", counting("HoloFn.__call__", HoloFn.__call__))
    for name in ("transition", "_parse_bicomplex", "_parse_sample"):
        monkeypatch.setattr(bhm.cli, name, counting(name, getattr(bhm.cli, name)))
    for config in _fibre_configs()[:6]:
        report = json.loads(_cli_output(dict(config, format="json")))
        if config["task"] == "fibres":
            samples = [{"q": row["q"], "z": z} for row in report["results"]
                       for z in row["samples"]]
            verify = json.loads(_cli_output({"task": "verify", "data": config["data"],
                                             "samples": samples}))
            assert len(verify["results"]) == len(samples) > 0
    rng = random.Random(16)
    values = [[rng.uniform(-0.4, 0.4) for _ in range(4)] for _ in range(300)]
    for chart in (Chart.GCHECK, Chart.L, Chart.K):
        report = json.loads(_cli_output(_charts_config(Chart.G, chart, values)))
        back = [row["result"] for row in report["results"]]
        assert len(json.loads(_cli_output(_charts_config(chart, Chart.G, back)))["results"]) \
            == len(values)
    assert called == Counter()


def _row_kinds():
    cli = bhm.cli
    return {id(cli._ROOT): "solve", id(cli._fibre_row(2, with_q=True)): "fibres",
            id(cli._fibre_row(1, with_q=True)): "fibres", id(cli._SAMPLE): "samples",
            id(cli._CHECKED_ROOT): "verify", id(cli._SLICE): "slice",
            id(cli._chart_row((4,), (4,))): "charts"}


def _record_variants(monkeypatch):
    """The (row kind, variant) pairs the report's rows fill, as they are
    written."""
    seen = set()
    kinds = _row_kinds()
    for name in ("text", "csv_line"):
        def record(row, values, variant, write=getattr(bhm.cli._Row, name)):
            seen.add((kinds.get(id(row)), variant))
            return write(row, values, variant)
        monkeypatch.setattr(bhm.cli._Row, name, record)
    return seen


def _variant_configs():
    """Configs whose rows reach every template variant: each fibre tag in
    solve and fibres, roots with and without a gradient, oriented or not,
    degenerate and partially degenerate; verify --samples on and off
    their fibres; slice rows of every class, with residuals, an error or
    no check; charts values."""
    rows = _solve_row_configs()
    fibres = _fibre_configs()
    configs = [rows["radial"], rows["partial"], rows["cubic"], rows["underflow"]]
    configs += [dict(rows["radial"], format="csv"), dict(rows["partial"], format="csv")]
    lines, planes, empty = (c["data"] for c in fibres[0:9:3])
    for data in (lines, planes, empty):
        configs.append({"task": "solve", "data": data,
                        "points": [[0.3, 1.1, -0.2], [[0.5, 0.1], 0.2, -0.7]]})
    configs += fibres
    # samples on their fibres, as the fibres task exports them
    exported = json.loads(_point_by_point(fibres[0]))["results"]
    configs.append({"task": "verify", "data": lines,
                    "samples": [{"q": r["q"], "z": z} for r in exported for z in r["samples"]]})
    configs += [c for c in _STENCIL_SCENES if c["task"] == "verify"]
    configs.append(dict(rows["radial"], task="verify"))  # roots with no gradient
    for kind, (g, h) in [("euclidean", _RADIAL), ("minkowski_c", _DISC)]:
        for fd, fmt in [(True, "json"), (True, "csv"), (False, "json")]:
            configs.append({"task": "slice", "slice": kind, "g": g, "h": h, "fd": fd,
                            "format": fmt,
                            "points": [[0.6, 0.7, 0.5], [0.75, 1.2, 0.8], [0.9, 0.95, 0.65]]})
    configs.append({"task": "slice", "slice": "minkowski_d", "g": _RADIAL[0], "h": _RADIAL[1],
                    "points": [[0, 1, 0], [0, 0, 1]]})  # degenerate and regular rows
    # the origin's check is flagged, and its reference raises (see below)
    for fmt in ("json", "csv"):
        configs.append({"task": "slice", "slice": "euclidean", "g": _JUMP_DATA["G"],
                        "h": _JUMP_DATA["H"], "format": fmt, "points": [[0, 0, 0], [0.6, 0.7, 0.5]]})
    configs.append(_charts_config(Chart.G, Chart.L, [[0.5, 0.2, -0.1, 0.3], [1.5, 0, 0.2, 0]]))
    return configs


def _reference_output(config):
    if config["task"] == "charts":
        section = config["charts"]
        src, dst = Chart(section["from"]), Chart(section["to"])
        return rr.dumps({"task": "charts", "results": _charts_point_by_point(
            src, dst, section["values"])})
    if config["task"] in ("solve", "fibres") or "samples" in config:
        return _point_by_point(config)
    want = _stencil_point_by_point(config)
    return _stencil_csv(want) if config.get("format") == "csv" else want


@pytest.mark.parametrize("size", [None, 1, 2])
def test_every_row_variant_matches_a_point_by_point_run(size, monkeypatch):
    # each row kind's template, in every variant the configs reach, gives
    # a point-by-point run's bytes (or its error), with every other fibre
    # lane and every other sample lane left to the scalar path, and a
    # slice check's BhmError at the origin written as the row's "error"
    lane_fibres, check_lanes = bhm.weierstrass._lane_fibres, FibreBatch._check_lanes

    def every_other_fibre(g, h, flagged):
        fibres = lane_fibres(g, h, flagged)
        fibres.tag[1::2] = -1
        return fibres

    def every_other_check(batch, z, tol):
        residual, on_fibre, ok = check_lanes(batch, z, tol)
        return residual, on_fibre, ok & (np.arange(len(ok)) % 2 == 1)

    monkeypatch.setattr(bhm.weierstrass, "_lane_fibres", every_other_fibre)
    monkeypatch.setattr(FibreBatch, "_check_lanes", every_other_check)
    wave = bhm.slices.wave_residual

    def jumping(kind, phi, x, h=None):
        if tuple(x) == (0, 0, 0):
            raise BranchJumpError("the reference jumps at the origin")
        return wave(kind, phi, x, h)

    monkeypatch.setattr(bhm.slices, "wave_residual", jumping)
    seen = _record_variants(monkeypatch)
    for config in _variant_configs():
        if size is not None:
            monkeypatch.setattr(bhm.weierstrass, "BLOCK_LANES", rr.block_lanes(size, config))
        with np.errstate(all="ignore"):
            want = _outcome(lambda: _reference_output(config))
        assert _cli_output(config) == want, config
    solve = {v for kind, v in seen if kind == "solve"}
    # line and plane fibres (a root's fibre holds its point, so an empty one
    # is left to the template test)
    assert {v[4] for v in solve} >= {0, 1}
    assert {v[2] for v in solve} == {True, False}  # with and without a gradient
    assert {v[3] for v in solve if v[2]} == {True, False}  # oriented or not
    assert any(v[0] for v in solve) and any(v[1] for v in solve)
    assert {v[0] for kind, v in seen if kind == "fibres"} == {0, 1, 2}
    samples = {v for kind, v in seen if kind == "samples"}
    assert {v[0] for v in samples} == {0, 1, 2} and {v[1] for v in samples} == {True, False}
    assert {v[0] for kind, v in seen if kind == "verify"} == {True, False}
    slices = {v for kind, v in seen if kind == "slice"}
    assert {v[2] for v in slices} == {None, True, "BranchJumpError"}
    assert {v[0] for v in slices} >= {"regular", "degenerate"}
    assert ("charts", ()) in seen
