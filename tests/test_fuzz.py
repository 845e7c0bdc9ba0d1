"""Grammar fuzzer for the CLI's input contract.

Every configuration, well formed or not, ends in one of two ways: exit 0
with strict JSON (or CSV) holding no non-finite value on stdout, or exit 2
or 3 with stdout empty and exactly one JSON line on stderr.  Hypothesis
draws configurations for every task over the config and expression
grammar: numbers of every kind (signed zeros, subnormals, 1e300 and
1e155, whose square overflows) and the caps at and one past their limits;
in a quarter of the draws one node, anywhere in the config, is then
replaced by a boolean, a wrong shape or a missing value.  Data with a
constant G of CN(G) = -1 take ``fibres`` and ``verify --samples`` to the
degenerate-plane and empty fibres, which random trees almost never reach.
The caps are patched small so that a run at a limit stays fast.
"""

import contextlib
import csv
import io
import json
import math
import sys
from unittest import mock

from hypothesis import given, settings, strategies as st

from bhm import cli, errors, holo

# caps patched small: each is drawn at and past its limit
CAP_POINTS = 12
CAP_ROOTS = 40
CAP_DEGREE = 6

_number = st.one_of(
    st.sampled_from([0, 1, -1, 2, 0.0, -0.0, 0.5, -2.5, 5e-324, -2.2e-308, 1e-300,
                     1e155, -1e155, 1e300, -1e300, 1.7e308, 1e-12, 1e-11]),
    st.floats(-3, 3),
    st.floats(-3, 3),
    st.integers(-4, 4),
)
_complex = st.one_of(_number, st.lists(_number, min_size=2, max_size=2))
_const = st.builds(lambda v: {"op": "const", "value": v}, _complex)
_var = st.just({"op": "var"})


def _exprs():
    def extend(e):
        return st.one_of(
            st.builds(lambda op, args: {"op": op, "args": args},
                      st.sampled_from(["add", "sub", "mul"]), st.lists(e, min_size=2, max_size=3)),
            st.builds(lambda a, c: {"op": "div", "args": [a, c]}, e, _const),
            st.builds(lambda a, b: {"op": "div", "args": [a, b]}, e, e),
            # the degree cap: at and one past it
            st.builds(lambda a, n: {"op": "pow", "args": [a], "exp": n}, e,
                      st.one_of(st.integers(-2, 3), st.sampled_from([CAP_DEGREE, CAP_DEGREE + 1,
                                                                     -CAP_DEGREE]))),
        )

    return st.recursive(st.one_of(_var, _var, _const), extend, max_leaves=5)


_expr = _exprs()
_holofn = st.one_of(st.builds(lambda f: {"f": f}, _expr),
                    st.builds(lambda f1, f2: {"f1": f1, "f2": f2}, _expr, _expr))
# polynomial data of degree <= 2 a side: roots to find, and the root cap
# within reach
_poly = st.builds(
    lambda c0, c1: {"op": "add", "args": [{"op": "const", "value": c0},
                                          {"op": "mul", "args": [{"op": "const", "value": c1},
                                                                 {"op": "var"}]}]},
    _complex, _complex)


def _pair(z):
    return {"op": "const", "value": [z.real, z.imag]}


def _cn_minus_one(a, multiple, mu, h):
    """Constant G = (a, -1/a), so CN(G) = -1 at every q: with H = mu G every
    fibre is a degenerate plane (through the origin for mu = 0), with
    H = mu + h(q) mostly the empty set."""
    g = {"f1": _pair(a), "f2": _pair(-1 / a)}
    if multiple:
        return {"G": g, "H": {"f1": _pair(mu * a), "f2": _pair(-mu / a)}}
    return {"G": g, "H": {"f": {"op": "add", "args": [_pair(mu), h]}}}


_unit = st.one_of(st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3,
                                     allow_nan=False, allow_infinity=False),
                  st.sampled_from([1j, 1e155, 1e-155 + 1j, 1e300]))
_cn_data = st.builds(_cn_minus_one, _unit, st.booleans(),
                     st.one_of(st.just(0j), _unit), _poly)
_data = st.one_of(
    st.fixed_dictionaries({"G": _holofn, "H": _holofn}),
    st.fixed_dictionaries({"G": st.builds(lambda f: {"f": f}, _poly),
                           "H": st.builds(lambda f: {"f": f}, _poly)}),
    _cn_data,
)
# fibres and verify --samples draw the CN(G) = -1 data first
_fibre_data = st.one_of(_cn_data, _data)
_point = st.lists(_complex, min_size=3, max_size=3)
_real_point = st.lists(_number, min_size=3, max_size=3)
_bicomplex = st.lists(_number, min_size=4, max_size=4)


def _points(point):
    # a few points, or as many as the root cap admits for quadratic sides
    # (CAP_ROOTS / 4) and one more
    return st.one_of(st.lists(point, min_size=1, max_size=3),
                     st.integers(CAP_ROOTS // 4, CAP_ROOTS // 4 + 1).flatmap(
                         lambda n: st.lists(point, min_size=n, max_size=n)))


# grid counts whose product is small, at CAP_POINTS or one past it
_counts = st.one_of(st.lists(st.integers(1, 2), min_size=3, max_size=3),
                    st.sampled_from([[3, 2, 2], [13, 1, 1], [2, 3, 2.0]]))
_grid = st.builds(lambda lo, d, n: {"min": lo, "max": [a + b for a, b in zip(lo, d)],
                                    "counts": n},
                  st.lists(st.floats(-2, 2), min_size=3, max_size=3),
                  st.lists(st.floats(0, 1), min_size=3, max_size=3), _counts)
_fmt = st.sampled_from(["json", "csv"])

_configs = st.one_of(
    st.fixed_dictionaries({"task": st.just("solve"), "data": _data, "points": _points(_point)},
                          optional={"format": _fmt}),
    st.fixed_dictionaries({"task": st.just("fibres"), "data": _fibre_data,
                           "params": st.lists(_bicomplex, min_size=1, max_size=6)},
                          optional={"samples": st.sampled_from(
                              [0, 1, 2, CAP_POINTS // 6, CAP_POINTS // 6 + 1]),
                              "format": _fmt}),
    st.fixed_dictionaries({"task": st.just("verify"), "data": _data, "points": _points(_point)}),
    st.fixed_dictionaries({"task": st.just("verify"), "data": _fibre_data,
                           "samples": st.lists(st.fixed_dictionaries(
                               {"q": _bicomplex, "z": _point}), min_size=1, max_size=3)}),
    st.builds(lambda kind, g, h, where, fd, fmt: {"task": "slice", "slice": kind, "g": g,
                                                  "h": h, **where, "fd": fd, "format": fmt},
              st.sampled_from(["euclidean", "minkowski_c", "minkowski_d"]),
              st.one_of(_holofn, st.builds(lambda f: {"f": f}, _poly)),
              st.one_of(_holofn, st.builds(lambda f: {"f": f}, _poly)),
              st.one_of(st.builds(lambda g: {"grid": g}, _grid),
                        st.builds(lambda p: {"points": p},
                                  st.lists(_real_point, min_size=1, max_size=3))),
              st.booleans(), _fmt),
    st.fixed_dictionaries({"task": st.just("charts"), "charts": st.one_of(
        st.fixed_dictionaries({"op": st.just("transition"),
                               "from": st.sampled_from(["G", "Gcheck", "L", "K"]),
                               "to": st.sampled_from(["G", "Gcheck", "L", "K"]),
                               "values": st.lists(_bicomplex, min_size=1, max_size=3)}),
        st.fixed_dictionaries({"op": st.just("to_point"),
                               "space": st.sampled_from(["S2C", "Q1B", "Q2C"]),
                               "chart": st.sampled_from(["G", "Gcheck", "L", "K"]),
                               "values": st.lists(_bicomplex, min_size=1, max_size=3)}),
        st.fixed_dictionaries({"op": st.just("from_point"),
                               "space": st.sampled_from(["S2C", "Q1B", "Q2C"]),
                               "chart": st.sampled_from(["G", "Gcheck", "L", "K"]),
                               "values": st.lists(st.lists(st.lists(
                                   _number, min_size=2, max_size=4), min_size=3, max_size=4),
                                   min_size=1, max_size=2)}))}),
)

# what a corrupted node becomes: the wrong type, a boolean for a number,
# a missing value, an extreme number
_junk = st.sampled_from([True, False, None, "1", [], {}, [1, 2, 3], 1e155, -0.0, 1e300,
                         {"op": "nope"}, {"op": "pow", "args": [{"op": "var"}], "exp": 2.5}])


@st.composite
def _corrupted(draw, config):
    """The config with one node, chosen by a walk from the root, replaced."""
    def walk(node, depth):
        children = (list(node.items()) if isinstance(node, dict)
                    else list(enumerate(node)) if isinstance(node, list) else [])
        if not children or (depth and draw(st.booleans())):
            return draw(_junk)
        key, child = children[draw(st.integers(0, len(children) - 1))]
        copy = dict(node) if isinstance(node, dict) else list(node)
        copy[key] = walk(child, depth + 1)
        return copy

    return walk(config, 0)


_inputs = st.one_of(_configs, _configs, _configs, _configs.flatmap(_corrupted))


def _main(text, argv):
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def _strict(token):
    raise ValueError(f"non-finite JSON constant {token}")


def _assert_contract(code, out, err, fmt):
    assert code in (0, 2, 3), (code, err)
    if code != 0:
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1, err
        report = json.loads(lines[0])
        assert set(report) == {"error"}
        error = report["error"]
        if code == 3:
            # a named domain error, or a non-finite value in the report: no
            # bare OverflowError or numpy error reaches the user
            assert isinstance(getattr(errors, error["type"], None), type) or (
                error["type"] == "ValueError"
                and error["message"].startswith("non-finite value")), error
        else:
            assert error["type"] in ("ExprSchemaError", "JSONDecodeError",
                                     "RecursionError"), error
        return
    assert err == ""
    if fmt == "csv":
        for row in csv.reader(io.StringIO(out)):
            for cell in row:
                try:
                    value = float(cell)
                except ValueError:
                    continue
                assert math.isfinite(value), row
    else:
        json.loads(out, parse_constant=_strict)


@settings(max_examples=300, deadline=5000, derandomize=True, database=None)
@given(config=_inputs, fmt=st.sampled_from([None, None, "csv"]),
       tol=st.sampled_from([None, "1e-8", "0", "1e-3"]), seed=st.integers(0, 3))
def test_every_input_exits_0_2_or_3(config, fmt, tol, seed):
    argv = ["--seed", str(seed)]
    if fmt:
        argv += ["--format", fmt]
    if tol:
        argv += ["--tol", tol]
    with mock.patch.object(cli, "MAX_POINTS", CAP_POINTS), \
            mock.patch.object(cli, "MAX_ROOTS", CAP_ROOTS), \
            mock.patch.object(holo, "MAX_DEGREE", CAP_DEGREE):
        code, out, err = _main(json.dumps(config), argv)
    effective = fmt or (config.get("format") if isinstance(config, dict) else None)
    _assert_contract(code, out, err, effective)


def test_malformed_texts_exit_2():
    # not a JSON document, or one nested past the parser's recursion limit
    for text in ["", "{", "[1, 2", '{"task": "solve"', "[" * 5000 + "]" * 5000, "NaN"]:
        code, out, err = _main(text, [])
        assert code == 2
        _assert_contract(code, out, err, None)
