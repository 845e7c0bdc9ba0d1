"""Differential runs of the CLI: two trees, the same configs, byte for byte.

    python tests/differential.py BASE [HEAD] [--count N] [--seed S]
                                 [--expect-diff FILE] [--write-diff FILE]

Each side is a git ref of this repository, exported with ``git archive``,
or a directory that holds ``src/bhm``; HEAD defaults to the tree this file
sits in.  Each tree runs every config through its own ``bhm.cli.main`` in
one child process per block size: the default ``BLOCK_LANES``, then 1 and
2 (``bhm.weierstrass.BLOCK_LANES`` set in the child).  errno is cleared
before each config: CPython's complex ``abs`` reads a stale one.  The runs
are compared on exit code, stdout and stderr; the first config that
differs is printed, with the counts.

The configs come from a seeded generator over every task and format
(``configs``), and the edge cases below (``EDGE_CASES``): signed zeros,
subnormals, 1e155, 1e300 and 1.7e308, ties, raising lanes and anchors,
sample checks and fibres that raise in either order,
a quotient by a constant whose square passes the double range,
roots dropped from a slice, anchors with no root in the slice, and
CN(G) = -1, where CN(xi) = 0.

``--expect-diff FILE`` names, one JSON config a line, the configs whose
output is meant to differ.  The run fails on any other difference, and on
a listed config it runs that reads the same at every block size: one file
can list the configs of runs on several seeds.  ``--write-diff FILE``
writes the configs that differ in that form.  Exit 0 when the run passes,
1 when it fails.  The harness uses only the standard library and
git; pytest does not collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
BLOCK_SIZES = ("default", "1", "2")

# the child: configs as JSON lines on stdin, one [exit code, sha256 of
# stdout, stderr] per config on stdout
_CHILD = r"""
import hashlib, io, json, math, sys
import bhm.cli, bhm.weierstrass
if sys.argv[1] != "default":
    bhm.weierstrass.BLOCK_LANES = int(sys.argv[1])
streams = sys.stdin, sys.stdout, sys.stderr
results = []
for line in sys.stdin.read().splitlines():
    math.exp(0.0)  # CPython's math functions clear errno
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(line), io.StringIO(), io.StringIO()
    try:
        code = bhm.cli.main([])
    except Exception as exc:
        code = "uncaught %s: %s" % (type(exc).__name__, exc)
    out, err = sys.stdout.getvalue(), sys.stderr.getvalue()
    sys.stdin, sys.stdout, sys.stderr = streams
    results.append([code, hashlib.sha256(out.encode()).hexdigest(), err])
json.dump(results, sys.stdout)
"""


# the double range's edges, one number in ten
_EDGES = [-0.0, 5e-324, -5e-324, 2.2250738585e-313, 1e155, -1e155, 1e300, -1e300, 1.7e308]


def _number(rng):
    """A JSON number: an ordinary value, or now and then an edge."""
    if rng.random() < 0.1:
        return rng.choice(_EDGES)
    return rng.choice([0.0, 1, -1, 2, 0.5, -2.5, 1e-12, round(rng.uniform(-2, 2), 3),
                       rng.uniform(-2, 2), rng.randint(-3, 3)])


def _complex(rng):
    return [_number(rng), _number(rng)] if rng.random() < 0.8 else _number(rng)


def _const(value):
    return {"op": "const", "value": value}


_VAR = {"op": "var"}


def _poly(rng, degree):
    """c0 + c1 q + ... + cd q^d as an expression tree."""
    if degree == 0:
        return _const(_complex(rng))
    terms = [_const(_complex(rng))]
    for k in range(1, degree + 1):
        power = _VAR if k == 1 else {"op": "pow", "args": [_VAR], "exp": k}
        terms.append({"op": "mul", "args": [_const(_complex(rng)), power]})
    return {"op": "add", "args": terms}


def _expr(rng, depth=0):
    """A random expression tree: sums, products, quotients and powers."""
    if depth >= 2 or rng.random() < 0.4:
        return _VAR if rng.random() < 0.5 else _const(_complex(rng))
    op = rng.choice(["add", "sub", "mul", "div", "pow"])
    if op == "pow":
        return {"op": "pow", "args": [_expr(rng, depth + 1)], "exp": rng.randint(-2, 3)}
    return {"op": op, "args": [_expr(rng, depth + 1), _expr(rng, depth + 1)]}


def _holofn(rng):
    """One side of the data: a polynomial or a tree, per side or for both."""
    def side():
        return _poly(rng, rng.randint(0, 2)) if rng.random() < 0.6 else _expr(rng)
    return {"f": side()} if rng.random() < 0.5 else {"f1": side(), "f2": side()}


def _cn_minus_one(rng):
    """Constant G = (a, -1/a), so CN(G) = -1: degenerate-plane fibres with
    H a multiple of G, mostly empty ones otherwise."""
    a = complex(rng.uniform(0.2, 2), rng.uniform(-2, 2))
    g = {"f1": _const([a.real, a.imag]), "f2": _const([(-1 / a).real, (-1 / a).imag])}
    if rng.random() < 0.5:
        mu = rng.choice([0.0, 1.5, -0.5])
        return {"G": g, "H": {"f1": _const([(mu * a).real, (mu * a).imag]),
                              "f2": _const([(-mu / a).real, (-mu / a).imag])}}
    return {"G": g, "H": {"f": _poly(rng, 1)}}


def _data(rng):
    r = rng.random()
    if r < 0.15:
        return _cn_minus_one(rng)
    if r < 0.6:
        return {"G": {"f": _poly(rng, 1)}, "H": {"f": _poly(rng, rng.randint(0, 2))}}
    return {"G": _holofn(rng), "H": _holofn(rng)}


def _point(rng):
    return [_complex(rng) for _ in range(3)]


def _bicomplex(rng):
    return [_number(rng) for _ in range(4)]


def _some(rng, make, most=4):
    return [make(rng) for _ in range(rng.randint(1, most))]


def _config(rng):
    """One seeded config of a task drawn in turn, in either format."""
    task = rng.choice(["solve", "fibres", "verify", "verify-samples", "slice", "charts"])
    fmt = rng.choice(["json", "json", "csv"])
    if task == "solve":
        return {"task": "solve", "data": _data(rng), "points": _some(rng, _point, 6),
                "format": fmt}
    if task == "fibres":
        return {"task": "fibres", "data": _data(rng), "params": _some(rng, _bicomplex, 6),
                "samples": rng.randint(0, 3), "format": fmt}
    if task == "verify":
        return {"task": "verify", "data": _data(rng), "points": _some(rng, _point),
                "format": fmt}
    if task == "verify-samples":
        return {"task": "verify", "data": _data(rng), "format": fmt, "samples": _some(
            rng, lambda r: {"q": _bicomplex(r), "z": _point(r)})}
    if task == "slice":
        config = {"task": "slice", "slice": rng.choice(["euclidean", "minkowski_c",
                                                        "minkowski_d"]),
                  "g": _holofn(rng), "h": _holofn(rng), "fd": rng.random() < 0.7,
                  "format": fmt}
        if rng.random() < 0.5:
            lo = [round(rng.uniform(-1.5, 1.5), 2) for _ in range(3)]
            config["grid"] = {"min": lo, "max": [v + rng.choice([0.0, 0.5, 1.0]) for v in lo],
                              "counts": [rng.randint(1, 3) for _ in range(3)]}
        else:
            config["points"] = _some(rng, lambda r: [_number(r) for _ in range(3)])
        return config
    charts = ["G", "Gcheck", "L", "K"]
    op = rng.choice(["transition", "to_point", "from_point"])
    if op == "transition":
        section = {"op": op, "from": rng.choice(charts), "to": rng.choice(charts),
                   "values": _some(rng, _bicomplex)}
    elif op == "to_point":
        section = {"op": op, "space": rng.choice(["S2C", "Q1B", "Q2C"]),
                   "chart": rng.choice(charts), "values": _some(rng, _bicomplex)}
    else:
        space = rng.choice(["S2C", "Q1B", "Q2C"])
        n, k = {"S2C": (3, 2), "Q1B": (3, 4), "Q2C": (4, 2)}[space]
        section = {"op": op, "space": space, "chart": rng.choice(charts), "values": _some(
            rng, lambda r: [[_number(r) for _ in range(k)] for _ in range(n)], 2)}
    return {"task": "charts", "charts": section, "format": fmt}


_H = 1e-3  # the stencil step at |z| <= 1
_JUMP = {"G": {"f": _VAR}, "H": {"f": {"op": "mul", "args": [_const([-_H, 0]), _VAR]}}}
_RADIAL = {"G": {"f": _VAR}, "H": {"f": _const([0, 0])}}
_SQUARE = {"G": {"f": _VAR}, "H": {"f": {"op": "mul", "args": [_VAR, _VAR]}}}
_HUGE_DIVISOR = {"G": {"f": _VAR}, "H": {"f": {"op": "div", "args": [_VAR, _const([1e155, 0])]}}}
# G = q, H = c q: at x = (1, 0, 0) the anchor root is q = 0, and the four
# roots of a stencil point on a z2 line lie at distance exactly 1 from it
_TIE = {"G": {"f": _VAR},
        "H": {"f": {"op": "mul", "args": [_const([-(1.0 + 0.3 * _H), 0]), _VAR]}}}

EDGE_CASES = [
    # a non-finite report value (H past the double range), in both formats
    {"task": "fibres", "data": {"G": {"f": _VAR}, "H": {"f": _const([1e308, 0])}},
     "params": [[0.5, 0, 0, 0]], "samples": 2},
    {"task": "fibres", "data": {"G": {"f": _VAR}, "H": {"f": _const([1e308, 0])}},
     "params": [[0.5, 0, 0, 0]], "samples": 2, "format": "csv"},
    # signed zeros and subnormals, then the double range's edges
    {"task": "solve", "data": _RADIAL,
     "points": [[-0.0, [0.0, -0.0], 1], [5e-324, 2.2250738585e-313, 0.5]]},
    {"task": "solve", "data": _RADIAL,
     "points": [[1e155, 0.5, 0.2], [1e300, 1, 1], [1.7e308, 0, 0]]},
    # an anchor whose solve raises (both components vanish), between others
    {"task": "solve", "data": _JUMP, "points": [[0.5, 0.3, 0.2], [_H, 0, 0], [0.4, 0.3, 0.1]]},
    # a lane left to the scalar path, whose solve raises RangeOverflowError
    {"task": "verify", "data": _JUMP,
     "points": [[0.5, 0.3, 0.2], [0, [0, 1.5e308], [0, -1.5e308]]]},
    # a check that raises, then a solve that raises, in one block
    {"task": "verify", "data": _JUMP, "points": [[0, 0, 0], [_H, 0, 0]]},
    {"task": "verify", "data": _JUMP,
     "points": [[0, 0, 0], [0.5, 0.3, 0.2], [0, [0, 1.5e308], [0, -1.5e308]]]},
    # exact ties in the stencil picks
    {"task": "verify", "data": _TIE, "points": [[0.3, 0.5, 0.9], [1.0, 0, 0]]},
    {"task": "slice", "slice": "euclidean", "g": _TIE["G"], "h": _TIE["H"],
     "points": [[0.3, 0.5, 0.9], [1.0, 0, 0], [2.0, 1.0, 0]]},
    # roots dropped from the slice, and anchors with none in it
    {"task": "slice", "slice": "euclidean", "g": _RADIAL["G"], "h": _RADIAL["H"],
     "grid": {"min": [0.5, 0.5, 0.5], "max": [1, 1, 1], "counts": [2, 2, 2]}},
    {"task": "slice", "slice": "minkowski_d", "g": _RADIAL["G"], "h": _RADIAL["H"],
     "points": [[a, b, c] for a in (0.3, 1.2) for b in (0.4, 1.5) for c in (0.5, -0.7)],
     "format": "csv"},
    # a branch jump as a slice row's error
    {"task": "slice", "slice": "minkowski_d", "g": _JUMP["G"], "h": _JUMP["H"],
     "points": [[0.3, 0.2, 0.1], [0, 0, 0]]},
    # CN(G) = -1: degenerate planes, through the origin and off it
    {"task": "fibres", "data": {"G": {"f1": _const([0.8, -0.6]), "f2": _const([-0.8, -0.6])},
                                "H": {"f1": _const([1.2, -0.9]), "f2": _const([-1.2, -0.9])}},
     "params": [[0.5, 0, 0, 0], [0, 0, 0, 0], [1e155, 0, 0, 0]], "samples": 2},
    {"task": "verify", "data": {"G": {"f1": _const([0.8, -0.6]), "f2": _const([-0.8, -0.6])},
                                "H": {"f": {"op": "add", "args": [_const([0.3, 0.1]), _VAR]}}},
     "samples": [{"q": [0.5, 0, 0, 0], "z": [1, 0, 0]}, {"q": [0, 0, 0, 0], "z": [0, 0, 0]}]},
    # G = q, H = q q: a sample check that overflows (z = (1e155, 0, 0)) and a
    # fibre that raises (|G(q)|^2 at q = 1e300), in both orders, and the
    # fibre that raises between two that do not
    {"task": "verify", "data": _SQUARE, "samples": [
        {"q": [0.5, 0, 0, 0], "z": [1, 0, 0]}, {"q": [0.5, 0, 0, 0], "z": [1e155, 0, 0]},
        {"q": [1e300, 0, 0, 0], "z": [1, 0, 0]}]},
    {"task": "verify", "data": _SQUARE, "samples": [
        {"q": [0.5, 0, 0, 0], "z": [1, 0, 0]}, {"q": [1e300, 0, 0, 0], "z": [1, 0, 0]},
        {"q": [0.5, 0, 0, 0], "z": [1e155, 0, 0]}]},
    {"task": "fibres", "data": _SQUARE,
     "params": [[0.5, 0, 0, 0], [1e300, 0, 0, 0], [0.3, 0, 0, 0]]},
    # a constant's power folded past the double range, and a transition
    # whose scalar pole check overflows
    {"task": "solve", "data": {"G": {"f": {"op": "pow", "args": [_const([1e155, 0])], "exp": 3}},
                               "H": {"f": _VAR}},
     "points": [[0.3, 1.1, -0.2]]},
    {"task": "charts", "charts": {"op": "transition", "from": "Gcheck", "to": "L",
                                  "values": [[1.7e308, 1.7e308, -1, 0.5]]}},
    # a quotient by a constant whose folded square passes the double range
    {"task": "solve", "data": _HUGE_DIVISOR, "points": [[0.3, 1.1, -0.2]]},
    {"task": "fibres", "data": _HUGE_DIVISOR, "params": [[0.5, 0.1, 0, 0]], "samples": 1},
    # chart values at zero and on the unit scale, and a point off the quadric
    {"task": "charts", "charts": {"op": "to_point", "space": "S2C", "chart": "G",
                                  "values": [[0, 0, 0, 0], [1, 0, 0, 1], [0.5, 0.5, 0.5, 0.5]]}},
    {"task": "charts", "charts": {"op": "from_point", "space": "Q2C", "chart": "L",
                                  "values": [[[1, 0], [0, 1], [1, 0], [0, -1]]]}},
]


def configs(count, seed=0):
    """The edge cases, then ``count`` seeded configs."""
    rng = random.Random(seed)
    return EDGE_CASES + [_config(rng) for _ in range(count)]


def _key(config):
    return json.dumps(config, sort_keys=True)


def export(side, into):
    """The tree of ``side``, a directory holding ``src/bhm`` or a git ref
    exported into the directory ``into``."""
    path = Path(side)
    if (path / "src" / "bhm").is_dir():
        return path.resolve()
    archive = subprocess.run(["git", "-C", str(REPO), "archive", side, "src"],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return Path(into)


def run_tree(tree, lines, block):
    """Every config line through the tree's CLI in one child: a list of
    [exit code, sha256 of stdout, stderr]."""
    child = subprocess.run([sys.executable, "-c", _CHILD, block], input="\n".join(lines),
                           capture_output=True, text=True, cwd=tree,
                           env=dict(os.environ, PYTHONPATH=str(Path(tree) / "src")))
    if child.returncode:
        raise RuntimeError(f"the child of {tree} failed:\n{child.stderr}")
    return json.loads(child.stdout)


def compare(base, head, cases, expected=()):
    """Run both trees on the cases at every block size: (the messages of
    the failures, the configs that differ)."""
    lines = [json.dumps(c) for c in cases]
    # a listed config that is not among the cases belongs to another run
    expected = {_key(c) for c in expected} & {_key(c) for c in cases}
    differ = {}
    first = None
    for block in BLOCK_SIZES:
        a, b = run_tree(base, lines, block), run_tree(head, lines, block)
        for config, x, y in zip(cases, a, b):
            if x != y:
                differ[_key(config)] = config
                if first is None and _key(config) not in expected:
                    first = (block, config, x, y)
    failures = []
    if first is not None:
        block, config, x, y = first
        failures.append(f"first unexpected difference (BLOCK_LANES {block}):\n"
                        f"  config {json.dumps(config)}\n  base {x}\n  head {y}")
    unexpected = differ.keys() - expected
    missing = expected - differ.keys()
    if unexpected:
        failures.append(f"{len(unexpected)} configs differ unexpectedly")
    if missing:
        failures.append(f"{len(missing)} listed configs do not differ, the first "
                        f"{sorted(missing)[0]}")
    return failures, list(differ.values())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="git ref or directory holding src/bhm")
    parser.add_argument("head", nargs="?", default=str(REPO),
                        help="git ref or directory (default: this tree)")
    parser.add_argument("--count", type=int, default=400, help="seeded configs (default 400)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--expect-diff", help="JSON lines: the configs meant to differ")
    parser.add_argument("--write-diff", help="write the configs that differ as JSON lines")
    args = parser.parse_args(argv)
    cases = configs(args.count, args.seed)
    expected = []
    if args.expect_diff:
        expected = [json.loads(line) for line in Path(args.expect_diff).read_text().splitlines()
                    if line.strip()]
    with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
        failures, differ = compare(export(args.base, a), export(args.head, b), cases, expected)
    if args.write_diff:
        Path(args.write_diff).write_text("".join(json.dumps(c) + "\n" for c in differ))
    print(f"{len(cases)} configs at BLOCK_LANES {', '.join(BLOCK_SIZES)}: {len(differ)} differ, "
          f"{len(expected)} listed")
    for line in failures:
        print(line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
