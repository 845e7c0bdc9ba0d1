"""Command-line front end.

Reads a scene configuration (JSON), runs one of the pipeline tasks and emits
a deterministic report: identical configurations produce byte-identical
output.  Exit codes: 0 success, 2 malformed configuration (non-finite numbers,
too-deep nesting and the degree, grid-size and sample-count limits included),
3 domain error (a non-finite or overflowing result, or running out of memory,
included).

    bhm --task solve --input scene.json --output - --format json
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import random
import sys

import numpy as np

from .core import Bicomplex
from .errors import BhmError, ExprSchemaError
from .geometry import CVec3, chart_to_point, point_to_chart, transition
from .geometry import Space, Chart, S2CPoint, QuadricPointB, QuadricPointC
from .holo import degree_bound, holofn_from_json, is_number
from .slices import (
    SliceKind,
    embed_domain,
    in_slice,
    project_codomain,
    slice_data,
    tracked_real_branch,
    wave_residual,
    wave_stencil,
)
from .verify import classify_point, fd_residuals, fd_stencil, point_key, tracked_branch
from .weierstrass import (
    RootBatch,
    WeierstrassData,
    fibre_at,
    gauss_map,
    xi_direction,
)

TASKS = ("solve", "fibres", "verify", "slice", "charts")
# cap on the points one run computes: a slice grid, or fibre samples over all params
MAX_POINTS = 100_000
# cap on the roots one run can compute: points times the roots one point can have
MAX_ROOTS = 100_000
# points solved together in one block when both congruence components have
# degree <= 2; components of degree d take 4/d^2 as many (at least one), so
# the companion matrices, root pairs and root tables one block holds stay
# bounded at the caps
BLOCK_POINTS = 256


def _f(x: float) -> float:
    return float(x) + 0.0  # normalize -0.0 for byte-stable output


def _c(z: complex):
    return [_f(z.real), _f(z.imag)]


def _b(q: Bicomplex):
    return [_f(v) for v in q.to_reals()]


def _cvec(v):
    return [_c(c) for c in v]


def _finite(parse):
    """JSON number hook: NaN, infinities and literals past the double range
    (such as 1e400) are malformed configuration."""
    def number(token):
        value = parse(token)
        if not abs(value) <= sys.float_info.max:
            raise ExprSchemaError(f"number {token:.32} is not a finite double")
        return value
    return number


def _parse_complex(obj, what):
    if is_number(obj):
        return complex(obj)
    if (isinstance(obj, (list, tuple)) and len(obj) == 2
            and all(is_number(v) for v in obj)):
        return complex(obj[0], obj[1])
    raise ExprSchemaError(f"{what} must be a number or [re, im], got {obj!r}")


def _parse_point(obj):
    if not isinstance(obj, (list, tuple)) or len(obj) != 3:
        raise ExprSchemaError(f"point must have 3 components, got {obj!r}")
    return CVec3(*(_parse_complex(c, "point component") for c in obj))


def _parse_bicomplex(obj):
    if (isinstance(obj, (list, tuple)) and len(obj) == 4
            and all(is_number(v) for v in obj)):
        return Bicomplex.from_reals(obj)
    raise ExprSchemaError(f"bicomplex value must be [x1, x2, x3, x4], got {obj!r}")


def _parse_data(config) -> WeierstrassData:
    data = config.get("data")
    if not isinstance(data, dict) or "G" not in data or "H" not in data:
        raise ExprSchemaError("config needs 'data': {'G': ..., 'H': ...}")
    return WeierstrassData(holofn_from_json(data["G"]), holofn_from_json(data["H"]))


def _cap_roots(data: WeierstrassData, n_points):
    """Refuse, before any solve, a run whose points can have more than
    MAX_ROOTS roots in all.  Each side's congruence has degree at most
    max(2 deg G, deg H) on that side, and a point's roots pair the sides.
    Returns those two degree bounds."""
    d_e = max(2 * degree_bound(data.G.f1), degree_bound(data.H.f1))
    d_f = max(2 * degree_bound(data.G.f2), degree_bound(data.H.f2))
    n_roots = n_points * d_e * d_f
    if n_roots > MAX_ROOTS:
        raise ExprSchemaError(f"the run can reach {n_roots} roots ({n_points} points x "
                              f"{d_e} x {d_f}), more than {MAX_ROOTS}")
    return d_e, d_f


def _blocks(points, degrees):
    """The points in blocks of BLOCK_POINTS, fewer for higher degrees."""
    d = max(2, *degrees)
    size = max(1, BLOCK_POINTS * 4 // (d * d))
    return [points[i:i + size] for i in range(0, len(points), size)]


def _anchor(batch):
    """``batch.solutions(i)`` for the block's points in order, up to the
    first that raises: (the solutions, that exception or None).  The caller
    finishes the points before it, then raises it, so errors surface in the
    order of a point-by-point run."""
    solved = []
    for i in range(len(batch)):
        try:
            solved.append(batch.solutions(i))
        except Exception as exc:
            return solved, exc
    return solved, None


def _prefill(data, stencil, anchors):
    """Solve the stencil points of a block's anchors in one RootBatch and
    enter each in its anchor's root table.  ``anchors`` holds (table,
    anchor) pairs and ``stencil(anchor)`` lists the anchor's stencil points.
    An anchor whose points overflow, and a lane the batch leaves to the
    scalar path, stay out: the table solves them on first read, raising
    where a point-by-point run raises."""
    filled = []
    for table, anchor in anchors:
        try:
            filled.append((table, stencil(anchor)))
        except ArithmeticError:
            continue
    batch = RootBatch(data, [z for _, points in filled for z in points])
    lane = 0
    for table, points in filled:
        for z in points:
            roots = batch.roots(lane)
            lane += 1
            if roots is not None:
                table.setdefault(point_key(z), roots)


def _grid_points(grid):
    if not isinstance(grid, dict):
        raise ExprSchemaError("'grid' must be an object with min/max/counts")
    lo, hi, counts = (grid.get(key) for key in ("min", "max", "counts"))
    if not all(isinstance(t, (list, tuple)) and len(t) == 3 and all(is_number(v) for v in t)
               for t in (lo, hi, counts)):
        raise ExprSchemaError("'grid' needs numeric 'min', 'max', 'counts' triples")
    # an integral float such as 1e5 is a count; 2.9 is not
    if not all(isinstance(n, int) or n.is_integer() for n in counts):
        raise ExprSchemaError(f"'grid' counts must be whole numbers, got {counts!r}")
    lo = [float(v) for v in lo]
    hi = [float(v) for v in hi]
    counts = [int(n) for n in counts]
    if any(n <= 0 for n in counts):
        raise ExprSchemaError("'grid' counts must be positive")
    n_points = math.prod(counts)
    if n_points > MAX_POINTS:
        raise ExprSchemaError(f"'grid' has {n_points} points, more than {MAX_POINTS}")
    if not all(x <= y and abs(x) < 1e12 and abs(y) < 1e12 for x, y in zip(lo, hi)):
        raise ExprSchemaError("'grid' bounds must be finite with min <= max")
    axes = []
    for a, b, n in zip(lo, hi, counts):
        axes.append([a] if n == 1 else [a + (b - a) * i / (n - 1) for i in range(n)])
    return [(x1, x2, x3) for x1 in axes[0] for x2 in axes[1] for x3 in axes[2]]


# ---------------------------------------------------------------------------
# tasks


def _root_json(data, sol):
    out = {
        "q": _b(sol.q),
        "multiplicity": sol.multiplicity,
        "residual": _f(sol.residual),
        "degenerate": sol.degenerate,
        "partially_degenerate": sol.partially_degenerate,
        "gradient": None,
        "laplacian_abs": None,
        "nullness_abs": None,
        "gauss": None,
        "fibre": _fibre_json(fibre_at(data, sol.q), ()),
    }
    if sol.gradient is not None:
        out["gradient"] = [_b(q) for q in sol.gradient]
        out["laplacian_abs"] = _f(abs(sol.laplacian))
        out["nullness_abs"] = _f(abs(sol.gradient.square()))
        if not sol.degenerate:
            out["gauss"] = _cvec(gauss_map(sol.gradient))
    return out


def _task_solve(config, tol, seed):
    data = _parse_data(config)
    points = config.get("points")
    if not isinstance(points, list) or not points:
        raise ExprSchemaError("'solve' needs a non-empty 'points' list")
    pts = [_parse_point(p) for p in points]
    results = []
    for block in _blocks(pts, _cap_roots(data, len(pts))):
        batch = RootBatch(data, block)
        for i, z in enumerate(block):
            results.append({"point": _cvec(z),
                            "roots": [_root_json(data, s) for s in batch.solutions(i)]})
    return {"task": "solve", "results": results}


def _fibre_json(fibre, ts):
    out = {
        "tag": fibre.tag.value,
        "base": None,
        "direction": None,
        "normal": None,
        "offset": None,
        "samples": [_cvec(z) for z in fibre.sample_points(ts)],
    }
    if fibre.base is not None:
        out["base"] = _cvec(fibre.base)
    if fibre.direction is not None:
        out["direction"] = _cvec(fibre.direction)
    if fibre.normal is not None:
        out["normal"] = _cvec(fibre.normal)
        out["offset"] = _c(fibre.offset)
    return out


def _task_fibres(config, tol, seed):
    data = _parse_data(config)
    params = config.get("params")
    if not isinstance(params, list) or not params:
        raise ExprSchemaError("'fibres' needs a non-empty 'params' list of "
                              "bicomplex 4-tuples")
    n_samples = config.get("samples", 3)
    if type(n_samples) is not int or n_samples < 0:  # a JSON true is a bool
        raise ExprSchemaError("'samples' must be a non-negative integer")
    if len(params) * n_samples > MAX_POINTS:
        raise ExprSchemaError(f"'fibres' asks for {len(params)} x {n_samples} samples, "
                              f"more than {MAX_POINTS}")
    rng = random.Random(seed)
    ts = [rng.uniform(-2.0, 2.0) for _ in range(n_samples)]
    qs = [_parse_bicomplex(p) for p in params]
    results = []
    for q in qs:
        fibre = fibre_at(data, q)
        row = {"q": _b(q)}
        row.update(_fibre_json(fibre, ts))
        results.append(row)
    return {"task": "fibres", "results": results}


def _congruence_residual(data, q, z):
    rhs = xi_direction(data, q)
    val = (rhs.q1 * z.u1 + rhs.q2 * z.u2 + rhs.q3 * z.u3) - 2 * data.H(q)
    return abs(val)


def _task_verify(config, tol, seed):
    data = _parse_data(config)
    tol = tol if tol is not None else 1e-8
    if "samples" in config:
        samples = config["samples"]
        if not isinstance(samples, list) or not samples:
            raise ExprSchemaError("'samples' must be a non-empty list")
        results = []
        for s in samples:
            if not isinstance(s, dict) or "q" not in s or "z" not in s:
                raise ExprSchemaError("each sample needs 'q' and 'z'")
            q = _parse_bicomplex(s["q"])
            z = _parse_point(s["z"])
            fibre = fibre_at(data, q)
            res = _congruence_residual(data, q, z)
            results.append({
                "q": _b(q), "z": _cvec(z), "tag": fibre.tag.value,
                "residual": _f(res),
                "on_fibre": bool(fibre.contains(z, tol=tol)),
            })
        return {"task": "verify", "results": results}

    points = config.get("points")
    if not isinstance(points, list) or not points:
        raise ExprSchemaError("'verify' needs 'points' or 'samples'")
    pts = [_parse_point(p) for p in points]

    def work(z, sols, table):
        roots = []
        for sol in sols:
            entry = {"q": _b(sol.q),
                     "implicit": None,
                     "fd": None}
            if sol.gradient is not None:
                entry["implicit"] = {
                    "laplacian": _f(abs(sol.laplacian)),
                    "nullness": _f(abs(sol.gradient.square())),
                }
                phi = tracked_branch(data, z, q0=sol.q, roots=table)
                entry["fd"] = fd_residuals(phi, z).to_json()
            roots.append(entry)
        return {"point": _cvec(z), "roots": roots}

    results = []
    for block in _blocks(pts, _cap_roots(data, len(pts))):
        solved, error = _anchor(RootBatch(data, block))
        # one root table per point: the stencils of all its roots share
        # their solves, and the centre's roots are those just found
        tables = [{point_key(z): [sol.q for sol in sols]} for z, sols in zip(block, solved)]
        _prefill(data, lambda z: fd_stencil(z)[1],
                 [(table, z) for z, sols, table in zip(block, solved, tables)
                  if any(sol.gradient is not None for sol in sols)])
        results += [work(*args) for args in zip(block, solved, tables)]
        if error is not None:
            raise error
    return {"task": "verify", "results": results}


def _task_slice(config, tol, seed):
    kind = config.get("slice")
    try:
        kind = SliceKind(kind)
    except ValueError:
        raise ExprSchemaError(f"'slice' must be one of "
                              f"{[k.value for k in SliceKind]}, got {kind!r}")
    if "g" not in config or "h" not in config:
        raise ExprSchemaError("'slice' task needs 'g' and 'h' expressions")
    run_fd = config.get("fd", True)
    if not isinstance(run_fd, bool):
        raise ExprSchemaError(f"'fd' must be true or false, got {run_fd!r}")
    data = slice_data(kind, holofn_from_json(config["g"]), holofn_from_json(config["h"]))
    if "grid" in config:
        pts = _grid_points(config["grid"])
    elif isinstance(config.get("points"), list) and config["points"]:
        pts = []
        for p in config["points"]:
            if not isinstance(p, (list, tuple)) or len(p) != 3 \
                    or not all(is_number(v) for v in p):
                raise ExprSchemaError("slice points must be real triples")
            pts.append(tuple(float(v) for v in p))
    else:
        raise ExprSchemaError("'slice' task needs 'grid' or 'points'")
    degrees = _cap_roots(data, len(pts))
    atol = tol if tol is not None else 1e-8

    def work(x, sols, table):
        rows = []
        for idx, sol in enumerate(sols):
            value = project_codomain(kind, sol.q, atol=atol)
            row = {
                "x": [_f(v) for v in x],
                "branch": idx,
                "q": _b(sol.q),
                "value": _c(value) if isinstance(value, complex) else
                         [_f(value.x), _f(value.y)],
                "degenerate": sol.degenerate,
                "class": (classify_point(sol.gradient).kind.value
                          if sol.gradient is not None else None),
                "harmonic_res": None,
                "null_res": None,
            }
            if run_fd and sol.gradient is not None:
                phi = tracked_real_branch(kind, data, x, q0=sol.q, atol=atol, roots=table)
                try:
                    hr, nr = wave_residual(kind, phi, x)
                    row["harmonic_res"] = _f(hr)
                    row["null_res"] = _f(nr)
                except (BhmError,) as exc:
                    row["error"] = type(exc).__name__
            rows.append(row)
        return rows

    def stencil(x):
        return [embed_domain(kind, p) for p in wave_stencil(x)[2]]

    rows = []
    for block in _blocks(pts, degrees):
        zs = [embed_domain(kind, x) for x in block]
        solved, error = _anchor(RootBatch(data, zs))
        # one root table per point, as in 'verify', holding every root at
        # the point, projectable or not
        tables = [{point_key(z): [sol.q for sol in sols]} for z, sols in zip(zs, solved)]
        kept = [in_slice(kind, sols, atol) for sols in solved]
        if run_fd:
            _prefill(data, stencil,
                     [(table, x) for x, sols, table in zip(block, kept, tables)
                      if any(sol.gradient is not None for sol in sols)])
        for args in zip(block, kept, tables):
            rows += work(*args)
        if error is not None:
            raise error
    return {"task": "slice", "slice": kind.value, "results": rows}


# a point of each space as JSON: its coordinate lists and their lengths
_SPACE_POINTS = {
    Space.S2C: (S2CPoint, 3, 2),        # three complex [re, im]
    Space.Q1B: (QuadricPointB, 3, 4),   # three bicomplex [x1, x2, x3, x4]
    Space.Q2C: (QuadricPointC, 4, 2),   # four complex homogeneous coordinates
}


def _parse_space_point(space, value):
    cls, n, k = _SPACE_POINTS[space]
    if not (isinstance(value, (list, tuple)) and len(value) == n
            and all(isinstance(c, (list, tuple)) and len(c) == k
                    and all(is_number(x) for x in c) for c in value)):
        raise ExprSchemaError(f"a {space.value} point must be {n} lists of {k} numbers, "
                              f"got {value!r}")
    return cls.from_json(value)


def _task_charts(config, tol, seed):
    section = config.get("charts")
    if not isinstance(section, dict):
        raise ExprSchemaError("'charts' task needs a 'charts' object")
    op = section.get("op", "transition")
    values = section.get("values")
    if not isinstance(values, list) or not values:
        raise ExprSchemaError("'charts' needs a non-empty 'values' list")
    results = []
    if op == "transition":
        try:
            src = Chart(section.get("from"))
            dst = Chart(section.get("to"))
        except ValueError:
            raise ExprSchemaError("transition needs valid 'from'/'to' charts")
        for v in values:
            q = _parse_bicomplex(v)
            results.append({"value": _b(q), "result": _b(transition(src, dst, q))})
    elif op in ("to_point", "from_point"):
        try:
            space = Space(section.get("space"))
            ch = Chart(section.get("from") or section.get("chart"))
        except ValueError:
            raise ExprSchemaError(f"'{op}' needs valid 'space' and chart")
        for v in values:
            if op == "to_point":
                q = _parse_bicomplex(v)
                point = chart_to_point(space, ch, q)
                results.append({"value": _b(q), "result": point.to_json()})
            else:
                point = _parse_space_point(space, v)
                results.append({"value": v,
                                "result": _b(point_to_chart(space, ch, point))})
    else:
        raise ExprSchemaError(f"unknown charts op {op!r}")
    return {"task": "charts", "results": results}


_RUNNERS = {
    "solve": _task_solve,
    "fibres": _task_fibres,
    "verify": _task_verify,
    "slice": _task_slice,
    "charts": _task_charts,
}


# ---------------------------------------------------------------------------
# output formatting


def _csv_rows(out):
    """Row writer for a CSV report; like the JSON report, it refuses a
    non-finite value (ValueError)."""
    writer = csv.writer(out, lineterminator="\n")

    def writerow(row):
        for v in row:
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"non-finite value {v!r} in the CSV report")
        writer.writerow(row)

    return writerow


def _csv_solve(report, out):
    writerow = _csv_rows(out)
    writerow(["p1_re", "p1_im", "p2_re", "p2_im", "p3_re", "p3_im",
              "q_x1", "q_x2", "q_x3", "q_x4", "multiplicity", "residual",
              "degenerate", "partially_degenerate",
              "laplacian_abs", "nullness_abs"])
    for res in report["results"]:
        p = [v for c in res["point"] for v in c]
        for r in res["roots"]:
            writerow(p + r["q"] + [r["multiplicity"], r["residual"],
                                   int(r["degenerate"]),
                                   int(r["partially_degenerate"]),
                                   r["laplacian_abs"], r["nullness_abs"]])


def _csv_fibres(report, out):
    writerow = _csv_rows(out)
    writerow(["q_x1", "q_x2", "q_x3", "q_x4", "tag",
              "base_1re", "base_1im", "base_2re", "base_2im", "base_3re", "base_3im",
              "dir_1re", "dir_1im", "dir_2re", "dir_2im", "dir_3re", "dir_3im"])
    for r in report["results"]:
        base = r["base"]
        if base is None and r["samples"]:
            base = r["samples"][0]
        base = [v for c in (base or [[0, 0]] * 3) for v in c]
        vec = r["direction"] if r["direction"] is not None else r["normal"]
        vec = [v for c in (vec or [[0, 0]] * 3) for v in c]
        writerow(r["q"] + [r["tag"]] + base + vec)


def _csv_slice(report, out):
    writerow = _csv_rows(out)
    writerow(["x1", "x2", "x3", "branch", "q_x1", "q_x2", "q_x3", "q_x4",
              "value_1", "value_2", "class", "harmonic_res", "null_res"])
    for r in report["results"]:
        writerow(r["x"] + [r["branch"]] + r["q"] + r["value"]
                 + [r["class"], r["harmonic_res"], r["null_res"]])


_CSV_WRITERS = {"solve": _csv_solve, "fibres": _csv_fibres, "slice": _csv_slice}


def run(config, out, fmt=None, tol=None, seed=0) -> int:
    """Execute one scene configuration, writing the report to ``out``."""
    if not isinstance(config, dict):
        raise ExprSchemaError("configuration must be a JSON object")
    task = config.get("task")
    if task not in TASKS:
        raise ExprSchemaError(f"'task' must be one of {TASKS}, got {task!r}")
    fmt = fmt or config.get("format", "json")
    if fmt not in ("json", "csv"):
        raise ExprSchemaError(f"format must be 'json' or 'csv', got {fmt!r}")
    report = _RUNNERS[task](config, tol, seed)
    if fmt == "csv":
        writer = _CSV_WRITERS.get(task)
        if writer is None:
            raise ExprSchemaError(f"task {task!r} has no CSV form; use json")
        writer(report, out)
    else:
        out.write(json.dumps(report, sort_keys=True, separators=(",", ":"),
                             allow_nan=False) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bhm",
        description="Solve, classify and verify bicomplex Weierstrass congruences.",
    )
    parser.add_argument("--task", choices=TASKS,
                        help="pipeline task (overrides the config's 'task')")
    parser.add_argument("--input", default="-", help="config JSON file, or - for stdin")
    parser.add_argument("--output", default="-", help="output file, or - for stdout")
    parser.add_argument("--format", choices=("json", "csv"), default=None)
    parser.add_argument("--tol", type=_finite(float), default=None,
                        help="residual/projection tolerance override")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized sampling tasks")
    args = parser.parse_args(argv)

    def fail(code, exc):
        json.dump({"error": {"type": type(exc).__name__, "message": str(exc)}},
                  sys.stderr)
        sys.stderr.write("\n")
        return code

    try:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        config = json.loads(text, parse_float=_finite(float),
                            parse_int=_finite(int), parse_constant=_finite(float))
    except (OSError, ValueError, RecursionError) as exc:
        return fail(2, exc)
    except MemoryError as exc:
        return fail(3, exc)

    if args.task:
        if not isinstance(config, dict):
            return fail(2, ExprSchemaError("configuration must be a JSON object"))
        config = dict(config)
        config["task"] = args.task

    buffer = io.StringIO()
    try:
        # numpy scalars warn on overflow; the report's finiteness check
        # turns such a result into exit 3, and stderr carries only its error
        with np.errstate(all="ignore"):
            run(config, buffer, fmt=args.format, tol=args.tol, seed=args.seed)
    except (ExprSchemaError, RecursionError) as exc:
        return fail(2, exc)
    except (BhmError, ValueError, OverflowError, MemoryError) as exc:
        # ValueError: a NaN or inf in the report; OverflowError: complex
        # powers past the double range, such as a folded constant 1e300**2
        return fail(3, exc)

    try:
        if args.output == "-":
            sys.stdout.write(buffer.getvalue())
        else:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(buffer.getvalue())
    except OSError as exc:
        return fail(3, exc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
