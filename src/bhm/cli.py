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
import re
import sys
from functools import cache
from itertools import chain, islice

import numpy as np

from .core import BArray, Bicomplex
from .errors import BhmError, ExprSchemaError, RangeOverflowError
from .geometry import CVec3, chart_to_point, point_to_chart, transition, transition_holofn
from .geometry import Space, Chart, S2CPoint, QuadricPointB, QuadricPointC
from .holo import _evaluate, holofn_from_json, is_number
from .slices import SliceKind, _projection, _slice_roots, slice_data
from .verify import _CLASS_NAMES, CLASSIFY_TOL, _class_index, _point_lanes, _point_roots
from .verify import _stencil_checks
from .weierstrass import (
    _TAGS,
    FibreBatch,
    WeierstrassData,
    _blocks,
    _degrees,
    _residual,
    _until_error,
    fibre_at,
)

TASKS = ("solve", "fibres", "verify", "slice", "charts")
# cap on the points one run computes: a slice grid, or fibre samples over all params
MAX_POINTS = 100_000
# cap on the roots one run can compute: points times the roots one point can have
MAX_ROOTS = 100_000
# a fibre's tag as the reports name it, by its index in a FibreBatch
_TAG_NAMES = [tag.value for tag in _TAGS]


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
            and all(map(is_number, obj))):
        return complex(obj[0], obj[1])
    raise ExprSchemaError(f"{what} must be a number or [re, im], got {obj!r}")


def _parse_point(obj):
    if not isinstance(obj, (list, tuple)) or len(obj) != 3:
        raise ExprSchemaError(f"point must have 3 components, got {obj!r}")
    return CVec3(*(_parse_complex(c, "point component") for c in obj))


def _parse_bicomplex(obj):
    if (isinstance(obj, (list, tuple)) and len(obj) == 4
            and all(map(is_number, obj))):
        return Bicomplex.from_reals(obj)
    raise ExprSchemaError(f"bicomplex value must be [x1, x2, x3, x4], got {obj!r}")


def _number_rows(values, *shape):
    """``values`` as a float array of shape (len(values), *shape) when each
    value is lists of that shape holding JSON numbers (no bool), else None:
    the types are checked over all entries at once, and the per-item
    parsers then give the error."""
    entries = values
    for n in shape:
        if set(map(type, entries)) != {list} or set(map(len, entries)) != {n}:
            return None
        entries = list(chain.from_iterable(entries))
    if not set(map(type, entries)) <= {int, float}:
        return None
    return np.array(values, dtype=float)


def _bicomplex_rows(values):
    """Bicomplex values as an (n, 4) float array of [x1, x2, x3, x4] rows,
    and the error of the first malformed value or None: the rows stop
    before it, and the caller finishes them before raising it."""
    rows = _number_rows(values, 4)
    if rows is not None:
        return rows, None
    parsed, error = _until_error(_parse_bicomplex, values)
    return np.array([q.to_reals() for q in parsed], dtype=float).reshape(-1, 4), error


def _parse_data(config) -> WeierstrassData:
    data = config.get("data")
    if not isinstance(data, dict) or "G" not in data or "H" not in data:
        raise ExprSchemaError("config needs 'data': {'G': ..., 'H': ...}")
    return WeierstrassData(holofn_from_json(data["G"]), holofn_from_json(data["H"]))


def _cap_roots(data: WeierstrassData, n_points):
    """Refuse, before any solve, a run whose points can have more than
    MAX_ROOTS roots in all: a point's roots pair the two sides' roots, of
    at most ``weierstrass._degrees`` each."""
    d_e, d_f = _degrees(data)
    n_roots = n_points * d_e * d_f
    if n_roots > MAX_ROOTS:
        raise ExprSchemaError(f"the run can reach {n_roots} roots ({n_points} points x "
                              f"{d_e} x {d_f}), more than {MAX_ROOTS}")


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


def _task_solve(config, tol, seed):
    data = _parse_data(config)
    points = config.get("points")
    if not isinstance(points, list) or not points:
        raise ExprSchemaError("'solve' needs a non-empty 'points' list")
    pts = [_parse_point(p) for p in points]
    _cap_roots(data, len(pts))
    results = []
    listed = lists = fibres = None
    for z, batch, roots in _stencil_checks(data, pts, _point_lanes, None, None):
        if batch is not listed:
            # one FibreBatch over the block's root lanes, read lane by lane
            listed, lists = batch, _lane_lists(batch)
            fibres = _fibre_rows(FibreBatch(data, batch.implicit.q), ())
        results.append({"point": _cvec(z), "roots": _solve_rows(z, batch, roots, lists, fibres)})
    return {"task": "solve", "results": results}


def _solve_rows(z, batch, roots, lists, fibres):
    """The root rows of point z, from its ``(k, None)`` pairs of root lanes
    k of ``batch``, whose fields ``lists`` holds (``_lane_lists``); each
    root's fibre row is taken from ``fibres`` in its turn, and then its
    |Laplacian| and |nullness| may raise (``_overflow``), so errors surface
    in a point-by-point run's order."""
    q, multiplicity, residual, degenerate, partially, has_gradient, gradient, \
        laplacian_abs, nullness_abs, gauss, oriented, overflow = lists
    rows = []
    for k, _ in roots:
        fibre = next(fibres)
        if overflow[k]:
            raise _overflow(batch, k, z)
        g = has_gradient[k]
        rows.append({
            "q": q[k],
            "multiplicity": multiplicity[k],
            "residual": residual[k],
            "degenerate": degenerate[k],
            "partially_degenerate": partially[k],
            "gradient": gradient[k] if g else None,
            "laplacian_abs": laplacian_abs[k] if g else None,
            "nullness_abs": nullness_abs[k] if g else None,
            "gauss": gauss[k] if oriented[k] else None,
            "fibre": fibre,
        })
    return rows


def _overflow(batch, k, z):
    """The error of root lane k of ``batch``, a root of z, whose scalar
    |Laplacian| or |nullness| passes the double range
    (``RootBatch.report.overflow``)."""
    return RangeOverflowError(f"|Laplacian| or |nullness| overflows at the root "
                              f"q = {batch.implicit.q.item(k)!r} of z = {z!r}")


def _lane_lists(batch):
    """The fields of a batch's root rows as lists, ``_f``'s + 0.0 done over
    the arrays."""
    implicit, report = batch.implicit, batch.report
    gradient = np.stack([c.reals() for c in implicit.gradient], axis=1)
    gauss = np.stack([np.stack([c.re, c.im], axis=-1) for c in batch.gauss], axis=1)
    return (_reals(implicit.q), implicit.multiplicity.tolist(),
            (implicit.residual + 0.0).tolist(), implicit.degenerate.tolist(),
            implicit.partially_degenerate.tolist(), implicit.has_gradient.tolist(),
            (gradient + 0.0).tolist(), (report.laplacian_abs + 0.0).tolist(),
            (report.nullness_abs + 0.0).tolist(), (gauss + 0.0).tolist(),
            implicit.oriented.tolist(), report.overflow.tolist())


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
    qs, error = _bicomplex_rows(params)
    if error is not None:
        raise error
    results = []
    for block in _blocks(qs):
        batch = FibreBatch(data, BArray.from_reals(block))
        rows = _fibre_rows(batch, ts)
        results.extend({"q": q, **row} for q, row in zip(_reals(batch.q), rows))
    return {"task": "fibres", "results": results}


def _fibre_rows(batch, ts):
    """The fibre rows, without "q", of a batch's parameters, one at a time
    in order: a lane the batch leaves to the scalar path is computed there
    in its turn."""
    points, ok = batch.samples(ts)
    fibres = batch.fibres
    # each field as lists, for the lanes of the tags that read it
    tags = fibres.tag.tolist()
    base, direction = ((_pairs(a) if 0 in tags else None)
                       for a in (fibres.base, fibres.direction))
    normal, offset = ((_pairs(a) if 1 in tags else None)
                      for a in (fibres.normal, fibres.offset))
    samples = _pairs(points)
    for k, (tag, computed) in enumerate(zip(tags, ok.tolist())):
        if not computed:
            yield _fibre_json(batch.fibre(k), ts)
            continue
        line = tag == 0
        plane = tag == 1
        yield {
            "tag": _TAG_NAMES[tag],
            "base": base[k] if line else None,
            "direction": direction[k] if line else None,
            "normal": normal[k] if plane else None,
            "offset": offset[k] if plane else None,
            "samples": samples[k] if line or plane else [],
        }


def _reals(q):
    """``[_b(p) for p in ...]`` of ``BArray`` lanes, ``_f``'s + 0.0 done
    over the array."""
    return (q.reals() + 0.0).tolist()


def _pairs(a):
    """A complex array as nested [re, im] lists, ``_f``'s + 0.0 done over
    the array: ``_c`` of each entry."""
    return (np.stack([a.real, a.imag], axis=-1) + 0.0).tolist()


def _congruence_residual(data, q, z):
    return _residual(data.G(q), data.H(q), z)


def _parse_sample(s):
    if not isinstance(s, dict) or "q" not in s or "z" not in s:
        raise ExprSchemaError("each sample needs 'q' and 'z'")
    return _parse_bicomplex(s["q"]), _parse_point(s["z"])


def _sample_arrays(samples):
    """The ``verify --samples`` samples as arrays: q as (n, 4) float rows,
    z as an (n, 3) complex array (assembled part by part, which keeps
    signed zeros), and the error of the first malformed sample or None:
    the arrays stop before it."""
    if set(map(type, samples)) == {dict}:
        q = _number_rows([s.get("q") for s in samples], 4)
        z = _number_rows([s.get("z") for s in samples], 3, 2)
        if q is not None and z is not None:
            points = np.empty(z.shape[:2], dtype=complex)
            points.real, points.imag = z[..., 0], z[..., 1]
            return q, points, None
    parsed, error = _until_error(_parse_sample, samples)
    q = np.array([p.to_reals() for p, _ in parsed], dtype=float).reshape(-1, 4)
    return q, np.array([list(z) for _, z in parsed], dtype=complex).reshape(-1, 3), error


def _sample_rows(data, q, points, tol):
    """The ``verify --samples`` rows of the samples with parameters ``q``
    ((n, 4) float rows) and points ``points`` ((n, 3) complex), in order: a
    lane the batch leaves to the scalar path is computed there in its
    turn."""
    batch = FibreBatch(data, BArray.from_reals(q))
    residual, on_fibre, ok = batch.checks(points, tol)
    q = _reals(batch.q)
    z = _pairs(points)
    residual = (residual + 0.0).tolist()
    on_fibre = on_fibre.tolist()
    rows = []
    for k, (tag, computed) in enumerate(zip(batch.fibres.tag.tolist(), ok.tolist())):
        if computed:
            rows.append({"q": q[k], "z": z[k], "tag": _TAG_NAMES[tag],
                         "residual": residual[k], "on_fibre": on_fibre[k]})
            continue
        qk, zk = batch.q.item(k), CVec3(*points[k].tolist())
        fibre = fibre_at(data, qk)
        try:
            res = _congruence_residual(data, qk, zk)
            contained = bool(fibre.contains(zk, tol=tol))
        except OverflowError:  # an abs or a square past the double range, of finite parts
            raise RangeOverflowError(f"the residual or the fibre test overflows at the "
                                     f"sample q = {qk!r}, z = {zk!r}") from None
        rows.append({"q": q[k], "z": z[k], "tag": fibre.tag.value, "residual": _f(res),
                     "on_fibre": contained})
    return rows


def _task_verify(config, tol, seed):
    data = _parse_data(config)
    tol = tol if tol is not None else 1e-8
    if "samples" in config:
        samples = config["samples"]
        if not isinstance(samples, list) or not samples:
            raise ExprSchemaError("'samples' must be a non-empty list")
        # a point-by-point run parses a sample after the ones before it
        # are checked: a malformed sample is raised after them
        q, z, error = _sample_arrays(samples)
        results = []
        for q_block, z_block in zip(_blocks(q), _blocks(z)):
            results.extend(_sample_rows(data, q_block, z_block, tol))
        if error is not None:
            raise error
        return {"task": "verify", "results": results}

    points = config.get("points")
    if not isinstance(points, list) or not points:
        raise ExprSchemaError("'verify' needs 'points' or 'samples'")
    pts = [_parse_point(p) for p in points]
    _cap_roots(data, len(pts))

    results = []
    listed = lists = None
    for z, batch, checks in _point_roots(data, pts):
        if batch is not listed:
            listed, lists = batch, _verify_lists(batch)
        q, has_gradient, laplacian, nullness, overflow = lists
        roots = []
        # each root's check runs in its turn, after its |Laplacian| and
        # |nullness| may raise
        for k, check in checks:
            if overflow[k]:
                raise _overflow(batch, k, z)
            row = {"q": q[k], "implicit": None, "fd": None}
            if has_gradient[k]:
                row["implicit"] = {"laplacian": laplacian[k], "nullness": nullness[k]}
                row["fd"] = check()
            roots.append(row)
        results.append({"point": _cvec(z), "roots": roots})
    return {"task": "verify", "results": results}


def _verify_lists(batch):
    """The fields of the ``verify --points`` rows of a batch's root lanes
    as lists, ``_f``'s + 0.0 done over the arrays."""
    implicit, report = batch.implicit, batch.report
    return (_reals(implicit.q), implicit.has_gradient.tolist(),
            (report.laplacian_abs + 0.0).tolist(), (report.nullness_abs + 0.0).tolist(),
            report.overflow.tolist())


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
    _cap_roots(data, len(pts))
    atol = tol if tol is not None else 1e-8
    rows = []
    listed = lists = None
    for x, batch, checks in _slice_roots(kind, data, pts, atol=atol, fd=run_fd):
        if batch is not listed:
            listed, lists = batch, _slice_lists(kind, batch)
        q, value, degenerate, cls = lists
        # one "x" list for the point's rows: the 25 000-point grid holds
        # about 50 000 rows until the report is written
        x = [_f(v) for v in x]
        for idx, (k, check) in enumerate(checks):
            row = _slice_row(x, idx, q[k], value[k], degenerate[k], cls[k])
            if check is not None:
                try:
                    hr, nr = check()
                    row["harmonic_res"] = _f(hr)
                    row["null_res"] = _f(nr)
                except BhmError as exc:
                    row["error"] = type(exc).__name__
            rows.append(row)
    return {"task": "slice", "slice": kind.value, "results": rows}


def _slice_row(x, branch, q, value, degenerate, cls):
    """A kept root's ``slice`` row, before its residuals: the one layout of
    the rows built from a solution and from the lanes."""
    return {
        "x": x,
        "branch": branch,
        "q": q,
        "value": value,
        "degenerate": degenerate,
        "class": cls,
        "harmonic_res": None,
        "null_res": None,
    }


def _slice_lists(kind, batch):
    """The fields of the ``slice`` rows of a batch's root lanes as lists,
    ``_f``'s + 0.0 done over the arrays: q, the value ``project_codomain``
    gives, ``degenerate`` and the class ``classify_point`` gives (None
    without a gradient).  A root lane's row here is its solution's
    wherever ``solve_phi`` returns, since the lanes hold its values and
    ``classify_point`` runs the ``_null_parts`` that ``solve_phi`` ran, so
    no row here raises where its solution's would."""
    implicit = batch.implicit
    q = implicit.q
    _, x, y = _projection(kind, q.z1.complex(), q.z2.complex())
    kinds = _class_index(implicit.n2, implicit.cn_abs, CLASSIFY_TOL).tolist()
    cls = [_CLASS_NAMES[c] if g else None
           for c, g in zip(kinds, implicit.has_gradient.tolist())]
    return (_reals(q), (np.stack([x, y], axis=-1) + 0.0).tolist(),
            implicit.degenerate.tolist(), cls)


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
        # a value is parsed after the ones before it are transitioned: a
        # malformed value is raised after them
        rows, error = _bicomplex_rows(values)
        fn = transition_holofn(src, dst)
        for block in _blocks(rows):
            q = BArray.from_reals(block)
            with np.errstate(all="ignore"):
                value, flagged = _evaluate(fn, *q.ringleb())
            result = _reals(value)
            # a flagged lane (a pole, an overflow) takes the scalar path in
            # its turn, which raises OutOfDomainError where it does
            for k in np.flatnonzero(flagged).tolist():
                result[k] = _b(transition(src, dst, q.item(k)))
            results.extend({"value": v, "result": r} for v, r in zip(_reals(q), result))
        if error is not None:
            raise error
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


# a whole CSV field that is a non-finite float's repr: no tag, class or
# number field reads that way
_NON_FINITE_FIELD = re.compile(r"(?<![^,\n])(?:-?inf|nan)(?![^,\n])")
# rows written and checked at a time: the text held beside the report
CSV_CHUNK_ROWS = 1024


def _write_csv(out, header, rows):
    """Write a CSV report with the C ``csv.writer``: the header, then the
    rows.  Like the JSON report, it refuses a non-finite value
    (ValueError), naming the first in row order: each chunk of rows is
    written to a buffer, searched, and copied to ``out``."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    rows = iter(rows)
    chunk = [header]
    while chunk:
        writer.writerows(chunk)
        text = buffer.getvalue()
        # a plain substring search first: the pattern is the slower scan
        bad = ("inf" in text or "nan" in text) and _NON_FINITE_FIELD.search(text)
        if bad:
            raise ValueError(f"non-finite value {bad.group()} in the CSV report")
        out.write(text)
        buffer.seek(0)
        buffer.truncate()
        chunk = list(islice(rows, CSV_CHUNK_ROWS))


def _csv_solve(report, out):
    def rows():
        for res in report["results"]:
            p = [v for c in res["point"] for v in c]
            for r in res["roots"]:
                yield p + r["q"] + [r["multiplicity"], r["residual"],
                                    int(r["degenerate"]),
                                    int(r["partially_degenerate"]),
                                    r["laplacian_abs"], r["nullness_abs"]]

    _write_csv(out, ["p1_re", "p1_im", "p2_re", "p2_im", "p3_re", "p3_im",
                     "q_x1", "q_x2", "q_x3", "q_x4", "multiplicity", "residual",
                     "degenerate", "partially_degenerate",
                     "laplacian_abs", "nullness_abs"], rows())


def _csv_fibres(report, out):
    def rows():
        for r in report["results"]:
            base = r["base"]
            if base is None and r["samples"]:
                base = r["samples"][0]
            base = [v for c in (base or [[0, 0]] * 3) for v in c]
            vec = r["direction"] if r["direction"] is not None else r["normal"]
            vec = [v for c in (vec or [[0, 0]] * 3) for v in c]
            yield r["q"] + [r["tag"]] + base + vec

    _write_csv(out, ["q_x1", "q_x2", "q_x3", "q_x4", "tag",
                     "base_1re", "base_1im", "base_2re", "base_2im", "base_3re", "base_3im",
                     "dir_1re", "dir_1im", "dir_2re", "dir_2im", "dir_3re", "dir_3im"], rows())


def _csv_slice(report, out):
    _write_csv(out, ["x1", "x2", "x3", "branch", "q_x1", "q_x2", "q_x3", "q_x4",
                     "value_1", "value_2", "class", "harmonic_res", "null_res"],
               (r["x"] + [r["branch"]] + r["q"] + r["value"]
                + [r["class"], r["harmonic_res"], r["null_res"]] for r in report["results"]))


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


@cache  # built on the first call: building it cost more than parsing with it
def _parser():
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
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

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
    except (BhmError, ValueError, ArithmeticError, MemoryError) as exc:
        # ValueError: a NaN or inf in the report; OverflowError: complex
        # powers past the double range, such as a folded constant 1e300**2;
        # ZeroDivisionError: a division by an exact zero the checks missed
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
