"""Command-line front end.

Reads a scene configuration (JSON), runs one of the pipeline tasks and emits
a deterministic report: identical configurations produce byte-identical
output.  Exit codes: 0 success, 2 malformed configuration (non-finite numbers,
too-deep nesting and the degree, grid-size and sample-count limits included),
3 domain error (a non-finite or overflowing result, or running out of memory,
included).

The report is written as text from each block's lanes while the task runs.
Each row kind is declared once (``_Row``): its JSON keys, its CSV columns and
the lane each field reads.  A block's float fields are one (lanes, k) array,
``+ 0.0`` over the whole of it, read by one ``.tolist()``; each row fills the
``%`` template of its combination of flags, which gives the bytes of
``json.dumps(report, sort_keys=True, separators=(",", ":"),
allow_nan=False)``.  Where a block repeats its values, its rows hold their
text, one ``float.__repr__`` per distinct value (``_block_rows``).  A CSV
row fills its own ``%`` template, from the same declarations, with the bytes
of the C ``csv.writer``.  ``main`` holds the pieces written and writes them
out once the run succeeds.

    bhm --task solve --input scene.json --output - --format json
"""

from __future__ import annotations

import argparse
import io
import json
import math
import random
import re
import sys
from functools import cache
from itertools import chain
from operator import itemgetter

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
    _until_error,
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


def _b(q: Bicomplex):
    return [_f(v) for v in q.to_reals()]


def _finite(parse):
    """JSON number hook: NaN, infinities and literals past the double range
    (such as 1e400) are malformed configuration."""
    def number(token):
        value = parse(token)
        if not abs(value) <= sys.float_info.max:
            raise ExprSchemaError(f"number {token:.32} is not a finite double")
        return value
    return number


# the config text with every digit read as 0, and "E" and "+" as "e": a
# number token that may parse past the double range then shows as a run of
# 100 digits (an int, or a mantissa, of 1e99 or more) or as an exponent of
# three digits or more ("e000"; "e+400" reads "ee000"); short of both, a
# literal is below 1e99 * 1e99.  The exponent is found by the pattern's
# literal scan, which is quicker here than a substring search, whose last
# character, 0, is everywhere
_NUMBER_SHAPES = str.maketrans("123456789E+", "000000000ee")
_LONG_DIGITS = "0" * 100
_LONG_EXPONENT = re.compile("e000")
# recursion levels kept spare while the C scanner parses the numbers itself
_HOOK_LEVELS = 50


def _large_number(text):
    """Whether the text may hold a number token past the double range."""
    shapes = text.translate(_NUMBER_SHAPES)
    return _LONG_DIGITS in shapes or _LONG_EXPONENT.search(shapes) is not None


def _load(text):
    """The config JSON, its numbers checked by ``_finite``.

    Unless the text holds a number token that could pass the double range,
    the C scanner parses the numbers itself, with no Python call per
    number: each is then finite, and only NaN and the infinities are
    refused.  Otherwise the numbers go through ``_finite``, which names the
    first, and so does a document nested within ``_HOOK_LEVELS`` of the
    recursion limit, where the hooks' own frames change how deep a
    document can nest: the outcome, error and message, is the hooked
    parse's in every case."""
    if not _large_number(text):
        limit = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(limit - _HOOK_LEVELS)
            try:
                return json.loads(text, parse_constant=_finite(float))
            finally:
                sys.setrecursionlimit(limit)
        except RecursionError:
            pass
    return json.loads(text, parse_float=_finite(float), parse_int=_finite(int),
                      parse_constant=_finite(float))


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
# report rows: one declaration per row kind


def _numbers(shape):
    """The ``%`` template of one number (shape ()) or of a JSON list of
    numbers of that shape: ``%s`` is ``float.__repr__`` for a float and
    ``int.__repr__`` for an int, as ``json.dumps`` writes them, and a
    number's text as it is."""
    if not shape:
        return "%s"
    return "[" + ",".join([_numbers(shape[1:])] * shape[0]) + "]"


def _literal(value):
    """A fixed JSON value (null, true, false, [], a tag, a class or an error
    name) as template text."""
    return json.dumps(value).replace("%", "%%")


def _getter(columns):
    """A row's values at these indices, as a tuple."""
    if len(columns) == 1:
        i = columns[0]
        return lambda row: (row[i],)
    return itemgetter(*columns) if columns else (lambda row: ())


class _Row:
    """One row kind, declared once: the lanes each field reads, the JSON
    object and the CSV columns.

    ``fields`` lays out a row's values, a flat list, in order: each field
    is a number or a list of numbers (its shape), a count ("%d", an int), or
    a nested row (a ``_Row``, its values inline).  A task fills the leading
    fields of a block's rows from the lanes (``values``) and appends the
    rest to each row.

    ``layout(*variant)`` gives, for one combination of a row's flags (its
    variant), the row's JSON object: each key maps to True (the field's
    numbers), to a nested row's own variant, or to a literal that the
    template holds (null, true, false, [], a tag, a class).  ``csv`` gives
    the CSV columns as (headers, key) pairs, each read as the JSON object
    reads its key, unless ``csv_layout(*variant)`` maps the key to another
    field or to literals; a flag is written 0 or 1, null as an empty field
    and a tag or class as it is (none holds a comma, a quote or a line
    break, which csv.writer would quote).

    ``json(variant)`` is the variant's ``%`` template, in sorted-key order,
    and the getter of the values it reads; ``csv_plan(variant)`` is the
    same for a CSV line.  Each is built on first use: the bytes are
    ``json.dumps``' with ``sort_keys=True, separators=(",", ":")``, and
    csv.writer's."""

    def __init__(self, fields, layout, csv=(), csv_layout=None):
        self.fields = fields
        self.layout = layout
        self.csv = csv
        self.csv_layout = csv_layout
        self.spans = {}
        start = 0
        for key, kind in fields.items():
            width = (kind.width if isinstance(kind, _Row)
                     else 1 if kind == "%d" else math.prod(kind))
            self.spans[key] = range(start, start + width)
            start += width
        self.width = start
        self.header = [name for names, _ in csv for name in names]

    def block(self, **fields):
        """The leading fields of a block's rows as one (lanes, k) float
        array, from arrays with one lane per row (complex ones as [re, im]
        pairs); every field up to the last one given is given."""
        n = len(next(iter(fields.values())))
        spans = [self.spans[key] for key in fields]
        block = np.empty((n, max(span.stop for span in spans)))
        for span, value in zip(spans, fields.values()):
            if np.iscomplexobj(value):
                value = np.stack([value.real, value.imag], axis=-1)
            block[:, span.start:span.stop] = np.reshape(value, (n, len(span)))
        return block

    def values(self, **fields):
        """``block``'s rows as one list per lane (``_block_rows``), after
        ``+ 0.0`` over the whole array (no -0.0 is written); and whether the
        array is finite, so that no text written from these values alone
        needs the report's non-finite search."""
        block = self.block(**fields)
        block += 0.0
        return _block_rows(block), bool(np.isfinite(block).all())

    def _template(self, variant, offset):
        parts = []
        columns = []
        layout = self.layout(*variant)
        for key in sorted(layout):
            spec, kind = layout[key], self.fields.get(key)
            start = offset + self.spans[key].start if key in self.spans else None
            if isinstance(kind, _Row) and spec is not None:
                text, read = kind._template(spec, start)
                columns += read
            elif kind is not None and spec is True:
                text = "%d" if kind == "%d" else _numbers(kind)
                columns += range(start, offset + self.spans[key].stop)
            else:
                text = _literal(spec)
            parts.append(f"{_literal(key)}:{text}")
        return "{" + ",".join(parts) + "}", columns

    @cache
    def json(self, variant):
        template, columns = self._template(variant, 0)
        return template, _getter(columns)

    @cache
    def csv_plan(self, variant):
        layout = self.layout(*variant)
        if self.csv_layout is not None:
            layout.update(self.csv_layout(*variant))
        fields = []
        columns = []
        for names, key in self.csv:
            spec = layout.get(key, True)
            if key in self.spans and (spec is True or isinstance(spec, str)):
                # a number field: its own values, or those of the field named
                start = self.spans[key if spec is True else spec].start
                columns += range(start, start + len(names))
                fields += ["%s"] * len(names)
                continue
            if not isinstance(spec, list):
                spec = [spec] * len(names)
            for v in spec:
                # a fixed field as csv.writer writes it: null empty, a flag 0 or 1
                text = "" if v is None else str(int(v) if isinstance(v, bool) else v)
                fields.append(text.replace("%", "%%"))
        return ",".join(fields) + "\n", _getter(columns)

    def text(self, row, variant):
        """A row's JSON text."""
        template, get = self.json(variant)
        return template % get(row)

    def csv_line(self, row, variant):
        """A row's CSV line."""
        template, get = self.csv_plan(variant)
        return template % get(row)


# a block is written from its distinct values where a sample of at least
# _SAMPLED of its values holds at most _DISTINCT_SHARE distinct ones: on a
# 1024 x 30 block the pass breaks even at about 85 % distinct values
_SAMPLED = 64
_DISTINCT_SHARE = 0.75


def _repeats(block):
    """Whether a sample of the block's values repeats enough of them to
    write it from its distinct values: whole rows, spread through the
    block, so that a column of one value shows as repeats."""
    n, k = block.shape
    rows = -(-_SAMPLED // k)
    sample = np.sort(block[::max(1, n // rows)][:rows], axis=None)
    distinct = 1 + np.count_nonzero(sample[1:] != sample[:-1])
    return distinct <= _DISTINCT_SHARE * sample.size


def _block_rows(block):
    """A (lanes, k) float array, with no -0.0, as one list per lane: its
    floats (one ``.tolist()``), or, where its values repeat, their text,
    one ``repr`` per distinct value.  Equal floats have equal text, so
    sorting the values and comparing neighbours finds them (``argsort``:
    ``np.unique`` imports ``numpy.ma`` on its first call); each NaN is
    written on its own.  Each text is repeated over its run of the sorted
    values and put back in place: ``np.cumsum`` of the run starts, the
    other way to number the runs, leaves a small block allocated now and
    then, which pins allocator arenas over a long run."""
    if block.size < 2 or not _repeats(block):
        return block.tolist()
    flat = block.ravel()
    order = np.argsort(flat)
    ordered = flat[order]
    first = np.empty(flat.size, dtype=bool)
    first[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    texts = np.array(list(map(repr, ordered[starts].tolist())), dtype=object)
    rows = np.empty(flat.size, dtype=object)
    rows[order] = np.repeat(texts, np.diff(starts, append=flat.size))
    return rows.reshape(block.shape).tolist()


_CVEC = (3, 2)  # a point of C^3 as three [re, im]
_COMPLEX = (2,)
_BICOMPLEX = (4,)  # [x1, x2, x3, x4]


@cache
def _fibre_row(n_samples, with_q=False):
    """A fibre, with ``n_samples`` sample points: a ``fibres`` row (with
    q), or a ``solve`` root's "fibre".  Its variant is its tag's index."""
    fields = {"base": _CVEC, "direction": _CVEC, "normal": _CVEC, "offset": _COMPLEX,
              "samples": (n_samples, *_CVEC)}
    csv = ()
    if with_q:
        fields["q"] = _BICOMPLEX
        csv = ((["q_x1", "q_x2", "q_x3", "q_x4"], "q"), (["tag"], "tag"),
               ([f"base_{i}{p}" for i in (1, 2, 3) for p in ("re", "im")], "base"),
               ([f"dir_{i}{p}" for i in (1, 2, 3) for p in ("re", "im")], "direction"))

    def layout(tag):
        line = tag == 0 or None
        plane = tag == 1 or None
        out = {"tag": _TAG_NAMES[tag], "base": line, "direction": line, "normal": plane,
               "offset": plane, "samples": line or plane or []}
        if with_q:
            out["q"] = True
        return out

    def csv_layout(tag):
        # a plane's CSV base is its first sample; what is missing is zeros
        zeros = [0] * 6
        return {"base": "base" if tag == 0 else "samples" if tag == 1 and n_samples else zeros,
                "direction": "direction" if tag == 0 else "normal" if tag == 1 else zeros}

    return _Row(fields, layout, csv, csv_layout)


def _root_layout(degenerate, partially, gradient, oriented, fibre):
    g = gradient or None
    return {"q": True, "multiplicity": True, "residual": True, "degenerate": degenerate,
            "partially_degenerate": partially, "gradient": g, "laplacian_abs": g,
            "nullness_abs": g, "gauss": oriented or None, "fibre": (fibre,)}


# a solve root: (degenerate, partially degenerate, has a gradient, oriented,
# its fibre's tag); its point is read by the CSV row alone
_ROOT = _Row(
    {"q": _BICOMPLEX, "residual": (), "gradient": (3, 4), "laplacian_abs": (),
     "nullness_abs": (), "gauss": _CVEC, "fibre": _fibre_row(0), "multiplicity": "%d",
     "point": _CVEC},
    _root_layout,
    csv=((["p1_re", "p1_im", "p2_re", "p2_im", "p3_re", "p3_im"], "point"),
         (["q_x1", "q_x2", "q_x3", "q_x4"], "q"), (["multiplicity"], "multiplicity"),
         (["residual"], "residual"), (["degenerate"], "degenerate"),
         (["partially_degenerate"], "partially_degenerate"),
         (["laplacian_abs"], "laplacian_abs"), (["nullness_abs"], "nullness_abs")))

# a verify --points root: (has a gradient, its fd report's class)
_CHECKED_ROOT = _Row(
    {"q": _BICOMPLEX,
     "implicit": _Row({"laplacian": (), "nullness": ()},
                      lambda: {"laplacian": True, "nullness": True}),
     "fd": _Row({"cr": (), "lambda": _COMPLEX, "laplacian": (), "nullness": ()},
                lambda cls: {"class": cls, "cr": True, "lambda": True, "laplacian": True,
                             "nullness": True})},
    lambda gradient, cls: {"q": True, "implicit": () if gradient else None,
                           "fd": (cls,) if gradient else None})

# a verify --samples row: (its fibre's tag, on the fibre)
_SAMPLE = _Row({"q": _BICOMPLEX, "z": _CVEC, "residual": ()},
               lambda tag, on_fibre: {"q": True, "z": True, "residual": True,
                                      "tag": _TAG_NAMES[tag], "on_fibre": on_fibre})


def _slice_layout(cls, degenerate, outcome):
    """A slice row's object: outcome is None (no check), True (the
    residuals) or the name of the error its check raised."""
    res = outcome is True or None
    out = {"x": True, "branch": True, "q": True, "value": True, "degenerate": degenerate,
           "class": cls, "harmonic_res": res, "null_res": res}
    if isinstance(outcome, str):
        out["error"] = outcome
    return out


# a slice row: (its class, degenerate, its check's outcome)
_SLICE = _Row(
    {"q": _BICOMPLEX, "value": (2,), "x": (3,), "branch": "%d", "harmonic_res": (),
     "null_res": ()},
    _slice_layout,
    csv=((["x1", "x2", "x3"], "x"), (["branch"], "branch"),
         (["q_x1", "q_x2", "q_x3", "q_x4"], "q"), (["value_1", "value_2"], "value"),
         (["class"], "class"), (["harmonic_res"], "harmonic_res"), (["null_res"], "null_res")))


@cache
def _chart_row(value, result):
    """A charts value and its result, of these shapes."""
    return _Row({"value": value, "result": result}, lambda: {"value": True, "result": True})


# a solve or verify --points result, before its roots: its point, then
# "roots", in sorted-key order
_POINT = '{"point":' + _numbers(_CVEC) + ',"roots":['


def _point(z):
    """The values of a point of C^3 (a CVec3)."""
    return tuple(_f(v) for c in z for v in (c.real, c.imag))


# ---------------------------------------------------------------------------
# the report


# a non-finite float's repr as a whole JSON value or CSV field: no key,
# tag, class or error name reads that way
_NON_FINITE = re.compile(r"(?<![^\[,:\n])-?(?:inf|nan)(?![^,\]}\n])")


class _Report:
    """A task's report, written to ``out`` block by block as the task makes
    it: JSON, ``{"results": [...], ...}`` with the results as each row
    kind's text, or CSV, a header and each row kind's lines.

    Each block's text is searched for a non-finite value, which the report
    refuses: the first one is raised (ValueError) by ``close``, after the
    run, so a later domain error comes first, as when the report was
    written whole after the run.  Its message names the value."""

    def __init__(self, out, fmt):
        self.out = out
        self.csv = fmt == "csv"
        self.bad = None
        # a CSV line ends in its newline; JSON results are joined by commas
        self._join = "" if self.csv else ","
        self._separator = ""

    def begin(self, header=()):
        """Start the report: the CSV header, or the JSON results list."""
        self.out.write(",".join(header) + "\n" if self.csv else '{"results":[')

    def extend(self, items, finite=False):
        """Write result items, JSON texts or CSV lines; ``finite``: their
        values are known to be finite, and the text is not searched."""
        if not items:
            return
        text = self._separator + self._join.join(items)
        self._separator = self._join
        # a plain substring search first: the pattern is the slower scan
        if not finite and self.bad is None and ("inf" in text or "nan" in text):
            bad = _NON_FINITE.search(text)
            self.bad = bad and (f"non-finite value {bad.group()} in the "
                                f"{'CSV' if self.csv else 'JSON'} report")
        self.out.write(text)

    def end(self, **tail):
        """Finish the report: the JSON keys after "results"."""
        if not self.csv:
            self.out.write("]" + "".join(f",{_literal(k)}:{_literal(v)}"
                                         for k, v in sorted(tail.items())) + "}\n")

    def close(self):
        """Refuse the report if it holds a non-finite value."""
        if self.bad:
            raise ValueError(self.bad)

    def writer(self, row):
        """Row kind ``row``'s writer in this report's format: ``(values,
        variant) -> item``."""
        return row.csv_line if self.csv else row.text


# ---------------------------------------------------------------------------
# tasks


def _task_solve(config, tol, seed, report):
    data = _parse_data(config)
    points = config.get("points")
    if not isinstance(points, list) or not points:
        raise ExprSchemaError("'solve' needs a non-empty 'points' list")
    pts = [_parse_point(p) for p in points]
    _cap_roots(data, len(pts))
    write = report.writer(_ROOT)
    report.begin(_ROOT.header)
    for batch, points in _stencil_checks(data, pts, _point_lanes, None, None):
        # one FibreBatch over the block's root lanes: the fibre of lane k
        # raises in its turn, before the root's own report
        fibres = FibreBatch(data, batch.implicit.q)
        rows, finite, flags, multiplicity, overflow = _root_lanes(batch, _fibre_lanes(fibres, ()))
        tags = fibres.fibres.tag.tolist()
        items = []
        for z, roots in points:
            point = _point(z)
            first = len(items)
            for k, _ in roots:
                if k == fibres.solved:
                    raise fibres.error
                if overflow[k]:
                    raise _overflow(batch, k, z)
                row = rows[k]
                row.append(multiplicity[k])
                row += point
                items.append(write(row, (*flags[k], tags[k])))
            if not report.csv:
                items[first:] = [_POINT % point + ",".join(items[first:]) + "]}"]
        report.extend(items, finite)
    report.end(task="solve")


def _root_lanes(batch, fibre):
    """A ``solve`` block's root lanes: each lane's leading ``_ROOT`` values,
    with its fibre's fields ``fibre``, and whether they are all finite; each
    lane's flags but the fibre's, its multiplicity, and whether its scalar
    |Laplacian| or |nullness| overflows (``RootBatch.report.overflow``)."""
    implicit, report = batch.implicit, batch.report
    rows, finite = _ROOT.values(q=implicit.q.reals(), residual=implicit.residual,
                        gradient=np.stack([c.reals() for c in implicit.gradient], axis=1),
                        laplacian_abs=report.laplacian_abs, nullness_abs=report.nullness_abs,
                        gauss=np.stack([c.complex() for c in batch.gauss], axis=1),
                        fibre=_fibre_row(0).block(**fibre))
    flags = list(zip(implicit.degenerate.tolist(), implicit.partially_degenerate.tolist(),
                     implicit.has_gradient.tolist(), implicit.oriented.tolist()))
    return rows, finite, flags, implicit.multiplicity.tolist(), report.overflow.tolist()


def _overflow(batch, k, z):
    """The error of root lane k of ``batch``, a root of z, whose scalar
    |Laplacian| or |nullness| passes the double range
    (``RootBatch.report.overflow``)."""
    return RangeOverflowError(f"|Laplacian| or |nullness| overflows at the root "
                              f"q = {batch.implicit.q.item(k)!r} of z = {z!r}")


def _fibre_lanes(batch, ts):
    """A FibreBatch's fibres as ``_fibre_row(len(ts))`` fields."""
    fibres = batch.fibres
    return {"base": fibres.base, "direction": fibres.direction, "normal": fibres.normal,
            "offset": fibres.offset, "samples": batch.samples(ts)}


def _task_fibres(config, tol, seed, report):
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
    row = _fibre_row(n_samples, with_q=True)
    write = report.writer(row)
    report.begin(row.header)
    for block in _blocks(qs):
        batch = FibreBatch(data, BArray.from_reals(block))
        rows, finite = row.values(q=batch.q.reals(), **_fibre_lanes(batch, ts))
        tags = batch.fibres.tag.tolist()
        report.extend([write(rows[k], (tags[k],)) for k in range(batch.solved)], finite)
        if batch.error is not None:
            raise batch.error
    report.end(task="fibres")


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


def _task_verify(config, tol, seed, report):
    data = _parse_data(config)
    tol = tol if tol is not None else 1e-8
    if "samples" in config:
        samples = config["samples"]
        if not isinstance(samples, list) or not samples:
            raise ExprSchemaError("'samples' must be a non-empty list")
        # a point-by-point run parses a sample after the ones before it
        # are checked: a malformed sample is raised after them
        q, z, error = _sample_arrays(samples)
        report.begin()
        for q_block, z_block in zip(_blocks(q), _blocks(z)):
            batch = FibreBatch(data, BArray.from_reals(q_block))
            residual, on_fibre, n, checks_error = batch.checks(z_block, tol)
            rows, finite = _SAMPLE.values(q=batch.q.reals(), z=z_block, residual=residual)
            variants = list(zip(batch.fibres.tag.tolist(), on_fibre.tolist()))
            report.extend([_SAMPLE.text(rows[k], variants[k]) for k in range(n)], finite)
            if checks_error is not None:
                raise checks_error
        if error is not None:
            raise error
        report.end(task="verify")
        return

    points = config.get("points")
    if not isinstance(points, list) or not points:
        raise ExprSchemaError("'verify' needs 'points' or 'samples'")
    pts = [_parse_point(p) for p in points]
    _cap_roots(data, len(pts))
    report.begin()
    for batch, points in _point_roots(data, pts):
        implicit, lanes = batch.implicit, batch.report
        # the fd reports' values are searched as written
        rows, _ = _CHECKED_ROOT.values(q=implicit.q.reals(), implicit=np.stack(
            [lanes.laplacian_abs, lanes.nullness_abs], axis=1))
        has_gradient, overflow = implicit.has_gradient.tolist(), lanes.overflow.tolist()
        items = []
        for z, checks in points:
            texts = []
            # each root's check runs in its turn, after its |Laplacian| and
            # |nullness| may raise
            for k, check in checks:
                if overflow[k]:
                    raise _overflow(batch, k, z)
                row = rows[k]
                cls = None
                if has_gradient[k]:
                    fd = check()
                    cls = fd["class"]
                    row += (fd["cr"], *fd["lambda"], fd["laplacian"], fd["nullness"])
                texts.append(_CHECKED_ROOT.text(row, (has_gradient[k], cls)))
            items.append(_POINT % _point(z) + ",".join(texts) + "]}")
        report.extend(items)
    report.end(task="verify")


def _task_slice(config, tol, seed, report):
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
    coords = _f
    if "grid" in config:
        pts = _grid_points(config["grid"])
        # a grid's coordinates repeat from row to row: each one's text is
        # made once per run
        texts = {v: repr(v + 0.0) for v in set(chain.from_iterable(pts))}
        coords = texts.__getitem__
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
    write = report.writer(_SLICE)
    report.begin(_SLICE.header)
    for batch, points in _slice_roots(kind, data, pts, atol=atol, fd=run_fd):
        rows, flags = _slice_lanes(kind, batch)
        items = []
        for x, checks in points:
            x = list(map(coords, x))
            for branch, (k, check) in enumerate(checks):
                row = rows[k]
                row += x
                row.append(branch)
                outcome = None
                if check is not None:
                    try:
                        hr, nr = check()
                        row += (_f(hr), _f(nr))
                        outcome = True
                    except BhmError as exc:
                        outcome = type(exc).__name__
                items.append(write(row, (*flags[k], outcome)))
        report.extend(items)
    report.end(slice=kind.value, task="slice")


def _slice_lanes(kind, batch):
    """The ``slice`` rows of a batch's root lanes: each lane's leading
    ``_SLICE`` values (q, and the value ``project_codomain`` gives) and its
    class (``classify_point``'s, None without a gradient) and
    ``degenerate``.  A root lane's row here is its solution's wherever
    ``solve_phi`` returns, since the lanes hold its values and
    ``classify_point`` runs the ``_null_parts`` that ``solve_phi`` ran, so
    no row here raises where its solution's would."""
    implicit = batch.implicit
    q = implicit.q
    _, x, y = _projection(kind, q.z1.complex(), q.z2.complex())
    kinds = _class_index(implicit.n2, implicit.cn_abs, CLASSIFY_TOL).tolist()
    cls = [_CLASS_NAMES[c] if g else None
           for c, g in zip(kinds, implicit.has_gradient.tolist())]
    # the residuals' values are searched as written
    rows, _ = _SLICE.values(q=q.reals(), value=np.stack([x, y], axis=-1))
    return rows, list(zip(cls, implicit.degenerate.tolist()))


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


def _task_charts(config, tol, seed, report):
    section = config.get("charts")
    if not isinstance(section, dict):
        raise ExprSchemaError("'charts' task needs a 'charts' object")
    op = section.get("op", "transition")
    values = section.get("values")
    if not isinstance(values, list) or not values:
        raise ExprSchemaError("'charts' needs a non-empty 'values' list")
    if op == "transition":
        try:
            src = Chart(section.get("from"))
            dst = Chart(section.get("to"))
        except ValueError:
            raise ExprSchemaError("transition needs valid 'from'/'to' charts")
        report.begin()
        row = _chart_row(_BICOMPLEX, _BICOMPLEX)
        at = row.spans["result"].start
        # a value is parsed after the ones before it are transitioned: a
        # malformed value is raised after them
        parsed, error = _bicomplex_rows(values)
        fn = transition_holofn(src, dst)
        for block in _blocks(parsed):
            q = BArray.from_reals(block)
            with np.errstate(all="ignore"):
                value, flagged = _evaluate(fn, *q.ringleb())
            rows, finite = row.values(value=q.reals(), result=value.reals())
            # a flagged lane (a pole, an overflow) takes the scalar path in
            # its turn, which raises OutOfDomainError where it does
            scalar = np.flatnonzero(flagged).tolist()
            for k in scalar:
                try:
                    rows[k][at:] = _b(transition(src, dst, q.item(k)))
                except OverflowError:  # an abs of finite parts past the double range
                    raise RangeOverflowError(f"'transition' overflows from chart {src.value} "
                                             f"to chart {dst.value} at the value "
                                             f"{q.item(k)!r}") from None
            report.extend([row.text(r, ()) for r in rows], finite and not scalar)
        if error is not None:
            raise error
    elif op in ("to_point", "from_point"):
        try:
            space = Space(section.get("space"))
            ch = Chart(section.get("from") or section.get("chart"))
        except ValueError:
            raise ExprSchemaError(f"'{op}' needs valid 'space' and chart")
        report.begin()
        _, n, k = _SPACE_POINTS[space]
        # a point's values are the numbers of its JSON, as given or as to_json gives them
        to_point = op == "to_point"
        row = _chart_row(_BICOMPLEX, (n, k)) if to_point else _chart_row((n, k), _BICOMPLEX)
        for v in values:
            try:
                if to_point:
                    q = _parse_bicomplex(v)
                    numbers = _b(q) + [x for c in chart_to_point(space, ch, q).to_json()
                                       for x in c]
                else:
                    point = _parse_space_point(space, v)
                    numbers = [x for c in v for x in c] + _b(point_to_chart(space, ch, point))
            except OverflowError:  # a norm or a power of finite parts past the double range
                raise RangeOverflowError(f"'{op}' overflows at the {space.value} chart "
                                         f"{ch.value} value {v!r}") from None
            report.extend([row.text(numbers, ())])
    else:
        raise ExprSchemaError(f"unknown charts op {op!r}")
    report.end(task="charts")


_RUNNERS = {
    "solve": _task_solve,
    "fibres": _task_fibres,
    "verify": _task_verify,
    "slice": _task_slice,
    "charts": _task_charts,
}
# the tasks with a CSV form
_CSV_TASKS = ("solve", "fibres", "slice")


def run(config, out, fmt=None, tol=None, seed=0) -> int:
    """Execute one scene configuration, writing the report to ``out`` as the
    task makes it: on an error, ``out`` may hold part of it."""
    if not isinstance(config, dict):
        raise ExprSchemaError("configuration must be a JSON object")
    task = config.get("task")
    if task not in TASKS:
        raise ExprSchemaError(f"'task' must be one of {TASKS}, got {task!r}")
    fmt = fmt or config.get("format", "json")
    if fmt not in ("json", "csv"):
        raise ExprSchemaError(f"format must be 'json' or 'csv', got {fmt!r}")
    if fmt == "csv" and task not in _CSV_TASKS:
        # the run's own errors come first, as when the report was written
        # after the run
        _RUNNERS[task](config, tol, seed, _Report(io.StringIO(), "json"))
        raise ExprSchemaError(f"task {task!r} has no CSV form; use json")
    report = _Report(out, fmt)
    _RUNNERS[task](config, tol, seed, report)
    report.close()
    return 0


class _Pieces(list):
    """A report's text as the pieces written to it."""
    write = list.append


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
    parser.add_argument("--tol", type=float, default=None,
                        help="residual/projection tolerance override")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized sampling tasks")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # a NaN tolerance would pass every check, a negative one fail them all
    if args.tol is not None and not 0 <= args.tol <= sys.float_info.max:
        _parser().error(f"argument --tol: not a finite number, 0 or more: {args.tol!r}")

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
        config = _load(text)
    except (OSError, ValueError, RecursionError) as exc:
        return fail(2, exc)
    except MemoryError as exc:
        return fail(3, exc)

    if args.task:
        if not isinstance(config, dict):
            return fail(2, ExprSchemaError("configuration must be a JSON object"))
        config = dict(config)
        config["task"] = args.task

    # the report's pieces, as run writes them: one string of the whole
    # report, and its encoded copy, doubled the peak of a large report
    buffer = _Pieces()
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
            sys.stdout.writelines(buffer)
        else:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.writelines(buffer)
    except OSError as exc:
        return fail(3, exc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
