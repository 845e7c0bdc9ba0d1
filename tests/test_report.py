"""The report writer: each row kind's template text equals ``json.dumps``'
of the row's dict, and its CSV row equals the dict's CSV row."""

import contextlib
import io
import json
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bhm import cli
import report_rows as rr

_MAX = 1.7976931348623157e308
# the values where repr switches format or loses digits, and any finite float
_FLOATS = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585e-313, 1e16, 9999999999999998.0,
                     1e-5, 1e-4, 0.0001, _MAX, -_MAX, 1.0, -1.5, 0.1]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_COUNTS = st.integers(0, 2 ** 70)
_TAGS = st.sampled_from([0, 1, 2])
_CLASSES = st.sampled_from([None, "zero_differential", "regular", "degenerate"])


def _dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


class _Values:
    """A row's values, drawn in order, read back field by field: each float
    is held as itself or as its repr, the text ``_block_rows`` hands over
    for a block whose values repeat (``at``: the floats' indices)."""

    def __init__(self, data):
        self.data = data
        self.values = []
        self.at = []

    def floats(self, n):
        out = self.data.draw(st.lists(_FLOATS, min_size=n, max_size=n))
        as_text = self.data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        self.at += range(len(self.values), len(self.values) + n)
        self.values += [repr(x) if text else x for x, text in zip(out, as_text)]
        return out

    def count(self):
        n = self.data.draw(_COUNTS)
        self.values.append(n)
        return n


def _pairs(values):
    return [values[i:i + 2] for i in range(0, len(values), 2)]


def _fibre(values, tag, n_samples):
    """A fibre's values and its dict, as ``rr.fibre_json`` builds it."""
    base, direction, normal = (_pairs(values.floats(6)) for _ in range(3))
    offset = values.floats(2)
    samples = [_pairs(values.floats(6)) for _ in range(n_samples)]
    line, plane = tag == 0, tag == 1
    return {"tag": cli._TAG_NAMES[tag], "base": base if line else None,
            "direction": direction if line else None, "normal": normal if plane else None,
            "offset": offset if plane else None, "samples": samples if line or plane else []}


def _csv(row, variant, kind):
    return ",".join(kind.header) + "\n" + kind.csv_line(list(row), variant)


def _assert_non_finite_found(v, kind, variant):
    """A non-finite value, a float or its repr, planted at a drawn float
    field of the row is the first match of the report's pattern in the
    row's JSON text and CSV line, at that field's place, where the text
    reads that field; the row as drawn gives no match."""
    i = v.data.draw(st.sampled_from(v.at))
    bad = v.data.draw(st.sampled_from([math.inf, -math.inf, math.nan]))
    planted, marked = list(v.values), list(v.values)
    planted[i] = v.data.draw(st.sampled_from([bad, repr(bad)]))
    marked[i] = "@"
    for render in [kind.text, kind.csv_line] if kind.header else [kind.text]:
        assert cli._NON_FINITE.search(render(list(v.values), variant)) is None
        at = render(marked, variant).find("@")
        found = cli._NON_FINITE.search(render(planted, variant))
        assert (found and (found.start(), found.group())) == (
            (at, repr(bad)) if at >= 0 else None)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data(), flags=st.tuples(st.booleans(), st.booleans(), st.booleans(),
                                       st.booleans(), _TAGS))
def test_solve_root_text_and_csv_are_the_dicts(data, flags):
    degenerate, partially, gradient, oriented, tag = flags
    v = _Values(data)
    q = v.floats(4)
    residual, = v.floats(1)
    grad = [v.floats(4) for _ in range(3)]
    laplacian, nullness = v.floats(2)
    gauss = _pairs(v.floats(6))
    fibre = _fibre(v, tag, 0)
    multiplicity = v.count()
    point = _pairs(v.floats(6))
    root = {"q": q, "multiplicity": multiplicity, "residual": residual,
            "degenerate": degenerate, "partially_degenerate": partially,
            "gradient": grad if gradient else None,
            "laplacian_abs": laplacian if gradient else None,
            "nullness_abs": nullness if gradient else None,
            "gauss": gauss if oriented else None, "fibre": fibre}
    assert cli._ROOT.text(list(v.values), flags) == _dumps(root)
    report = {"task": "solve", "results": [{"point": point, "roots": [root]}]}
    assert _csv(v.values, flags, cli._ROOT) == rr.csv_text("solve", report)
    _assert_non_finite_found(v, cli._ROOT, flags)
    # a point's values are written with no -0.0
    assert cli._POINT % cli._point(complex(*p) for p in point) == \
        _dumps({"point": [[rr.f(x) for x in p] for p in point], "roots": []})[:-2]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data(), tag=_TAGS, n_samples=st.integers(0, 3))
def test_fibres_row_text_and_csv_are_the_dicts(data, tag, n_samples):
    v = _Values(data)
    row = _fibre(v, tag, n_samples)
    row["q"] = v.floats(4)
    kind = cli._fibre_row(n_samples, with_q=True)
    assert kind.text(list(v.values), (tag,)) == _dumps(row)
    report = {"task": "fibres", "results": [row]}
    assert _csv(v.values, (tag,), kind) == rr.csv_text("fibres", report)
    _assert_non_finite_found(v, kind, (tag,))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data(), gradient=st.booleans(), cls=_CLASSES.filter(bool))
def test_verify_points_root_text_is_the_dict(data, gradient, cls):
    v = _Values(data)
    root = {"q": v.floats(4), "implicit": None, "fd": None}
    laplacian, nullness = v.floats(2)
    cr, = v.floats(1)
    lam = v.floats(2)
    fd_laplacian, fd_nullness = v.floats(2)
    if gradient:
        root["implicit"] = {"laplacian": laplacian, "nullness": nullness}
        root["fd"] = {"laplacian": fd_laplacian, "nullness": fd_nullness, "cr": cr,
                      "class": cls, "lambda": lam}
    assert cli._CHECKED_ROOT.text(list(v.values), (gradient, cls)) == _dumps(root)
    _assert_non_finite_found(v, cli._CHECKED_ROOT, (gradient, cls))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data(), tag=_TAGS, on_fibre=st.booleans())
def test_verify_samples_row_text_is_the_dict(data, tag, on_fibre):
    v = _Values(data)
    row = {"q": v.floats(4), "z": _pairs(v.floats(6)), "residual": v.floats(1)[0],
           "tag": cli._TAG_NAMES[tag], "on_fibre": on_fibre}
    assert cli._SAMPLE.text(list(v.values), (tag, on_fibre)) == _dumps(row)
    _assert_non_finite_found(v, cli._SAMPLE, (tag, on_fibre))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data(), cls=_CLASSES, degenerate=st.booleans(),
       outcome=st.sampled_from([None, True, "BranchJumpError", "NotInSliceError"]))
def test_slice_row_text_and_csv_are_the_dicts(data, cls, degenerate, outcome):
    v = _Values(data)
    q = v.floats(4)
    value = v.floats(2)
    x = v.floats(3)
    branch = v.count()
    residuals = v.floats(2)
    row = {"x": x, "branch": branch, "q": q, "value": value, "degenerate": degenerate,
           "class": cls, "harmonic_res": None, "null_res": None}
    if outcome is True:
        row["harmonic_res"], row["null_res"] = residuals
    elif outcome is not None:
        row["error"] = outcome
    variant = (cls, degenerate, outcome)
    assert cli._SLICE.text(list(v.values), variant) == _dumps(row)
    report = {"task": "slice", "results": [row]}
    assert _csv(v.values, variant, cli._SLICE) == rr.csv_text("slice", report)
    _assert_non_finite_found(v, cli._SLICE, variant)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data(), shapes=st.sampled_from([((4,), (4,)), ((4,), (3, 2)), ((4,), (3, 4)),
                                               ((4, 2), (4,))]))
def test_charts_row_text_is_the_dict(data, shapes):
    value_shape, result_shape = shapes
    v = _Values(data)

    def draw(shape):
        if len(shape) == 1:
            # a from_point value keeps its JSON ints
            return [v.count() if data.draw(st.booleans()) else v.floats(1)[0]
                    for _ in range(shape[0])]
        return [draw(shape[1:]) for _ in range(shape[0])]

    row = {"value": draw(value_shape), "result": draw(result_shape)}
    assert cli._chart_row(*shapes).text(list(v.values), ()) == _dumps(row)


# ---------------------------------------------------------------------------
# a block written from its distinct values

_BLOCK_FLOATS = [-0.0, 0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 1e16,
                 9999999999999998.0, 1e-5, 0.1, -1.5]


@st.composite
def _blocks(draw):
    """A (rows, 30) block of a ``fibres`` row's values: repeated values,
    columns equal to other columns, all-equal blocks, single rows."""
    n = draw(st.sampled_from([1, 2, 3, 17, 70]))
    pool = draw(st.lists(st.one_of(st.sampled_from(_BLOCK_FLOATS), st.floats()),
                         min_size=1, max_size=12))
    rows = draw(st.one_of(
        st.just([[pool[0]] * 30] * n),
        st.lists(st.lists(st.sampled_from(pool), min_size=30, max_size=30),
                 min_size=n, max_size=n)))
    block = np.array(rows, dtype=float)
    for i, j in draw(st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=8)):
        block[:, i] = block[:, j]
    if draw(st.booleans()):  # a block of distinct values, but for a few columns
        distinct = draw(st.lists(st.floats(), min_size=n * 30, max_size=n * 30))
        block = np.where(block == pool[0], np.reshape(distinct, (n, 30)), block)
    return block


@pytest.mark.parametrize("dedup", [None, True, False], ids=["sampled", "forced", "never"])
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(block=_blocks(), tag=_TAGS)
def test_a_block_is_written_as_its_values_one_by_one(dedup, block, tag):
    # each row's JSON text and CSV row from the block's rows equal those
    # from its values each written by its own %r, whether the block is
    # written from its distinct values or not
    kind = cli._fibre_row(1, with_q=True)
    q, base, direction, normal, offset, samples = np.split(block, [4, 10, 16, 22, 24], axis=1)

    def complex_lanes(pairs):
        lanes = np.empty((len(pairs), pairs.shape[1] // 2), dtype=complex)
        lanes.real, lanes.imag = pairs[:, 0::2], pairs[:, 1::2]
        return lanes

    fields = {"base": complex_lanes(base), "direction": complex_lanes(direction),
              "normal": complex_lanes(normal), "offset": complex_lanes(offset)[:, 0],
              "samples": complex_lanes(samples), "q": q}
    with mock.patch.object(cli, "_repeats", lambda b: dedup) if dedup is not None \
            else contextlib.nullcontext():
        rows, finite = kind.values(**fields)
    values = (np.concatenate([base, direction, normal, offset, samples, q], axis=1) + 0.0)
    assert finite == bool(np.isfinite(values).all())
    template, get = kind.json((tag,))
    by_value = template.replace("%s", "%r")
    for row, want in zip(rows, values.tolist()):
        assert kind.text(row, (tag,)) == by_value % get(want)
        assert _csv(row, (tag,), kind) == _csv(want, (tag,), kind)
        assert [str(v) for v in row] == [repr(v) for v in want]


def test_a_degenerate_plane_block_writes_each_distinct_value_once(monkeypatch):
    # constant G with CN(G) = -1 and H a multiple of G: every fibre is one
    # degenerate plane, so a block repeats one normal, offset and sample in
    # every row; each distinct value of a block gets one repr, and no float
    # is left in a row for its template to repr again
    a, mu = complex(0.8, -0.3), complex(0.4, 0.7)
    data = {"G": {"f1": {"op": "const", "value": [a.real, a.imag]},
                  "f2": {"op": "const", "value": [(-1 / a).real, (-1 / a).imag]}},
            "H": {"f1": {"op": "const", "value": [(mu * a).real, (mu * a).imag]},
                  "f2": {"op": "const", "value": [(-mu / a).real, (-mu / a).imag]}}}
    rng = random.Random(22)
    config = {"task": "fibres", "data": data, "samples": 2,
              "params": [[rng.uniform(-1.5, 1.5) for _ in range(4)] for _ in range(1500)]}
    calls = []
    distinct = []
    block_rows = cli._block_rows

    def counting_repr(x):
        calls.append(x)
        return repr(x)

    def recording(block):
        distinct.append(len(set(block.ravel().tolist())))
        rows = block_rows(block)
        assert all(type(v) is str for row in rows for v in row)
        return rows

    monkeypatch.setattr(cli, "repr", counting_repr, raising=False)
    monkeypatch.setattr(cli, "_block_rows", recording)
    out = io.StringIO()
    cli.run(config, out)
    assert len(distinct) == 2  # 1 024 values, then 476
    assert len(calls) == sum(distinct) < 0.3 * 1500 * cli._fibre_row(2, with_q=True).width
    monkeypatch.undo()
    assert out.getvalue() == rr.write({"task": "fibres", "results": rr.results("fibres", config)})
