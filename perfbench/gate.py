"""Correctness gate: every scene's stdout is parsed strictly and checked.

A check raises ``GateError`` with a one-line reason; ``run.drive`` counts the
scene as failed.  The generators keep every point off the singular sets, so
every root must carry its derivatives.  Documented outcomes that are not
failures (branch-jump rows, roots dropped as not in the slice) are returned
as counters instead.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

# tier-1 criterion 5 and 7 tolerance for finite-difference residuals
FD_TOL = 1e-6
# implicit residuals, relative to max(1, |grad|^2)
IMPLICIT_RTOL = 1e-8
# chart round trips, relative to max(1, |value|)
ROUNDTRIP_RTOL = 1e-12

_NUMBER = re.compile(r"-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?\Z")

SLICE_HEADER = ["x1", "x2", "x3", "branch", "q_x1", "q_x2", "q_x3", "q_x4",
                "value_1", "value_2", "class", "harmonic_res", "null_res"]


class GateError(Exception):
    """A scene's output failed a correctness check."""


def _reject_constant(token):
    raise GateError(f"non-standard JSON token {token}")


def strict_json(text: str):
    """Parse one JSON document; NaN and Infinity tokens are rejected."""
    if not text.endswith("\n"):
        raise GateError("output does not end with a newline")
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise GateError(f"stdout is not JSON: {exc}") from None


def strict_csv(text: str, header):
    """Rows of a CSV report as dicts; every non-empty field outside the
    ``class`` column must be a JSON-style number."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        raise GateError(f"unexpected CSV header {rows[:1]!r}")
    out = []
    for row in rows[1:]:
        if len(row) != len(header):
            raise GateError(f"CSV row has {len(row)} fields, want {len(header)}")
        rec = dict(zip(header, row))
        for key, value in rec.items():
            if key != "class" and value != "" and not _NUMBER.match(value):
                raise GateError(f"CSV field {key}={value!r} is not a number")
        out.append(rec)
    return out


def _expect(cond, msg):
    if not cond:
        raise GateError(msg)


def _count(report, key, n):
    _expect(isinstance(report, dict) and isinstance(report.get("results"), list),
            "report has no results list")
    _expect(len(report["results"]) == n,
            f"{len(report['results'])} {key}, want {n}")
    return report["results"]


def check_slice_csv(text, points, roots_per_point):
    """Slice rows: at least one row at every point of the scene and none
    elsewhere, at most ``roots_per_point`` each (fewer are counted as
    not-in-slice drops); every row classified; residuals within FD_TOL."""
    rows_at = dict.fromkeys((tuple(float(v) for v in p) for p in points), 0)
    counters = {"rows": 0, "branch_jump_rows": 0, "not_in_slice_drops": 0}
    for rec in strict_csv(text, SLICE_HEADER):
        x = (float(rec["x1"]), float(rec["x2"]), float(rec["x3"]))
        _expect(x in rows_at, f"row at unexpected point {x}")
        rows_at[x] += 1
        counters["rows"] += 1
        _expect(rec["class"] != "", f"row without a gradient at {x}")
        if rec["harmonic_res"] == "" and rec["null_res"] == "":
            counters["branch_jump_rows"] += 1
            continue
        for key in ("harmonic_res", "null_res"):
            _expect(rec[key] != "", f"{key} missing on a row with gradient")
            _expect(float(rec[key]) <= FD_TOL, f"{key} {rec[key]} > {FD_TOL}")
    for x, n in rows_at.items():
        _expect(1 <= n <= roots_per_point,
                f"{n} rows at {x}, want 1 to {roots_per_point}")
        counters["not_in_slice_drops"] += roots_per_point - n
    return counters


def check_verify_points(text, n_points, roots_per_point):
    """Every point has all its (simple) roots, each with implicit residuals
    within IMPLICIT_RTOL (the verify report carries no gradient, so the
    scale is 1) and FD residuals within FD_TOL."""
    results = _count(strict_json(text), "points", n_points)
    counters = {"roots": 0}
    for res in results:
        _expect(len(res["roots"]) == roots_per_point,
                f"{len(res['roots'])} roots, want {roots_per_point}")
        for root in res["roots"]:
            counters["roots"] += 1
            _expect(root["implicit"] is not None and root["fd"] is not None,
                    "root without a gradient")
            for key in ("laplacian", "nullness"):
                _expect(root["implicit"][key] <= IMPLICIT_RTOL,
                        f"implicit {key} {root['implicit'][key]:.3e}")
                _expect(root["fd"][key] <= FD_TOL,
                        f"fd {key} {root['fd'][key]:.3e} > {FD_TOL}")
    return counters


def check_solve(text, n_points, roots_per_point):
    """Every point has all its roots (with multiplicity), each with a
    gradient; implicit Laplacian and nullness within
    IMPLICIT_RTOL * max(1, |grad|^2)."""
    results = _count(strict_json(text), "points", n_points)
    counters = {"roots": 0}
    for res in results:
        total = sum(r["multiplicity"] for r in res["roots"])
        _expect(total == roots_per_point,
                f"{total} roots with multiplicity, want {roots_per_point}")
        for root in res["roots"]:
            counters["roots"] += 1
            _expect(root["gradient"] is not None, "root without a gradient")
            g2 = sum(v * v for q in root["gradient"] for v in q)
            tol = IMPLICIT_RTOL * max(1.0, g2)
            for key in ("laplacian_abs", "nullness_abs"):
                _expect(root[key] <= tol, f"{key} {root[key]:.3e} > {tol:.3e}")
    return counters


def check_fibres(text, n_params, n_samples, tag=None):
    """One row per parameter, ``n_samples`` samples each on a line or plane;
    non-null line directions are unit (d.d = 1).  Returns the rows."""
    results = _count(strict_json(text), "fibres", n_params)
    for row in results:
        _expect(row["tag"] in ("non_null_line", "degenerate_plane", "empty"),
                f"unknown tag {row['tag']!r}")
        _expect(tag is None or row["tag"] == tag,
                f"tag {row['tag']!r}, want {tag!r}")
        if row["tag"] == "empty":
            continue
        _expect(len(row["samples"]) == n_samples,
                f"{len(row['samples'])} samples, want {n_samples}")
        if row["tag"] == "non_null_line":
            d = [complex(*c) for c in row["direction"]]
            dd = sum(c * c for c in d)
            scale = max(1.0, sum(abs(c) ** 2 for c in d))
            _expect(abs(dd - 1) <= IMPLICIT_RTOL * scale,
                    f"direction not unit: d.d = {dd}")
    return results


def check_samples(text, fibre_rows):
    """Every exported sample re-validates on its fibre with the same tag."""
    expected = [(row["q"], row["tag"]) for row in fibre_rows
                for _ in row["samples"]]
    results = _count(strict_json(text), "samples", len(expected))
    for res, (q, tag) in zip(results, expected):
        _expect(res["q"] == q, "sample reported at another parameter")
        _expect(res["tag"] == tag, f"sample tag {res['tag']!r}, fibre {tag!r}")
        _expect(res["on_fibre"] is True, f"sample off its fibre at q={q}")
    return {"samples": len(results)}


def check_charts(text, values):
    """One finite result per value; returns the results."""
    results = _count(strict_json(text), "values", len(values))
    for res, v in zip(results, values):
        _expect(res["value"] == v, "transition reported for another value")
        _expect(len(res["result"]) == 4, "transition result is not bicomplex")
    return [res["result"] for res in results]


def check_roundtrip(text, sent, original):
    """The inverse transition returns the original values."""
    back = check_charts(text, sent)
    for b, a in zip(back, original):
        err = math.sqrt(sum((x - y) ** 2 for x, y in zip(b, a)))
        scale = max(1.0, math.sqrt(sum(x * x for x in a)))
        _expect(err <= ROUNDTRIP_RTOL * scale,
                f"chart round trip off by {err:.3e} at {a}")
    return {"values": len(back)}
