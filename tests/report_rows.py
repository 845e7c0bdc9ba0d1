"""The CLI's report rows built as dicts and written with ``json.dumps`` and
``csv.writer``: the reference the CLI's row templates are tested against.

A report here is the dict tree ``{"task": ..., "results": [...]}`` that
``bhm.cli.run`` writes as text; ``write`` gives its bytes in either format.
"""

import csv
import io
import json
import re

from bhm import cli


def f(x):
    return float(x) + 0.0  # normalize -0.0 for byte-stable output


def c(z):
    return [f(z.real), f(z.imag)]


def b(q):
    return [f(v) for v in q.to_reals()]


def cvec(v):
    return [c(x) for x in v]


def fibre_json(fibre, ts):
    """A FibreDescription's row, without "q", with its samples at ts."""
    out = {"tag": fibre.tag.value, "base": None, "direction": None, "normal": None,
           "offset": None, "samples": [cvec(z) for z in fibre.sample_points(ts)]}
    if fibre.base is not None:
        out["base"] = cvec(fibre.base)
    if fibre.direction is not None:
        out["direction"] = cvec(fibre.direction)
    if fibre.normal is not None:
        out["normal"] = cvec(fibre.normal)
        out["offset"] = c(fibre.offset)
    return out


def _refuse(constant):
    raise ValueError(f"non-finite value {float(constant)!r} in the JSON report")


def dumps(report):
    """A report's JSON, as ``bhm.cli.run`` writes it; ValueError names its
    first non-finite value (``json.loads`` meets them in text order)."""
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    if "NaN" in text or "Infinity" in text:
        json.loads(text, parse_constant=_refuse)
    return text + "\n"


def _solve_rows(report):
    for res in report["results"]:
        p = [v for x in res["point"] for v in x]
        for r in res["roots"]:
            yield p + r["q"] + [r["multiplicity"], r["residual"], int(r["degenerate"]),
                                int(r["partially_degenerate"]), r["laplacian_abs"],
                                r["nullness_abs"]]


def _fibre_rows(report):
    for r in report["results"]:
        base = r["base"]
        if base is None and r["samples"]:
            base = r["samples"][0]
        base = [v for x in (base or [[0, 0]] * 3) for v in x]
        vec = r["direction"] if r["direction"] is not None else r["normal"]
        vec = [v for x in (vec or [[0, 0]] * 3) for v in x]
        yield r["q"] + [r["tag"]] + base + vec


def _slice_rows(report):
    for r in report["results"]:
        yield (r["x"] + [r["branch"]] + r["q"] + r["value"]
               + [r["class"], r["harmonic_res"], r["null_res"]])


_CSV = {"solve": _solve_rows, "fibres": _fibre_rows, "slice": _slice_rows}
_HEADERS = {
    "solve": ["p1_re", "p1_im", "p2_re", "p2_im", "p3_re", "p3_im", "q_x1", "q_x2", "q_x3",
              "q_x4", "multiplicity", "residual", "degenerate", "partially_degenerate",
              "laplacian_abs", "nullness_abs"],
    "fibres": ["q_x1", "q_x2", "q_x3", "q_x4", "tag", "base_1re", "base_1im", "base_2re",
               "base_2im", "base_3re", "base_3im", "dir_1re", "dir_1im", "dir_2re", "dir_2im",
               "dir_3re", "dir_3im"],
    "slice": ["x1", "x2", "x3", "branch", "q_x1", "q_x2", "q_x3", "q_x4", "value_1",
              "value_2", "class", "harmonic_res", "null_res"],
}
_NON_FINITE_FIELD = re.compile(r"(?<![^,\n])(?:-?inf|nan)(?![^,\n])")


def csv_text(task, report):
    """A ``solve``, ``fibres`` or ``slice`` report's CSV, as ``bhm.cli.run``
    writes it; ValueError names its first non-finite value."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_HEADERS[task])
    writer.writerows(_CSV[task](report))
    text = out.getvalue()
    bad = _NON_FINITE_FIELD.search(text)
    if bad:
        raise ValueError(f"non-finite value {bad.group()} in the CSV report")
    return text


def write(report, fmt="json"):
    """A report's text in either format."""
    return csv_text(report["task"], report) if fmt == "csv" else dumps(report)


# a non-finite value's repr in a report's text, spelled as json.loads reads it
_NON_FINITE_JSON = re.compile(r"(?<=[\[,:])(-?)(inf|nan)(?=[,\]}])")


def results(task, config, tol=None, seed=0):
    """The results of one task's run, as the report's JSON text parses,
    non-finite values included: what a run writes, before the report is
    refused for them."""
    out = io.StringIO()
    cli._RUNNERS[task](config, tol, seed, cli._Report(out, "json"))
    text = _NON_FINITE_JSON.sub(lambda m: m[1] + ("Infinity" if m[2] == "inf" else "NaN"),
                                out.getvalue())
    return json.loads(text)["results"]


def block_lanes(n, config):
    """The ``weierstrass.BLOCK_LANES`` that runs ``config`` in blocks of n:
    n anchors per root pass of components of degree 2 (``solve``,
    ``verify --points``, ``slice``: 4 lanes an anchor), n values per
    one-lane pass (``fibres``, ``verify --samples``, ``charts``)."""
    one_lane = config["task"] in ("fibres", "charts") or "samples" in config
    return n if one_lane else 4 * n
