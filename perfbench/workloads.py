"""Scene generators for the three workloads.

Each workload is an endless, seeded stream of cycles of ``Scene``s: a CLI
argument list, a config for stdin, the number of input points, and the gate
check for its stdout.  A cycle holds every scene kind of the workload once
(``fibres-roundtrip``: twice, and the charts once), and ``run.drive`` stops
only between cycles, so every run has the same mix of kinds.  A scene may
carry a follow-up built from its own stdout (samples re-validated after
``fibres``, the inverse chart transition after a forward one); ``run.drive``
runs it next, so the stream stays deterministic for a given seed as long as
the program's output is.

Why these workloads:

* ``stencil`` -- real slices and ``verify --points`` on the quadratic
  radial, disc and projection data.  Nearly every ``solve_phi`` call comes
  from a finite-difference stencil that reads only ``q``: a roots-only
  stencil should show here.
* ``solve-dense`` -- ``solve`` on random cubic G and quadratic H: degree-6
  components, companion-matrix roots, every root's derivatives and fibre
  read.  No stencil, so a roots-only stencil should leave it flat.
* ``fibres-roundtrip`` -- the forward map q -> fibre, exported samples
  re-validated, chart transitions there and back.  No root finding and no
  stencil: kernel, ``holo`` evaluation and ``geometry`` costs.

Points are kept off the singular sets as tier-1 criteria 5 and 7 do (axis,
light cone, root collisions), so every operation succeeds and every
residual is within the gate's tolerance.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from typing import Callable

import gate

WORKLOADS = ("stencil", "solve-dense", "fibres-roundtrip")


@dataclass
class Scene:
    kind: str
    config: dict
    points: int
    check: Callable[[str], dict]
    argv: list = field(default_factory=list)
    then: Callable[[str], "Scene"] | None = None

    def stdin(self) -> str:
        return json.dumps(self.config)


# ---------------------------------------------------------------------------
# expression JSON


def const(z):
    z = complex(z)
    return {"op": "const", "value": [z.real, z.imag]}


VAR = {"op": "var"}


def mul(a, b):
    return {"op": "mul", "args": [a, b]}


def horner(coeffs):
    """c0 + q*(c1 + q*(c2 + ...)) as an expression tree."""
    e = const(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        e = {"op": "add", "args": [const(c), mul(VAR, e)]}
    return e


def _rc(rng, s=1.0):
    return complex(rng.uniform(-s, s), rng.uniform(-s, s))


def _rc_min(rng, lo, s=1.0):
    while True:
        z = _rc(rng, s)
        if abs(z) >= lo:
            return z


# ---------------------------------------------------------------------------
# stencil


# slice data (g, h) as HoloFn JSON; Minkowski kinds multiply both by i1
SLICE_DATA = {
    "projection": ({"f": const(0)}, {"f": mul(const(0.5), VAR)}),
    "radial": ({"f": VAR}, {"f": const(0)}),
    # h = q*i2: Ringleb parts (i q, -i q)
    "disc": ({"f": VAR}, {"f1": mul(const(1j), VAR), "f2": mul(const(-1j), VAR)}),
    # h = q*j: Ringleb parts (-q, q)
    "disc_j": ({"f": VAR}, {"f1": mul(const(-1), VAR), "f2": VAR}),
}


# projectable roots at a point off the singular sets: the most slice rows a
# grid point can have (the four roots of the quadratic components, less
# those that are never in the slice)
SLICE_ROOTS = {"projection": 1, "radial": 2, "disc": 2, "disc_j": 4}


def _r2(x):
    return x[1] ** 2 + x[2] ** 2


def _cone(x):
    return -x[0] ** 2 + x[1] ** 2 + x[2] ** 2


def _disc_j_safe(x):
    # leading coefficients x1 +- x2 and root collisions
    # (1 -+ x3)^2 = x1^2 - x2^2 of the two idempotent quadratics
    d = x[0] ** 2 - x[1] ** 2
    return (abs(x[0] + x[1]) > 0.3 and abs(x[0] - x[1]) > 0.3
            and abs((1 - x[2]) ** 2 - d) > 0.15 and abs((1 + x[2]) ** 2 - d) > 0.15)


# (kind, data, half-width of the region, grid counts, point predicate)
SLICE_SCENES = [
    ("euclidean", "projection", 2.0, (4, 6, 8), lambda x: True),
    ("euclidean", "radial", 2.0, (4, 4, 2),
     lambda x: _r2(x) > 0.5 and sum(v * v for v in x) > 0.5),
    # disc roots collide on the circle x1 = 0, x2^2 + x3^2 = 1
    ("euclidean", "disc", 2.0, (4, 4, 2),
     lambda x: _r2(x) > 0.5 and abs(complex(x[0], 1) ** 2 + _r2(x)) > 0.3),
    ("minkowski_c", "projection", 2.0, (4, 6, 8), lambda x: True),
    ("minkowski_c", "radial", 2.0, (4, 4, 2),
     lambda x: abs(_cone(x)) > 0.5 and _r2(x) > 0.5),
    ("minkowski_c", "disc", 2.0, (4, 4, 2), lambda x: _r2(x) > 0.2),
    ("minkowski_d", "disc_j", 0.6, (4, 2, 2), _disc_j_safe),
]

# Weierstrass data for verify --points (not slice data)
VERIFY_DATA = {
    "radial": {"G": {"f": VAR}, "H": {"f": const(0)}},
    "disc": {"G": {"f": VAR}, "H": SLICE_DATA["disc"][1]},
}
VERIFY_POINTS = 8
VERIFY_ROOTS = 4  # two quadratic components, roots kept apart


def grid_axes(lo, hi, counts):
    """The CLI's grid axes, computed the same way."""
    return [[a] if n == 1 else [a + (b - a) * i / (n - 1) for i in range(n)]
            for a, b, n in zip(lo, hi, counts)]


def _slice_scene(rng, kind, data, a, counts, ok):
    for _ in range(10_000):
        lo, hi = [], []
        for _axis in range(3):
            w = rng.uniform(0.05, 0.35) * a / 2.0
            c = rng.uniform(-a + w, a - w)
            lo.append(c - w)
            hi.append(c + w)
        pts = list(itertools.product(*grid_axes(lo, hi, counts)))
        if all(ok(x) for x in pts):
            break
    else:
        raise RuntimeError(f"no safe grid for {kind}/{data}")
    g, h = SLICE_DATA[data]
    config = {"task": "slice", "slice": kind, "g": g, "h": h,
              "grid": {"min": lo, "max": hi, "counts": list(counts)}}
    return Scene(f"slice/{kind}/{data}", config, len(pts),
                 lambda out: gate.check_slice_csv(out, pts, SLICE_ROOTS[data]),
                 argv=["--format", "csv"])


def _verify_safe(z):
    # leading coefficients i z3 -+ z2 of the idempotent quadratics, and root
    # collisions: z.z = 0 (radial) and (z1 +- i)^2 + z2^2 + z3^2 = 0 (disc)
    lead = min(abs(z[1] - 1j * z[2]), abs(z[1] + 1j * z[2]))
    s = z[1] ** 2 + z[2] ** 2
    collide = min(abs(z[0] ** 2 + s), abs((z[0] + 1j) ** 2 + s),
                  abs((z[0] - 1j) ** 2 + s))
    return lead >= 0.5 and collide >= 0.5


def _verify_scene(rng, data):
    pts = []
    while len(pts) < VERIFY_POINTS:
        z = [_rc(rng, 1.5) for _ in range(3)]
        if _verify_safe(z):
            pts.append([[c.real, c.imag] for c in z])
    config = {"task": "verify", "data": VERIFY_DATA[data], "points": pts}
    return Scene(f"verify/points/{data}", config, len(pts),
                 lambda out: gate.check_verify_points(out, len(pts), VERIFY_ROOTS))


def _stencil_cycle(rng):
    for spec in SLICE_SCENES:
        yield _slice_scene(rng, *spec)
    for data in VERIFY_DATA:
        yield _verify_scene(rng, data)


def stencil(seed):
    rng = random.Random(seed)
    while True:
        yield _stencil_cycle(rng)


# ---------------------------------------------------------------------------
# solve-dense

SOLVE_POINTS = 32
SOLVE_ROOTS = 36  # degree-6 e-side times degree-6 f-side


def _solve_scene(rng):
    # leading coefficients bounded away from 0 keep both components at
    # degree 6 (e-side leads with g3^2 (i z3 - z2), f-side with g3^2 (z2 + i z3))
    g = {f: horner([_rc(rng) for _ in range(3)] + [_rc_min(rng, 0.5)])
         for f in ("f1", "f2")}
    h = {f: horner([_rc(rng) for _ in range(3)]) for f in ("f1", "f2")}
    pts = []
    while len(pts) < SOLVE_POINTS:
        z = [_rc(rng) for _ in range(3)]
        if min(abs(z[1] - 1j * z[2]), abs(z[1] + 1j * z[2])) < 0.3:
            continue
        pts.append([[c.real, c.imag] for c in z])
    config = {"task": "solve", "data": {"G": g, "H": h}, "points": pts}
    return Scene("solve", config, len(pts),
                 lambda out: gate.check_solve(out, len(pts), SOLVE_ROOTS))


def solve_dense(seed):
    rng = random.Random(seed)
    while True:
        yield [_solve_scene(rng)]


# ---------------------------------------------------------------------------
# fibres-roundtrip

# degenerate fibres cost about 2/3 of lines: sizes keep scene times alike
FIBRE_PARAMS = {"lines": 1400, "degenerate": 2000}
FIBRE_SAMPLES = 1
CHART_VALUES = 2400
CHARTS = ("Gcheck", "L", "K")


def _samples_scene(data, rows, kind):
    samples = [{"q": row["q"], "z": z} for row in rows for z in row["samples"]]
    config = {"task": "verify", "data": data, "samples": samples}
    return Scene(f"verify/samples/{kind}", config, len(samples),
                 lambda out: gate.check_samples(out, rows))


def _fibres_scene(rng, k, degenerate):
    if degenerate:
        # constant G with CN(G) = G_e * G_f = -1 and H a complex multiple of
        # G: every fibre is a degenerate plane
        a = _rc_min(rng, 0.5)
        mu = _rc(rng)
        data = {"G": {"f1": const(a), "f2": const(-1 / a)},
                "H": {"f1": const(mu * a), "f2": const(-mu / a)}}
        kind, tag = "degenerate", "degenerate_plane"
    else:
        data = {fn: {f: horner([_rc(rng) for _ in range(3)]) for f in ("f1", "f2")}
                for fn in ("G", "H")}
        kind, tag = "lines", None
    n = FIBRE_PARAMS[kind]
    params = [[rng.uniform(-1.5, 1.5) for _ in range(4)] for _ in range(n)]
    config = {"task": "fibres", "data": data, "params": params,
              "samples": FIBRE_SAMPLES}
    rows = []

    def check(out):
        rows[:] = gate.check_fibres(out, n, FIBRE_SAMPLES, tag)
        return {"params": len(rows)}

    return Scene(f"fibres/{kind}", config, n, check,
                 argv=["--seed", str(k)],
                 then=lambda out: _samples_scene(data, rows, kind))


def _cn(x):
    z1, z2 = complex(x[0], x[1]), complex(x[2], x[3])
    return z1 * z1 + z2 * z2


def _chart_value(rng):
    # away from the poles of every transition out of G (q = 0, -1, -i2)
    # and of the inverse transitions (L -> G at 1 + w*i2, K -> G at w = 1)
    while True:
        x = [rng.uniform(-2.0, 2.0) for _ in range(4)]
        shifts = ([0, 0, 0, 0], [1, 0, 0, 0], [-1, 0, 0, 0], [0, 0, 1, 0], [0, 0, -1, 0])
        if all(abs(_cn([a + b for a, b in zip(x, s)])) > 0.25 for s in shifts):
            return x


def _charts_scene(rng, k):
    to = CHARTS[k % len(CHARTS)]
    values = [_chart_value(rng) for _ in range(CHART_VALUES)]
    config = {"task": "charts",
              "charts": {"op": "transition", "from": "G", "to": to, "values": values}}
    forward = []

    def check(out):
        forward[:] = gate.check_charts(out, values)
        return {"values": len(values)}

    def back(_out):
        cfg = {"task": "charts",
               "charts": {"op": "transition", "from": to, "to": "G",
                          "values": list(forward)}}
        return Scene(f"charts/{to}->G", cfg, 0,
                     lambda out: gate.check_roundtrip(out, forward, values))

    return Scene(f"charts/G->{to}", config, 0, check, then=back)


def _fibres_cycle(rng, j):
    for k in (2 * j, 2 * j + 1):
        yield _fibres_scene(rng, k, degenerate=False)
        yield _fibres_scene(rng, k, degenerate=True)
    yield _charts_scene(rng, j)


def fibres_roundtrip(seed):
    rng = random.Random(seed)
    for j in itertools.count():
        yield _fibres_cycle(rng, j)


CYCLES = {
    "stencil": stencil,
    "solve-dense": solve_dense,
    "fibres-roundtrip": fibres_roundtrip,
}


def cycles(workload, seed):
    """Endless stream of scene cycles of a workload for a seed; each cycle
    is an iterable that builds its scenes as they are taken."""
    return CYCLES[workload](seed)
