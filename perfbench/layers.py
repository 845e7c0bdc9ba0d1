"""Per-layer trace: spans around the public functions of each ``bhm`` module.

The hooks live here, outside the package.  Each target is patched where it
is looked up: every ``bhm.*`` module attribute bound to the target function
is replaced (``from ... import`` copies ``solve_phi`` into ``bhm.cli``,
``bhm.slices`` and ``bhm.verify``), class attributes are replaced on the
class, and dict entries (the CLI's task table) in the dict.  A
target that no longer exists is reported as absent, and its metrics read 0.

Spans nest on a stack; a span's self time is its duration minus the time
of the spans it encloses.  A call that re-enters the span it is already in
(``poly_coefficients`` recursing into a subtree) is not a new span.
"""

from __future__ import annotations

import functools
import importlib
import sys
import timeit
from collections import Counter, defaultdict
from time import perf_counter

STENCILS = ("verify.fd_residuals", "slices.wave_residual")


class Tracer:
    def __init__(self):
        self.stack = []                 # [name, time covered by child spans]
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = Counter()         # counters recorded at the boundaries
        self.absent = []
        self._undo = []

    # -- spans -------------------------------------------------------------

    def wrap(self, name, fn, after=None):
        """``fn`` recorded as span ``name``; ``after(tracer, result, args)``
        may count outcomes and returns the name to book the span under."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            booked = name
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    booked = after(tracer, result, args) or name
                return result
            except Exception as exc:
                if name in STENCILS and type(exc).__name__ == "BranchJumpError":
                    tracer.counts["branch_jumps"] += 1
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                tracer.calls[booked] += 1
                tracer.total[booked] += dt
                tracer.self_s[booked] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt

        return wrapper

    def inside(self, name) -> bool:
        return any(frame[0] == name for frame in self.stack)

    # -- patching ----------------------------------------------------------

    def _setattr(self, owner, key, value):
        old = getattr(owner, key)
        self._undo.append(lambda: setattr(owner, key, old))
        setattr(owner, key, value)

    def _setitem(self, table, key, value):
        old = table[key]
        self._undo.append(lambda: table.__setitem__(key, old))
        table[key] = value

    def hook_function(self, name, module, attr, after=None):
        mod = _module(module)
        target = getattr(mod, attr, None) if mod else None
        if target is None:
            self.absent.append(f"{module}.{attr}")
            return
        wrapper = self.wrap(name, target, after)
        for m in [m for k, m in list(sys.modules.items())
                  if m is not None and (k == "bhm" or k.startswith("bhm."))]:
            for key, value in list(vars(m).items()):
                if value is target:
                    self._setattr(m, key, wrapper)

    def hook_method(self, name, module, cls, attr, after=None):
        mod = _module(module)
        klass = getattr(mod, cls, None) if mod else None
        if klass is None or attr not in vars(klass):
            self.absent.append(f"{module}.{cls}.{attr}")
            return
        self._setattr(klass, attr, self.wrap(name, vars(klass)[attr], after))

    def hook_table(self, name, module, attr):
        mod = _module(module)
        table = getattr(mod, attr, None) if mod else None
        if not isinstance(table, dict):
            self.absent.append(f"{module}.{attr}")
            return
        for key, fn in list(table.items()):
            self._setitem(table, key, self.wrap(name, fn))

    def unhook(self):
        while self._undo:
            self._undo.pop()()


def _module(name):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


# ---------------------------------------------------------------------------
# counters recorded at the boundaries


def _after_solve(tracer, result, args):
    counts = tracer.counts
    stencil = next((n for n in STENCILS if tracer.inside(n)), None)
    if stencil is None:
        counts["solves_outside_stencil"] += 1
    else:
        counts[f"solves_in:{stencil}"] += 1
    if tracer.inside("slices.projectable_roots"):
        counts["roots_before_projection"] += len(result)


def _after_poly_roots(tracer, result, args):
    degree = sum(m for _, m in result)
    return ("weierstrass.poly_roots.deg2" if degree <= 2
            else "weierstrass.poly_roots.degN")


def _after_projectable(tracer, result, args):
    tracer.counts["roots_kept"] += len(result)


def install(tracer: Tracer):
    """Hook every traced layer; returns the tracer."""
    t = tracer
    t.hook_function("holo.poly_coefficients", "bhm.holo", "poly_coefficients")
    t.hook_method("holo.eval", "bhm.holo", "HoloFn", "__call__")
    t.hook_function("weierstrass.solve_phi", "bhm.weierstrass", "solve_phi",
                    _after_solve)
    t.hook_function("weierstrass.congruence_components", "bhm.weierstrass",
                    "congruence_components")
    t.hook_function("weierstrass.poly_roots", "bhm.weierstrass", "_poly_roots",
                    _after_poly_roots)
    t.hook_function("weierstrass.fibre_at", "bhm.weierstrass", "fibre_at")
    t.hook_function("verify.fd_residuals", "bhm.verify", "fd_residuals")
    t.hook_function("slices.wave_residual", "bhm.slices", "wave_residual")
    t.hook_function("slices.projectable_roots", "bhm.slices", "projectable_roots",
                    _after_projectable)
    t.hook_function("geometry.transition", "bhm.geometry", "transition")
    t.hook_function("cli.main", "bhm.cli", "main")
    t.hook_function("cli.run", "bhm.cli", "run")
    t.hook_table("cli.task", "bhm.cli", "_RUNNERS")
    for helper in ("_parse_data", "_parse_point", "_parse_bicomplex",
                   "_grid_points", "holofn_from_json"):
        t.hook_function("cli.parse", "bhm.cli", helper)
    return t


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, points: int, output_bytes: int) -> dict:
    """The per-layer metrics of one traced pass, in BENCHMARK.json units."""
    c, s, n, cnt = tracer.calls, tracer.self_s, tracer.total, tracer.counts
    out = {}
    for name in ("holo.poly_coefficients", "holo.eval", "weierstrass.solve_phi",
                 "weierstrass.congruence_components", "weierstrass.poly_roots.deg2",
                 "weierstrass.poly_roots.degN", "weierstrass.fibre_at",
                 "verify.fd_residuals", "slices.wave_residual",
                 "slices.projectable_roots", "geometry.transition"):
        out[f"{name}.calls"] = (c[name], "count")
        out[f"{name}.self_s"] = (s[name], "s")
    solves = c["weierstrass.solve_phi"]
    out["weierstrass.solve_phi.calls_per_pt"] = (_ratio(solves, points), "count")
    out["weierstrass.derivs_used_ratio"] = (
        _ratio(cnt["solves_outside_stencil"], solves), "ratio")
    for name in STENCILS:
        out[f"{name}.solves_per_call"] = (
            _ratio(cnt[f"solves_in:{name}"], c[name]), "count")
    out["verify.branch_jumps"] = (cnt["branch_jumps"], "count")
    out["slices.roots_kept_ratio"] = (
        _ratio(cnt["roots_kept"], cnt["roots_before_projection"]), "ratio")
    parse = n["cli.parse"]
    out["cli.parse_s"] = (n["cli.main"] - n["cli.run"] + parse, "s")
    out["cli.run_s"] = (n["cli.task"] - parse, "s")
    out["cli.format_s"] = (n["cli.run"] - n["cli.task"], "s")
    out["cli.output_bytes"] = (output_bytes, "bytes")
    return out


# ---------------------------------------------------------------------------
# scalar kernel micro-ops


def kernel_metrics(number=20_000, repeat=5) -> dict:
    """Median ns per call of the ``Bicomplex`` micro-ops, loop included."""
    from bhm.core import Bicomplex as B

    p = B(1.3 + 0.2j, -0.7 + 2.1j)
    q = B(0.4 - 1.2j, 0.9 + 0.3j)
    ops = {
        "core.mul_ns": lambda: p * q,
        "core.inverse_ns": p.inverse,
        "core.ringleb_ns": lambda: B.from_ringleb(*p.ringleb()),
        "core.cn_ns": p.cn,
    }
    out = {}
    for name, op in ops.items():
        times = sorted(timeit.repeat(op, number=number, repeat=repeat))
        out[name] = (times[len(times) // 2] / number * 1e9, "ns")
    return out
