#!/usr/bin/env python3
"""The bhm benchmark: end-to-end CLI scenes, and a traced run per layer.

One run, from the repository root:

    python3 perfbench/run.py --workload stencil --seed 1 --seconds 20 --trace 0

``--trace 0`` drives the ``bhm`` entry point in-process (``bhm.cli.main``
with stdin and stdout swapped) as one closed-loop client: the next scene is
sent only after the previous one returns, with ``BHM_THREADS`` unset.  Every
scene's stdout goes through the correctness gate (``gate.py``).  It prints
the end-to-end metrics, with scene times normalized for the machine's
speed by a probe timed before every scene (see ``normalized``);
``--trace 1`` prints the per-layer metrics of ``layers.py`` instead.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; ``--out FILE`` also
writes the full record (environment, counts, failures).

Several runs of every workload into one result file, and a comparison of
two result files by the bounds in BENCHMARK.json:

    python3 perfbench/run.py --suite --out A.json
    python3 perfbench/run.py --compare A.json B.json
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter, deque
from pathlib import Path

import gate
import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0
SETUP_SAMPLES = 16
TAIL_BEYOND = 10
# about the median of probe_s() on the machine the bounds were set on
PROBE_REF_S = 0.008
# a fresh interpreter running a fixed pure-Python loop: the yardstick for
# set-up time, and about its median wall time where the bounds were set
CHILD_PROBE = "x = 0\nfor i in range(200_000):\n    x = (x * 7 + i) % 1_000_003\n"
CHILD_PROBE_REF_S = 0.11
# scenes in one traced pass (whole cycles); counts per pass repeat exactly
TRACE_SCENES = {"stencil": 9, "solve-dense": 8, "fibres-roundtrip": 10}
# scenes whose digests are recorded for the default seed
DIGEST_SCENES = 40
# runs of each workload in a --suite, seeds 1..SUITE_RUNS
SUITE_RUNS = 10


def _die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_bhm():
    if not (SRC / "bhm" / "cli.py").is_file():
        _die(f"no bhm sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import bhm.cli
    if Path(bhm.__file__).resolve().parent != SRC / "bhm":
        _die(f"imported bhm from {bhm.__file__}, not from {SRC}")
    return bhm.cli


# ---------------------------------------------------------------------------
# environment


def _git_commit():
    # the ceiling keeps git from finding a repository above a plain checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(seed, bhm_threads):
    import numpy
    from bhm.core import BACKEND

    return {
        "backend": BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "BHM_THREADS": bhm_threads,
        "seed": seed,
        "commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# machine-speed probe


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def __mul__(self, o):
        return _Pair(self.a * o.a - self.b * o.b, self.a * o.b + self.b * o.a)

    def __add__(self, o):
        return _Pair(self.a + o.a, self.b + o.b)


_FLOATS = [i * 0.5 for i in range(200_000)]
_KEYS = [str(i) for i in range(8192)]


def probe_s():
    """Wall time of a fixed pure-Python loop that shares no code with bhm:
    slotted-object complex arithmetic, then strided reads over a 6 MB list
    with string-keyed dict stores, so that it slows down with the machine
    whether the cores or the caches are contended."""
    t0 = time.perf_counter()
    x, y = _Pair(0.5 + 0.1j, 0.2 - 0.3j), _Pair(0.9 - 0.2j, 0.1 + 0.4j)
    seen = {}
    for i in range(3000):
        x = x * y + y
        if abs(x.a) > 10.0:
            x = _Pair(0.5 + 0.1j, 0.2 - 0.3j)
        seen[i & 63] = x
    acc = 0.0
    for i in range(0, len(_FLOATS), 25):
        acc = acc * 0.5 + _FLOATS[i]
        seen[_KEYS[(i * 7) & 8191]] = acc
    return time.perf_counter() - t0


def normalized(results):
    """Scene times scaled to the probe's reference speed: each scene's wall
    time times PROBE_REF_S over the median probe of its five neighbours."""
    probes = [r["probe_s"] for r in results]
    out = []
    for i, r in enumerate(results):
        local = statistics.median(probes[max(0, i - 2):i + 3])
        out.append(r["s"] * PROBE_REF_S / local)
    return out


# ---------------------------------------------------------------------------
# scenes


def run_scene(cli, scene):
    """Run one scene through the CLI entry point; (exit code, stdout, s)."""
    argv = list(scene.argv)
    stdin = scene.stdin()
    out, err = io.StringIO(), io.StringIO()
    old = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin), out, err
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    except Exception as exc:  # an uncaught error is a failed scene, not a crash
        code = f"uncaught {type(exc).__name__}: {exc}"
    finally:
        dt = time.perf_counter() - t0
        sys.stdin, sys.stdout, sys.stderr = old
    return code, out.getvalue(), dt


def drive(cli, workload, seed, seconds=None, limit=None, expect=None,
          expect_what="the digest recorded for the default seed", tick=None):
    """Closed loop over the workload's scene cycles until ``seconds`` of
    normalized scene time have run (checked between cycles, so a run holds
    whole cycles) or ``limit`` scenes ran.  ``expect`` lists stdout digests
    to match, in order.  ``tick = (interval, fn)`` calls ``fn`` between
    scenes after every ``interval`` seconds of normalized scene time.
    Returns one dict per scene."""
    results = []
    busy = 0.0  # normalized scene time so far, from the last five probes
    next_tick = None if tick is None else tick[0]
    for cycle in workloads.cycles(workload, seed):
        if seconds is not None and busy >= seconds:
            break
        scenes, follow = iter(cycle), deque()
        while True:
            if limit is not None and len(results) >= limit:
                return results
            if next_tick is not None and busy >= next_tick:
                tick[1]()
                next_tick += tick[0]
                continue
            scene = follow.popleft() if follow else next(scenes, None)
            if scene is None:
                break
            probe = probe_s()
            code, out, dt = run_scene(cli, scene)
            digest = hashlib.sha256(out.encode()).hexdigest()
            res = {"kind": scene.kind, "points": scene.points, "s": dt,
                   "probe_s": probe, "bytes": len(out.encode()), "digest": digest,
                   "error": None, "counters": {}}
            try:
                if code != 0:
                    raise gate.GateError(f"exit code {code}")
                res["counters"] = scene.check(out)
                i = len(results)
                if expect is not None and i < len(expect) and digest != expect[i]:
                    raise gate.GateError(f"stdout differs from {expect_what}")
            except gate.GateError as exc:
                res["error"] = f"{scene.kind}: {exc}"
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                res["error"] = (f"{scene.kind}: malformed report "
                                f"({type(exc).__name__}: {exc})")
            results.append(res)
            busy += dt * PROBE_REF_S / statistics.median(
                r["probe_s"] for r in results[-5:])
            if res["error"] is None and scene.then is not None:
                follow.append(scene.then(out))
    return results


def _recorded_digests(workload, seed):
    if seed != DEFAULT_SEED or not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text()).get(workload)


# ---------------------------------------------------------------------------
# end-to-end metrics


def _child_s(code, env):
    """Wall time of a fresh interpreter running ``code``."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    # a blocking wait returns as the child exits; a wait with a timeout
    # polls with sleeps of up to 50 ms, which quantizes the time
    watchdog = threading.Timer(60, proc.kill)
    watchdog.start()
    status = proc.wait()
    dt = time.perf_counter() - t0
    watchdog.cancel()
    if status != 0:
        raise subprocess.CalledProcessError(status, proc.args)
    return dt


def setup_sample():
    """Wall time of a fresh interpreter that imports bhm.cli, numpy included,
    raw and normalized by the child probe run just before it.  The child
    probe is scheduled like the import, on whichever core is free, so it
    tracks the import's speed far better than the in-process probe does."""
    env = {k: v for k, v in os.environ.items() if k != "BHM_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    probe = _child_s(CHILD_PROBE, env)
    dt = _child_s("import bhm.cli", env)
    return dt, dt * CHILD_PROBE_REF_S / probe


def tail(times):
    """(value, percentile) of the highest percentile with TAIL_BEYOND scenes
    beyond it; the maximum when there are too few scenes."""
    n = len(times)
    ordered = sorted(times)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(results, setup_times):
    raw = [r["s"] for r in results]
    times = normalized(results)
    ok = [r["error"] is None for r in results]
    points = sum(r["points"] for r, good in zip(results, ok) if good)
    tail_s, tail_pct = tail(times)
    failed = ok.count(False)
    metrics = {
        "pts_per_s": (points / sum(times), "1/s"),
        "scene_p50_s": (statistics.median(times), "s"),
        "scene_tail_s": (tail_s, "s"),
        "setup_s": (statistics.median(norm for _, norm in setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    counts = {
        "scenes": len(results),
        "points": points,
        "scene_p50_s": {"percentile": 50.0, "n": len(results)},
        "scene_tail_s": {"percentile": tail_pct, "beyond": min(TAIL_BEYOND, len(times) - 1),
                         "n": len(results)},
        "setup_s": {"percentile": 50.0, "n": len(setup_times)},
        "fail_ratio": {"value": failed / len(results), "unit": "ratio",
                       "failed": failed, "attempted": len(results)},
        "wall_clock": {
            "pts_per_s": points / sum(raw),
            "scene_p50_s": statistics.median(raw),
            "scene_tail_s": tail(raw)[0],
            "setup_s": statistics.median(raw for raw, _ in setup_times),
            "probe_p50_s": statistics.median(r["probe_s"] for r in results),
        },
    }
    return metrics, counts


# ---------------------------------------------------------------------------
# traced run


def traced(cli, workload, seed, seconds):
    """Alternate untraced and traced passes over the same scenes until
    ``seconds`` pass; counts come from one traced pass (they repeat
    exactly), times are medians over passes."""
    metrics = layers.kernel_metrics()
    limit = TRACE_SCENES[workload]
    expect = _recorded_digests(workload, seed)
    all_results, per_pass, ratios, absent = [], [], [], []
    t_end = time.perf_counter() + seconds
    while not per_pass or time.perf_counter() < t_end:
        plain = drive(cli, workload, seed, limit=limit, expect=expect)
        tracer = layers.install(layers.Tracer())
        try:
            hooked = drive(cli, workload, seed, limit=limit,
                           expect=[r["digest"] for r in plain],
                           expect_what="the untraced pass")
        finally:
            tracer.unhook()
        all_results += plain + hooked
        points = sum(r["points"] for r in hooked)
        per_pass.append(layers.layer_metrics(tracer, points,
                                             sum(r["bytes"] for r in hooked)))
        ratios.append(sum(r["s"] for r in hooked) / sum(r["s"] for r in plain))
        absent = tracer.absent
    for name, (_, unit) in per_pass[0].items():
        values = [p[name][0] for p in per_pass]
        metrics[name] = ((statistics.median(values), unit) if unit == "s"
                         else per_pass[0][name])
    metrics["trace.overhead_ratio"] = (statistics.median(ratios), "ratio")
    counts = {"passes": len(per_pass), "scenes_per_pass": limit,
              "absent_hooks": absent}
    return all_results, metrics, counts


# ---------------------------------------------------------------------------
# one run


def one_run(args):
    if args.workload not in workloads.WORKLOADS:
        _die(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS}")
    bhm_threads = os.environ.pop("BHM_THREADS", None)
    cli = _import_bhm()
    env = environment(args.seed, bhm_threads)
    if args.trace:
        results, metrics, counts = traced(cli, args.workload, args.seed, args.seconds)
    else:
        # set-up samples spread over the run; a warm-up fills the bytecode cache
        setup_sample()
        setup_times = [setup_sample()]
        results = drive(cli, args.workload, args.seed, seconds=args.seconds,
                        expect=_recorded_digests(args.workload, args.seed),
                        tick=(args.seconds / SETUP_SAMPLES,
                              lambda: setup_times.append(setup_sample())))
        metrics, counts = end_to_end(results, setup_times)
    failures = [r["error"] for r in results if r["error"]]
    counts["documented_outcomes"] = {
        k: sum(r["counters"].get(k, 0) for r in results)
        for k in ("branch_jump_rows", "not_in_slice_drops")}
    counts["scene_kinds"] = dict(Counter(r["kind"] for r in results))

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    if not args.trace:
        print(f"scene and set-up times are normalized to a probe time of "
              f"{PROBE_REF_S * 1e3} ms; wall-clock figures are under counts.wall_clock")
    for name, (value, unit) in metrics.items():
        note = counts.get(name, "")
        print(f"{name:40s} {value:14.6g} {unit:6s} {json.dumps(note) if note else ''}")
    if not args.trace:
        fr = counts["fail_ratio"]
        print(f"{'fail_ratio':40s} {fr['value']:14.6g} {'ratio':6s} "
              f"({fr['failed']} of {fr['attempted']} scenes failed)")
    print("counts " + json.dumps({k: v for k, v in counts.items()
                                  if k not in metrics and k != "fail_ratio"},
                                 sort_keys=True))
    for msg in failures[:10]:
        print(f"FAILED {msg}")
    result = {
        "correct": not failures,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.out:
        record = dict(result, workload=args.workload, seconds=args.seconds,
                      trace=args.trace, env=env, counts=counts,
                      failures=failures[:100])
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# suite and compare


def _bench_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def suite(args):
    """Run every workload SUITE_RUNS times (seeds 1..SUITE_RUNS) in fresh
    processes; write all records and a per-metric summary to ``--out``."""
    if not args.out:
        _die("--suite needs --out")
    spec = _bench_spec()
    out = {"runs": {}, "summary": {}}
    with tempfile.TemporaryDirectory(dir=Path(args.out).resolve().parent) as tmp:
        for workload in workloads.WORKLOADS:
            records = []
            for i in range(SUITE_RUNS):
                path = Path(tmp) / f"{workload}-{i}.json"
                cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                       "--seed", str(i + 1), "--seconds", str(args.seconds),
                       "--trace", "0", "--out", str(path)]
                subprocess.run(cmd, cwd=ROOT, check=True, timeout=600,
                               stdout=subprocess.DEVNULL)
                records.append(json.loads(path.read_text()))
                print(f"{workload} run {i + 1}/{SUITE_RUNS}: "
                      + " ".join(f"{k}={v['value']:.4g}"
                                 for k, v in records[-1]["metrics"].items()),
                      flush=True)
            out["runs"][workload] = records
            summary = {}
            for m in spec["end_to_end"]:
                values = [r["metrics"][m["name"]]["value"] for r in records]
                q1, med, q3 = _quartiles(values)
                summary[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                                      "spread": (q3 - q1) / med, "bound": m["bound"],
                                      "values": values}
            out["summary"][workload] = summary
    Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print_summary(out["summary"])
    return 0


def print_summary(summary):
    for workload, metrics in summary.items():
        for name, s in metrics.items():
            flag = "" if s["spread"] <= s["bound"] / 3 else "  (spread > bound/3)"
            print(f"{workload:18s} {name:14s} median {s['median']:12.6g}  "
                  f"spread {s['spread']:7.4f}  bound {s['bound']}{flag}")


def judge(a_values, b_values, better, bound):
    """better / worse / unchanged / unresolved for B against A."""
    qa, qb = _quartiles(a_values), _quartiles(b_values)
    sign = 1.0 if better == "higher" else -1.0
    change = sign * (qb[1] - qa[1]) / qa[1]
    spread = max((q[2] - q[0]) / q[1] for q in (qa, qb))
    all_better = all(sign * (b - a) > 0 for a in a_values for b in b_values)
    if spread > bound and not all_better:
        return "unresolved", change, spread
    if change > bound or (spread > bound and all_better):
        return "better", change, spread
    if change < -bound:
        return "worse", change, spread
    return "unchanged", change, spread


def compare(args):
    spec = _bench_spec()
    a, b = (json.loads(Path(p).read_text()) for p in args.compare)
    print(f"{'workload':18s} {'metric':14s} {'A median':>12s} {'B median':>12s} "
          f"{'change':>8s} {'spread':>7s} {'bound':>6s}  verdict")
    for workload in a["summary"]:
        if workload not in b["summary"]:
            print(f"{workload:18s} missing from {args.compare[1]}")
            continue
        for m in spec["end_to_end"]:
            sa = a["summary"][workload][m["name"]]
            sb = b["summary"][workload][m["name"]]
            verdict, change, spread = judge(sa["values"], sb["values"],
                                            m["better"], m["bound"])
            print(f"{workload:18s} {m['name']:14s} {sa['median']:12.6g} "
                  f"{sb['median']:12.6g} {change:+8.3f} {spread:7.4f} "
                  f"{m['bound']:6.2f}  {verdict}")
    return 0


def record_digests(args):
    """Write the stdout digests of the default seed's first scenes."""
    cli = _import_bhm()
    os.environ.pop("BHM_THREADS", None)
    digests = {}
    for workload in workloads.WORKLOADS:
        results = drive(cli, workload, DEFAULT_SEED, limit=DIGEST_SCENES)
        bad = [r["error"] for r in results if r["error"]]
        if bad:
            _die(f"not recording digests, {workload} failed: {bad[0]}")
        digests[workload] = [r["digest"] for r in results]
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=_bench_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full record (or suite result) here")
    parser.add_argument("--suite", action="store_true",
                        help=f"run every workload {SUITE_RUNS} times into --out")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two --suite result files")
    parser.add_argument("--record-digests", action="store_true",
                        help="record the default seed's stdout digests")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(args)
    if args.record_digests:
        return record_digests(args)
    if args.suite:
        return suite(args)
    if not args.workload:
        _die("--workload is required")
    return one_run(args)


if __name__ == "__main__":
    sys.exit(main())
