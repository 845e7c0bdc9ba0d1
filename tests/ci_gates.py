"""Output and peak-memory gates of long CLI runs.

Each gate pipes one seeded config to ``python -m bhm.cli`` in a child
process and requires exit 0, the recorded sha256 of the child's stdout and
a peak RSS, the child's own ``ru_maxrss`` from ``os.wait4``, within the
gate's bound:

- the 25 000-point ``slice`` grid recorded in BENCH_10.json (CSV), within
  94 MB;
- a ``solve`` of 2 777 points on the solve-dense benchmark's seeded data
  (99 972 roots, just under the CLI's root cap; the one run that takes
  ``solve`` across many blocks), within 10 % of the 140.5 MB it read once
  its report was written as text from the lanes and held as the pieces
  written (547.7 MB when the gate was added, with the report held as a
  dict tree, then as one string);
- the stencil benchmark's seeded radial ``verify --points`` data at 2 000
  points (the one stencil task whose rows read the Laplacian), within 10 %
  of the 54.5 MB it read when the gate was added;
- an 8 000-point ``minkowski_d`` grid (CSV) of g = q and the stencil
  benchmark's ``disc`` h, whose four roots at every point all leave the
  slice: the header alone, though every anchor's stencil points are solved
  with it, within 10 % of the 37.0 MB it read when the gate was added;
- three seeded configs of 100 000 values each, ``fibres``,
  ``verify --samples`` and ``charts`` G -> L, within 10 % of the 119.5,
  184.9 and 82.8 MB they read once their reports were written as text
  from the lanes (381.7, 306.7 and 207.4 MB before their lists were parsed
  into arrays);
- a seeded 100 000-parameter ``fibres`` run on constant G with
  CN(G) = -1 and H a multiple of G, whose every fibre is one degenerate
  plane: each block is written from its distinct values, within 10 % of
  the 107.2 MB it read when the gate was added (104.6 MB, with the same
  sha256, before blocks were written from their distinct values and the
  one-lane passes took 1 024 values a block).

Run from the repository root, with ``bhm`` importable (installed, or
``PYTHONPATH=src``):

    python tests/ci_gates.py

It prints one line per gate and exits 1 if any gate fails.  The configs
are built by ``python tests/ci_gates.py --write DIR``, which it runs in a
child.  pytest does not collect it: together the runs take tens of seconds
and hundreds of MB.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile

sys.dont_write_bytecode = True  # leave perfbench/ as checked out
sys.path.insert(0, "perfbench")


def _grid():
    config = json.load(open("BENCH_10.json"))["memory_check_25000_point_slice"]["config"]
    return json.dumps(config)


def _root_cap_solve():
    import workloads
    workloads.SOLVE_POINTS = 2777
    return workloads._solve_scene(random.Random(1)).stdin()


def _verify_points():
    import workloads
    workloads.VERIFY_POINTS = 2000
    return workloads._verify_scene(random.Random(1), "radial").stdin()


def _outside_grid():
    import workloads
    return json.dumps({"task": "slice", "slice": "minkowski_d", "g": {"f": workloads.VAR},
                       "h": workloads.SLICE_DATA["disc"][1],
                       "grid": {"min": [0.3, 0.4, 0.5], "max": [1.7, 1.9, 1.2],
                                "counts": [20, 20, 20]}})


def _value_lists():
    """The three 100 000-value configs, drawn in this order from one seeded
    generator."""
    rng = random.Random(16)
    n = 100_000

    def num():
        return rng.uniform(-1.5, 1.5)

    def quadratic():
        c = [{"op": "const", "value": [num(), num()]} for _ in range(3)]
        q = {"op": "var"}
        return {"op": "add", "args": [c[0], {"op": "mul", "args": [q, {
            "op": "add", "args": [c[1], {"op": "mul", "args": [q, c[2]]}]}]}]}

    data = {fn: {"f1": quadratic(), "f2": quadratic()} for fn in ("G", "H")}
    fibres = {"task": "fibres", "data": data, "samples": 1,
              "params": [[num() for _ in range(4)] for _ in range(n)]}
    samples = {"task": "verify", "data": data,
               "samples": [{"q": [num() for _ in range(4)],
                            "z": [[num(), num()] for _ in range(3)]} for _ in range(n)]}
    charts = {"task": "charts",
              "charts": {"op": "transition", "from": "G", "to": "L",
                         "values": [[num() for _ in range(4)] for _ in range(n)]}}
    return [json.dumps(config) for config in (fibres, samples, charts)]


def _degenerate_fibres():
    """100 000 seeded parameters of constant G = (a, -1/a) in Ringleb parts
    and H = mu G: every fibre is one degenerate plane."""
    rng = random.Random(22)
    a, mu = complex(0.8, -0.3), complex(0.4, 0.7)

    def const(z):
        return {"op": "const", "value": [z.real, z.imag]}

    data = {"G": {"f1": const(a), "f2": const(-1 / a)},
            "H": {"f1": const(mu * a), "f2": const(-mu / a)}}
    return json.dumps({"task": "fibres", "data": data, "samples": 1,
                       "params": [[rng.uniform(-1.5, 1.5) for _ in range(4)]
                                  for _ in range(100_000)]})


# name: (CLI arguments, sha256 of stdout, peak RSS bound in MB)
GATES = {
    "25 000-point slice grid": (
        ["--format", "csv"], "42de71b1e508c2084decccddd8dc5e2c505d710c5d5869eb5fa6387eb874d1ca", 94),
    "root-cap solve": (
        [], "be13728c9aabda6fdd8bf4d5b8010e5826e023f287afb674db9d0e00082e27c5", 140.5 * 1.1),
    "2 000-point verify --points": (
        [], "e8dd9d3181f25801fe90bbb206e1dc83fcba62d20d173093128dc2ef1e182a45", 54.5 * 1.1),
    "8 000-point slice grid, no root in the slice": (
        ["--format", "csv"], "2133371294bad7f40cdb4a295b112b8744b6338f401992c0ad97fb2781daecf2",
        37.0 * 1.1),
    "100 000-value fibres": (
        [], "dc1a346b7fac7e0f011d44c91d0d795ad4f5cff3f16787a2e9533a0beea3300b", 119.5 * 1.1),
    "100 000-value verify --samples": (
        [], "b880ec1ebd46e660de97acf408828ef0663510fc9b150172b4bcb8d12c9f2b7a", 184.9 * 1.1),
    "100 000-value charts G->L": (
        [], "558e32110101ec8b87e2c04698b5bfd47482299a2b7a724b74f18b696f59ef0a", 82.8 * 1.1),
    "100 000-parameter degenerate-plane fibres": (
        [], "8568bb9dd109c1589b7b3cacf4eba9de24f19348d15f8d0eb6f19e8ecec0ddfc", 107.2 * 1.1),
}


def stdins():
    """Each gate's stdin, by its name in GATES."""
    fibres, samples, charts = _value_lists()
    return {"25 000-point slice grid": _grid(), "root-cap solve": _root_cap_solve(),
            "2 000-point verify --points": _verify_points(),
            "8 000-point slice grid, no root in the slice": _outside_grid(),
            "100 000-value fibres": fibres, "100 000-value verify --samples": samples,
            "100 000-value charts G->L": charts,
            "100 000-parameter degenerate-plane fibres": _degenerate_fibres()}


def run_child(path, args):
    """``python -m bhm.cli`` on the file ``path`` as stdin: (exit code,
    sha256 of stdout, the child's own peak RSS in MB)."""
    with open(path, "rb") as infile, tempfile.TemporaryFile() as outfile:
        child = subprocess.Popen([sys.executable, "-m", "bhm.cli", *args],
                                 stdin=infile, stdout=outfile)
        # this child's own rusage: its peak RSS, not the largest so far
        _, status, usage = os.wait4(child.pid, 0)
        outfile.seek(0)
        # read in chunks: this process's peak RSS counts in the next child's
        digest = hashlib.file_digest(outfile, "sha256").hexdigest()
    return os.waitstatus_to_exitcode(status), digest, usage.ru_maxrss / 1024


def main():
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        # the configs are written by a child of their own: a child's peak RSS
        # counts the peak of the process that starts it, so that process
        # never holds them
        subprocess.run([sys.executable, __file__, "--write", tmp], check=True)
        for i, (name, (args, want, bound_mb)) in enumerate(GATES.items()):
            code, digest, peak_mb = run_child(os.path.join(tmp, f"{i}.json"), args)
            passed = code == 0 and digest == want and peak_mb <= bound_mb
            print(f"{name}: exit {code}, sha256 {digest}, peak RSS {peak_mb:.1f} MB "
                  f"(bound {bound_mb:.1f}): {'ok' if passed else 'FAILED'}", flush=True)
            ok &= passed
    return 0 if ok else 1


def write(directory):
    texts = stdins()
    for i, name in enumerate(GATES):
        with open(os.path.join(directory, f"{i}.json"), "w", encoding="utf-8") as fh:
            fh.write(texts[name])


if __name__ == "__main__":
    if sys.argv[1:2] == ["--write"]:
        write(sys.argv[2])
    else:
        sys.exit(main())
