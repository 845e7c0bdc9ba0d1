"""Tests of the benchmark itself: the gate catches bad output, ``drive``
counts it, and the trace hooks leave stdout and the package unchanged.

    python3 -m pytest perfbench -q
"""

import io
import itertools
import json
import sys
import types

import pytest

import gate
import layers
import run
import workloads

CLI = run._import_bhm()


def _first(workload, kind_prefix, seed=1):
    for scene in itertools.chain.from_iterable(workloads.cycles(workload, seed)):
        if scene.kind.startswith(kind_prefix):
            return scene


def _output(scene):
    code, out, _ = run.run_scene(CLI, scene)
    assert code == 0
    return out


def _fake_cli(edit):
    """A CLI whose stdout is the real one passed through ``edit``."""
    def main(argv):
        real = sys.stdout
        sys.stdout = buf = io.StringIO()
        try:
            code = CLI.main(argv)
        finally:
            sys.stdout = real
        sys.stdout.write(edit(buf.getvalue()))
        return code
    return types.SimpleNamespace(main=main)


def test_real_scenes_pass_the_gate():
    for workload, prefix in (("stencil", "slice/euclidean/radial"),
                             ("stencil", "verify/points"),
                             ("solve-dense", "solve")):
        scene = _first(workload, prefix)
        scene.check(_output(scene))


def test_over_tolerance_slice_residual_fails():
    scene = _first("stencil", "slice/euclidean/radial")
    lines = _output(scene).splitlines(keepends=True)
    fields = lines[1].rstrip("\n").split(",")
    fields[11] = "2e-06"  # harmonic_res above FD_TOL
    lines[1] = ",".join(fields) + "\n"
    with pytest.raises(gate.GateError, match="harmonic_res"):
        scene.check("".join(lines))


def test_over_tolerance_verify_and_solve_residuals_fail():
    scene = _first("stencil", "verify/points")
    report = json.loads(_output(scene))
    root = next(r for res in report["results"] for r in res["roots"] if r["fd"])
    root["fd"]["nullness"] = 1.5e-6
    with pytest.raises(gate.GateError, match="fd nullness"):
        scene.check(json.dumps(report) + "\n")

    scene = _first("solve-dense", "solve")
    report = json.loads(_output(scene))
    root = next(r for res in report["results"] for r in res["roots"] if r["gradient"])
    root["laplacian_abs"] = 1.0
    with pytest.raises(gate.GateError, match="laplacian_abs"):
        scene.check(json.dumps(report) + "\n")


def _csv_rows(text, edit):
    lines = text.splitlines(keepends=True)
    rows = [line.rstrip("\n").split(",") for line in lines[1:]]
    return lines[0] + "".join(",".join(r) + "\n" for r in edit(rows))


def test_roots_without_gradients_fail():
    # a roots-only solve would leave the class and residuals empty
    scene = _first("stencil", "slice/euclidean/radial")
    out = _output(scene)

    def strip(rows):
        for r in rows:
            r[10:13] = ["", "", ""]
        return rows

    with pytest.raises(gate.GateError, match="without a gradient"):
        scene.check(_csv_rows(out, strip))

    scene = _first("stencil", "verify/points")
    report = json.loads(_output(scene))
    for res in report["results"]:
        for root in res["roots"]:
            root["implicit"] = root["fd"] = None
    with pytest.raises(gate.GateError, match="without a gradient"):
        scene.check(json.dumps(report) + "\n")

    scene = _first("solve-dense", "solve")
    report = json.loads(_output(scene))
    for res in report["results"]:
        for root in res["roots"]:
            root.update(gradient=None, laplacian_abs=None, nullness_abs=None,
                        gauss=None)
    with pytest.raises(gate.GateError, match="without a gradient"):
        scene.check(json.dumps(report) + "\n")


def test_missing_rows_and_roots_fail():
    scene = _first("stencil", "slice/euclidean/radial")
    out = _output(scene)
    assert scene.check(out)["not_in_slice_drops"] == 0
    # one of a point's two roots dropped is a documented outcome ...
    assert scene.check(_csv_rows(out, lambda rows: rows[1:]))["not_in_slice_drops"] == 1
    # ... a point with no row at all is a failure
    with pytest.raises(gate.GateError, match="0 rows at"):
        scene.check(_csv_rows(out, lambda rows: rows[2:]))

    scene = _first("stencil", "verify/points")
    report = json.loads(_output(scene))
    report["results"][0]["roots"].pop()
    with pytest.raises(gate.GateError, match="3 roots, want 4"):
        scene.check(json.dumps(report) + "\n")


@pytest.mark.parametrize("text", [
    '{"task": "solve", "results": [NaN]}\n',
    '{"task": "solve", "results": [Infinity]}\n',
    '{"task": "solve", "results": [\n',
])
def test_non_strict_json_fails(text):
    with pytest.raises(gate.GateError):
        gate.strict_json(text)


def test_non_numeric_csv_field_fails():
    row = ["0.5", "1", "1", "0", "1", "0", "0", "0", "1", "0", "regular", "nan", "1e-09"]
    text = ",".join(gate.SLICE_HEADER) + "\n" + ",".join(row) + "\n"
    with pytest.raises(gate.GateError, match="not a number"):
        gate.check_slice_csv(text, [(0.5, 1.0, 1.0)], 1)


def test_sample_off_its_fibre_fails():
    fibres = _first("fibres-roundtrip", "fibres/lines")
    fibres.check(_output(fibres))
    samples = fibres.then(_output(fibres))
    report = json.loads(_output(samples))
    samples.check(json.dumps(report) + "\n")
    report["results"][3]["on_fibre"] = False
    with pytest.raises(gate.GateError, match="off its fibre"):
        samples.check(json.dumps(report) + "\n")


def test_drive_counts_corrupted_output_as_failed():
    def corrupt(out):
        # the first data row's null_res far above tolerance
        lines = out.split("\n")
        lines[1] = lines[1].rsplit(",", 1)[0] + ",0.5"
        return "\n".join(lines)

    good = run.drive(CLI, "stencil", 1, limit=2)
    bad = run.drive(_fake_cli(corrupt), "stencil", 1, limit=2)
    assert [r["error"] for r in good] == [None, None]
    assert all("null_res" in r["error"] for r in bad)


def test_drive_counts_digest_mismatch_as_failed():
    good = run.drive(CLI, "solve-dense", 1, limit=1)
    again = run.drive(CLI, "solve-dense", 1, limit=1,
                      expect=[good[0]["digest"]])
    other = run.drive(CLI, "solve-dense", 1, limit=1, expect=["0" * 64])
    assert again[0]["error"] is None
    assert "differs" in other[0]["error"]


def test_trace_hooks_keep_stdout_and_restore_the_package():
    import bhm.cli
    import bhm.slices
    import bhm.weierstrass

    originals = (bhm.weierstrass.solve_phi, bhm.slices.solve_phi,
                 bhm.cli.solve_phi, bhm.cli.main, dict(bhm.cli._RUNNERS))
    plain = run.drive(CLI, "stencil", 2, limit=9)
    tracer = layers.install(layers.Tracer())
    try:
        assert bhm.cli.solve_phi is bhm.slices.solve_phi is not originals[0]
        hooked = run.drive(CLI, "stencil", 2, limit=9,
                           expect=[r["digest"] for r in plain])
    finally:
        tracer.unhook()
    assert [r["error"] for r in hooked] == [None] * 9
    assert tracer.absent == []
    assert (bhm.weierstrass.solve_phi, bhm.slices.solve_phi, bhm.cli.solve_phi,
            bhm.cli.main, bhm.cli._RUNNERS) == originals
    m = layers.layer_metrics(tracer, sum(r["points"] for r in hooked), 0)
    assert m["holo.poly_coefficients.calls"][0] == 4 * m["weierstrass.solve_phi.calls"][0]
    assert m["verify.fd_residuals.solves_per_call"][0] == 25
    assert m["slices.wave_residual.solves_per_call"][0] == 13
    assert m["weierstrass.derivs_used_ratio"][0] < 0.1


def test_missing_hook_target_is_reported_absent():
    tracer = layers.Tracer()
    tracer.hook_function("x", "bhm.weierstrass", "_no_such_function")
    tracer.hook_function("x", "bhm.no_such_module", "f")
    tracer.hook_method("x", "bhm.holo", "HoloFn", "no_such_method")
    tracer.hook_table("x", "bhm.cli", "_NO_SUCH_TABLE")
    assert len(tracer.absent) == 4
    tracer.unhook()


@pytest.mark.parametrize("a, b, better, verdict", [
    ([100, 101, 99, 100], [130, 131, 129, 130], "higher", "better"),
    ([100, 101, 99, 100], [70, 71, 69, 70], "higher", "worse"),
    ([100, 101, 99, 100], [101, 100, 102, 101], "higher", "unchanged"),
    ([100, 60, 140, 100], [101, 100, 102, 101], "higher", "unresolved"),
    ([1.0, 1.01, 0.99, 1.0], [1.3, 1.31, 1.29, 1.3], "lower", "worse"),
])
def test_compare_verdicts(a, b, better, verdict):
    assert run.judge(a, b, better, 0.1)[0] == verdict
