"""CLI: scene schema, determinism, exit codes and round-trips."""

import io
import json
import math
import subprocess
import sys
import time

import pytest

from bhm import cli
from bhm.cli import main, run
from bhm.core import Bicomplex
from bhm.errors import ExprSchemaError

VAR = {"op": "var"}
CONST0 = {"op": "const", "value": [0, 0]}
RADIAL = {"G": {"f": VAR}, "H": {"f": CONST0}}
PROJECTION = {"G": {"f": CONST0},
              "H": {"f": {"op": "mul", "args": [{"op": "const", "value": [0.5, 0]}, VAR]}}}


def run_config(config, fmt=None, tol=None, seed=0):
    out = io.StringIO()
    code = run(config, out, fmt=fmt, tol=tol, seed=seed)
    return code, out.getvalue()


def run_main(config, *args):
    proc = subprocess.run(
        [sys.executable, "-m", "bhm.cli", *args],
        input=json.dumps(config).encode(),
        capture_output=True,
    )
    return proc


def main_in_process(config, monkeypatch, capsys, *args):
    """``main`` on a config fed through stdin; returns (code, stdout, stderr)."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(config)))
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_radial_canonical_roots(self):
        config = {"task": "solve", "data": RADIAL, "points": [[0, 1, 0]]}
        code, text = run_config(config)
        assert code == 0
        report = json.loads(text)
        roots = report["results"][0]["roots"]
        # canonical order sorts by the Ringleb components (Re e, Im e, Re f, Im f)
        assert [r["q"] for r in roots] == [
            [-1.0, 0.0, 0.0, 0.0],   # e=-1, f=-1
            [0.0, 0.0, 0.0, 1.0],    # e=-1, f=+1: j
            [0.0, 0.0, 0.0, -1.0],   # e=+1, f=-1: -j
            [1.0, 0.0, 0.0, 0.0],    # e=+1, f=+1
        ]
        degs = [r["degenerate"] for r in roots]
        assert degs == [False, True, True, False]

    def test_determinism(self):
        config = {"task": "solve", "data": RADIAL,
                  "points": [[0.31, 1.07, -0.55], [1, 2, 3]]}
        outs = {run_config(config)[1] for _ in range(3)}
        assert len(outs) == 1

    def test_complex_point_encoding(self):
        config = {"task": "solve", "data": PROJECTION,
                  "points": [[5, [1, 0], [2, 0]]]}
        code, text = run_config(config)
        roots = json.loads(text)["results"][0]["roots"]
        assert len(roots) == 1
        assert roots[0]["q"] == [1.0, 0.0, 2.0, 0.0]

    def test_csv_format(self):
        config = {"task": "solve", "data": PROJECTION, "points": [[5, 1, 2]]}
        code, text = run_config(config, fmt="csv")
        lines = text.strip().split("\n")
        assert lines[0].startswith("p1_re,")
        assert len(lines) == 2


class TestFibres:
    def test_line_export_and_seeded_samples(self):
        config = {"task": "fibres", "data": PROJECTION,
                  "params": [[1, 0, 2, 0]], "samples": 4}
        _, text1 = run_config(config, seed=7)
        _, text2 = run_config(config, seed=7)
        _, text3 = run_config(config, seed=8)
        assert text1 == text2
        assert text1 != text3
        row = json.loads(text1)["results"][0]
        assert row["tag"] == "non_null_line"
        assert len(row["samples"]) == 4

    def test_csv_columns(self):
        config = {"task": "fibres", "data": PROJECTION, "params": [[1, 0, 2, 0]]}
        _, text = run_config(config, fmt="csv")
        header, row = text.strip().split("\n")
        assert header.split(",")[:5] == ["q_x1", "q_x2", "q_x3", "q_x4", "tag"]
        assert len(row.split(",")) == 17


class TestVerify:
    def test_fibre_sample_roundtrip(self):
        # export fibre samples, re-validate them with task verify
        config = {"task": "fibres", "data": PROJECTION,
                  "params": [[1, 0, 2, 0], [0.5, 0.25, -1, 0]], "samples": 3}
        _, text = run_config(config, seed=3)
        fibres = json.loads(text)["results"]
        samples = [{"q": row["q"], "z": z} for row in fibres for z in row["samples"]]
        code, text = run_config({"task": "verify", "data": PROJECTION,
                                 "samples": samples})
        assert code == 0
        for entry in json.loads(text)["results"]:
            assert entry["on_fibre"] is True
            assert entry["residual"] <= 1e-8

    def test_plane_fibre_sample_roundtrip(self):
        # constant G with CN(G) = -1 and H = 0: every fibre is a degenerate
        # plane; its exported samples must still satisfy the congruence
        data = {"G": {"f": {"op": "const", "value": [0, 1]}},
                "H": {"f": CONST0}}
        _, text = run_config({"task": "fibres", "data": data,
                              "params": [[0, 0, 0, 0]], "samples": 4}, seed=5)
        row = json.loads(text)["results"][0]
        assert row["tag"] == "degenerate_plane"
        samples = [{"q": row["q"], "z": z} for z in row["samples"]]
        _, text = run_config({"task": "verify", "data": data, "samples": samples})
        for entry in json.loads(text)["results"]:
            assert entry["on_fibre"] is True
            assert entry["residual"] <= 1e-8

    def test_pde_report(self):
        config = {"task": "verify", "data": PROJECTION, "points": [[5, 1, 2]]}
        _, text = run_config(config)
        root = json.loads(text)["results"][0]["roots"][0]
        assert root["implicit"]["laplacian"] <= 1e-10
        assert root["implicit"]["nullness"] <= 1e-10
        assert root["fd"]["laplacian"] <= 1e-6
        assert root["fd"]["class"] == "regular"


class TestSliceTask:
    def test_grid_run(self):
        config = {
            "task": "slice", "slice": "euclidean",
            "g": {"f": CONST0},
            "h": {"f": {"op": "mul", "args": [{"op": "const", "value": [0.5, 0]}, VAR]}},
            "grid": {"min": [-1, -1, -1], "max": [1, 1, 1], "counts": [2, 2, 2]},
        }
        code, text = run_config(config)
        rows = json.loads(text)["results"]
        assert len(rows) == 8
        for row in rows:
            assert row["harmonic_res"] <= 1e-7
            assert row["null_res"] <= 1e-7

    def test_grid_counts_take_integral_floats(self):
        # JSON has one number type: 2.0 and 1e0 are whole counts
        config = {"task": "slice", "slice": "euclidean", "g": {"f": CONST0},
                  "h": {"f": {"op": "mul", "args": [{"op": "const", "value": [0.5, 0]}, VAR]}},
                  "grid": {"min": [-1, -1, -1], "max": [1, 1, 1], "counts": [2.0, 1e0, 2]}}
        code, text = run_config(config, fmt="csv")
        assert code == 0
        assert len(text.splitlines()) == 1 + 4

    def test_points_csv(self):
        config = {"task": "slice", "slice": "minkowski_c",
                  "g": {"f": VAR}, "h": {"f": CONST0},
                  "points": [[2.0, 0.5, 0.3]], "fd": False}
        code, text = run_config(config, fmt="csv")
        assert code == 0
        assert text.startswith("x1,x2,x3,branch,")


class TestCharts:
    def test_transition_example(self):
        config = {"task": "charts",
                  "charts": {"op": "transition", "from": "G", "to": "Gcheck",
                             "values": [[2, 0, 0, 0]]}}
        _, text = run_config(config)
        assert json.loads(text)["results"][0]["result"] == [0.5, 0.0, 0.0, 0.0]

    def test_to_point(self):
        config = {"task": "charts",
                  "charts": {"op": "to_point", "space": "S2C", "from": "G",
                             "values": [[0, 0, 0, 0]]}}
        _, text = run_config(config)
        assert json.loads(text)["results"][0]["result"] == [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]

    def test_from_point(self):
        config = {"task": "charts",
                  "charts": {"op": "from_point", "space": "Q2C", "from": "G",
                             "values": [[[1, 0], [1, 0], [0, 0], [0, 0]]]}}
        _, text = run_config(config)
        assert json.loads(text)["results"][0]["result"] == [0.0, 0.0, 0.0, 0.0]

    @pytest.mark.parametrize("space, value", [
        ("S2C", [1, 2]),                        # was a TypeError traceback
        ("S2C", ["x", -0.0, 3, 0.5]),           # was an IndexError traceback
        ("S2C", [True, 0, 0, 0, 0, 0]),
        ("S2C", [[True, 0], [0, 0], [0, 0]]),   # true is not read as 1
        ("Q2C", [[1, 0], [1, 0], [0, 0], [False, 0]]),
        ("Q1B", [[1, 0, 0, 0], [0, 0, 1, 0]]),
        ("Q1B", [[1, 0, 0], [0, 0, 1], [0, 1, 0]]),
    ], ids=["pair", "string", "flat-bool", "nested-bool", "q2c-bool", "q1b-short",
            "q1b-narrow"])
    def test_from_point_bad_value_exits_2(self, space, value):
        config = {"task": "charts",
                  "charts": {"op": "from_point", "space": space, "from": "G",
                             "values": [value]}}
        proc = run_main(config)
        assert proc.returncode == 2 and proc.stdout == b""
        assert json.loads(proc.stderr)["error"]["type"] == "ExprSchemaError"


class TestSchemaAndExitCodes:
    @pytest.mark.parametrize("config", [
        {"task": "nope"},
        {"task": "solve"},
        {"task": "solve", "data": RADIAL},
        {"task": "solve", "data": RADIAL, "points": []},
        {"task": "solve", "data": {"G": {"f": VAR}}, "points": [[0, 1, 0]]},
        {"task": "solve", "data": RADIAL, "points": [[0, 1]]},
        {"task": "fibres", "data": RADIAL, "params": [[1, 2]]},
        {"task": "slice", "slice": "bogus", "g": {"f": VAR}, "h": {"f": CONST0},
         "points": [[0, 0, 0]]},
        {"task": "slice", "slice": "euclidean", "g": {"f": VAR}, "h": {"f": CONST0},
         "grid": {"min": [0, 0, 0], "max": [1, 1, 1], "counts": [0, 1, 1]}},
        {"task": "charts", "charts": {"op": "transition", "from": "G", "to": "XX",
                                      "values": [[1, 0, 0, 0]]}},
        # a non-boolean 'fd' such as "no" is truthy: it would run the stencil
        {"task": "slice", "slice": "euclidean", "g": {"f": VAR}, "h": {"f": CONST0},
         "points": [[0, 0, 0]], "fd": "no"},
    ])
    def test_schema_errors_raise(self, config):
        with pytest.raises(ExprSchemaError):
            run_config(config)

    def test_exit_code_2_on_malformed_expression(self):
        config = {"task": "solve",
                  "data": {"G": {"f": {"op": "bad"}}, "H": {"f": CONST0}},
                  "points": [[0, 1, 0]]}
        proc = run_main(config)
        assert proc.returncode == 2
        err = json.loads(proc.stderr)
        assert "error" in err

    def test_exit_code_2_on_bad_json(self):
        proc = subprocess.run([sys.executable, "-m", "bhm.cli"],
                              input=b"{not json", capture_output=True)
        assert proc.returncode == 2

    def test_exit_code_3_on_domain_error(self):
        # identically-vanishing congruence component
        config = {"task": "solve",
                  "data": {"G": {"f": CONST0}, "H": {"f": CONST0}},
                  "points": [[1, 1, [0, 1]]]}
        proc = run_main(config)
        assert proc.returncode == 3
        assert json.loads(proc.stderr)["error"]["type"] == "DegenerateAllComponentsError"

    def test_exit_code_0_and_task_flag(self):
        config = {"data": RADIAL, "points": [[0, 1, 0]]}
        proc = run_main(config, "--task", "solve")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["task"] == "solve"

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400",
                                       "1" + "0" * 400],
                             ids=["nan", "inf", "-inf", "1e400", "10**400"])
    def test_exit_code_2_on_non_finite_number(self, token):
        text = ('{"task": "solve", "data": %s, "points": [[%s, 1, 0]]}'
                % (json.dumps(RADIAL), token))
        proc = subprocess.run([sys.executable, "-m", "bhm.cli"],
                              input=text.encode(), capture_output=True)
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert json.loads(proc.stderr)["error"]["type"] == "ExprSchemaError"

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_exit_code_2_on_non_finite_tol(self, tol):
        # a NaN tolerance would pass every not-in-slice check
        proc = run_main({"task": "solve", "data": RADIAL, "points": [[0, 1, 0]]},
                        "--tol", tol)
        assert proc.returncode == 2
        assert proc.stdout == b""

    def test_exit_code_3_on_non_finite_result(self):
        # finite input whose roots overflow: the report is not emitted with NaN
        self._assert_non_finite_result_exits_3()

    def test_exit_code_3_on_non_finite_result_csv(self):
        # the CSV writers refuse the same NaN the JSON dump does
        self._assert_non_finite_result_exits_3("--format", "csv")

    @staticmethod
    def _assert_non_finite_result_exits_3(*args):
        config = {"task": "solve", "data": RADIAL, "points": [[1e300, 1e300, 0]]}
        proc = run_main(config, *args)
        assert proc.returncode == 3
        assert proc.stdout == b""
        # no numpy warning precedes it: stderr is exactly one JSON document
        assert len(proc.stderr.splitlines()) == 1
        assert json.loads(proc.stderr)["error"]["type"] == "ValueError"

    @pytest.mark.parametrize("chunk", [None, 1, 2])
    def test_exit_code_3_names_the_first_non_finite_csv_value(self, chunk, monkeypatch,
                                                               capsys):
        # crafted slice rows: finite rows, then a NaN, an inf and a -inf in
        # later rows, the rows written a block of `chunk` rows at a time
        # (None: all at once)
        def row(q0, harmonic):
            return [0.5, 1.0, -0.25, 1, q0, 0.0, 1.5, -2.0, 1.0, 5e-324, "regular", harmonic,
                    1e-9]

        finite = [row(0.5, 1e-9), row(-0.5, 2e-9), row(1e300, 0.0)]

        def outcome(rows):
            def crafted(config, tol, seed, report):
                report.begin(cli._SLICE.header)
                size = chunk or len(rows)
                for i in range(0, len(rows), size):
                    report.extend(rows[i:i + size])

            monkeypatch.setitem(cli._RUNNERS, "slice", crafted)
            return main_in_process({"task": "slice"}, monkeypatch, capsys, "--format", "csv")

        code, out, err = outcome(finite)
        assert code == 0 and err == ""
        fields = "0.5,1.0,-0.25,1,{},0.0,1.5,-2.0,1.0,5e-324,regular,{},1e-09"
        assert out.splitlines()[1:] == [fields.format("0.5", "1e-09"),
                                        fields.format("-0.5", "2e-09"),
                                        fields.format("1e+300", "0.0")]
        for rows, first in [
            ([row(0.5, math.nan), row(math.inf, 1e-9), row(0.5, -math.inf)], "nan"),
            ([row(math.inf, 1e-9), row(0.5, math.nan)], "inf"),
            ([row(0.5, -math.inf), row(math.nan, 1e-9)], "-inf"),
            ([row(0.5, 1e-9), row(0.5, 1e-9), row(0.5, 2e-9), row(0.5, math.nan)], "nan"),
        ]:
            code, out, err = outcome(finite + rows)
            assert code == 3 and out == ""
            assert json.loads(err) == {"error": {
                "type": "ValueError", "message": f"non-finite value {first} in the CSV report"}}

    def test_exit_code_3_on_overflowing_constant(self, monkeypatch, capsys):
        g = {"op": "pow", "args": [{"op": "const", "value": [1e300, 0]}], "exp": 2}
        config = {"task": "solve", "data": {"G": {"f": g}, "H": {"f": CONST0}},
                  "points": [[0, 1, 0]]}
        code, out, err = main_in_process(config, monkeypatch, capsys)
        assert code == 3 and out == ""
        assert json.loads(err)["error"] == {
            "type": "RangeOverflowError",
            "message": "the power 2 of the constant (1e+300+0j) overflows"}

    def test_exit_code_3_names_a_constant_power_folded_past_the_double_range(self, monkeypatch,
                                                                            capsys):
        # the power is folded while the config is parsed; was the bare
        # OverflowError: complex exponentiation
        g = {"op": "pow", "args": [{"op": "const", "value": [1e155, 0]}], "exp": 3}
        config = {"task": "solve", "data": {"G": {"f": g}, "H": {"f": VAR}},
                  "points": [[0.3, 1.1, -0.2]]}
        code, out, err = main_in_process(config, monkeypatch, capsys)
        assert code == 3 and out == ""
        assert json.loads(err)["error"] == {
            "type": "RangeOverflowError",
            "message": "the power 3 of the constant (1e+155+0j) overflows"}

    def test_exit_code_3_on_nan_congruence_coefficient(self, monkeypatch, capsys):
        # the f-side G = 1e155 i squares past the double range, a congruence
        # coefficient cancels to NaN, and the trim keeps a zero leading term:
        # a domain error, not a ZeroDivisionError traceback
        text = ('{"task":"solve","data":{"G":{"f1":{"op":"var"},"f2":{"op":"const",'
                '"value":[0,1e155]}},"H":{"f":{"op":"sub","args":[{"op":"var"},'
                '{"op":"var"}]}}},"points":[[0,1,1]]}')
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code = main([])
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"]["type"] == "InvalidInputError"

    # CN(G) lies just outside fibre_at's plane tolerance of -1 and
    # CN(xi) = 2 (1 + CN(G))^2 rounds to exactly 0: the line system has no
    # unit direction.  As a fibre at q, and as a root's fibre in a solve,
    # where the batch leaves the lane's NaN line to fibre_at
    CN_XI_ZERO_G = {"f1": {"op": "const", "value": [0.8444824278821867, 0.5754140548570819]},
                    "f2": {"op": "const", "value": [-0.8086960820594995, 0.5510299283454252]}}

    @pytest.mark.parametrize("config", [
        {"task": "fibres", "data": {"G": CN_XI_ZERO_G,
                                    "H": {"f": {"op": "const", "value": [0.3, 0]}}},
         "params": [[0.1, 0, 0, 0]], "samples": 1},
        {"task": "solve", "data": {"G": CN_XI_ZERO_G, "H": {"f": VAR}},
         "points": [[0.3, 1.1, -0.2]]},
    ], ids=["fibres", "solve"])
    def test_exit_code_3_on_cn_xi_zero(self, config, monkeypatch, capsys):
        code, out, err = main_in_process(config, monkeypatch, capsys)
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1
        error = json.loads(err)["error"]
        assert error["type"] == "DegenerateDirectionError" and "CN(xi) = 0" in error["message"]

    def test_exit_code_3_names_an_anchor_whose_stencil_scale_overflows(self, monkeypatch,
                                                                        capsys):
        # |z|^2 passes the double range at z1 = 1e155: the anchor's first
        # root's check raises, after the rows of the points before it; was
        # the bare OverflowError: (34, 'Numerical result out of range')
        config = {"task": "verify", "data": RADIAL,
                  "points": [[0.3, 1.1, -0.2], [1e155, 0.5, 0.2], [0.7, 0.1, 0.9]]}
        code, out, err = main_in_process(config, monkeypatch, capsys)
        assert code == 3 and out == ""
        assert json.loads(err) == {"error": {
            "type": "RangeOverflowError",
            "message": "the stencil scale |z| overflows at z = CVec3((1e+155+0j), (0.5+0j), "
                       "(0.2+0j))"}}

    # a constant G whose line system rounds to a singular matrix
    SINGULAR_G = {"op": "const", "value": [-8.518165536645671e+76, -8.006406169830353e+76]}
    SINGULAR_DATA = {"G": {"f1": SINGULAR_G, "f2": SINGULAR_G},
                     "H": {"f": {"op": "const", "value": [1, 0]}}}

    @pytest.mark.parametrize("config", [
        {"task": "fibres", "data": SINGULAR_DATA, "params": [[0.0, 0.0, 0.0, 0.0]],
         "samples": 1},
        {"task": "verify", "data": SINGULAR_DATA,
         "samples": [{"q": [0.0, 0.0, 0.0, 0.0], "z": [0, 0, 0]}]},
    ], ids=["fibres", "verify-samples"])
    def test_exit_code_3_on_a_singular_line_system(self, config, monkeypatch, capsys):
        # was numpy's LinAlgError: Singular matrix
        code, out, err = main_in_process(config, monkeypatch, capsys)
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == {
            "type": "DegenerateDirectionError",
            "message": "the line fibre's system is singular at q = Bicomplex(0j, 0j)"}

    @pytest.mark.parametrize("config", [
        {"task": "fibres", "data": RADIAL, "samples": 1,
         "params": [[0.5, 0, 0, 0], [1e155, 0, 0, 0], [0, 0, 2e155, 0]]},
        {"task": "verify", "data": RADIAL,
         "samples": [{"q": [0.5, 0, 0, 0], "z": [0, 0, 0]},
                     {"q": [1e155, 0, 0, 0], "z": [0, 0, 0]},
                     {"q": [0, 0, 2e155, 0], "z": [0, 0, 0]},
                     {"q": [1, 0, 0], "z": [0, 0, 0]}]},
    ], ids=["fibres", "verify-samples"])
    def test_exit_code_3_on_an_overflowing_g_norm(self, config, monkeypatch, capsys):
        # |G(q)|^2 past the double range at G = q, the first such parameter
        # named: was the bare OverflowError (34, 'Numerical result out of range')
        code, out, err = main_in_process(config, monkeypatch, capsys)
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == {
            "type": "RangeOverflowError",
            "message": "|G(q)|^2 overflows at q = Bicomplex((1e+155+0j), 0j)"}

    # G = q, H = q + 0.5: at this q the Ringleb part f - e overflows, so
    # G(q) = (0, nan + nan j) and CN(G) = -1 is taken with k = g1 = 0
    NAN_G_DATA = {"G": {"f": VAR},
                  "H": {"f": {"op": "add", "args": [VAR, {"op": "const", "value": [0.5, 0]}]}}}
    NAN_G_Q = [-0.107, -0.859, -1.7e308, 1e155]

    @pytest.mark.parametrize("config", [
        {"task": "fibres", "data": NAN_G_DATA, "params": [[0.5, 0, 0, 0], NAN_G_Q]},
        {"task": "verify", "data": NAN_G_DATA,
         "samples": [{"q": [0.5, 0, 0, 0], "z": [0, 0, 0]}, {"q": NAN_G_Q, "z": [0, 0, 0]},
                     {"q": [1, 0, 0], "z": [0, 0, 0]}]},
    ], ids=["fibres", "verify-samples"])
    def test_exit_code_3_names_a_g_value_that_is_not_finite(self, config, monkeypatch, capsys):
        # was the bare ZeroDivisionError: complex division by zero
        code, out, err = main_in_process(config, monkeypatch, capsys)
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == {
            "type": "RangeOverflowError",
            "message": "G(q) is not finite at q = Bicomplex((-0.107-0.859j), (-1.7e+308+1e+155j))"}

    @pytest.mark.parametrize("z, shown", [
        ([1e155, 0, 0], "CVec3((1e+155+0j), 0j, 0j)"),
        ([[1.7e308, 1.3e308], 0, 0], "CVec3((1.7e+308+1.3e+308j), 0j, 0j)"),
        ([0, 0, [0, -1e155]], "CVec3(0j, 0j, -1e+155j)"),
    ], ids=["1e155", "abs-too-large", "u3"])
    def test_exit_code_3_names_a_sample_whose_checks_overflow(self, z, shown, monkeypatch,
                                                              capsys):
        # G = q, H = 0: the residual |xi(G) . z| and the fibre test's |z|
        # pass the double range on the scalar path the sample's lane is left
        # to, in its turn, before the malformed sample after it: was the bare
        # OverflowError of a float square or of a complex abs
        config = {"task": "verify", "data": RADIAL,
                  "samples": [{"q": [0.5, 0, 0, 0], "z": [0, 0, 0]},
                              {"q": [0.5, 0, 0, 0], "z": z},
                              {"q": [1, 0, 0], "z": [0, 0, 0]}]}
        code, out, err = main_in_process(config, monkeypatch, capsys)
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == {
            "type": "RangeOverflowError",
            "message": "the residual or the fibre test overflows at the sample "
                       f"q = Bicomplex((0.5+0j), 0j), z = {shown}"}

    # G = 1/q has a pole at the first parameter, and the second is malformed
    POLE_DATA = {"G": {"f": {"op": "div", "args": [{"op": "const", "value": 1}, VAR]}},
                 "H": {"f": {"op": "const", "value": 0}}}

    def test_verify_samples_raise_a_pole_before_a_later_malformed_sample(
            self, monkeypatch, capsys):
        # a point-by-point run parses a sample after checking the ones before
        # it: the pole at sample 0 is raised, not sample 1's schema error
        config = {"task": "verify", "data": self.POLE_DATA,
                  "samples": [{"q": [0, 0, 0, 0], "z": [1, 0, 0]},
                              {"q": [1, 0, 0], "z": [1, 0, 0]}]}
        code, out, err = main_in_process(config, monkeypatch, capsys)
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == {"type": "PoleEncounteredError",
                                            "message": "division by 0j"}

    def test_fibres_parse_every_param_before_the_first_fibre(self, monkeypatch, capsys):
        config = {"task": "fibres", "data": self.POLE_DATA,
                  "params": [[0, 0, 0, 0], [1, 0, 0]]}
        code, out, err = main_in_process(config, monkeypatch, capsys)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"]["type"] == "ExprSchemaError"

    def test_exit_code_3_on_overflowing_companion_matrix(self, monkeypatch, capsys):
        # G = 2 q^2 - 1.73 q - 1e155: finite congruence coefficients near the
        # double range whose companion row overflows at the second point
        g = {"op": "add", "args": [
            {"op": "const", "value": -1e155},
            {"op": "mul", "args": [{"op": "const", "value": -1.7334714896204129}, VAR]},
            {"op": "mul", "args": [{"op": "const", "value": 2.0},
                                   {"op": "pow", "args": [VAR], "exp": 2}]}]}
        config = {"task": "verify", "data": {"G": {"f": g}, "H": {"f": {"op": "const", "value": 2}}},
                  "points": [[2.0, -0.55, -1.25], [-1e155, 1.0, -2]]}
        code, out, err = main_in_process(config, monkeypatch, capsys)
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1
        error = json.loads(err)["error"]
        assert error["type"] == "InvalidInputError"
        assert "companion matrix overflows" in error["message"]

    # z2 = 1.3e308 (1 + i): a congruence coefficient has finite parts and a
    # modulus past the double range
    HUGE_Z2 = [[0, 0], [1.3e308, 1.3e308], [0, 0]]

    @pytest.mark.parametrize("config", [
        {"task": "solve", "data": RADIAL, "points": [[0.3, 1.1, -0.2], HUGE_Z2, [1, 0, 0]]},
        {"task": "verify", "data": RADIAL, "points": [[0.3, 1.1, -0.2], HUGE_Z2, [1, 0, 0]]},
    ], ids=["solve", "verify-points"])
    def test_exit_code_3_names_a_coefficient_modulus_past_the_double_range(
            self, config, monkeypatch, capsys):
        # was the bare OverflowError: absolute value too large
        code, out, err = main_in_process(config, monkeypatch, capsys)
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == {
            "type": "RangeOverflowError",
            "message": "a coefficient or root overflows at "
                       "z = CVec3(0j, (1.3e+308+1.3e+308j), 0j)"}

    # G = a + b q and a constant H: at z1 = 2.2e-313 + 1e300 i the lanes
    # leave the point to solve_phi, where a root's residual |F(q)| passes
    # the double range
    RESIDUAL_DATA = {
        "G": {"f": {"op": "add", "args": [
            {"op": "const", "value": [-1.3137242841125454, -0.9568882131323629]},
            {"op": "mul", "args": [{"op": "const", "value": [-0.9619186360980944,
                                                             -0.1443993241113284]}, VAR]}]}},
        "H": {"f1": {"op": "const", "value": [-1.3947840619881147, 0.1270633057973003]},
              "f2": {"op": "const", "value": [-1.4155030180971613, -1.2473327340074034]}}}
    RESIDUAL_Z = [[2.2250738585e-313, 1e300], [-0.7767057333411369, -1.3598024676251217],
                  -0.17526737933791026]

    @pytest.mark.parametrize("task", ["solve", "verify"])
    def test_exit_code_3_names_a_root_whose_residual_overflows(self, task, monkeypatch,
                                                               capsys):
        # was the bare OverflowError: (34, 'Numerical result out of range')
        config = {"task": task, "data": self.RESIDUAL_DATA,
                  "points": [[0.3, 1.1, -0.2], self.RESIDUAL_Z, [1, 0, 0]]}
        code, out, err = main_in_process(config, monkeypatch, capsys)
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == {
            "type": "RangeOverflowError",
            "message": "the residual or the derivative scale overflows at the root "
                       "q = Bicomplex((-1.4816749283813189-0.7723473972133715j), 0j) of "
                       "z = CVec3((2.2250738585e-313+1e+300j), "
                       "(-0.7767057333411369-1.3598024676251217j), (-0.17526737933791026+0j))"}

    def test_exit_code_3_names_a_divisor_whose_folded_square_overflows(self, monkeypatch,
                                                                       capsys):
        # H = q / 1e155: dH folds the constant 1e155^2; was the bare
        # OverflowError: complex exponentiation, before any point was solved
        config = {"task": "solve",
                  "data": {"G": {"f": VAR}, "H": {"f": {"op": "div", "args": [
                      VAR, {"op": "const", "value": [1e155, 0]}]}}},
                  "points": [[0.3, 1.1, -0.2]]}
        code, out, err = main_in_process(config, monkeypatch, capsys)
        assert code == 3 and out == ""
        assert json.loads(err)["error"] == {
            "type": "RangeOverflowError",
            "message": "the square of the divisor (1e+155+0j) overflows in the derivative "
                       "of a quotient"}

    @pytest.mark.parametrize("op, value, shown", [
        ("to_point", [-1.39889134076066, -1.488864268588745, -0.5047852197115589, 1e300],
         "[-1.39889134076066, -1.488864268588745, -0.5047852197115589, 1e+300]"),
        ("from_point", [[1e300, 0], [1e300, 0], [0, 0], [0, 0]],
         "[[1e+300, 0], [1e+300, 0], [0, 0], [0, 0]]"),
    ], ids=["to_point", "from_point"])
    def test_exit_code_3_names_a_chart_value_whose_q2c_norm_overflows(self, op, value, shown,
                                                                      monkeypatch, capsys):
        # QuadricPointC's |zeta|^2 passes the double range; was the bare
        # OverflowError: (34, 'Numerical result out of range')
        config = {"task": "charts", "charts": {"op": op, "space": "Q2C", "chart": "L",
                                               "values": [[0, 0, 0, 0] if op == "to_point"
                                                          else [[1, 0], [1, 0], [0, 0], [0, 0]],
                                                          value]}}
        code, out, err = main_in_process(config, monkeypatch, capsys)
        assert code == 3 and out == ""
        assert json.loads(err)["error"] == {
            "type": "RangeOverflowError",
            "message": f"'{op}' overflows at the Q2C chart L value {shown}"}

    def test_exit_code_3_names_a_transition_value_whose_pole_check_overflows(self, monkeypatch,
                                                                            capsys):
        # the lanes flag the value, and the scalar transition's pole check
        # takes abs of a part past the double range; was the bare
        # OverflowError: absolute value too large
        config = {"task": "charts", "charts": {"op": "transition", "from": "Gcheck", "to": "L",
                                               "values": [[0.5, 0, 0, 0],
                                                          [1.7e308, 1.7e308, -1, 0.5]]}}
        code, out, err = main_in_process(config, monkeypatch, capsys)
        assert code == 3 and out == ""
        assert json.loads(err)["error"] == {
            "type": "RangeOverflowError",
            "message": "'transition' overflows from chart Gcheck to chart L at the value "
                       "Bicomplex((1.7e+308+1.7e+308j), (-1+0.5j))"}

    def test_exit_code_3_on_a_lone_nan_companion_coefficient(self, monkeypatch, capsys):
        # G's e-side -1e155 i + q + q^2 at z = 0: the component's one nonzero
        # coefficient is NaN, and np.roots found no root (a ValueError from
        # max() of an empty list)
        f1 = {"op": "add", "args": [
            {"op": "const", "value": [0, -1e155]},
            {"op": "mul", "args": [VAR, {"op": "add", "args": [
                {"op": "const", "value": [1, 0]}, VAR]}]}]}
        config = {"task": "solve",
                  "data": {"G": {"f1": f1, "f2": {"op": "const", "value": [1, 0]}},
                           "H": {"f": {"op": "const", "value": [0, 0]}}},
                  "points": [[[0, 0], [0, 0], [0, 0]]]}
        code, out, err = main_in_process(config, monkeypatch, capsys)
        assert code == 3 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "InvalidInputError"
        assert "the data overflow at this point" in error["message"]

    @pytest.mark.parametrize("g, code, error", [
        # an op that is a list is unhashable: no op, not a TypeError traceback
        ({"op": []}, 2, "ExprSchemaError"),
        # a constant folded to zero, or underflowing to zero, to a negative
        # power is a pole, not a ZeroDivisionError traceback
        ({"op": "pow", "args": [{"op": "div", "args": [CONST0, VAR]}], "exp": -6},
         3, "PoleEncounteredError"),
        ({"op": "pow", "args": [{"op": "const", "value": -2.2e-308}], "exp": -2},
         3, "PoleEncounteredError"),
    ], ids=["list-op", "zero-negative-power", "underflow-negative-power"])
    def test_fuzzer_crashes_exit_cleanly(self, g, code, error, monkeypatch, capsys):
        config = {"task": "solve", "data": {"G": {"f": g}, "H": {"f": VAR}},
                  "points": [[0, 1, 1]]}
        got, out, err = main_in_process(config, monkeypatch, capsys)
        assert got == code and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"]["type"] == error

    @pytest.mark.parametrize("g", [
        {"op": "pow", "args": [VAR], "exp": 100000},
        {"op": "pow", "args": [VAR], "exp": -100000},
        # a constant base keeps degree 0, yet extraction loops |exp| times
        {"op": "pow", "args": [{"op": "div", "args": [CONST0, {"op": "const", "value": 2}]}],
         "exp": 10 ** 9},
        # nested powers multiply: each exponent is within the cap, the degree is not
        {"op": "pow", "args": [{"op": "pow", "args": [VAR], "exp": 64}], "exp": 64},
        {"op": "mul", "args": [VAR] * 65},
        {"op": "div", "args": [{"op": "pow", "args": [VAR], "exp": 40},
                               {"op": "pow", "args": [VAR], "exp": 40}]},
    ], ids=["pow-1e5", "pow-neg-1e5", "const-pow-1e9", "nested-pow", "mul-65", "div-80"])
    def test_exit_code_2_on_degree_cap(self, g, monkeypatch, capsys):
        config = {"task": "solve", "data": {"G": {"f": g}, "H": {"f": CONST0}},
                  "points": [[0, 1, 0]]}
        t0 = time.perf_counter()
        code, out, err = main_in_process(config, monkeypatch, capsys)
        assert time.perf_counter() - t0 < 1.0
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "ExprSchemaError"

    def test_degree_cap_admits_degree_64(self):
        g = {"op": "pow", "args": [VAR], "exp": 64}
        config = {"task": "solve", "data": {"G": {"f1": g, "f2": VAR}, "H": {"f": CONST0}},
                  "points": [[0.3, 1.1, -0.2]]}
        code, text = run_config(config)
        assert code == 0
        assert len(json.loads(text)["results"][0]["roots"]) == 128 * 2

    @pytest.mark.parametrize("counts", [[1e5, 1e5, 1e5], [100, 100, 11]],
                             ids=["1e15", "110000"])
    def test_exit_code_2_on_grid_cap(self, counts, monkeypatch, capsys):
        config = {"task": "slice", "slice": "euclidean",
                  "g": {"f": VAR}, "h": {"f": CONST0},
                  "grid": {"min": [-1, -1, -1], "max": [1, 1, 1], "counts": counts}}
        t0 = time.perf_counter()
        code, out, err = main_in_process(config, monkeypatch, capsys)
        assert time.perf_counter() - t0 < 1.0
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "ExprSchemaError"

    @pytest.mark.parametrize("params, samples", [
        ([[1, 0, 2, 0]], 10 ** 9),
        ([[1, 0, 2, 0]] * 11, 10_000),
        # a JSON boolean is a Python int; true must not read as one sample
        ([[1, 0, 2, 0]], True),
    ], ids=["1e9", "11x1e4", "bool"])
    def test_exit_code_2_on_fibres_samples(self, params, samples, monkeypatch, capsys):
        config = {"task": "fibres", "data": PROJECTION, "params": params,
                  "samples": samples}
        t0 = time.perf_counter()
        code, out, err = main_in_process(config, monkeypatch, capsys)
        assert time.perf_counter() - t0 < 1.0
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "ExprSchemaError"

    def test_fibres_samples_cap_admits_the_limit(self, monkeypatch):
        # the cap counts samples over all params, the limit itself included
        monkeypatch.setattr(cli, "MAX_POINTS", 8)
        config = {"task": "fibres", "data": PROJECTION,
                  "params": [[1, 0, 2, 0]] * 2, "samples": 4}
        code, text = run_config(config)
        assert code == 0
        assert [len(r["samples"]) for r in json.loads(text)["results"]] == [4, 4]
        with pytest.raises(ExprSchemaError):
            run_config(dict(config, samples=5))

    @pytest.mark.parametrize("task", ["solve", "verify", "slice"])
    def test_exit_code_2_on_root_cap(self, task, monkeypatch, capsys):
        # G = q^64 on both sides: 128 x 128 roots a point, 7 points pass the cap
        g = {"f": {"op": "pow", "args": [VAR], "exp": 64}}
        points = [[0.3, 1.1, -0.2]] * 7
        if task == "slice":
            config = {"task": task, "slice": "euclidean", "g": g, "h": {"f": CONST0},
                      "points": points}
        else:
            config = {"task": task, "data": {"G": g, "H": {"f": CONST0}},
                      "points": points}
        t0 = time.perf_counter()
        code, out, err = main_in_process(config, monkeypatch, capsys)
        assert time.perf_counter() - t0 < 1.0
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "ExprSchemaError"

    def test_root_cap_admits_the_limit(self, monkeypatch):
        # radial data has 2 x 2 roots a point; the limit itself is admitted
        monkeypatch.setattr(cli, "MAX_ROOTS", 8)
        config = {"task": "solve", "data": RADIAL, "points": [[0, 1, 0]] * 2}
        code, text = run_config(config)
        assert code == 0
        assert [len(r["roots"]) for r in json.loads(text)["results"]] == [4, 4]
        with pytest.raises(ExprSchemaError):
            run_config(dict(config, points=[[0, 1, 0]] * 3))

    @pytest.mark.parametrize("config", [
        {"task": "solve", "data": RADIAL, "points": [[True, 1, 0]]},
        {"task": "solve", "points": [[0, 1, 0]],
         "data": {"G": {"f": {"op": "const", "value": [True, 0]}}, "H": {"f": CONST0}}},
        {"task": "solve", "points": [[0, 1, 0]],
         "data": {"G": {"f": {"op": "pow", "args": [VAR], "exp": True}},
                  "H": {"f": CONST0}}},
        {"task": "fibres", "data": PROJECTION, "params": [[True, False, 0, 0]]},
        {"task": "slice", "slice": "euclidean", "g": {"f": VAR}, "h": {"f": CONST0},
         "points": [[True, 0, 0]]},
        {"task": "slice", "slice": "euclidean", "g": {"f": VAR}, "h": {"f": CONST0},
         "grid": {"min": [0, 0, 0], "max": [1, 1, 1], "counts": [2, True, 1]}},
        {"task": "slice", "slice": "euclidean", "g": {"f": VAR}, "h": {"f": CONST0},
         "grid": {"min": [0, 0, 0], "max": [1, 1, 1], "counts": [2.9, 1, 1]}},
        {"task": "slice", "slice": "euclidean", "g": {"f": VAR}, "h": {"f": CONST0},
         "grid": {"min": [False, 0, 0], "max": [1, 1, 1], "counts": [2, 1, 1]}},
    ], ids=["point", "const-value", "pow-exp", "params", "slice-point", "grid-counts-bool",
            "grid-counts-fraction", "grid-min-bool"])
    def test_exit_code_2_on_boolean_or_fractional_number(self, config, monkeypatch,
                                                         capsys):
        # Python reads a JSON true as 1 and int(2.9) as 2: each ran on a wrong number
        code, out, err = main_in_process(config, monkeypatch, capsys)
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "ExprSchemaError"

    @pytest.mark.parametrize("stage", ["parse", "run"])
    def test_exit_code_3_on_memory_error(self, stage, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError("out of memory")
        if stage == "parse":
            monkeypatch.setattr(cli.json, "loads", exhausted)
        else:
            monkeypatch.setitem(cli._RUNNERS, "solve", exhausted)
        config = {"task": "solve", "data": RADIAL, "points": [[0, 1, 0]]}
        code, out, err = main_in_process(config, monkeypatch, capsys)
        monkeypatch.undo()
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == {"type": "MemoryError",
                                            "message": "out of memory"}

    @pytest.mark.parametrize("text", [
        # nesting deep enough to exhaust the JSON decoder
        "[" * 2000 + "]" * 2000,
        # a flat 5000-term sum parses into a tree too deep to differentiate
        json.dumps({"task": "solve",
                    "data": {"G": {"f": {"op": "add", "args": [VAR] * 5000}},
                             "H": {"f": CONST0}},
                    "points": [[0, 1, 0]]}),
    ], ids=["json", "expression"])
    def test_exit_code_2_on_deep_nesting(self, text):
        proc = subprocess.run([sys.executable, "-m", "bhm.cli"],
                              input=text.encode(), capture_output=True)
        assert proc.returncode == 2
        assert json.loads(proc.stderr)["error"]["type"] == "RecursionError"


# argv for main, each on one config: the task override, CSV, a bad format
# (argparse's exit 2 with usage), a tolerance and a bad tolerance
_ARGV = [[], ["--task", "verify"], ["--format", "csv"], ["--format", "xml"],
         ["--tol", "1e-6"], ["--tol", "nan"], ["--format", "csv", "--task", "slice"],
         ["--seed", "3", "--task", "fibres"]]


def _main_outcome(config, argv, monkeypatch, capsys):
    """main(argv) on a config: (exit code, stdout, stderr), argparse's
    SystemExit included."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(config)))
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_the_shared_parser_answers_as_a_fresh_one(monkeypatch, capsys):
    # main parses with one parser, built on its first call; calls in one
    # process, in turn, give what a parser built for each call gives
    config = {"task": "solve", "data": RADIAL, "points": [[0.3, 1.1, -0.2]],
              "slice": "euclidean", "g": {"f": VAR}, "h": {"f": CONST0},
              "params": [[0.5, 0.1, 0.2, 0.3]]}
    shared = [_main_outcome(config, argv, monkeypatch, capsys) for argv in _ARGV * 2]
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", cli._parser.__wrapped__)  # a parser per call
    fresh = [_main_outcome(config, argv, monkeypatch, capsys) for argv in _ARGV * 2]
    assert shared == fresh
    codes = [code for code, _, _ in shared[:len(_ARGV)]]
    assert codes == [0, 0, 0, 2, 0, 2, 0, 0]
    assert shared[3][2].startswith("usage: bhm") and "invalid choice: 'xml'" in shared[3][2]
    assert shared[1][1] != shared[0][1] and shared[2][1].startswith("p1_re,")


# G = 7.6e153 q^3 and H = 0: at q = (1.7e308, 0, 0, 0) the power q^3 passes
# the double range, and so does G(q)
_POWER_OVERFLOW = {
    "G": {"f": {"op": "mul", "args": [{"op": "const", "value": [7.6e153, 0]},
                                      {"op": "pow", "args": [VAR], "exp": 3}]}},
    "H": {"f": CONST0}}


@pytest.mark.parametrize("config", [
    {"task": "fibres", "data": _POWER_OVERFLOW, "params": [[1.7e308, 0, 0, 0]]},
    {"task": "verify", "data": _POWER_OVERFLOW,
     "samples": [{"q": [1.7e308, 0, 0, 0], "z": [0, 0, 0]}]},
], ids=["fibres", "verify-samples"])
def test_exit_code_3_names_a_power_that_overflows_in_fibre_at(config, monkeypatch, capsys):
    code, out, err = main_in_process(config, monkeypatch, capsys)
    assert code == 3 and out == ""
    q = Bicomplex(1.7e308, 0)
    assert json.loads(err)["error"] == {"type": "RangeOverflowError",
                                        "message": f"G(q) or H(q) overflows at q = {q!r}"}


def _main_on_text(text, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code = main([])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _every_number_hooked(monkeypatch):
    """Parse every config with the ``_finite`` hook on each number, as the
    C scanner's own number parse is not used."""
    monkeypatch.setattr(cli, "_large_number", lambda text: True)


class TestConfigNumbers:
    """The config's numbers are parsed by the C scanner unless a token
    could pass the double range; every outcome is the hooked parse's."""

    @pytest.mark.parametrize("token, error", [
        ("1e400", "number 1e400 is not a finite double"),
        ("-1e400", "number -1e400 is not a finite double"),
        ("1e308", None),
        ("1E+400", "number 1E+400 is not a finite double"),
        ("-1e0099", None),  # a three-digit exponent, parsed with the hook, is still finite
        ("1" + "0" * 250 + "e99", "number 1" + "0" * 31 + " is not a finite double"),
        ("9" * 309, "number " + "9" * 32 + " is not a finite double"),
        ("9" * 4301, "ValueError"),
        ("NaN", "number NaN is not a finite double"),
        ("Infinity", "number Infinity is not a finite double"),
        ("-Infinity", "number -Infinity is not a finite double"),
        ('"1e400"', "bicomplex value must be"),
    ], ids=["1e400", "-1e400", "1e308", "1E+400", "-1e0099", "250-zeros-e99", "309-digits", "4301-digits", "nan",
            "inf", "-inf", "in-a-string"])
    def test_numbers_past_the_double_range(self, token, error, monkeypatch, capsys):
        # constant G and H: any finite parameter has its fibre
        text = ('{"task": "fibres", "note": "1e999", "samples": 0, "data": {"G": {"f": '
                '{"op": "const", "value": [0.5, 0]}}, "H": {"f": {"op": "const", "value": '
                '[0, 1]}}}, "params": [[%s, 0, 0, 0]]}' % token)
        got = _main_on_text(text, monkeypatch, capsys)
        _every_number_hooked(monkeypatch)
        assert _main_on_text(text, monkeypatch, capsys) == got
        code, out, err = got
        if error is None:
            assert code == 0 and json.loads(out)["results"][0]["q"][0] == float(token)
        elif error == "ValueError":
            # the int conversion's own limit, as json.loads raises it
            with pytest.raises(ValueError) as raised:
                int(token)
            assert code == 2 and json.loads(err)["error"] == {"type": "ValueError",
                                                              "message": str(raised.value)}
        else:
            assert code == 2 and out == ""
            assert error in json.loads(err)["error"]["message"]

    def test_plain_numbers_skip_the_number_hook(self, monkeypatch, capsys):
        calls = []
        finite = cli._finite

        def counting(parse):
            check = finite(parse)

            def number(token):
                calls.append(token)
                return check(token)
            return number

        monkeypatch.setattr(cli, "_finite", counting)
        config = {"task": "solve", "data": RADIAL, "points": [[0.5, 1, -2e-3]]}
        got = main_in_process(config, monkeypatch, capsys)
        assert got[0] == 0 and calls == []
        _every_number_hooked(monkeypatch)
        assert main_in_process(config, monkeypatch, capsys) == got
        assert "-2e-3" in calls or "-0.002" in calls

    @pytest.mark.parametrize("leaf", ["1", "-2.5e-3", "[]", '"x"'])
    def test_nesting_at_the_recursion_limit_ends_as_the_hooked_parse(self, leaf, monkeypatch,
                                                                     capsys):
        # a number at the deepest level calls the hook, whose frames count
        # against the limit: near it, the parse must end as the hooked one
        limit = sys.getrecursionlimit()
        outcomes = []
        for depth in range(limit - 80, limit + 5):
            text = "[" * depth + leaf + "]" * depth
            with monkeypatch.context() as m:
                got = _main_on_text(text, m, capsys)
                _every_number_hooked(m)
                want = _main_on_text(text, m, capsys)
            assert got == want, depth
            outcomes.append(json.loads(got[2])["error"]["type"])
        # both sides of the limit were reached
        assert "ExprSchemaError" in outcomes and "RecursionError" in outcomes
