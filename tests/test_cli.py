"""CLI: scene schema, determinism, exit codes and round-trips."""

import io
import json
import subprocess
import sys
import time

import pytest

from bhm import cli
from bhm.cli import main, run
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

    def test_exit_code_3_on_overflowing_constant(self, monkeypatch, capsys):
        g = {"op": "pow", "args": [{"op": "const", "value": [1e300, 0]}], "exp": 2}
        config = {"task": "solve", "data": {"G": {"f": g}, "H": {"f": CONST0}},
                  "points": [[0, 1, 0]]}
        code, out, err = main_in_process(config, monkeypatch, capsys)
        assert code == 3 and out == ""
        assert json.loads(err)["error"]["type"] == "OverflowError"

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
