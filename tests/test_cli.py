import functools
import json
import os
import pathlib
import struct
import subprocess
import sys
import tempfile
import types

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.interpolate import LinearNDInterpolator

import gma.solver
from gma import boundary, cli, errors, geometry, guillemin, verify
from gma.errors import QuadratureFailure, ValidationError
from gma.problem import GuilleminProblem


def write_problem(path, body):
    path.write_text(json.dumps(body))
    return str(path)


def simplex_body(density=None, side=1.0):
    body = {
        "dimension": 2,
        "facets": [
            {"normal": [1.0, 0.0], "offset": 0.0},
            {"normal": [0.0, 1.0], "offset": 0.0},
            {"normal": [-1.0, -1.0], "offset": -side},
        ],
    }
    if density is not None:
        body["density"] = density
    return body


def square_body(density=None, side=1.0):
    body = {
        "dimension": 2,
        "facets": [
            {"normal": [1.0, 0.0], "offset": 0.0},
            {"normal": [-1.0, 0.0], "offset": -side},
            {"normal": [0.0, 1.0], "offset": 0.0},
            {"normal": [0.0, -1.0], "offset": -side},
        ],
    }
    if density is not None:
        body["density"] = density
    return body


def cube_body(density):
    facets = []
    for e in np.eye(3).tolist():
        facets.append({"normal": e, "offset": 0.0})
        facets.append({"normal": [-c for c in e], "offset": -1.0})
    return {"dimension": 3, "facets": facets, "density": density}


def infinite_density_problem(path):
    # JSON reads 1e309 as inf, so the density is infinite everywhere
    body = json.dumps(simplex_body({"type": "constant", "value": "c"}))
    path.write_text(body.replace('"c"', "1e309"))
    return str(path)


def strict_json(text):
    # RFC 8259 has no NaN or Infinity
    def reject(name):
        raise ValueError("%s is not JSON" % name)
    return json.loads(text, parse_constant=reject)


def octahedron_body():
    facets = []
    for sx in (1.0, -1.0):
        for sy in (1.0, -1.0):
            for sz in (1.0, -1.0):
                facets.append({"normal": [sx, sy, sz], "offset": -1.0})
    return {"dimension": 3, "facets": facets}


# the options each subcommand reads, each with a value for a quick run
# (None for a switch); every subcommand also takes --report and
# --deterministic, all but model and verify take a problem file, and
# verify runs its oracle suite, which reads --seed of the suite options
COMMAND_OPTIONS = {
    "check": {},
    "boundary": {"--grid": "5", "--tol": "1e-10", "--dump": "d.csv"},
    "solve": {"--grid": "5", "--tol": "1e-10", "--max-iter": "30",
              "--dump": "d.csv", "--strict": None},
    "model": {"--grid": "9", "--tol": "1e-10", "--max-iter": "30",
              "--dump": "d.csv", "--strict": None, "--form": "z",
              "--depth": "0.25"},
    "verify": {"--dump": "d.csv", "--seed": "0", "--strict": None},
    "oracle": {"--point": "0.5,0.25", "--k": "1"},
}

# the flags every subcommand used to take, whether it read them or not
FORMER_COMMON = ("--grid", "--levels", "--tol", "--max-iter", "--dump",
                 "--seed", "--threads", "--strict")


@pytest.mark.parametrize("command", sorted(COMMAND_OPTIONS))
def test_options_follow_the_command_table(tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    head = [command]
    if command in ("check", "boundary", "solve"):
        head.append(write_problem(tmp_path / "p.json", simplex_body()))
    if command == "verify":
        head += ["--suite", "oracles"]
    options = COMMAND_OPTIONS[command]
    argv = list(head)
    for flag, value in options.items():
        argv += [flag] if value is None else [flag, value]
    assert cli.run(argv + ["--deterministic", "--report", "r.json"]) == 0
    # the report's config names exactly what the command read; the dump
    # path, like the report path, is an output location and stays out
    expect = {"subcommand", "deterministic"} | {
        flag[2:].replace("-", "_") for flag in options if flag != "--dump"}
    if command not in ("model", "verify"):
        expect.add("problem")
    if command == "verify":
        expect.add("suite")
    config = json.loads((tmp_path / "r.json").read_text())["config"]
    assert set(config) == expect
    for flag in FORMER_COMMON:
        if flag not in options:
            extra = [flag] if flag == "--strict" else [flag, "5"]
            assert cli.run(head + extra) == 64, flag
    if command == "solve":
        # the facet solves are read off the boundary build by `boundary`
        assert cli.run(head + ["--chart", "face"]) == 64


class TestCheck:
    def test_simplex_passes(self, tmp_path, capsys):
        path = write_problem(tmp_path / "p.json", simplex_body())
        code = cli.run(["check", path])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["schema_version"]
        assert out["simple"] is True
        assert out["compatibility"]["pass"] is True
        assert out["config"]["subcommand"] == "check"

    def test_octahedron_not_simple(self, tmp_path):
        path = write_problem(tmp_path / "oct.json", octahedron_body())
        report = tmp_path / "r.json"
        code = cli.run(["check", path, "--report", str(report)])
        out = json.loads(report.read_text())
        assert code == 2
        assert out["simple"] is False
        assert len(out["nonsimple_vertices"]) == 6
        assert "not simple" in out["message"]

    def test_square_doubled_density_incompatible(self, tmp_path):
        path = write_problem(
            tmp_path / "sq.json",
            square_body({"type": "constant", "value": 2.0}))
        report = tmp_path / "r.json"
        code = cli.run(["check", path, "--report", str(report)])
        out = json.loads(report.read_text())
        assert code == 2
        assert out["simple"] is True
        assert out["compatibility"]["pass"] is False
        assert out["compatibility"]["max_abs"] == pytest.approx(1.0,
                                                                abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("width, expect", [
        (1e-6, 0), (1e-8, 2), (1e-9, 2), (1e-11, 2), (1e-13, 2)])
    def test_sliver_exit_codes(self, tmp_path, n, width, expect):
        # the box [0, 1]^(n-1) x [0, width] with its induced density, on
        # each side of the empty-interior threshold: a sliver rejected as
        # redundant or as empty is invalid input either way
        facets = []
        for e in np.eye(n).tolist():
            facets.append({"normal": e, "offset": 0.0})
            facets.append({"normal": [-c for c in e],
                           "offset": -width if e[-1] else -1.0})
        path = write_problem(tmp_path / "p.json", {
            "dimension": n, "facets": facets,
            "density": {"type": "guillemin"}})
        assert cli.run(["check", path]) == expect

    def test_long_normal_passes(self, tmp_path):
        # the triangle x >= 0, y >= 0, x + 1e6 y <= 1 keeps its vertex
        # (1, 0), and its induced density matches at every vertex
        body = simplex_body({"type": "guillemin"})
        body["facets"][2]["normal"] = [-1.0, -1e6]
        report = tmp_path / "r.json"
        path = write_problem(tmp_path / "p.json", body)
        assert cli.run(["check", path, "--report", str(report)]) == 0
        assert json.loads(report.read_text())["vertices"] == 3

    def test_small_absolute_residual_passes_like_solve(self, tmp_path):
        # residual 1e-9 at every vertex of the unit triangle, within the
        # relative rule 1e-8 |h(p)|, so check must pass where solve runs
        path = write_problem(
            tmp_path / "p.json",
            simplex_body({"type": "constant", "value": 1.0 + 1e-9}))
        assert cli.run(["check", path, "--report",
                        str(tmp_path / "r.json")]) == 0
        assert cli.run(["solve", path, "--grid", "5", "--report",
                        str(tmp_path / "s.json")]) == 0

    def test_large_relative_residual_fails_like_solve(self, tmp_path):
        # on the triangle with legs 1e-3 the compatible constant is 1e-3;
        # a residual of 5e-11 is 5e-8 |h(p)|, so check must fail where
        # solve refuses the density
        body = simplex_body({"type": "constant", "value": 1e-3 + 5e-11})
        body["facets"][2]["offset"] = -1e-3
        path = write_problem(tmp_path / "p.json", body)
        report = tmp_path / "r.json"
        assert cli.run(["check", path, "--report", str(report)]) == 2
        out = json.loads(report.read_text())
        assert out["compatibility"]["pass"] is False
        assert out["compatibility"]["max_abs"] < 1e-10
        assert cli.run(["solve", path, "--grid", "5", "--report",
                        str(tmp_path / "s.json")]) == 2

    def test_infinite_density_fails(self, tmp_path):
        # the parser refuses the infinite constant and names its field
        path = infinite_density_problem(tmp_path / "p.json")
        report = tmp_path / "r.json"
        assert cli.run(["check", path, "--report", str(report)]) == 2
        out = strict_json(report.read_text())
        assert out["error"]["kind"] == "ValidationError"
        assert "'value' must be finite" in out["error"]["message"]

    @pytest.mark.parametrize("density, field", [
        ('{"type": "constant", "value": NaN}', "value"),
        ('{"type": "perturbed", "amplitude": 1e309}', "amplitude"),
        ('{"type": "perturbed", "amplitude": NaN}', "amplitude"),
        ('{"type": "polynomial", "terms": [{"exponents": [0, 0], '
         '"coeff": 1e309}]}', "coeff"),
        ('{"type": "polynomial", "terms": [{"exponents": [0, 0], '
         '"coeff": NaN}]}', "coeff")],
        ids=["value-nan", "amplitude-inf", "amplitude-nan", "coeff-inf",
             "coeff-nan"])
    def test_non_finite_parameter_names_its_field(
            self, tmp_path, monkeypatch, capsys, density, field):
        # refused while the file is read, before any density call
        def never(self, x):
            raise AssertionError("density called")

        monkeypatch.setattr(guillemin.DensitySpec, "__call__", never)
        body = json.dumps(simplex_body({"type": "d"}))
        path = tmp_path / "p.json"
        path.write_text(body.replace('{"type": "d"}', density))
        assert cli.run(["check", str(path)]) == 2
        assert "'%s' must be finite" % field in capsys.readouterr().err

    def test_one_vertex_rule_evaluation(self, tmp_path, monkeypatch):
        # residuals and verdict come from one evaluation of the rule
        calls = []
        real = GuilleminProblem._vertex_densities

        def spy(self):
            calls.append(1)
            return real(self)

        monkeypatch.setattr(GuilleminProblem, "_vertex_densities", spy)
        path = write_problem(tmp_path / "p.json", simplex_body())
        assert cli.run(["check", path]) == 0
        assert calls == [1]


class TestParsing:
    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli.run(["check", str(path)]) == 1

    def test_missing_facets(self, tmp_path):
        path = write_problem(tmp_path / "p.json", {"dimension": 2})
        assert cli.run(["check", str(path)]) == 1

    def test_wrong_normal_length(self, tmp_path):
        body = simplex_body()
        body["facets"][0]["normal"] = [1.0, 0.0, 0.0]
        path = write_problem(tmp_path / "p.json", body)
        assert cli.run(["check", str(path)]) == 1

    def test_unknown_density_type(self, tmp_path):
        path = write_problem(
            tmp_path / "p.json",
            simplex_body({"type": "fancy"}))
        assert cli.run(["check", str(path)]) == 1

    def test_invalid_tolerance(self, tmp_path):
        path = write_problem(tmp_path / "p.json", simplex_body())
        assert cli.run(["solve", path, "--tol", "0"]) == 2

    def test_usage_error(self):
        assert cli.run(["frobnicate"]) == 64

    @pytest.mark.parametrize("values", [
        float("nan"), float("inf"),
        [{"point": [0, 0], "value": 1.0}, {"point": [0, 0], "value": 2.0}]],
        ids=["nan", "infinity", "named-twice"])
    @pytest.mark.parametrize("command", ["check", "solve"])
    def test_bad_vertex_values_are_exit_two(self, tmp_path, capsys,
                                            command, values):
        # json.load reads NaN and Infinity; a vertex named twice would
        # otherwise keep its last value
        body = simplex_body()
        body["vertex_values"] = values
        path = write_problem(tmp_path / "p.json", body)
        grid = ["--grid", "9"] if command == "solve" else []
        assert cli.run([command, path] + grid) == 2
        assert "vertex" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["check", "--report", "missing/r.json"],
        ["solve", "--grid", "9", "--dump", "missing/x.bin"],
        ["solve", "--grid", "9", "--dump", "."]],
        ids=["report-in-missing-dir", "dump-in-missing-dir", "dump-is-dir"])
    def test_unwritable_output_path_is_exit_two(self, tmp_path, monkeypatch,
                                                command):
        # refused before the problem file is read, not after the solve
        def never(*args, **kwargs):
            raise AssertionError("built before the output path was checked")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "build_boundary_data", never)
        path = write_problem(tmp_path / "p.json", simplex_body())
        assert cli.run(command[:1] + [path] + command[1:]) == 2

    @pytest.mark.parametrize("command", [
        ["boundary", "p.json", "--dump", "t.bin"],
        ["verify", "--suite", "oracles", "--dump", "v.bin"]],
        ids=["boundary", "verify"])
    def test_binary_dump_of_a_text_table_is_exit_two(
            self, tmp_path, monkeypatch, command):
        # the packed GMA1 layout holds floats only, and these tables
        # have text columns; refused before anything runs
        def never(*args, **kwargs):
            raise AssertionError("built before the dump path was checked")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "build_boundary_data", never)
        write_problem(tmp_path / "p.json", simplex_body())
        assert cli.run(command) == 2
        assert not (tmp_path / command[-1]).exists()


# the README's exit code for every error class: 1 for an unreadable
# problem file, 3 for a numerical failure, 2 for any other invalid input
EXIT_CODES = {
    "GmaError": 2, "Unbounded": 2, "EmptyInterior": 2, "RedundantFacet": 2,
    "DegenerateNormals": 2, "NotAFace": 2, "ChartTooLarge": 2,
    "OutsideDomain": 2, "NonSimpleVertex": 2, "MissingTrace": 2,
    "IncompatibleEndpoint": 2, "QuadratureFailure": 3,
    "InconsistentTraces": 3, "SolverError": 3, "NonConvexIterate": 3,
    "LineSearchStall": 3, "SingularJacobian": 3,
    "DegenerateTransversalHessian": 3, "NonEllipticIterate": 3,
    "OutsideQuadrant": 2, "ParseError": 1, "ValidationError": 2,
}


def test_exit_code_table_names_every_error_class():
    classes = {name for name, c in vars(errors).items()
               if isinstance(c, type) and issubclass(c, errors.GmaError)}
    assert classes == set(EXIT_CODES)


@pytest.mark.parametrize("name", sorted(EXIT_CODES))
def test_error_class_decides_the_exit_code(tmp_path, monkeypatch, name):
    def fail(config):
        raise getattr(errors, name)("raised by the test command")

    _, help_line, options = cli._COMMANDS["check"]
    monkeypatch.setitem(cli._COMMANDS, "check", (fail, help_line, options))
    report = tmp_path / "r.json"
    code = cli.run(["check", "p.json", "--report", str(report)])
    assert code == EXIT_CODES[name]
    out = json.loads(report.read_text())
    assert out["error"]["kind"] == name
    assert out["exit_code"] == code


class TestSolve:
    def test_simplex_unit_density_oracle(self, tmp_path):
        path = write_problem(
            tmp_path / "p.json",
            simplex_body({"type": "constant", "value": 1.0}))
        report = tmp_path / "r.json"
        dump = tmp_path / "d.csv"
        code = cli.run(["solve", path, "--grid", "33",
                        "--report", str(report), "--dump", str(dump)])
        out = json.loads(report.read_text())
        assert code == 0
        assert out["solver"]["converged"] is True
        assert out["max_error_vs_oracle"] is not None
        assert out["max_error_vs_oracle"] <= 5e-3
        lines = dump.read_text().strip().splitlines()
        assert lines[0] == "x1,x2,v,u,residual"
        assert len(lines) - 1 == out["nodes"]

    @pytest.mark.parametrize("body", [
        square_body({"type": "guillemin"}, side=2.0),
        simplex_body({"type": "guillemin"}, side=1e5)],
        ids=["square-side-2", "simplex-side-1e5"])
    def test_oracle_adds_the_affine_vertex_data(self, tmp_path, body):
        # sum l log l is nonzero at the vertices here (4 log 2 on the
        # square), so the exact solution is the potential plus the
        # affine function through the vertex values minus it
        path = write_problem(tmp_path / "p.json", body)
        report = tmp_path / "r.json"
        assert cli.run(["solve", path, "--grid", "17",
                        "--report", str(report)]) == 0
        assert json.loads(report.read_text())["max_error_vs_oracle"] <= 1e-9

    def test_oracle_is_null_without_an_affine_fit(self, tmp_path):
        # on the box [0, 1] x [0, 2] one raised corner is not affine data
        body = square_body({"type": "guillemin"})
        body["facets"][3]["offset"] = -2.0
        body["vertex_values"] = [{"point": [1.0, 2.0], "value": 1.0}]
        path = write_problem(tmp_path / "p.json", body)
        report = tmp_path / "r.json"
        assert cli.run(["solve", path, "--grid", "9",
                        "--report", str(report)]) == 0
        assert json.loads(report.read_text())["max_error_vs_oracle"] is None

    def test_large_simplex_solves(self, tmp_path):
        # on x + y <= 1e6 the s log s terms reach 1.4e7 and the edge
        # traces meet the vertex values to 3.8e-9, which the trace
        # tolerance, scaled to the data, accepts
        path = write_problem(tmp_path / "p.json",
                             simplex_body({"type": "guillemin"}, side=1e6))
        report = tmp_path / "r.json"
        assert cli.run(["solve", path, "--grid", "17",
                        "--report", str(report)]) == 0
        out = json.loads(report.read_text())
        assert out["boundary_consistency"]["tolerance"] == pytest.approx(
            1e-9 * 1e6 * np.log(1e6), rel=1e-12)

    def test_deterministic_reports_and_dumps(self, tmp_path):
        path = write_problem(
            tmp_path / "p.json",
            simplex_body({"type": "perturbed", "amplitude": 0.1}))
        outs = []
        for tag in ("a", "b"):
            report = tmp_path / (tag + ".json")
            dump = tmp_path / (tag + ".csv")
            code = cli.run(["solve", path, "--grid", "17",
                            "--deterministic",
                            "--report", str(report), "--dump", str(dump)])
            assert code == 0
            outs.append((report.read_bytes(), dump.read_bytes()))
        assert outs[0] == outs[1]

    def test_infinite_density_solves_no_edge(self, tmp_path, monkeypatch):
        # the density is refused before any edge quadrature
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            raise QuadratureFailure("solve_edge ran")

        monkeypatch.setattr(boundary, "solve_edge", spy)
        path = infinite_density_problem(tmp_path / "p.json")
        assert cli.run(["solve", path, "--grid", "9"]) == 2
        assert calls == []

    def test_binary_dump(self, tmp_path):
        path = write_problem(tmp_path / "p.json", simplex_body())
        dump = tmp_path / "d.bin"
        report = tmp_path / "r.json"
        code = cli.run(["solve", path, "--grid", "9",
                        "--report", str(report), "--dump", str(dump)])
        assert code == 0
        blob = dump.read_bytes()
        magic, rows, cols, pad = struct.unpack("<4sIII", blob[:16])
        assert magic == b"GMA1"
        assert pad == 0
        table = np.frombuffer(blob[16:], dtype="<f8").reshape(rows, cols)
        out = json.loads(report.read_text())
        assert rows == out["nodes"]
        assert cols == 5
        assert np.all(np.isfinite(table[:, :4]))

    def test_nonconvergence_strict_is_exit_four(self, tmp_path):
        path = write_problem(
            tmp_path / "p.json",
            simplex_body({"type": "perturbed", "amplitude": 0.1}))
        report = tmp_path / "r.json"
        code = cli.run(["solve", path, "--grid", "9", "--max-iter", "1",
                        "--strict", "--report", str(report)])
        assert code == 4
        out = json.loads(report.read_text())
        assert out["solver"]["converged"] is False

    @pytest.mark.parametrize("grid, kind", [("3", "ValidationError"),
                                            ("1000000", "ChartTooLarge")])
    def test_unusable_grid_is_exit_two(self, tmp_path, grid, kind):
        # m=3 leaves the triangle no interior node; m=10^6 exceeds the
        # lattice size limit
        path = write_problem(tmp_path / "tri.json", simplex_body())
        report = tmp_path / "r.json"
        code = cli.run(["solve", path, "--grid", grid,
                        "--report", str(report)])
        assert code == 2
        out = json.loads(report.read_text())
        assert out["exit_code"] == 2
        assert out["error"]["kind"] == kind


    @pytest.mark.parametrize("command, limit", [("solve", 1000),
                                                ("boundary", 100)])
    def test_lattice_limit_checked_before_the_boundary_build(
            self, tmp_path, monkeypatch, command, limit):
        # solve charts the 17^3 cube nodes, boundary the 17^2 nodes of
        # each facet; both exceed the limit, so neither reaches the build
        calls = []

        def build(*args, **kwargs):
            calls.append(1)
            raise ValidationError("build reached")

        monkeypatch.setattr(gma.solver, "_MAX_LATTICE", limit)
        monkeypatch.setattr(cli, "build_boundary_data", build)
        path = write_problem(
            tmp_path / "cube.json",
            cube_body({"type": "perturbed", "amplitude": 0.3}))
        report = tmp_path / "r.json"
        code = cli.run([command, path, "--grid", "17",
                        "--report", str(report)])
        assert code == 2
        assert calls == []
        assert json.loads(report.read_text())["error"]["kind"] == \
            "ChartTooLarge"

    def test_face_chart_on_nonsimple_polytope_is_exit_two(self, tmp_path):
        # every facet of the octahedron is a triangle whose corners lie
        # on three more facets each, so the build charts no face
        path = write_problem(tmp_path / "oct.json", octahedron_body())
        report = tmp_path / "r.json"
        code = cli.run(["boundary", path, "--grid", "9",
                        "--report", str(report)])
        assert code == 2
        out = json.loads(report.read_text())
        assert out["exit_code"] == 2


class TestBoundary:
    def test_square_tables(self, tmp_path):
        path = write_problem(
            tmp_path / "p.json",
            square_body({"type": "perturbed", "amplitude": 0.05}))
        report = tmp_path / "r.json"
        dump = tmp_path / "traces.csv"
        code = cli.run(["boundary", path, "--report", str(report),
                        "--dump", str(dump)])
        assert code == 0
        out = json.loads(report.read_text())
        assert out["consistency"]["max_mismatch"] <= \
            out["consistency"]["tolerance"]
        lines = dump.read_text().strip().splitlines()
        assert lines[0].startswith("face,t,")
        edges = {l.split(",")[0] for l in lines[1:]}
        assert len(edges) == 8  # 4 vertices + 4 edges

    def test_face_records_read_the_one_boundary_build(self, tmp_path,
                                                      monkeypatch):
        # the unit cube has 6 square facets, 12 edges and 8 vertices; one
        # boundary build solves each edge and facet once, and each facet
        # record carries the Newton report of its one solve
        calls = {"edge": 0, "face": 0}
        built = []
        real_build = cli.build_boundary_data

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def build(*args, **kwargs):
            built.append(real_build(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(cli, "build_boundary_data", build)
        monkeypatch.setattr(boundary, "solve_edge",
                            counted("edge", boundary.solve_edge))
        monkeypatch.setattr(gma.solver, "newton_solve",
                            counted("face", gma.solver.newton_solve))
        path = write_problem(
            tmp_path / "cube.json",
            cube_body({"type": "perturbed", "amplitude": 0.3}))
        report = tmp_path / "r.json"
        code = cli.run(["boundary", path, "--grid", "9",
                        "--report", str(report)])
        assert code == 0
        assert (len(built), calls) == (1, {"edge": 12, "face": 6})
        faces = json.loads(report.read_text())["faces"]
        assert len(faces) == 26
        assert [f["dim"] for f in faces] == [2] * 6 + [1] * 12 + [0] * 8
        assert [f["face"] for f in faces[:6]] == [str(i) for i in range(6)]
        assert all("solver" not in f for f in faces[6:])
        for f in faces[:6]:
            rep = built[0].traces[(int(f["face"]),)].solution.report
            assert rep["converged"] is True
            assert f["solver"] == rep


class TestModel:
    def test_flat_model_z_form(self, tmp_path):
        report = tmp_path / "r.json"
        dump = tmp_path / "w.csv"
        code = cli.run(["model", "--form", "z", "--grid", "17",
                        "--report", str(report), "--dump", str(dump)])
        assert code == 0
        out = json.loads(report.read_text())
        assert out["solver"]["converged"] is True
        table = np.loadtxt(dump, delimiter=",", skiprows=1)
        z2 = table[:, 1]
        w = table[:, 2]
        assert np.max(np.abs(w - 0.5 * z2 ** 2)) <= 1e-8

    def test_flat_model_z_form_binary_dump(self, tmp_path):
        # every .bin dump is the packed GMA1 layout
        for name in ("w.csv", "w.bin"):
            assert cli.run(["model", "--form", "z", "--grid", "9",
                            "--dump", str(tmp_path / name), "--report",
                            str(tmp_path / "r.json")]) == 0
        blob = (tmp_path / "w.bin").read_bytes()
        magic, rows, cols, _ = struct.unpack("<4sIII", blob[:16])
        assert magic == b"GMA1"
        table = np.frombuffer(blob[16:], dtype="<f8").reshape(rows, cols)
        assert np.array_equal(table, np.loadtxt(tmp_path / "w.csv",
                                                delimiter=",", skiprows=1))

    def test_flat_model_x_form(self, tmp_path):
        dump = tmp_path / "v.csv"
        code = cli.run(["model", "--form", "x", "--grid", "17",
                        "--dump", str(dump), "--report",
                        str(tmp_path / "r.json")])
        assert code == 0
        table = np.loadtxt(dump, delimiter=",", skiprows=1)
        x2 = table[:, 1]
        v = table[:, 2]
        assert np.max(np.abs(v - 0.5 * x2 ** 2)) <= 1e-8

    def test_flat_model_legendre_form(self, tmp_path):
        dump = tmp_path / "leg.csv"
        code = cli.run(["model", "--form", "legendre", "--grid", "33",
                        "--dump", str(dump), "--report",
                        str(tmp_path / "r.json")])
        assert code == 0
        lines = dump.read_text().strip().splitlines()
        assert lines[0] == "y1,y2,ustar,residual"
        table = np.loadtxt(dump, delimiter=",", skiprows=1)
        assert np.max(np.abs(table[:, 3])) <= 1e-2

    def test_grid_above_lattice_limit_is_exit_two(self, tmp_path,
                                                  monkeypatch):
        # the model solver reads the chart solver's limit, with n = 2
        monkeypatch.setattr(gma.solver, "_MAX_LATTICE", 1000)
        report = tmp_path / "r.json"
        assert cli.run(["model", "--grid", "33",
                        "--report", str(report)]) == 2
        out = json.loads(report.read_text())
        assert out["error"]["kind"] == "ChartTooLarge"


class TestVerify:
    def test_oracle_suite(self, tmp_path):
        report = tmp_path / "r.json"
        code = cli.run(["verify", "--suite", "oracles",
                        "--report", str(report)])
        assert code == 0
        out = json.loads(report.read_text())
        assert out["all_pass"] is True
        assert all(c["pass"] for c in out["checks"])
        assert all(c["value"] <= 1e-12 for c in out["checks"])

    def test_retired_appendix_suite_is_a_usage_error(self, capsys):
        assert cli.run(["verify", "--suite", "appendix"]) == 64
        assert "invalid choice: 'appendix'" in capsys.readouterr().err

    def test_barrier_suite_deterministic_csv(self, tmp_path):
        blobs = []
        for tag in ("a", "b"):
            dump = tmp_path / (tag + ".csv")
            code = cli.run(["verify", "--suite", "barriers",
                            "--deterministic", "--dump", str(dump),
                            "--report", str(tmp_path / (tag + ".json"))])
            assert code == 0
            blobs.append(dump.read_bytes())
        assert blobs[0] == blobs[1]

    def test_barrier_suite_lists_its_certificates(self, capsys):
        # the product-power and g-concavity certificates, and no other
        assert cli.run(["verify", "--suite", "barriers",
                        "--deterministic"]) == 0
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert [c["id"] for c in checks] == [
            "product-power-square", "product-power-simplex",
            "g-concavity-k2", "g-concavity-k3"]

    @pytest.mark.parametrize("suite, reads", [
        ("oracles", ("--seed",)), ("barriers", ("--seed",)),
        ("asymptotics", ("--levels", "--tol", "--max-iter"))])
    def test_suite_options_read_by_the_suite_only(self, suite, reads,
                                                  capsys):
        for flag in ("--levels", "--tol", "--max-iter", "--seed"):
            if flag not in reads:
                assert cli.run(["verify", "--suite", suite, flag, "9"]) \
                    == 64, flag
                assert "does not read %s" % flag in capsys.readouterr().err

    def test_suite_config_names_what_it_read(self, capsys):
        assert cli.run(["verify", "--suite", "barriers",
                        "--deterministic"]) == 0
        config = json.loads(capsys.readouterr().out)["config"]
        assert config == {"subcommand": "verify", "deterministic": True,
                          "suite": "barriers", "strict": False, "seed": 0}

    def test_all_suites_read_every_suite_option(self):
        args = cli._config_from_args(cli._build_parser().parse_args(
            ["verify", "--levels=9,17", "--tol", "1e-9", "--max-iter", "5",
             "--seed", "3"]))
        assert (args.suite, args.levels, args.tol, args.max_iter,
                args.seed) == ("all", (9, 17), 1e-9, 5, 3)

    def test_product_power_zero_minimum_fails(self, tmp_path, monkeypatch):
        # a curvature ratio whose sampled minimum is 0 bounds nothing
        real = verify.verify_barrier

        def flat(barrier_id, *args, **kwargs):
            res = real(barrier_id, *args, **kwargs)
            return res._replace(margin_differential=0.0) \
                if barrier_id == "product-power" else res

        monkeypatch.setattr(verify, "verify_barrier", flat)
        report = tmp_path / "r.json"
        code = cli.run(["verify", "--suite", "barriers", "--strict",
                        "--report", str(report)])
        assert code == 4
        checks = {c["id"]: c for c in json.loads(report.read_text())["checks"]}
        assert checks["product-power-square"]["pass"] is False
        assert checks["product-power-square"]["constants"] == {
            "alpha_exp": 0.25}

    @pytest.mark.parametrize("levels", ["33", "9,9,9", "17,9", "9,17,3"])
    def test_levels_that_grade_no_refinement_are_exit_two(
            self, levels, monkeypatch, capsys):
        # one level has no trend, a repeated or falling level grades no
        # refinement, and a level below 4 has no probe grid; each is
        # refused before any solve
        def never(*args, **kwargs):
            raise AssertionError("solved before --levels was checked")

        monkeypatch.setattr(gma.solver, "newton_solve", never)
        monkeypatch.setattr(verify, "newton_solve", never)
        assert cli.run(["verify", "--suite", "asymptotics",
                        "--levels", levels]) == 2
        assert "--levels needs" in capsys.readouterr().err

    def test_smallest_levels_grade_growth(self, capsys):
        assert cli.run(["verify", "--suite", "asymptotics", "--levels", "4,5",
                        "--deterministic"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["all_pass"] is True
        assert all(len(c["trend"]) == 1 for c in out["checks"])

    def test_asymptotics_ratio_table(self, tmp_path):
        report = tmp_path / "r.json"
        dump = tmp_path / "ratios.csv"
        code = cli.run(["verify", "--suite", "asymptotics",
                        "--levels", "9,17,33",
                        "--report", str(report), "--dump", str(dump)])
        assert code == 0
        out = json.loads(report.read_text())
        assert out["all_pass"] is True
        lines = dump.read_text().strip().splitlines()
        assert lines[0].split(",")[0] == "level"
        assert len(lines) == 4  # header + one row per level


class TestOracle:
    def test_quadrant_point(self, capsys):
        # the report fields as the one-point oracle wrote them
        assert cli.run(["oracle", "--k", "2", "--point", "0.5,0.25,0.7",
                        "--deterministic"]) == 0
        out = json.loads(capsys.readouterr().out)
        del out["config"], out["schema_version"]
        assert out == {
            "point": [0.5, 0.25, 0.7], "k": 2, "n": 3,
            "value": -0.4481471805599453,
            "gradient": [0.3068528194400547, -0.3862943611198906, 0.7],
            "hessian": [[2.0, 0.0, 0.0], [0.0, 4.0, 0.0], [0.0, 0.0, 1.0]],
            "residual": -2.220446049250313e-16}

    def test_problem_point(self, tmp_path, capsys):
        path = write_problem(tmp_path / "p.json", square_body())
        code = cli.run(["oracle", path, "--point", "0.5,0.5"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["density"] == pytest.approx(1.0, abs=1e-10)
        assert out["potential"] == pytest.approx(4 * 0.5 * np.log(0.5),
                                                 rel=1e-12)

    def test_nonsimple_vertex_density_is_zero(self, tmp_path, capsys):
        # four facets of the octahedron meet at (1, 0, 0)
        path = write_problem(tmp_path / "oct.json", octahedron_body())
        code = cli.run(["oracle", path, "--point", "1,0,0"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["density"] == 0.0

    def test_problem_file_reads_no_k(self, tmp_path, capsys):
        path = write_problem(tmp_path / "p.json", square_body())
        report = tmp_path / "r.json"
        code = cli.run(["oracle", path, "--k", "7", "--point", "0.5,0.5",
                        "--report", str(report)])
        assert code == 64
        assert "does not read --k" in capsys.readouterr().err
        assert not report.exists()
        assert cli.run(["oracle", path, "--point", "0.5,0.5",
                        "--report", str(report)]) == 0
        config = json.loads(report.read_text())["config"]
        assert set(config) == {"subcommand", "deterministic", "problem",
                               "point"}

    @pytest.mark.parametrize("head, point", [
        (["--k", "1"], "nan,0.5"), (["--k", "1"], "inf,0.5"),
        ([], "0.2,nan")], ids=["nan", "infinity", "problem-nan"])
    def test_nonfinite_point_is_exit_two(self, tmp_path, capsys, head, point):
        # NaN and Infinity are not JSON, so no report may carry them
        if not head:
            head = [write_problem(tmp_path / "p.json", square_body())]
        assert cli.run(["oracle"] + head + ["--point", point]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    def test_overflowing_value_is_exit_two(self, capsys):
        # x log x overflows at 1e308; the report may not carry Infinity
        assert cli.run(["oracle", "--k", "1", "--point", "1e308,0.5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "overflow" in captured.err

    def test_outside_quadrant_is_validation_error(self, tmp_path):
        code = cli.run(["oracle", "--k", "1", "--point", "-1.0,0.0",
                        "--report", str(tmp_path / "r.json")])
        assert code == 2

    def test_point_dimension_mismatch_is_validation_error(self, tmp_path,
                                                          capsys):
        path = write_problem(tmp_path / "p.json", square_body())
        code = cli.run(["oracle", path, "--point", "0.5,0.5,0.5"])
        err = capsys.readouterr().err
        assert code == 2
        assert "dimension" in err


class TestThreads:
    # the boundary build is one sequential walk: no thread flag, and no
    # environment variable that sets one
    def test_env_is_not_read(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("GMA_THREADS", "two")
        path = write_problem(tmp_path / "p.json", simplex_body())
        code = cli.run(["boundary", path])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert "threads" not in out["config"]

    def test_exit_codes_documented(self, capsys):
        with pytest.raises(SystemExit):
            cli.run(["--help"])
        text = capsys.readouterr().out
        for token in ("0", "1", "2", "3", "4", "64"):
            assert token in text
        assert "GMA_THREADS" not in text


def scaled_square_body(scale):
    # the unit square with x >= 0 written as scale * x >= 0
    body = square_body({"type": "perturbed", "amplitude": 0.5})
    body["facets"][0]["normal"] = [scale, 0.0]
    return body


class TestScaledFunctionals:
    @pytest.mark.parametrize("scale", [1e-8, 1e-9])
    def test_solve_converges(self, tmp_path, scale):
        path = write_problem(tmp_path / "p.json", scaled_square_body(scale))
        report = tmp_path / "r.json"
        assert cli.run(["solve", path, "--grid", "33",
                        "--report", str(report)]) == 0
        assert json.loads(report.read_text())["solver"]["converged"] is True

    def test_oracle_outside_point_is_invalid(self, tmp_path):
        # (-0.1, 0.5) is 0.1 outside the square, although 1e-8 x reads
        # only -1e-9 there
        path = write_problem(tmp_path / "p.json", scaled_square_body(1e-8))
        assert cli.run(["oracle", path, "--point", "-0.1,0.5"]) == 2


def simplex3_body():
    facets = [{"normal": e, "offset": 0.0} for e in np.eye(3).tolist()]
    return {"dimension": 3,
            "facets": facets + [{"normal": [-1.0] * 3, "offset": -1.0}]}


# (unit body, its vertices, lattice size)
SCALING_CASES = {
    "simplex-2": (simplex_body(), [[0, 0], [1, 0], [0, 1]], 17),
    "square": (square_body(), [[0, 0], [1, 0], [0, 1], [1, 1]], 17),
    "simplex-3": (simplex3_body(),
                  [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], 9),
}


def scaled_problem(case, s):
    """The case's problem on the polytope scaled by s about the origin.

    If u solves the unit problem, u_s(s x) = s u(x) + s ln s sum l_i(x)
    solves this one: the facet offsets scale by s, the density by
    s^(N - n), so the perturbation amplitude scales by s^-N for N facets,
    and the regular part is v_s(s x) = s v(x).
    """
    body, vertices, _ = SCALING_CASES[case]
    V = np.array(vertices, dtype=float)
    normals = np.array([f["normal"] for f in body["facets"]])
    offsets = np.array([f["offset"] for f in body["facets"]])
    alpha = 0.3 * V[:, 0] - 0.2 * V[:, 1] + 0.1 * np.sum(V ** 2, axis=1)
    lsum = np.sum(V @ normals.T - offsets, axis=1)
    values = s * alpha + s * np.log(s) * lsum
    return dict(body, facets=[
        {"normal": f["normal"], "offset": f["offset"] * s}
        for f in body["facets"]],
        density={"type": "perturbed", "amplitude": s ** -len(offsets)},
        vertex_values=[{"point": (s * p).tolist(), "value": float(a)}
                       for p, a in zip(V, values)])


@functools.lru_cache(maxsize=None)
def scaled_run(case, s):
    """(check exit, solve exit, converged, iterations, dumped v / s)."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        path = write_problem(tmp / "p.json", scaled_problem(case, s))
        check = cli.run(["check", path, "--report", str(tmp / "c.json")])
        solve = cli.run(["solve", path, "--grid",
                         str(SCALING_CASES[case][2]),
                         "--report", str(tmp / "r.json"),
                         "--dump", str(tmp / "x.bin")])
        if solve != 0:
            return check, solve, None, None, None
        rep = json.loads((tmp / "r.json").read_text())["solver"]
        blob = (tmp / "x.bin").read_bytes()
    rows, cols = struct.unpack("<4sIII", blob[:16])[1:3]
    table = np.frombuffer(blob[16:], "<f8").reshape(rows, cols)
    n = len(SCALING_CASES[case][1][0])
    return check, solve, rep["converged"], rep["iterations"], table[:, n] / s


class TestScaling:
    @pytest.mark.parametrize("case", list(SCALING_CASES))
    @settings(max_examples=10, deadline=None)
    @example(exponent=-6.0)
    @example(exponent=6.0)
    @given(exponent=st.floats(-6.0, 6.0))
    def test_scaling_the_polytope_scales_the_solution(self, case, exponent):
        base = scaled_run(case, 1.0)
        run = scaled_run(case, 10.0 ** exponent)
        assert base[:3] == (0, 0, True)
        assert run[:4] == base[:4]
        assert np.max(np.abs(run[4] - base[4])) \
            <= 1e-8 * np.max(np.abs(base[4]))


# scipy subpackages a gma process loads on first use only
LAZY = ("scipy.optimize", "scipy.interpolate", "scipy.spatial", "scipy.fft")


def loaded_after(code):
    """The LAZY modules in sys.modules after running code in a new process."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    probe = "%s\nimport sys\nprint(*[m for m in %r if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", probe % (code, LAZY)],
                         env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True, check=True)
    return set(out.stdout.split())


class TestImportFootprint:
    def test_cli_import_loads_no_lazy_subpackage(self):
        assert loaded_after("import gma.cli") == set()

    def test_model_solve_loads_no_optimize_or_interpolate(self):
        loaded = loaded_after(
            "import numpy as np\n"
            "from gma import legendre\n"
            "sol, _ = legendre.model_solve_z(\n"
            "    lambda x: np.ones(np.shape(x)[:-1]),\n"
            "    lambda x: 0.5 * np.asarray(x)[..., 1] ** 2, grid=9)\n"
            "sol.v(np.array([[0.1, 0.2], [0.2, -0.3]]))")
        # the model solution's P2 reads index the grid; no KD-tree
        assert loaded == set()

    def test_polytope_builds_load_no_optimize_or_spatial(self, tmp_path):
        path = write_problem(tmp_path / "p.json", simplex_body())
        loaded = loaded_after(
            "import numpy as np\n"
            "import gma.cli\n"
            "from gma import geometry, problem\n"
            "for n in (2, 3, 4):\n"
            "    geometry.build_polytope(\n"
            "        [geometry.AffineFunctional(s * e, min(s, 0.0))\n"
            "         for e in np.eye(n) for s in (1.0, -1.0)])\n"
            "problem.load_problem(%r)" % path)
        assert not loaded & {"scipy.optimize", "scipy.spatial"}

    def test_solution_probe_loads_no_spatial(self):
        loaded = loaded_after(
            "import numpy as np\n"
            "from gma import guillemin, solver, verify\n"
            "from gma.problem import GuilleminProblem\n"
            "P = verify._standard_simplex()\n"
            "prob = GuilleminProblem(P, guillemin.DensitySpec.guillemin(P),\n"
            "                        0.0)\n"
            "sol, _ = solver.newton_solve(prob, grid=9)\n"
            "probe = verify.solution_probe(sol)\n"
            "assert probe(np.array([[0.1, 0.2], [0.3, 0.3]])).shape == (2,)")
        assert not loaded & {"scipy.optimize", "scipy.spatial"}


class TestLazyBindings:
    """perfbench/tracer.py patches these module globals by name."""

    @pytest.mark.parametrize("module, name", [
        (geometry, "linprog"), (gma.solver, "LinearNDInterpolator")])
    def test_plain_module_function(self, module, name):
        fn = vars(module)[name]
        assert isinstance(fn, types.FunctionType)
        assert fn.__module__ == module.__name__

    def test_interpolator_evaluates_like_scipy(self):
        rng = np.random.default_rng(5)
        points, values = rng.random((30, 2)), rng.random(30)
        query = 0.25 + 0.5 * rng.random((20, 2))
        ours = gma.solver.LinearNDInterpolator(points, values)(query)
        assert np.array_equal(ours,
                              LinearNDInterpolator(points, values)(query))
