"""Command line front end for the polytope Monge-Ampere toolkit.

Subcommands: ``check`` (geometry and density admissibility), ``boundary``
(face-by-face trace assembly), ``solve`` (interior Newton solve),
``model`` (half-space model problem in square-root coordinates),
``verify`` (certificate and estimator suites), and ``oracle`` (closed
form reference values at a point).  Every run validates its inputs
before any numerics start, emits a JSON report carrying the schema
version and the resolved configuration, and exits with a documented
code.
"""

import argparse
import json
import math
import os
import struct
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
from scipy.special import xlogy

from . import geometry, legendre, solver, verify
from .boundary import build_boundary_data
from .errors import (ConstantSearchFailed, DegenerateTransversalHessian,
                     GmaError, InconsistentTraces, NonEllipticIterate,
                     ParseError, QuadratureFailure, SolverError,
                     ValidationError)
from .guillemin import guillemin_density, potential_values
from .problem import COMPATIBILITY_RTOL, SCHEMA_VERSION, load_problem

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INVALID = 2
EXIT_SOLVER = 3
EXIT_CHECKS = 4
EXIT_USAGE = 64

_SOLVER_FAILURES = (SolverError, QuadratureFailure, InconsistentTraces,
                    NonEllipticIterate, DegenerateTransversalHessian,
                    ConstantSearchFailed)

_EPILOG = """\
exit codes:
  0   success
  1   unreadable or malformed problem file
  2   invalid input: schema-valid but semantically wrong (non-simple
      polytope, incompatible density, bad run configuration, point
      outside the admissible region)
  3   solver failure: divergence, singular linearization, failed
      quadrature, or inconsistent face traces
  4   run completed but a requested check failed and --strict was set
  64  usage error

threads: the orchestrator itself is single-threaded; --threads caps the
worker pool used for independent face solves.  When the flag is absent
the GMA_THREADS environment variable supplies the default (1 if unset).
"""


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@dataclass(frozen=True)
class RunConfig:
    """Resolved settings for one command line invocation.

    Instances are immutable and embedded verbatim in every report, so a
    report always names the configuration that produced it.  Validation
    happens on construction; invalid settings raise ValidationError
    before any file is read or any solve starts.
    """

    subcommand: str
    problem: str = None
    grid: int = 33
    levels: tuple = (9, 17, 33)
    tol_solve: float = 1e-10
    max_iter: int = 30
    chart: str = "global"
    form: str = "z"
    suite: str = "all"
    point: tuple = ()
    k: int = None
    depth: float = 0.25
    report_path: str = None
    dump_path: str = None
    deterministic: bool = False
    seed: int = 0
    threads: int = 1
    strict: bool = False

    def __post_init__(self):
        if self.tol_solve <= 0.0:
            raise ValidationError("--tol must be positive")
        if self.grid < 3:
            raise ValidationError("--grid needs at least 3 nodes per edge")
        if not self.levels or any(int(m) < 3 for m in self.levels):
            raise ValidationError("--levels needs entries of at least 3")
        if self.max_iter < 1:
            raise ValidationError("--max-iter must be at least 1")
        if self.threads < 1:
            raise ValidationError("--threads must be at least 1")
        if self.seed < 0:
            raise ValidationError("--seed must be nonnegative")
        if not (0.0 < self.depth):
            raise ValidationError("--depth must be positive")


def _resolve_threads(flag):
    if flag is not None:
        return int(flag)
    env = os.environ.get("GMA_THREADS")
    if not env:
        return 1
    try:
        return int(env)
    except ValueError:
        raise ValidationError("GMA_THREADS must be an integer, got %r" % env)


def _parse_levels(text):
    try:
        levels = tuple(int(part) for part in str(text).split(","))
    except ValueError:
        raise ValidationError("--levels expects comma separated integers")
    return levels


def _parse_point(text):
    if text is None:
        return ()
    try:
        return tuple(float(part) for part in str(text).split(","))
    except ValueError:
        raise ValidationError("--point expects comma separated numbers")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


def _emit_report(config, payload, started=None):
    payload = dict(payload)
    payload["schema_version"] = SCHEMA_VERSION
    # the embedded config names everything that shaped the results;
    # output locations do not, and skipping them keeps deterministic
    # reruns byte-identical wherever they are written
    cfg = asdict(config)
    cfg.pop("report_path")
    cfg.pop("dump_path")
    payload["config"] = cfg
    if started is not None and not config.deterministic:
        payload["elapsed_s"] = round(time.monotonic() - started, 3)
    text = json.dumps(_jsonable(payload), indent=2, sort_keys=True)
    if config.report_path:
        Path(config.report_path).write_text(text + "\n", encoding="ascii")
    else:
        print(text)


def _format_cell(value):
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return format(value, ".17g")
    return str(value)


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_format_cell(c) for c in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def _write_matrix(path, header, table):
    # .bin selects the packed layout: 16 byte header (magic, row and
    # column counts, zero pad) then row-major little-endian float64
    table = np.ascontiguousarray(table, dtype="<f8")
    if str(path).endswith(".bin"):
        blob = struct.pack("<4sIII", b"GMA1",
                           table.shape[0], table.shape[1], 0)
        with open(path, "wb") as fh:
            fh.write(blob)
            fh.write(table.tobytes())
    else:
        _write_csv(path, header, [[float(c) for c in row] for row in table])


def _face_label(key):
    return "+".join(str(i) for i in key)


def _cmd_check(config):
    started = time.monotonic()
    prob = load_problem(config.problem)
    P = prob.polytope
    simple, rows = geometry.is_simple(P)
    payload = {
        "dimension": P.dimension,
        "facets": len(P.facets),
        "vertices": len(P.vertices),
        "simple": bool(simple),
    }
    if not simple:
        bad = sorted(int(r["index"]) for r in rows if not r["simple"])
        payload["nonsimple_vertices"] = bad
        payload["compatibility"] = None
        payload["message"] = "polytope is not simple at vertices %s" % (bad,)
        _emit_report(config, payload, started)
        return EXIT_INVALID
    residuals = prob.compatibility_residuals()
    max_abs = float(np.max(np.abs(residuals))) if len(residuals) else 0.0
    ok = prob.compatibility_ok()
    payload["nonsimple_vertices"] = []
    payload["compatibility"] = {
        "residuals": [float(r) for r in residuals],
        "max_abs": max_abs,
        "tolerance": "%g |h(p)| per vertex" % COMPATIBILITY_RTOL,
        "pass": bool(ok),
    }
    payload["message"] = "ok" if ok \
        else "density violates the vertex matching condition"
    _emit_report(config, payload, started)
    return EXIT_OK if ok else EXIT_INVALID


def _cmd_boundary(config):
    started = time.monotonic()
    prob = load_problem(config.problem)
    P = prob.polytope
    threads = config.threads if config.threads > 1 else None
    bd = build_boundary_data(prob, grid=config.grid, tol=config.tol_solve,
                             threads=threads)
    keys = sorted(bd.traces, key=lambda key: (len(key), key))
    payload = {
        "consistency": bd.consistency,
        "faces": [_face_label(key) for key in keys],
    }
    if config.dump_path:
        n = P.dimension
        header = ["face", "t"] + ["x%d" % (i + 1) for i in range(n)] \
            + ["u", "v"]
        labels, ts, pts = [], [], []
        for key in keys:
            face = P.faces[key]
            if face.dim == 0:
                labels.append(_face_label(key))
                ts.append([0.0])
                pts.append(P.vertices[list(face.vertex_ids)])
            elif face.dim == 1:
                p = P.vertices[face.vertex_ids[0]]
                q = P.vertices[face.vertex_ids[1]]
                t = np.linspace(0.0, 1.0, 33)
                labels.extend([_face_label(key)] * len(t))
                ts.append(t)
                pts.append((1.0 - t)[:, None] * p + t[:, None] * q)
        ts = np.concatenate(ts)
        pts = np.vstack(pts)
        u = bd.u(pts)
        v = bd.v(pts)
        rows = [[label, float(t)] + [float(c) for c in x]
                + [float(a), float(b)]
                for label, t, x, a, b in zip(labels, ts, pts, u, v)]
        _write_csv(config.dump_path, header, rows)
    _emit_report(config, payload, started)
    return EXIT_OK


def _reference_error(prob, sol):
    # when the density is the induced one and the vertex values vanish
    # the exact solution is the canonical potential, so the regular
    # part measures the full pipeline error directly
    P = prob.polytope
    if np.any(prob.vertex_values != 0.0):
        return None
    centroid = P.vertices.mean(axis=0)
    probes = [centroid]
    for v in P.vertices[:2]:
        probes.append(v + 0.12 * (centroid - v))
        probes.append(v + 0.57 * (centroid - v))
    try:
        for x in probes:
            hg = float(guillemin_density(P, x))
            if abs(float(prob.density(x)) - hg) > 1e-9 * max(1.0, abs(hg)):
                return None
    except GmaError:
        return None
    return float(np.max(np.abs(sol.values)))


def _cmd_solve(config):
    started = time.monotonic()
    prob = load_problem(config.problem)
    P = prob.polytope
    if config.chart == "face" and P.dimension < 2:
        raise ValidationError("--chart face needs dimension 2 or more: the "
                              "facets of a segment are its vertices")
    threads = config.threads if config.threads > 1 else None
    bd = build_boundary_data(prob, grid=config.grid, tol=config.tol_solve,
                             threads=threads)

    if config.chart == "face":
        # the build solved every facet once and stopped on any facet that
        # failed, so each record reads its facet's trace
        entries = []
        for key in sorted(k for k, f in P.faces.items()
                          if f.dim == P.dimension - 1):
            entry = {"face": _face_label(key), "dim": P.dimension - 1,
                     "converged": True}
            if P.dimension > 2:
                entry["solver"] = bd.traces[key].solution.report
            entries.append(entry)
        payload = {"faces": entries, "solver": {"converged": True},
                   "nodes": None, "boundary_consistency": bd.consistency,
                   "max_error_vs_oracle": None}
        _emit_report(config, payload, started)
        return EXIT_OK

    sol, rep = solver.newton_solve(prob, boundary=bd, grid=config.grid,
                                   tol=config.tol_solve,
                                   max_iter=config.max_iter)
    chart = sol.chart
    pts = chart.to_problem(chart.nodes)
    payload = {
        "problem": {"name": prob.name, "dimension": P.dimension,
                    "facets": len(P.facets), "vertices": len(P.vertices)},
        "nodes": len(sol.values),
        "solver": rep,
        "boundary_consistency": bd.consistency,
        "max_error_vs_oracle": _reference_error(prob, sol),
    }
    if config.dump_path:
        R, _ = solver.assemble_residual(sol.values, prob, chart)
        residual = np.full(len(sol.values), np.nan)
        residual[chart.interior] = R
        u = sol.values + potential_values(P, pts)
        header = ["x%d" % (i + 1) for i in range(P.dimension)] \
            + ["v", "u", "residual"]
        table = np.column_stack([pts, sol.values, u, residual])
        _write_matrix(config.dump_path, header, table)
    _emit_report(config, payload, started)
    if config.strict and not rep["converged"]:
        return EXIT_CHECKS
    return EXIT_OK


def _cmd_model(config):
    started = time.monotonic()

    def density(x):
        x = np.asarray(x, dtype=float)
        return np.ones(x.shape[:-1])

    def trace(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * x[..., 1] ** 2

    msol, rep = legendre.model_solve_z(
        density, trace, x_depth=config.depth, lateral=(-1.0, 1.0),
        grid=config.grid, tol=config.tol_solve, max_iter=config.max_iter)
    payload = {"form": config.form, "solver": rep,
               "z1_range": [float(msol.z1_axis[0]), float(msol.z1_axis[-1])],
               "z2_range": [float(msol.z2_axis[0]), float(msol.z2_axis[-1])]}

    if config.dump_path:
        if config.form in ("z", "x"):
            Z1, Z2 = np.meshgrid(msol.z1_axis, msol.z2_axis, indexing="ij")
            first = Z1 if config.form == "z" else Z1 ** 2 / 4.0
            table = np.column_stack([first.ravel(), Z2.ravel(),
                                     msol.values.ravel()])
            header = ["z1", "z2", "w"] if config.form == "z" \
                else ["x1", "x2", "v"]
            _write_csv(config.dump_path, header, table.tolist())
        else:
            # push the chart solution through the forward transform on
            # an x-grid strictly inside the chart and report the dual
            # equation residual at the transformed nodes
            m = config.grid
            hi = config.depth * 0.96
            x1_axis = np.linspace(0.4 * config.depth, hi, m)
            x2_axis = np.linspace(-0.6, 0.6, m)
            X1, X2 = np.meshgrid(x1_axis, x2_axis, indexing="ij")
            U = xlogy(X1, X1) + msol.v(
                np.column_stack([X1.ravel(), X2.ravel()])).reshape(m, m)
            pair = legendre.legendre_forward(U, (x1_axis, x2_axis))
            resid = pair.transversal_residual(
                lambda y: np.ones(len(y)))
            payload["transform"] = {
                "points": int(len(pair.ustar)),
                "max_abs_residual": float(np.max(np.abs(resid))),
            }
            rows = np.column_stack([pair.y_points, pair.ustar, resid])
            _write_matrix(config.dump_path,
                          ["y1", "y2", "ustar", "residual"], rows)

    _emit_report(config, payload, started)
    if config.strict and not rep.get("converged", False):
        return EXIT_CHECKS
    return EXIT_OK


def _suite_oracles(config):
    rng = np.random.default_rng(config.seed)
    checks = []
    for k in (1, 2, 3):
        for n in range(k, 5):
            worst = 0.0
            for _ in range(1000):
                head = 10.0 ** rng.uniform(-3.0, 0.5, k)
                tail = rng.normal(0.0, 1.0, n - k)
                data = verify.liouville_oracle(
                    np.concatenate([head, tail]), k)
                worst = max(worst, abs(data.residual))
            checks.append({"id": "liouville-k%d-n%d" % (k, n),
                           "value": worst, "pass": worst <= 1e-12})
    return checks


def _suite_barriers(config):
    checks = []
    for label, P in (("square", verify._unit_square()),
                     ("simplex", verify._standard_simplex())):
        try:
            res = verify.verify_barrier("product-power", P, samples=400,
                                        seed=config.seed)
            ok = res.margin_differential >= 0.0 \
                and res.margin_boundary >= 0.0
            checks.append({"id": "product-power-%s" % label,
                           "value": res.margin_differential,
                           "constants": res.constants, "pass": bool(ok)})
        except ConstantSearchFailed as exc:
            checks.append({"id": "product-power-%s" % label,
                           "value": None, "message": str(exc),
                           "pass": False})

    def model_u(x):
        return float(xlogy(x[0], x[0])) + 0.5 * float(x[1]) ** 2

    res = verify.verify_barrier("face-lift", samples=400,
                                seed=config.seed, u=model_u)
    calibrated = abs(res.margin_differential) <= 1e-10 \
        and abs(res.margin_boundary) <= 1e-10
    checks.append({"id": "face-lift-calibration",
                   "value": res.margin_differential,
                   "constants": res.constants, "pass": bool(calibrated)})

    res = verify.verify_barrier("face-lift", samples=400, seed=config.seed,
                                constants={"C0": 2.0}, u=model_u)
    checks.append({"id": "face-lift-surplus",
                   "value": res.margin_differential,
                   "constants": res.constants,
                   "pass": bool(res.margin_differential >= 0.0
                                and res.margin_boundary >= 0.0)})

    for k in (2, 3):
        res = verify.verify_barrier("g-concavity", samples=400,
                                    seed=config.seed, k=k)
        checks.append({"id": "g-concavity-k%d" % k,
                       "value": res.margin_differential,
                       "constants": res.constants,
                       "pass": bool(res.margin_differential >= 0.0
                                    and res.margin_boundary >= 0.0)})
    return checks


def _suite_asymptotics(config):
    edge, corner = verify.estimator_levels(config.levels, config.tol_solve,
                                           config.max_iter)
    asym = verify.estimate_face_asymptotics(corner)
    reports = [("lipschitz-simplex-edge", verify.estimate_lipschitz(edge)),
               ("weighted-hessian-simplex-edge",
                verify.estimate_weighted_hessian(edge))]
    for key in ("root-product", "quadratic", "full-product"):
        reports.append(("asymptotics-quadrant-%s" % key, asym[key]))
    checks = []
    for cid, rep in reports:
        finite = all(np.isfinite(rep.ratios))
        checks.append({"id": cid, "value": rep.ratios[-1],
                       "ratios": list(rep.ratios), "trend": list(rep.trend),
                       "pass": bool(rep.bounded and finite)})
    return checks


def _suite_appendix(config):
    checks = []
    for entry in verify.appendix_checks():
        parts = [entry["id"], entry["label"]]
        if "order" in entry:
            parts.append("k%dl%d" % (entry["order"], entry["l"]))
        checks.append({"id": ":".join(parts), "value": entry["margin"],
                       "constant": entry["constant"],
                       "pass": bool(entry["pass"])})
    return checks


def _cmd_verify(config):
    started = time.monotonic()
    suites = {"oracles": _suite_oracles, "barriers": _suite_barriers,
              "asymptotics": _suite_asymptotics, "appendix": _suite_appendix}
    if config.suite == "all":
        selected = list(suites)
    else:
        selected = [config.suite]
    checks = []
    for name in selected:
        checks.extend(suites[name](config))
    all_pass = all(c["pass"] for c in checks)
    payload = {"suite": config.suite, "checks": checks,
               "all_pass": bool(all_pass)}
    if config.dump_path:
        if config.suite == "asymptotics":
            # one row per refinement level, one ratio column per check
            header = ["level"] + [c["id"] for c in checks]
            rows = []
            for idx, m in enumerate(config.levels):
                rows.append([int(m)] + [float(c["ratios"][idx])
                                        for c in checks])
            _write_csv(config.dump_path, header, rows)
        else:
            rows = [[c["id"],
                     float(c["value"]) if c["value"] is not None else "",
                     c["pass"]] for c in checks]
            _write_csv(config.dump_path, ["id", "value", "pass"], rows)
    _emit_report(config, payload, started)
    if config.strict and not all_pass:
        return EXIT_CHECKS
    return EXIT_OK


def _cmd_oracle(config):
    started = time.monotonic()
    if not config.point:
        raise ValidationError("oracle needs --point")
    x = np.asarray(config.point, dtype=float)
    if config.problem is not None:
        prob = load_problem(config.problem)
        P = prob.polytope
        if x.size != P.dimension:
            raise ValidationError(
                "--point length %d does not match the problem "
                "dimension %d" % (x.size, P.dimension))
        payload = {
            "point": list(config.point),
            "density": float(guillemin_density(P, x)),
            "potential": float(potential_values(P, x)),
        }
    else:
        if config.k is None:
            raise ValidationError(
                "oracle needs --k when no problem file is given")
        data = verify.liouville_oracle(x, config.k)
        payload = {
            "point": list(config.point),
            "k": int(config.k),
            "n": len(config.point),
            "value": data.value,
            "gradient": data.gradient,
            "hessian": data.hessian,
            "residual": data.residual,
        }
    _emit_report(config, payload, started)
    return EXIT_OK


_HANDLERS = {
    "check": _cmd_check,
    "boundary": _cmd_boundary,
    "solve": _cmd_solve,
    "model": _cmd_model,
    "verify": _cmd_verify,
    "oracle": _cmd_oracle,
}


def _add_common(sub, problem="required"):
    if problem == "required":
        sub.add_argument("problem", help="problem description JSON file")
    elif problem == "optional":
        sub.add_argument("problem", nargs="?", default=None,
                         help="problem description JSON file")
    sub.add_argument("--grid", type=int, default=33,
                     help="nodes per edge of the solver lattice")
    sub.add_argument("--levels", default="9,17,33",
                     help="comma separated refinement levels")
    sub.add_argument("--tol", dest="tol_solve", type=float, default=1e-10,
                     help="solver and quadrature tolerance")
    sub.add_argument("--max-iter", type=int, default=30,
                     help="Newton iteration cap")
    sub.add_argument("--report", dest="report", default=None,
                     help="write the JSON report here instead of stdout")
    sub.add_argument("--dump", dest="dump", default=None,
                     help="write tabulated values here (.csv, or .bin for "
                          "the packed float64 layout)")
    sub.add_argument("--seed", type=int, default=0,
                     help="sampling seed")
    sub.add_argument("--threads", type=int, default=None,
                     help="worker thread cap; default from GMA_THREADS")
    sub.add_argument("--deterministic", action="store_true",
                     help="drop timing fields so reruns are byte-identical")
    sub.add_argument("--strict", action="store_true",
                     help="exit 4 when a requested check fails")


def _build_parser():
    parser = _Parser(
        prog="gma",
        description="Monge-Ampere solves on simple polytopes with "
                    "logarithmic boundary structure",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    commands = parser.add_subparsers(dest="subcommand", metavar="command",
                                     required=True)

    check = commands.add_parser(
        "check", help="validate geometry and density admissibility")
    _add_common(check)

    boundary = commands.add_parser(
        "boundary", help="assemble and cross-check face traces")
    _add_common(boundary)

    solve = commands.add_parser(
        "solve", help="solve the interior problem on a lattice chart")
    _add_common(solve)
    solve.add_argument("--chart", choices=("global", "face"),
                       default="global",
                       help="one global chart, or the facet solves of "
                            "the boundary build")

    model = commands.add_parser(
        "model", help="solve the flat half-space model problem")
    _add_common(model, problem="none")
    model.add_argument("--form", choices=("z", "x", "legendre"), default="z",
                       help="output coordinates for the dump")
    model.add_argument("--depth", type=float, default=0.25,
                       help="chart extent in the transversal coordinate")

    verify_cmd = commands.add_parser(
        "verify", help="run certificate and estimator suites")
    _add_common(verify_cmd, problem="none")
    verify_cmd.add_argument(
        "--suite", default="all",
        choices=("oracles", "barriers", "asymptotics", "appendix", "all"),
        help="which suite to run")

    oracle = commands.add_parser(
        "oracle", help="closed-form reference values at a point")
    _add_common(oracle, problem="optional")
    oracle.add_argument("--point", default=None,
                        help="comma separated coordinates")
    oracle.add_argument("--k", type=int, default=None,
                        help="number of degenerate coordinates for the "
                             "quadrant reference solution")

    return parser


def _classify(exc):
    if isinstance(exc, ParseError):
        return EXIT_PARSE
    if isinstance(exc, _SOLVER_FAILURES):
        return EXIT_SOLVER
    return EXIT_INVALID


def _config_from_args(args):
    return RunConfig(
        subcommand=args.subcommand,
        problem=getattr(args, "problem", None),
        grid=args.grid,
        levels=_parse_levels(args.levels),
        tol_solve=args.tol_solve,
        max_iter=args.max_iter,
        chart=getattr(args, "chart", "global"),
        form=getattr(args, "form", "z"),
        suite=getattr(args, "suite", "all"),
        point=_parse_point(getattr(args, "point", None)),
        k=getattr(args, "k", None),
        depth=getattr(args, "depth", 0.25),
        report_path=args.report,
        dump_path=args.dump,
        deterministic=args.deterministic,
        seed=args.seed,
        threads=_resolve_threads(args.threads),
        strict=args.strict)


def run(argv=None):
    """Parse arguments, dispatch, and return the exit code.

    Parameters
    ----------
    argv : list of str, optional
        Argument vector without the program name; defaults to
        ``sys.argv[1:]``.

    Returns
    -------
    int
        0 on success, 1 on unreadable input files, 2 on invalid input,
        3 on solver failures, 4 on failed checks under ``--strict``,
        64 on usage errors.
    """
    parser = _build_parser()
    if argv is None:
        argv = list(sys.argv[1:])
    # join value flags with '=' so coordinates starting with a minus
    # sign are not mistaken for option strings
    joined, i = [], 0
    while i < len(argv):
        if argv[i] in ("--point", "--levels") and i + 1 < len(argv):
            joined.append("%s=%s" % (argv[i], argv[i + 1]))
            i += 2
        else:
            joined.append(argv[i])
            i += 1
    try:
        args = parser.parse_args(joined)
    except _UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    try:
        config = _config_from_args(args)
    except GmaError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return _classify(exc)
    try:
        return _HANDLERS[config.subcommand](config)
    except GmaError as exc:
        code = _classify(exc)
        if config.report_path:
            _emit_report(config, {
                "error": {"kind": type(exc).__name__, "message": str(exc)},
                "exit_code": code})
        print("error: %s" % exc, file=sys.stderr)
        return code


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
