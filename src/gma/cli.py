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
import struct
import sys
import time
from pathlib import Path

import numpy as np
from scipy.special import xlogy

from . import geometry, legendre, solver, verify
from .boundary import build_boundary_data
from .errors import GmaError, ParseError, SolverError, ValidationError
from .guillemin import guillemin_density, potential_values
from .problem import (COMPATIBILITY_RTOL, SCHEMA_VERSION, load_problem,
                      vertex_rule)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INVALID = 2
EXIT_SOLVER = 3
EXIT_CHECKS = 4
EXIT_USAGE = 64

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
"""


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_list(text, kind, what):
    if text is None:
        return ()
    try:
        return tuple(kind(part) for part in str(text).split(","))
    except ValueError:
        raise ValidationError("%s expects comma separated %s" % what)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, np.generic):
        return _jsonable(obj.item())
    if isinstance(obj, float) and not np.isfinite(obj):
        # NaN and Infinity are not JSON
        return None
    return obj


def _emit_report(config, payload, started=None):
    payload = dict(payload)
    payload["schema_version"] = SCHEMA_VERSION
    # the embedded config names everything that shaped the results;
    # output locations do not, and skipping them keeps deterministic
    # reruns byte-identical wherever they are written
    payload["config"] = {name: value for name, value in vars(config).items()
                         if name not in ("report", "dump")}
    if started is not None and not config.deterministic:
        payload["elapsed_s"] = round(time.monotonic() - started, 3)
    text = json.dumps(_jsonable(payload), indent=2, sort_keys=True,
                      allow_nan=False)
    if config.report:
        Path(config.report).write_text(text + "\n", encoding="ascii")
    else:
        print(text)


def _format_cell(value):
    return format(value, ".17g") if isinstance(value, float) else str(value)


def _write_csv(path, header, rows):
    lines = [",".join(header)] + [",".join(map(_format_cell, row))
                                  for row in rows]
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
    simple, bad = geometry.is_simple(P)
    payload = {
        "dimension": P.dimension,
        "facets": len(P.facets),
        "vertices": len(P.vertices),
        "simple": bool(simple),
    }
    if not simple:
        payload["nonsimple_vertices"] = bad
        payload["compatibility"] = None
        payload["message"] = "polytope is not simple at vertices %s" % (bad,)
        _emit_report(config, payload, started)
        return EXIT_INVALID
    # one evaluation of the vertex rule gives residuals and verdict
    h, h_G = prob._vertex_densities()
    residuals, ok = h - h_G, bool(np.all(vertex_rule(h, h_G)))
    payload["nonsimple_vertices"] = []
    payload["compatibility"] = {
        "residuals": [float(r) for r in residuals],
        "max_abs": float(np.max(np.abs(residuals))),
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
    n = P.dimension
    if n >= 3:
        # a facet chart is the largest chart the build makes
        solver.require_lattice(config.grid, n - 1)
    bd = build_boundary_data(prob, grid=config.grid, tol=config.tol)
    keys = sorted(bd.traces, key=lambda key: (len(key), key))
    faces = []
    labels, ts, pts = [], [], []
    for key in keys:
        face = P.faces[key]
        record = {"face": _face_label(key), "dim": face.dim}
        if face.dim >= 2:
            # the Newton report of the one solve the build ran on it
            record["solver"] = bd.traces[key].solution.report
        else:
            # a vertex is tabulated once, at t = 0
            p, q = P.vertices[[face.vertex_ids[0], face.vertex_ids[-1]]]
            t = np.linspace(0.0, 1.0, 33 if face.dim else 1)
            labels.extend([record["face"]] * len(t))
            ts.append(t)
            pts.append((1.0 - t)[:, None] * p + t[:, None] * q)
        faces.append(record)
    payload = {"consistency": bd.consistency, "faces": faces}
    if config.dump:
        header = ["face", "t"] + ["x%d" % (i + 1) for i in range(n)] \
            + ["u", "v"]
        ts = np.concatenate(ts)
        pts = np.vstack(pts)
        u = bd.u(pts)
        v = u - potential_values(P, pts)
        rows = [[label, float(t)] + [float(c) for c in x]
                + [float(a), float(b)]
                for label, t, x, a, b in zip(labels, ts, pts, u, v)]
        _write_csv(config.dump, header, rows)
    _emit_report(config, payload, started)
    return EXIT_OK


def _reference_error(prob, values, pts):
    # with the induced density the exact solution is sum l log l + A,
    # A affine through alpha(p) - sum l log l(p) at the vertices if one
    # exists, so the gap of the regular part at pts to A is the error
    P = prob.polytope
    centroid = P.vertices.mean(axis=0)
    probes = [centroid] + [v + s * (centroid - v) for v in P.vertices[:2]
                           for s in (0.12, 0.57)]
    try:
        for x in probes:
            hg = float(guillemin_density(P, x))
            if abs(float(prob.density(x)) - hg) > 1e-9 * max(1.0, abs(hg)):
                return None
    except GmaError:
        return None
    # fit A - t[0] on [(x - p0) / diameter, 1]: exact for a constant t
    t = prob.vertex_values - potential_values(P, P.vertices)
    Y = np.vstack([P.vertices, pts])
    B = np.column_stack([(Y - Y[0]) / P.diameter, np.ones(len(Y))])
    fit = B @ np.linalg.lstsq(B[:len(t)], t - t[0], rcond=None)[0] + t[0]
    if np.max(np.abs(fit[:len(t)] - t)) > 1e-9 * max(1.0, np.max(np.abs(t))):
        return None
    return float(np.max(np.abs(values - fit[len(t):])))


def _cmd_solve(config):
    started = time.monotonic()
    prob = load_problem(config.problem)
    P = prob.polytope
    solver.require_lattice(config.grid, P.dimension)
    bd = build_boundary_data(prob, grid=config.grid, tol=config.tol)
    sol, rep = solver.newton_solve(prob, boundary=bd, grid=config.grid,
                                   tol=config.tol,
                                   max_iter=config.max_iter)
    chart = sol.chart
    pts = chart.to_problem(chart.nodes)
    payload = {
        "problem": {"name": prob.name, "dimension": P.dimension,
                    "facets": len(P.facets), "vertices": len(P.vertices)},
        "nodes": len(sol.values),
        "solver": rep,
        "boundary_consistency": bd.consistency,
        "max_error_vs_oracle": _reference_error(prob, sol.values, pts),
    }
    if config.dump:
        R, _ = solver.assemble_residual(sol.values, prob, chart)
        residual = np.full(len(sol.values), np.nan)
        residual[chart.interior] = R
        u = sol.values + potential_values(P, pts)
        header = ["x%d" % (i + 1) for i in range(P.dimension)] \
            + ["v", "u", "residual"]
        table = np.column_stack([pts, sol.values, u, residual])
        _write_matrix(config.dump, header, table)
    _emit_report(config, payload, started)
    return EXIT_CHECKS if config.strict and not rep["converged"] else EXIT_OK


def _cmd_model(config):
    started = time.monotonic()
    msol, rep = legendre.model_solve_z(
        lambda x: np.ones(np.shape(x)[:-1]),
        lambda x: 0.5 * np.asarray(x, dtype=float)[..., 1] ** 2,
        x_depth=config.depth, lateral=(-1.0, 1.0),
        grid=config.grid, tol=config.tol, max_iter=config.max_iter)
    payload = {"form": config.form, "solver": rep,
               "z1_range": [float(msol.z1_axis[0]), float(msol.z1_axis[-1])],
               "z2_range": [float(msol.z2_axis[0]), float(msol.z2_axis[-1])]}

    if config.dump:
        if config.form in ("z", "x"):
            Z1, Z2 = np.meshgrid(msol.z1_axis, msol.z2_axis, indexing="ij")
            first = Z1 if config.form == "z" else Z1 ** 2 / 4.0
            table = np.column_stack([first.ravel(), Z2.ravel(),
                                     msol.values.ravel()])
            header = ["z1", "z2", "w"] if config.form == "z" \
                else ["x1", "x2", "v"]
            _write_matrix(config.dump, header, table)
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
            _write_matrix(config.dump,
                          ["y1", "y2", "ustar", "residual"], rows)

    _emit_report(config, payload, started)
    return EXIT_CHECKS if config.strict and not rep["converged"] else EXIT_OK


def _suite_oracles(config):
    rng = np.random.default_rng(config.seed)
    checks = []
    for k in (1, 2, 3):
        for n in range(k, 5):
            x = np.hstack([10.0 ** rng.uniform(-3.0, 0.5, (1000, k)),
                           rng.normal(0.0, 1.0, (1000, n - k))])
            worst = float(np.abs(verify.liouville_oracle(x, k).residual).max())
            checks.append({"id": "liouville-k%d-n%d" % (k, n),
                           "value": worst, "pass": worst <= 1e-12})
    return checks


def _suite_barriers(config):
    checks = []
    for label, P in (("square", verify._unit_square()),
                     ("simplex", verify._standard_simplex())):
        res = verify.verify_barrier("product-power", P, samples=400,
                                    seed=config.seed)
        checks.append({"id": "product-power-%s" % label,
                       "value": res.margin_differential,
                       "constants": res.constants,
                       "pass": bool(res.margin_differential > 0.0)})

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
    edge, corner = verify.estimator_levels(config.levels, config.tol,
                                           config.max_iter)
    asym = verify.estimate_face_asymptotics(corner)
    reports = [("lipschitz-simplex-edge", verify.estimate_lipschitz(edge)),
               ("weighted-hessian-simplex-edge",
                verify.estimate_weighted_hessian(edge))]
    for key in ("root-product", "full-product"):
        reports.append(("asymptotics-quadrant-%s" % key, asym[key]))
    checks = []
    for cid, rep in reports:
        finite = all(np.isfinite(rep.ratios))
        checks.append({"id": cid, "value": rep.ratios[-1],
                       "ratios": list(rep.ratios), "trend": list(rep.trend),
                       "pass": bool(rep.bounded and finite)})
    return checks


# each verify suite and the options it reads besides --dump and --strict
_SUITES = {"oracles": (_suite_oracles, ("seed",)),
           "barriers": (_suite_barriers, ("seed",)),
           "asymptotics": (_suite_asymptotics, ("levels", "tol", "max_iter"))}


def _cmd_verify(config):
    started = time.monotonic()
    selected = list(_SUITES) if config.suite == "all" else [config.suite]
    checks = []
    for name in selected:
        checks.extend(_SUITES[name][0](config))
    all_pass = all(c["pass"] for c in checks)
    payload = {"suite": config.suite, "checks": checks,
               "all_pass": bool(all_pass)}
    if config.dump:
        if config.suite == "asymptotics":
            # one row per refinement level, one ratio column per check
            header = ["level"] + [c["id"] for c in checks]
            rows = [[int(m)] + [float(c["ratios"][idx]) for c in checks]
                    for idx, m in enumerate(config.levels)]
            _write_csv(config.dump, header, rows)
        else:
            rows = [[c["id"], float(c["value"]), c["pass"]] for c in checks]
            _write_csv(config.dump, ["id", "value", "pass"], rows)
    _emit_report(config, payload, started)
    return EXIT_CHECKS if config.strict and not all_pass else EXIT_OK


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
        payload = {"density": float(guillemin_density(P, x)),
                   "potential": float(potential_values(P, x))}
    else:
        if config.k is None:
            raise ValidationError(
                "oracle needs --k when no problem file is given")
        # value, gradient, hessian and residual under their field names
        payload = {"k": int(config.k), "n": len(config.point),
                   **verify.liouville_oracle(x, config.k)._asdict()}
    if not all(np.all(np.isfinite(v)) for v in payload.values()):
        raise ValidationError("reference values at --point %s overflow"
                              % ",".join(map(repr, config.point)))
    _emit_report(config, {"point": list(config.point), **payload}, started)
    return EXIT_OK


# add_argument arguments of every option a subcommand can take, by the
# name the command table uses; "problem?" is the optional positional
_OPTIONS = {
    "problem": (("problem",), {"help": "problem description JSON file"}),
    "problem?": (("problem",), {"nargs": "?", "default": None,
                                "help": "problem description JSON file"}),
    "grid": (("--grid",), {"type": int, "default": 33,
                           "help": "nodes per edge of the solver lattice"}),
    "levels": (("--levels",), {"default": "9,17,33",
                               "help": "comma separated refinement levels"}),
    "tol": (("--tol",), {"type": float, "default": 1e-10,
                         "help": "solver and quadrature tolerance"}),
    "max_iter": (("--max-iter",), {"type": int, "default": 30,
                                   "help": "Newton iteration cap"}),
    "dump": (("--dump",), {"help": "write tabulated values here (.csv, or "
                                   ".bin for the packed float64 layout)"}),
    "seed": (("--seed",), {"type": int, "default": 0,
                           "help": "sampling seed"}),
    "strict": (("--strict",), {"action": "store_true", "default": False,
                               "help": "exit 4 when a requested check fails"}),
    "form": (("--form",), {"choices": ("z", "x", "legendre"), "default": "z",
                           "help": "output coordinates for the dump"}),
    "depth": (("--depth",), {
        "type": float, "default": 0.25,
        "help": "chart extent in the transversal coordinate"}),
    "suite": (("--suite",), {
        "choices": ("oracles", "barriers", "asymptotics", "all"),
        "default": "all", "help": "which suite to run"}),
    "point": (("--point",), {"help": "comma separated coordinates"}),
    "k": (("--k",), {"type": int,
                     "help": "number of degenerate coordinates for the "
                             "quadrant reference solution"}),
    "report": (("--report",), {
        "help": "write the JSON report here instead of stdout"}),
    "deterministic": (("--deterministic",), {
        "action": "store_true", "default": False,
        "help": "drop timing fields so reruns are byte-identical"}),
}

# each subcommand's handler, help line and the options the handler can
# read; its parser registers these, --report and --deterministic and
# nothing else, so a flag the command would ignore is a usage error
_COMMANDS = {
    "check": (_cmd_check, "validate geometry and density admissibility",
              ("problem",)),
    "boundary": (_cmd_boundary, "assemble and cross-check face traces",
                 ("problem", "grid", "tol", "dump")),
    "solve": (_cmd_solve, "solve the interior problem on a lattice chart",
              ("problem", "grid", "tol", "max_iter", "dump", "strict")),
    "model": (_cmd_model, "solve the flat half-space model problem",
              ("grid", "tol", "max_iter", "dump", "strict", "form",
               "depth")),
    "verify": (_cmd_verify, "run certificate and estimator suites",
               ("levels", "tol", "max_iter", "dump", "seed", "strict",
                "suite")),
    "oracle": (_cmd_oracle, "closed-form reference values at a point",
               ("problem?", "point", "k")),
}

# the bound each numeric option must meet, in the order they are checked
_BOUNDS = (
    ("tol", lambda v: v > 0.0, "--tol must be positive"),
    ("grid", lambda v: v >= 3, "--grid needs at least 3 nodes per edge"),
    ("levels", lambda v: len(v) >= 2 and min(v) >= 4
     and all(a < b for a, b in zip(v, v[1:])),
     "--levels needs two or more strictly increasing entries of at least 4"),
    ("max_iter", lambda v: v >= 1, "--max-iter must be at least 1"),
    ("seed", lambda v: v >= 0, "--seed must be nonnegative"),
    ("depth", lambda v: v > 0.0, "--depth must be positive"),
    ("point", lambda v: bool(np.all(np.isfinite(v))),
     "--point coordinates must be finite"),
)


def _build_parser():
    parser = _Parser(
        prog="gma",
        description="Monge-Ampere solves on simple polytopes with "
                    "logarithmic boundary structure",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    commands = parser.add_subparsers(dest="subcommand", metavar="command",
                                     required=True)
    for name, (_, help_line, options) in _COMMANDS.items():
        # options not given stay unset until _config_from_args reads them
        sub = commands.add_parser(name, help=help_line,
                                  argument_default=argparse.SUPPRESS)
        for option in options + ("report", "deterministic"):
            flags, kwargs = _OPTIONS[option]
            sub.add_argument(*flags, **{key: value for key, value
                                        in kwargs.items() if key != "default"})
    return parser


def _classify(exc):
    if isinstance(exc, ParseError):
        return EXIT_PARSE
    if isinstance(exc, SolverError):
        return EXIT_SOLVER
    return EXIT_INVALID


def _config_from_args(args):
    """The options the run reads, defaults filled in and --levels and
    --point resolved, or a usage error for a given option it does not
    read (``--k`` with a problem file, an option of a verify suite not
    run).  A bad setting or output path, or a ``.bin`` dump of a table
    with text columns, raises ValidationError before any file is read.
    The report embeds this configuration.
    """
    options = set(_COMMANDS[args.subcommand][2]) | {"report", "deterministic"}
    if args.subcommand == "oracle" and "problem" in args:
        options.discard("k")
    if getattr(args, "suite", "all") != "all":
        options -= {option for _, reads in _SUITES.values()
                    for option in reads} - set(_SUITES[args.suite][1])
    dests = {option.rstrip("?"): option for option in options}
    unread = sorted(set(vars(args)) - set(dests) - {"subcommand"})
    if unread:
        raise _UsageError("%s with %s does not read --%s" % (
            args.subcommand, "--suite " + args.suite if "suite" in args
            else "a problem file", ", --".join(unread).replace("_", "-")))
    for dest, option in dests.items():
        if dest not in args:
            setattr(args, dest, _OPTIONS[option][1].get("default"))
    if "levels" in args:
        args.levels = _parse_list(args.levels, int, ("--levels", "integers"))
    if "point" in args:
        args.point = _parse_list(args.point, float, ("--point", "numbers"))
    for name, ok, message in _BOUNDS:
        if name in args and not ok(getattr(args, name)):
            raise ValidationError(message)
    for name in ("report", "dump"):
        path = getattr(args, name, None)
        if path and (Path(path).is_dir() or not Path(path).parent.is_dir()):
            raise ValidationError("--%s %s names no file in an existing "
                                  "directory" % (name, path))
    if args.subcommand in ("boundary", "verify") \
            and str(args.dump).endswith(".bin"):
        raise ValidationError("--dump %s: %s tables have text columns"
                              % (args.dump, args.subcommand))
    return args


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
        config = _config_from_args(parser.parse_args(joined))
    except _UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except GmaError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return _classify(exc)
    try:
        return _COMMANDS[config.subcommand][0](config)
    except GmaError as exc:
        code = _classify(exc)
        if config.report:
            _emit_report(config, {
                "error": {"kind": type(exc).__name__, "message": str(exc)},
                "exit_code": code})
        print("error: %s" % exc, file=sys.stderr)
        return code


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
