"""One command line op in a fresh process.

    python perfbench/proc.py [--trace-out FILE] cli <gma arguments...>
    python perfbench/proc.py [--trace-out FILE] model --grid G --report FILE
        --strength S --slope A --shift B

``cli`` runs ``gma.cli.run`` on the arguments, as the ``gma`` command
does, and exits with its code.  ``model`` solves the half-space model
problem with ``legendre.model_solve_z`` for a non-constant density, pushes
the solution through ``legendre.legendre_forward`` and writes the solver
report and the grid values as JSON.  With ``--trace-out`` the tracing
shim is installed around the op and its spans and counts are written to
FILE when the op ends.
"""

import argparse
import contextlib
import json
import sys

import numpy as np
from scipy.special import xlogy

import generate
from gma import cli, legendre


def model_op(args):
    h = generate.model_density(args.strength)
    msol, rep = legendre.model_solve_z(
        h, generate.model_trace(args.slope, args.shift), grid=args.grid)
    depth = 0.25
    x1 = np.linspace(0.4 * depth, 0.96 * depth, args.grid)
    x2 = np.linspace(-0.6, 0.6, args.grid)
    U = np.empty((args.grid, args.grid))
    for i, a in enumerate(x1):
        U[i] = float(xlogy(a, a)) + msol.v(np.column_stack(
            [np.full(args.grid, a), x2]))
    pair = legendre.legendre_forward(U, (x1, x2))
    with open(args.report, "w", encoding="ascii") as fh:
        json.dump({"solver": rep, "values": msol.values.tolist(),
                   "transform_points": int(len(pair.ustar)),
                   "transform_finite": bool(np.all(np.isfinite(pair.ustar)))},
                  fh)
    return 0


def main(argv):
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    kind, rest = argv[0], argv[1:]
    tracer = None
    if trace_out:
        from tracer import Tracer
        tracer = Tracer()
        tracer.op = 0
        tracer.install()
    try:
        if kind == "cli":
            code = cli.run(rest)
        elif kind == "model":
            parser = argparse.ArgumentParser(prog="proc.py model")
            parser.add_argument("--grid", type=int, required=True)
            parser.add_argument("--report", required=True)
            parser.add_argument("--strength", type=float, required=True)
            parser.add_argument("--slope", type=float, required=True)
            parser.add_argument("--shift", type=float, required=True)
            opts = parser.parse_args(rest)
            with (tracer.span("bench.op") if tracer is not None
                  else contextlib.nullcontext()):
                code = model_op(opts)
        else:
            raise SystemExit("unknown op kind %r" % (kind,))
    finally:
        if tracer is not None:
            tracer.uninstall()
            with open(trace_out, "w", encoding="ascii") as fh:
                json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
