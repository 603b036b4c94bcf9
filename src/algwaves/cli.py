"""Command line front end.

Every subcommand works from exact input: equations as text, parameters
and speeds as field literals such as 5/6*sqrt(6).  Output is plain text
by default or a stable JSON document with --json.

Exit codes: 0 success, 1 bad input or flags (a shooting run that
diverges or would need too many steps included), 2 empty result (no curve,
no discrete equilibria, failed certificate), 3 numeric tolerance miss,
4 undetermined (find-curve searched no cofactor candidate, only the
--cofactor values given, or only constant ones where a curve may have a
nonconstant cofactor, so an empty search proves nothing).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from typing import Optional

from .darboux import MAX_SEARCH_DEGREE
from .exprparse import ExprSyntaxError
from .numerics import DivergenceError, StepSizeError, shoot_unstable_manifold
from .pde import bind_params, parse_pde
from .poly import MultiPoly
from .qfield import QuadExt, parse_quadext
from .reduction import (
    DegenerateSpeedError,
    EquilibriumContinuumError,
    ReductionError,
    equilibria,
    to_planar,
    travelling_wave_reduce,
)

SCHEMA = "dwv1"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        raise SystemExit(1)


def _jsonable(obj):
    if isinstance(obj, (QuadExt, MultiPoly, Fraction)):
        return str(obj)
    raise TypeError("cannot serialize %r" % type(obj).__name__)


def _emit(args, command: str, config: dict, result: dict, text: list):
    if getattr(args, "json", False):
        doc = {"schema": SCHEMA, "command": command, "config": config,
               "result": result}
        payload = json.dumps(doc, sort_keys=True, indent=2, default=_jsonable)
    else:
        payload = "\n".join(text)
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)


def _parse_params(pairs) -> dict:
    values = {}
    for item in pairs or ():
        if "=" not in item:
            raise ValueError("parameter %r is not NAME=VALUE" % item)
        name, _, text = item.partition("=")
        values[name.strip()] = text.strip()
    return values


def _parse_point(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("point %r is not X,Y" % text)
    return (parse_quadext(parts[0].strip()), parse_quadext(parts[1].strip()))


def _load_spec(args):
    if getattr(args, "pde_file", None):
        with open(args.pde_file) as fh:
            text = fh.read()
    else:
        text = args.pde
    if not text:
        raise ValueError("no equation given; use --pde or --pde-file")
    spec = parse_pde(text)
    values = _parse_params(getattr(args, "param", None))
    if values:
        spec = bind_params(spec, values)
    return spec


def _reduced(args):
    spec = _load_spec(args)
    speed = parse_quadext(args.speed) if getattr(args, "speed", None) else None
    sys_spec = travelling_wave_reduce(spec)
    if speed is not None:
        sys_spec = sys_spec.bind_speed(speed)
    return sys_spec


# -- subcommands -----------------------------------------------------------------


def cmd_reduce(args):
    sys_spec = _reduced(args)
    names = [sys_spec.registry.name(v) for v in sys_spec.y_vars]
    exc = sys_spec.exceptional_speeds
    result = {
        "order": sys_spec.n,
        "variables": names,
        "numerator": str(sys_spec.gc_num),
        "denominator": str(sys_spec.gc_den),
        "exceptional_speeds": None if exc is None else [str(r.value) for r in exc],
        "speed": None if sys_spec.c is None else str(sys_spec.c),
        "unbound_parameters": sys_spec.unbound_params(),
    }
    text = ["order: %d" % sys_spec.n]
    for i, name in enumerate(names[:-1]):
        text.append("%s' = %s" % (name, names[i + 1]))
    text.append("%s' = (%s) / (%s)"
                % (names[-1], sys_spec.gc_num, sys_spec.gc_den))
    if exc is None:
        text.append("exceptional speeds: undetermined (parameters unbound)")
    elif exc:
        text.append("exceptional speeds: "
                    + ", ".join(str(r.value) for r in exc))
    else:
        text.append("exceptional speeds: none")
    if result["unbound_parameters"]:
        text.append("unbound parameters: "
                    + ", ".join(result["unbound_parameters"]))
    return "reduce", _config(args), result, text, 0


def cmd_equilibria(args):
    sys_spec = _reduced(args)
    eqs = equilibria(sys_spec)
    rows = [{"value": str(e.point[0]), "exact": e.exact,
             "multiplicity": e.multiplicity} for e in eqs]
    result = {"count": len(eqs), "equilibria": rows}
    text = ["%d rest value(s)" % len(eqs)]
    for r in rows:
        tag = "exact" if r["exact"] else "approximate"
        text.append("  u = %s  (%s, multiplicity %d)"
                    % (r["value"], tag, r["multiplicity"]))
    return "equilibria", _config(args), result, text, 0 if eqs else 2


def cmd_find_curve(args):
    from .darboux import search_constant_cofactor

    sys_spec = _reduced(args)
    if sys_spec.c is None:
        raise ValueError("--speed is required to search for curves")
    ps = to_planar(sys_spec)
    if args.point:
        points = [_parse_point(p) for p in args.point]
    else:
        points = [(e.point[0], QuadExt(0)) for e in equilibria(sys_spec)
                  if e.exact]
        if not points:
            raise ValueError("no exact equilibria; give --point explicitly")
    cands = [parse_quadext(k) for k in args.cofactor] if args.cofactor else None
    hits = search_constant_cofactor(ps, points, args.max_degree, candidates=cands)
    notes = hits.notes
    if notes == ["only the given cofactors were searched"]:
        notes = ["only the cofactors given with --cofactor were searched"]
    rows = [{"curve": str(h.curve), "cofactor": str(h.cofactor),
             "degree": h.degree, "nullspace_dim": h.nullspace_dim}
            for h in hits]
    result = {"count": len(hits), "curves": rows, "status": hits.status,
              "notes": notes,
              "points": ["(%s, %s)" % (p[0], p[1]) for p in points]}
    if hits:
        text = ["%d invariant curve(s) through %s"
                % (len(hits), ", ".join(result["points"]))]
        for r in rows:
            text.append("  f = %s" % r["curve"])
            text.append("    cofactor %s, degree %d, nullspace dimension %d"
                        % (r["cofactor"], r["degree"], r["nullspace_dim"]))
        code = 0
    elif hits.status == "proved-none":
        text = ["no invariant curve up to degree %d through %s"
                % (args.max_degree, ", ".join(result["points"]))]
        code = 2
    else:
        if hits.candidates or hits.images:
            text = ["undetermined: no curve with %s up to degree %d through %s"
                    % ("a given cofactor" if args.cofactor
                       else "a constant cofactor",
                       args.max_degree, ", ".join(result["points"]))]
        else:
            text = ["undetermined: no cofactor candidate for a curve through %s"
                    % ", ".join(result["points"])]
        text += ["  " + n for n in notes]
        code = 4
    return "find-curve", _config(args), result, text, code


def cmd_certify_fisher(args):
    from .fisher import certify

    cert = certify()
    result = {
        "ok": cert.ok,
        "stages": [{"name": s.name, "ok": s.ok, "detail": s.detail}
                   for s in cert.stages],
        "speed": None if cert.speed is None else str(cert.speed),
        "speed_squared": None if cert.speed_squared is None else str(cert.speed_squared),
        "cofactor": None if cert.cofactor is None else str(cert.cofactor),
        "curve": None if cert.curve is None else str(cert.curve),
        "coefficients": {k: str(v) for k, v in cert.coefficients.items()},
        "nullspace_dim": cert.nullspace_dim,
    }
    text = []
    for s in cert.stages:
        text.append("[%s] %s: %s" % ("ok " if s.ok else "FAIL", s.name, s.detail))
    if cert.ok:
        text.append("speed: c = %s with c^2 = %s" % (cert.speed, cert.speed_squared))
        text.append("cofactor: %s" % cert.cofactor)
        text.append("curve: %s" % cert.curve)
        text.append("coefficients:")
        for k in sorted(cert.coefficients):
            text.append("  %-4s %s" % (k + ":", cert.coefficients[k]))
    return "certify-fisher", _config(args), result, text, 0 if cert.ok else 2


def cmd_catalog(args):
    rows = []
    text = []
    for e in _entries(args):
        row = {
            "name": e.name,
            "equation": e.equation,
            "speed": str(e.speed),
            "parameters": {k: str(v) for k, v in e.params.items()},
            "relation": str(e.relation.p),
            "boundary": None if e.boundary is None
            else [str(b) for b in e.boundary],
            "periodic": e.periodic,
        }
        rows.append(row)
        text.append("%s: %s" % (e.name, e.equation))
        text.append("  speed %s%s" % (row["speed"],
                                      "  (periodic profile)" if e.periodic else ""))
        if row["parameters"]:
            text.append("  parameters "
                        + ", ".join("%s=%s" % kv for kv in sorted(row["parameters"].items())))
        text.append("  relation %s = 0" % row["relation"])
        if row["boundary"]:
            text.append("  limits %s -> %s" % tuple(row["boundary"]))
    return "catalog", _config(args), {"entries": rows}, text, 0


def _entries(args) -> list:
    """The --entry catalog entry with its --param overrides, or the whole
    catalog."""
    from .waves import catalog, make_entry

    if not args.entry:
        if args.param:
            raise ValueError("--param needs --entry")
        return list(catalog().values())
    values = {}
    for name, literal in _parse_params(args.param).items():
        v = parse_quadext(literal)
        # integer parameters such as the exponent q must arrive as int
        values[name] = v.a.numerator if v.is_rational() and v.a.denominator == 1 else v
    return [make_entry(args.entry, **values)]


def cmd_verify(args):
    from .waves import pde_residual_along_profile, verify_entry

    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise ValueError("--tol must be finite and nonnegative, got %r" % (args.tol,))
    rows = []
    text = []
    worst_fail = False
    for e in _entries(args):
        rep = verify_entry(e, n=args.samples, lo=args.lo, hi=args.hi)
        pde_res = pde_residual_along_profile(e)
        good = (rep.max_residual <= args.tol and pde_res <= args.tol
                and rep.ok)
        worst_fail = worst_fail or not good
        rows.append({
            "name": e.name,
            "max_residual": rep.max_residual,
            "pde_residual": pde_res,
            "boundary_ok": rep.boundary_ok,
            "symbolic_zero": rep.symbolic_zero,
            "within_tolerance": good,
        })
        flags = []
        if rep.boundary_ok is not None:
            flags.append("boundary %s" % ("ok" if rep.boundary_ok else "FAIL"))
        if rep.symbolic_zero is not None:
            flags.append("symbolic %s" % ("ok" if rep.symbolic_zero else "FAIL"))
        text.append("[%s] %-15s relation %.3e  equation %.3e%s"
                    % ("ok " if good else "BAD", e.name, rep.max_residual,
                       pde_res, ("  (" + ", ".join(flags) + ")") if flags else ""))
    result = {"entries": rows, "tolerance": args.tol}
    return "verify", _config(args), result, text, 3 if worst_fail else 0


def cmd_p_from_exp(args):
    from .closedform import ExpRational, p_from_exp_rational

    q1 = [parse_quadext(t.strip()) for t in args.q1.split(",")]
    q2 = [parse_quadext(t.strip()) for t in args.q2.split(",")]
    rel = p_from_exp_rational(ExpRational(q1, q2, parse_quadext(args.rate)))
    result = {"relation": str(rel.p), "variables": ["u", "du"]}
    text = ["p(u, du) = %s" % rel.p]
    return "p-from-exp", _config(args), result, text, 0


def cmd_shoot(args):
    sys_spec = _reduced(args)
    if sys_spec.c is None:
        raise ValueError("--speed is required for shooting")
    if args.tol is not None and not (math.isfinite(args.tol) and args.tol >= 0):
        raise ValueError("--tol must be finite and nonnegative, got %r" % (args.tol,))
    ps = to_planar(sys_spec)
    saddle = _parse_point(args.saddle)
    target = _parse_point(args.target)
    res = shoot_unstable_manifold(
        ps, saddle, (float(target[0]), float(target[1])),
        eps=args.eps, horizon=args.horizon, method=args.method,
        stop_tol=args.stop_tol)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("t,%s,%s\n" % (ps.registry.name(ps.x_var),
                                    ps.registry.name(ps.y_var)))
            for t, (xx, yy) in zip(res.orbit.ts, res.orbit.ys):
                fh.write("%.12g,%.16g,%.16g\n" % (t, xx, yy))
    steps = len(res.orbit) - 1  # the orbit also holds its start point
    result = {
        "eigenvalue": res.eigenvalue,
        "start": [float(v) for v in res.start],
        "min_distance": res.min_distance,
        "min_point": [float(v) for v in res.min_point],
        "min_time": res.min_time,
        "end_distance": res.end_distance,
        "steps": steps,
    }
    text = [
        "unstable rate %.6g, start (%.8g, %.8g)"
        % (res.eigenvalue, res.start[0], res.start[1]),
        "closest approach %.3e at t = %.4g" % (res.min_distance, res.min_time),
        "end distance %.3e after %d accepted steps"
        % (res.end_distance, steps),
    ]
    code = 0
    if args.tol is not None and res.min_distance > args.tol:
        text.append("target missed at tolerance %.3e" % args.tol)
        code = 3
    return "shoot", _config(args), result, text, code


def _config(args) -> dict:
    skip = {"handler", "json", "out", "command"}
    return {k: v for k, v in vars(args).items()
            if k not in skip and v is not None}


# -- wiring ----------------------------------------------------------------------


def _add_common(p):
    p.add_argument("--json", action="store_true", help="emit a JSON document")
    p.add_argument("--out", metavar="FILE", help="write output to a file")


def _add_pde_flags(p, speed_required=False):
    p.add_argument("--pde", help="equation text, e.g. 'u_t + u*u_x - a*u_xx = 0'")
    p.add_argument("--pde-file", help="file containing the equation")
    p.add_argument("--param", action="append", metavar="NAME=VALUE",
                   help="bind a named parameter (exact literal; repeatable)")
    p.add_argument("--speed", required=speed_required,
                   help="wave speed as an exact literal, e.g. 5/6*sqrt(6)")


def build_parser() -> _Parser:
    parser = _Parser(prog="algwaves",
                     description="algebraic travelling waves toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", parents=[], help="companion form of the wave equation")
    _add_pde_flags(p)
    _add_common(p)
    p.set_defaults(handler=cmd_reduce)

    p = sub.add_parser("equilibria", help="rest values of the reduced system")
    _add_pde_flags(p)
    _add_common(p)
    p.set_defaults(handler=cmd_equilibria)

    p = sub.add_parser("find-curve", help="invariant algebraic curves of the plane system")
    _add_pde_flags(p, speed_required=True)
    p.add_argument("--max-degree", type=int, default=3, metavar="N",
                   help="largest curve degree to try (default 3, at most %d)"
                   % MAX_SEARCH_DEGREE)
    p.add_argument("--point", action="append", metavar="X,Y",
                   help="equilibrium the curve must pass through (repeatable)")
    p.add_argument("--cofactor", action="append", metavar="K",
                   help="candidate constant cofactor (exact literal; repeatable)")
    _add_common(p)
    p.set_defaults(handler=cmd_find_curve)

    p = sub.add_parser("certify-fisher", help="exact certificate for the algebraic front")
    _add_common(p)
    p.set_defaults(handler=cmd_certify_fisher)

    p = sub.add_parser("catalog", help="list the built-in wave examples")
    p.add_argument("--entry", help="show a single entry")
    p.add_argument("--param", action="append", metavar="NAME=VALUE",
                   help="override an entry parameter (with --entry)")
    _add_common(p)
    p.set_defaults(handler=cmd_catalog)

    p = sub.add_parser("verify", help="check catalog profiles against their relations")
    p.add_argument("--entry", help="verify a single entry")
    p.add_argument("--param", action="append", metavar="NAME=VALUE",
                   help="override an entry parameter (with --entry)")
    p.add_argument("--tol", type=float, default=1e-8,
                   help="largest admissible residual (default 1e-8)")
    p.add_argument("--samples", type=int, default=201)
    p.add_argument("--lo", type=float, default=-10.0)
    p.add_argument("--hi", type=float, default=10.0)
    _add_common(p)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("p-from-exp", help="first order relation of an exp-rational profile")
    p.add_argument("--q1", required=True, metavar="C0,C1,...",
                   help="numerator coefficients, ascending, exact literals")
    p.add_argument("--q2", required=True, metavar="C0,C1,...",
                   help="denominator coefficients, ascending, exact literals")
    p.add_argument("--rate", required=True, metavar="LAM",
                   help="exponential rate as an exact literal")
    _add_common(p)
    p.set_defaults(handler=cmd_p_from_exp)

    p = sub.add_parser("shoot", help="follow the unstable manifold of a saddle")
    _add_pde_flags(p, speed_required=True)
    p.add_argument("--saddle", required=True, metavar="X,Y",
                   help="saddle rest point (exact literals)")
    p.add_argument("--target", required=True, metavar="X,Y",
                   help="point the orbit should approach")
    p.add_argument("--eps", type=float, default=1e-6,
                   help="offset along the unstable direction (default 1e-6)")
    p.add_argument("--horizon", type=float, default=60.0,
                   help="integration span (default 60)")
    p.add_argument("--method", choices=("rkf45", "rk4"), default="rkf45")
    p.add_argument("--stop-tol", type=float, default=0.0,
                   help="stop once the target is this close (default: run out the horizon)")
    p.add_argument("--tol", type=float, default=None,
                   help="fail (exit 3) if the approach stays above this")
    p.add_argument("--csv", metavar="FILE", help="write the orbit as CSV")
    _add_common(p)
    p.set_defaults(handler=cmd_shoot)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        command, config, result, text, code = args.handler(args)
    except EquilibriumContinuumError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (ExprSyntaxError, ReductionError, DegenerateSpeedError, ValueError,
            KeyError, ArithmeticError, OSError, DivergenceError,
            StepSizeError) as exc:
        # one argument is the message (unquoted, also for KeyError); with
        # more, as (errno, text), the first alone would print a bare number
        msg = exc.args[0] if len(exc.args) == 1 else exc
        print("error: %s" % msg, file=sys.stderr)
        return 1
    _emit(args, command, config, result, text)
    return code


if __name__ == "__main__":
    sys.exit(main())
