"""Which algwaves calls the traced run wraps, and the per-layer metrics.

Each layer metric should move one end-to-end metric on one workload;
perfbench/README.md has that table.  Self times subtract every traced
child span (for `darboux.solve` that is the nullspace and the squarefree
tests; for `numerics.integrate` the right-hand-side calls).
"""

from __future__ import annotations

from tracer import Tracer


def install(tr: Tracer, aw) -> None:
    QuadExt, MultiPoly = aw.qfield.QuadExt, aw.poly.MultiPoly
    PlanarSystem = aw.reduction.PlanarSystem

    def count_methods(cls, attrs, name):
        for attr in attrs:
            tr.patch_method(cls, attr, tr.counted(name, cls.__dict__[attr]))

    count_methods(QuadExt, ("__init__",), "qfield.new")
    count_methods(QuadExt, ("__mul__", "__rmul__"), "qfield.mul")
    count_methods(QuadExt, ("inverse",), "qfield.inverse")
    count_methods(MultiPoly, ("__mul__", "__rmul__"), "poly.mul")
    count_methods(MultiPoly, ("evaluate",), "poly.evaluate")
    for attr in ("substitute", "evaluate_float"):
        tr.patch_method(MultiPoly, attr, tr.timed("poly." + attr, MultiPoly.__dict__[attr]))

    rhs_float = PlanarSystem.__dict__["rhs_float"]
    tr.patch_method(PlanarSystem, "rhs_float",
                    lambda ps: tr.timed("reduction.rhs", rhs_float(ps)))

    def nullspace_done(args, basis):
        rows, ncols = args
        tr.count("linalg.cells", len(rows) * ncols)
        tr.count("linalg.full_rank", not basis)

    def solve_done(args, result):
        tr.count("darboux.solve.hits", result is not None)

    def candidates_done(args, result):
        tr.count("darboux.candidates", len(result[0]))

    def steps_done(args, orbit):
        tr.count("numerics.steps", len(orbit) - 1)

    timed = (
        (aw.qfield.is_squarefree, "qfield.squarefree", None),
        (aw.linalg.nullspace, "linalg.nullspace", nullspace_done),
        (aw.darboux.search_constant_cofactor, "darboux.search", None),
        (aw.darboux.solve_fixed_cofactor, "darboux.solve", solve_done),
        (aw.darboux.irreducibility_screen, "darboux.screen", None),
        (aw.poly.sylvester_resultant, "poly.resultant", None),
        (aw.reduction.travelling_wave_reduce, "reduction.reduce", None),
        (aw.reduction.jacobian_eigen, "reduction.eigen", None),
        (aw.numerics.integrate_rk4, "numerics.integrate", steps_done),
        (aw.numerics.integrate_rkf45, "numerics.integrate", steps_done),
        (aw.numerics.curve_residual_along_orbit, "numerics.residual", None),
        (aw.fisher.certify, "fisher.certify", None),
        (aw.fisher.verify_gamma_identities, "fisher.gamma", None),
        (aw.fisher.leading_coeffs_recurrence, "fisher.recurrence", None),
        (aw.closedform.p_from_exp_rational, "closedform.elim", None),
        (aw.waves.verify_entry, "waves.verify_entry", None),
        (aw.pde.parse_pde, "pde.parse", None),
    )
    for fn, name, after in timed:
        tr.patch_function(fn, tr.timed(name, fn, after))
    fn = aw.darboux.eigenvalue_cofactor_candidates
    tr.patch_function(fn, tr.counted("darboux.candidate_sets", fn, candidates_done))


def metrics(tr: Tracer) -> dict[str, float]:
    """Every per-layer metric; a ratio with a zero base reads 0."""
    spans = tr.summary()

    def c(name: str) -> int:
        return tr.counters.get(name, 0)

    def span(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    return {
        "qfield.new": c("qfield.new"),
        "qfield.mul": c("qfield.mul"),
        "qfield.inverse": c("qfield.inverse"),
        "qfield.squarefree.calls": span("qfield.squarefree", "calls"),
        "qfield.squarefree.s": span("qfield.squarefree", "s"),
        "linalg.nullspace.calls": span("linalg.nullspace", "calls"),
        "linalg.nullspace.s": span("linalg.nullspace", "s"),
        "linalg.cells": c("linalg.cells"),
        "linalg.full_rank_ratio": ratio(c("linalg.full_rank"),
                                        span("linalg.nullspace", "calls")),
        "darboux.search.calls": span("darboux.search", "calls"),
        "darboux.candidates": ratio(c("darboux.candidates"),
                                    c("darboux.candidate_sets")),
        "darboux.solve.calls": span("darboux.solve", "calls"),
        "darboux.solve.self_s": span("darboux.solve", "self_s"),
        "darboux.hit_ratio": ratio(c("darboux.solve.hits"),
                                   span("darboux.solve", "calls")),
        "darboux.screen.s": span("darboux.screen", "s"),
        "poly.mul.calls": c("poly.mul"),
        "poly.substitute.s": span("poly.substitute", "s"),
        "poly.resultant.s": span("poly.resultant", "s"),
        "poly.evaluate.calls": c("poly.evaluate"),
        "poly.evaluate_float.calls": span("poly.evaluate_float", "calls"),
        "poly.evaluate_float.s": span("poly.evaluate_float", "s"),
        "reduction.reduce.s": span("reduction.reduce", "s"),
        "reduction.eigen.calls": span("reduction.eigen", "calls"),
        "reduction.eigen.s": span("reduction.eigen", "s"),
        "reduction.rhs.calls": span("reduction.rhs", "calls"),
        "numerics.integrate.self_s": span("numerics.integrate", "self_s"),
        "numerics.steps": c("numerics.steps"),
        "numerics.rhs_per_step": ratio(span("reduction.rhs", "calls"),
                                       c("numerics.steps")),
        "numerics.residual.s": span("numerics.residual", "s"),
        "fisher.certify.s": span("fisher.certify", "s"),
        "fisher.gamma.s": span("fisher.gamma", "s"),
        "fisher.recurrence.s": span("fisher.recurrence", "s"),
        "closedform.elim.s": span("closedform.elim", "s"),
        "waves.verify_entry.calls": span("waves.verify_entry", "calls"),
        "waves.verify_entry.s": span("waves.verify_entry", "s"),
        "pde.parse.s": span("pde.parse", "s"),
    }
