"""Tests of the benchmark itself: inputs, tracer arithmetic, patch hygiene.

    python3 -m pytest -q perfbench/tests
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, span_summary  # noqa: E402


@pytest.fixture(scope="module")
def aw():
    return workloads.import_algwaves(HERE.parent)


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_same_seed_same_inputs(workload):
    for index in range(3):
        assert workloads.make_batch(workload, 5, index) == workloads.make_batch(workload, 5, index)
    assert workloads.make_batch(workload, 5, 0) != workloads.make_batch(workload, 6, 0)
    assert workloads.make_batch(workload, 5, 0) != workloads.make_batch(workload, 5, 1)


def test_batch_composition_does_not_depend_on_seed():
    for workload in workloads.GENERATORS:
        shapes = {tuple(sorted(j.label for j in workloads.make_batch(workload, s, 0)))
                  for s in range(4)}
        assert len(shapes) == 1, workload


def test_large_radicands_have_the_fixed_cost():
    lo, hi = workloads.LARGE_RADICAND_ITERATIONS
    for job in workloads.make_batch("neg-search", 3, 0):
        if job.label.startswith("rational-large"):
            p, _, q = job.args[0].partition("/")
            n = int(p) ** 2 + 4 * int(q or 1) ** 2
            d, _ = workloads.trial_division_iterations(n, 10**6)
            assert workloads.LARGE_RADICAND[0] <= d <= workloads.LARGE_RADICAND[1]
            assert lo <= workloads.trial_division_iterations(d, 10**6)[1] <= hi


def test_trial_division_matches_the_library(aw):
    for n in (2, 12, 360, 9998200117, 2 * 3 * 3 * 7919 * 7919 * 104729):
        s, d = aw.qfield.squarefree_decompose(n)
        assert workloads.trial_division_iterations(n, 10**7)[0] == d


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3];
    # b has two children of the same name as a: a [6, 7] and a [7, 8.5]
    names = ["root", "a", "b", "c"]
    span_name = [0, 1, 3, 2, 1, 1]
    parent = [-1, 0, 1, 0, 3, 3]
    start = [0.0, 1.0, 2.0, 5.0, 6.0, 7.0]
    end = [10.0, 4.0, 3.0, 9.0, 7.0, 8.5]
    s = span_summary(names, span_name, parent, start, end)
    assert s["root"] == {"calls": 1, "s": 10.0, "self_s": 10.0 - 3.0 - 4.0}
    assert s["a"] == {"calls": 3, "s": 3.0 + 1.0 + 1.5, "self_s": 2.0 + 1.0 + 1.5}
    assert s["b"] == {"calls": 1, "s": 4.0, "self_s": 4.0 - 2.5}
    assert s["c"] == {"calls": 1, "s": 1.0, "self_s": 1.0}


def test_reference_speed_rescales_each_gap_between_samples():
    meter = speed.Speedometer()
    # loop samples: 1x reference time at t = 0, 2x at t = 1, 1x at t = 2
    ref = speed.REFERENCE_S
    meter.starts, meter.loops = [0.0, 1.0, 2.0], [ref, 2 * ref, ref]
    meter.ends = [s + d for s, d in zip(meter.starts, meter.loops)]
    gap0, gap1 = 1.0 - ref, 2.0 - (1.0 + 2 * ref)
    assert meter.seconds(ref, 1.0) == pytest.approx(gap0 * 2 / 3)
    assert meter.seconds(0.5, 1.5) == pytest.approx((0.5 + 0.5 - 2 * ref) * 2 / 3)
    assert meter.seconds(0.0, 2.0 + ref) == pytest.approx((gap0 + gap1) * 2 / 3)
    assert meter.seconds(0.2, 0.3) == pytest.approx(0.1 * 2 / 3)


def test_tracer_nests_spans_and_pauses():
    tr = Tracer()
    inner = tr.timed("inner", lambda x: x + 1)
    outer = tr.timed("outer", lambda x: inner(inner(x)))
    counted = tr.counted("hits", lambda: None)
    assert outer(1) == 3
    counted()
    with tr.paused():
        outer(1)
        counted()
    s = tr.summary()
    assert s["outer"]["calls"] == 1 and s["inner"]["calls"] == 2
    assert list(tr.span_parent) == [-1, 0, 0]
    assert tr.counters["hits"] == 1


def _bindings(aw):
    """Every attribute of every algwaves module and class, by identity."""
    out = {}
    for modname, mod in sys.modules.items():
        if modname == "algwaves" or modname.startswith("algwaves."):
            for attr, val in vars(mod).items():
                out[(modname, attr)] = id(val)
                if isinstance(val, type) and val.__module__ == modname:
                    for cattr, cval in vars(val).items():
                        out[(modname, attr, cattr)] = id(cval)
    return out


def test_wrappers_are_restored_after_a_traced_run(aw):
    before = _bindings(aw)
    tr = Tracer()
    ctx = workloads.setup(aw)
    jobs = [j for j in workloads.make_batch("pos-exact", 1, 0)
            if j.label in ("planted-d1", "eliminate-burgers")]
    plain = run.run_batch(ctx, jobs).verdicts
    try:
        layers.install(tr, aw)
        assert _bindings(aw) != before
        traced = run.run_batch(workloads.setup(aw), jobs, tr).verdicts
    finally:
        tr.uninstall()
    assert _bindings(aw) == before
    assert traced == plain and all(ok for ok, _ in traced)
    got = layers.metrics(tr)
    assert got["darboux.solve.calls"] > 0 and got["closedform.elim.s"] > 0
    assert got["pde.parse.s"] > 0 and got["qfield.new"] > 0


def test_nested_imports_are_patched_where_looked_up(aw):
    tr = Tracer()
    try:
        layers.install(tr, aw)
        assert hasattr(aw.darboux.nullspace, "__wrapped__")
        assert aw.darboux.nullspace is aw.linalg.nullspace
        assert aw.fisher.solve_fixed_cofactor is aw.darboux.solve_fixed_cofactor
    finally:
        tr.uninstall()
    assert not hasattr(aw.darboux.nullspace, "__wrapped__")
