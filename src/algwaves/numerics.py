"""Floating point support: integrators, saddle shooting, Jacobi functions.

Everything here is a cross-check for the exact layer, so the methods are
deliberately plain: classical RK4 with a fixed step, an adaptive
Fehlberg 4(5) pair, and AGM-based Jacobi elliptic functions.  Their
settings are the constants below: RKF45 keeps its local error under
RKF45_ATOL + RKF45_RTOL * |y| (about 1e-10, far tighter than any
tolerance the verification layer asks for) from a first step RKF45_H0,
and only RK4's step h is a parameter.

The integrators step on Python floats: a right-hand side rhs(t, y)
receives y as a tuple of floats and returns a sequence of floats, one per
component; one of any other length raises ValueError at the first stage.
A norm past DIVERGENCE_NORM, a NaN, and a float power in a stage that
overflows all end the orbit with DivergenceError.
A plane system's rhs_float is one generated function
(poly.compile_float_field) that unpacks y and returns the tuple (P, Q).
Each method's stepping loop is generated too, once per state dimension
on first use (_compile_loop): straight-line Python that keeps each
component in a local and evaluates every stage in the order of the loop
over tuples that the tests keep as its reference, so the floats are the
same.  The loop appends times and components to flat array('d')
buffers, and only the finished orbit becomes numpy arrays, so numpy is
imported by the functions that build or read them and not by the module:
exact work that imports this module never loads it.
"""

from __future__ import annotations

import math
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence

if TYPE_CHECKING:
    import numpy as np

Rhs = Callable[[float, tuple[float, ...]], Sequence[float]]
"""rhs(t, y): y is a tuple of Python floats; returns one float per component."""

DIVERGENCE_NORM = 1e12
MAX_STEPS = 2_000_000
# The longest interval integrate_rkf45 accepts.  Near a stable rest state
# the step stays at the method's stability limit, so the work grows
# linearly with the span.
MAX_RKF45_SPAN = 1e5
RKF45_ATOL = 1e-10
RKF45_RTOL = 1e-10
RKF45_H0 = 1e-2
# the AGM stops once its c_n falls below this
JACOBI_TOL = 1e-15


class DivergenceError(RuntimeError):
    """The trajectory left the region where the model is meaningful."""


class StepSizeError(RuntimeError):
    """The adaptive integrator could not meet the tolerance or was given a
    span above MAX_RKF45_SPAN, or a fixed step would need more than
    MAX_STEPS steps."""


@dataclass
class Orbit:
    ts: np.ndarray
    ys: np.ndarray  # shape (len(ts), dim)

    def __len__(self):
        return len(self.ts)

    @property
    def end(self) -> np.ndarray:
        return self.ys[-1]


def _orbit(ts: array, ys: array, dim: int) -> Orbit:
    """The orbit with times ts and points ys, stored flat: point i is
    ys[i * dim:(i + 1) * dim]."""
    import numpy as np

    return Orbit(np.frombuffer(ts), np.frombuffer(ys).reshape(len(ts), dim))


def _check_bounded(norm: float, t: float) -> None:
    """Raise unless the solution norm is finite and at most DIVERGENCE_NORM.

    A NaN or infinite component makes the norm NaN or infinite."""
    if not math.isfinite(norm) or norm > DIVERGENCE_NORM:
        raise DivergenceError("solution norm exceeded %.1e at t=%.3f"
                              % (DIVERGENCE_NORM, t))


@contextmanager
def _overflow_diverges(ts: array):
    """Report an OverflowError in a stage as the divergence it is, after the
    last accepted time in ts: a float power x ** e in a generated rhs
    raises where a product would give inf, before the norm check runs."""
    try:
        yield
    except OverflowError:
        raise DivergenceError("a power of the solution overflowed after t=%.3f"
                              % ts[-1]) from None


def integrate_rk4(rhs: Rhs, t0: float, y0: Sequence[float], t1: float,
                  h: float = 1e-3) -> Orbit:
    """Classical fixed-step fourth order Runge-Kutta."""
    if not (math.isfinite(t0) and math.isfinite(t1) and t0 < t1):
        raise ValueError("integration interval must be finite and run forward")
    if (t1 - t0) / h > MAX_STEPS:
        raise StepSizeError("step %g needs more than %d steps from t=%g to t=%g"
                            % (h, MAX_STEPS, t0, t1))
    y = [float(v) for v in y0]
    n = max(1, int(math.ceil((t1 - t0) / h)))
    ts, ys = array("d", [t0]), array("d", y)
    with _overflow_diverges(ts):
        _loop("rk4", len(y))(rhs, t0, y, (t1 - t0) / n, n, ts, ys)
    return _orbit(ts, ys, len(y))


# Fehlberg 4(5) tableau.
_B = [
    (),
    (1 / 4,),
    (3 / 32, 9 / 32),
    (1932 / 2197, -7200 / 2197, 7296 / 2197),
    (439 / 216, -8.0, 3680 / 513, -845 / 4104),
    (-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40),
]
_C = (0.0, 1 / 4, 3 / 8, 12 / 13, 1.0, 1 / 2)
_W5 = (16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55)
_W4 = (25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0)


def integrate_rkf45(rhs: Rhs, t0: float, y0: Sequence[float], t1: float) -> Orbit:
    """Adaptive Fehlberg 4(5) for at most MAX_STEPS steps; keeps the fifth
    order value on acceptance.  Raises StepSizeError at the first step of
    size at most 1e-12 whose error exceeds the tolerance."""
    if not (math.isfinite(t0) and math.isfinite(t1) and t0 < t1):
        raise ValueError("integration interval must be finite and run forward")
    if t1 - t0 > MAX_RKF45_SPAN:
        raise StepSizeError("span %g from t=%g to t=%g exceeds the rkf45 limit %g"
                            % (t1 - t0, t0, t1, MAX_RKF45_SPAN))
    y = [float(v) for v in y0]
    ts, ys = array("d", [t0]), array("d", y)
    with _overflow_diverges(ts):
        _loop("rkf45", len(y))(rhs, t0, y, t1, min(RKF45_H0, t1 - t0), ts, ys,
                               RKF45_ATOL, RKF45_RTOL, MAX_STEPS)
    return _orbit(ts, ys, len(y))


# -- generated stepping loops ------------------------------------------------

_LOOPS: dict[tuple[str, int], Callable] = {}
"""The stepping loop of each (method, dimension), compiled on first use."""


def _loop(method: str, dim: int) -> Callable:
    loop = _LOOPS.get((method, dim))
    if loop is None:
        loop = _LOOPS[method, dim] = _compile_loop(method, dim)
    return loop


def _compile_loop(method: str, dim: int) -> Callable:
    """Generate, compile and return the stepping loop of method ("rk4" or
    "rkf45") for states of dimension dim.

    The rk4 loop is loop(rhs, t, y, hh, n, ts, ys): n steps of size hh.
    The rkf45 loop is loop(rhs, t, y, t1, h, ts, ys, atol, rtol,
    max_steps): from a first step h until t reaches t1.  Each appends the
    time of every accepted step to ts and its state's components to ys.

    Component i of the state lives in the local yi, of stage s in ks_i.
    Every expression is the one the method's loop over tuples
    (tests/test_numerics.py keeps it as the reference) evaluates, in its
    order: an rkf45 stage state is y + (h * b) * k summed left to right
    over the earlier stages, zero weights included, and a norm is sqrt of
    the sum of squares (math.hypot for rk4's bound).  An rhs value of the
    wrong length fails to unpack, a ValueError."""
    comps = range(dim)

    def vec(fmt: str) -> str:
        items = [fmt.format(i=i) for i in comps]
        return "(%s,)" % items[0] if dim == 1 else "(%s)" % ", ".join(items)

    def target(fmt: str) -> str:
        return "[%s]" % ", ".join(fmt.format(i=i) for i in comps)

    def sumsq(fmt: str) -> str:
        return "sqrt(%s)" % (" + ".join("{0} * {0}".format(fmt.format(i=i))
                                        for i in comps) or "0")

    namespace: dict = {"__builtins__": {}, "range": range, "min": min, "max": max,
                       "abs": abs, "sqrt": math.sqrt, "hypot": math.hypot,
                       "check": _check_bounded, "StepSizeError": StepSizeError}
    if method == "rk4":
        lines = [
            "def loop(rhs, t, y, hh, n, ts, ys):",
            "    %s = y" % target("y{i}"),
            "    h6 = hh / 6",
            "    for _ in range(n):",
            "        tm = t + hh / 2",
            "        %s = rhs(t, %s)" % (target("k1_{i}"), vec("y{i}")),
            "        %s = rhs(tm, %s)" % (target("k2_{i}"), vec("y{i} + hh * k1_{i} / 2")),
            "        %s = rhs(tm, %s)" % (target("k3_{i}"), vec("y{i} + hh * k2_{i} / 2")),
            "        %s = rhs(t + hh, %s)" % (target("k4_{i}"), vec("y{i} + hh * k3_{i}")),
        ]
        lines += ["        y{0} = y{0} + h6 * (k1_{0} + 2 * k2_{0} + 2 * k3_{0} + k4_{0})"
                  .format(i) for i in comps]
        lines += [
            "        t += hh",
            "        check(hypot(%s), t)" % ", ".join("y%d" % i for i in comps),
            "        ts.append(t)",
        ]
        lines += ["        ys.append(y%d)" % i for i in comps]
    else:
        for name, row in (("c", _C), ("w5_", _W5), ("w4_", _W4)):
            namespace.update(("%s%d" % (name, j), w) for j, w in enumerate(row))
        for s, row in enumerate(_B):
            namespace.update(("b%d_%d" % (s, j), b) for j, b in enumerate(row))

        def axpy(weights) -> str:
            # y + (h * w_0) * k0 + (h * w_1) * k1 + ..., component {i}
            return "".join(" + h * %s * k%d_{i}" % (w, j) for j, w in enumerate(weights))

        lines = [
            "def loop(rhs, t, y, t1, h, ts, ys, atol, rtol, max_steps):",
            "    %s = y" % target("y{i}"),
            "    for _ in range(max_steps):",
            "        if t >= t1:",
            "            return",
            "        h = min(h, t1 - t)",
            "        if h < 1e-14 * max(1.0, abs(t)):",
            "            raise StepSizeError(\"step size underflow at t=%.6f\" % t)",
            "        %s = rhs(t, %s)" % (target("k0_{i}"), vec("y{i}")),
        ]
        for s in range(1, 6):
            stage = vec("y{i}" + axpy(["b%d_%d" % (s, j) for j in range(s)]))
            lines.append("        %s = rhs(t + c%d * h, %s)" % (target("k%d_{i}" % s), s, stage))
        for order in (5, 4):
            lines += [("        y%d_{0} = y{0}" % order).format(i)
                      + axpy(["w%d_%d" % (order, j) for j in range(6)]).format(i=i)
                      for i in comps]
        lines += ["        e{0} = y5_{0} - y4_{0}".format(i) for i in comps]
        lines += [
            "        norm5 = %s" % sumsq("y5_{i}"),
            "        scale = atol + rtol * max(%s, norm5)" % sumsq("y{i}"),
            "        err = %s" % sumsq("e{i}"),
            "        if err <= scale or h <= 1e-12:",
            "            if err > scale:",
            "                raise StepSizeError(\"tolerance not met at the step floor at t=%.6f\" % t)",
            "            t += h",
        ]
        lines += ["            y{0} = y5_{0}".format(i) for i in comps]
        lines += ["            check(norm5, t)", "            ts.append(t)"]
        lines += ["            ys.append(y%d)" % i for i in comps]
        lines += [
            "        if err == 0:",
            "            h *= 5.0",
            "        else:",
            "            h *= min(5.0, max(0.2, 0.9 * (scale / err) ** 0.2))",
            "    raise StepSizeError(\"step budget exhausted before reaching t1\")",
        ]
    exec(compile("\n".join(lines) + "\n", "<numerics.%s>" % method, "exec"), namespace)
    return namespace["loop"]


@dataclass
class ShootResult:
    orbit: Orbit
    start: np.ndarray
    eigenvalue: float
    min_distance: float
    min_point: np.ndarray
    min_time: float
    end_distance: float


def shoot_unstable_manifold(ps, saddle, target, eps: float = 1e-6,
                            horizon: float = 60.0, method: str = "rkf45",
                            stop_tol: float = 0.0, **kw) -> ShootResult:
    """Follow the unstable manifold of a planar saddle toward a target.

    The start point sits eps along the unstable eigenvector, on the side
    pointing at the target.  The orbit is integrated to the horizon (kw
    goes to the integrator: rk4 takes its step h, rkf45 nothing; a
    divergence raises DivergenceError); with stop_tol > 0 it is then cut
    after its first point within stop_tol of the target.  Raises
    ValueError unless eps and horizon are finite and positive and stop_tol
    is finite and nonnegative.
    """
    import numpy as np

    from .reduction import jacobian_eigen

    if not (math.isfinite(eps) and eps > 0):
        raise ValueError("eps must be finite and positive, got %r" % (eps,))
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError("horizon must be finite and positive, got %r" % (horizon,))
    if not (math.isfinite(stop_tol) and stop_tol >= 0):
        raise ValueError("stop_tol must be finite and nonnegative, got %r" % (stop_tol,))
    ed = jacobian_eigen(ps, saddle)
    if not ed.is_saddle:
        raise ValueError("the base point is not a saddle")
    # a saddle's eigenvalues are real
    lams = [float(l) for l in ed.eigenvalues]
    idx = 0 if lams[0] > 0 else 1
    lam = lams[idx]
    if lam <= 0:
        raise ValueError("no positive eigenvalue at the base point")
    v = np.asarray([float(c) for c in ed.eigenvectors[idx]], dtype=float)
    v = v / np.linalg.norm(v)
    p0 = np.asarray([float(c) for c in saddle], dtype=float)
    tgt = np.asarray([float(c) for c in target], dtype=float)
    if np.dot(v, tgt - p0) < 0:
        v = -v
    start = p0 + eps * v

    rhs = ps.rhs_float()
    if method == "rk4":
        orbit = integrate_rk4(rhs, 0.0, start, horizon, **kw)
    else:
        orbit = integrate_rkf45(rhs, 0.0, start, horizon, **kw)
    d = np.linalg.norm(orbit.ys - tgt, axis=1)
    if stop_tol > 0:
        hits = np.nonzero(d <= stop_tol)[0]
        if len(hits):
            cut = hits[0] + 1
            orbit = Orbit(orbit.ts[:cut], orbit.ys[:cut])
            d = d[:cut]
    i = int(np.argmin(d))
    return ShootResult(orbit, start, lam, float(d[i]), orbit.ys[i],
                       float(orbit.ts[i]), float(d[-1]))


def curve_residual_along_orbit(f, orbit: Orbit,
                               transform: Optional[Callable] = None) -> float:
    """Largest |f| along the orbit, optionally after a coordinate map.

    f is a polynomial in the registry variables 0 and 1, which take the
    orbit's two columns, and is evaluated on the whole orbit at once.
    transform receives the coordinate columns (xs, ys) as numpy arrays and
    returns the mapped columns; perfbench's shooting jobs pass the flip
    x -> 1 - x that exact_front_curve needs."""
    import numpy as np

    cols = (orbit.ys[:, 0], orbit.ys[:, 1])
    if transform is not None:
        cols = transform(cols)
    values = f.compile_float((0, 1))(*cols)
    return float(np.max(np.abs(values), initial=0.0))


def jacobi_elliptic(x: float, m: float):
    """Jacobi sn, cn, dn with parameter m (so cn(x, 0) = cos x).

    Uses the arithmetic-geometric mean with the standard descending
    phase recursion; the endpoint values m = 0 and m = 1 are exact.
    """
    if m < 0 or m > 1:
        raise ValueError("the parameter m must lie in [0, 1]")
    if m == 0:
        return math.sin(x), math.cos(x), 1.0
    if m == 1:
        t = math.tanh(x)
        sech = 1.0 / math.cosh(x)
        return t, sech, sech
    agm_a = [1.0]
    agm_c = [math.sqrt(m)]
    b = math.sqrt(1.0 - m)
    while abs(agm_c[-1]) > JACOBI_TOL and len(agm_a) < 64:
        an = (agm_a[-1] + b) / 2.0
        agm_c.append((agm_a[-1] - b) / 2.0)
        b = math.sqrt(agm_a[-1] * b)
        agm_a.append(an)
    n = len(agm_a) - 1
    phi = (2.0 ** n) * agm_a[n] * x
    for i in range(n, 0, -1):
        arg = agm_c[i] / agm_a[i] * math.sin(phi)
        arg = max(-1.0, min(1.0, arg))
        phi = (phi + math.asin(arg)) / 2.0
    sn = math.sin(phi)
    cn = math.cos(phi)
    dn = math.sqrt(max(0.0, 1.0 - m * sn * sn))
    return sn, cn, dn
