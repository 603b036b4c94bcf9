"""Floating point support: integrators, saddle shooting, Jacobi functions.

Everything here is a cross-check for the exact layer, so the methods are
deliberately plain: classical RK4 with a fixed step, an adaptive
Fehlberg 4(5) pair, and AGM-based Jacobi elliptic functions.  Their
settings are the constants below: RKF45 keeps its local error under
RKF45_ATOL + RKF45_RTOL * |y| (about 1e-10, far tighter than any
tolerance the verification layer asks for) from a first step RKF45_H0,
and only RK4's step h is a parameter.

The integrators step on tuples of Python floats: a right-hand side
rhs(t, y) receives y as a tuple of floats and returns a sequence of
floats, one per component.  A plane system's rhs_float is one generated
function (poly.compile_float_field) that unpacks y and returns the tuple
(P, Q).  Only the finished orbit becomes numpy arrays, so numpy is
imported by the functions that build or read them and not by the module:
exact work that imports this module never loads it.
"""

from __future__ import annotations

import math
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


def _orbit(ts: list[float], ys: list[tuple[float, ...]]) -> Orbit:
    import numpy as np

    return Orbit(np.array(ts), np.array(ys))


def _norm(v: Sequence[float]) -> float:
    return math.sqrt(sum([x * x for x in v]))


def _check_bounded(norm: float, t: float) -> None:
    """Raise unless the solution norm is finite and at most DIVERGENCE_NORM.

    A NaN or infinite component makes the norm NaN or infinite."""
    if not math.isfinite(norm) or norm > DIVERGENCE_NORM:
        raise DivergenceError("solution norm exceeded %.1e at t=%.3f"
                              % (DIVERGENCE_NORM, t))


def integrate_rk4(rhs: Rhs, t0: float, y0: Sequence[float], t1: float,
                  h: float = 1e-3) -> Orbit:
    """Classical fixed-step fourth order Runge-Kutta."""
    if not (math.isfinite(t0) and math.isfinite(t1) and t0 < t1):
        raise ValueError("integration interval must be finite and run forward")
    if (t1 - t0) / h > MAX_STEPS:
        raise StepSizeError("step %g needs more than %d steps from t=%g to t=%g"
                            % (h, MAX_STEPS, t0, t1))
    y = tuple(float(v) for v in y0)
    n = max(1, int(math.ceil((t1 - t0) / h)))
    hh = (t1 - t0) / n
    h6 = hh / 6
    ts = [t0]
    ys = [y]
    t = t0
    for _ in range(n):
        tm = t + hh / 2
        k1 = rhs(t, y)
        k2 = rhs(tm, tuple([a + hh * b / 2 for a, b in zip(y, k1)]))
        k3 = rhs(tm, tuple([a + hh * b / 2 for a, b in zip(y, k2)]))
        k4 = rhs(t + hh, tuple([a + hh * b for a, b in zip(y, k3)]))
        y = tuple([a + h6 * (b1 + 2 * b2 + 2 * b3 + b4)
                   for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)])
        t += hh
        _check_bounded(math.hypot(*y), t)
        ts.append(t)
        ys.append(y)
    return _orbit(ts, ys)


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


def _axpy(y: tuple[float, ...], a: float, k: Sequence[float]) -> tuple[float, ...]:
    return tuple([v + a * w for v, w in zip(y, k)])


def integrate_rkf45(rhs: Rhs, t0: float, y0: Sequence[float], t1: float) -> Orbit:
    """Adaptive Fehlberg 4(5) for at most MAX_STEPS steps; keeps the fifth
    order value on acceptance."""
    if not (math.isfinite(t0) and math.isfinite(t1) and t0 < t1):
        raise ValueError("integration interval must be finite and run forward")
    if t1 - t0 > MAX_RKF45_SPAN:
        raise StepSizeError("span %g from t=%g to t=%g exceeds the rkf45 limit %g"
                            % (t1 - t0, t0, t1, MAX_RKF45_SPAN))
    atol, rtol = RKF45_ATOL, RKF45_RTOL
    y = tuple(float(v) for v in y0)
    t = t0
    h = min(RKF45_H0, t1 - t0)
    ts = [t0]
    ys = [y]
    ks = [None] * 6
    for _ in range(MAX_STEPS):
        if t >= t1:
            return _orbit(ts, ys)
        h = min(h, t1 - t)
        if h < 1e-14 * max(1.0, abs(t)):
            raise StepSizeError("step size underflow at t=%.6f" % t)
        ks[0] = rhs(t, y)
        for i in range(1, 6):
            yi = y
            for j, b in enumerate(_B[i]):
                yi = _axpy(yi, h * b, ks[j])
            ks[i] = rhs(t + _C[i] * h, yi)
        y5 = y4 = y
        for i in range(6):
            y5 = _axpy(y5, h * _W5[i], ks[i])
            y4 = _axpy(y4, h * _W4[i], ks[i])
        norm5 = _norm(y5)
        scale = atol + rtol * max(_norm(y), norm5)
        err = _norm([a - b for a, b in zip(y5, y4)])
        if err <= scale or h <= 1e-12:
            t += h
            y = y5
            _check_bounded(norm5, t)
            ts.append(t)
            ys.append(y)
        if err == 0:
            h *= 5.0
        else:
            h *= min(5.0, max(0.2, 0.9 * (scale / err) ** 0.2))
    raise StepSizeError("step budget exhausted before reaching t1")


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
    returns the mapped columns, e.g. lambda p: (1.0 - p[0], p[1])."""
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
