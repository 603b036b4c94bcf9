"""Floating point support: integrators, saddle shooting, Jacobi functions.

Everything here is a cross-check for the exact layer, so the methods are
deliberately plain: classical RK4 with a fixed step, an adaptive
Fehlberg 4(5) pair, and AGM-based Jacobi elliptic functions.  Accuracy
targets are around 1e-10, far tighter than any tolerance the
verification layer asks for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

Rhs = Callable[[float, np.ndarray], np.ndarray]

DIVERGENCE_NORM = 1e12


class DivergenceError(RuntimeError):
    """The trajectory left the region where the model is meaningful."""


class StepSizeError(RuntimeError):
    """The adaptive integrator could not meet the tolerance."""


@dataclass
class Orbit:
    ts: np.ndarray
    ys: np.ndarray  # shape (len(ts), dim)

    def __len__(self):
        return len(self.ts)

    @property
    def end(self) -> np.ndarray:
        return self.ys[-1]


def integrate_rk4(rhs: Rhs, t0: float, y0: Sequence[float], t1: float,
                  h: float = 1e-3) -> Orbit:
    """Classical fixed-step fourth order Runge-Kutta."""
    if t1 <= t0:
        raise ValueError("integration interval must run forward")
    y = np.asarray(y0, dtype=float)
    n = max(1, int(math.ceil((t1 - t0) / h)))
    hh = (t1 - t0) / n
    ts = [t0]
    ys = [y.copy()]
    t = t0
    for _ in range(n):
        k1 = rhs(t, y)
        k2 = rhs(t + hh / 2, y + hh * k1 / 2)
        k3 = rhs(t + hh / 2, y + hh * k2 / 2)
        k4 = rhs(t + hh, y + hh * k3)
        y = y + (hh / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += hh
        if not np.all(np.isfinite(y)) or np.linalg.norm(y) > DIVERGENCE_NORM:
            raise DivergenceError("solution norm exceeded %.1e at t=%.3f"
                                  % (DIVERGENCE_NORM, t))
        ts.append(t)
        ys.append(y.copy())
    return Orbit(np.array(ts), np.array(ys))


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


def integrate_rkf45(rhs: Rhs, t0: float, y0: Sequence[float], t1: float,
                    atol: float = 1e-10, rtol: float = 1e-10,
                    h0: float = 1e-2, max_steps: int = 2_000_000) -> Orbit:
    """Adaptive Fehlberg 4(5); keeps the fifth order value on acceptance."""
    if t1 <= t0:
        raise ValueError("integration interval must run forward")
    y = np.asarray(y0, dtype=float)
    t = t0
    h = min(h0, t1 - t0)
    ts = [t0]
    ys = [y.copy()]
    ks = [None] * 6
    for _ in range(max_steps):
        if t >= t1:
            return Orbit(np.array(ts), np.array(ys))
        h = min(h, t1 - t)
        if h < 1e-14 * max(1.0, abs(t)):
            raise StepSizeError("step size underflow at t=%.6f" % t)
        ks[0] = rhs(t, y)
        for i in range(1, 6):
            yi = y.copy()
            for j, b in enumerate(_B[i]):
                yi = yi + h * b * ks[j]
            ks[i] = rhs(t + _C[i] * h, yi)
        y5 = y.copy()
        y4 = y.copy()
        for i in range(6):
            y5 = y5 + h * _W5[i] * ks[i]
            y4 = y4 + h * _W4[i] * ks[i]
        scale = atol + rtol * max(np.linalg.norm(y), np.linalg.norm(y5))
        err = np.linalg.norm(y5 - y4)
        if err <= scale or h <= 1e-12:
            t += h
            y = y5
            if not np.all(np.isfinite(y)) or np.linalg.norm(y) > DIVERGENCE_NORM:
                raise DivergenceError("solution norm exceeded %.1e at t=%.3f"
                                      % (DIVERGENCE_NORM, t))
            ts.append(t)
            ys.append(y.copy())
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
    direction: np.ndarray
    min_distance: float
    min_point: np.ndarray
    min_time: float
    end_distance: float


def shoot_unstable_manifold(ps, saddle, target, eps: float = 1e-6,
                            horizon: float = 60.0, method: str = "rkf45",
                            stop_tol: float = 0.0, **kw) -> ShootResult:
    """Follow the unstable manifold of a planar saddle toward a target.

    The start point sits eps along the unstable eigenvector, on the side
    pointing at the target.  Integration stops at the horizon, on
    divergence, or once the target is approached within stop_tol.
    """
    from .reduction import jacobian_eigen

    ed = jacobian_eigen(ps, saddle)
    if not ed.is_saddle:
        raise ValueError("the base point is not a saddle")
    lams = [complex(l).real if isinstance(l, complex) else float(l)
            for l in ed.eigenvalues]
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
    return ShootResult(orbit, start, lam, v, float(d[i]), orbit.ys[i],
                       float(orbit.ts[i]), float(d[-1]))


def curve_residual_along_orbit(f, orbit: Orbit, x_var: int = 0, y_var: int = 1,
                               transform: Optional[Callable] = None) -> float:
    """Largest |f| along the orbit, optionally after a coordinate map.

    f is evaluated on the whole orbit at once.  transform receives the
    coordinate columns (xs, ys) as numpy arrays and returns the mapped
    columns, e.g. lambda p: (1.0 - p[0], p[1])."""
    cols = (orbit.ys[:, 0], orbit.ys[:, 1])
    if transform is not None:
        cols = transform(cols)
    values = f.compile_float((x_var, y_var))(*cols)
    return float(np.max(np.abs(values), initial=0.0))


def jacobi_elliptic(x: float, m: float, _tol: float = 1e-15):
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
    while abs(agm_c[-1]) > _tol and len(agm_a) < 64:
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
