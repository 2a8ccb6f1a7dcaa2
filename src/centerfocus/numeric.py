"""Floating-point oracle for the symbolic verdicts.

Orbit integration with an adaptive RK5(4) pair, Poincare return map
and period function on the positive x-axis section, equilibrium
hunting, and a center/focus hint from displacement signs. Everything
here is approximate by nature; exact claims live in the symbolic
modules and the two are compared, never reconciled silently.

The field is evaluated by one compiled kernel per call site
(``poly.float_code``), fed Python floats unpacked from the solver's
state: the values are bit for bit those of the plain term loop, so
orbits, return maps and periods do not depend on the kernel. A field
that leaves the float range (``x**e`` overflowing) or an angle equation
evaluated at the origin ends in ``StepFailure``.
"""

from __future__ import annotations

import contextlib
import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .errors import (
    AngleStalled,
    Inconsistent,
    PreconditionFailed,
    StepFailure,
    TimeBudgetExceeded,
)
from .lyapunov import PlanarField
from .poly import float_code

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-12
    abs_tol: float = 1e-14
    max_step: float = math.inf
    max_time: float = 1e4

    def __post_init__(self):
        for name, tol in (("rel_tol", self.rel_tol), ("abs_tol", self.abs_tol)):
            if not 0.0 < tol <= 1e-2:
                raise ValueError(f"{name} must lie in (0, 1e-2], got {tol}")


@contextlib.contextmanager
def _float_range():
    """Turn the kernel's float exceptions into a typed StepFailure."""
    try:
        yield
    except (OverflowError, ZeroDivisionError) as exc:
        raise StepFailure(
            f"field evaluation failed: {type(exc).__name__}: {exc}"
        ) from exc


@dataclass(frozen=True)
class Trajectory:
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray

    def rows(self):
        for k in range(len(self.t)):
            yield self.t[k], self.x[k], self.y[k]


@dataclass(frozen=True)
class ReturnMapSample:
    c: float
    p_of_c: float
    theta_total: float
    delta: float


@dataclass(frozen=True)
class PeriodSample:
    c: float
    period: float


@dataclass(frozen=True)
class CenterLike:
    tol: float


@dataclass(frozen=True)
class FocusLike:
    sign: int


def _rhs(field: PlanarField):
    pq = float_code((field.p, field.q))

    def rhs(_t, s):
        return pq(*s.tolist())

    return rhs


def integrate(
    field: PlanarField,
    x0: float,
    y0: float,
    t_end: float,
    cfg: IntegratorConfig = IntegratorConfig(),
) -> Trajectory:
    """Integrate to t_end, one output row per accepted step."""
    if t_end > cfg.max_time:
        raise TimeBudgetExceeded(f"t_end {t_end} exceeds budget {cfg.max_time}")
    with _float_range():
        sol = solve_ivp(
            _rhs(field),
            (0.0, t_end),
            (x0, y0),
            method="RK45",
            rtol=cfg.rel_tol,
            atol=cfg.abs_tol,
            max_step=cfg.max_step,
            dense_output=False,
        )
    if not sol.success:
        raise StepFailure(sol.message)
    return Trajectory(t=sol.t, x=sol.y[0], y=sol.y[1])


def write_csv(traj: Trajectory, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "x", "y"])
        for t, x, y in traj.rows():
            writer.writerow([repr(float(t)), repr(float(x)), repr(float(y))])


def _first_return(field: PlanarField, c: float, cfg: IntegratorConfig):
    """Integrate the angle-augmented system until theta = 2 pi, then
    polish the section crossing y = 0, x > 0 on the dense output.

    Returns (t_cross, x_cross, theta_at_cross, dense_solution).
    """
    if c <= 0:
        raise PreconditionFailed("section abscissa must be positive")
    pq = float_code((field.p, field.q))

    def rhs(_t, s):
        x, y, _ = s.tolist()
        px, qx = pq(x, y)
        return (px, qx, (x * qx - y * px) / (x * x + y * y))

    def turn_done(_t, s):
        return s[2] - TWO_PI

    turn_done.terminal = True
    turn_done.direction = 1.0

    def stalled(_t, s):
        x, y, _ = s.tolist()
        px, qx = pq(x, y)
        return x * qx - y * px

    stalled.terminal = True
    stalled.direction = -1.0

    with _float_range():
        sol = solve_ivp(
            rhs,
            (0.0, cfg.max_time),
            np.array((c, 0.0, 0.0)),  # solve_ivp hands y0 to the events as given
            method="RK45",
            rtol=cfg.rel_tol,
            atol=cfg.abs_tol,
            max_step=cfg.max_step,
            dense_output=True,
            events=(turn_done, stalled),
        )
    if not sol.success and sol.status == -1:
        raise StepFailure(sol.message)
    if len(sol.t_events[1]):
        t_bad = sol.t_events[1][0]
        raise AngleStalled(f"theta' vanished at t = {t_bad:.6g}")
    if not len(sol.t_events[0]):
        raise TimeBudgetExceeded(f"no return within t = {cfg.max_time}")
    t_star = sol.t_events[0][0]

    # Newton on y(t) = 0 from the event time; dense output is smooth here
    t_cur = t_star
    for _ in range(8):
        x_val, y_val, _ = sol.sol(t_cur).tolist()
        if abs(y_val) <= 1e-13:
            break
        with _float_range():
            ydot = pq(x_val, y_val)[1]
        if ydot == 0.0:
            break
        t_cur -= y_val / ydot
    xy = sol.sol(t_cur)
    if abs(xy[1]) > 1e-13:
        # fall back to a bracketed root; y < 0 just before the crossing
        for h in (0.01, 0.05, 0.2):
            lo, hi = t_star - h, t_star + h
            if sol.sol(lo)[1] < 0.0 < sol.sol(hi)[1]:
                t_cur = brentq(lambda t: sol.sol(t)[1], lo, hi, xtol=1e-15)
                xy = sol.sol(t_cur)
                break
        else:
            raise StepFailure("section crossing could not be refined")
    if xy[0] <= 0:
        raise AngleStalled("section crossing landed at nonpositive x")
    return t_cur, float(xy[0]), float(xy[2]), sol


def return_map(
    field: PlanarField, c: float, cfg: IntegratorConfig = IntegratorConfig()
) -> ReturnMapSample:
    _, x_cross, theta, _ = _first_return(field, c, cfg)
    return ReturnMapSample(c=c, p_of_c=x_cross, theta_total=theta, delta=x_cross - c)


def period(
    field: PlanarField, c: float, cfg: IntegratorConfig = IntegratorConfig()
) -> PeriodSample:
    t_cross, _, _, _ = _first_return(field, c, cfg)
    return PeriodSample(c=c, period=float(t_cross))


def find_equilibria(
    field: PlanarField,
    box: tuple[float, float, float, float] = (-2.0, 2.0, -2.0, 2.0),
    grid_n: int = 41,
) -> list[tuple[float, float]]:
    """Newton from a seed grid; keep residuals below 1e-10, dedupe at 1e-6."""
    p, q = field.p, field.q
    # values and Jacobian (p, q, p_x, p_y, q_x, q_y) in one call
    kernel = float_code((p, q, p.diff_x(), p.diff_y(), q.diff_x(), q.diff_y()))
    xmin, xmax, ymin, ymax = box
    found: list[tuple[float, float]] = []
    for xs in np.linspace(xmin, xmax, grid_n):
        for ys in np.linspace(ymin, ymax, grid_n):
            x, y = float(xs), float(ys)
            ok = False
            for _ in range(60):
                try:
                    fx, fy, a, b, cc, d = kernel(x, y)
                except OverflowError:  # the seed diverged
                    break
                if abs(fx) < 1e-13 and abs(fy) < 1e-13:
                    ok = True
                    break
                det = a * d - b * cc
                if det == 0.0 or not math.isfinite(det):
                    break
                dx = (fx * d - fy * b) / det
                dy = (a * fy - cc * fx) / det
                x -= dx
                y -= dy
                if not (math.isfinite(x) and math.isfinite(y)):
                    break
                if abs(x) > 10 * (abs(xmin) + abs(xmax) + 1):
                    break
            if not ok:
                continue
            if not (xmin - 1e-9 <= x <= xmax + 1e-9 and ymin - 1e-9 <= y <= ymax + 1e-9):
                continue
            fx, fy = kernel(x, y)[:2]
            if abs(fx) >= 1e-10 or abs(fy) >= 1e-10:
                continue
            if all(abs(x - fx) > 1e-6 or abs(y - fy) > 1e-6 for fx, fy in found):
                found.append((x, y))
    found.sort()
    return found


def numeric_classify(
    field: PlanarField,
    c_grid: Sequence[float],
    cfg: IntegratorConfig = IntegratorConfig(),
    tol: float | None = None,
) -> CenterLike | FocusLike:
    """Displacement-sign hint over a grid of section abscissas."""
    if not c_grid:
        raise PreconditionFailed("empty sample grid")
    if tol is None:
        tol = 1e-9 * max(c_grid)
    deltas = [return_map(field, c, cfg).delta for c in c_grid]
    if max(abs(d) for d in deltas) < tol:
        return CenterLike(tol=tol)
    signs = {1 if d > 0 else -1 for d in deltas if abs(d) >= tol}
    if len(signs) > 1:
        raise Inconsistent(f"displacement signs disagree: {deltas}")
    return FocusLike(sign=signs.pop())
