"""Floating-point oracle for the symbolic verdicts.

Orbit integration with an adaptive RK5(4) pair, Poincare return map
and period function on the positive x-axis section, equilibrium
hunting, and a center/focus hint from displacement signs. Everything
here is approximate by nature; exact claims live in the symbolic
modules and the two are compared, never reconciled silently.

``numeric_classify`` has two routes to the displacements of a grid.
The batched one integrates the whole grid at once in the angle theta,
from 0 to 2 pi, with DOP853. Its deltas agree with the per-sample route
to about 1e-13, so they decide the verdict only when no displacement
lies within a guard band of the tolerance and their signs agree. In
every other case, the batch failing (a stalling angle ends it in a
step-size failure) or overrunning the time budget included, the grid
is measured again by the per-sample route, one time-parametrized
``return_map`` per point, whose verdict, error and message are then
the reported ones. ``return_map``, ``period`` and ``integrate`` stay
time-parametrized (RK45), so their printed floats do not move. A
section abscissa that is not a positive finite float ends in
``PreconditionFailed``, and so does an ``integrate`` call from a
non-finite point or to a NaN end time, before SciPy is loaded.

The field is evaluated by one compiled kernel per call site
(``poly.float_code``), fed Python floats unpacked from the solver's
state: the values are bit for bit those of the plain term loop, so
orbits, return maps and periods do not depend on the kernel. A field
that leaves the float range (``x**e`` overflowing) or an angle equation
evaluated at the origin ends in ``StepFailure``.

SciPy is imported on the first integration, not with this module, so
the symbolic engine and its commands run without loading it.
``solve_ivp`` and ``brentq`` are module-level functions that import
SciPy's own and forward to it: the integrators here look them up as
module globals at call time, so a wrapper set on this module (as
perfbench's tracer does) sees every call.
"""

from __future__ import annotations

import contextlib
import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

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
# a batched delta within GUARD_REL * tol + GUARD_ABS of tol is measured
# again on the per-sample route: the two routes agree to about 1e-13,
# not bit for bit, so near tol they could fall on different sides
GUARD_REL = 0.5
GUARD_ABS = 1e-11
# |y| at which a refined first-return crossing counts as on the section
SECTION_ABS = 1e-13


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-12
    abs_tol: float = 1e-14
    max_time: float = 1e4

    def __post_init__(self):
        for name, tol in (("rel_tol", self.rel_tol), ("abs_tol", self.abs_tol)):
            if not 0.0 < tol <= 1e-2:
                raise ValueError(f"{name} must lie in (0, 1e-2], got {tol}")
        # a NaN budget compares False against every t_end and every event
        # time, so SciPy's step loop would never stop
        if not 0.0 < self.max_time < math.inf:
            raise ValueError(f"max_time must be positive and finite, got {self.max_time}")


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported on the first call."""
    from scipy.integrate import solve_ivp

    return solve_ivp(*args, **kwargs)


def brentq(*args, **kwargs):
    """``scipy.optimize.brentq``, imported on the first call."""
    from scipy.optimize import brentq

    return brentq(*args, **kwargs)


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
    if not (math.isfinite(x0) and math.isfinite(y0)):
        raise PreconditionFailed(f"initial point ({x0}, {y0}) must be finite")
    # a NaN t_end passes the budget check below and never ends SciPy's step loop
    if math.isnan(t_end):
        raise PreconditionFailed("t_end must be a number, got nan")
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
    if not math.isfinite(c):
        raise PreconditionFailed("section abscissa must be finite")
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
        if abs(y_val) <= SECTION_ABS:
            break
        with _float_range():
            ydot = pq(x_val, y_val)[1]
        if ydot == 0.0:
            break
        t_cur -= y_val / ydot
    xy = sol.sol(t_cur)
    if abs(xy[1]) > SECTION_ABS:
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


def _grid_deltas(
    field: PlanarField, c_grid: Sequence[float], cfg: IntegratorConfig
) -> list[float] | None:
    """delta(c) = P(c) - c for the whole grid from one integration in theta.

    The state is (r_1..r_N, t_1..t_N), carried from theta = 0 to 2 pi with
    dr/dtheta = r (x p + y q) / (x q - y p) and dt/dtheta = r^2 / (x q - y p)
    at x = r cos theta, y = r sin theta, so r_i(2 pi) is the first return
    of c_i to the positive x-axis and t_i(2 pi) its return time (Hairer,
    Norsett & Wanner, Solving ODEs I: change of the independent
    variable). It shares ``_first_return``'s (p, q) kernel and tolerances.
    Returns None when the batch cannot vouch for every sample: some c is
    not a positive finite float, the integration failed (where the angle
    stalls, x q - y p -> 0 drives dr/dtheta without bound and the step
    size collapses), the field left the float range, or some r(2 pi) is
    not a positive float or some return time lies outside
    (0, cfg.max_time].
    """
    if not all(0.0 < c < math.inf for c in c_grid):
        return None
    n = len(c_grid)
    pq = float_code((field.p, field.q))
    cos, sin = math.cos, math.sin

    def rhs(theta, s):
        ct, st = cos(theta), sin(theta)
        vals = s.tolist()
        out = [0.0] * (2 * n)
        for i in range(n):
            r = vals[i]
            x, y = r * ct, r * st
            px, qx = pq(x, y)
            den = x * qx - y * px
            out[i] = r * (x * px + y * qx) / den
            out[n + i] = r * r / den
        return out

    try:
        sol = solve_ivp(
            rhs,
            (0.0, TWO_PI),
            np.array([float(c) for c in c_grid] + [0.0] * n),
            method="DOP853",
            rtol=cfg.rel_tol,
            atol=cfg.abs_tol,
        )
    except (OverflowError, ZeroDivisionError):
        return None
    if sol.status != 0:  # -1: step failure, e.g. where x q - y p reaches 0
        return None
    end = sol.y[:, -1].tolist()
    r_end, t_end = end[:n], end[n:]
    if not all(map(math.isfinite, end)) or min(r_end) <= 0.0:
        return None
    if not all(0.0 < t <= cfg.max_time for t in t_end):
        return None
    return [r - c for r, c in zip(r_end, c_grid)]


def _batch_decides(deltas: list[float], tol: float) -> bool:
    """Whether the batched deltas give the verdict the per-sample route
    would: no |delta| near tol, and one sign among those above it."""
    band = GUARD_REL * tol + GUARD_ABS
    if any(abs(abs(d) - tol) <= band for d in deltas):
        return False
    return len({d > 0 for d in deltas if abs(d) >= tol}) <= 1


def numeric_classify(
    field: PlanarField,
    c_grid: Sequence[float],
    cfg: IntegratorConfig = IntegratorConfig(),
    tol: float | None = None,
) -> CenterLike | FocusLike:
    """Displacement-sign hint over a grid of section abscissas.

    CenterLike when every |delta(c)| is below tol (default 1e-9 max c),
    else FocusLike with the common sign of the |delta| >= tol;
    ``Inconsistent`` when those signs disagree. The deltas come from one
    batched integration in theta (``_grid_deltas``). They are used only
    when the batch succeeded and decides the verdict by a margin: no
    |delta| within GUARD_REL * tol + GUARD_ABS of tol, and one sign among
    the |delta| >= tol. In every other case, including every error, the
    grid is measured again with one ``return_map`` per point, whose
    deltas, errors and messages are the reported ones.
    """
    if not c_grid:
        raise PreconditionFailed("empty sample grid")
    if tol is None:
        tol = 1e-9 * max(c_grid)
    deltas = _grid_deltas(field, c_grid, cfg)
    if deltas is None or not _batch_decides(deltas, tol):
        deltas = [return_map(field, c, cfg).delta for c in c_grid]
    if max(abs(d) for d in deltas) < tol:
        return CenterLike(tol=tol)
    signs = {1 if d > 0 else -1 for d in deltas if abs(d) >= tol}
    if len(signs) > 1:
        raise Inconsistent(f"displacement signs disagree: {deltas}")
    return FocusLike(sign=signs.pop())
