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
non-finite point or to a NaN end time, before SciPy is loaded; an end
time beyond the budget in either direction ends in ``TimeBudgetExceeded``.
So does a first return that takes more than ``EVAL_BUDGET`` field
evaluations (an escaping orbit whose steps collapse long before
``max_time``); the batch declines on the same budget.

Both integrators run on one explicit Runge-Kutta step loop owned here
(``_runge_kutta``), not SciPy's: given RK45's or DOP853's tableau, read
from SciPy's class, it takes SciPy's steps bit for bit, initial step,
step control, error norm, dense output and event location included,
with every stage, solution and error sum still a BLAS dot product on
one stage array and everything elementwise on Python floats. Those sums
run in the host's BLAS, which may fuse multiply-adds, so the printed
floats still depend on it, as they did under SciPy's loop.

The field is evaluated by one compiled kernel per call site
(``poly.float_code``), fed Python floats unpacked from the solver's
state: the values are bit for bit those of the plain term loop, so
orbits, return maps and periods do not depend on the kernel. A field
that leaves the float range (``x**e`` overflowing) or an angle equation
evaluated at the origin ends in ``StepFailure``.

SciPy is imported on the first integration, not with this module, so
the symbolic engine and its commands run without loading it; the
tableaux are read from ``scipy.integrate`` then. ``solve_ivp`` and
``brentq`` are module-level functions: ``solve_ivp`` runs RK45 and
DOP853 on the owned loop and refuses other methods, ``brentq`` forwards
to SciPy's. The integrators here look them up as module globals at
call time, so a wrapper set on this module (as perfbench's tracer does)
sees every call; event location inside the loop calls SciPy's brentq
directly, as SciPy's own loop does.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import math
import sys
import warnings
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
# field evaluations one first return, or one batched grid, may take. An
# orbit that escapes (x' = -y, y' = x + x^2 + 2 y^2 - y^3 from c = 0.6)
# shrinks its steps until t crawls and never reaches max_time; this
# bound ends it.
EVAL_BUDGET = 500_000


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
        # time, so the step loop would never stop
        if not 0.0 < self.max_time < math.inf:
            raise ValueError(f"max_time must be positive and finite, got {self.max_time}")


@dataclass(frozen=True)
class IvpResult:
    """The fields of a ``scipy.integrate.solve_ivp`` result that the
    integrators here (and perfbench's tracer) read."""

    t: np.ndarray
    y: np.ndarray
    sol: object  # scipy.integrate.OdeSolution, or None without dense output
    t_events: list | None
    nfev: int
    status: int
    message: str

    @property
    def success(self) -> bool:
        return self.status >= 0


def solve_ivp(fun, t_span, y0, method="RK45", **options):
    """``scipy.integrate.solve_ivp`` for RK45 and DOP853, on the step loop
    owned here (``_runge_kutta``).

    ``fun`` and the events get the state as a list of Python floats and
    the result is an ``IvpResult``. Any other method is a ValueError;
    SciPy's own step loop is never called.
    """
    if method not in ("RK45", "DOP853"):
        raise ValueError(f"method must be 'RK45' or 'DOP853', got {method!r}")
    t0, t_bound = map(float, t_span)
    return _runge_kutta(_tableau(method), fun, t0, t_bound, y0, **options)


# scipy.integrate's RungeKutta step-size control (scipy/integrate/_ivp/rk.py)
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10
EVENT_TOL = 4 * sys.float_info.epsilon  # solve_ivp's event brentq xtol and rtol
_MESSAGES = {
    -1: "Required step size is less than spacing between numbers.",
    0: "The solver successfully reached the end of the integration interval.",
    1: "A termination event occurred.",
}


def _rms(v: list[float]) -> float:
    """SciPy's RMS norm, on an ndarray so that the dot product is BLAS's."""
    a = np.array(v)
    return math.sqrt(a.dot(a)) / len(v) ** 0.5


def _squared_norm(v: list[float]) -> float:
    """``np.linalg.norm(v) ** 2`` as DOP853 takes it: the root of a BLAS
    dot, raised to the power 2 by libm's pow, which rounds differently
    from r * r in about one case in a thousand. The root of a finite dot
    is at most sqrt(DBL_MAX), whose square is finite, so the power never
    raises OverflowError where NumPy's would give inf."""
    a = np.array(v)
    return math.sqrt(a.dot(a)) ** 2


def _rk45_error_norm(k_all, rows, h, scale) -> float:
    """RungeKutta._estimate_error_norm: the RMS of h K^T E / scale."""
    (e,) = rows
    return _rms([v * h / s for v, s in zip(k_all.dot(e).tolist(), scale)])


def _dop853_error_norm(k_all, rows, h, scale) -> float:
    """DOP853._estimate_error_norm: the fifth-order estimate E5, damped by
    the third-order one E3 (Hairer, Norsett & Wanner's DOP853)."""
    e5, e3 = rows
    err5 = _squared_norm([v / s for v, s in zip(k_all.dot(e5).tolist(), scale)])
    err3 = _squared_norm([v / s for v, s in zip(k_all.dot(e3).tolist(), scale)])
    if err5 == 0 and err3 == 0:
        return 0.0
    denom = err5 + 0.01 * err3
    # denom is 0 only when err5 is and 0.01 * err3 underflows: NumPy's
    # 0 / 0 is then nan, which rejects the step
    if not denom:
        return math.nan
    return abs(h) * err5 / math.sqrt(denom * len(scale))


@dataclass(frozen=True)
class _Tableau:
    """An explicit Runge-Kutta pair as SciPy's class defines it."""

    A: np.ndarray
    B: np.ndarray
    C: list[float]
    error_rows: tuple  # (E,) for RK45, (E5, E3) for DOP853
    error_norm: object  # (K^T, error_rows, h, scale) -> float
    error_exponent: float  # -1 / (error estimator order + 1)
    P: np.ndarray | None  # the dense-output matrix; RK45's only


@functools.cache
def _tableau(method: str) -> _Tableau:
    """The pair for ``method``, read from SciPy's class on first use."""
    from scipy.integrate import DOP853, RK45

    if method == "RK45":
        return _Tableau(
            RK45.A, RK45.B, RK45.C.tolist(), (RK45.E,), _rk45_error_norm,
            -1 / (RK45.error_estimator_order + 1), RK45.P,
        )
    return _Tableau(
        DOP853.A, DOP853.B, DOP853.C.tolist(), (DOP853.E5, DOP853.E3),
        _dop853_error_norm, -1 / (DOP853.error_estimator_order + 1), None,
    )


@functools.cache
def _scipy_event_tools():
    """SciPy's brentq and OdeSolution, loaded with the first integration."""
    from scipy.integrate import OdeSolution
    from scipy.optimize import brentq

    return brentq, OdeSolution


class _Interpolant:
    """RK45's quartic interpolant over one step, as SciPy's RkDenseOutput:
    y(t) = y_old + h Q (x, x^2, x^3, x^4), x = (t - t_old) / h."""

    __slots__ = ("t_old", "h", "y_old", "Q")

    def __init__(self, t_old, t, y_old, Q):
        self.t_old = t_old
        self.h = t - t_old
        self.y_old = y_old
        self.Q = Q

    def at(self, t: float) -> list[float]:
        h = self.h
        x = (t - self.t_old) / h
        x2 = x * x
        x3 = x2 * x
        qp = self.Q.dot(np.array((x, x2, x3, x3 * x))).tolist()
        return [yo + h * v for yo, v in zip(self.y_old, qp)]

    def __call__(self, t):
        # OdeSolution calls this with a scalar t, the only kind asked here
        return np.array(self.at(float(t)))


def _runge_kutta(
    tab: _Tableau, fun, t0, t_bound, y0, dense_output=False, events=None, rtol=1e-3, atol=1e-6
) -> IvpResult:
    """``solve_ivp`` with SciPy's RungeKutta step loop owned here.

    It takes the same steps to the same bits as SciPy's solver of the
    tableau ``tab`` (RK45 or DOP853) driven by solve_ivp: the initial
    step of ``select_initial_step``, the step control of
    ``RungeKutta._step_impl``, the stage, solution and error sums as
    ``ndarray.dot`` on one reused stage array K (the same BLAS calls as
    SciPy's ``np.dot``, so the same fused or unfused rounding), the
    tableau's error norm with each vector norm taken on an ndarray, and
    each terminal event located by brentq on the step's interpolant.
    Every elementwise operation is done on Python floats, which round as
    NumPy's unfused elementwise loops do; where NumPy gives inf or nan
    instead of raising, the code here does too. ``nfev`` counts as
    SciPy's does: 2 + one per stage for each attempted step. Every event
    is taken as terminal, the only kind the callers pass; dense output
    and events are RK45's only, the only method the callers ask them of.

    An empty span takes no step, as in SciPy: f is evaluated once, as
    the solver's constructor does, and the result is y0 at t0 and
    t_bound (``nfev`` 1, no dense output and no event sought; no caller
    asks for either over an empty span).
    """
    if (dense_output or events) and tab.P is None:
        raise ValueError("dense output and events need the RK45 tableau")
    A, B, C, P = tab.A, tab.B, tab.C, tab.P
    error_norm, error_rows, error_exponent = tab.error_norm, tab.error_rows, tab.error_exponent
    events = () if events is None else tuple(events)
    y = [float(v) for v in y0]
    if rtol < 100 * sys.float_info.epsilon:
        warnings.warn(
            "At least one element of `rtol` is too small. "
            f"Setting `rtol = np.maximum(rtol, {100 * sys.float_info.epsilon})`.",
            stacklevel=3,
        )
        rtol = 100 * sys.float_info.epsilon
    if t0 == t_bound:
        fun(t0, y)
        return IvpResult(
            t=np.array([t0, t_bound]),
            y=np.array([y, y]).T,
            sol=None,
            t_events=[np.empty(0) for _ in events] if events else None,
            nfev=1,
            status=0,
            message=_MESSAGES[0],
        )
    n = len(y)
    n_stages = len(C)
    direction = 1.0 if t_bound > t0 else -1.0
    K = np.empty((n_stages + 1, n))
    stages = [(s, K[:s].T.dot, A[s, :s], C[s]) for s in range(1, n_stages)]
    k_sol, k_all = K[:-1].T, K.T

    # select_initial_step
    f = [float(v) for v in fun(t0, y)]
    interval = abs(t_bound - t0)
    scale = [atol + abs(v) * rtol for v in y]
    d0 = _rms([v / s for v, s in zip(y, scale)])
    d1 = _rms([v / s for v, s in zip(f, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    hd = h0 * direction
    f1 = fun(t0 + hd, [v + hd * fv for v, fv in zip(y, f)])
    # h0 is 0 only when d1 overflowed to inf: NumPy's division then gives
    # inf or nan, not an exception, and h1 below is 0 either way
    d2 = _rms([(a - b) / s for a, b, s in zip(f1, f, scale)]) / h0 if h0 else math.inf
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -error_exponent
    h_abs = min(100 * h0, h1, interval)
    nfev = 2

    t = t0
    ts, ys = [t], [y]
    interpolants = []
    t_events = [[] for _ in events]
    ev_dir = [getattr(ev, "direction", 0) for ev in events]
    g = [ev(t, y) for ev in events]
    brentq, OdeSolution = _scipy_event_tools()
    K[-1] = f
    status = None
    while status is None:
        K[0] = K[-1]
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                status = -1
                break
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            for s, k_dot, a_s, c_s in stages:
                dy = k_dot(a_s).tolist()
                K[s] = fun(t + c_s * h, [v + d * h for v, d in zip(y, dy)])
            y_new = [v + h * d for v, d in zip(y, k_sol.dot(B).tolist())]
            K[-1] = fun(t + h, y_new)
            nfev += n_stages
            # the error scale atol + max(|y|, |y_new|) rtol: y is finite
            # and a NaN in y_new wins, as in np.maximum
            scale = [
                atol + (a if a >= b else b) * rtol
                for a, b in zip(map(abs, y), map(abs, y_new))
            ]
            err = error_norm(k_all, error_rows, h, scale)
            if err < 1:
                if err == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * err**error_exponent)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * err**error_exponent)
            rejected = True
        if status == -1:
            break
        t_old, y_old, t, y = t, y, t_new, y_new
        if direction * (t - t_bound) >= 0:
            status = 0

        interp = None
        if dense_output:
            interp = _Interpolant(t_old, t, y_old, K.T.dot(P))
            interpolants.append(interp)
        if events:
            g_new = [ev(t, y) for ev in events]
            active = [
                i for i, (a, b, d) in enumerate(zip(g, g_new, ev_dir))
                if (d > 0 and a <= 0 <= b)
                or (d < 0 and a >= 0 >= b)
                or (d == 0 and (a <= 0 <= b or a >= 0 >= b))
            ]
            if active:
                if interp is None:
                    interp = _Interpolant(t_old, t, y_old, K.T.dot(P))
                roots = [
                    brentq(
                        lambda tt, ev=events[i]: ev(tt, interp.at(tt)),
                        t_old, t, xtol=EVENT_TOL, rtol=EVENT_TOL,
                    )
                    for i in active
                ]
                # every event is terminal: the first root in time ends the run
                first = min(range(len(roots)), key=lambda k: direction * roots[k])
                t_events[active[first]].append(roots[first])
                status = 1
                t = roots[first]
                y = interp.at(t)
            g = g_new
        if dense_output and len(ts) > 1 and ts[-1] == t:
            interpolants.pop()
        else:
            ts.append(t)
            ys.append(y)

    t_arr = np.array(ts)
    return IvpResult(
        t=t_arr,
        y=np.array(ys).T,
        sol=OdeSolution(t_arr, interpolants) if dense_output else None,
        t_events=[np.array(te, dtype=float) for te in t_events] if events else None,
        nfev=nfev,
        status=status,
        message=_MESSAGES[status],
    )


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
        return pq(*s)

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
    # a NaN t_end passes the budget check below and never ends the step loop
    if math.isnan(t_end):
        raise PreconditionFailed("t_end must be a number, got nan")
    # either sign: a backward run to -1e6 or -inf would run as long
    if abs(t_end) > cfg.max_time:
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
    evals = 0

    def rhs(_t, s):
        nonlocal evals
        evals += 1
        if evals > EVAL_BUDGET:
            raise TimeBudgetExceeded(f"no return within {EVAL_BUDGET} field evaluations")
        x, y, _ = s
        px, qx = pq(x, y)
        return (px, qx, (x * qx - y * px) / (x * x + y * y))

    def turn_done(_t, s):
        return s[2] - TWO_PI

    turn_done.terminal = True
    turn_done.direction = 1.0

    def stalled(_t, s):
        x, y, _ = s
        px, qx = pq(x, y)
        return x * qx - y * px

    stalled.terminal = True
    stalled.direction = -1.0

    with _float_range():
        sol = solve_ivp(
            rhs,
            (0.0, cfg.max_time),
            (c, 0.0, 0.0),
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
    variable). It shares ``_first_return``'s (p, q) kernel, tolerances and
    evaluation budget, and runs DOP853 on the owned step loop, which
    hands the right-hand side the state as a list of floats.
    Returns None when the batch cannot vouch for every sample: some c is
    not a positive finite float, the integration failed (where the angle
    stalls, x q - y p -> 0 drives dr/dtheta without bound and the step
    size collapses), it took more than ``EVAL_BUDGET`` evaluations, the
    field left the float range, or some r(2 pi) is not a positive float
    or some return time lies outside (0, cfg.max_time].
    """
    if not all(0.0 < c < math.inf for c in c_grid):
        return None
    n = len(c_grid)
    pq = float_code((field.p, field.q))
    cos, sin = math.cos, math.sin
    evals = 0

    def rhs(theta, s):
        nonlocal evals
        evals += 1
        if evals > EVAL_BUDGET:
            raise TimeBudgetExceeded
        ct, st = cos(theta), sin(theta)
        out = [0.0] * (2 * n)
        for i in range(n):
            r = s[i]
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
            [float(c) for c in c_grid] + [0.0] * n,
            method="DOP853",
            rtol=cfg.rel_tol,
            atol=cfg.abs_tol,
        )
    except (OverflowError, ZeroDivisionError, TimeBudgetExceeded):
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
