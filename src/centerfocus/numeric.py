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
non-finite point or to a NaN end time, before any step is taken; an end
time beyond ``MAX_TIME`` in either direction ends in
``TimeBudgetExceeded``. So does a first return that takes more than
``EVAL_BUDGET`` field evaluations (an escaping orbit whose steps
collapse long before ``MAX_TIME``), and an orbit that takes more than
``EVAL_BUDGET`` per 100 time units (and at least ``EVAL_BUDGET``); the
batch declines on the same budget, which the step loop enforces.

Both integrators run on one explicit Runge-Kutta step loop owned here
(``_runge_kutta``), not SciPy's: given RK45's or DOP853's tableau, it
takes SciPy's steps bit for bit, initial step, step control, error
norm, dense output and event location included, with every stage,
solution and error sum still a BLAS dot product on one stage array and
everything elementwise on Python floats. Those sums run in the host's
BLAS, which may fuse multiply-adds, so the printed floats still depend
on it, as they did under SciPy's loop.

The field is evaluated by one compiled kernel per call site
(``poly.float_code``), fed Python floats unpacked from the solver's
state: the values are bit for bit those of the plain term loop, so
orbits, return maps and periods do not depend on the kernel. A field
that leaves the float range (``x**e`` overflowing) or an angle equation
evaluated at the origin ends in ``StepFailure``.

Nothing here imports SciPy. The pieces of it the loop needs are copies:
the two tableaux are module constants with SciPy's exact floats, events
are located by ``_brentq``, a port of SciPy's C brentq, and the dense
solution is ``_DenseSolution``, SciPy's ``OdeSolution`` lookup over
forward steps. The tests check each against the installed SciPy.
``solve_ivp`` and ``brentq`` are module-level functions: ``solve_ivp``
runs RK45 and DOP853 on the owned loop and refuses other methods, and
``brentq`` is ``_brentq`` behind SciPy's signature, defaults and
argument checks. The integrators here look them up as module globals at
call time, so a wrapper set on this module (as perfbench's tracer does)
sees every call; event location inside the loop calls ``_brentq``
directly, as SciPy's own loop calls its brentq, so only the section
fallback of ``_first_return`` goes through ``brentq``.
"""

from __future__ import annotations

import contextlib
import csv
import math
import sys
from bisect import bisect_left
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
# the relative and absolute tolerances of every integration
REL_TOL = 1e-12
ABS_TOL = 1e-14
# the longest time span of an orbit or a first return
MAX_TIME = 1e4
# field evaluations one first return, or one batched grid, may take, and
# an orbit per 100 time units (at least this many). An orbit that escapes
# (x' = -y, y' = x + x^2 + 2 y^2 - y^3 from c = 0.6) shrinks its steps
# until t crawls and never reaches MAX_TIME; this bound ends it.
EVAL_BUDGET = 500_000


@dataclass(frozen=True)
class IvpResult:
    """The fields of a ``scipy.integrate.solve_ivp`` result that the
    integrators here (and perfbench's tracer) read."""

    t: np.ndarray
    y: np.ndarray
    sol: object  # a _DenseSolution, or None without dense output
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
    SciPy's own step loop is never called. One option is not SciPy's:
    ``max_nfev`` ends the run with status -2 once an attempted step takes
    ``nfev`` past it.
    """
    if method not in ("RK45", "DOP853"):
        raise ValueError(f"method must be 'RK45' or 'DOP853', got {method!r}")
    t0, t_bound = map(float, t_span)
    return _runge_kutta(_TABLEAUX[method], fun, t0, t_bound, y0, **options)


# scipy.integrate's RungeKutta step-size control (scipy/integrate/_ivp/rk.py)
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10
EVENT_TOL = 4 * sys.float_info.epsilon  # solve_ivp's event brentq xtol and rtol
BRENTQ_MAXITER = 100  # scipy.optimize.brentq's default, which solve_ivp keeps
_MESSAGES = {
    -1: "Required step size is less than spacing between numbers.",
    0: "The solver successfully reached the end of the integration interval.",
    1: "A termination event occurred.",
    -2: "The field evaluation budget ran out.",
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


def _padded(rows: list[list[float]], width: int) -> np.ndarray:
    """A matrix from its rows, each without its trailing zeros."""
    return np.array([row + [0.0] * (width - len(row)) for row in rows])


# The tableaux of scipy.integrate.RK45 and DOP853: every float is the repr
# of SciPy's (1.17.1), so the steps are SciPy's to the bit.
_TABLEAUX = {
    "RK45": _Tableau(
        A=_padded([
            [],
            [0.2],
            [0.075, 0.225],
            [0.9777777777777777, -3.7333333333333334, 3.5555555555555554],
            [2.9525986892242035, -11.595793324188385, 9.822892851699436, -0.2908093278463649],
            [2.8462752525252526, -10.757575757575758, 8.906422717743473, 0.2784090909090909,
             -0.2735313036020583],
        ], 5),
        B=np.array([
            0.09114583333333333, 0.0, 0.44923629829290207, 0.6510416666666666,
            -0.322376179245283, 0.13095238095238096,
        ]),
        C=[0.0, 0.2, 0.3, 0.8, 0.8888888888888888, 1.0],
        error_rows=(np.array([
            -0.0012326388888888888, 0.0, 0.0042527702905061394, -0.03697916666666667,
            0.05086379716981132, -0.0419047619047619, 0.025,
        ]),),
        error_norm=_rk45_error_norm,
        error_exponent=-1 / (4 + 1),
        P=np.array([
            [1.0, -2.8535800653862835, 3.0717434641059005, -1.1270175653862835],
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 4.023133379230305, -6.249321565289, 2.675424484351598],
            [0.0, -3.7324019615885042, 10.068970589843675, -5.685526961588504],
            [0.0, 2.5548038301849423, -6.399112377351017, 3.5219323679207912],
            [0.0, -1.3744241142186024, 3.272657752246729, -1.7672812570757455],
            [0.0, 1.3824689317781436, -3.764937863556287, 2.382468931778144],
        ]),
    ),
    "DOP853": _Tableau(
        A=_padded([
            [],
            [0.05260015195876773],
            [0.0197250569845379, 0.0591751709536137],
            [0.02958758547680685, 0.0, 0.08876275643042054],
            [0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792],
            [0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242],
            [0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596,
             -0.017578125],
            [0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
             -0.015319437748624402, 0.008273789163814023],
            [0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
             27.59209969944671, 20.154067550477894, -43.48988418106996],
            [0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
             21.230051448181193, 15.279233632882423, -33.28821096898486,
             -0.020331201708508627],
            [-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
             -8.149787010746927, -18.52006565999696, 22.739487099350505,
             2.4936055526796523, -3.0467644718982196],
            [2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
             -17.9589318631188, 27.94888452941996, -2.8589982771350235,
             -8.87285693353063, 12.360567175794303, 0.6433927460157636],
        ], 12),
        B=np.array([
            0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
            1.8915178993145003, -5.801203960010585, 0.3111643669578199,
            -0.1521609496625161, 0.20136540080403034, 0.04471061572777259,
        ]),
        C=[
            0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
            0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
            0.6512820512820513, 0.6, 0.8571428571428571, 1.0,
        ],
        error_rows=(
            np.array([  # E5
                0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
                -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
                0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0,
            ]),
            np.array([  # E3
                -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
                1.8915178993145003, -5.801203960010585, -0.4226823213237919,
                -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0.0,
            ]),
        ),
        error_norm=_dop853_error_norm,
        error_exponent=-1 / (7 + 1),
        P=None,
    ),
}


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


class _DenseSolution:
    """``scipy.integrate.OdeSolution`` over forward steps: t picks the step
    whose span holds it, the earlier one at a step time, and before the
    first step or past the last the nearest step's interpolant is
    extrapolated. The value is a list of floats."""

    __slots__ = ("ts", "interpolants")

    def __init__(self, ts: list[float], interpolants: list[_Interpolant]):
        self.ts = ts
        self.interpolants = interpolants

    def __call__(self, t: float) -> list[float]:
        last = len(self.interpolants) - 1
        return self.interpolants[min(max(bisect_left(self.ts, t) - 1, 0), last)].at(t)


def _runge_kutta(
    tab: _Tableau, fun, t0, t_bound, y0, dense_output=False, events=None, rtol=1e-3, atol=1e-6,
    max_nfev=math.inf,
) -> IvpResult:
    """``solve_ivp`` with SciPy's RungeKutta step loop owned here.

    It takes the same steps to the same bits as SciPy's solver of the
    tableau ``tab`` (RK45 or DOP853) driven by solve_ivp: the initial
    step of ``select_initial_step``, the step control of
    ``RungeKutta._step_impl``, the stage, solution and error sums as
    ``ndarray.dot`` on one reused stage array K (the same BLAS calls as
    SciPy's ``np.dot``, so the same fused or unfused rounding), the
    tableau's error norm with each vector norm taken on an ndarray, and
    each terminal event located by ``_brentq`` on the step's interpolant
    with solve_ivp's tolerances.
    Every elementwise operation is done on Python floats, which round as
    NumPy's unfused elementwise loops do; where NumPy gives inf or nan
    instead of raising, the code here does too. ``nfev`` counts as
    SciPy's does: 2 + one per stage for each attempted step; once an
    attempted step takes it past ``max_nfev`` the run stops there with
    status -2. Every event is taken as terminal and must have a nonzero
    ``direction``, the only kind the callers pass; dense output and
    events are RK45's only, the only method the callers ask them of, and
    dense output runs forward only, the only way the callers ask it.

    An empty span takes no step, as in SciPy: f is evaluated once, as
    the solver's constructor does, and the result is y0 at t0 and
    t_bound (``nfev`` 1, no dense output and no event sought; no caller
    asks for either over an empty span).
    """
    if (dense_output or events) and tab.P is None:
        raise ValueError("dense output and events need the RK45 tableau")
    if dense_output and t_bound < t0:
        raise ValueError("dense output runs forward only")
    A, B, C, P = tab.A, tab.B, tab.C, tab.P
    error_norm, error_rows, error_exponent = tab.error_norm, tab.error_rows, tab.error_exponent
    events = () if events is None else tuple(events)
    y = [float(v) for v in y0]
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
    ev_dir = [ev.direction for ev in events]
    g = [ev(t, y) for ev in events]
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
            if nfev > max_nfev:
                status = -2
                break
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
        if status is not None:
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
                if (d > 0 and a <= 0 <= b) or (d < 0 and a >= 0 >= b)
            ]
            if active:
                if interp is None:
                    interp = _Interpolant(t_old, t, y_old, K.T.dot(P))
                roots = [
                    _brentq(
                        lambda tt, ev=events[i]: ev(tt, interp.at(tt)),
                        t_old, t, EVENT_TOL, EVENT_TOL, BRENTQ_MAXITER,
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
        sol=_DenseSolution(ts, interpolants) if dense_output else None,
        t_events=[np.array(te, dtype=float) for te in t_events] if events else None,
        nfev=nfev,
        status=status,
        message=_MESSAGES[status],
    )


def _signbit(x: float) -> bool:
    return math.copysign(1.0, x) < 0


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float, maxiter: int) -> float:
    """SciPy's brentq, ported line for line from its C source
    (scipy/optimize/Zeros/brentq.c), with the NaN check of its Python
    wrapper: a root of f in [xa, xb] to within xtol + rtol |x| (Brent,
    Algorithms for Minimization without Derivatives, ch. 4).

    The C source's arithmetic, unfused, is the arithmetic of Python
    floats; its one division that can meet 0, the extrapolation's, gives
    inf or nan there, which bisects, and so does the code here.
    """

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if _signbit(fpre) == _signbit(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and _signbit(fpre) != _signbit(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den else math.inf
            # C's MIN(a, b): a < b ? a : b
            bound = abs(spre) if abs(spre) < 3 * abs(sbis) - delta else 3 * abs(sbis) - delta
            if 2 * abs(stry) < bound:  # good short step
                spre = scur
                scur = stry
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


_BRENTQ_RTOL = 4 * sys.float_info.epsilon  # brentq's default and smallest rtol


def brentq(
    f, a: float, b: float, *, xtol: float = 2e-12, rtol: float = _BRENTQ_RTOL,
    maxiter: int = BRENTQ_MAXITER,
) -> float:
    """``scipy.optimize.brentq`` with its defaults and argument checks, on
    ``_brentq``: a root of f in the bracket [a, b], where f changes sign."""
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _BRENTQ_RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_BRENTQ_RTOL:g})")
    if maxiter < 0:
        raise ValueError("maxiter must be >= 0")
    return _brentq(f, float(a), float(b), xtol, rtol, maxiter)


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


def integrate(field: PlanarField, x0: float, y0: float, t_end: float) -> Trajectory:
    """Integrate to t_end, one output row per accepted step, in at most
    EVAL_BUDGET field evaluations per 100 time units (at least EVAL_BUDGET)."""
    if not (math.isfinite(x0) and math.isfinite(y0)):
        raise PreconditionFailed(f"initial point ({x0}, {y0}) must be finite")
    # a NaN t_end passes the budget check below and never ends the step loop
    if math.isnan(t_end):
        raise PreconditionFailed("t_end must be a number, got nan")
    # either sign: a backward run to -1e6 or -inf would run as long
    if abs(t_end) > MAX_TIME:
        raise TimeBudgetExceeded(f"t_end {t_end} exceeds budget {MAX_TIME}")
    max_nfev = int(EVAL_BUDGET * max(1.0, abs(t_end) / 100))
    with _float_range():
        sol = solve_ivp(
            _rhs(field),
            (0.0, t_end),
            (x0, y0),
            method="RK45",
            rtol=REL_TOL,
            atol=ABS_TOL,
            dense_output=False,
            max_nfev=max_nfev,
        )
    if sol.status == -2:
        raise TimeBudgetExceeded(
            f"t_end {t_end} not reached within {max_nfev} field evaluations"
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


def _first_return(field: PlanarField, c: float):
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
        x, y, _ = s
        px, qx = pq(x, y)
        return (px, qx, (x * qx - y * px) / (x * x + y * y))

    def turn_done(_t, s):
        return s[2] - TWO_PI

    turn_done.direction = 1.0

    def stalled(_t, s):
        x, y, _ = s
        px, qx = pq(x, y)
        return x * qx - y * px

    stalled.direction = -1.0

    with _float_range():
        sol = solve_ivp(
            rhs,
            (0.0, MAX_TIME),
            (c, 0.0, 0.0),
            method="RK45",
            rtol=REL_TOL,
            atol=ABS_TOL,
            dense_output=True,
            events=(turn_done, stalled),
            max_nfev=EVAL_BUDGET,
        )
    if sol.status == -2:
        raise TimeBudgetExceeded(f"no return within {EVAL_BUDGET} field evaluations")
    if sol.status == -1:
        raise StepFailure(sol.message)
    if len(sol.t_events[1]):
        t_bad = sol.t_events[1][0]
        raise AngleStalled(f"theta' vanished at t = {t_bad:.6g}")
    if not len(sol.t_events[0]):
        raise TimeBudgetExceeded(f"no return within t = {MAX_TIME}")
    t_star = sol.t_events[0][0]

    # Newton on y(t) = 0 from the event time; dense output is smooth here
    t_cur = t_star
    for _ in range(8):
        x_val, y_val, _ = sol.sol(t_cur)
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
    return t_cur, xy[0], xy[2], sol


def return_map(field: PlanarField, c: float) -> ReturnMapSample:
    _, x_cross, theta, _ = _first_return(field, c)
    return ReturnMapSample(c=c, p_of_c=x_cross, theta_total=theta, delta=x_cross - c)


def period(field: PlanarField, c: float) -> PeriodSample:
    t_cross, _, _, _ = _first_return(field, c)
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


def _grid_deltas(field: PlanarField, c_grid: Sequence[float]) -> list[float] | None:
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
    or some return time lies outside (0, MAX_TIME].
    """
    if not all(0.0 < c < math.inf for c in c_grid):
        return None
    n = len(c_grid)
    pq = float_code((field.p, field.q))
    cos, sin = math.cos, math.sin

    def rhs(theta, s):
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
            rtol=REL_TOL,
            atol=ABS_TOL,
            max_nfev=EVAL_BUDGET,
        )
    except (OverflowError, ZeroDivisionError):
        return None
    # -1: step failure, e.g. where x q - y p reaches 0; -2: over the budget
    if sol.status != 0:
        return None
    end = sol.y[:, -1].tolist()
    r_end, t_end = end[:n], end[n:]
    if not all(map(math.isfinite, end)) or min(r_end) <= 0.0:
        return None
    if not all(0.0 < t <= MAX_TIME for t in t_end):
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
    deltas = _grid_deltas(field, c_grid)
    if deltas is None or not _batch_decides(deltas, tol):
        deltas = [return_map(field, c).delta for c in c_grid]
    if max(abs(d) for d in deltas) < tol:
        return CenterLike(tol=tol)
    signs = {1 if d > 0 else -1 for d in deltas if abs(d) >= tol}
    if len(signs) > 1:
        raise Inconsistent(f"displacement signs disagree: {deltas}")
    return FocusLike(sign=signs.pop())
