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
(``solve_ivp``), not SciPy's: given RK45's or DOP853's tableau, it
takes SciPy's steps bit for bit, initial step, step control, error
norm, dense output and event location included, with every stage,
solution and error sum still a BLAS dot product on one stage array and
everything elementwise on Python floats. Those sums run in the host's
BLAS, which may fuse multiply-adds, so the printed floats still depend
on it, as they did under SciPy's loop.

The steps themselves run in generated code, as the field does: on first
use ``_step_loop`` compiles one straight-line loop per tableau, state
size, set of events and right-hand side source (RK45 on 2 floats for
``integrate``, on 3 for the first return, DOP853 on 2N for a grid of N)
and caches it; importing this module builds none. The loop holds the
state in locals, writes each stage's f into the stage array through a
flat memoryview, and makes every stage, solution and error sum the same
``ndarray.dot`` call on the same array as before, into one reused
buffer, so its floats are those of SciPy's loop on any BLAS.

The event work is part of that loop too. An event may carry a
``source``, an expression in the loop's locals that gives its value at
a step's end from floats the step has already made: the first return's
``_turn_done`` reads theta - 2 pi, and its frame's ``stalled`` reads
x q - y p from the stage array's last row, the field at the step's end
(the FSAL stage, which the next step reuses), in place of evaluating
the field again. ``_step_loop`` compiles one loop per set of event
sources and directions, with each sign test written out, and calls
``_brentq`` on the event callables only on a step where a sign changes.
Each step's ``_Interpolant`` keeps the stage array's bytes and forms its
matrix Q the first time it is read, and a run reads only the few near
its end.

The right-hand sides are generated as well: ``integrate``,
``_first_return`` and ``_grid_deltas`` each take one frame
(``_ORBIT_FRAME``, ``_ANGLE_FRAME``, ``_GRID_FRAME``) from
``poly.float_code``, which writes the field's sums into it and compiles
it once per frame and monomial support; the coefficients are bound when
it is called. The orbit's and the first return's right-hand sides also
carry a ``source``: the field's support and the frame's output
expression. The step loop writes those sums into each stage, the FSAL
stage included, in place of calling the right-hand side, and reads the
coefficients from it when a run starts, so its text too depends on the
support only and no call stands between the loop and the sums. The
frame's own callables serve the initial step, the Newton polish of the
section crossing (which reads y') and ``_brentq``'s ``stalled``. The
grid's right-hand side loops over the N points and is called, so its
source does not grow with N. Every value is bit for bit that of the
plain term loop, so orbits, return maps and periods do not depend on
the kernel, nor on whether the sums are called or written out. A field
that leaves the float range (``x**e`` overflowing) or an angle
equation evaluated at the origin ends in ``StepFailure``.

Nothing here imports SciPy. The pieces of it the loop needs are copies:
the two tableaux are module constants with SciPy's exact floats, events
are located by ``_brentq``, a port of SciPy's C brentq, and the dense
solution is ``_DenseSolution``, SciPy's ``OdeSolution`` lookup over
forward steps. The tests check each against the installed SciPy.
The loop takes the engine's settings, not SciPy's options: every run
is at ``REL_TOL`` and ``ABS_TOL``, and a run with events, the first
return's, keeps its dense solution. ``solve_ivp`` and ``brentq`` are
module-level functions: ``solve_ivp`` runs RK45 and DOP853 on the owned
loop and refuses other methods, and ``brentq(f, a, b)`` is ``_brentq``
at the section fallback's tolerances. The integrators here look them up
as module globals at call time, so a wrapper set on this module (as
perfbench's tracer does) sees every call; event location inside the
loop calls ``_brentq`` directly, as SciPy's own loop calls its brentq,
so only the section fallback of ``_first_return`` goes through
``brentq``.
"""

from __future__ import annotations

import contextlib
import csv
import functools
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
from .poly import coeff_unpack, float_code, float_sums

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
    integrators here (and perfbench's tracer) read. A run with events
    has ``t_events`` and its dense solution ``sol``; one without has
    None for both."""

    t: np.ndarray
    y: np.ndarray
    sol: object  # a _DenseSolution with events, else None
    t_events: list | None
    nfev: int
    status: int
    message: str


# scipy.integrate's RungeKutta step-size control (scipy/integrate/_ivp/rk.py)
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
EVENT_TOL = 4 * sys.float_info.epsilon  # solve_ivp's event brentq xtol and rtol
BRENTQ_MAXITER = 100  # scipy.optimize.brentq's default, which solve_ivp keeps
_MESSAGES = {
    -1: "Required step size is less than spacing between numbers.",
    0: "The solver successfully reached the end of the integration interval.",
    1: "A termination event occurred.",
    -2: "The field evaluation budget ran out.",
}


def _rms(a: np.ndarray) -> float:
    """SciPy's RMS norm of a float64 vector, its dot product BLAS's."""
    return math.sqrt(a.dot(a)) / len(a) ** 0.5


def _squared_norm(a: np.ndarray) -> float:
    """``np.linalg.norm(a) ** 2`` as DOP853 takes it: the root of a BLAS
    dot, raised to the power 2 by libm's pow, which rounds differently
    from r * r in about one case in a thousand. The root of a finite dot
    is at most sqrt(DBL_MAX), whose square is finite, so the power never
    raises OverflowError where NumPy's would give inf."""
    return math.sqrt(a.dot(a)) ** 2


def _rk45_error_norm(n: int) -> list[str]:
    """RungeKutta._estimate_error_norm as step-loop source: the RMS of
    h K^T E / scale."""
    return [
        "err_dot(E0, buf)",
        f"{_names('d', n)} = bd",
        *(f"nbd[{i}] = d{i} * h / s{i}" for i in range(n)),
        "err = sqrt(nb.dot(nb)) / rms_den",
    ]


def _dop853_error_norm(n: int) -> list[str]:
    """DOP853._estimate_error_norm as step-loop source: the fifth-order
    estimate E5, damped by the third-order one E3 (Hairer, Norsett &
    Wanner's DOP853)."""
    lines = []
    for k, name in enumerate(("err5", "err3")):
        lines += [
            f"err_dot(E{k}, buf)",
            f"{_names('d', n)} = bd",
            *(f"nbd[{i}] = d{i} / s{i}" for i in range(n)),
            f"{name} = _squared_norm(nb)",
        ]
    return lines + [
        "if err5 == 0.0 and err3 == 0.0:",
        "    err = 0.0",
        "else:",
        "    denom = err5 + 0.01 * err3",
        "    # denom is 0 only when err5 is and 0.01 * err3 underflows:",
        "    # NumPy's 0 / 0 is then nan, which rejects the step",
        f"    err = h_abs * err5 / math.sqrt(denom * {n}) if denom else math.nan",
    ]


@dataclass(frozen=True, eq=False)
class _Tableau:
    """An explicit Runge-Kutta pair as SciPy's class defines it; it hashes
    by identity, as a key of the step-loop cache."""

    A: np.ndarray
    B: np.ndarray
    C: list[float]
    error_rows: tuple  # (E,) for RK45, (E5, E3) for DOP853
    error_norm: object  # n -> step-loop source lines that set err
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
    y(t) = y_old + h Q (x, x^2, x^3, x^4), x = (t - t_old) / h.

    The step loop hands it the step's stage array K as bytes, and Q is
    formed the first time it is read, by SciPy's ``K.T.dot(P)`` on those
    floats; a run reads only the interpolants near its end."""

    __slots__ = ("t_old", "h", "y_old", "_K", "_Q")

    def __init__(self, t_old, t, y_old, K: bytes):
        self.t_old = t_old
        self.h = t - t_old
        self.y_old = y_old
        self._K = K
        self._Q = None

    @property
    def Q(self) -> np.ndarray:
        if self._Q is None:
            K = np.frombuffer(self._K).reshape(-1, len(self.y_old))
            self._Q = K.T.dot(_TABLEAUX["RK45"].P)
        return self._Q

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


def solve_ivp(fun, t_span, y0, method="RK45", events=None, max_nfev=math.inf) -> IvpResult:
    """RK45 or DOP853 over ``t_span`` at the tolerances ``REL_TOL`` and
    ``ABS_TOL``, on the step loop owned here; any other method is a
    ValueError. ``fun`` and the events get the state as a list of Python
    floats and the result is an ``IvpResult``.

    It takes the same steps to the same bits as
    ``scipy.integrate.solve_ivp`` called with those tolerances, and with
    ``dense_output=True`` when there are events: the initial step of
    ``select_initial_step``, taken here, then the step control of
    ``RungeKutta._step_impl`` in the loop that ``_step_loop`` generates
    for the method's tableau, the state size, the events and ``fun``'s
    source, compiled on the first call with them and cached. Its stage,
    solution and error sums are ``ndarray.dot`` on one stage array K (the
    same BLAS calls as SciPy's ``np.dot``, so the same fused or unfused
    rounding), the
    tableau's error norm takes each vector norm as a BLAS dot too, and
    each terminal event is located by ``_brentq`` on the step's
    interpolant with solve_ivp's tolerances.
    Every elementwise operation is done on Python floats, which round as
    NumPy's unfused elementwise loops do; where NumPy gives inf or nan
    instead of raising, the code here does too. ``nfev`` counts as
    SciPy's does: 2 + one per stage for each attempted step; once an
    attempted step takes it past ``max_nfev``, which SciPy does not have,
    the run stops there with status -2. Every event is taken as terminal
    and must have a nonzero ``direction``, the only kind the callers
    pass. An event with a ``source`` attribute is not called at a step's
    end: the loop evaluates that expression (``_event_source``), which
    must give the call's float there; it is called only while its root
    is located. Likewise a ``fun`` with a ``source`` (support, values),
    as ``float_code`` makes from the orbit and angle frames, is called
    only while the initial step is picked (or once, for an empty span):
    the loop writes its sums and values into every stage with the
    coefficients of ``fun.coeffs``, which must give the call's floats.
    A run with events keeps each step's interpolant, whose Q is formed
    when first read, and returns them as its dense solution ``sol``;
    events are RK45's only, the only method the callers pass
    them to, and run forward only, the only way the callers ask it.

    An empty span takes no step, as in SciPy: f is evaluated once, as
    the solver's constructor does, and the result is y0 at t0 and
    t_bound (``nfev`` 1, no dense solution and no event found).
    """
    if method not in ("RK45", "DOP853"):
        raise ValueError(f"method must be 'RK45' or 'DOP853', got {method!r}")
    tab = _TABLEAUX[method]
    t0, t_bound = map(float, t_span)
    if events and tab.P is None:
        raise ValueError("events need the RK45 tableau")
    if events and t_bound < t0:
        raise ValueError("events run forward only")
    events = () if events is None else tuple(events)
    y = [float(v) for v in y0]
    if t0 == t_bound:
        fun(t0, y)
        status, nfev, ts, ys = 0, 1, [t0, t_bound], y + y
        interpolants, t_events = [], [[] for _ in events]
    else:
        # a norm's BLAS dot may overflow to inf, which rejects the step; the
        # RuntimeWarning NumPy adds for it is no part of the run's output
        with np.errstate(over="ignore"):
            direction = 1.0 if t_bound > t0 else -1.0

            # select_initial_step
            f = [float(v) for v in fun(t0, y)]
            interval = abs(t_bound - t0)
            scale = [ABS_TOL + abs(v) * REL_TOL for v in y]
            d0 = _rms(np.array([v / s for v, s in zip(y, scale)]))
            d1 = _rms(np.array([v / s for v, s in zip(f, scale)]))
            h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
            h0 = min(h0, interval)
            hd = h0 * direction
            f1 = fun(t0 + hd, [v + hd * fv for v, fv in zip(y, f)])
            # h0 is 0 only when d1 overflowed to inf: NumPy's division then gives
            # inf or nan, not an exception, and h1 below is 0 either way
            d2 = (
                _rms(np.array([(a - b) / s for a, b, s in zip(f1, f, scale)])) / h0
                if h0 else math.inf
            )
            if d1 <= 1e-15 and d2 <= 1e-15:
                h1 = max(1e-6, h0 * 1e-3)
            else:
                h1 = (0.01 / max(d1, d2)) ** -tab.error_exponent
            h_abs = min(100 * h0, h1, interval)

            sources = tuple(
                (getattr(ev, "source", None), (ev.direction > 0) - (ev.direction < 0))
                for ev in events
            )
            loop = _step_loop(tab, len(y), sources, getattr(fun, "source", None))
            status, nfev, ts, ys, interpolants, t_events = loop(
                fun, t0, y, f, h_abs, t_bound, direction, max_nfev, events
            )
    return IvpResult(
        t=np.array(ts),
        y=np.array(ys).reshape(-1, len(y)).T,
        sol=_DenseSolution(ts, interpolants) if interpolants else None,
        t_events=[np.array(te, dtype=float) for te in t_events] if events else None,
        nfev=nfev,
        status=status,
        message=_MESSAGES[status],
    )


def _names(prefix: str, n: int) -> str:
    """``p0, p1, ..., p{n-1},``: a target list of n names."""
    return ", ".join(f"{prefix}{i}" for i in range(n)) + ","


def _row(s: int, n: int) -> str:
    """The n items of stage row s of K, as targets on the flat view Kd."""
    return ", ".join(f"Kd[{s * n + i}]" for i in range(n)) + ","


# The step loop of RungeKutta._step_impl, for one tableau, state size and
# set of events; _step_loop fills in the fields. K has a row per stage and
# a last row, f at the step's end, which the next step takes as its row 0
# (SciPy's self.f). Only RK45 runs get events, so only they keep K for an
# _Interpolant. {event_start} and {event_step} are empty without events.
_STEP_LOOP = """\
def make(tab):
    A, C = tab.A, tab.C
    B, error_exponent = tab.B, tab.error_exponent
    {error_rows} = tab.error_rows
    rtol, atol = REL_TOL, ABS_TOL
    sqrt, rms_den = math.sqrt, {n} ** 0.5
{stage_constants}
    def loop(fun, t, y, f, h_abs, t_bound, direction, max_nfev, events):
        K = np.empty(({n_stages} + 1, {n}))
        Kd = memoryview(K).cast("B").cast("d")
        buf = np.empty({n})
        bd = memoryview(buf).cast("B").cast("d")
        nb = np.empty({n})
        nbd = memoryview(nb).cast("B").cast("d")
{stage_dots}
        sol_dot = K[:-1].T.dot
        err_dot = K.T.dot
        {y_names} = y
        {last_row} = f
        nfev = 2
        nextafter, toward = math.nextafter, direction * math.inf
        ts, ys = [t], list(y)
        interpolants = []
        t_events = [[] for _ in events]
{rhs_start}
{event_start}
        status = None
        while status is None:
            Kd[:{n}] = Kd[{last_start}:]
            # direction * spacing is |spacing|: the spacing toward the end
            # time has the sign of direction, which is 1.0 or -1.0
            min_step = 10 * (direction * (nextafter(t, toward) - t))
            if h_abs < min_step:
                h_abs = min_step
            rejected = False
            while True:
                if h_abs < min_step:
                    status = -1
                    break
                t_new = t + h_abs * direction
                if direction * (t_new - t_bound) > 0.0:
                    t_new = t_bound
                # h is nonzero and has the sign of direction, so this is |h|
                h = t_new - t
                h_abs = direction * h
{stage_sums}
                sol_dot(B, buf)
                {d_names} = bd
{y_new}
                y_new = [{z_names}]
{fsal}
                nfev += {n_stages}
                if nfev > max_nfev:
                    status = -2
                    break
{scale}
{error_norm}
                if err < 1.0:
                    if err == 0.0:
                        factor = MAX_FACTOR
                    else:
                        factor = min(MAX_FACTOR, SAFETY * err**error_exponent)
                    if rejected:
                        factor = min(1.0, factor)
                    h_abs *= factor
                    break
                h_abs *= max(MIN_FACTOR, SAFETY * err**error_exponent)
                rejected = True
            if status is not None:
                break
            t_old, y_old, t, y = t, y, t_new, y_new
            {y_names} = y
            if direction * (t - t_bound) >= 0.0:
                status = 0
{event_step}
            ts.append(t)
            ys += y
        return status, nfev, ts, ys, interpolants, t_events
    return loop
"""

# The right-hand sides of the step loop, as poly.float_code frames: each
# {sums} line becomes the field's sums, _s0 = p(_x, _y) and _s1 = q(_x, _y),
# so no call stands between the loop and them. The orbit's and the first
# return's rhs also carry a source, (support, values): the step loop writes
# the sums and then values in place of calling rhs (_step_loop), with the
# coefficients it reads from rhs.coeffs.

# integrate's orbit on (x, y)
_ORBIT_VALUES = "_s0, _s1"
_ORBIT_FRAME = f"""\
def rhs(_t, s):
    _x, _y = s
    {{sums}}
    return {_ORBIT_VALUES}
rhs.source, rhs.coeffs = (support, {_ORBIT_VALUES!r}), coeffs
return rhs
"""

# _first_return's state (x, y, theta): the right-hand side with
# theta' = (x q - y p) / (x^2 + y^2), and the event where x q - y p falls
# through 0. Its source reads x q - y p at a step's end from the FSAL row
# (f0, f1) = (p, q) there, the floats that rhs has just made of these sums.
_ANGLE_VALUES = "_s0, _s1, (_x * _s1 - _y * _s0) / (_x * _x + _y * _y)"
_ANGLE_FRAME = f"""\
def rhs(_t, s):
    _x, _y, _ = s
    {{sums}}
    return {_ANGLE_VALUES}
rhs.source, rhs.coeffs = (support, {_ANGLE_VALUES!r}), coeffs
def stalled(_t, s):
    _x, _y, _ = s
    {{sums}}
    return _x * _s1 - _y * _s0
stalled.direction = -1.0
stalled.source = "y0 * f1 - y1 * f0"
return rhs, stalled
"""

# _grid_deltas' state (r_1..r_N, t_1..t_N) in theta: one loop over the N
# points, so the source does not grow with N; the step loop calls it
_GRID_FRAME = """\
from math import cos, sin
def rhs(theta, s):
    ct, st = cos(theta), sin(theta)
    n = len(s) // 2
    out = [0.0] * len(s)
    for i in range(n):
        r = s[i]
        _x, _y = r * ct, r * st
        {sums}
        den = _x * _s1 - _y * _s0
        out[i] = r * (_x * _s0 + _y * _s1) / den
        out[n + i] = r * r / den
    return out
return rhs
"""


def _evaluation(rhs, row: str, call: str, xy: tuple[str, str]) -> list[str]:
    """Step-loop lines that write one evaluation of the right-hand side
    into the stage row ``row``: ``row = call`` for a plain callable
    (``rhs`` None), or, for one with a source (support, values), the
    field's sums at _x, _y = ``xy`` and then ``row = values``. A frame
    reads only x and y of the state and not t, so the floats are the
    call's."""
    if rhs is None:
        return [f"{row} = {call}"]
    support, values = rhs
    return [f"_x = {xy[0]}", f"_y = {xy[1]}", *float_sums(support), f"{row} = {values}"]


def _error_scale(n: int) -> list[str]:
    """The error scale atol + max(|y|, |y_new|) rtol as step-loop source.

    Each magnitude is taken by a comparison, not a call: v if v >= 0.0
    else -v. It differs from abs(v) only in the sign of a zero or a NaN,
    and neither sign is seen: atol > 0, so atol + (-0.0) * rtol is atol,
    and a NaN scale is NaN, which no comparison reads by its sign. y is
    finite and a NaN in y_new wins, as in np.maximum. The float literal
    matters: comparing a float with the int 0 takes CPython's slower
    mixed-type path."""
    lines = []
    for i in range(n):
        lines += [
            f"a = y{i} if y{i} >= 0.0 else -y{i}",
            f"b = z{i} if z{i} >= 0.0 else -z{i}",
            f"s{i} = atol + (a if a >= b else b) * rtol",
        ]
    return lines


def _first_root(events, hits, interp, t_old: float, t: float, direction: float):
    """The first event root in time on the step from t_old to t, and its
    event's index: the root of each event whose sign test ``hits`` on the
    step's interpolant, by ``_brentq`` at solve_ivp's tolerances. Every
    event is terminal, so this root ends the run."""
    active = [k for k, hit in enumerate(hits) if hit]
    roots = [
        _brentq(
            lambda tt, ev=events[k]: ev(tt, interp.at(tt)),
            t_old, t, EVENT_TOL, EVENT_TOL, BRENTQ_MAXITER,
        )
        for k in active
    ]
    first = min(range(len(roots)), key=lambda k: direction * roots[k])
    return active[first], roots[first]


# The test after each accepted step: a step on which some event changes
# sign ends the run at its first root, on the step's interpolant
_EVENT_HIT = """\
if {any_hit}:
    interp = interpolants[-1]
    k, t = _first_root(events, ({hits},), interp, t_old, t, direction)
    t_events[k].append(t)
    status = 1
    y = interp.at(t)
    if len(ts) > 1 and ts[-1] == t:
        # a root at the step's start, which ts already holds
        interpolants.pop()
        break
"""


def _event_source(events: tuple, n: int, fsal: str) -> tuple[list[str], list[str]]:
    """The step loop's event lines: those run once before the first step,
    and those run after each accepted one.

    ``events`` holds one (source, sign) per event. An event's value at a
    step's end is its source, an expression in the loop's locals (t,
    y0..y{n-1}, and f0..f{n-1}, read from ``fsal``, the stage array's last
    row), or the call ev_k(t, y) when it has none. g_k holds the value at
    the step's start and e_k at its end. Each sign test is written out:
    g_k <= 0.0 <= e_k for a rising event (sign > 0), g_k >= 0.0 >= e_k for
    a falling one (sign < 0), and False for sign 0, which never fires.
    Each step keeps its stage array as bytes in an ``_Interpolant``."""
    if not events:
        return [], []
    m = len(events)
    values = [src or f"ev{k}(t, y)" for k, (src, _) in enumerate(events)]
    hits = [
        f"g{k} <= 0.0 <= e{k}" if sign > 0 else f"g{k} >= 0.0 >= e{k}" if sign < 0 else "False"
        for k, (_, sign) in enumerate(events)
    ]
    f_row = f"{_names('f', n)} = {fsal}"
    start = [f"{_names('ev', m)} = events", f_row, *(f"g{k} = {v}" for k, v in enumerate(values))]
    step = [
        f_row,
        "interpolants.append(_Interpolant(t_old, t, y_old, K.tobytes()))",
        *(f"e{k} = {v}" for k, v in enumerate(values)),
        *_EVENT_HIT.format(any_hit=" or ".join(hits), hits=", ".join(hits)).splitlines(),
        *(f"g{k} = e{k}" for k in range(m)),
    ]
    return start, step


# bounded: a process that classifies grids of many sizes, or integrates
# fields of many supports, keeps at most 32 loops, not one per size or
# support
@functools.lru_cache(maxsize=32)
def _step_loop(tab: _Tableau, n: int, events: tuple = (), rhs: tuple | None = None):
    """The step loop of ``solve_ivp`` for tableau ``tab``, states of n
    floats, ``events``, one (source, sign) per event (``_event_source``),
    and the right-hand side's source ``rhs``, compiled on first use and
    cached. It binds ``REL_TOL`` and ``ABS_TOL`` once, when it is built.

    Without ``rhs`` each stage calls ``fun``. With ``rhs`` = (support,
    values), each stage, the FSAL one included, sets _x and _y to the
    stage input's first two floats, runs ``poly.float_sums(support)`` and
    writes ``values`` into its row (``_evaluation``); the coefficients
    are unpacked from ``fun.coeffs`` into locals when the loop starts, so
    one loop serves every field with that support.

    The state is unpacked into the locals y0..y{n-1}. Each stage sum is
    ``K[:s].T.dot(a_s, buf)`` into one reused buffer, read back as the
    locals d0..d{n-1}; the solution sum ``K[:-1].T.dot(B, buf)`` and the
    error sums ``K.T.dot(e, buf)`` likewise. The stage inputs, y_new and
    the error scale are unrolled float expressions, each stage's f is
    written into its row of K through a flat ``memoryview`` of it, and
    each norm's operand is written into one preallocated vector before
    its dot; RK45's RMS norm is written out as ``sqrt(nb.dot(nb)) /
    rms_den``, its divisor sqrt(n) bound when the loop is built. The BLAS
    calls are SciPy's, on the same K layout, so the floats are those of
    its loop on any BLAS. The accepted states go into one flat list,
    which ``solve_ivp`` reshapes into ``IvpResult.y``. No magnitude is an
    ``abs`` call: |h| and the minimum step's spacing are signed by
    ``direction``, which is 1.0 or -1.0, and the error scale compares
    (``_error_scale``). With events, each event's value, sign test and
    direction are written into the loop as well, and it calls ``_brentq``
    only on a step where some sign changes.
    """
    n_stages = len(tab.C)
    stage_sums = []
    inputs = [f"y{i} + d{i} * h" for i in range(n)]
    for s in range(1, n_stages):
        stage_sums += [
            f"dot{s}(a{s}, buf)",
            f"{_names('d', n)} = bd",
            *_evaluation(rhs, _row(s, n), f"fun(t + c{s} * h, [{', '.join(inputs)}])", inputs),
        ]
    event_start, event_step = _event_source(events, n, _row(n_stages, n))

    def block(lines, indent):
        return "\n".join(" " * indent + line for line in lines)

    source = _STEP_LOOP.format(
        n=n,
        n_stages=n_stages,
        last_start=n_stages * n,
        error_rows=_names("E", len(tab.error_rows)),
        stage_constants=block(
            [f"a{s}, c{s} = A[{s}, :{s}], C[{s}]" for s in range(1, n_stages)], 4
        ),
        stage_dots=block([f"dot{s} = K[:{s}].T.dot" for s in range(1, n_stages)], 8),
        y_names=_names("y", n),
        d_names=_names("d", n),
        z_names=", ".join(f"z{i}" for i in range(n)),
        last_row=_row(n_stages, n),
        stage_sums=block(stage_sums, 16),
        y_new=block([f"z{i} = y{i} + h * d{i}" for i in range(n)], 16),
        fsal=block(_evaluation(rhs, _row(n_stages, n), "fun(t + h, y_new)", ("z0", "z1")), 16),
        scale=block(_error_scale(n), 16),
        error_norm=block(tab.error_norm(n), 16),
        rhs_start=block([] if rhs is None else ["coeffs = fun.coeffs", coeff_unpack(rhs[0])], 8),
        event_start=block(event_start, 8),
        event_step=block(event_step, 12),
    )
    namespace: dict = {}
    exec(compile(source, f"<step loop n={n}>", "exec"), globals(), namespace)
    return namespace["make"](tab)


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
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if _signbit(fpre) == _signbit(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and _signbit(fpre) != _signbit(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
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
            xcur += delta if sbis > 0.0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def brentq(f, a: float, b: float) -> float:
    """The section fallback's root of f in the bracket [a, b], where f
    changes sign: ``_brentq`` to within 1e-15 + EVENT_TOL |x| in at most
    BRENTQ_MAXITER iterations."""
    return _brentq(f, float(a), float(b), 1e-15, EVENT_TOL, BRENTQ_MAXITER)


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
    rhs = float_code((field.p, field.q), _ORBIT_FRAME)
    with _float_range():
        sol = solve_ivp(rhs, (0.0, t_end), (x0, y0), method="RK45", max_nfev=max_nfev)
    if sol.status == -2:
        raise TimeBudgetExceeded(
            f"t_end {t_end} not reached within {max_nfev} field evaluations"
        )
    if sol.status == -1:
        raise StepFailure(sol.message)
    return Trajectory(t=sol.t, x=sol.y[0], y=sol.y[1])


def write_csv(traj: Trajectory, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "x", "y"])
        for t, x, y in traj.rows():
            writer.writerow([repr(float(t)), repr(float(x)), repr(float(y))])


def _turn_done(_t, s):
    """The first return's end, theta rising through 2 pi; the step loop
    evaluates its source in place of a call."""
    return s[2] - TWO_PI


_turn_done.direction = 1.0
_turn_done.source = "y2 - TWO_PI"


def _first_return(field: PlanarField, c: float):
    """Integrate the angle-augmented system until theta = 2 pi, then
    polish the section crossing y = 0, x > 0 on the dense output.

    Returns (t_cross, x_cross, theta_at_cross, dense_solution).
    """
    if c <= 0:
        raise PreconditionFailed("section abscissa must be positive")
    if not math.isfinite(c):
        raise PreconditionFailed("section abscissa must be finite")
    rhs, stalled = float_code((field.p, field.q), _ANGLE_FRAME)
    with _float_range():
        sol = solve_ivp(
            rhs,
            (0.0, MAX_TIME),
            (c, 0.0, 0.0),
            method="RK45",
            events=(_turn_done, stalled),
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

    # Newton on y(t) = 0 from the event time; dense output is smooth here,
    # and y' is rhs's second value, which does not depend on theta
    t_cur = t_star
    for _ in range(8):
        x_val, y_val, _ = sol.sol(t_cur)
        if abs(y_val) <= SECTION_ABS:
            break
        with _float_range():
            ydot = rhs(t_cur, (x_val, y_val, 0.0))[1]
        if ydot == 0.0:
            break
        t_cur -= y_val / ydot
    xy = sol.sol(t_cur)
    if abs(xy[1]) > SECTION_ABS:
        # fall back to a bracketed root; y < 0 just before the crossing
        for h in (0.01, 0.05, 0.2):
            lo, hi = t_star - h, t_star + h
            if sol.sol(lo)[1] < 0.0 < sol.sol(hi)[1]:
                t_cur = brentq(lambda t: sol.sol(t)[1], lo, hi)
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
) -> list[tuple[float, float]]:
    """Newton from a 41 x 41 seed grid over the box; keep residuals below
    1e-13, dedupe at 1e-6."""
    p, q = field.p, field.q
    # values and Jacobian (p, q, p_x, p_y, q_x, q_y) in one call
    kernel = float_code((p, q, p.diff_x(), p.diff_y(), q.diff_x(), q.diff_y()))
    xmin, xmax, ymin, ymax = box
    found: list[tuple[float, float]] = []
    for xs in np.linspace(xmin, xmax, 41):
        for ys in np.linspace(ymin, ymax, 41):
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
                if abs(x) > 10 * (abs(xmin) + abs(xmax) + 1):
                    break
            if not ok:
                continue
            if not (xmin - 1e-9 <= x <= xmax + 1e-9 and ymin - 1e-9 <= y <= ymax + 1e-9):
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
    variable). Its right-hand side, ``_GRID_FRAME`` with the field's sums
    written in, evaluates p and q as ``_first_return``'s does; it shares
    that route's tolerances and evaluation budget, and runs DOP853 on the
    owned step loop, which hands the right-hand side the state as a list
    of floats.
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
    rhs = float_code((field.p, field.q), _GRID_FRAME)
    try:
        sol = solve_ivp(
            rhs,
            (0.0, TWO_PI),
            [float(c) for c in c_grid] + [0.0] * n,
            method="DOP853",
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


def numeric_classify(field: PlanarField, c_grid: Sequence[float]) -> CenterLike | FocusLike:
    """Displacement-sign hint over a grid of section abscissas.

    CenterLike when every |delta(c)| is below tol = 1e-9 max c, else
    FocusLike with the common sign of the |delta| >= tol;
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
