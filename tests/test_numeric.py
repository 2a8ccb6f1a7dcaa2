import csv
import math
import random
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings, strategies as st
from scipy.integrate import DOP853, OdeSolution
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.optimize import brentq as scipy_brentq

from centerfocus import (
    BiPoly,
    CenterLike,
    FocusLike,
    InverseSpec,
    build_field,
    find_equilibria,
    get,
    integrate,
    list_families,
    numeric,
    numeric_classify,
    period,
    return_map,
    write_csv,
)
from centerfocus.errors import (
    AngleStalled,
    CenterFocusError,
    Inconsistent,
    PreconditionFailed,
    StepFailure,
    TimeBudgetExceeded,
)
from centerfocus.lyapunov import H2
from centerfocus.numeric import _batch_decides, _first_return, _grid_deltas
from helpers import (
    SAMPLE_PARAMS,
    bautin_field,
    cubic_field,
    nl_field,
    radial_cubic,
    rand_frac,
)
from oracles import (
    loop_angle_solution,
    loop_first_return,
    loop_grid_solution,
    loop_integrate,
)

TWO_PI = 2.0 * math.pi


def harmonic():
    return nl_field({}, {})


@pytest.mark.parametrize(
    "x0, y0, t_end, message",
    [
        (math.nan, 0.0, 1.0, "initial point"),
        (0.1, math.inf, 1.0, "initial point"),
        (-math.inf, 0.0, 1.0, "initial point"),
        (0.1, 0.0, math.nan, "t_end"),
    ],
)
def test_integrate_rejects_nonfinite_inputs(monkeypatch, x0, y0, t_end, message):
    # checked before the step loop is reached: a NaN t_end never ends it
    def unreachable(*args, **kwargs):
        raise AssertionError("integrate reached solve_ivp")

    monkeypatch.setattr(numeric, "solve_ivp", unreachable)
    with pytest.raises(PreconditionFailed, match=message):
        integrate(harmonic(), x0, y0, t_end)


def test_harmonic_orbit_and_energy():
    traj = integrate(harmonic(), 1.0, 0.0, 2 * TWO_PI)
    assert abs(traj.x[-1] - math.cos(traj.t[-1])) < 1e-8
    assert abs(traj.y[-1] - math.sin(traj.t[-1])) < 1e-8
    drift = max(abs(x * x + y * y - 1.0) for _, x, y in traj.rows())
    assert drift < 1e-9


def test_time_budget_enforced():
    with pytest.raises(TimeBudgetExceeded):
        integrate(harmonic(), 1.0, 0.0, 2e4)


def test_return_map_exact_radial_growth():
    # r' = r^3 integrates to P(c) = c / sqrt(1 - 4 pi c^2) after one turn
    sample = return_map(radial_cubic(), 0.1)
    truth = 0.1 / math.sqrt(1.0 - 0.04 * math.pi)
    assert abs(sample.p_of_c - truth) < 1e-8
    assert abs(sample.theta_total - TWO_PI) < 1e-9
    assert sample.delta == sample.p_of_c - sample.c


def test_return_map_needs_positive_abscissa():
    with pytest.raises(PreconditionFailed):
        return_map(harmonic(), -0.1)


def test_isochronous_period():
    loud = get("loud3").field
    for c in (0.05, 0.1, 0.2):
        assert abs(period(loud, c).period - TWO_PI) < 1e-8


def test_harmonic_period_any_radius():
    for c in (0.1, 1.0, 1.7):
        assert abs(period(harmonic(), c).period - TWO_PI) < 1e-10


def test_find_equilibria_quartic():
    found = find_equilibria(get("quartic_uuu").field)
    assert any(abs(x) < 1e-10 and abs(y) < 1e-10 for x, y in found)
    assert any(abs(x + 1.324717957244746) < 1e-6 and abs(y - 1.0) < 1e-6 for x, y in found)
    assert any(abs(x + 1.0) < 1e-6 and abs(y) < 1e-6 for x, y in found)


def test_find_equilibria_default_box():
    # x' = -y, y' = x (1 - x/1.9) (1 - x/2.1): rest points at x = 0, 1.9
    # and 2.1 on y = 0; the default box [-2, 2]^2 holds only the first two
    field = nl_field({}, {(2, 0): Fraction(-400, 399), (3, 0): Fraction(100, 399)})
    found = find_equilibria(field)
    assert len(found) == 2
    assert abs(found[0][0]) < 1e-10 and abs(found[0][1]) < 1e-10
    assert abs(found[1][0] - 1.9) < 1e-10 and abs(found[1][1]) < 1e-10
    assert any(abs(x - 2.1) < 1e-10 for x, _ in find_equilibria(field, (-3.0, 3.0, -3.0, 3.0)))


def test_find_equilibria_keeps_a_rest_point_on_the_box_edge():
    # x' = -y, y' = x (1 - x/2): the rest point (2, 0) lies on the default
    # box's edge, which the box filter must keep
    found = find_equilibria(nl_field({}, {(2, 0): Fraction(-1, 2)}))
    assert any(abs(x - 2.0) < 1e-12 and abs(y) < 1e-10 for x, y in found)


def test_find_equilibria_skips_overflowing_seeds():
    # x' = -y + x^40, y' = x + y^40: Newton starts that run off in y
    # overflow y**40 and must be dropped like a singular Jacobian
    found = find_equilibria(nl_field({(40, 0): 1}, {(0, 40): 1}))
    assert any(abs(x) < 1e-10 and abs(y) < 1e-10 for x, y in found)
    assert any(abs(x + 1.0) < 1e-10 and abs(y - 1.0) < 1e-10 for x, y in found)


def test_classify_center_like():
    verdict = numeric_classify(get("loud1").field, (0.05, 0.1, 0.2))
    assert isinstance(verdict, CenterLike)


def test_classify_focus_like():
    verdict = numeric_classify(radial_cubic(), (0.05, 0.1, 0.2))
    assert verdict == FocusLike(sign=1)


def test_classify_rejects_empty_grid():
    with pytest.raises(PreconditionFailed):
        numeric_classify(radial_cubic(), ())


def straddle_field():
    # r' = r^3 (1 - 4 r^2): cycle at r = 1/2, displacement flips sign across it
    return nl_field(
        {(3, 0): 1, (1, 2): 1, (5, 0): -4, (3, 2): -8, (1, 4): -4},
        {(2, 1): 1, (0, 3): 1, (4, 1): -4, (2, 3): -8, (0, 5): -4},
    )


def test_classify_limit_cycle_straddle_inconsistent():
    with pytest.raises(Inconsistent):
        numeric_classify(straddle_field(), (0.2, 0.8))


def test_write_csv_round_trip(tmp_path):
    traj = integrate(harmonic(), 0.5, 0.0, 1.0)
    out = tmp_path / "orbit.csv"
    write_csv(traj, out)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x", "y"]
    assert len(rows) == 1 + len(traj.t)
    for (t, x, y), row in zip(traj.rows(), rows[1:]):
        assert float(row[0]) == float(t)
        assert float(row[1]) == float(x)
        assert float(row[2]) == float(y)


def hamiltonian_field(seed):
    """A seeded field built by the inverse method from an energy of degree m + 1."""
    rng = random.Random(seed)
    m = rng.randint(2, 5)
    h_list = (H2,) + tuple(
        BiPoly({(j - k, k): rand_frac(rng, 3) for k in range(j + 1)}) for j in range(3, m + 2)
    )
    one = BiPoly({(0, 0): Fraction(1)})
    return build_field(InverseSpec(m, h_list, (one,) + (BiPoly({}),) * (m - 1)))


DIFFERENTIAL_FIELDS = [
    pytest.param(lambda name=sig.name: get(name, **SAMPLE_PARAMS.get(name, {})).field, id=sig.name)
    for sig in list_families()
] + [
    pytest.param(lambda seed=seed: hamiltonian_field(seed), id=f"hamiltonian-{seed}")
    for seed in (11, 12, 13)
]


def same_array(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("make_field", DIFFERENTIAL_FIELDS)
def test_float_oracle_matches_term_loop_bitwise(make_field):
    """integrate, return_map and period on the compiled kernels reproduce
    solve_ivp on the term-loop RHS (NumPy-scalar state) bit for bit."""
    field = make_field()
    traj = integrate(field, 0.1, 0.0, 20.0)
    ref = loop_integrate(field, 0.1, 0.0, 20.0)
    assert same_array(traj.t, ref.t)
    assert same_array(traj.x, ref.y[0]) and same_array(traj.y, ref.y[1])

    c = 0.05
    want_t, want_x, want_theta, want_sol = loop_first_return(field, c)
    sol = _first_return(field, c)[3]
    assert same_array(sol.t, want_sol.t) and same_array(sol.y, want_sol.y)
    assert all(same_array(a, b) for a, b in zip(sol.t_events, want_sol.t_events))
    sample = return_map(field, c)
    assert same_array(sample.p_of_c, want_x) and same_array(sample.theta_total, want_theta)
    assert same_array(period(field, c).period, float(want_t))


# -- the owned RK45 step loop against SciPy's ---------------------------------


def recorded_solutions(monkeypatch):
    """Every result numeric.solve_ivp returns, in call order."""
    out = []
    original = numeric.solve_ivp

    def recording(*args, **kwargs):
        out.append(original(*args, **kwargs))
        return out[-1]

    monkeypatch.setattr(numeric, "solve_ivp", recording)
    return out


def same_run(got, want):
    """Same steps, states, effort, status and events as a SciPy run."""
    assert same_array(got.t, want.t) and same_array(got.y, want.y)
    assert (got.nfev, got.status, got.message) == (want.nfev, want.status, want.message)
    assert len(got.t) == len(want.t)  # perfbench's numeric.steps is len(t) - 1
    if want.t_events is not None:
        assert len(got.t_events) == len(want.t_events)
        assert all(same_array(a, b) for a, b in zip(got.t_events, want.t_events))


@pytest.mark.parametrize("make_field", DIFFERENTIAL_FIELDS)
def test_owned_rk45_counts_steps_and_evaluations_as_scipy(make_field, monkeypatch):
    field = make_field()
    runs = recorded_solutions(monkeypatch)
    integrate(field, 0.1, 0.0, 20.0)
    return_map(field, 0.05)
    ref_orbit = loop_integrate(field, 0.1, 0.0, 20.0)
    ref_angle = loop_angle_solution(field, 0.05)
    for got, want in zip(runs, (ref_orbit, ref_angle), strict=True):
        same_run(got, want)
        # 2 evaluations to pick the first step, 6 per attempted step
        assert (got.nfev - 2) % 6 == 0 and (got.nfev - 2) // 6 >= len(got.t) - 1
    ts = np.linspace(ref_angle.t[0], ref_angle.t[-1], 23)
    assert all(same_array(runs[1].sol(t), ref_angle.sol(t)) for t in ts)


def test_owned_rk45_rejected_steps_match_scipy(monkeypatch):
    # a far start on a seeded cubic: 503 accepted and 3 rejected steps
    field = seeded_focus_field("cubic", 1)
    runs = recorded_solutions(monkeypatch)
    integrate(field, 1.5, 0.0, 3.0)
    want = loop_integrate(field, 1.5, 0.0, 3.0)
    same_run(runs[0], want)
    assert (want.nfev - 2) // 6 - (len(want.t) - 1) == 3


def test_owned_rk45_step_size_failure_matches_scipy(monkeypatch):
    # this orbit blows up before t = 3: the step size collapses after
    # 2 276 steps and 6 rejections, as in SciPy
    field = seeded_focus_field("cubic", 3)
    runs = recorded_solutions(monkeypatch)
    with pytest.raises(StepFailure, match="less than spacing"):
        integrate(field, 2.0, 0.0, 3.0)
    want = loop_integrate(field, 2.0, 0.0, 3.0)
    assert want.status == -1
    same_run(runs[0], want)


def test_owned_rk45_backward_run_matches_scipy(monkeypatch):
    field = hamiltonian_field(12)
    runs = recorded_solutions(monkeypatch)
    traj = integrate(field, 0.1, 0.0, -5.0)
    want = loop_integrate(field, 0.1, 0.0, -5.0)
    same_run(runs[0], want)
    assert traj.t[-1] == -5.0 and np.all(np.diff(traj.t) < 0)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_owned_rk45_overflowing_step_estimate_matches_scipy(monkeypatch):
    # |f / scale| above 1e154 at the start: the first-step estimate's d1
    # overflows to inf and its h0 to 0, and SciPy carries on from min_step
    field = nl_field({(2, 0): 10**150}, {})
    runs = recorded_solutions(monkeypatch)
    with pytest.raises(StepFailure, match="less than spacing"):
        integrate(field, 0.1, 0.0, 1.0)
    want = loop_integrate(field, 0.1, 0.0, 1.0)
    assert want.status == -1
    same_run(runs[0], want)


@pytest.mark.parametrize("t_end", [0.0, -0.0])
def test_owned_rk45_empty_span_matches_scipy(monkeypatch, t_end):
    # no step: one evaluation, and y0 at t0 and at the end time as given
    field = hamiltonian_field(12)
    runs = recorded_solutions(monkeypatch)
    traj = integrate(field, 0.1, 0.0, t_end)
    want = loop_integrate(field, 0.1, 0.0, t_end)
    assert want.nfev == 1 and list(want.t) == [0.0, 0.0]
    same_run(runs[0], want)
    assert same_array(traj.t, want.t)


def test_owned_rk45_stalled_angle_event_matches_scipy(monkeypatch):
    # tests/data/cli/stalled.json: x' = -y, y' = x + x^2; theta' reaches 0
    field = nl_field({}, {(2, 0): 1})
    runs = recorded_solutions(monkeypatch)
    with pytest.raises(AngleStalled, match="theta' vanished at t = 3.44004"):
        return_map(field, 0.6)
    want = loop_angle_solution(field, 0.6)
    assert want.status == 1 and len(want.t_events[1]) == 1
    same_run(runs[0], want)
    assert same_array(runs[0].t_events[1], want.t_events[1])


@pytest.mark.parametrize(
    "call",
    [
        lambda field: integrate(field, 1.5, 0.0, 1.0),
        lambda field: integrate(field, 1.5, 0.0, 0.0),
        lambda field: return_map(field, 1.5),
        lambda field: period(field, 1.5),
    ],
    ids=["integrate", "integrate-empty-span", "return_map", "period"],
)
def test_kernel_overflow_is_a_step_failure(call):
    # x' = -y + x^2000 leaves the float range at once from x = 1.5
    with pytest.raises(StepFailure, match="OverflowError"):
        call(nl_field({(2000, 0): 1}, {}))


@pytest.mark.parametrize("t_end", [-1e6, -math.inf, 1e6, math.inf])
def test_time_budget_bounds_either_direction(monkeypatch, t_end):
    def unreachable(*args, **kwargs):
        raise AssertionError("integrate reached solve_ivp")

    monkeypatch.setattr(numeric, "solve_ivp", unreachable)
    with pytest.raises(TimeBudgetExceeded, match="exceeds budget"):
        integrate(harmonic(), 0.1, 0.0, t_end)


@pytest.mark.parametrize("method", ["RK23", "Radau", "LSODA", "dop853"])
def test_other_methods_are_refused(method):
    with pytest.raises(ValueError, match="method must be 'RK45' or 'DOP853'"):
        numeric.solve_ivp(lambda t, s: (-s[1], s[0]), (0.0, 1.0), (1.0, 0.0), method=method)


@pytest.mark.parametrize("option", [{"dense_output": True}, {"events": [lambda t, s: s[1]]}])
def test_dop853_has_no_dense_output_or_events(option):
    # no caller asks for them; SciPy's DOP853 interpolant needs three more stages
    with pytest.raises(ValueError, match="need the RK45 tableau"):
        numeric.solve_ivp(
            lambda t, s: (-s[1], s[0]), (0.0, 1.0), (1.0, 0.0), method="DOP853", **option
        )


def kukles_field():
    # x' = -y, y' = x + x^2 + 2 y^2 - y^3
    return get("kukles", **SAMPLE_PARAMS["kukles"]).field


@pytest.mark.parametrize(
    "call",
    [
        lambda field: return_map(field, 0.6),
        lambda field: numeric_classify(field, (0.1, 0.6)),
    ],
    ids=["return_map", "numeric_classify"],
)
def test_escaping_orbit_ends_in_the_evaluation_budget(call):
    # the orbit through c = 0.6 escapes and its steps collapse at t near
    # 47, far below max_time; without the budget this ran until killed.
    # numeric_classify's batch declines on the same budget, and its
    # per-sample route then reports the return map's error.
    start = time.perf_counter()
    with pytest.raises(
        TimeBudgetExceeded,
        match=f"^no return within {numeric.EVAL_BUDGET} field evaluations$",
    ):
        call(kukles_field())
    assert time.perf_counter() - start < 60


def test_escaping_orbit_ends_in_its_evaluation_budget(monkeypatch):
    # the same escape from x0 = 0.6; an orbit to t = 100 may take EVAL_BUDGET
    runs = recorded_solutions(monkeypatch)
    start = time.perf_counter()
    with pytest.raises(
        TimeBudgetExceeded,
        match=f"^t_end 100.0 not reached within {numeric.EVAL_BUDGET} field evaluations$",
    ):
        integrate(kukles_field(), 0.6, 0.0, 100.0)
    assert time.perf_counter() - start < 60
    (run,) = runs
    assert run.status == -2
    assert numeric.EVAL_BUDGET < run.nfev <= numeric.EVAL_BUDGET + 6


def test_orbit_budget_scales_with_the_end_time(monkeypatch):
    # EVAL_BUDGET per 100 time units: t_end = 150 may take 1.5 EVAL_BUDGET
    runs = recorded_solutions(monkeypatch)
    integrate(harmonic(), 1.0, 0.0, 150.0)
    need = runs[0].nfev
    monkeypatch.setattr(numeric, "EVAL_BUDGET", math.ceil(need / 1.5))
    integrate(harmonic(), 1.0, 0.0, 150.0)
    monkeypatch.setattr(numeric, "EVAL_BUDGET", math.floor((need - 1) / 1.5))
    with pytest.raises(TimeBudgetExceeded, match="not reached"):
        integrate(harmonic(), 1.0, 0.0, 150.0)


def test_grid_batch_declines_on_the_evaluation_budget(monkeypatch):
    runs = recorded_solutions(monkeypatch)
    assert _grid_deltas(kukles_field(), (0.1, 0.6)) is None
    # the loop stops after the attempted step (12 evaluations) that passed the budget
    (run,) = runs
    assert run.status == -2
    assert numeric.EVAL_BUDGET < run.nfev <= numeric.EVAL_BUDGET + 12


# -- the batched grid route of numeric_classify ----------------------------------

GRID = (0.05, 0.1, 0.2)


def seeded_focus_field(kind, seed):
    rng = random.Random(seed)
    if kind == "bautin":
        return bautin_field(*(Fraction(rng.randint(-3, 3), 4) for _ in range(5)))
    return cubic_field(*(Fraction(rng.randint(-3, 3), 4) for _ in range(8)))


# -- the owned DOP853 loop against SciPy's ---------------------------------------


@pytest.mark.parametrize("make_field", DIFFERENTIAL_FIELDS)
def test_owned_dop853_matches_scipy(make_field, monkeypatch):
    field = make_field()
    runs = recorded_solutions(monkeypatch)
    _grid_deltas(field, GRID)
    want = loop_grid_solution(field, GRID)
    same_run(runs[0], want)
    # 2 evaluations to pick the first step, 12 per attempted step
    assert (want.nfev - 2) % 12 == 0 and (want.nfev - 2) // 12 >= len(want.t) - 1


def test_owned_dop853_rejected_steps_match_scipy(monkeypatch):
    # a seeded Bautin grid: 60 accepted and 14 rejected steps
    field = seeded_focus_field("bautin", 3)
    runs = recorded_solutions(monkeypatch)
    _grid_deltas(field, GRID)
    want = loop_grid_solution(field, GRID)
    same_run(runs[0], want)
    assert want.status == 0 and len(want.t) - 1 == 60
    assert (want.nfev - 2) // 12 - (len(want.t) - 1) == 14


def test_owned_dop853_step_size_failure_matches_scipy(monkeypatch):
    # tests/data/cli/stalled.json: theta' reaches 0 on the orbit through 0.6,
    # where dr/dtheta grows without bound and the step size collapses
    field = nl_field({}, {(2, 0): 1})
    runs = recorded_solutions(monkeypatch)
    assert _grid_deltas(field, (0.05, 0.6)) is None
    want = loop_grid_solution(field, (0.05, 0.6))
    assert want.status == -1
    same_run(runs[0], want)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_squared_norm_is_numpys():
    # DOP853 squares np.linalg.norm's root with libm's pow, which rounds
    # differently from r * r in about one case in a thousand
    rng = np.random.default_rng(5)
    vs = rng.standard_normal((20000, 6)) * 10.0 ** rng.integers(-150, 150, (20000, 1))
    assert all(numeric._squared_norm(v.tolist()) == np.linalg.norm(v) ** 2 for v in vs)
    # the largest root of a finite dot squares to a finite float, and a dot
    # that overflows gives inf on both sides
    top = [math.sqrt(sys.float_info.max)]
    assert numeric._squared_norm(top) == np.linalg.norm(top) ** 2 < math.inf
    assert numeric._squared_norm([1e200]) == np.linalg.norm([1e200]) ** 2 == math.inf


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_owned_dop853_zero_error_denominator_is_nan_as_in_scipy(monkeypatch):
    # f is v at t = 0 and 0 after, so K's only nonzero row is f(0) = v and
    # every step from t = 0 has err5 / scale = 6.6e-163, which squares to 0,
    # and err3 / scale = 9.5e-162, which squares to 9e-323; 0.01 times that
    # underflows to 0, so the norm is 0 / 0. NumPy makes that nan, which
    # rejects every step until the step size fails.
    v = 5e-161 * (1e-6 + 1e-3)  # the error scale at y = 1 under the defaults

    def fun(t, y):
        return [v if t == 0.0 else 0.0]

    norms = []
    original = DOP853._estimate_error_norm

    def spy(self, K, h, scale):
        norms.append(original(self, K, h, scale))
        return norms[-1]

    monkeypatch.setattr(DOP853, "_estimate_error_norm", spy)
    want = scipy_solve_ivp(fun, (0.0, 1.0), [1.0], method="DOP853")
    assert norms and all(math.isnan(e) for e in norms)
    assert want.status == -1 and list(want.t) == [0.0]
    same_run(numeric.solve_ivp(fun, (0.0, 1.0), [1.0], method="DOP853"), want)


# -- the owned tableaux, brentq and dense solution against SciPy's --------------


@pytest.mark.parametrize("method, error_rows, order", [
    ("RK45", ("E",), 4),
    ("DOP853", ("E5", "E3"), 7),
])
def test_tableaux_are_scipys(method, error_rows, order):
    tab = numeric._TABLEAUX[method]
    cls = getattr(scipy.integrate, method)
    assert cls.error_estimator_order == order
    assert tab.error_exponent == -1 / (order + 1)
    assert same_array(tab.A, cls.A) and same_array(tab.B, cls.B)
    assert same_array(tab.C, cls.C)
    assert len(tab.error_rows) == len(error_rows)
    assert all(same_array(got, getattr(cls, name)) for got, name in zip(tab.error_rows, error_rows))
    if method == "RK45":
        assert same_array(tab.P, cls.P)
    else:
        assert tab.P is None


def brentq_outcome(call):
    """The root call() finds, bits and sign of zero included, or the type
    and message of its error."""
    try:
        return repr(call())
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


# bracketed functions of different shape: smooth, flat at the root (long
# bisection runs), steep, a jump, and one that bends; the scale reaches
# values whose products underflow, where the C source reads signs by signbit
BRENTQ_SHAPES = {
    "cubic": lambda r: lambda x: (x - r) ** 3 + 0.1 * (x - r),
    "flat": lambda r: lambda x: (x - r) ** 7,
    "steep": lambda r: lambda x: math.tanh(40.0 * (x - r)),
    "jump": lambda r: lambda x: 1.0 if x > r else -1.0,
    "bend": lambda r: lambda x: math.exp(x) - math.exp(r) + 0.3 * math.sin(5.0 * x),
}


@pytest.mark.parametrize("xtol, rtol", [
    (numeric.EVENT_TOL, numeric.EVENT_TOL),
    (1e-15, numeric.EVENT_TOL),
    (1e-6, 1e-9),
])
@settings(max_examples=400, deadline=None)
@given(
    shape=st.sampled_from(sorted(BRENTQ_SHAPES)),
    root=st.floats(-2.0, 2.0),
    a=st.floats(-3.0, 3.0),
    b=st.floats(-3.0, 3.0),
    scale=st.sampled_from([1.0, -1.0, 1e-160, -1e-200, 1e150, 3e-310]),
    maxiter=st.sampled_from([100, 100, 100, 5, 0]),
)
def test_owned_brentq_is_scipys(xtol, rtol, shape, root, a, b, scale, maxiter):
    g = BRENTQ_SHAPES[shape](root)

    def f(x):
        return scale * g(x)

    got = brentq_outcome(lambda: numeric._brentq(f, a, b, xtol, rtol, maxiter))
    want = brentq_outcome(lambda: scipy_brentq(f, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter))
    assert got == want


@pytest.mark.parametrize("f, kwargs", [
    pytest.param(lambda x: x + 1.0, {}, id="same-sign"),
    pytest.param(lambda x: math.nan if x > 0.4 else x - 0.5, {}, id="nan-at-b"),
    pytest.param(lambda x: math.nan if 0.3 < x < 0.7 else x - 0.5, {}, id="nan-inside"),
    pytest.param(lambda x: x**3 - 0.3, {"maxiter": 2}, id="maxiter"),
    pytest.param(lambda x: x - 0.5, {"maxiter": -1}, id="negative-maxiter"),
    pytest.param(lambda x: x - 0.5, {"xtol": 0.0}, id="xtol"),
    pytest.param(lambda x: x - 0.5, {"rtol": 1e-17}, id="rtol"),
])
def test_brentq_errors_are_scipys(f, kwargs):
    want = brentq_outcome(lambda: scipy_brentq(f, 0, 1, **kwargs))
    assert isinstance(want, tuple)
    assert brentq_outcome(lambda: numeric.brentq(f, 0, 1, **kwargs)) == want


def test_dense_solution_is_scipys(monkeypatch):
    # the angle solution of a seeded cubic, looked up at every step time
    # (where two steps meet), inside each step and beyond both ends
    runs = recorded_solutions(monkeypatch)
    return_map(seeded_focus_field("cubic", 1), 0.1)
    sol = runs[0].sol
    ts = sol.ts
    want = OdeSolution(
        ts, [lambda t, it=it: np.array(it.at(float(t))) for it in sol.interpolants]
    )
    inside = [a + (b - a) * w for a, b in zip(ts, ts[1:]) for w in (0.25, 0.5, 0.9)]
    beyond = [ts[0] - 1.0, ts[0] - 1e-9, ts[-1] + 1e-9, ts[-1] + 1.0]
    assert len(ts) > 10
    for t in ts + inside + beyond:
        assert same_array(sol(t), want(t)), t


def test_dense_output_runs_forward_only():
    with pytest.raises(ValueError, match="forward only"):
        numeric.solve_ivp(lambda t, y: y, (1.0, 0.0), [1.0], dense_output=True)


GRID_FIELDS = DIFFERENTIAL_FIELDS + [
    pytest.param(lambda kind=kind, seed=seed: seeded_focus_field(kind, seed), id=f"{kind}-{seed}")
    for kind in ("bautin", "cubic")
    for seed in (1, 2, 3, 4)
]


def outcome(call):
    """The verdict of call(), or the type and message of its error."""
    try:
        return call()
    except CenterFocusError as exc:
        return type(exc), str(exc)


def per_sample_outcome(monkeypatch, field, c_grid, tol=None):
    """numeric_classify with the batch declining: one return map per point."""
    with monkeypatch.context() as m:
        m.setattr(numeric, "_grid_deltas", lambda *args: None)
        return outcome(lambda: numeric_classify(field, c_grid, tol))


def count_return_maps(monkeypatch):
    calls = []
    original = numeric.return_map

    def counted(*args):
        calls.append(args[1])
        return original(*args)

    monkeypatch.setattr(numeric, "return_map", counted)
    return calls


@pytest.mark.parametrize("make_field", GRID_FIELDS)
def test_grid_deltas_match_return_map(make_field, monkeypatch):
    field = make_field()
    batch = _grid_deltas(field, GRID)
    try:
        single = [return_map(field, c).delta for c in GRID]
    except AngleStalled:  # hamiltonian-11 and -13 stall at c = 0.2
        assert batch is None
    else:
        assert max(abs(a - b) for a, b in zip(batch, single)) < 1e-11
    calls = count_return_maps(monkeypatch)
    got = outcome(lambda: numeric_classify(field, GRID))
    # quintic_ssss's |delta(0.2)| = 2.7e-10 lies in the guard band of tol
    assert (calls == []) == (batch is not None and _batch_decides(batch, 1e-9 * max(GRID)))
    assert got == per_sample_outcome(monkeypatch, field, GRID)


@pytest.mark.parametrize("a", [Fraction(1, 2), Fraction(-1, 2), Fraction(1, 5), Fraction(-1, 5)])
def test_grid_deltas_radial_closed_form(a):
    # x' = -y + a x r^2, y' = x + a y r^2: r' = a r^3, one turn takes 2 pi,
    # so P(c) = c / sqrt(1 - 4 pi a c^2)
    field = nl_field({(3, 0): a, (1, 2): a}, {(2, 1): a, (0, 3): a})
    deltas = _grid_deltas(field, GRID)
    for c, d in zip(GRID, deltas):
        truth = c / math.sqrt(1.0 - 4.0 * math.pi * float(a) * c * c)
        assert abs((c + d) - truth) <= 1e-11 * truth


FALLBACKS = [
    pytest.param(
        nl_field({}, {(2, 0): 1}), (0.05, 0.6), numeric.MAX_TIME,
        (AngleStalled, "theta' vanished at t = 3.44004"), id="stalled",
    ),
    pytest.param(
        straddle_field(), (0.2, 0.8), numeric.MAX_TIME, None, id="straddle",
    ),
    pytest.param(
        harmonic(), GRID, 1.0,
        (TimeBudgetExceeded, "no return within t = 1.0"), id="time-budget",
    ),
    pytest.param(
        harmonic(), (-0.1, 0.1), numeric.MAX_TIME,
        (PreconditionFailed, "section abscissa must be positive"), id="negative-c",
    ),
    pytest.param(
        harmonic(), (0.0, 0.1), numeric.MAX_TIME,
        (PreconditionFailed, "section abscissa must be positive"), id="zero-c",
    ),
]


@pytest.mark.parametrize("field, c_grid, max_time, want", FALLBACKS)
def test_batch_declines_and_per_sample_route_reports(field, c_grid, max_time, want, monkeypatch):
    monkeypatch.setattr(numeric, "MAX_TIME", max_time)
    if want is None:  # Inconsistent, with the per-sample deltas in the message
        deltas = [return_map(field, c).delta for c in c_grid]
        want = (Inconsistent, f"displacement signs disagree: {deltas}")
    batch = _grid_deltas(field, c_grid)
    assert batch is None or not _batch_decides(batch, 1e-9 * max(c_grid))
    assert outcome(lambda: numeric_classify(field, c_grid)) == want
    assert per_sample_outcome(monkeypatch, field, c_grid) == want


@pytest.mark.parametrize("c", [math.nan, math.inf])
def test_grid_deltas_decline_nonfinite_abscissas(c):
    # left to the per-sample route, whatever it makes of them
    assert _grid_deltas(harmonic(), (0.1, c)) is None


@pytest.mark.parametrize("c", [math.nan, math.inf])
@pytest.mark.parametrize(
    "call",
    [
        lambda c: return_map(harmonic(), c),
        lambda c: period(harmonic(), c),
        lambda c: numeric_classify(harmonic(), (0.1, c)),
    ],
    ids=["return_map", "period", "numeric_classify"],
)
def test_nonfinite_abscissa_is_a_precondition(call, c):
    assert outcome(lambda: call(c)) == (
        PreconditionFailed, "section abscissa must be finite"
    )


def test_tol_in_guard_band_uses_return_map(monkeypatch):
    field = radial_cubic()
    batch = _grid_deltas(field, GRID)
    tol = 0.8 * abs(batch[0])  # |delta(0.05)| lies within tol / 2 of tol
    assert not _batch_decides(batch, tol)
    calls = count_return_maps(monkeypatch)
    assert numeric_classify(field, GRID, tol=tol) == FocusLike(sign=1)
    assert calls == list(GRID)


# perfbench's tracer replaces numeric.solve_ivp and numeric.brentq with
# setattr: its numeric.solve_ivp span and its rhs_evals/steps counters see
# only the calls that look those names up on the module. Binding the
# functions under another name would blind them with nothing else failing.


def test_integrators_call_solve_ivp_through_the_module(monkeypatch):
    methods = []
    original = numeric.solve_ivp

    def counted(*args, **kwargs):
        methods.append(kwargs["method"])
        return original(*args, **kwargs)

    monkeypatch.setattr(numeric, "solve_ivp", counted)
    integrate(harmonic(), 1.0, 0.0, 1.0)
    return_map(radial_cubic(), 0.1)
    period(harmonic(), 0.1)
    assert methods == ["RK45"] * 3
    calls = count_return_maps(monkeypatch)
    assert numeric_classify(radial_cubic(), GRID) == FocusLike(sign=1)
    assert calls == []  # the batch decided: one DOP853 integration, no return map
    assert methods[3:] == ["DOP853"]


def test_section_fallback_calls_brentq_through_the_module(monkeypatch):
    want = return_map(radial_cubic(), 0.1).delta
    brackets = []
    original = numeric.brentq

    def counted(f, lo, hi, **kwargs):
        brackets.append((lo, hi))
        return original(f, lo, hi, **kwargs)

    monkeypatch.setattr(numeric, "brentq", counted)
    # no Newton iterate counts as on the section: the bracketed root decides
    monkeypatch.setattr(numeric, "SECTION_ABS", -1.0)
    got = return_map(radial_cubic(), 0.1).delta
    assert len(brackets) == 1
    assert abs(got - want) < 1e-12
