import csv
import functools
import json
import math
import os
import random
import struct
import subprocess
import sys
import textwrap
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import DOP853, OdeSolution
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.optimize import brentq as scipy_brentq

from centerfocus import (
    BiPoly,
    CenterLike,
    compute_lyapunov,
    evaluate,
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
    poly,
    return_map,
    write_csv,
)
from centerfocus.cli import parse_system
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


def test_find_equilibria_drops_seeds_whose_newton_update_overflows():
    # x' = -y + 10^200 y^3, y' = x + 10^200 y^3: for most seeds a Newton
    # update is not finite, which ends their search; only the origin remains
    assert find_equilibria(nl_field({(0, 3): 10**200}, {(0, 3): 10**200})) == [(0.0, 0.0)]


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


@pytest.mark.parametrize(
    "call",
    [
        lambda field: evaluate(field.p, 0.1, 0.0),
        lambda field: find_equilibria(field),
        lambda field: integrate(field, 0.1, 0.0, 1.0),
        lambda field: numeric_classify(field, (0.1,)),
    ],
    ids=["evaluate", "find_equilibria", "integrate", "numeric_classify"],
)
def test_coefficient_beyond_the_float_range_is_a_precondition(call):
    # 10^400 has no float: the kernel is never built, and the error names
    # the term, not the coefficient's 401 digits
    with pytest.raises(
        PreconditionFailed, match=r"^coefficient of x\^2 y\^0 lies outside the float range$"
    ):
        call(nl_field({(2, 0): 10**400}, {}))


def test_grid_batch_declines_on_a_kernel_overflow(monkeypatch):
    # the batch declines, and the per-sample route reports the overflow at 1.5
    field = nl_field({(2000, 0): 1}, {})
    assert _grid_deltas(field, (0.1, 1.5)) is None
    calls = count_return_maps(monkeypatch)
    with pytest.raises(StepFailure, match="OverflowError"):
        numeric_classify(field, (0.1, 1.5))
    assert calls == [0.1, 1.5]


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


def test_dop853_has_no_dense_output_or_events():
    # no caller passes events to it; SciPy's DOP853 interpolant needs three more stages
    with pytest.raises(ValueError, match="events need the RK45 tableau"):
        numeric.solve_ivp(
            lambda t, s: (-s[1], s[0]), (0.0, 1.0), (1.0, 0.0), method="DOP853",
            events=[lambda t, s: s[1]],
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


def test_overflowing_norm_warns_nothing():
    # test_owned_rk45_overflowing_step_estimate_matches_scipy's run, with
    # NumPy's overflow warnings made errors: the dots that overflow inside
    # solve_ivp warn nothing, so the step failure is what surfaces
    field = nl_field({(2, 0): 10**150}, {})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(StepFailure, match="less than spacing"):
            integrate(field, 0.1, 0.0, 1.0)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_squared_norm_is_numpys():
    # DOP853 squares np.linalg.norm's root with libm's pow, which rounds
    # differently from r * r in about one case in a thousand
    rng = np.random.default_rng(5)
    vs = rng.standard_normal((20000, 6)) * 10.0 ** rng.integers(-150, 150, (20000, 1))
    assert all(numeric._squared_norm(v) == np.linalg.norm(v) ** 2 for v in vs)
    # the largest root of a finite dot squares to a finite float, and a dot
    # that overflows gives inf on both sides
    top = np.array([math.sqrt(sys.float_info.max)])
    assert numeric._squared_norm(top) == np.linalg.norm(top) ** 2 < math.inf
    assert numeric._squared_norm(np.array([1e200])) == np.linalg.norm([1e200]) ** 2 == math.inf


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_owned_dop853_zero_error_denominator_is_nan_as_in_scipy(monkeypatch):
    # f is v at t = 0 and 0 after, so K's only nonzero row is f(0) = v and
    # every step from t = 0 has err5 / scale = 6.6e-163, which squares to 0,
    # and err3 / scale = 9.5e-162, which squares to 9e-323; 0.01 times that
    # underflows to 0, so the norm is 0 / 0. NumPy makes that nan, which
    # rejects every step until the step size fails.
    v = 5e-161 * (numeric.ABS_TOL + numeric.REL_TOL)  # the error scale at y = 1

    def fun(t, y):
        return [v if t == 0.0 else 0.0]

    norms = []
    original = DOP853._estimate_error_norm

    def spy(self, K, h, scale):
        norms.append(original(self, K, h, scale))
        return norms[-1]

    monkeypatch.setattr(DOP853, "_estimate_error_norm", spy)
    want = scipy_solve_ivp(
        fun, (0.0, 1.0), [1.0], method="DOP853", rtol=numeric.REL_TOL, atol=numeric.ABS_TOL
    )
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


@pytest.mark.parametrize("f, maxiter", [
    pytest.param(lambda x: x + 1.0, numeric.BRENTQ_MAXITER, id="same-sign"),
    pytest.param(lambda x: math.nan if x > 0.4 else x - 0.5, numeric.BRENTQ_MAXITER, id="nan-at-b"),
    pytest.param(
        lambda x: math.nan if 0.3 < x < 0.7 else x - 0.5, numeric.BRENTQ_MAXITER, id="nan-inside"
    ),
    pytest.param(lambda x: x**3 - 0.3, 2, id="maxiter"),
])
def test_brentq_errors_are_scipys(f, maxiter):
    # at the section fallback's tolerances, numeric.brentq's
    want = brentq_outcome(lambda: scipy_brentq(f, 0, 1, xtol=1e-15, maxiter=maxiter))
    assert isinstance(want, tuple)
    got = brentq_outcome(
        lambda: numeric._brentq(f, 0.0, 1.0, 1e-15, numeric.EVENT_TOL, maxiter)
    )
    assert got == want


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
    # events keep the dense solution, and both run forward only
    with pytest.raises(ValueError, match="events run forward only"):
        numeric.solve_ivp(lambda t, y: y, (1.0, 0.0), [1.0], events=[lambda t, y: y[0]])


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


def per_sample_outcome(monkeypatch, field, c_grid):
    """numeric_classify with the batch declining: one return map per point."""
    with monkeypatch.context() as m:
        m.setattr(numeric, "_grid_deltas", lambda *args: None)
        return outcome(lambda: numeric_classify(field, c_grid))


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
    # x' = -y + a x r^2, y' = x + a y r^2 has delta(c) ~ 2 pi a c^3, so this a
    # puts |delta(0.05)| at 0.8 tol, within tol / 2 of the default tol
    tol = 1e-9 * max(GRID)
    a = 0.8 * tol / (TWO_PI * 0.05**3)
    field = nl_field({(3, 0): a, (1, 2): a}, {(2, 1): a, (0, 3): a})
    batch = _grid_deltas(field, GRID)
    assert abs(abs(batch[0]) / tol - 0.8) < 1e-3
    assert not _batch_decides(batch, tol)
    calls = count_return_maps(monkeypatch)
    assert numeric_classify(field, GRID) == FocusLike(sign=1)
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


def test_section_fallback_refines_a_large_orbit(monkeypatch):
    # at c = 1e3 no Newton iterate brings |y| under SECTION_ABS, so the
    # bracketed root decides; the harmonic orbit returns to c itself
    linear = Path(__file__).parent / "data" / "cli" / "linear.json"
    _, field, _ = parse_system(linear.read_text())
    calls = []
    original = numeric.brentq

    def counted(f, lo, hi):
        calls.append((lo, hi))
        return original(f, lo, hi)

    monkeypatch.setattr(numeric, "brentq", counted)
    c = 1e3
    sample = return_map(field, c)
    assert len(calls) == 1
    assert abs(sample.delta) <= 1e-11 * c


@pytest.mark.parametrize("call", [return_map, period], ids=["return_map", "period"])
def test_blow_up_ends_in_a_step_failure(call):
    # r' = r^3 from r = 1 reaches infinity at t = 1/2, before any return
    with pytest.raises(StepFailure) as exc:
        call(radial_cubic(), 1.0)
    assert str(exc.value) == "Required step size is less than spacing between numbers."


# -- the generated step loops across state sizes --------------------------------

STATE_SIZES = (1, 2, 3, 4, 5, 6, 8, 12)


def linear_cubic_system(seed, n):
    """A seeded y_i' = sum_j M_ij y_j + b_i y_(i+1)^3 + e_i t on n floats,
    entries in [-1, 1] / sqrt(n), and a start point in [-1, 1]^n.

    The t term makes each stage's time matter. ``fun`` reads the state as
    either loop passes it (a list here, an ndarray in SciPy) and works on
    Python floats, so both loops see the same values."""
    rng = random.Random(seed)
    w = 1 / math.sqrt(n)
    m = [[rng.uniform(-w, w) for _ in range(n)] for _ in range(n)]
    b = [rng.uniform(-w, w) for _ in range(n)]
    e = [rng.uniform(-w, w) for _ in range(n)]
    y0 = [rng.uniform(-1.0, 1.0) for _ in range(n)]

    def fun(t, s):
        v = [float(a) for a in s]
        out = []
        for i in range(n):
            total = 0.0
            for mij, vj in zip(m[i], v):
                total += mij * vj
            u = v[(i + 1) % n]
            out.append(total + b[i] * (u * u * u) + e[i] * float(t))
        return out

    return fun, y0


def scipy_run(fun, t_span, y0, method, **kwargs):
    return scipy_solve_ivp(
        fun, t_span, y0, method=method, rtol=numeric.REL_TOL, atol=numeric.ABS_TOL, **kwargs
    )


@pytest.mark.parametrize("n", STATE_SIZES)
@pytest.mark.parametrize("method", ["RK45", "DOP853"])
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), t_end=st.floats(0.1, 1.0), backward=st.booleans())
def test_generated_step_loop_matches_scipy(method, n, seed, t_end, backward):
    fun, y0 = linear_cubic_system(seed, n)
    t_span = (0.0, -t_end if backward else t_end)
    got = numeric.solve_ivp(fun, t_span, y0, method=method)
    same_run(got, scipy_run(fun, t_span, y0, method))


def angle_events(pq):
    """The first return's two terminal events, on the angle-augmented state."""

    def turn_done(_t, s):
        return float(s[2]) - TWO_PI

    def stalled(_t, s):
        x, y = float(s[0]), float(s[1])
        px, qx = pq(x, y)
        return x * qx - y * px

    turn_done.terminal = stalled.terminal = True
    turn_done.direction, stalled.direction = 1.0, -1.0
    return turn_done, stalled


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_generated_step_loop_with_events_matches_scipy(seed):
    # x' = -y + linear + cubic, y' = x + linear + cubic, theta' as in
    # _first_return: RK45 with its two events on a state of 3 floats
    rng = random.Random(seed)
    a = [rng.uniform(-0.2, 0.2) for _ in range(4)]
    b = [rng.uniform(-1.0, 1.0) for _ in range(8)]
    c = rng.uniform(0.05, 0.5)

    def pq(x, y):
        cubic = (x * x * x, x * x * y, x * y * y, y * y * y)
        px = -y + a[0] * x + a[1] * y + sum(k * m for k, m in zip(b[:4], cubic))
        qx = x + a[2] * x + a[3] * y + sum(k * m for k, m in zip(b[4:], cubic))
        return px, qx

    def rhs(_t, s):
        x, y = float(s[0]), float(s[1])
        px, qx = pq(x, y)
        return [px, qx, (x * qx - y * px) / (x * x + y * y)]

    events = angle_events(pq)
    got = numeric.solve_ivp(rhs, (0.0, 50.0), [c, 0.0, 0.0], events=events)
    want = scipy_run(rhs, (0.0, 50.0), [c, 0.0, 0.0], "RK45", dense_output=True, events=events)
    same_run(got, want)
    ts = [*np.linspace(want.t[0], want.t[-1], 17), *np.concatenate(want.t_events)]
    assert all(same_array(got.sol(float(t)), want.sol(t)) for t in ts)


@pytest.mark.parametrize("shape, direction", [
    ("zero at a step end", 1.0),
    ("zero at a step end", -1.0),
    ("touches zero at a step time", 1.0),
    ("starts past zero", 1.0),
    ("starts past zero", -1.0),
])
def test_event_sign_tests_match_scipy(shape, direction):
    # the loop's sign tests at their edges, on the rotation from (1, 0):
    # an event exactly 0 at a step's end fires on that step; one that only
    # touches 0 there fires on the next, at its start; and one that starts
    # on the far side of 0 fires only where it later crosses in its direction
    def fun(_t, s):
        return [-float(s[1]), float(s[0])]

    t_step = float(numeric.solve_ivp(fun, (0.0, 10.0), [1.0, 0.0]).t[5])
    value = {
        "zero at a step end": lambda t: t - t_step,
        "touches zero at a step time": lambda t: (t - t_step) ** 2,
        "starts past zero": math.cos,
    }[shape]

    def event(t, _s):
        return direction * value(float(t))

    event.terminal, event.direction = True, direction
    got = numeric.solve_ivp(fun, (0.0, 10.0), [1.0, 0.0], events=[event])
    want = scipy_run(fun, (0.0, 10.0), [1.0, 0.0], "RK45", dense_output=True, events=[event])
    assert want.status == 1
    same_run(got, want)
    # one interpolant per step, and the last step's beyond the end
    assert len(got.sol.interpolants) == len(want.t) - 1
    ts = [*want.t, *want.t_events[0], want.t[-1] + 0.5]
    assert all(same_array(got.sol(float(t)), want.sol(t)) for t in ts)


# -- the first return's events, inline and called --------------------------------
#
# _turn_done and the angle frame's stalled event carry sources, expressions
# the step loop evaluates at a step's end in place of calling them. Wrapped
# as plain functions, with the same direction and no source, they are
# called there instead; the run must not tell the two apart.


def sourceless(event):
    """event as a plain function: the same values and direction, no source."""

    def call(t, s):
        return event(t, s)

    call.direction = event.direction
    return call


def quadratic_field(seed):
    """x' = -y + quadratic, y' = x + quadratic, coefficients in [-1, 1] by
    quarters: about half of them stall the angle within t = 20 from
    c in [0.2, 1.1]."""
    rng = random.Random(seed)
    monomials = [(2, 0), (1, 1), (0, 2)]
    return nl_field(*({m: Fraction(rng.randint(-4, 4), 4) for m in monomials} for _ in "pq"))


def angle_run(rhs, c, theta0, events=None):
    """The first return's integration from (c, 0, theta0), cut at t = 20
    and 50 000 field evaluations, or the type of its float error."""
    try:
        return numeric.solve_ivp(
            rhs, (0.0, 20.0), (c, 0.0, theta0), events=events, max_nfev=50_000
        )
    except (OverflowError, ZeroDivisionError) as exc:
        return type(exc)


def tied_step(rhs, stalled, c):
    """A start angle theta0 and a step on which both events change sign:
    the first fall of x q - y p through 0, and theta's rise through 2 pi.
    None when no such start is found.

    The steps come from a run without events, which takes the same steps;
    theta0 moves the error scale, and so the steps, a little, hence a
    few corrections."""
    theta0 = 0.0
    for _ in range(4):
        run = angle_run(rhs, c, theta0)
        if not isinstance(run, numeric.IvpResult):
            return None
        states = run.y.T.tolist()
        values = [stalled(t, s) for t, s in zip(run.t, states)]
        k = next((k for k in range(len(values) - 1) if values[k] >= 0.0 >= values[k + 1]), None)
        if k is None:
            return None
        a, b = states[k][2] - TWO_PI, states[k + 1][2] - TWO_PI
        if a <= 0.0 <= b:
            return theta0, run.t[k]
        theta0 -= (a + b) / 2
    return None


def same_event_runs(rhs, stalled, c, theta0):
    """Run the first return's events inline and called from (c, 0, theta0),
    check that the two runs agree to the bit, and return the inline one."""
    inline = (numeric._turn_done, stalled)
    assert all(isinstance(ev.source, str) for ev in inline)
    got = angle_run(rhs, c, theta0, inline)
    want = angle_run(rhs, c, theta0, [sourceless(ev) for ev in inline])
    if not isinstance(want, numeric.IvpResult):
        assert got is want
        return got
    same_run(got, want)
    assert len(got.t_events) == 2
    ts = want.t.tolist()
    inside = [a + (b - a) * w for a, b in zip(ts, ts[1:]) for w in (0.3, 0.7)]
    for t in ts + inside + np.concatenate(want.t_events).tolist():
        assert same_array(got.sol(t), want.sol(t)), t
    return got


def test_event_sources_read_the_field_at_each_step_end(monkeypatch):
    # a source sees the loop's t, state and f row at the start and at
    # every step's end; the f row must be the field there, the floats
    # stalled's source takes for x q - y p
    seen = []

    def probe(*values):
        seen.append(values)
        return 1.0

    monkeypatch.setattr(numeric, "_probe", probe, raising=False)

    def event(_t, _s):
        return 1.0

    event.direction = 1.0
    event.source = "_probe(t, y0, y1, y2, f0, f1, f2)"
    field = seeded_focus_field("cubic", 1)
    rhs, _ = numeric.float_code((field.p, field.q), numeric._ANGLE_FRAME)
    run = numeric.solve_ivp(rhs, (0.0, 2.0), (0.3, 0.0, 0.0), events=[event])
    assert run.status == 0 and len(seen) == len(run.t) > 10
    for (t, y0, y1, y2, *f), t_run, y_run in zip(seen, run.t, run.y.T):
        assert t == t_run and same_array([y0, y1, y2], y_run)
        assert same_array(f, rhs(t, [y0, y1, y2]))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), c=st.floats(0.2, 1.1), tie=st.booleans())
def test_inline_event_sources_match_called_events(seed, c, tie):
    field = quadratic_field(seed)
    rhs, stalled = numeric.float_code((field.p, field.q), numeric._ANGLE_FRAME)
    start = tied_step(rhs, stalled, c) if tie else None
    same_event_runs(rhs, stalled, c, start[0] if start else 0.0)


@pytest.mark.parametrize("seed, c", [(3, 0.65), (11, 0.8), (32, 0.8), (55, 1.1)])
def test_events_on_one_step_match_called_events(seed, c):
    # seeds whose angle stalls: from theta = 0 the stalled event ends the
    # run, and from the tied start both events change sign on its last
    # step. theta peaks where it stalls, so it passes 2 pi first, and the
    # first root in time, turn_done's, ends the run.
    field = quadratic_field(seed)
    rhs, stalled = numeric.float_code((field.p, field.q), numeric._ANGLE_FRAME)
    run = same_event_runs(rhs, stalled, c, 0.0)
    assert run.status == 1 and len(run.t_events[1]) == 1
    theta0, t_old = tied_step(rhs, stalled, c)
    run = same_event_runs(rhs, stalled, c, theta0)
    assert run.status == 1 and run.t[-2] == t_old
    assert (len(run.t_events[0]), len(run.t_events[1])) == (1, 0)


def test_dop853_step_loop_runs_a_thousand_point_grid():
    # classify --c with 1 000 points asks for DOP853 on 2 000 floats: one
    # generated function of that size compiles (no RecursionError) and
    # steps as SciPy does
    n = 2000
    rates = [-1.0 + i / n for i in range(n)]

    def fun(t, s):
        return [k * float(v) + 0.5 * float(t) for k, v in zip(rates, s)]

    y0 = [1.0 + i / n for i in range(n)]
    got = numeric.solve_ivp(fun, (0.0, 0.05), y0, method="DOP853")
    same_run(got, scipy_run(fun, (0.0, 0.05), y0, "DOP853"))


def test_backward_min_step_is_the_spacing_toward_the_end_time():
    # from t = -1.0, a power of two, the float spacing toward -inf is twice
    # the spacing toward +inf: a backward first step of 1.5e-15 is below
    # SciPy's minimum of 10 spacings toward the end time (2.2e-15) and is
    # raised to it, where 10 spacings the other way (1.1e-15) would keep it
    def fun(_t, s):
        return [-float(s[1]), float(s[0])]

    t0, t_end, h0 = -1.0, -1.0 - 1e-13, 1.5e-15
    want = scipy_run(fun, (t0, t_end), [1.0, 0.0], "RK45", first_step=h0)
    loop = numeric._step_loop(numeric._TABLEAUX["RK45"], 2)
    status, nfev, ts, ys, _, _ = loop(
        fun, t0, [1.0, 0.0], fun(t0, [1.0, 0.0]), h0, t_end, -1.0, math.inf, ()
    )
    assert t0 - ts[1] == 10 * (t0 - math.nextafter(t0, -math.inf))
    assert same_array(ts, want.t) and same_array(np.reshape(ys, (-1, 2)).T, want.y)
    # the loop counts select_initial_step's two evaluations; SciPy, given
    # a first step, made only its constructor's one
    assert (status, nfev) == (want.status, want.nfev + 1)


# -- magnitudes without abs calls ------------------------------------------------
#
# The step loop takes |y|, |y_new| by comparisons, and |h| and the minimum
# step's spacing by multiplying with direction. Against the abs calls they
# replaced, on the float edge cases: signed zeros, NaNs of either sign,
# infinities and subnormals.

float_edges = st.one_of(
    st.sampled_from([
        0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
        2.2250738585072014e-308, -2.2250738585072014e-308, sys.float_info.max, 1e-300, -1.0,
    ]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)


def abs_error_scale(n):
    """The error scale as the loop took it with abs calls."""
    lines = []
    for i in range(n):
        lines += [f"a = abs(y{i})", f"b = abs(z{i})", f"s{i} = atol + (a if a >= b else b) * rtol"]
    return lines


def scale_function(lines):
    """The error scale lines of one float as a function of (y0, z0)."""
    namespace = {"atol": numeric.ABS_TOL, "rtol": numeric.REL_TOL}
    exec("def scale(y0, z0):\n    " + "\n    ".join(lines) + "\n    return s0", namespace)
    return namespace["scale"]


@settings(max_examples=400, deadline=None)
@given(y=float_edges, z=float_edges)
def test_error_scale_comparisons_match_abs(y, z):
    got = scale_function(numeric._error_scale(1))
    want = scale_function(abs_error_scale(1))
    assert float_bits(lambda: got(y, z)) == float_bits(lambda: want(y, z))


@functools.cache
def abs_step_loop(method, n):
    """The step loop of method on n floats as built with abs calls for the
    error scale, |h| and the minimum step's spacing."""
    template = numeric._STEP_LOOP
    for new, old in [
        ("10 * (direction * (nextafter(t, toward) - t))", "10 * abs(nextafter(t, toward) - t)"),
        ("h_abs = direction * h", "h_abs = abs(h)"),
    ]:
        assert template.count(new) == 1
        template = template.replace(new, old)
    saved = numeric._STEP_LOOP, numeric._error_scale
    numeric._STEP_LOOP, numeric._error_scale = template, abs_error_scale
    try:
        return numeric._step_loop.__wrapped__(numeric._TABLEAUX[method], n)
    finally:
        numeric._STEP_LOOP, numeric._error_scale = saved


@settings(max_examples=200, deadline=None)
@given(
    method=st.sampled_from(["RK45", "DOP853"]),
    n=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    t0=st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, sys.float_info.max]),
        st.floats(allow_nan=False, allow_infinity=False),
    ),
    span=st.sampled_from([1e-300, 1e-12, 0.5, 1e300, math.inf]),
    backward=st.booleans(),
    h_abs=st.sampled_from([5e-324, 1e-300, 1e-3, 0.1, 1e300, math.inf]),
    y0=st.lists(float_edges, min_size=3, max_size=3),
    edge=st.booleans(),
)
def test_step_loop_without_abs_calls_matches_the_abs_form(
    method, n, seed, t0, span, backward, h_abs, y0, edge
):
    # whole runs, from start times and states at the float edges, capped
    # at 3 000 field evaluations: the same steps, states and status
    fun, start = linear_cubic_system(seed, n)
    if edge:
        start = y0[:n]
    direction = -1.0 if backward else 1.0
    t_bound = t0 + direction * span
    if t_bound == t0:
        return  # an empty span takes no step
    f = fun(t0, start)
    loops = (numeric._step_loop(numeric._TABLEAUX[method], n), abs_step_loop(method, n))
    # a dot of infinite or NaN stages warns; solve_ivp's callers see no state like it
    with np.errstate(over="ignore", invalid="ignore"):
        (status, nfev, ts, ys), want = (
            loop(fun, t0, list(start), f, h_abs, t_bound, direction, 3000, ())[:4]
            for loop in loops
        )
    assert (status, nfev) == want[:2]
    assert float_bits(lambda: ts) == float_bits(lambda: want[2])
    assert float_bits(lambda: ys) == float_bits(lambda: want[3])


@functools.cache
def int_factor_step_loop(method, n):
    """The step loop of method on n floats as built with the int constants
    of the step control: ``min(1, factor)`` here, and the run must set
    MAX_FACTOR to the int 10."""
    template = numeric._STEP_LOOP
    assert template.count("min(1.0, factor)") == 1
    saved = numeric._STEP_LOOP
    numeric._STEP_LOOP = template.replace("min(1.0, factor)", "min(1, factor)")
    try:
        return numeric._step_loop.__wrapped__(numeric._TABLEAUX[method], n)
    finally:
        numeric._STEP_LOOP = saved


@pytest.mark.parametrize("method", ["RK45", "DOP853"])
def test_float_step_factors_match_the_int_form(method, monkeypatch):
    # f is 0 until t = 0.25, so each step's error is 0.0 and the step grows
    # by MAX_FACTOR; the step across 0.25 meets the linear-cubic field and
    # is rejected, and the steps after a rejection take min(1.0, factor).
    # Both factors as floats take the int form's steps to the bit.
    system, y0 = linear_cubic_system(7, 2)

    def fun(t, s):
        return [0.0, 0.0] if t < 0.25 else system(t, s)

    runs = []
    for loop, max_factor in [
        (numeric._step_loop(numeric._TABLEAUX[method], 2), 10.0),
        (int_factor_step_loop(method, 2), 10),
    ]:
        monkeypatch.setattr(numeric, "MAX_FACTOR", max_factor)
        runs.append(loop(fun, 0.0, list(y0), fun(0.0, y0), 1e-6, 2.0, 1.0, math.inf, ())[:4])
    (status, nfev, ts, ys), want = runs
    assert (status, nfev) == want[:2] and status == 0
    assert float_bits(lambda: ts) == float_bits(lambda: want[2])
    assert float_bits(lambda: ys) == float_bits(lambda: want[3])
    # the error was 0.0 on the first steps: each is ten times the last
    assert ts[2] - ts[1] == 10.0 * (ts[1] - ts[0]) and ts[3] - ts[2] == 10.0 * (ts[2] - ts[1])
    # and some step was rejected: one evaluation per stage and attempt,
    # plus the 2 of the initial step, and more attempts than steps
    assert (nfev - 2) // len(numeric._TABLEAUX[method].C) > len(ts) - 1


def test_step_loops_are_built_lazily_and_once():
    # a fresh process: importing numeric and a symbolic command build no
    # step loop and no frame. Each (frame, monomial support) compiles its
    # frame once and each (tableau, state size, events, inlined sums) its
    # loop once: more orbits, first returns and grids on the same field,
    # or on another with the same support, compile nothing; a new support
    # compiles its frame and its loop again.
    script = textwrap.dedent("""
        import contextlib, io, json
        from centerfocus import get, integrate, numeric, period, poly, return_map
        from centerfocus.cli import main

        def built():
            return [numeric._step_loop.cache_info().misses, poly._factory.cache_info().misses]

        seen = [built()]
        with contextlib.redirect_stdout(io.StringIO()):
            main(["analyze", "--input", "bautin.json", "--order", "12"])
        seen.append(built())
        field = get("bautin", lam3=1, lam6=1).field
        other = get("bautin", lam3=-2, lam6=1).field
        supports = [poly.float_support((f.p, f.q))[0] for f in (field, other)]
        integrate(field, 0.1, 0.0, 1.0)
        integrate(field, 0.2, 0.0, 2.0)
        integrate(other, 0.1, 0.0, 1.0)
        seen.append(built())
        return_map(field, 0.1)
        return_map(field, 0.2)
        period(other, 0.1)
        seen.append(built())
        numeric._grid_deltas(field, (0.05, 0.1))
        numeric._grid_deltas(other, (0.05, 0.1))
        seen.append(built())
        integrate(get("bautin", lam2=1).field, 0.1, 0.0, 1.0)
        seen.append(built())
        print(json.dumps([seen, supports[0] == supports[1]]))
    """)
    src = Path(numeric.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    flags = ["-O"] * sys.flags.optimize
    out = subprocess.run(
        [sys.executable, *flags, "-c", script],
        cwd=Path(__file__).parent / "data" / "cli", env=env,
        capture_output=True, text=True, timeout=120, check=True,
    )
    seen, same_support = json.loads(out.stdout)
    assert same_support
    assert seen == [[0, 0], [0, 0], [1, 1], [2, 2], [3, 3], [4, 4]]


# -- the generated right-hand sides against the closures they replaced ----------
#
# integrate, _first_return and _grid_deltas hand the step loop functions
# compiled from numeric's frames, with the field's sums inlined. Each must
# give the bits, or raise the error, of the closure over the plain
# float_code((p, q)) kernel that it replaced, rebuilt here.


def closure_frames(pq):
    """The right-hand sides and the event as closures over pq."""
    cos, sin = math.cos, math.sin

    def orbit(_t, s):
        return pq(*s)

    def angle(_t, s):
        x, y, _ = s
        px, qx = pq(x, y)
        return (px, qx, (x * qx - y * px) / (x * x + y * y))

    def stalled(_t, s):
        x, y, _ = s
        px, qx = pq(x, y)
        return x * qx - y * px

    def grid(theta, s):
        n = len(s) // 2
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

    return orbit, angle, stalled, grid


def generated_frames(p, q):
    """The same four, compiled from numeric's frames."""
    orbit = numeric.float_code((p, q), numeric._ORBIT_FRAME)
    angle, stalled = numeric.float_code((p, q), numeric._ANGLE_FRAME)
    grid = numeric.float_code((p, q), numeric._GRID_FRAME)
    return orbit, angle, stalled, grid


def float_bits(call):
    """The bits of call()'s float or floats, or the type of its float
    error (ValueError: cos or sin of an infinite angle).

    Every NaN is the one token "nan": the sign and payload bits of a NaN
    that CPython's float arithmetic makes depend on which of its code
    paths ran, which changes as the interpreter warms up (the same frame
    and closure, rebuilt on one input, agree at first and then differ),
    and nothing the engine prints shows them."""
    try:
        value = call()
    except (OverflowError, ZeroDivisionError, ValueError) as exc:
        return type(exc)
    values = value if isinstance(value, (list, tuple)) else (value,)
    return ["nan" if math.isnan(v) else struct.pack("<d", v) for v in values]


frame_coords = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e200, -1e200, 5e-324, 1e-160]),
    st.floats(-2.0, 2.0),
    st.floats(allow_nan=True, allow_infinity=True),
)
frame_fields = st.dictionaries(
    st.tuples(st.integers(0, 9), st.integers(0, 9)),
    st.fractions(min_value=-100, max_value=100, max_denominator=50),
    max_size=8,
)


@settings(max_examples=300, deadline=None)
@given(
    p_terms=frame_fields,
    q_terms=frame_fields,
    x=frame_coords,
    y=frame_coords,
    theta=frame_coords,
    grid=st.lists(frame_coords, min_size=2, max_size=8).filter(lambda v: len(v) % 2 == 0),
)
def test_generated_frames_match_the_closures_bitwise(p_terms, q_terms, x, y, theta, grid):
    p, q = BiPoly(p_terms), BiPoly(q_terms)
    got = generated_frames(p, q)
    want = closure_frames(numeric.float_code((p, q)))
    assert got[2].direction == -1.0
    cases = [
        ("orbit", (0.0, [x, y])),
        ("angle", (0.0, [x, y, theta])),
        ("stalled", (0.0, [x, y, theta])),
        ("grid", (theta, grid)),
        ("grid", (theta, [x, y, 1.0, -0.0])),
    ]
    names = ("orbit", "angle", "stalled", "grid")
    for name, args in cases:
        k = names.index(name)
        assert float_bits(lambda: got[k](*args)) == float_bits(lambda: want[k](*args)), name


@pytest.mark.parametrize("x, y", [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0)])
def test_angle_frame_divides_by_zero_at_the_origin(x, y):
    # theta' = (x q - y p) / (x^2 + y^2) has no value at the origin: the
    # generated right-hand side raises there, as the closure did, and the
    # stalled event, which does not divide, does not
    field = bautin_field(1, 1, 1, 1, 1)
    angle, stalled = numeric.float_code((field.p, field.q), numeric._ANGLE_FRAME)
    with pytest.raises(ZeroDivisionError):
        angle(0.0, [x, y, 0.0])
    assert stalled(0.0, [x, y, 0.0]) == 0.0
    grid = numeric.float_code((field.p, field.q), numeric._GRID_FRAME)
    with pytest.raises(ZeroDivisionError):
        grid(0.3, [0.0, 0.0])


def test_every_frame_raises_on_a_power_out_of_range():
    # x^2000 leaves the float range at x = 1.5 in every frame
    orbit, angle, stalled, grid = generated_frames(
        BiPoly({(0, 1): -1, (2000, 0): 1}), BiPoly({(1, 0): 1})
    )
    calls = [
        lambda: orbit(0.0, [1.5, 0.0]),
        lambda: angle(0.0, [1.5, 0.0, 0.0]),
        lambda: stalled(0.0, [1.5, 0.0, 0.0]),
        lambda: grid(0.0, [1.5, 0.0]),
    ]
    for call in calls:
        with pytest.raises(OverflowError):
            call()


# -- the field's sums written into the step loop, against the frames called ------
#
# integrate's and _first_return's right-hand sides carry a source, so the step
# loop writes the field's sums into each stage, the FSAL stage included, in
# place of calling them. Wrapped as plain functions, with no source, they are
# called there instead; the runs must not tell the two apart.


def called(rhs):
    """rhs as a plain function: the same values, no source."""

    def call(t, s):
        return rhs(t, s)

    return call


def frame_runs(field, frame, start, t_end):
    """The runs of frame's right-hand side from start to t_end, written
    into the loop and called, each an IvpResult or the message of the
    StepFailure it ends in. The angle frame runs with the first return's
    two events, written into the loop both times."""
    made = numeric.float_code((field.p, field.q), frame)
    if frame is numeric._ANGLE_FRAME:
        rhs, events = made[0], (numeric._turn_done, made[1])
    else:
        rhs, events = made, None
    assert rhs.source[0] == poly.float_support((field.p, field.q))[0]
    runs = []
    for fun in (rhs, called(rhs)):
        try:
            with numeric._float_range():
                runs.append(
                    numeric.solve_ivp(fun, (0.0, t_end), start, events=events, max_nfev=20_000)
                )
        except StepFailure as exc:
            runs.append(str(exc))
    return runs


def same_frame_runs(got, want):
    if isinstance(want, str):
        assert got == want
        return
    same_run(got, want)
    if want.sol is None:
        assert got.sol is None
        return
    ts = want.t.tolist()
    inside = [a + (b - a) * w for a, b in zip(ts, ts[1:]) for w in (0.3, 0.7)]
    for t in ts + inside + np.concatenate(want.t_events).tolist():
        assert same_array(got.sol(t), want.sol(t)), t


def cubic_sums_field(seed, power):
    """x' = -y + quadratic + cubic, y' = x + quadratic + cubic, coefficients
    in [-1, 1] by quarters, each with nonzero y^2 and y^3 terms: on the
    angle state (x, y, theta) the power _y2 sits beside the state's y2.
    With ``power``, p also has 1e-200 x^400, which overflows x**400 inside
    a stage once |x| passes about 5.9."""
    rng = random.Random(seed)
    monomials = [(2, 0), (1, 1), (3, 0), (2, 1), (1, 2)]

    def terms():
        out = {m: Fraction(rng.randint(-4, 4), 4) for m in monomials}
        out.update({(0, 2): Fraction(rng.choice([-2, -1, 1, 2]), 4),
                    (0, 3): Fraction(rng.choice([-2, -1, 1, 2]), 4)})
        return out

    p, q = terms(), terms()
    if power:
        p[(400, 0)] = Fraction(1e-200)
    return nl_field(p, q)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    c=st.one_of(st.floats(0.05, 1.2), st.sampled_from([0.0, 2e-162, 5.0])),
    power=st.booleans(),
    t_end=st.floats(0.5, 10.0),
    backward=st.booleans(),
)
# x^400 overflows inside a stage of both frames' runs from c = 5
@example(seed=1, c=5.0, power=True, t_end=5.0, backward=False)
# from c = 2e-162, x^2 + y^2 underflows to 0 inside a stage of the angle run
@example(seed=2, c=2e-162, power=False, t_end=10.0, backward=False)
# at the origin itself the angle frame divides by zero before the first step
@example(seed=3, c=0.0, power=False, t_end=1.0, backward=False)
def test_inlined_frames_match_the_frames_called(seed, c, power, t_end, backward):
    # the orbit also runs backward, where h < 0 < |h|; events run forward only
    field = cubic_sums_field(seed, power)
    orbit_end = -t_end if backward else t_end
    same_frame_runs(*frame_runs(field, numeric._ORBIT_FRAME, (c, 0.0), orbit_end))
    same_frame_runs(*frame_runs(field, numeric._ANGLE_FRAME, (c, 0.0, 0.0), t_end))


@pytest.mark.parametrize("seed, c, power, frame, message", [
    (1, 5.0, True, "orbit", "OverflowError"),
    (1, 5.0, True, "angle", "OverflowError"),
    (2, 2e-162, False, "angle", "ZeroDivisionError"),
])
def test_inlined_frames_fail_inside_a_stage_as_the_calls_do(seed, c, power, frame, message):
    # the Hypothesis examples above that fail inside the loop: the start
    # point itself evaluates, and a later stage raises, inline and called
    field = cubic_sums_field(seed, power)
    frame, start = {
        "orbit": (numeric._ORBIT_FRAME, (c, 0.0)), "angle": (numeric._ANGLE_FRAME, (c, 0.0, 0.0)),
    }[frame]
    made = numeric.float_code((field.p, field.q), frame)
    (made[0] if isinstance(made, tuple) else made)(0.0, list(start))
    got, want = frame_runs(field, frame, start, 10.0)
    assert got == want and want.startswith(f"field evaluation failed: {message}")


CACHE_SCRIPT = """
import hashlib, json, sys
from centerfocus import get, integrate, numeric, period, return_map

def digest(*arrays):
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()

out = []
for lam3, lam6 in json.loads(sys.argv[1]):
    field = get("bautin", lam3=lam3, lam6=lam6).field
    traj = integrate(field, 0.1, 0.0, 5.0)
    sol = numeric._first_return(field, 0.2)[3]
    out.append([
        digest(traj.t, traj.x, traj.y),
        digest(sol.t, sol.y, *sol.t_events),
        repr(return_map(field, 0.1)),
        repr(period(field, 0.15)),
        repr(numeric._grid_deltas(field, (0.05, 0.1, 0.2))),
    ])
print(json.dumps(out))
"""


def test_fields_of_one_support_keep_their_own_coefficients():
    # two Bautin fields with the same monomials share every compiled frame
    # and step loop; run one after the other in one process, in either
    # order, each gives the bytes it gives alone in a fresh process
    fields = [[1, 1], [-2, 1]]
    env = {**os.environ, "PYTHONPATH": str(Path(numeric.__file__).resolve().parents[1])}
    flags = ["-O"] * sys.flags.optimize

    def run(params):
        out = subprocess.run(
            [sys.executable, *flags, "-c", CACHE_SCRIPT, json.dumps(params)],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        return json.loads(out.stdout)

    alone = [run([params])[0] for params in fields]
    assert alone[0] != alone[1]
    assert run(fields) == alone
    assert run(fields[::-1]) == alone[::-1]


# -- V_k against the return map, by value ----------------------------------------
#
# Over one turn from (c, 0), delta(c) = 2 pi V_k c^(2k+1) (1 + O(c^m)) for the
# first nonzero V_k, where m + 1 is the degree of a homogeneous nonlinearity:
# the displacement series runs in powers c^(1 + j m). So the ratio R(c) of the
# return map's delta to that prediction tends to 1 as c -> 0, until the float
# map's own error takes over: about 7e-14 in delta (ROADMAP item 6), for which
# FLOAT_FLOOR allows three times that.

FLOAT_FLOOR = 2e-13


def displacement_ratio(field, c, k, v):
    """R(c) and the predicted displacement 2 pi V_k c^(2k+1)."""
    want = TWO_PI * float(v) * c ** (2 * k + 1)
    return return_map(field, c).delta / want, want


@pytest.mark.parametrize("name", ["quartic_uuu", "quartic_ttt"])
def test_v3_predicts_the_quartic_displacement(name):
    # quartic nonlinearity: R(c) = 1 + a c^3 + O(c^6). a is read at c = 0.2,
    # where the floor is 1e-7 of delta; at c = 0.1 and 0.05 R must follow
    # that law to within twice its term plus the floor
    field = get(name).field
    v = compute_lyapunov(field, 12).v_list
    assert v[:2] == (0, 0) and v[2] != 0
    r_ref, _ = displacement_ratio(field, 0.2, 3, v[2])
    a = (r_ref - 1) / 0.2**3
    for c in (0.05, 0.1):
        r, want = displacement_ratio(field, c, 3, v[2])
        assert abs(r - 1) <= 2 * abs(a) * c**3 + FLOAT_FLOOR / abs(want), (c, r)


def perfbench_q(rng):
    """perfbench's coefficient draw: +-1..3 over 2..5."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 3), rng.choice((2, 3, 4, 5)))


def coefficient_size(field, degree):
    """The sum of the field's absolute coefficients of that degree."""
    return sum(abs(c) for f in (field.p, field.q) for (i, j), c in f.terms() if i + j == degree)


def bautin_draw(seed):
    """perfbench's Bautin draw: V_1 != 0 and quadratic coefficients whose
    absolute values sum to at most 4; returns the field and that sum."""
    rng = random.Random(seed)
    while True:
        l2, l3, l4, l5 = (perfbench_q(rng) for _ in range(4))
        field = bautin_field(l2, l3, l4, l5, l3 + perfbench_q(rng))
        size = coefficient_size(field, 2)
        if size <= 4:
            return field, size


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_v1_predicts_the_bautin_displacement(seed):
    # quadratic nonlinearity: R(c) = 1 + a c + b c^2 + O(c^3), and R depends
    # on the field and c only through c times its quadratic coefficients,
    # so a is linear in them: |R - 1| <= size c / 2 in the band below (over
    # 2 452 other draws |R - 1| / (size c) stayed below 0.22). The
    # quadratic through c, c/2, c/4 extrapolates R to 1 at c = 0 up to its
    # c^3 term over 8 and five times the floor
    field, size = bautin_draw(seed)
    (v1,) = compute_lyapunov(field, 2).v_list
    assert v1 != 0
    cs = (0.05, 0.025, 0.0125)
    runs = [displacement_ratio(field, c, 1, v1) for c in cs]
    for (r, want), c in zip(runs, cs):
        assert abs(r - 1) <= size * c / 2 + FLOAT_FLOOR / abs(want), (c, r)
    r1, r2, r4 = (r for r, _ in runs)
    assert abs((8 * r4 - 6 * r2 + r1) / 3 - 1) <= 1e-3 + 5 * FLOAT_FLOOR / abs(runs[2][1])


def cubic_draw(seed):
    """perfbench's cubic draw: 3a + c + l + 3n = 3 s with s != 0, so
    V_1 = 3 s / 8 and |V_1| >= 3/40; returns the field and the sum of its
    absolute cubic coefficients (at most 14.5)."""
    rng = random.Random(seed)
    a, b, c, d, k, l, m = (perfbench_q(rng) for _ in range(7))
    field = cubic_field(a, b, c, d, k, l, m, (3 * perfbench_q(rng) - 3 * a - c - l) / 3)
    return field, coefficient_size(field, 3)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_v1_predicts_the_cubic_displacement(seed):
    # cubic nonlinearity: R(c) = 1 + a c^2 + b c^4 + O(c^6), and R depends on
    # the field and c only through c^2 times its cubic coefficients, so a is
    # homogeneous of degree 1 in them and |R - 1| / (size c^2) depends only on
    # their direction. It is largest towards a lone x^3 or y^3 term (3.76 in
    # the band below), which the draws approach but cannot reach (every
    # coefficient is at least 1/5): a hill climb over draws reached 2.25, and
    # 8 000 random ones 1.87. The quadratic in c^2 through c, c/2, c/4
    # extrapolates R to 1 at c = 0 up to its c^6 term over 64, homogeneous
    # of degree 3: the lone terms read 1.02 (size c^2)^3, the climb 0.20 and
    # the random draws 0.12, so 2 (size c^2)^3 plus twice the floor is
    # allowed. |predicted delta| >= 7e-6 here
    field, size = cubic_draw(seed)
    (v1,) = compute_lyapunov(field, 2).v_list
    assert v1 != 0
    cs = (0.1, 0.05, 0.025)
    runs = [displacement_ratio(field, c, 1, v1) for c in cs]
    for (r, want), c in zip(runs, cs):
        assert abs(r - 1) <= 4 * size * c**2 + FLOAT_FLOOR / abs(want), (c, r)
    r1, r2, r4 = (r for r, _ in runs)
    tol = 2 * (size * cs[0] ** 2) ** 3 + 2 * FLOAT_FLOOR / abs(runs[2][1])
    assert abs((r1 - 20 * r2 + 64 * r4) / 45 - 1) <= tol


# (k, lam4, c0, tol): lam5 = 0 leaves V_1 = 0 != V_2 at lam4 = -1, and
# lam4 = 5 (lam6 - lam3) = -25/6 makes V_2 vanish too, at (lam2, lam3, lam6)
# = (1/2, 1/3, -1/2). The quadratic through c0, c0/2, c0/4 misses R's c^3
# term by its value at c0 over 8, four times what it misses at 3 c0 / 4:
# that miss read 9.5e-5 (order 2) and 7.0e-3 (order 3), so tol is about
# twice four times it. Order 3 needs c0 = 0.2, near the ratio series'
# radius, for |predicted delta| at c0 / 4 to stay 2 500 times the floor;
# at c0 / 4 = 0.025 order 2's is 8 400 times the floor.
WEAK_FOCI = [(2, Fraction(-1), 0.1, 1e-3), (3, Fraction(-25, 6), 0.2, 0.06)]


@pytest.mark.parametrize("k, lam4, c0, tol", WEAK_FOCI, ids=["order2", "order3"])
def test_vk_predicts_the_weak_bautin_focus_displacement(k, lam4, c0, tol):
    field = bautin_field(Fraction(1, 2), Fraction(1, 3), lam4, 0, Fraction(-1, 2))
    v = compute_lyapunov(field, 2 * k).v_list
    assert v[:k - 1] == (0,) * (k - 1) and v[k - 1] != 0
    runs = [displacement_ratio(field, c, k, v[k - 1]) for c in (c0, c0 / 2, c0 / 4)]
    r1, r2, r4 = (r for r, _ in runs)
    assert abs((8 * r4 - 6 * r2 + r1) / 3 - 1) <= tol + 5 * FLOAT_FLOOR / abs(runs[2][1])
