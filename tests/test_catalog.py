import math
import random
from fractions import Fraction

import pytest

from centerfocus import (
    R2,
    X,
    Y,
    compute_lyapunov,
    detect_symmetries,
    evaluate,
    get,
    list_families,
    period,
    verify_darboux,
)
from centerfocus.errors import LambdaZero, MissingParam, UnknownName
from centerfocus.inverse import find_cofactor
from helpers import SAMPLE_PARAMS

FAMILY_NAMES = (
    "bautin", "schl", "schl1", "rgg", "req", "reqq",
    "loud1", "loud2", "loud3", "loud4",
    "kukles", "chava56", "chava23", "cubic_qh",
    "rloud_cubic1", "rloud_cubic2", "rloud_cubic3", "rloud_cubic4",
    "quartic_uuu", "quartic_ttt", "quintic_ssss",
    "quartic_family", "quintic_family", "r01200",
)

TWO_PI = 2.0 * math.pi


def lyapunov_order(entry):
    deg = max(entry.field.p.degree(), entry.field.q.degree())
    return 6 if deg == 2 else 8 if deg == 3 else 10


def check_tag(entry, tag):
    field = entry.field
    if tag == "CenterCandidate":
        assert compute_lyapunov(field, lyapunov_order(entry)).verdict == "CenterCandidate"
    elif tag == "FocusSign(+)":
        assert compute_lyapunov(field, lyapunov_order(entry)).verdict == "UnstableFocus"
    elif tag == "FocusSign(-)":
        assert compute_lyapunov(field, lyapunov_order(entry)).verdict == "StableFocus"
    elif tag == "Reversible":
        rep = detect_symmetries(field)
        assert rep.rev_x_axis or rep.rev_y_axis
    elif tag == "CauchyRiemann":
        assert detect_symmetries(field).cauchy_riemann
    elif tag == "Hamiltonian":
        assert detect_symmetries(field).hamiltonian
    elif tag == "DarbouxCandidate":
        assert entry.darboux is not None
        assert verify_darboux(field, entry.darboux)
    elif tag == "UniformlyIsochronous":
        assert X * field.q - Y * field.p == R2
    elif tag == "Isochronous":
        for c in (0.05, 0.1):
            assert abs(period(field, c).period - TWO_PI) < 1e-8
    else:
        pytest.fail(f"untestable expectation tag {tag!r}")


def test_family_listing():
    assert tuple(sig.name for sig in list_families()) == FAMILY_NAMES


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_every_expectation_is_engine_backed(name):
    entry = get(name, **SAMPLE_PARAMS.get(name, {}))
    assert entry.name == name
    for tag in sorted(entry.expectations):
        check_tag(entry, tag)


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_printed_form_matches_orientation(name):
    entry = get(name, **SAMPLE_PARAMS.get(name, {}))
    if entry.orientation == "clockwise":
        assert entry.printed is not None
        assert entry.field.p == -entry.printed[0]
        assert entry.field.q == -entry.printed[1]
    else:
        assert entry.printed is None


def test_param_coercion_and_defaults():
    entry = get("bautin", lam5="1/2", lam3=2)
    assert entry.params == {
        "lam2": 0, "lam3": Fraction(2), "lam4": 0,
        "lam5": Fraction(1, 2), "lam6": 0,
    }
    assert all(isinstance(v, Fraction) for v in entry.params.values())


@pytest.mark.parametrize("sig", list_families(), ids=lambda sig: sig.name)
def test_params_follow_the_declared_signature(sig):
    sample = SAMPLE_PARAMS.get(sig.name, {})
    entry = get(sig.name, **sample)
    assert tuple(entry.params) == tuple(key for key, _ in sig.params)
    assert all(isinstance(v, Fraction) for v in entry.params.values())
    assert entry.params == {
        key: Fraction(sample[key]) if key in sample else default
        for key, default in sig.params
    }
    with pytest.raises(UnknownName):
        get(sig.name, **sample, undeclared=1)
    for key, default in sig.params:
        if default is None:
            with pytest.raises(MissingParam):
                get(sig.name, **{k: v for k, v in sample.items() if k != key})


def test_unknown_family():
    with pytest.raises(UnknownName):
        get("lorenz")


def test_unknown_param():
    with pytest.raises(UnknownName):
        get("bautin", mass=1)


def test_required_param_enforced():
    with pytest.raises(MissingParam):
        get("schl1", a=1)
    with pytest.raises(LambdaZero):
        get("schl1", a=1, lam=0)


def test_bautin_degenerate_point_meets_all_cases():
    entry = get("bautin")
    assert entry.extras["cases"] == ["i", "ii", "iii", "iv"]
    assert entry.expectations == {"CenterCandidate"}


def test_bautin_case_iv_instances_are_centers():
    # lam6 = u^2, lam2 = uv, lam3 = 2u^2 + v^2 solves the case-iv equations
    for u, v in ((1, 2), (Fraction(1, 2), -1), (2, Fraction(1, 3))):
        l6, l2, l3 = u * u, u * v, 2 * u * u + v * v
        entry = get("bautin", lam2=l2, lam3=l3, lam4=-5 * (l3 - l6), lam6=l6)
        assert "iv" in entry.extras["cases"]
        assert compute_lyapunov(entry.field, 6).verdict == "CenterCandidate"


def test_schl_focus_instance_sign():
    entry = get("schl", a=1, b=2, c=0, k=3, l=1, m=1)
    assert entry.extras["cases"] == []
    assert entry.expectations == {"FocusSign(-)"}


def test_schl1_special_multipliers():
    half = get("schl1", a=1, beta=-2, lam="1/2")
    assert {"CauchyRiemann", "Isochronous"} <= half.expectations
    two_thirds = get("schl1", a=1, beta=-2, lam="2/3")
    assert "UniformlyIsochronous" in two_thirds.expectations


def test_cubic_qh_second_center_case():
    entry = get("cubic_qh", A=3, C=-7, L=1, N=-1)
    assert entry.extras["cases"] == ["ii"]
    assert compute_lyapunov(entry.field, 8).verdict == "CenterCandidate"


@pytest.mark.parametrize("params", [dict(A=1), dict(C=1)])
def test_cubic_qh_off_the_first_constant_has_no_center_case(params):
    # 3a + l + c + 3n != 0: V_1 does not vanish, so no center set is tried;
    # at C = 1 case (i)'s two clauses hold, and V_1 = 1/8 alone rules it out
    entry = get("cubic_qh", **params)
    assert entry.extras == {"cases": []}
    assert entry.expectations == {"FocusSign(+)"}


def _cubic_case_i_point(rf):
    """A rational point on case (i): c from V_1 = 0, d from the first clause
    (linear in d), and k from the second clause once d is eliminated."""
    while True:
        a, b, l, m, n = (rf() for _ in range(5))
        p, s = 3 * a + l, b + m
        if p and s:
            break
    c = -(p + 3 * n)
    # with d = 2 (a - n) s / p - (b + k + m), b + k - d - m = 2 (b + k - (a - n) s / p)
    k = (a - n) * s / p - b - (a + n) * (p * p - s * s) / (p * s)
    d = 2 * (a - n) * s / p - (b + k + m)
    return dict(A=a, B=b, C=c, D=d, K=k, L=l, M=m, N=n)


def _cubic_case_ii_point(rf):
    """A rational point on case (ii): c, l from V_1 = 0 and the first clause,
    b, m from the two linear clauses in them, d from the last clause."""
    a, n, k = rf(), rf(), rf() or Fraction(1, 2)
    d = (a + 3 * n) * (3 * a + n) / (16 * k)
    return dict(
        A=a, B=-4 * d - k, C=(-5 * a - n) / 2, D=d,
        K=k, L=(-a - 5 * n) / 2, M=-d - 4 * k, N=n,
    )


@pytest.mark.parametrize(
    "case, sample", [("i", _cubic_case_i_point), ("ii", _cubic_case_ii_point)]
)
def test_cubic_qh_center_sets_are_centers(case, sample):
    # rational points sampled on each case's variety are centers to order 10;
    # moving D off it keeps V_1 = 0 but leaves a focus that no case claims
    rng = random.Random(41 if case == "i" else 42)

    def rf():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

    for _ in range(4):
        params = sample(rf)
        entry = get("cubic_qh", **params)
        assert case in entry.extras["cases"]
        assert entry.expectations == {"CenterCandidate"}
        assert compute_lyapunov(entry.field, 10).v_list == (0,) * 5
        off = get("cubic_qh", **{**params, "D": params["D"] + 1})
        assert off.extras["cases"] == []
        res = compute_lyapunov(off.field, 10)
        assert res.v_list[0] == 0 and res.verdict != "CenterCandidate"


def test_kukles_parameters_land_on_their_monomials():
    keys = {
        "alpha": (2, 0), "beta": (0, 2), "gamma": (1, 1),
        "K": (3, 0), "L": (2, 1), "M": (1, 2), "N": (0, 3),
    }
    for value, (key, (i, j)) in enumerate(keys.items(), start=2):
        entry = get("kukles", **{key: value})
        assert entry.field.p == -Y
        assert entry.field.q == X + value * X**i * Y**j


def test_chava23_invariant_conic_shares_r2_cofactor():
    entry = get("chava23", a=1, b=2, L="1/3", M=-1)
    conic = entry.extras["invariant_curve"]
    cert_conic = find_cofactor(entry.field, conic)
    cert_r2 = find_cofactor(entry.field, R2)
    assert cert_conic is not None and cert_r2 is not None
    assert cert_conic.cofactor == cert_r2.cofactor  # so r^2 / conic is constant


def test_quartic_disputed_fixtures_are_order_three_foci():
    # both fixtures pass order 6 but fail at order 8; the return map agrees
    # (delta scales like 2 pi V3 c^7), so the expectations say focus
    uuu = get("quartic_uuu")
    assert uuu.expectations == {"FocusSign(-)"}
    assert compute_lyapunov(uuu.field, 8).v_list[:3] == (0, 0, Fraction(-1, 64))
    assert uuu.notes
    ttt = get("quartic_ttt")
    assert ttt.expectations == {"FocusSign(+)"}
    assert compute_lyapunov(ttt.field, 8).v_list[:3] == (0, 0, Fraction(3, 32))


def test_quartic_ttt_zero_member_is_linear():
    entry = get("quartic_ttt", a=0)
    assert entry.expectations == {"CenterCandidate"}
    assert entry.field.p == -Y and entry.field.q == X


def test_quartic_uuu_second_equilibrium():
    entry = get("quartic_uuu")
    x_star, y_star = entry.extras["second_equilibrium"]
    assert abs(evaluate(entry.field.p, x_star, y_star)) < 1e-12
    assert abs(evaluate(entry.field.q, x_star, y_star)) < 1e-12
