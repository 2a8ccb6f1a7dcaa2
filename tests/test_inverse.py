import random
from fractions import Fraction
from pathlib import Path

import pytest

from centerfocus import (
    BiPoly,
    DarbouxCandidate,
    DegreeMismatch,
    H2,
    InverseSpec,
    LambdaZero,
    PlanarField,
    PreconditionFailed,
    R2,
    ZeroCurve,
    build_field,
    complementary_residuals,
    compute_lyapunov,
    devlin_integral,
    find_cofactor,
    hamiltonian_mismatch,
    lyapunov_function,
    poisson_bracket,
    verify_darboux,
    weak_center_family,
)
from centerfocus.cli import parse_inverse_spec
from helpers import nl_field, radial_cubic, rand_frac

X = BiPoly.monomial(1, 0)
Y = BiPoly.monomial(0, 1)


def random_homogeneous(rng, degree):
    return BiPoly({(degree - i, i): rand_frac(rng) for i in range(degree + 1)})


def hamiltonian_spec(rng, m):
    h_list = (H2,) + tuple(random_homogeneous(rng, d) for d in range(3, m + 2))
    g_list = (BiPoly.constant(1),) + tuple(BiPoly() for _ in range(m - 1))
    return InverseSpec(m=m, h_list=h_list, g_list=g_list)


class TestInverseSpecValidation:
    def test_wrong_h_count(self):
        with pytest.raises(DegreeMismatch):
            InverseSpec(m=3, h_list=(H2,), g_list=(BiPoly.constant(1), BiPoly(), BiPoly()))

    def test_h2_must_be_canonical(self):
        with pytest.raises(DegreeMismatch):
            InverseSpec(
                m=2,
                h_list=(R2, BiPoly()),
                g_list=(BiPoly.constant(1), BiPoly()),
            )

    def test_inhomogeneous_slot(self):
        with pytest.raises(DegreeMismatch):
            InverseSpec(
                m=2,
                h_list=(H2, X + X**3),
                g_list=(BiPoly.constant(1), BiPoly()),
            )

    def test_g0_must_be_one(self):
        with pytest.raises(DegreeMismatch):
            InverseSpec(
                m=2,
                h_list=(H2, BiPoly()),
                g_list=(BiPoly.constant(2), BiPoly()),
            )

    def test_target_degree_below_two(self):
        with pytest.raises(DegreeMismatch, match="target degree 1 < 2"):
            InverseSpec(m=1, h_list=(H2,), g_list=(BiPoly.constant(1),))

    def test_wrong_g_count(self):
        with pytest.raises(DegreeMismatch, match="expected 3 multipliers"):
            InverseSpec(m=3, h_list=(H2, BiPoly(), BiPoly()), g_list=(BiPoly.constant(1),))

    def test_inhomogeneous_multiplier(self):
        with pytest.raises(DegreeMismatch, match="g_1 is not homogeneous of degree 1"):
            InverseSpec(
                m=2,
                h_list=(H2, BiPoly()),
                g_list=(BiPoly.constant(1), X + X**2),
            )


def test_build_field_pure_hamiltonian():
    rng = random.Random(31)
    for m in (2, 3, 4):
        spec = hamiltonian_spec(rng, m)
        field = build_field(spec)
        total = spec.psi(m + 1)
        assert field.p == -total.diff_y()
        assert field.q == total.diff_x()
        assert (field.p.diff_x() + field.q.diff_y()).is_zero()
        assert field.derivative_along(total).is_zero()
        assert hamiltonian_mismatch(spec).is_zero()


def test_hamiltonian_residuals_vanish():
    rng = random.Random(32)
    spec = hamiltonian_spec(rng, 3)
    assert all(r.is_zero() for r in complementary_residuals(spec, 10))


def test_residuals_are_the_focus_quantities():
    # slice n+2 of dV/dt is V_{n/2} (x^2+y^2)^(n/2+1) for even n, 0 for odd n
    rng = random.Random(35)
    for _ in range(12):
        m = rng.choice([2, 3, 4])
        h_list = (H2,) + tuple(random_homogeneous(rng, d) for d in range(3, m + 2))
        g_list = (BiPoly.constant(1),) + tuple(
            random_homogeneous(rng, d) for d in range(1, m)
        )
        spec = InverseSpec(m=m, h_list=h_list, g_list=g_list)
        up_to = rng.randint(m, 9)
        v_list = compute_lyapunov(build_field(spec), up_to + 1).v_list
        want = [
            R2 ** (n // 2 + 1) * v_list[n // 2 - 1] if n % 2 == 0 else BiPoly()
            for n in range(m, up_to + 1)
        ]
        assert complementary_residuals(spec, up_to) == want
        assert any(v for v in v_list)


def seeded_inverse_spec(seed, m):
    """Random H_3..H_{m+1} and multipliers g_1..g_{m-1}."""
    rng = random.Random(seed)
    h_list = (H2,) + tuple(random_homogeneous(rng, d) for d in range(3, m + 2))
    g_list = (BiPoly.constant(1),) + tuple(random_homogeneous(rng, d) for d in range(1, m))
    return InverseSpec(m=m, h_list=h_list, g_list=g_list)


HAM_SPEC = Path(__file__).parent / "data" / "cli" / "ham.json"


@pytest.mark.parametrize(
    "make_spec, up_to",
    [
        pytest.param(lambda m=m, seed=seed: seeded_inverse_spec(seed, m), up_to, id=f"m{m}-{seed}")
        for m in (2, 3, 4, 5)
        for seed, up_to in ((40 + m, m), (50 + m, 8), (60 + m, 12))
    ]
    + [pytest.param(lambda: parse_inverse_spec(HAM_SPEC.read_text())[1], 12, id="ham.json")],
)
def test_residuals_are_slices_of_the_whole_derivative(make_spec, up_to):
    # the residuals form no product above degree up_to + 2; what they keep
    # is the slice of dV/dt taken as a whole polynomial
    spec = make_spec()
    field = build_field(spec)
    v = lyapunov_function(compute_lyapunov(field, max(up_to + 1, 2)))
    dv = field.derivative_along(v)
    want = [dv.homogeneous_component(n + 2) for n in range(spec.m, up_to + 1)]
    assert complementary_residuals(spec, up_to) == want
    # odd n give zero slices, and only ham.json's field is Hamiltonian
    even = any(n % 2 == 0 for n in range(spec.m, up_to + 1))
    assert any(want) == (even and any(spec.g_list[1:]))


def test_mismatch_tracks_divergence():
    rng = random.Random(33)
    for _ in range(16):
        m = rng.choice([2, 3, 4, 5])
        h_list = (H2,) + tuple(random_homogeneous(rng, d) for d in range(3, m + 2))
        g_list = (BiPoly.constant(1),) + tuple(
            random_homogeneous(rng, d) for d in range(1, m)
        )
        spec = InverseSpec(m=m, h_list=h_list, g_list=g_list)
        field = build_field(spec)
        div = field.p.diff_x() + field.q.diff_y()
        brackets = BiPoly()
        for j in range(2, m + 2):
            brackets = brackets + poisson_bracket(spec.psi(j), spec.g(m + 1 - j))
        assert hamiltonian_mismatch(spec) == brackets == div


class TestWeakCenterFamily:
    def test_lambda_zero(self):
        with pytest.raises(LambdaZero):
            weak_center_family(2, 0, X)

    def test_multiplier_degree_checked(self):
        with pytest.raises(DegreeMismatch):
            weak_center_family(3, Fraction(1, 2), X)  # needs degree 2

    def test_nu_needs_odd_m(self):
        with pytest.raises(DegreeMismatch):
            weak_center_family(2, Fraction(1, 2), X, nu=1)

    def test_forms(self):
        g = X
        assert weak_center_family(2, 1, g)[1].form == "Exponential"
        assert weak_center_family(2, Fraction(1, 3), g)[1].form == "Rational"
        assert weak_center_family(2, Fraction(2, 3), g)[1].form == "Power"
        assert weak_center_family(2, -2, g)[1].form == "Power"
        for lam, form in (
            (1, "Exponential"),
            (Fraction(1, 3), "Rational"),
            (Fraction(-1, 3), "Power"),
            (Fraction(2, 3), "Power"),
            (-2, "Power"),
        ):
            assert DarbouxCandidate(g, Fraction(lam)).form == form
        with pytest.raises(ValueError):
            DarbouxCandidate(g, Fraction(0))

    def test_field_shape_quadratic(self):
        rng = random.Random(36)
        for m in (2, 3, 4, 5, 6):
            for lam in (Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(-2)):
                g = random_homogeneous(rng, m - 1)
                nu = rand_frac(rng, nonzero=True) if m % 2 else 0
                field, cand = weak_center_family(m, lam, g, nu=nu)
                scale = 1 + (1 - lam) * g
                extra = H2 ** ((m + 1) // 2) * nu
                assert field.p == H2 * g.diff_y() * lam - Y * scale - extra.diff_y()
                assert field.q == -(H2 * g.diff_x() * lam) + X * scale + extra.diff_x()
                assert cand.g == g and cand.lam == lam

    def test_certificates_hold(self):
        rng = random.Random(34)
        for m in (2, 3, 4, 5):
            for lam in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), 1, 2):
                g = random_homogeneous(rng, m - 1)
                field, cand = weak_center_family(m, lam, g)
                assert verify_darboux(field, cand)

    def test_nu_branch_absorbs_into_g(self):
        # the nu term is a gauge: for lam != 2/(m+1) it folds into g as
        # g + c H_2^k with c = -nu (k+1) / (lam (k+1) - 1), here 6 nu
        nu = Fraction(2, 7)
        field, cand = weak_center_family(3, Fraction(1, 3), X * Y, nu=nu)
        assert not verify_darboux(field, cand)  # raw (g, lam) pair no longer certifies
        shifted, cand2 = weak_center_family(3, Fraction(1, 3), X * Y + 6 * nu * H2)
        assert shifted.p == field.p and shifted.q == field.q
        assert verify_darboux(field, cand2)
        assert compute_lyapunov(field, 8).verdict == "CenterCandidate"

    def test_perturbation_breaks_certificate(self):
        field, cand = weak_center_family(2, Fraction(1, 2), X)
        broken = PlanarField(p=field.p + X**2, q=field.q)
        assert not verify_darboux(broken, cand)


def test_find_cofactor_on_family_curve():
    lam = Fraction(1, 3)
    g = X + 2 * Y
    field, _ = weak_center_family(2, lam, g)
    curve = 1 + (1 - lam) * g
    cert = find_cofactor(field, curve)
    assert cert is not None
    assert cert.cofactor == poisson_bracket(H2, g) * (1 - lam)
    # H_2 itself is invariant with cofactor lam {H_2, g}
    cert2 = find_cofactor(field, H2)
    assert cert2 is not None
    assert cert2.cofactor == poisson_bracket(H2, g) * lam


def test_find_cofactor_rejects_non_invariant():
    assert find_cofactor(radial_cubic(), X) is None


def test_zero_curve_raises():
    with pytest.raises(ZeroCurve):
        find_cofactor(radial_cubic(), BiPoly())


def test_devlin_integral_cubic():
    field, _ = weak_center_family(3, Fraction(1, 3), X**2 - 2 * X * Y + 3 * Y**2)
    num, den = devlin_integral(field)  # mu = 2/lam = 6 = 2m
    xs, ys = field.nonlinear_slices()
    assert num == R2 + 2 * (X * ys[3] - Y * xs[3])
    assert den == R2**3
    assert field.derivative_along(num) * R2 == num * field.derivative_along(R2) * 3


def test_devlin_integral_quadratic():
    field, _ = weak_center_family(2, Fraction(1, 2), 3 * X - Y)  # mu = 4 = 2m
    num, den = devlin_integral(field)
    assert den == R2**2
    assert field.derivative_along(num) * R2 == num * field.derivative_along(R2) * 2


def test_devlin_needs_matching_mu():
    field, _ = weak_center_family(2, Fraction(1, 3), X)  # mu = 6, not 4
    with pytest.raises(PreconditionFailed):
        devlin_integral(field)


def test_devlin_needs_single_degree():
    with pytest.raises(PreconditionFailed):
        devlin_integral(nl_field({(2, 0): 1, (3, 0): 1}))
