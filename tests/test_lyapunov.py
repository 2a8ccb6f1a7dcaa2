import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import centerfocus.lyapunov as lyapunov_module
from centerfocus import (
    H2,
    BiPoly,
    InverseSpec,
    NonNormalizedLinearPart,
    NotQuasiHomogeneous,
    OrderTooSmall,
    PlanarField,
    R2,
    X,
    Y,
    build_field,
    circle_average,
    compute_lyapunov,
    constants_quasihomogeneous,
    lyapunov_function,
    quasihomogeneous_parts,
    residual,
)
from centerfocus.catalog import get as catalog_get
from helpers import bautin_field, cubic_field, nl_field, radial_cubic, rand_frac
from oracles import bipoly_lyapunov, sympy_lyapunov


def first_nonzero(vs):
    for k, v in enumerate(vs, start=1):
        if v:
            return k, v
    return None, None


class TestPlanarFieldValidation:
    def test_wrong_linear_part(self):
        with pytest.raises(NonNormalizedLinearPart):
            PlanarField(p=BiPoly({(0, 1): -2}), q=BiPoly({(1, 0): 1}))

    def test_missing_rotation(self):
        with pytest.raises(NonNormalizedLinearPart):
            PlanarField(p=BiPoly({(0, 1): -1}), q=BiPoly({(0, 1): 1}))

    def test_constant_term_rejected(self):
        with pytest.raises(NonNormalizedLinearPart):
            PlanarField(
                p=BiPoly({(0, 1): -1, (0, 0): 1}), q=BiPoly({(1, 0): 1})
            )

    def test_degree(self):
        assert radial_cubic().degree == 3


def test_order_too_small():
    with pytest.raises(OrderTooSmall):
        compute_lyapunov(radial_cubic(), 1)


def test_chain_recursion_reports_order_before_field_shape():
    # the mixed degrees 2 and 3 are not quasi-homogeneous either
    with pytest.raises(OrderTooSmall):
        constants_quasihomogeneous(nl_field({(2, 0): 1, (3, 0): 1}), 1)


def test_degrees_beyond_the_order_are_never_converted():
    # the recursion to order 4 reads X_k, Y_k for k <= 5 only: a term of
    # degree 10^6 leaves every H_n and V_k alone and is not converted to
    # a dense slice of 10^6 + 1 integers (about 40 MB)
    base = bautin_field(1, 2, -1, Fraction(1, 3), 5)
    huge = PlanarField(p=base.p + X ** 1_000_000, q=base.q)
    want = compute_lyapunov(base, 4)
    tracemalloc.start()
    try:
        got = compute_lyapunov(huge, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < 2_000_000
    # degree order + 1 = 5 is read: it moves V_2
    quintic = PlanarField(p=base.p + X**5, q=base.q)
    assert compute_lyapunov(quintic, 4).v_list[1] != want.v_list[1]


def test_linear_system_is_center_candidate():
    res = compute_lyapunov(nl_field(), 8)
    assert res.verdict == "CenterCandidate"
    assert res.describe() == "CenterCandidate(8)"
    assert all(v == 0 for v in res.v_list)
    assert all(h.inner.is_zero() for h in res.h_list)


def test_result_shapes():
    res = compute_lyapunov(bautin_field(1, 2, 3, 4, 5), 6)
    assert len(res.v_list) == 3
    assert [h.degree for h in res.h_list] == [3, 4, 5, 6, 7]
    assert res.h(4) == res.h_list[1].inner


def test_radial_cubic_first_constant():
    res = compute_lyapunov(radial_cubic(), 2)
    assert res.v_list == (Fraction(1),)
    assert res.verdict == "UnstableFocus"
    assert res.verdict_index == 1
    assert res.describe() == "UnstableFocus(1)"


def test_bautin_first_constant_closed_form():
    """V1 = -(1/8) lam5 (lam3 - lam6), the stability-correct sign."""
    rng = random.Random(101)
    for _ in range(50):
        l2, l3, l4, l5, l6 = (rand_frac(rng) for _ in range(5))
        res = compute_lyapunov(bautin_field(l2, l3, l4, l5, l6), 2)
        assert res.v_list[0] == -Fraction(1, 8) * l5 * (l3 - l6)


coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def planar_fields(draw):
    """(-y, x) plus dense random slices in 1-3 distinct degrees from 2..5."""
    degrees = draw(st.sets(st.integers(2, 5), min_size=1, max_size=3))
    p, q = {}, {}
    for d in degrees:
        for i in range(d + 1):
            p[(i, d - i)] = draw(coeffs)
            q[(i, d - i)] = draw(coeffs)
    return nl_field(p, q)


def _sympy_seed_fields():
    rng = random.Random(102)
    fields = [bautin_field(*(rand_frac(rng, 3) for _ in range(5))) for _ in range(4)]
    fields.append(cubic_field(*(rand_frac(rng, 2) for _ in range(8))))
    return fields


def _with_seed_examples(test):
    for field in _sympy_seed_fields():
        test = example(field=field, order=4)(test)
    # a homogeneous quartic whose V_3 = -1199/512 is a rational that
    # sympy's nsimplify turns into a product of radicals
    quartic = nl_field(
        {(4, 0): Fraction(3), (3, 1): Fraction(-5, 2), (2, 2): Fraction(-1, 3),
         (1, 3): Fraction(1, 4), (0, 4): Fraction(5, 3)},
        {(4, 0): Fraction(5, 2), (3, 1): Fraction(-1), (2, 2): Fraction(2),
         (1, 3): Fraction(-1, 3), (0, 4): Fraction(-1)},
    )
    return example(field=quartic, order=6)(test)


@settings(max_examples=15, deadline=None)
@given(field=planar_fields(), order=st.integers(2, 8))
@_with_seed_examples
def test_against_sympy_recursion(field, order):
    """First nonzero constant agrees with a dense independent recursion."""
    eng = compute_lyapunov(field, order)
    assert first_nonzero(eng.v_list) == first_nonzero(sympy_lyapunov(field, order))


def _hamiltonian_field():
    """-Psi_y, Psi_x for Psi = H_2 + H_3 + H_4 with fixed small coefficients."""
    psi = H2 + BiPoly({
        (3, 0): Fraction(1, 5), (2, 1): Fraction(-1, 3), (1, 2): Fraction(1, 4),
        (0, 3): Fraction(-1, 6), (4, 0): Fraction(1, 7), (3, 1): Fraction(2, 9),
        (1, 3): Fraction(-1, 8), (0, 4): Fraction(1, 10), (2, 2): Fraction(-3, 11),
    })
    return PlanarField(p=-psi.diff_y(), q=psi.diff_x())


# the field shapes and orders of the lyapunov-deep benchmark workload
DEEP_SHAPES = [
    (bautin_field(Fraction(1, 3), Fraction(2, 5), Fraction(-1, 7), Fraction(3, 11),
                  Fraction(5, 13)), 16),
    (cubic_field(*(Fraction(k, 5) for k in (1, -2, 3, 1, -1, 2, -3, 1))), 20),
    (_hamiltonian_field(), 14),
    (catalog_get("quintic_ssss").field, 20),
]


def _with_deep_examples(test):
    for field, order in DEEP_SHAPES:
        test = example(field=field, order=order, gauges={})(test)
        test = example(field=field, order=order - 1, gauges={4: Fraction(-2, 3), 10: 1})(test)
    return test


@settings(max_examples=60, deadline=None)
@given(
    field=planar_fields(),
    order=st.integers(2, 12),
    gauges=st.dictionaries(st.sampled_from(range(4, 14, 2)), coeffs),
)
@_with_deep_examples
def test_matches_bipoly_recursion(field, order, gauges):
    """Every H_n, V_k and the verdict equal those of the dict-polynomial
    recursion with complex-basis slice solves, exactly."""
    gauges = {n: c for n, c in gauges.items() if n <= order + 1}
    res = compute_lyapunov(field, order, gauges=gauges)
    h, v_list, verdict = bipoly_lyapunov(field, order, gauges)
    assert [hp.degree for hp in res.h_list] == list(h)
    assert [hp.inner for hp in res.h_list] == list(h.values())
    assert list(res.v_list) == v_list
    assert res.verdict == verdict


@settings(max_examples=100, deadline=None)
@given(planar_fields(), st.integers(2, 12), st.data())
def test_recursion_pins_every_slice(field, order, data):
    """The conditions that fix every H_n and V_k: dV/dt equals the sum of
    V_k (x^2+y^2)^(k+1) through degree order+1, for an even order the
    degree-(order+2) residual has circle average 0, and each even H_n
    averages to its gauge."""
    gauges = {
        n: data.draw(coeffs, label=f"gauge {n}")
        for n in range(4, order + 2, 2)
        if data.draw(st.booleans(), label=f"gauged {n}")
    }
    res = compute_lyapunov(field, order, gauges=gauges)
    assert len(res.v_list) == order // 2
    r = residual(field, res)
    assert all(i + j > order + 1 for (i, j), _ in r.terms())
    if order % 2 == 0:
        assert circle_average(r.homogeneous_component(order + 2)) == 0
    for n in range(4, order + 2, 2):
        assert circle_average(res.h(n)) == gauges.get(n, 0)


@pytest.mark.parametrize("order", range(2, 13))
def test_source_assembled_once_per_needed_slice(order, monkeypatch):
    """Slices 3..order+1, plus slice order+2 only when an even order
    reads its last constant there."""
    calls = []
    original = lyapunov_module._assemble_f

    def counting(n, h, xs, ys):
        calls.append(n)
        return original(n, h, xs, ys)

    monkeypatch.setattr(lyapunov_module, "_assemble_f", counting)
    compute_lyapunov(bautin_field(1, 2, 3, 4, 5), order)
    last = order + 2 if order % 2 == 0 else order + 1
    assert calls == list(range(3, last + 1))


def test_center_sequences_match_oracle_exactly():
    # all-zero constant lists are gauge-free, so full equality applies
    field = bautin_field(0, 3, -1, 0, 2)
    assert list(compute_lyapunov(field, 6).v_list) == sympy_lyapunov(field, 6)


def test_gauge_choice_moves_later_constants_only():
    rng = random.Random(103)
    field = bautin_field(1, 2, 0, Fraction(1, 2), -1)
    base = compute_lyapunov(field, 6)
    k0, v0 = first_nonzero(base.v_list)
    for _ in range(5):
        gauges = {4: rand_frac(rng), 6: rand_frac(rng)}
        alt = compute_lyapunov(field, 6, gauges=gauges)
        assert first_nonzero(alt.v_list) == (k0, v0)


def test_residual_starts_past_solved_degrees():
    field = bautin_field(1, 1, 1, 1, 1)
    res = compute_lyapunov(field, 6)
    r = residual(field, res)
    assert not r.is_zero()
    assert min(i + j for (i, j), _ in r.terms()) > res.order + 1


def test_lyapunov_function_leading_term():
    res = compute_lyapunov(radial_cubic(), 4)
    v = lyapunov_function(res)
    assert v.homogeneous_component(2) == BiPoly(
        {(2, 0): Fraction(1, 2), (0, 2): Fraction(1, 2)}
    )


def test_quasihomogeneous_parts_radial_coefficient():
    m, h, g, c = quasihomogeneous_parts(radial_cubic())
    assert (m, c) == (3, Fraction(1))
    assert h.is_zero() and g.is_zero()


def test_quasihomogeneous_rejects_mixed_degrees():
    field = nl_field({(2, 0): 1, (3, 0): 1})
    with pytest.raises(NotQuasiHomogeneous):
        quasihomogeneous_parts(field)


def random_form(rng, degree) -> BiPoly:
    return BiPoly({(i, degree - i): rand_frac(rng) for i in range(degree + 1)})


def qh_field(rng, m, c):
    """x' = -y - H_y - y g + c x r^(m-1), y' = x + H_x + x g + c y r^(m-1)."""
    h, g = random_form(rng, m + 1), random_form(rng, m - 1)
    rad = R2 ** ((m - 1) // 2) * c if m % 2 else BiPoly()
    return PlanarField(
        p=-Y - h.diff_y() - Y * g + X * rad,
        q=X + h.diff_x() + X * g + Y * rad,
    )


def test_qh_specialization_matches_general_recursion():
    rng = random.Random(104)
    fields = [cubic_field(*(rand_frac(rng) for _ in range(8))) for _ in range(20)]
    fields += [qh_field(rng, 4, 0) for _ in range(4)]
    fields += [qh_field(rng, 5, rand_frac(rng, nonzero=True)) for _ in range(4)]
    for field in fields:
        fast = constants_quasihomogeneous(field, 6)
        slow = compute_lyapunov(field, 6)
        assert fast.v_list == slow.v_list
        assert fast.h_list == slow.h_list
        assert fast.verdict == slow.verdict


def test_quasihomogeneous_parts_invert_build_field():
    # without a radial term the parts are inverse data: H = (H_2, 0, ..., h),
    # g = (1, 0, ..., g) builds the field back
    rng = random.Random(106)
    for m in range(2, 8):
        field = qh_field(rng, m, 0)
        m_out, h, g, c = quasihomogeneous_parts(field)
        assert (m_out, c) == (m, 0)
        zeros = (BiPoly(),) * (m - 2)
        spec = InverseSpec(
            m=m,
            h_list=(H2,) + zeros + (h,),
            g_list=(BiPoly.constant(1),) + zeros + (g,),
        )
        assert build_field(spec) == field


def test_quasihomogeneous_parts_reconstruct_odd_degree():
    rng = random.Random(105)
    for m in (3, 3, 5, 5, 7):
        c_in = rand_frac(rng, nonzero=True)
        field = qh_field(rng, m, c_in)
        xm, ym = field.nonlinear()
        m_out, h, g, c = quasihomogeneous_parts(field)
        rad = R2 ** ((m - 1) // 2) * c
        assert (m_out, c) == (m, c_in)
        assert -h.diff_y() - Y * g + X * rad == xm
        assert h.diff_x() + X * g + Y * rad == ym
