import copy
import math
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from centerfocus import (
    BiPoly,
    HomogeneousPoly,
    NonRealInput,
    R2,
    X,
    Y,
    apply_rotational,
    circle_average,
    evaluate,
    from_complex,
    homogeneous_components,
    poisson_bracket,
    to_complex,
)
from centerfocus.poly import (
    ComplexCoeffs,
    float_code,
    from_slice,
    slice_average,
    to_slice,
    wallis_weights,
)
from oracles import loop_evaluate

fracs = st.fractions(
    min_value=Fraction(-9), max_value=Fraction(9), max_denominator=9
)


def small_polys(max_degree=4):
    keys = st.tuples(
        st.integers(min_value=0, max_value=max_degree),
        st.integers(min_value=0, max_value=max_degree),
    )
    return st.dictionaries(keys, fracs, max_size=6).map(BiPoly)


def test_zero_coefficients_dropped():
    p = BiPoly({(1, 0): Fraction(0), (0, 1): Fraction(2)})
    assert list(p.terms()) == [((0, 1), Fraction(2))]


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        BiPoly({(-1, 0): Fraction(1)})


def test_graded_lex_term_order():
    p = BiPoly({(0, 2): 1, (2, 0): 1, (1, 0): 1, (1, 1): 1})
    assert [key for key, _ in p.terms()] == [(1, 0), (2, 0), (1, 1), (0, 2)]


def test_arithmetic_square():
    assert (X + Y) ** 2 == BiPoly({(2, 0): 1, (1, 1): 2, (0, 2): 1})


def test_scalar_comparison_and_arithmetic():
    # an int or Fraction compares and subtracts as a constant polynomial
    p = BiPoly({(0, 0): Fraction(3, 2), (1, 0): 1, (0, 1): -2})
    assert BiPoly() == 0 and p != 0
    assert BiPoly.constant(Fraction(3, 2)) == Fraction(3, 2)
    assert 1 - p == BiPoly({(0, 0): Fraction(-1, 2), (1, 0): -1, (0, 1): 2})
    assert repr(p) == "3/2 + x - 2*y"
    with pytest.raises(ValueError, match="negative power"):
        p ** -1


def test_degree_conventions():
    assert BiPoly().degree() == -1
    assert BiPoly.constant(3).degree() == 0
    assert R2.degree() == 2
    assert R2.is_homogeneous()
    assert not (R2 + X).is_homogeneous()


def test_diff():
    p = X**3 * Y
    assert p.diff_x() == 3 * X**2 * Y
    assert p.diff_y() == X**3


def test_homogeneous_split_covers():
    p = X**3 + X * Y + BiPoly.constant(5)
    comps = homogeneous_components(p)
    assert sorted(c.degree for c in comps) == [0, 2, 3]
    total = BiPoly()
    for c in comps:
        total = total + c.inner
    assert total == p


@given(small_polys(), small_polys(), small_polys())
def test_distributive(f, g, h):
    assert (f + g) * h == f * h + g * h


@given(small_polys(), small_polys())
def test_product_rule(f, g):
    assert (f * g).diff_x() == f.diff_x() * g + f * g.diff_x()


def test_circle_average_wallis():
    assert circle_average(X**2) == Fraction(1, 2)
    assert circle_average(X**4) == Fraction(3, 8)
    assert circle_average(X**2 * Y**2) == Fraction(1, 8)
    assert circle_average(X**3 * Y) == 0
    assert circle_average(X * Y**5) == 0
    assert circle_average(R2**3) == 1


@given(st.integers(0, 12), st.lists(fracs, min_size=13, max_size=13))
def test_dense_slice_round_trip_and_average(n, coeffs):
    p = BiPoly({(k, n - k): c for k, c in enumerate(coeffs[: n + 1])})
    nums, den = to_slice(p, n)
    assert den == math.lcm(*(c.denominator for _, c in p.terms()))
    assert from_slice(n, (nums, den)).inner == p
    assert slice_average(n, (nums, den)) == circle_average(p)


def test_wallis_weights_are_monomial_averages():
    for n in range(9):
        weights, w_den = wallis_weights(n)
        for i in range(n + 1):
            # the average of x^i y^(n-i) by the trapezoid rule on 64 points,
            # exact for trigonometric polynomials of degree below 64
            quad = sum(
                math.cos(t) ** i * math.sin(t) ** (n - i)
                for t in (2 * math.pi * s / 64 for s in range(64))
            ) / 64
            assert weights[i] / w_den == pytest.approx(quad, abs=1e-12)


@given(small_polys())
def test_rotational_images_average_to_zero(f):
    # x f_y - y f_x integrates to zero around the circle
    for comp in homogeneous_components(X * f.diff_y() - Y * f.diff_x()):
        assert circle_average(comp) == 0


def test_poisson_bracket_antisymmetry():
    f = X**2 * Y + Y
    g = X * Y**2
    assert poisson_bracket(f, g) == -poisson_bracket(g, f)
    assert poisson_bracket(f, f).is_zero()


def test_evaluate():
    p = X**2 + 2 * X * Y
    assert evaluate(p, 1.5, -0.5) == pytest.approx(1.5**2 + 2 * 1.5 * -0.5)


def same_bits(a, b):
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


# signed zeros, subnormals, and finite values up to 1e3 in magnitude
coords = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e3, 1e3, -1.0]),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_subnormal=True),
)
number_types = st.sampled_from([float, np.float64])
wide_fracs = st.fractions(
    min_value=Fraction(-10**6), max_value=Fraction(10**6), max_denominator=10**6
)


@st.composite
def polys_up_to_degree_30(draw):
    d = draw(st.integers(min_value=0, max_value=30))
    keys = st.tuples(
        st.integers(min_value=0, max_value=d), st.integers(min_value=0, max_value=d)
    ).filter(lambda k: k[0] + k[1] <= d)
    return BiPoly(draw(st.dictionaries(keys, wide_fracs, max_size=40)))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(polys_up_to_degree_30(), min_size=1, max_size=3),
    coords, coords, number_types, number_types,
)
def test_float_code_matches_term_loop(polys, x, y, x_type, y_type):
    x, y = x_type(x), y_type(y)
    values = float_code(polys)(x, y)
    assert len(values) == len(polys)
    for p, v in zip(polys, values):
        assert same_bits(v, loop_evaluate(p, x, y))
        assert same_bits(evaluate(p, x, y), v)


_rng = random.Random(5050)
# every monomial of degree < 100: one flat sum would overflow the compiler's
# recursion limit, so the kernel splits it into chunks
FULL_DEGREE_99 = BiPoly({
    (i, n - i): Fraction(_rng.randint(1, 9) * _rng.choice((-1, 1)), _rng.randint(1, 9))
    for n in range(100)
    for i in range(n + 1)
})


@settings(max_examples=100, deadline=None)
@given(coords, coords, number_types)
def test_float_code_matches_term_loop_5050_terms(x, y, number_type):
    assert len(FULL_DEGREE_99) == 5050
    x, y = number_type(x), number_type(y)
    assert same_bits(evaluate(FULL_DEGREE_99, x, y), loop_evaluate(FULL_DEGREE_99, x, y))


@pytest.mark.parametrize("p", [X**2 + 2 * X * Y - Fraction(1, 3), BiPoly()])
def test_pickle_and_deepcopy_after_evaluate(p):
    value = evaluate(p, 0.3, -0.7)  # fills the cached kernel
    for clone in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
        assert clone == p and hash(clone) == hash(p)
        assert same_bits(evaluate(clone, 0.3, -0.7), value)


@given(small_polys())
def test_complex_round_trip(p):
    assert from_complex(to_complex(p)) == p


@given(small_polys())
def test_complex_coeffs_conjugate_symmetric(p):
    assert to_complex(p).conjugate_symmetric()


def test_complex_coeffs_without_the_conjugate_entry_are_not_symmetric():
    # z has no zbar partner, so no real polynomial has these coefficients
    assert not ComplexCoeffs({(1, 0): (Fraction(1), Fraction(0))}).conjugate_symmetric()


def test_bipoly_is_not_equal_to_a_string():
    assert BiPoly.__eq__(X, "x") is NotImplemented
    assert (BiPoly({(1, 0): 1}) == "x") is False


def test_homogeneous_poly_rejects_a_term_of_another_degree():
    with pytest.raises(ValueError, match=r"^term x\^1 y\^0 breaks homogeneity of degree 2$"):
        HomogeneousPoly(2, X)


def test_from_complex_rejects_non_real():
    bad = ComplexCoeffs({(1, 0): (Fraction(0), Fraction(1))})
    with pytest.raises(NonRealInput):
        from_complex(bad)


def test_complex_convention_pinned():
    # x = (z + zbar)/2 and y = (z - zbar)/(2i); a round trip cannot tell
    # this from its conjugate
    half = Fraction(1, 2)
    assert to_complex(X).entries == {(1, 0): (half, 0), (0, 1): (half, 0)}
    assert to_complex(Y).entries == {(1, 0): (0, -half), (0, 1): (0, half)}


@given(small_polys())
def test_rotational_operator_is_diagonal_in_complex_basis(p):
    # D (z^k zbar^l) = i (k - l) z^k zbar^l
    expected = ComplexCoeffs({
        (k, l): (-(k - l) * im, (k - l) * re)
        for (k, l), (re, im) in to_complex(p).entries.items()
    })
    assert to_complex(apply_rotational(p)).entries == expected.entries
