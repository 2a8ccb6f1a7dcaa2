import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import centerfocus
from centerfocus import (
    BiPoly,
    ObstructionNonzeroAverage,
    bautin_classify,
    detect_symmetries,
    hg_decompose,
    schlomiuk_classify,
    weak_center_check,
    weak_center_family,
)
from helpers import bautin_field, nl_field, rand_frac
from oracles import complex_reversibility


def test_hg_decompose_reconstructs_quadratic():
    rng = random.Random(21)
    for _ in range(15):
        field = bautin_field(*(rand_frac(rng) for _ in range(5)))
        dec = hg_decompose(field)
        xs, ys = field.nonlinear()
        x = BiPoly.monomial(1, 0)
        y = BiPoly.monomial(0, 1)
        assert -dec.h.diff_y() - y * dec.g == xs
        assert dec.h.diff_x() + x * dec.g == ys


def test_hg_identity_check_survives_optimize():
    # under python -O a bare assert would let a wrong g through unnoticed
    script = textwrap.dedent("""
        import dataclasses, sys
        import centerfocus.structure as st
        from centerfocus import BiPoly, HomogeneousPoly, PlanarField

        real = st.solve_homological

        def wrong(g, gauge=0):
            sol = real(g, gauge)
            bad = sol.f.inner + BiPoly.monomial(1, 0)
            return dataclasses.replace(sol, f=HomogeneousPoly(sol.f.degree, bad))

        st.solve_homological = wrong
        field = PlanarField(
            p=BiPoly({(0, 1): -1, (2, 0): 1, (1, 1): 2}),
            q=BiPoly({(1, 0): 1, (0, 2): 3}),
        )
        try:
            st.hg_decompose(field)
        except AssertionError:
            print("optimize", sys.flags.optimize, "raised")
        else:
            print("optimize", sys.flags.optimize, "returned")
    """)
    src = Path(centerfocus.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert out.stdout.strip() == "optimize 1 raised"


def test_hg_obstruction_reports_slice():
    # div = 3x^2 averages to 3/2 on the circle; no decomposition exists
    field = nl_field({(3, 0): 1})
    with pytest.raises(ObstructionNonzeroAverage) as info:
        hg_decompose(field)
    assert info.value.degree == 2
    assert info.value.value == Fraction(3, 2)


def test_weak_center_detects_family_multiplier():
    g = BiPoly({(1, 0): 2, (0, 1): -3})
    for lam in (Fraction(1, 3), Fraction(1, 2), Fraction(2), Fraction(1)):
        field, _ = weak_center_family(2, lam, g)
        res = weak_center_check(field)
        assert res is not None
        assert res.lambda_darboux == lam
        assert res.mu == 2 / lam
        assert res.integral_ok


def test_weak_center_none_for_generic_quadratic():
    assert weak_center_check(bautin_field(1, 2, 3, 4, 5)) is None


def test_weak_center_none_when_only_x_X_plus_y_Y_vanishes():
    # x' = -y - xy, y' = x + x^2: x X + y Y = -x^2 y + y x^2 = 0, but the
    # divergence is -y, so no mu makes (x^2+y^2) div = mu (x X + y Y)
    assert weak_center_check(nl_field({(1, 1): -1}, {(2, 0): 1})) is None


def test_weak_center_mu_zero_branches():
    # Hamiltonian cubic: divergence vanishes but x X + y Y does not
    ham = nl_field({(0, 2): -3}, {})
    res = weak_center_check(ham)
    assert res is not None
    assert res.mu == 0
    assert res.lambda_darboux is None
    # purely rotational nonlinearity: x X + y Y = 0 identically
    rot = nl_field(
        {(2, 1): -4, (0, 3): -4},
        {(3, 0): 4, (1, 2): 4},
    )
    res = weak_center_check(rot)
    assert res is not None
    assert res.mu == 0 and res.integral_ok


class TestSymmetries:
    def test_x_axis_reversible(self):
        rng = random.Random(22)
        for _ in range(10):
            p_terms = {
                (i, j): rand_frac(rng)
                for i in range(3)
                for j in range(3)
                if j % 2 == 1 and 2 <= i + j <= 3
            }
            q_terms = {
                (i, j): rand_frac(rng)
                for i in range(4)
                for j in range(3)
                if j % 2 == 0 and 2 <= i + j <= 3
            }
            rep = detect_symmetries(nl_field(p_terms, q_terms))
            assert rep.rev_x_axis

    def test_y_axis_reversible(self):
        rng = random.Random(23)
        for _ in range(10):
            p_terms = {
                (i, j): rand_frac(rng)
                for i in range(4)
                for j in range(3)
                if i % 2 == 0 and 2 <= i + j <= 3
            }
            q_terms = {
                (i, j): rand_frac(rng)
                for i in range(3)
                for j in range(3)
                if i % 2 == 1 and 2 <= i + j <= 3
            }
            rep = detect_symmetries(nl_field(p_terms, q_terms))
            assert rep.rev_y_axis

    def test_x_axis_negative(self):
        # X = y^2 and Y = xy are reversible for the y axis only
        rep = detect_symmetries(nl_field({(0, 2): 1}, {(1, 1): 1}))
        assert rep.rev_y_axis and not rep.rev_x_axis

    def test_y_axis_negative(self):
        # X = xy and Y = x^2 are reversible for the x axis only
        rep = detect_symmetries(nl_field({(1, 1): 1}, {(2, 0): 1}))
        assert rep.rev_x_axis and not rep.rev_y_axis

    def test_generic_field_has_none(self):
        rep = detect_symmetries(bautin_field(1, 2, 3, 4, 5))
        assert not any(
            [rep.rev_x_axis, rep.rev_y_axis, rep.cauchy_riemann, rep.hamiltonian]
        )

    def test_cauchy_riemann(self):
        # z' = iz + z^2
        field = nl_field({(2, 0): 1, (0, 2): -1}, {(1, 1): 2})
        rep = detect_symmetries(field)
        assert rep.cauchy_riemann
        assert not rep.hamiltonian

    def test_hamiltonian(self):
        field = nl_field({(0, 2): -3}, {})  # H = (x^2+y^2)/2 + y^3
        rep = detect_symmetries(field)
        assert rep.hamiltonian


_COEFFS = st.fractions(min_value=-9, max_value=9, max_denominator=9)

# axis -> (exponent index, parity a term of X needs, parity a term of Y needs)
_PARITY_RULES = {"x": (1, 1, 0), "y": (0, 0, 1)}


@st.composite
def symmetry_fields(draw):
    """Fields of degree 2-5: a third generic, a third built reversible
    for each axis, half of the latter with exactly one parity broken."""
    degree = draw(st.integers(min_value=2, max_value=5))
    axis = draw(st.sampled_from([None, "x", "y"]))
    monos = [(i, n - i) for n in range(2, degree + 1) for i in range(n + 1)]

    def allowed(key, comp):
        if axis is None:
            return True
        index, *parity = _PARITY_RULES[axis]
        return key[index] % 2 == parity[comp]

    terms = ({}, {})
    for comp in (0, 1):
        for key in monos:
            if allowed(key, comp) and draw(st.booleans()):
                terms[comp][key] = draw(_COEFFS)
    if axis is not None and draw(st.booleans()):
        comp = draw(st.sampled_from([0, 1]))
        key = draw(st.sampled_from([k for k in monos if not allowed(k, comp)]))
        terms[comp][key] = draw(_COEFFS.filter(bool))
    return nl_field(*terms)


@settings(max_examples=300, deadline=None)
@given(symmetry_fields())
def test_reversibility_parity_matches_complex_criterion(field):
    rep = detect_symmetries(field)
    assert (rep.rev_x_axis, rep.rev_y_axis) == complex_reversibility(field)


def test_bautin_cases_all_zero():
    assert bautin_classify(0, 0, 0, 0, 0) == {"i", "ii", "iii", "iv"}


def test_bautin_case_membership():
    rng = random.Random(24)
    l2, l3, l4, l6 = (rand_frac(rng, nonzero=True) for _ in range(4))
    assert "i" in bautin_classify(l2, l3, 0, 0, l6)
    assert "ii" in bautin_classify(0, l3, l4, 0, l6)
    assert "iii" in bautin_classify(l2, l3, l4, rand_frac(rng), l3)
    u, v = Fraction(2, 3), Fraction(1, 5)
    l6 = u * u
    l3 = 2 * u * u + v * v
    cases = bautin_classify(u * v, l3, -5 * (l3 - l6), 0, l6)
    assert "iv" in cases
    # a generic tuple lands in no case
    assert bautin_classify(1, 2, 3, 4, 5) == set()


def test_schlomiuk_case_membership():
    assert schlomiuk_classify(0, 0, 0, 0, 0, 0) == {"i", "ii", "iii"}
    assert "ii" in schlomiuk_classify(1, 2, 3, 5, -2, -1)
    assert "iii" in schlomiuk_classify(1, 6, 0, 0, 3, 2)
    assert schlomiuk_classify(1, 1, 1, 1, 1, 1) == {"i"}
    assert schlomiuk_classify(1, 2, 0, 3, 1, 1) == set()
