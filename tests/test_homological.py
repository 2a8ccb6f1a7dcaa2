"""The rotational solver against identities and two independent oracles."""

import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import centerfocus
from centerfocus import (
    BiPoly,
    HomogeneousPoly,
    R2,
    apply_rotational,
    circle_average,
    radial_power,
    solve_homological,
)
from helpers import rand_frac
from oracles import complex_rotational_solve, dense_rotational_solve


def random_homogeneous(rng, degree):
    return BiPoly({(degree - i, i): rand_frac(rng) for i in range(degree + 1)})


def test_round_trip_identity():
    rng = random.Random(11)
    for degree in range(2, 10):
        g = random_homogeneous(rng, degree)
        sol = solve_homological(g)
        recovered = apply_rotational(sol.f)
        if degree % 2 == 0:
            recovered = recovered + radial_power(degree) * sol.k_const
        else:
            assert sol.k_const == 0
        assert recovered == g


def test_resonant_constant_is_circle_average():
    rng = random.Random(12)
    for degree in (2, 4, 6, 8):
        g = random_homogeneous(rng, degree)
        assert solve_homological(g).k_const == circle_average(g)


def test_gauge_adds_kernel():
    g = BiPoly({(2, 0): 3, (1, 1): -2, (0, 2): 1})
    base = solve_homological(g)
    shifted = solve_homological(g, gauge=Fraction(5, 3))
    assert shifted.f.inner - base.f.inner == radial_power(2) * Fraction(5, 3)
    assert shifted.k_const == base.k_const


def test_matches_dense_oracle():
    rng = random.Random(13)
    for degree in range(2, 31):
        g = random_homogeneous(rng, degree)
        f_oracle, k_oracle = dense_rotational_solve(g)
        sol = solve_homological(g)
        assert sol.k_const == k_oracle
        diff = sol.f.inner - f_oracle
        if degree % 2:
            assert diff.is_zero()
        else:
            # solutions may differ by a kernel multiple only
            assert diff == radial_power(degree) * diff.coeff(degree, 0)


def test_homogeneous_wrapper_input():
    g = HomogeneousPoly(3, BiPoly({(2, 1): 4}))
    sol = solve_homological(g)
    assert apply_rotational(sol.f) == g.inner


def test_non_homogeneous_rejected():
    with pytest.raises(ValueError):
        solve_homological(BiPoly({(1, 0): 1, (2, 0): 1}))


def test_radial_power_odd_rejected():
    with pytest.raises(ValueError):
        radial_power(3)


BIG = 2**200
# Mersenne primes 2^61 - 1, 2^127 - 1 and 2^521 - 1
LARGE_PRIMES = (2**61 - 1, 2**127 - 1, 2**521 - 1)
fractions = st.one_of(
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12)),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)),
    st.builds(Fraction, st.integers(-BIG, BIG), st.sampled_from(LARGE_PRIMES)),
)


@st.composite
def sparse_homogeneous(draw):
    degree = draw(st.integers(0, 30))
    slots = draw(st.sets(st.integers(0, degree), max_size=degree + 1))
    terms = {(degree - i, i): draw(fractions) for i in slots}
    return HomogeneousPoly(degree, BiPoly(terms))


@settings(max_examples=50, deadline=None)
@given(sparse_homogeneous(), fractions)
# f = 0 before the gauge shift: the shift must still run
@example(HomogeneousPoly(4, BiPoly()), Fraction(2, 3))
def test_matches_complex_basis_solve(g, gauge):
    f_ref, k_ref = complex_rotational_solve(g, gauge)
    sol = solve_homological(g, gauge)
    assert sol.f.inner == f_ref
    assert sol.k_const == k_ref
    assert sol.gauge == (gauge if g.degree % 2 == 0 else 0)


@st.composite
def dense_homogeneous(draw):
    degree = draw(st.integers(0, 41))
    terms = {(degree - i, i): draw(fractions) for i in range(degree + 1)}
    return HomogeneousPoly(degree, BiPoly(terms))


@settings(max_examples=40, deadline=None)
@given(dense_homogeneous(), st.one_of(st.just(Fraction(0)), fractions))
def test_dense_slices_match_both_oracles(g, gauge):
    """The slice solve behind solve_homological, on full slices up to
    degree 41: equal to the complex-basis solve, and to the dense Gauss
    solve up to the kernel multiple that the gauge fixes."""
    n = g.degree
    sol = solve_homological(g, gauge)
    f_ref, k_ref = complex_rotational_solve(g, gauge)
    assert sol.f.inner == f_ref
    assert sol.k_const == k_ref
    if g.inner.is_zero():
        return
    f_dense, k_dense = dense_rotational_solve(g.inner)
    assert sol.k_const == k_dense
    if n % 2:
        assert sol.f.inner == f_dense
    else:
        kernel = radial_power(n) * (gauge - circle_average(f_dense))
        assert sol.f.inner == f_dense + kernel


def test_radial_power_matches_r2_powers():
    for m in range(16):
        assert radial_power(2 * m) == R2**m


def test_solve_checks_survive_optimize():
    # a wrong circle average must trip the wrapper's check against the
    # resonant part the slice solve splits off, and a wrong slice average
    # the slice solve's own even-degree compatibility check, also with
    # asserts compiled out
    script = textwrap.dedent("""
        import sys
        from fractions import Fraction
        import centerfocus.homological as hom
        from centerfocus import BiPoly

        hom.circle_average = lambda p: Fraction(1, 3)
        for degree in (2, 3, 4, 7):
            g = BiPoly({(degree - i, i): i + 1 for i in range(degree + 1)})
            try:
                hom.solve_homological(g)
            except AssertionError:
                print(degree, "raised")
            else:
                print(degree, "returned")
        hom.slice_average = lambda n, s: Fraction(1, 3)
        for degree in (2, 4, 10):
            try:
                hom.solve_slice(degree, (list(range(1, degree + 2)), 1))
            except AssertionError:
                print(degree, "slice raised")
            else:
                print(degree, "slice returned")
        print("optimize", sys.flags.optimize)
    """)
    src = Path(centerfocus.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    assert out.stdout.splitlines() == [
        "2 raised", "3 raised", "4 raised", "7 raised",
        "2 slice raised", "4 slice raised", "10 slice raised", "optimize 1",
    ]
