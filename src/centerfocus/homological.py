"""The rotational operator D f = x f_y - y f_x and its inversion.

In the real monomial basis a_k = [x^k y^(n-k)] of degree-n polynomials,
D f = g reads

    g_k = (n - k + 1) a_(k-1) - (k + 1) a_(k+1),    k = 0 .. n,

with a_(-1) = a_(n+1) = 0. Each equation links two coefficients of the
same parity, so the system splits into two chains, each solved by one
bidiagonal sweep in exact arithmetic:

- the equations with even k fix the odd-index a's, forward from
  a_1 = -g_0;
- the equations with odd k fix the even-index a's: backward from
  a_(n-1) = g_n for odd n, forward from a_0 = 0 for even n.

Odd n: both chains are square, D is invertible and the solution is
unique. Even n: the even-k chain has one equation more than unknowns,
so g must first lose its resonant part k_const (x^2+y^2)^(n/2), where
k_const is the circle average of g; the leftover equation g_n = a_(n-1)
is then the compatibility check. The odd-k chain has one unknown more,
the kernel direction (x^2+y^2)^(n/2), fixed by making the circle
average of f equal to `gauge`.

`solve_slice` works on the dense slice format of ``poly``: g and f are
integer numerators a_k over one denominator. Each chain divides by
distinct numbers of one parity up to n, and each entry's denominator
divides den times the divisors met so far. So once g is scaled by n!!
(by n!! (n-1)!! for even n) every step of either chain is an exact
integer division, and the slice is reduced by one gcd at the end.
`solve_slice` reads k_const from the slice itself (Wallis weights, see
``poly.wallis_weights``) and returns it with f. `solve_homological` is
the BiPoly form, for API callers: it converts g to a slice and f back,
and checks the slice's k_const against `circle_average` of g.

The complex basis z, zbar, where D(z^k zbar^l) = i (k - l) z^k zbar^l
is diagonal, gives the same solution (Romanovski & Shafer, The Center
and Cyclicity Problems, 2009) at O(n^2) Gaussian-rational products per
monomial; `tests/oracles.py` keeps it as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd

from .poly import (
    BiPoly,
    HomogeneousPoly,
    Slice,
    X,
    Y,
    circle_average,
    double_factorial,
    from_slice,
    slice_average,
    to_slice,
    # not called here; perfbench's tracer patches these names on this module
    from_complex,
    to_complex,
)


@dataclass(frozen=True)
class HomologicalSolution:
    """Solution record for D f + k_const (x^2+y^2)^(n/2) = g."""

    f: HomogeneousPoly
    k_const: Fraction
    gauge: Fraction


def apply_rotational(f: BiPoly | HomogeneousPoly) -> BiPoly:
    """D f = x f_y - y f_x."""
    if isinstance(f, HomogeneousPoly):
        f = f.inner
    return X * f.diff_y() - Y * f.diff_x()


def _add_radial(n: int, s: Slice, c: Fraction) -> Slice:
    """s + c (x^2+y^2)^(n/2) for even n, over s's denominator times c's."""
    nums, den = s
    m, step = n // 2, c.numerator * den
    nums = [v * c.denominator for v in nums]
    for i in range(m + 1):
        nums[2 * i] += step * comb(m, i)
    return nums, den * c.denominator


def solve_slice(n: int, g: Slice, gauge: Fraction | int = 0) -> tuple[Slice, Fraction]:
    """Solve D f = g - k_const (x^2+y^2)^(n/2) on one degree-n slice.

    Returns f in lowest terms and k_const: the circle average of g for
    even n, 0 for odd n. For even n the circle average of f is made
    `gauge`, and the leftover equation g_n = a_(n-1) is checked by an
    explicit raise, so it also runs under python -O.
    """
    nums, den = g
    even = n % 2 == 0
    k_const = slice_average(n, g) if even else Fraction(0)
    if k_const:
        nums, den = _add_radial(n, g, -k_const)

    # n!! (times (n-1)!! for even n) is a multiple of the product of the
    # divisors either chain meets, so over den * mult every step divides exactly
    mult = double_factorial(n) * (double_factorial(n - 1) if even else 1)
    nums = [mult * v for v in nums]
    den *= mult
    a = [0] * (n + 2)  # a[n + 1] stays 0: it is both a_(-1) (read as a[-1]) and a_(n+1)
    # forward: even k fix the odd-index a's; for even n, odd k fix the
    # even-index a's from a_0 = 0 in the same pass
    for k in range(0, n, 1 if even else 2):
        a[k + 1] = ((n - k + 1) * a[k - 1] - nums[k]) // (k + 1)
    if even:
        if nums[n] != a[n - 1]:
            raise AssertionError(
                f"degree {n}: g_n = {Fraction(nums[n], den)} but a_(n-1) = "
                f"{Fraction(a[n - 1], den)} after removing the average {k_const}"
            )
    else:
        for k in range(n, 0, -2):
            a[k - 1] = (nums[k] + (k + 1) * a[k + 1]) // (n - k + 1)
    del a[n + 1]

    if even:
        shift = Fraction(gauge) - slice_average(n, (a, den))
        if shift:
            a, den = _add_radial(n, (a, den), shift)
    common = gcd(den, *a)
    return ([c // common for c in a], den // common), k_const


def solve_homological(
    g: BiPoly | HomogeneousPoly,
    gauge: Fraction | int = 0,
) -> HomologicalSolution:
    """Solve D f = g - k_const (x^2+y^2)^(n/2) for homogeneous g.

    Odd n: the solution is unique and k_const = 0. Even n: k_const is
    the circle average of g, and the kernel direction (x^2+y^2)^(n/2)
    in f is fixed by `gauge`, the circle average of f (0 gives the
    canonical solution).
    """
    if isinstance(g, HomogeneousPoly):
        n, gp = g.degree, g.inner
    else:
        if not g.is_homogeneous():
            raise ValueError("solve_homological needs a homogeneous input")
        gp = g
        n = max(g.degree(), 0)
    gauge = Fraction(gauge)
    average = circle_average(gp)
    f, k_const = solve_slice(n, to_slice(gp, n), gauge)
    # the BiPoly average must agree with the resonant part the slice solve split off
    if average != k_const:
        raise AssertionError(
            f"degree {n}: circle average {average} but the slice solve split off {k_const}"
        )
    return HomologicalSolution(
        f=from_slice(n, f),
        k_const=k_const,
        gauge=gauge if n % 2 == 0 else Fraction(0),
    )


def radial_power(n: int) -> BiPoly:
    """(x^2 + y^2)^(n/2) for even n."""
    if n % 2:
        raise ValueError("radial power needs an even degree")
    m = n // 2
    return BiPoly({(2 * i, n - 2 * i): comb(m, i) for i in range(m + 1)})
