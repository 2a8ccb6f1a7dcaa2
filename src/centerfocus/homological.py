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

The complex basis z, zbar, where D(z^k zbar^l) = i (k - l) z^k zbar^l
is diagonal, gives the same solution (Romanovski & Shafer, The Center
and Cyclicity Problems, 2009) at O(n^2) Gaussian-rational products per
monomial; `tests/oracles.py` keeps it as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .poly import (
    BiPoly,
    HomogeneousPoly,
    X,
    Y,
    circle_average,
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
    even = n % 2 == 0

    k_const = circle_average(gp)
    if not even and k_const != 0:
        raise AssertionError(f"odd degree {n} has a resonant part {k_const}")
    gk = [gp.coeff(k, n - k) for k in range(n + 1)]
    if even and k_const:
        for i in range(n // 2 + 1):
            gk[2 * i] -= k_const * comb(n // 2, i)

    # a[n + 1] is never written: it is the zero a_(n+1), and as a[-1] also a_(-1)
    a = [Fraction(0)] * (n + 2)
    for k in range(0, n, 2):
        a[k + 1] = ((n - k + 1) * a[k - 1] - gk[k]) / (k + 1)
    if even:
        if gk[n] != a[n - 1]:
            raise AssertionError(
                f"degree {n}: g_n = {gk[n]} but a_(n-1) = {a[n - 1]} after "
                f"removing the average {k_const}"
            )
        for k in range(1, n, 2):
            a[k + 1] = ((n - k + 1) * a[k - 1] - gk[k]) / (k + 1)
    else:
        for k in range(n, 0, -2):
            a[k - 1] = (gk[k] + (k + 1) * a[k + 1]) / (n - k + 1)

    f = BiPoly({(k, n - k): a[k] for k in range(n + 1)})
    if even:
        f = f + radial_power(n) * (gauge - circle_average(f))
    return HomologicalSolution(
        f=HomogeneousPoly(n, f),
        k_const=k_const,
        gauge=gauge if even else Fraction(0),
    )


def radial_power(n: int) -> BiPoly:
    """(x^2 + y^2)^(n/2) for even n."""
    if n % 2:
        raise ValueError("radial power needs an even degree")
    m = n // 2
    return BiPoly({(2 * i, n - 2 * i): comb(m, i) for i in range(m + 1)})
