"""The rotational operator D f = x f_y - y f_x and its inversion.

In the complex monomial basis D is diagonal: D(z^k zbar^l) =
i (k - l) z^k zbar^l. Solving D f = g on homogeneous polynomials of
degree n is therefore a termwise division, except at the resonant
monomial (z zbar)^(n/2) (even n only), whose coefficient must be
projected out and reappears as the multiple of (x^2 + y^2)^(n/2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .poly import (
    BiPoly,
    ComplexCoeffs,
    HomogeneousPoly,
    R2,
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
    return BiPoly.monomial(1, 0) * f.diff_y() - BiPoly.monomial(0, 1) * f.diff_x()


def solve_homological(
    g: BiPoly | HomogeneousPoly,
    gauge: Fraction | int = 0,
) -> HomologicalSolution:
    """Solve D f = g - k_const (x^2+y^2)^(n/2) for homogeneous g.

    Odd n: the solution is unique and k_const = 0. Even n: k_const is
    the circle average of g, and the kernel direction (x^2+y^2)^(n/2)
    in f is fixed by `gauge` (0 gives the canonical solution).
    """
    if isinstance(g, HomogeneousPoly):
        n, gp = g.degree, g.inner
    else:
        if not g.is_homogeneous():
            raise ValueError("solve_homological needs a homogeneous input")
        gp = g
        n = max(g.degree(), 0)
    gauge = Fraction(gauge)

    cc = to_complex(gp)
    out: dict[tuple[int, int], tuple[Fraction, Fraction]] = {}
    k_const = Fraction(0)
    for (k, l), (re, im) in cc.entries.items():
        d = k - l
        if d == 0:
            # resonant: (z zbar)^(n/2) = (x^2+y^2)^(n/2); for real g this
            # coefficient is real and equals the circle average of g
            if im != 0:
                raise AssertionError(
                    "resonant coefficient of a real polynomial must be real"
                )
            k_const = re
            continue
        # divide by i d: (re + i im)/(i d) = im/d - i re/d
        out[(k, l)] = (im / d, -re / d)
    if n % 2 == 0 and gauge:
        m = n // 2
        prev = out.get((m, m), (Fraction(0), Fraction(0)))
        # (x^2+y^2)^(n/2) = (z zbar)^(n/2) in the complex basis
        out[(m, m)] = (prev[0] + gauge, prev[1])
    f = from_complex(ComplexCoeffs(out))
    if n % 2 and k_const != 0:
        raise AssertionError(f"odd degree {n} has a resonant part {k_const}")
    return HomologicalSolution(
        f=HomogeneousPoly(n, f),
        k_const=k_const,
        gauge=gauge if n % 2 == 0 else Fraction(0),
    )


def radial_power(n: int) -> BiPoly:
    """(x^2 + y^2)^(n/2) for even n."""
    if n % 2:
        raise ValueError("radial power needs an even degree")
    return R2 ** (n // 2)
