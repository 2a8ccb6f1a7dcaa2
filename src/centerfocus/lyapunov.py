"""Formal Lyapunov series and focus quantities for planar fields.

For x' = -y + X(x, y), y' = x + Y(x, y) with polynomial nonlinearities
we build V = (x^2+y^2)/2 + H_3 + H_4 + ... degree by degree so that

    dV/dt = V_1 (x^2+y^2)^2 + V_2 (x^2+y^2)^3 + ...

The constants V_k are exact rationals. The sign of the first nonzero
one classifies the origin as a stable or unstable focus; if every
computed constant vanishes the origin is a center candidate to the
inspected order (never a proven center).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Literal, Sequence

from .errors import NonNormalizedLinearPart, OrderTooSmall
from .homological import radial_power, solve_homological
from .poly import (
    BiPoly,
    HomogeneousPoly,
    R2,
    X,
    Y,
    circle_average,  # called through this module: perfbench's tracer patches it here
    homogeneous_components,
)

H2 = BiPoly({(2, 0): Fraction(1, 2), (0, 2): Fraction(1, 2)})


@dataclass(frozen=True)
class PlanarField:
    """Polynomial field x' = p(x, y), y' = q(x, y) with linear part (-y, x)."""

    p: BiPoly
    q: BiPoly

    def __post_init__(self):
        for poly, name in ((self.p, "p"), (self.q, "q")):
            if poly.coeff(0, 0):
                raise NonNormalizedLinearPart(f"{name} has a constant term")
        lin_ok = (
            self.p.coeff(1, 0) == 0
            and self.p.coeff(0, 1) == -1
            and self.q.coeff(1, 0) == 1
            and self.q.coeff(0, 1) == 0
        )
        if not lin_ok:
            raise NonNormalizedLinearPart("linear part must be exactly (-y, x)")

    @property
    def degree(self) -> int:
        return max(self.p.degree(), self.q.degree())

    def nonlinear(self) -> tuple[BiPoly, BiPoly]:
        """(X, Y) with the linear rotation removed."""
        return self.p + Y, self.q - X

    def nonlinear_slices(self) -> tuple[dict[int, BiPoly], dict[int, BiPoly]]:
        xs, ys = self.nonlinear()
        return (
            {h.degree: h.inner for h in homogeneous_components(xs)},
            {h.degree: h.inner for h in homogeneous_components(ys)},
        )

    def derivative_along(self, v: BiPoly) -> BiPoly:
        """dv/dt along the field: v_x p + v_y q."""
        return v.diff_x() * self.p + v.diff_y() * self.q


Verdict = Literal["CenterCandidate", "StableFocus", "UnstableFocus"]


@dataclass(frozen=True)
class LyapunovResult:
    order: int
    h_list: tuple[HomogeneousPoly, ...]  # H_3 .. H_{order+1}
    v_list: tuple[Fraction, ...]  # V_1 .. V_{order//2}; V_k goes with (x^2+y^2)^(k+1)
    verdict: Verdict
    verdict_index: int | None  # k of the deciding V_k; None for a center candidate

    def h(self, n: int) -> BiPoly:
        """H_n for 3 <= n <= order+1."""
        return self.h_list[n - 3].inner

    def describe(self) -> str:
        if self.verdict == "CenterCandidate":
            return f"CenterCandidate({self.order})"
        return f"{self.verdict}({self.verdict_index})"


def _classify(v_list: Sequence[Fraction]):
    for k, v in enumerate(v_list, start=1):
        if v:
            return ("StableFocus" if v < 0 else "UnstableFocus"), k
    return "CenterCandidate", None


def _assemble_f(
    n: int,
    h: dict[int, BiPoly],
    xs: dict[int, BiPoly],
    ys: dict[int, BiPoly],
) -> BiPoly:
    """Degree-n slice of grad(V) . (X, Y) over the known H_j (j < n)."""
    total = BiPoly()
    for j, hj in h.items():
        k = n + 1 - j
        if k < 2:
            continue
        xk = xs.get(k)
        yk = ys.get(k)
        if xk is not None:
            total = total + hj.diff_x() * xk
        if yk is not None:
            total = total + hj.diff_y() * yk
    return total


def _recursion(
    order: int,
    source: Callable[[int, dict[int, BiPoly]], BiPoly],
    gauges: dict[int, Fraction] | None = None,
) -> LyapunovResult:
    """Solve H_3 .. H_{order+1} and V_1 .. V_{order//2} degree by degree.

    `source(n, h)` gives the degree-n slice f_n of dV/dt from the known
    H_j (j < n). Odd n solves D H_n = -f_n; even n reads V = avg(f_n)
    and solves D H_n = V (x^2+y^2)^(n/2) - f_n, stopping after the
    constant of slice order+2.
    """
    if order < 2:
        raise OrderTooSmall(f"order {order} < 2")
    gauges = gauges or {}
    h: dict[int, BiPoly] = {2: H2}
    v_list: list[Fraction] = []
    for n in range(3, order + 3):
        f_n = source(n, h)
        if n % 2 == 0:
            v = circle_average(f_n)
            v_list.append(v)
            if n == order + 2:
                break
            rhs = radial_power(n) * v - f_n
            sol = solve_homological(
                HomogeneousPoly(n, rhs), gauge=gauges.get(n, Fraction(0))
            )
            if sol.k_const != 0:
                raise AssertionError(
                    f"degree {n}: the average was removed but k_const = {sol.k_const}"
                )
            h[n] = sol.f.inner
        else:
            if n == order + 2:
                break
            h[n] = solve_homological(HomogeneousPoly(n, -f_n)).f.inner
    verdict, idx = _classify(v_list)
    return LyapunovResult(
        order=order,
        h_list=tuple(HomogeneousPoly(n, h[n]) for n in range(3, order + 2)),
        v_list=tuple(v_list),
        verdict=verdict,
        verdict_index=idx,
    )


def compute_lyapunov(
    field: PlanarField,
    order: int,
    gauges: dict[int, Fraction] | None = None,
) -> LyapunovResult:
    """Run the recursion through degree slices 3..order+2.

    H_n is solved for n <= order+1; the final even slice contributes its
    constant only. `gauges` optionally injects kernel coefficients for
    the even-degree solves (degree -> coefficient), default all zero.
    """
    xs, ys = field.nonlinear_slices()
    return _recursion(order, lambda n, h: _assemble_f(n, h, xs, ys), gauges)


def lyapunov_function(result: LyapunovResult) -> BiPoly:
    """H_2 + H_3 + ... + H_{order+1}."""
    total = H2
    for hp in result.h_list:
        total = total + hp.inner
    return total


def residual(field: PlanarField, result: LyapunovResult) -> BiPoly:
    """dV/dt minus sum of V_k (x^2+y^2)^(k+1); degree > order+1 by construction."""
    r = field.derivative_along(lyapunov_function(result))
    for k, v in enumerate(result.v_list, start=1):
        if v:
            r = r - R2 ** (k + 1) * v
    return r
