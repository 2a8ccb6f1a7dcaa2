"""Formal Lyapunov series and focus quantities for planar fields.

For x' = -y + X(x, y), y' = x + Y(x, y) with polynomial nonlinearities
we build V = (x^2+y^2)/2 + H_3 + H_4 + ... degree by degree so that

    dV/dt = V_1 (x^2+y^2)^2 + V_2 (x^2+y^2)^3 + ...

The constants V_k are exact rationals. The sign of the first nonzero
one classifies the origin as a stable or unstable focus; if every
computed constant vanishes the origin is a center candidate to the
inspected order (never a proven center).

The recursion runs on the dense slices of ``poly``: a degree-n slice is
``(nums, den)``, integer numerators of x^k y^(n-k) over one positive
denominator. X_k and Y_k, read once per call, are the slices of degree
k >= 2 of p and q (the linear part is pinned to (-y, x)); the gradient
of each H_j is taken once, when H_j is solved; the source of slice n is one
`poly.slice_products` of those gradients with X_k and Y_k; `solve_slice`
inverts D on it in exact integer divisions; and the focus quantities are
Wallis averages of slices. `_recursion` takes the source as a callable,
so `structure.constants_quasihomogeneous` runs the same loop on its own
chain source in the same format. `BiPoly` appears only at the edges: the
field coming in, and `LyapunovResult.h_list` going out.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Literal, Sequence

from .errors import NonNormalizedLinearPart, OrderTooSmall
from .homological import (
    solve_homological,  # not called here; perfbench's tracer patches this name on this module
    solve_slice,
)
from .poly import (
    BiPoly,
    Gradient,
    HomogeneousPoly,
    R2,
    Slice,
    X,
    Y,
    circle_average,  # not called here; perfbench's tracer patches this name on this module
    from_slice,
    homogeneous_components,
    slice_average,
    slice_gradient,
    slice_products,
    to_slice,
)

H2 = BiPoly({(2, 0): Fraction(1, 2), (0, 2): Fraction(1, 2)})

# (n, H_j slices, H_j gradients) -> the degree-n slice of dV/dt
Source = Callable[[int, dict[int, Slice], dict[int, Gradient]], Slice]


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

    def divergence(self) -> BiPoly:
        """p_x + q_y; the linear rotation contributes nothing."""
        return self.p.diff_x() + self.q.diff_y()


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
    h: dict[int, Gradient],
    xs: dict[int, Slice],
    ys: dict[int, Slice],
) -> Slice:
    """Degree-n slice of grad(V) . (X, Y) over the known H_j (j < n).

    `h` maps j to the gradient of H_j; each term H_j,x X_k or H_j,y Y_k
    with k = n + 1 - j is one product in `slice_products`.
    """
    terms = []
    for grad_index, field in ((0, xs), (1, ys)):
        for k, (fk, fden) in field.items():
            hj = h.get(n + 1 - k)
            if hj is not None:
                terms.append((hj[grad_index], fk, hj[2] * fden))
    return slice_products(n, terms)


def _recursion(
    order: int,
    source: Source,
    gauges: dict[int, Fraction] | None = None,
) -> LyapunovResult:
    """Solve H_3 .. H_{order+1} and V_1 .. V_{order//2} degree by degree.

    `source(n, hs, grads)` gives the degree-n slice f_n of dV/dt from
    the known H_j (j < n): `hs[j]` is H_j's slice and `grads[j]` its
    gradient, taken once when H_j is solved. Each n solves D H_n = -f_n
    up to the resonant part k_const (x^2+y^2)^(n/2) that `solve_slice`
    splits off, so the slice D H_n + f_n is -k_const (x^2+y^2)^(n/2):
    zero for odd n, and V_{n/2-1} = -k_const for even n. An even order
    reads its last constant from the circle average of slice order+2
    alone.
    """
    if order < 2:
        raise OrderTooSmall(f"order {order} < 2")
    gauges = gauges or {}
    hs: dict[int, Slice] = {2: to_slice(H2, 2)}
    grads: dict[int, Gradient] = {2: slice_gradient(2, hs[2])}
    v_list: list[Fraction] = []
    for n in range(3, order + 2):
        nums, den = source(n, hs, grads)
        h_n, k_const = solve_slice(n, ([-c for c in nums], den), gauges.get(n, 0))
        hs[n] = h_n
        grads[n] = slice_gradient(n, h_n)
        if n % 2 == 0:
            v_list.append(-k_const)
    if order % 2 == 0:
        v_list.append(slice_average(order + 2, source(order + 2, hs, grads)))
    verdict, idx = _classify(v_list)
    return LyapunovResult(
        order=order,
        h_list=tuple(from_slice(n, hs[n]) for n in range(3, order + 2)),
        v_list=tuple(v_list),
        verdict=verdict,
        verdict_index=idx,
    )


def compute_lyapunov(
    field: PlanarField,
    order: int,
    gauges: dict[int, Fraction] | None = None,
) -> LyapunovResult:
    """Run the recursion through degree slices 3..order+1, plus slice
    order+2 for an even order.

    H_n is solved for n <= order+1; an even order's final slice
    order+2 contributes its constant only. `gauges` optionally injects
    kernel coefficients for the even-degree solves (degree ->
    coefficient), default all zero. The field's slices X_k, Y_k are
    converted to the dense format once, here, straight from p and q.
    """
    xs, ys = ({k: to_slice(f, k) for k in sorted({i + j for (i, j), _ in f.terms()}) if k >= 2}
              for f in (field.p, field.q))
    return _recursion(order, lambda n, hs, grads: _assemble_f(n, grads, xs, ys), gauges)


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
