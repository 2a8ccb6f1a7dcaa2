"""Inverse construction and Darboux certificates.

Forward analysis asks what Lyapunov data a field has; here we go the
other way: prescribe H_2..H_{m+1} and multipliers g_0..g_{m-1} and
build the most general field admitting that data, generate the
lambda-parameterized weak-center families, and certify first integrals
through exact cofactor identities (no irrational powers are ever
evaluated).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Literal

from .errors import DegreeMismatch, LambdaZero, PreconditionFailed, ZeroCurve
from .lyapunov import (
    H2,
    PlanarField,
    compute_lyapunov,
    lyapunov_function,
    _assemble_f,  # not called here; perfbench's tracer patches this name on this module
)
from .poly import BiPoly, R2, X, Y, poisson_bracket
from .structure import _qh_slices, weak_center_check


@dataclass(frozen=True)
class InverseSpec:
    """Prescribed data: H_2..H_{m+1} and g_0..g_{m-1}, H_2 = (x^2+y^2)/2, g_0 = 1."""

    m: int
    h_list: tuple[BiPoly, ...]  # H_2, H_3, ..., H_{m+1}
    g_list: tuple[BiPoly, ...]  # g_0, g_1, ..., g_{m-1}

    def __post_init__(self):
        if self.m < 2:
            raise DegreeMismatch(f"target degree {self.m} < 2")
        if len(self.h_list) != self.m:
            raise DegreeMismatch(
                f"expected {self.m} prescribed H's (degrees 2..{self.m + 1})"
            )
        if len(self.g_list) != self.m:
            raise DegreeMismatch(
                f"expected {self.m} multipliers (degrees 0..{self.m - 1})"
            )
        if self.h_list[0] != H2:
            raise DegreeMismatch("H_2 must be (x^2+y^2)/2")
        if self.g_list[0] != BiPoly.constant(1):
            raise DegreeMismatch("g_0 must be the constant 1")
        for d, h in enumerate(self.h_list, start=2):
            if not h.is_zero() and not (h.is_homogeneous() and h.degree() == d):
                raise DegreeMismatch(f"H_{d} is not homogeneous of degree {d}")
        for d, g in enumerate(self.g_list):
            if not g.is_zero() and not (g.is_homogeneous() and g.degree() == d):
                raise DegreeMismatch(f"g_{d} is not homogeneous of degree {d}")

    def h(self, j: int) -> BiPoly:
        return self.h_list[j - 2]

    def g(self, k: int) -> BiPoly:
        return self.g_list[k]

    def psi(self, j: int) -> BiPoly:
        """Prefix sum H_2 + ... + H_j."""
        total = BiPoly()
        for d in range(2, j + 1):
            total = total + self.h(d)
        return total


def build_field(spec: InverseSpec) -> PlanarField:
    """x' = sum_j g_{m+1-j} {Psi_j, x}, y' = sum_j g_{m+1-j} {Psi_j, y}.

    With g_0 = 1 the linear part is exactly (-y, x). Note {f, x} = -f_y
    and {f, y} = f_x.
    """
    p = BiPoly()
    q = BiPoly()
    for j in range(2, spec.m + 2):
        g = spec.g(spec.m + 1 - j)
        if g.is_zero():
            continue
        psi = spec.psi(j)
        p = p + g * (-psi.diff_y())
        q = q + g * psi.diff_x()
    return PlanarField(p=p, q=q)


def complementary_residuals(spec: InverseSpec, up_to: int) -> list[BiPoly]:
    """Degree-(n+2) slices of dV/dt for n = m..up_to.

    V = H_2 + ... + H_{up_to+2} is the forward recursion's own series on
    the built field, with zero gauges: every H_j comes from the
    recursion, the prescribed degrees included, so where a prescribed
    even-degree H_j has a nonzero circle average the recursion's H_j
    differs from it. dV/dt is taken along the built field as a whole
    polynomial, as `lyapunov.residual` does, except that products of
    degree above up_to+2 are never formed. Its slice at degree n+2
    collapses to V_{n/2} (x^2+y^2)^(n/2+1) for even n and vanishes for
    odd n. The first nonzero V_k does not depend on the gauges, so
    neither does the zero pattern up to the first nonzero residual. All
    residuals zero through up_to certifies V is a first integral to that
    order.
    """
    field = build_field(spec)
    v = lyapunov_function(compute_lyapunov(field, max(up_to + 1, 2)))
    dv = _derivative_to(field, v, up_to + 2)
    return [dv.homogeneous_component(n + 2) for n in range(spec.m, up_to + 1)]


def _derivative_to(field: PlanarField, v: BiPoly, top: int) -> BiPoly:
    """The terms of degree at most top of v_x p + v_y q; no product of
    degree above top is formed."""
    out: dict[tuple[int, int], Fraction] = {}
    for a, b in ((v.diff_x(), field.p), (v.diff_y(), field.q)):
        for (i1, j1), c1 in a._terms.items():
            room = top - i1 - j1
            for (i2, j2), c2 in b._terms.items():
                if i2 + j2 <= room:
                    key = (i1 + i2, j1 + j2)
                    out[key] = out.get(key, 0) + c1 * c2
    return BiPoly._of({k: c for k, c in out.items() if c})


@dataclass(frozen=True)
class DarbouxCandidate:
    """Shape of the first integral attached to the weak-center family."""

    g: BiPoly
    lam: Fraction

    def __post_init__(self):
        if self.lam == 0:
            raise ValueError("the family degenerates at lambda = 0")

    @property
    def form(self) -> Literal["Power", "Exponential", "Rational"]:
        """H_2 exp(-g) at lambda = 1, rational at lambda = 1/m, else a power."""
        if self.lam == 1:
            return "Exponential"
        return "Rational" if self.lam.numerator == 1 else "Power"


@dataclass(frozen=True)
class CofactorCertificate:
    curve: BiPoly
    cofactor: BiPoly


def weak_center_family(
    m: int,
    lam: Fraction | int,
    g_top: BiPoly,
    nu: Fraction | int = 0,
) -> tuple[PlanarField, DarbouxCandidate]:
    """The one-parameter family with H_{m+1} = -lambda H_2 g_{m-1}.

    `build_field` on H = (H_2, 0, ..., H_{m+1}), g = (1, 0, ..., g_top):

        x' = lambda H_2 d_y g - y (1 + (1 - lambda) g)
        y' = -lambda H_2 d_x g + x (1 + (1 - lambda) g)

    g is the prescribed degree-(m-1) multiplier. For odd m = 2k+1 the
    optional nu adds nu H_2^(k+1) to H_{m+1} (default 0). Returns the
    field together with its Darboux candidate: the integral is
    H_2 (1 + (1-lambda) g)^(-lambda/(1-lambda)) away from lambda = 1 and
    H_2 exp(-g) at lambda = 1.
    """
    lam = Fraction(lam)
    if lam == 0:
        raise LambdaZero("the family degenerates at lambda = 0")
    nu = Fraction(nu)
    h_top = H2 * g_top * (-lam)
    if nu:
        if m % 2 == 0:
            raise DegreeMismatch("the nu branch needs odd m")
        h_top = h_top + H2 ** ((m + 1) // 2) * nu
    zeros = (BiPoly(),) * (m - 2)
    spec = InverseSpec(
        m=m,
        h_list=(H2,) + zeros + (h_top,),
        g_list=(BiPoly.constant(1),) + zeros + (g_top,),
    )
    return build_field(spec), DarbouxCandidate(g=g_top, lam=lam)


def _poly_divide(num: BiPoly, den: BiPoly) -> BiPoly | None:
    """Exact quotient num/den or None; multivariate long division by
    the graded-lex leading term, remainder must vanish; den is nonzero."""
    lead_key, lead_c = list(den.terms())[-1]
    quotient = BiPoly()
    rem = num
    while not rem.is_zero():
        rk, rc = list(rem.terms())[-1]
        di, dj = rk[0] - lead_key[0], rk[1] - lead_key[1]
        if di < 0 or dj < 0:
            return None
        t = BiPoly.monomial(di, dj, rc / lead_c)
        quotient = quotient + t
        rem = rem - t * den
    return quotient


def find_cofactor(field: PlanarField, curve: BiPoly) -> CofactorCertificate | None:
    """Exact cofactor K with X(curve) = K curve, when one exists."""
    if curve.is_zero():
        raise ZeroCurve("invariant curve candidate is zero")
    k = _poly_divide(field.derivative_along(curve), curve)
    if k is None:
        return None
    return CofactorCertificate(curve=curve, cofactor=k)


def verify_darboux(field: PlanarField, cand: DarbouxCandidate) -> bool:
    """Certify the family integral through two exact identities:

        X(H_2) = lambda H_2 {H_2, g}
        X(g)   = {H_2, g} (1 + (1 - lambda) g)

    At lambda = 1 the second identity loses its g term and the pair
    certifies H_2 exp(-g) instead of the power form.
    """
    lam = cand.lam
    g = cand.g
    bracket = poisson_bracket(H2, g)
    if field.derivative_along(H2) != H2 * bracket * lam:
        return False
    return field.derivative_along(g) == bracket * (1 + (1 - lam) * g)


def devlin_integral(field: PlanarField) -> tuple[BiPoly, BiPoly]:
    """Rational first integral for single-degree fields with mu = 2m.

    F = (x^2 + y^2 + 2 (x Y_m - y X_m)) / (x^2 + y^2)^m, certified by
    the identity X(num) (x^2+y^2) = m num X(x^2+y^2) which is exactly
    X(F) = 0 cleared of denominators.
    """
    m, xm, ym = _qh_slices(field)
    wc = weak_center_check(field)
    if wc is None or wc.mu != 2 * m:
        raise PreconditionFailed(f"needs mu = {2 * m}, found {wc and wc.mu}")
    num = R2 + 2 * (X * ym - Y * xm)
    den = R2**m
    lhs = field.derivative_along(num) * R2
    rhs = num * field.derivative_along(R2) * m
    if lhs != rhs:
        raise PreconditionFailed("integral identity failed on this field")
    return num, den


def hamiltonian_mismatch(spec: InverseSpec) -> BiPoly:
    """sum_j {Psi_j, g_{m+1-j}} = div of the built field; zero iff Hamiltonian."""
    return build_field(spec).divergence()
