"""Structural classifiers for planar fields.

Covers the (H, g) decomposition and its quasi-homogeneous form with the
chain recursion built on it, the weak center proportionality test,
axis reversibility read from the exponent parities of the real
coefficients, the Cauchy-Riemann and Hamiltonian tests, and the
classical quadratic center conditions (the five-parameter and
six-parameter families).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NotQuasiHomogeneous, ObstructionNonzeroAverage, OrderTooSmall
from .homological import radial_power, solve_homological
from .lyapunov import LyapunovResult, PlanarField, Source, _recursion
from .poly import (
    BiPoly,
    Gradient,
    R2,
    Slice,
    X,
    Y,
    circle_average,
    homogeneous_components,
    slice_gradient,
    slice_products,
    to_complex,  # not called here; perfbench's tracer patches this name on this module
    to_slice,
)


@dataclass(frozen=True)
class HGDecomposition:
    """Nonlinear part written as X = -h_y - y g, Y = h_x + x g."""

    h: BiPoly
    g: BiPoly


def hg_decompose(field: PlanarField) -> HGDecomposition:
    """Split the nonlinear part into a gradient piece and a rotation multiplier.

    g is solved slice by slice from D g = div(X, Y); the resonant part
    the solve splits off each slice (its circle average, zero for odd
    degrees) must vanish, otherwise no decomposition exists and
    ObstructionNonzeroAverage is raised. h is then recovered from
    Euler's identity and both defining identities are re-verified
    exactly.
    """
    xs, ys = field.nonlinear()
    g = BiPoly()
    for comp in homogeneous_components(field.divergence()):
        sol = solve_homological(comp)
        if sol.k_const:
            raise ObstructionNonzeroAverage(comp.degree, sol.k_const)
        g = g + sol.f.inner
    # Euler: the degree-d part of x Y - y X - (x^2 + y^2) g is d h_d
    w = X * ys - Y * xs - R2 * g
    h = BiPoly({(i, j): c / (i + j) for (i, j), c in w.terms()})
    # solvability was established slice by slice; failure here is a bug
    if -h.diff_y() - Y * g != xs or h.diff_x() + X * g != ys:
        raise AssertionError("h/g decomposition does not reproduce the field")
    return HGDecomposition(h=h, g=g)


def _qh_slices(field: PlanarField) -> tuple[int, BiPoly, BiPoly]:
    xs, ys = field.nonlinear_slices()
    degs = sorted(set(xs) | set(ys))
    if len(degs) != 1:
        raise NotQuasiHomogeneous(
            f"nonlinear part spans degrees {degs}, expected exactly one"
        )
    m = degs[0]
    return m, xs.get(m, BiPoly()), ys.get(m, BiPoly())


def quasihomogeneous_parts(field: PlanarField):
    """Split x' = -y + X_m, y' = x + Y_m into (m, H_{m+1}, g_{m-1}, c) with

        X_m = -H_y - y g + c x (x^2+y^2)^((m-1)/2)
        Y_m =  H_x + x g + c y (x^2+y^2)^((m-1)/2)

    The radial coefficient c can be nonzero only for odd m, where it is the
    circle average of the divergence over m + 1; hg_decompose splits what
    is left once the radial term is removed.
    """
    m, _, _ = _qh_slices(field)
    c = Fraction(0)
    if m % 2:
        c = circle_average(field.divergence()) / (m + 1)
    if c:
        rad = radial_power(m - 1) * c
        field = PlanarField(p=field.p - X * rad, q=field.q - Y * rad)
    dec = hg_decompose(field)
    return m, dec.h, dec.g, c


def _chain_source(m: int, h_top: BiPoly, g: BiPoly, c: Fraction, order: int) -> Source:
    """The degree-n slice {H_{m+1}, H_j} + g D H_j + c j r^(m-1) H_j,
    j = n + 1 - m, assembled from the parts (h, g, c) and H_j alone;
    zero unless j lies on the chain 2 + k(m-1)."""
    top_x, top_y, top_den = slice_gradient(m + 1, to_slice(h_top, m + 1))
    neg_top_y = [-v for v in top_y]
    g_nums, g_den = to_slice(g, m - 1)
    rad = to_slice(radial_power(m - 1), m - 1)[0] if c else None
    chain = {2 + k * (m - 1) for k in range(order + 1)}

    def source(n: int, hs: dict[int, Slice], grads: dict[int, Gradient]) -> Slice:
        j = n + 1 - m
        if j not in chain:
            return [0] * (n + 1), 1
        hx, hy, h_den = grads[j]
        # D H_j = x H_j,y - y H_j,x over h_den
        d_hj = [0] * (j + 1)
        for k in range(j):
            d_hj[k + 1] += hy[k]
            d_hj[k] -= hx[k]
        terms = [
            (top_x, hy, top_den * h_den),
            (neg_top_y, hx, top_den * h_den),
            (g_nums, d_hj, g_den * h_den),
        ]
        if c:
            hj_nums, hj_den = hs[j]
            scale = c.numerator * j
            terms.append(([scale * v for v in rad], hj_nums, c.denominator * hj_den))
        return slice_products(n, terms)

    return source


def constants_quasihomogeneous(field: PlanarField, order: int) -> LyapunovResult:
    """Same contract as compute_lyapunov, by the chain recursion.

    For a single nonlinear degree m the only nonzero H's sit on degrees
    2 + k(m-1); the degree-n source collapses to
    {H_{m+1}, H_j} + g D H_j + c j r^(m-1) H_j with j = n + 1 - m, which
    `_chain_source` assembles from (h, g, c) without going back to the
    field's X_m, Y_m. The recursion's loop and slice solve are shared.
    """
    if order < 2:  # reported before any shape error of the field
        raise OrderTooSmall(f"order {order} < 2")
    m, h_top, g, c = quasihomogeneous_parts(field)
    return _recursion(order, _chain_source(m, h_top, g, c, order))


@dataclass(frozen=True)
class WeakCenterResult:
    mu: Fraction
    integral_ok: bool
    lambda_darboux: Fraction | None


def weak_center_check(field: PlanarField) -> WeakCenterResult | None:
    """Search for rational mu with (x^2+y^2) div(X,Y) = mu (x X + y Y).

    mu is pinned by the first nonzero coefficient of x X + y Y and the
    identity is then verified globally; no fitting. Returns None when
    no mu makes the identity exact. integral_ok reports the side
    condition: every even-degree slice of x X + y Y averages to zero.
    """
    xs, ys = field.nonlinear()
    lhs = R2 * field.divergence()
    s = X * xs + Y * ys
    integral_ok = all(
        circle_average(comp) == 0
        for comp in homogeneous_components(s)
        if comp.degree % 2 == 0
    )
    if s.is_zero():
        if not lhs.is_zero():
            return None
        return WeakCenterResult(Fraction(0), integral_ok, None)
    key = next(iter(s.terms()))[0]
    mu = lhs.coeff(*key) / s.coeff(*key)
    if lhs != s * mu:
        return None
    lam = Fraction(2) / mu if mu else None
    return WeakCenterResult(mu, integral_ok, lam)


@dataclass(frozen=True)
class SymmetryReport:
    rev_x_axis: bool
    rev_y_axis: bool
    cauchy_riemann: bool
    hamiltonian: bool


def detect_symmetries(field: PlanarField) -> SymmetryReport:
    """Exact coefficient criteria for the four structural symmetries.

    Reversibility is an exponent-parity fact about the real nonlinear
    part (X, Y): invariance under (x,-y,-t) means every term of X has an
    odd power of y and every term of Y an even one; invariance under
    (-x,y,-t) means every term of X has an even power of x and every
    term of Y an odd one.
    """
    xs, ys = field.nonlinear()
    x_exps = [key for key, _ in xs.terms()]
    y_exps = [key for key, _ in ys.terms()]
    rev_x = all(j % 2 == 1 for _, j in x_exps) and all(j % 2 == 0 for _, j in y_exps)
    rev_y = all(i % 2 == 0 for i, _ in x_exps) and all(i % 2 == 1 for i, _ in y_exps)
    cr = xs.diff_x() == ys.diff_y() and xs.diff_y() == -ys.diff_x()
    ham = field.divergence().is_zero()
    return SymmetryReport(
        rev_x_axis=rev_x, rev_y_axis=rev_y, cauchy_riemann=cr, hamiltonian=ham
    )


def bautin_classify(
    lam2: Fraction | int,
    lam3: Fraction | int,
    lam4: Fraction | int,
    lam5: Fraction | int,
    lam6: Fraction | int,
) -> set[str]:
    """Which of the four quadratic center conditions hold for these parameters."""
    l2, l3, l4, l5, l6 = (Fraction(v) for v in (lam2, lam3, lam4, lam5, lam6))
    cases = set()
    if l4 == 0 and l5 == 0:
        cases.add("i")
    if l2 == 0 and l5 == 0:
        cases.add("ii")
    if l3 == l6:
        cases.add("iii")
    if l5 == 0 and l4 + 5 * (l3 - l6) == 0 and l3 * l6 - 2 * l6**2 - l2**2 == 0:
        cases.add("iv")
    return cases


def schlomiuk_classify(
    a: Fraction | int,
    b: Fraction | int,
    c: Fraction | int,
    k: Fraction | int,
    l: Fraction | int,
    m: Fraction | int,
) -> set[str]:
    """Which of the three center conditions hold for the clockwise quadratic family."""
    a, b, c, k, l, m = (Fraction(v) for v in (a, b, c, k, l, m))
    cases = set()
    ac = a + c
    km = k + m
    if ac * (b + 2 * m) - (2 * a + l) * km == 0:
        second = (
            k * ac**3
            + (l - a) * ac**2 * km
            + (m - b) * ac * km**2
            - c * km**3
        )
        if second == 0:
            cases.add("i")
    if 2 * a + l == 0 and b + 2 * m == 0:
        cases.add("ii")
    if (
        5 * ac - (2 * a + l) == 0
        and 5 * km - (b + 2 * m) == 0
        and c**2 + c * ac + k**2 + k * km == 0
    ):
        cases.add("iii")
    return cases
