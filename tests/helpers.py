"""Shared builders for the test modules."""

from fractions import Fraction

from centerfocus import BiPoly, PlanarField

# one nontrivial parameter point per catalog family; families absent here
# take no parameters or use their defaults
SAMPLE_PARAMS = {
    "bautin": dict(lam3=1, lam6=1),
    "schl": dict(a=1, b=1, c=1, k=1, l=1, m=1),
    "schl1": dict(a=1, beta=-2, lam="1/3"),
    "rgg": dict(lam4=1, lam5=-2),
    "req": dict(alpha=1, r=2, s=-1),
    "reqq": dict(b=1, c=2, beta=-3),
    "kukles": dict(alpha=1, beta=2, N=-1),
    "chava56": dict(a=1, b=0),
    "chava23": dict(a=1, b=2, L="1/3", M=-1),
    "cubic_qh": dict(A=1, C=-2, L=2, N=-1),
    "quartic_family": dict(L40=1, K22=0, L22=-1, K04=2),
    "quintic_family": dict(L50=1, L41=-2, L23=0, K05="1/2"),
    "r01200": dict(b=1, c=-2, beta=3, gamma=-1),
}


def nl_field(p_extra=None, q_extra=None) -> PlanarField:
    """(-y, x) plus the given nonlinear terms, keys (i, j) -> coeff."""
    p = {(0, 1): Fraction(-1)}
    for key, val in (p_extra or {}).items():
        p[key] = Fraction(val)
    q = {(1, 0): Fraction(1)}
    for key, val in (q_extra or {}).items():
        q[key] = Fraction(val)
    return PlanarField(p=BiPoly(p), q=BiPoly(q))


def bautin_field(l2, l3, l4, l5, l6) -> PlanarField:
    l2, l3, l4, l5, l6 = (Fraction(v) for v in (l2, l3, l4, l5, l6))
    return nl_field(
        {(2, 0): -l3, (1, 1): 2 * l2 + l5, (0, 2): l6},
        {(2, 0): l2, (1, 1): 2 * l3 + l4, (0, 2): -l2},
    )


def cubic_field(a, b, c, d, k, l, m, n) -> PlanarField:
    """x' = -y + ax^3 + bx^2y + cxy^2 + dy^3, y' = x + kx^3 + ... + ny^3."""
    return nl_field(
        {(3, 0): a, (2, 1): b, (1, 2): c, (0, 3): d},
        {(3, 0): k, (2, 1): l, (1, 2): m, (0, 3): n},
    )


def radial_cubic() -> PlanarField:
    """x' = -y + x(x^2+y^2), y' = x + y(x^2+y^2); expanding spiral."""
    return nl_field(
        {(3, 0): 1, (1, 2): 1},
        {(2, 1): 1, (0, 3): 1},
    )


def rand_frac(rng, bound=9, nonzero=False) -> Fraction:
    while True:
        v = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        if v or not nonzero:
            return v
