"""Reference checks that share no code with the engine.

Polynomials here are plain dicts {(i, j): Fraction} for x^i y^j. The
checks read the engine's outputs as data (coefficients, floats, report
JSON) and test them against closed forms and identities derived
independently:

- the Guckenheimer-Holmes first focus coefficient, from the field's
  second and third derivatives at the origin;
- the Lyapunov identity X(V) - sum V_k (x^2+y^2)^(k+1) = O(order+2),
  with the degree-(order+2) slice averaging to the last V_k (Wallis);
- axis reversibility and zero divergence, which force every V_k = 0;
- the radial cubic's return map c / sqrt(1 - 4 pi a c^2) and period 2 pi;
- conservation of the energy along a Hamiltonian orbit.

Every check raises CheckFailed with a message naming what disagreed.
"""

from __future__ import annotations

import math
from fractions import Fraction

TWO_PI = 2.0 * math.pi
RETURNMAP_REL = 1e-11  # relative error allowed against the radial closed form
PERIOD_TOL = 1e-10  # absolute error allowed against 2 pi
DRIFT_TOL = 1e-9  # largest energy drift along an orbit
EVAL_STRIDE = 97  # every EVAL_STRIDE-th orbit row is evaluated here too


class CheckFailed(AssertionError):
    """An engine output disagreed with its reference."""


# -- dict polynomial arithmetic ------------------------------------------------


def padd(a: dict, b: dict, scale=1) -> dict:
    out = dict(a)
    for key, c in b.items():
        s = out.get(key, 0) + scale * c
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


def pmul(a: dict, b: dict, max_degree: int) -> dict:
    """a * b with every term above max_degree dropped."""
    out: dict = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            if i1 + j1 + i2 + j2 > max_degree:
                continue
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def pdx(a: dict) -> dict:
    return {(i - 1, j): c * i for (i, j), c in a.items() if i}


def pdy(a: dict) -> dict:
    return {(i, j - 1): c * j for (i, j), c in a.items() if j}


def degree_slice(a: dict, n: int) -> dict:
    return {(i, j): c for (i, j), c in a.items() if i + j == n}


def r2_power(k: int) -> dict:
    """(x^2+y^2)^k by the binomial theorem."""
    return {(2 * s, 2 * (k - s)): Fraction(math.comb(k, s)) for s in range(k + 1)}


def wallis_average(a: dict) -> Fraction:
    """(1/2pi) integral over the unit circle, term by term by Wallis."""
    total = Fraction(0)
    for (i, j), c in a.items():
        if i % 2 or j % 2:
            continue
        num = math.prod(range(i - 1, 0, -2)) * math.prod(range(j - 1, 0, -2))
        total += c * Fraction(num, math.prod(range(i + j, 0, -2)))
    return total


def float_eval(a: dict, x: float, y: float) -> float:
    return math.fsum(float(c) * x**i * y**j for (i, j), c in a.items())


# -- structural facts ----------------------------------------------------------


def is_reversible(p: dict, q: dict) -> bool:
    """Invariant under (x, y, t) -> (x, -y, -t) or (-x, y, -t)."""
    about_x = all(j % 2 for (_, j) in p) and all(j % 2 == 0 for (_, j) in q)
    about_y = all(i % 2 == 0 for (i, _) in p) and all(i % 2 for (i, _) in q)
    return about_x or about_y


def is_divergence_free(p: dict, q: dict) -> bool:
    return not padd(pdx(p), pdy(q))


def gh_first_coefficient(p: dict, q: dict) -> Fraction:
    """Guckenheimer-Holmes a for x' = -y + f, y' = x + g (omega = 1).

    a = (1/16)[f_xxx + f_xyy + g_xxy + g_yyy]
      + (1/16)[f_xy (f_xx + f_yy) - g_xy (g_xx + g_yy) - f_xx g_xx + f_yy g_yy]
    with every derivative taken at the origin; equals V_1.
    """
    f = lambda i, j: Fraction(p.get((i, j), 0)) * math.factorial(i) * math.factorial(j)
    g = lambda i, j: Fraction(q.get((i, j), 0)) * math.factorial(i) * math.factorial(j)
    third = f(3, 0) + f(1, 2) + g(2, 1) + g(0, 3)
    second = (
        f(1, 1) * (f(2, 0) + f(0, 2))
        - g(1, 1) * (g(2, 0) + g(0, 2))
        - f(2, 0) * g(2, 0)
        + f(0, 2) * g(0, 2)
    )
    return (third + second) / 16


# -- checks --------------------------------------------------------------------


def check_lyapunov(p: dict, q: dict, order: int, h: dict, v: list) -> None:
    """V = (x^2+y^2)/2 + sum H_n must satisfy the defining identity.

    p, q: the full field; h: degree -> dict for H_3..H_{order+1}; v: V_1..
    V_{order/2}. Order must be even so the last constant sits on the last
    slice. Also pins V_1 to the Guckenheimer-Holmes coefficient.
    """
    if order % 2:
        raise CheckFailed(f"reference check needs an even order, got {order}")
    k_last = order // 2
    if len(v) != k_last:
        raise CheckFailed(f"expected {k_last} constants, got {len(v)}")
    if sorted(h) != list(range(3, order + 2)):
        raise CheckFailed(f"H degrees {sorted(h)} are not 3..{order + 1}")
    top = order + 2
    big_v = {(2, 0): Fraction(1, 2), (0, 2): Fraction(1, 2)}
    for hn in h.values():
        big_v = padd(big_v, hn)
    rem = padd(pmul(pdx(big_v), p, top), pmul(pdy(big_v), q, top))
    for k, vk in enumerate(v[:-1], start=1):
        rem = padd(rem, r2_power(k + 1), -vk)
    low = {key: c for key, c in rem.items() if sum(key) <= order + 1}
    if low:
        key = min(low, key=sum)
        raise CheckFailed(
            f"X(V) - sum V_k r^(2k+2) has a term at degree {sum(key)} <= {order + 1}"
        )
    avg = wallis_average(degree_slice(rem, top))
    if avg != v[-1]:
        raise CheckFailed(f"degree-{top} slice averages to {avg}, V_{k_last} = {v[-1]}")
    gh = gh_first_coefficient(p, q)
    if v[0] != gh:
        raise CheckFailed(f"V_1 = {v[0]} but the Guckenheimer-Holmes coefficient is {gh}")
    if (is_reversible(p, q) or is_divergence_free(p, q)) and any(v):
        raise CheckFailed("a reversible or Hamiltonian field has a nonzero V_k")


def check_classify(p: dict, q: dict, code: int, report: dict) -> None:
    """A classify report against the field's structure and V_1."""
    if code != 0:
        raise CheckFailed(f"classify exited {code}")
    res = report["results"]
    v = [Fraction(item["exact"]) for item in res["symbolic"]["v"]]
    gh = gh_first_coefficient(p, q)
    if v[0] != gh:
        raise CheckFailed(f"V_1 = {v[0]} but the Guckenheimer-Holmes coefficient is {gh}")
    sym = res["symmetries"]
    if sym["hamiltonian"] != is_divergence_free(p, q):
        raise CheckFailed("hamiltonian flag disagrees with the divergence")
    if is_reversible(p, q) and not (sym["rev_x_axis"] or sym["rev_y_axis"]):
        raise CheckFailed("reversible field not reported reversible")
    num = res["numeric"]
    if is_reversible(p, q) or is_divergence_free(p, q):
        if any(v) or num["kind"] != "CenterLike":
            raise CheckFailed(f"center field reported {v} / {num['kind']}")
        return
    first = next((vk for vk in v if vk), None)
    if first is None:
        raise CheckFailed("reference fields outside the center set have V_1 != 0")
    want = 1 if first > 0 else -1
    if num["kind"] != "FocusLike" or num["sign"] != want:
        raise CheckFailed(f"numeric {num} disagrees with sign {want} of {first}")
    if res["disagreement"]:
        raise CheckFailed("report flags a disagreement")


def radial_return(a: Fraction, c: float) -> float:
    """P(c) for x' = -y + a x r^2, y' = x + a y r^2: r' = a r^3, theta' = 1."""
    return c / math.sqrt(1.0 - 4.0 * math.pi * float(a) * c * c)


def check_returnmap(a: Fraction, code: int, report: dict) -> None:
    if code != 0:
        raise CheckFailed(f"returnmap exited {code}")
    for s in report["results"]["samples"]:
        c = s["c"]
        want = radial_return(a, c)
        if abs(s["p_of_c"] - want) > RETURNMAP_REL * want:
            raise CheckFailed(f"P({c}) = {s['p_of_c']!r}, closed form {want!r}")
        if abs(s["delta"] - (want - c)) > RETURNMAP_REL * want:
            raise CheckFailed(f"delta({c}) = {s['delta']!r}, closed form {want - c!r}")


def check_period(code: int, report: dict) -> None:
    """Isochronous fields: every sampled period is 2 pi."""
    if code != 0:
        raise CheckFailed(f"period exited {code}")
    for s in report["results"]["samples"]:
        if abs(s["period"] - TWO_PI) > PERIOD_TOL:
            raise CheckFailed(f"T({s['c']}) = {s['period']!r}, not 2 pi")


def hamiltonian_field(psi: dict) -> tuple[dict, dict]:
    """(-Psi_y, Psi_x)."""
    return {k: -c for k, c in pdy(psi).items()}, pdx(psi)


def check_inverse(
    psi: dict,
    p: dict,
    q: dict,
    residuals_zero: list[bool],
    n_residuals: int,
    mismatch_zero: bool,
) -> None:
    if (p, q) != hamiltonian_field(psi):
        raise CheckFailed("built field is not (-Psi_y, Psi_x)")
    if not is_divergence_free(p, q):
        raise CheckFailed("built field has nonzero divergence")
    if len(residuals_zero) != n_residuals or not all(residuals_zero):
        raise CheckFailed(f"complementary residuals not all zero: {residuals_zero}")
    if not mismatch_zero:
        raise CheckFailed("Hamiltonian mismatch is nonzero")


def check_orbit(psi: dict, t_end: float, t: list, x: list, y: list, energy: list) -> None:
    """Energy conserved along the orbit; the engine's evaluation agrees
    with a float evaluation done here on every EVAL_STRIDE-th row."""
    if len(t) < 2 or t[-1] != t_end:
        raise CheckFailed(f"orbit stops at t = {t[-1] if t else None}, not {t_end}")
    if not len(energy) == len(t) == len(x) == len(y):
        raise CheckFailed("energy and trajectory lengths differ")
    drift = max(abs(e - energy[0]) for e in energy)
    if drift > DRIFT_TOL:
        raise CheckFailed(f"energy drifts by {drift:.3g} > {DRIFT_TOL:g}")
    for k in range(0, len(t), EVAL_STRIDE):
        own = float_eval(psi, x[k], y[k])
        if abs(own - energy[k]) > 1e-13 * max(1.0, abs(own)):
            raise CheckFailed(f"row {k}: energy {energy[k]!r}, reference {own!r}")
