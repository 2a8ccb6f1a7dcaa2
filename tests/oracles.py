"""Independent reference implementations used to cross-check the engine.

The rotational equation has two references: dense Gaussian elimination
over Fraction, and the complex-basis solve, which divides termwise in
z, zbar where the operator is diagonal. The axis-reversibility flags
are re-read from the z, zbar coefficients of the field. The constant
recursion is rerun twice: on dict polynomials with the complex-basis
solve per slice, and in sympy with per-degree linear solves. Float
evaluation and the float oracle's integrations are rerun with the plain
term loop on NumPy scalars, the evaluator the compiled kernels must
match bit for bit.
"""

import math
from fractions import Fraction

import numpy as np
import sympy as sp
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from centerfocus import (
    H2,
    BiPoly,
    ComplexCoeffs,
    HomogeneousPoly,
    from_complex,
    to_complex,
)
from centerfocus.numeric import ABS_TOL, MAX_TIME, REL_TOL


def _gauss_any_solution(rows, rhs):
    """One exact solution of rows . x = rhs over Fraction, or None.

    Free columns are pinned to zero, so the answer is reproducible.
    """
    m = len(rows)
    cols = len(rows[0]) if m else 0
    a = [list(map(Fraction, row)) + [Fraction(v)] for row, v in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, m) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = 1 / a[r][c]
        a[r] = [val * inv for val in a[r]]
        for i in range(m):
            if i != r and a[i][c]:
                factor = a[i][c]
                a[i] = [u - factor * v for u, v in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if a[i][cols]:
            return None
    x = [Fraction(0)] * cols
    for i, c in enumerate(pivots):
        x[c] = a[i][cols]
    return x


def dense_rotational_solve(g: BiPoly):
    """Solve x f_y - y f_x + K (x^2+y^2)^(n/2) = g densely.

    Returns (f as BiPoly, K as Fraction); K is forced to 0 for odd n.
    """
    n = g.degree()
    assert n >= 0 and g.is_homogeneous()
    monos = [(n - i, i) for i in range(n + 1)]
    index = {mono: r for r, mono in enumerate(monos)}
    even = n % 2 == 0
    ncols = n + 1 + (1 if even else 0)
    rows = [[Fraction(0)] * ncols for _ in monos]
    # D(x^a y^b) = b x^(a+1) y^(b-1) - a x^(a-1) y^(b+1)
    for col, (a_exp, b_exp) in enumerate(monos):
        if b_exp:
            rows[index[(a_exp + 1, b_exp - 1)]][col] += b_exp
        if a_exp:
            rows[index[(a_exp - 1, b_exp + 1)]][col] -= a_exp
    if even:
        radial = (BiPoly.monomial(2, 0) + BiPoly.monomial(0, 2)) ** (n // 2)
        for (i, j), c in radial.terms():
            rows[index[(i, j)]][n + 1] = c
    rhs = [g.coeff(i, j) for (i, j) in monos]
    sol = _gauss_any_solution(rows, rhs)
    assert sol is not None, "rotational equation must be solvable"
    f = BiPoly({mono: sol[c] for c, mono in enumerate(monos)})
    k = sol[n + 1] if even else Fraction(0)
    return f, k


def complex_rotational_solve(g, gauge=0):
    """Solve D f = g - K (x^2+y^2)^(n/2) in the z, zbar basis.

    D(z^k zbar^l) = i (k - l) z^k zbar^l, so every non-resonant
    coefficient is divided by i (k - l); the resonant one (z zbar)^(n/2)
    is K, and f carries `gauge` there. `g` is a homogeneous BiPoly or a
    HomogeneousPoly. Returns (f as BiPoly, K).
    """
    if isinstance(g, HomogeneousPoly):
        n, gp = g.degree, g.inner
    else:
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
    return f, k_const


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


def bipoly_lyapunov(field, order, gauges=None):
    """The focus recursion on dict polynomials, each slice solved in the
    z, zbar basis.

    Slice n solves D H_n = -f_n - K (x^2+y^2)^(n/2) with the even-degree
    gauges; V_{n/2-1} = -K for even n, and an even order reads its last
    constant as the resonant coefficient of slice order+2. Returns
    (h, v_list, verdict) with h mapping n = 3..order+1 to H_n.
    """
    gauges = gauges or {}
    xs, ys = field.nonlinear_slices()
    h = {2: H2}
    v_list = []
    for n in range(3, order + 2):
        f_n = _assemble_f(n, h, xs, ys)
        h[n], k = complex_rotational_solve(HomogeneousPoly(n, -f_n), gauges.get(n, 0))
        if n % 2 == 0:
            v_list.append(-k)
    if order % 2 == 0:
        f_last = _assemble_f(order + 2, h, xs, ys)
        v_list.append(complex_rotational_solve(HomogeneousPoly(order + 2, f_last))[1])
    verdict = "CenterCandidate"
    for v in v_list:
        if v:
            verdict = "StableFocus" if v < 0 else "UnstableFocus"
            break
    del h[2]
    return h, v_list, verdict


def complex_reversibility(field):
    """(rev_x_axis, rev_y_axis) from the z-zbar coefficients.

    Reversibility is read off the z-zbar coefficients a_nk of
    z' = iz + sum a_nk z^n zbar^k: invariance under (x,-y,-t) means
    every a_nk is purely imaginary; invariance under (-x,y,-t) means
    a_nk = (-1)^(n+k) conj(a_nk).
    """
    xs, ys = field.nonlinear()
    p_cc = to_complex(xs)
    q_cc = to_complex(ys)
    a: dict[tuple[int, int], tuple[Fraction, Fraction]] = {}
    for key, (re, im) in p_cc.entries.items():
        a[key] = (re, im)
    for key, (re, im) in q_cc.entries.items():
        pre, pim = a.get(key, (Fraction(0), Fraction(0)))
        a[key] = (pre - im, pim + re)  # add i * (re + i im)
    rev_x = all(re == 0 for re, _ in a.values())
    rev_y = True
    for (n, k), (re, im) in a.items():
        if (n + k) % 2 == 0:
            if im != 0:
                rev_y = False
                break
        else:
            if re != 0:
                rev_y = False
                break
    return rev_x, rev_y


_X, _Y = sp.symbols("x y")


def _to_sympy(poly: BiPoly):
    return sp.Add(*[
        sp.Rational(c.numerator, c.denominator) * _X**i * _Y**j
        for (i, j), c in poly.terms()
    ])


def sympy_lyapunov(field, order):
    """Recompute V_1..V_{order//2} with dense sympy linear solves."""
    p_expr = _to_sympy(field.p)
    q_expr = _to_sympy(field.q)
    v_fn = sp.Rational(1, 2) * (_X**2 + _Y**2)
    out = []
    for n in range(3, order + 3):
        unknowns = list(sp.symbols(f"h_{n}_0:{n + 1}"))
        h_n = sp.Add(*[u * _X ** (n - i) * _Y**i for i, u in enumerate(unknowns)])
        dot = sp.expand(
            sp.diff(v_fn + h_n, _X) * p_expr + sp.diff(v_fn + h_n, _Y) * q_expr
        )
        pol = sp.Poly(dot, _X, _Y)
        eqs = []
        targets = list(unknowns)
        if n % 2 == 0:
            vk = sp.Symbol(f"v_{n}")
            radial = sp.Poly((_X**2 + _Y**2) ** (n // 2), _X, _Y)
            targets.append(vk)
            eqs.append(unknowns[0])  # gauge: no x^n term in H_n
        for i in range(n + 1):
            mono = _X ** (n - i) * _Y**i
            lhs = pol.coeff_monomial(mono)
            if n % 2 == 0:
                lhs = lhs - vk * radial.coeff_monomial(mono)
            eqs.append(lhs)
        sol = sp.solve(eqs, targets, dict=True)
        assert len(sol) == 1, f"degree {n} slice must be uniquely solvable"
        sol = sol[0]
        v_fn = v_fn + h_n.subs(sol)
        if n % 2 == 0:
            # the slice system is rational, so V_k is an exact Rational;
            # nsimplify would rewrite some rationals as products of radicals
            val = sp.Rational(sol[vk])
            out.append(Fraction(int(val.p), int(val.q)))
    return out[: order // 2]


def loop_evaluate(p: BiPoly, x, y):
    """Float evaluation, terms accumulated in graded order."""
    total = 0.0
    for (i, j), c in p.terms():
        total += float(c) * x**i * y**j
    return total


def loop_integrate(field, x0, y0, t_end):
    """solve_ivp on the term-loop RHS with NumPy-scalar state; the
    arguments ``numeric.integrate`` passes. Returns the solution."""

    def rhs(_t, s):
        x, y = s
        return (loop_evaluate(field.p, x, y), loop_evaluate(field.q, x, y))

    return solve_ivp(
        rhs, (0.0, t_end), (x0, y0), method="RK45",
        rtol=REL_TOL, atol=ABS_TOL, dense_output=False,
    )


def _loop_pq(field):
    def p(x, y):
        return loop_evaluate(field.p, x, y)

    def q(x, y):
        return loop_evaluate(field.q, x, y)

    return p, q


def loop_angle_solution(field, c):
    """solve_ivp on the angle-augmented term-loop RHS with the events and
    arguments ``numeric._first_return`` passes: the raw solution, stalled
    or not."""
    p, q = _loop_pq(field)

    def rhs(_t, s):
        x, y, _ = s
        px = p(x, y)
        qx = q(x, y)
        return (px, qx, (x * qx - y * px) / (x * x + y * y))

    def turn_done(_t, s):
        return s[2] - 2.0 * math.pi

    turn_done.terminal = True
    turn_done.direction = 1.0

    def stalled(_t, s):
        x, y, _ = s
        return x * q(x, y) - y * p(x, y)

    stalled.terminal = True
    stalled.direction = -1.0

    return solve_ivp(
        rhs, (0.0, MAX_TIME), (c, 0.0, 0.0), method="RK45",
        rtol=REL_TOL, atol=ABS_TOL,
        dense_output=True, events=(turn_done, stalled),
    )


def loop_first_return(field, c):
    """``numeric._first_return`` on the term-loop evaluator: the same
    angle-augmented integration, events and section polish, with the
    field evaluated on NumPy scalars. Returns (t_cross, x_cross,
    theta_at_cross, solution); raises ValueError where the engine
    raises a typed error."""
    q = _loop_pq(field)[1]
    sol = loop_angle_solution(field, c)
    if sol.status == -1 or len(sol.t_events[1]) or not len(sol.t_events[0]):
        raise ValueError("no first return")
    t_star = sol.t_events[0][0]
    t_cur = t_star
    for _ in range(8):
        xy = sol.sol(t_cur)
        y_val = xy[1]
        if abs(y_val) <= 1e-13:
            break
        ydot = q(xy[0], xy[1])
        if ydot == 0.0:
            break
        t_cur -= y_val / ydot
    xy = sol.sol(t_cur)
    if abs(xy[1]) > 1e-13:
        for h in (0.01, 0.05, 0.2):
            lo, hi = t_star - h, t_star + h
            if sol.sol(lo)[1] < 0.0 < sol.sol(hi)[1]:
                t_cur = brentq(lambda t: sol.sol(t)[1], lo, hi, xtol=1e-15)
                xy = sol.sol(t_cur)
                break
        else:
            raise ValueError("section crossing could not be refined")
    if xy[0] <= 0:
        raise ValueError("section crossing landed at nonpositive x")
    return t_cur, float(xy[0]), float(xy[2]), sol


def loop_grid_solution(field, c_grid):
    """solve_ivp(method="DOP853") on the term-loop form of the equations
    in theta that ``numeric._grid_deltas`` integrates, with NumPy-scalar
    state and the arguments it passes: the raw solution."""
    p, q = _loop_pq(field)
    n = len(c_grid)

    def rhs(theta, s):
        ct, st = math.cos(theta), math.sin(theta)
        out = [0.0] * (2 * n)
        for i in range(n):
            r = s[i]
            x, y = r * ct, r * st
            px, qx = p(x, y), q(x, y)
            den = x * qx - y * px
            out[i] = r * (x * px + y * qx) / den
            out[n + i] = r * r / den
        return out

    return solve_ivp(
        rhs, (0.0, 2.0 * math.pi), [float(c) for c in c_grid] + [0.0] * n,
        method="DOP853", rtol=REL_TOL, atol=ABS_TOL,
    )
