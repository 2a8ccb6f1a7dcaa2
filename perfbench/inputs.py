"""Seeded inputs: random fields and inverse specs as dict polynomials.

Every coefficient is a small signed rational n/d. The shapes are fixed
so that the first focus coefficient is nonzero (focus fields) or every
V_k vanishes by structure (reversible and Hamiltonian fields), and the
magnitudes are kept small enough that orbits through the section points
c <= 0.22 return. Nothing here imports the engine.
"""

from __future__ import annotations

import random
from fractions import Fraction

from reference import hamiltonian_field, wallis_average

LINEAR_P = {(0, 1): Fraction(-1)}  # x' = -y + ...
LINEAR_Q = {(1, 0): Fraction(1)}  # y' =  x + ...


def rand_q(rng: random.Random, dens=(2, 3, 4, 5)) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 3), rng.choice(dens))


def _field(extra_p: dict, extra_q: dict) -> tuple[dict, dict]:
    p = dict(LINEAR_P)
    q = dict(LINEAR_Q)
    p.update({k: c for k, c in extra_p.items() if c})
    q.update({k: c for k, c in extra_q.items() if c})
    return p, q


# Largest sum of the absolute quadratic coefficients of a Bautin draw;
# larger draws are redrawn. With the sum S above about 1.3 / c the orbit
# through (c, 0) can run off to infinity before it turns once (theta'
# vanishes on it, and classify exits 2 with AngleStalled): among 400
# unbounded draws, 9 with S between 8 and 12 did so at c = 0.22. With
# S <= 4, none of 5000 draws did at c = 0.25, above the largest section
# point 0.22 (a SciPy one-turn integration, rtol 1e-9).
BAUTIN_SIZE = 4


def bautin(rng: random.Random) -> tuple[dict, dict]:
    """Bautin quadratic with lam5 != 0 and lam3 != lam6, so V_1 != 0."""
    while True:
        l2, l3, l4, l5 = (rand_q(rng) for _ in range(4))
        l6 = l3 + rand_q(rng)
        p, q = _field(
            {(2, 0): -l3, (1, 1): 2 * l2 + l5, (0, 2): l6},
            {(2, 0): l2, (1, 1): 2 * l3 + l4, (0, 2): -l2},
        )
        size = sum(abs(c) for (i, j), c in [*p.items(), *q.items()] if i + j == 2)
        if size <= BAUTIN_SIZE:
            return p, q


def cubic(rng: random.Random) -> tuple[dict, dict]:
    """Homogeneous cubic nonlinearity with 3a + c + l + 3n = 3 s, s != 0."""
    a, b, c, d, k, l, m = (rand_q(rng) for _ in range(7))
    n = (3 * rand_q(rng) - 3 * a - c - l) / 3
    return _field(
        {(3, 0): a, (2, 1): b, (1, 2): c, (0, 3): d},
        {(3, 0): k, (2, 1): l, (1, 2): m, (0, 3): n},
    )


def reversible(rng: random.Random) -> tuple[dict, dict]:
    """Quadratic plus cubic terms invariant under (x, y, t) -> (x, -y, -t)."""
    keys = [(i, n - i) for n in (2, 3) for i in range(n + 1)]
    return _field(
        {(i, j): rand_q(rng, (3, 4, 5, 6)) for i, j in keys if j % 2},
        {(i, j): rand_q(rng, (3, 4, 5, 6)) for i, j in keys if j % 2 == 0},
    )


def energy(rng: random.Random, top: int) -> dict:
    """Psi = (x^2+y^2)/2 + H_3 + ... + H_top with every H_j's absolute
    coefficients summing to at most 1/4, so Psi's level sets through
    r <= 1/4 are closed curves inside r < 1/2.

    Even-degree H_j are redrawn until their circle average is nonzero:
    with a zero average the forward recursion reproduces Psi exactly and
    stops after degree top, which makes a rare operation 50x cheaper.
    """
    psi = {(2, 0): Fraction(1, 2), (0, 2): Fraction(1, 2)}
    for j in range(3, top + 1):
        while True:
            h = {
                (i, j - i): Fraction(rng.choice((-1, 1)) * rng.randint(1, 3), 12 * (j + 1))
                for i in range(j + 1)
            }
            if j % 2 or wallis_average(h):
                break
        psi.update(h)
    return psi


def hamiltonian(rng: random.Random) -> tuple[dict, dict]:
    """x' = -Psi_y, y' = Psi_x for a seeded quartic energy."""
    return hamiltonian_field(energy(rng, 4))


def radial(a: Fraction) -> tuple[dict, dict]:
    """x' = -y + a x r^2, y' = x + a y r^2: r' = a r^3, theta' = 1."""
    return _field({(3, 0): a, (1, 2): a}, {(2, 1): a, (0, 3): a})


def radial_coefficient(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 2), rng.choice((2, 3, 4, 5)))


def section_points(rng: random.Random) -> tuple[float, ...]:
    """Three abscissas near 0.05, 0.1 and 0.2, jittered by up to 10 %."""
    return tuple(round(base * rng.uniform(0.9, 1.1), 4) for base in (0.05, 0.1, 0.2))


def split_energy(psi: dict, m: int) -> list[dict]:
    """[H_2, ..., H_{m+1}] as degree slices of psi."""
    return [
        {(i, j): c for (i, j), c in psi.items() if i + j == d} for d in range(2, m + 2)
    ]
