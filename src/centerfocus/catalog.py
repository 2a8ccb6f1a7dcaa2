"""Named example families with machine-checkable expected properties.

Each family is a parametric constructor whose keyword parameters are
the family's parameters: a parameter with a default is optional, one
without a default is required. ``get(name, **params)`` fills missing
parameters from those defaults, coerces every value to ``Fraction``,
builds the field, and attaches the expectation tags the test suite
validates with the matching engine. Families printed with clockwise
rotation are stored time-reversed (everything downstream requires the
counterclockwise normalization); the as-printed right-hand sides are
kept on the entry and the orientation flag records the rewrite.
"""

from __future__ import annotations

import dataclasses
import inspect
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Union

from .errors import LambdaZero, MissingParam, UnknownName
from .homological import solve_homological
from .inverse import DarbouxCandidate, weak_center_family
from .lyapunov import PlanarField, compute_lyapunov
from .poly import BiPoly, HomogeneousPoly, X, Y
from .structure import bautin_classify, schlomiuk_classify

Params = dict[str, Fraction]
ParamValue = Union[Fraction, int, str]


@dataclass(frozen=True)
class CatalogEntry:
    """One family instance: the normalized field plus its asserted tags.

    Builders fill in the field and its properties; ``get`` attaches the
    family name and the parameter values the field was built from.
    """

    field: PlanarField
    expectations: frozenset[str]
    orientation: str = "counterclockwise"
    printed: tuple[BiPoly, BiPoly] | None = None
    darboux: DarbouxCandidate | None = None
    extras: dict = dataclasses.field(default_factory=dict)
    notes: tuple[str, ...] = ()
    name: str = ""
    params: Params = dataclasses.field(default_factory=dict)


@dataclass(frozen=True)
class FamilySignature:
    """Parameter names with defaults; a None default marks a required one."""

    name: str
    params: tuple[tuple[str, Fraction | None], ...]


def _focus_tags(field: PlanarField, order: int) -> set[str]:
    res = compute_lyapunov(field, order)
    if res.verdict == "CenterCandidate":
        return {"CenterCandidate"}
    return {"FocusSign(+)" if res.verdict == "UnstableFocus" else "FocusSign(-)"}


def _uniform_isochronous(m: int, big_g: BiPoly):
    """Field (-y + x G, x + y G) for a degree-(m-1) G with zero average.

    Solving D g = (m+1) G turns the field into the lam = 2/(m+1) member
    of the weak-center family, which carries the Darboux candidate.
    """
    sol = solve_homological(HomogeneousPoly(m - 1, big_g * (m + 1)))
    if sol.k_const != 0:
        raise AssertionError(f"(m+1) G has circle average {sol.k_const}, not 0")
    field, cand = weak_center_family(m, Fraction(2, m + 1), sol.f.inner)
    if field.p != X * big_g - Y or field.q != Y * big_g + X:
        raise AssertionError("weak-center family does not rebuild (-y + x G, x + y G)")
    return field, cand


# -- families -------------------------------------------------------------------


def _bautin(lam2=0, lam3=0, lam4=0, lam5=0, lam6=0) -> CatalogEntry:
    f = PlanarField(
        p=-Y + BiPoly({(2, 0): -lam3, (1, 1): 2 * lam2 + lam5, (0, 2): lam6}),
        q=X + BiPoly({(2, 0): lam2, (1, 1): 2 * lam3 + lam4, (0, 2): -lam2}),
    )
    cases = bautin_classify(lam2, lam3, lam4, lam5, lam6)
    tags = {"CenterCandidate"} if cases else _focus_tags(f, 6)
    return CatalogEntry(f, tags, extras={"cases": sorted(cases)})


def _schl(a=0, b=0, c=0, k=0, l=0, m=0) -> CatalogEntry:
    printed = (
        Y + BiPoly({(2, 0): a, (1, 1): b, (0, 2): c}),
        -X + BiPoly({(2, 0): k, (1, 1): l, (0, 2): m}),
    )
    f = PlanarField(p=-printed[0], q=-printed[1])
    # the condition sets are stated for the clockwise original; a focus
    # sign, when there is one, refers to the stored reversed field
    cases = schlomiuk_classify(a, b, c, k, l, m)
    tags = {"CenterCandidate"} if cases else _focus_tags(f, 6)
    return CatalogEntry(
        f, tags, orientation="clockwise", printed=printed, extras={"cases": sorted(cases)},
    )


def _schl1(a=0, beta=0, *, lam) -> CatalogEntry:
    """Quadratic member of the weak-center family for every lam != 0."""
    if lam == 0:
        raise LambdaZero("schl1 needs lam != 0")
    g = BiPoly({(1, 0): -2 * beta / lam, (0, 1): 2 * a / lam})
    f, cand = weak_center_family(2, lam, g)
    tags = {"CenterCandidate", "DarbouxCandidate"}
    if lam == Fraction(1, 2):
        tags |= {"CauchyRiemann", "Isochronous"}
    if lam == Fraction(2, 3):
        tags.add("UniformlyIsochronous")
    return CatalogEntry(f, tags, darboux=cand)


def _rgg(lam4=0, lam5=0) -> CatalogEntry:
    f = PlanarField(
        p=-Y + BiPoly({(2, 0): lam4 / 4, (0, 2): -lam4 / 4, (1, 1): lam5 / 2}),
        q=X + BiPoly({(2, 0): -lam5 / 4, (0, 2): lam5 / 4, (1, 1): lam4 / 2}),
    )
    return CatalogEntry(f, {"CauchyRiemann", "CenterCandidate", "Isochronous"})


def _req(alpha=0, r=0, s=0) -> CatalogEntry:
    f = PlanarField(
        p=-Y + BiPoly({(1, 1): -2 * alpha}),
        q=X + BiPoly({(0, 2): r, (2, 0): s}),
    )
    return CatalogEntry(f, {"Reversible", "CenterCandidate"})


def _reqq(b=0, c=0, beta=0) -> CatalogEntry:
    f = PlanarField(
        p=-Y + BiPoly({(2, 0): b, (0, 2): c}),
        q=X + BiPoly({(1, 1): beta}),
    )
    return CatalogEntry(f, {"Reversible", "CenterCandidate"})


def _loud(extra_p: dict, extra_q: dict) -> Callable[[], CatalogEntry]:
    """Clockwise isochronous fixture printed as (y + p_extra, -x + q_extra)."""

    def build() -> CatalogEntry:
        printed = (Y + BiPoly(extra_p), -X + BiPoly(extra_q))
        f = PlanarField(p=-printed[0], q=-printed[1])
        return CatalogEntry(
            f, {"Isochronous", "CenterCandidate"}, orientation="clockwise", printed=printed,
        )

    return build


def _kukles(alpha=0, beta=0, gamma=0, K=0, L=0, M=0, N=0) -> CatalogEntry:
    # no property is asserted at a generic parameter point
    f = PlanarField(
        p=-Y,
        q=X + BiPoly({
            (2, 0): alpha, (0, 2): beta, (1, 1): gamma,
            (3, 0): K, (2, 1): L, (1, 2): M, (0, 3): N,
        }),
    )
    return CatalogEntry(f, set())


def _chava56(a=0, b=0) -> CatalogEntry:
    f, cand = _uniform_isochronous(2, BiPoly({(1, 0): a, (0, 1): b}))
    return CatalogEntry(
        f, {"UniformlyIsochronous", "CenterCandidate", "DarbouxCandidate"}, darboux=cand,
    )


def _chava23(a=0, b=0, L=0, M=0) -> CatalogEntry:
    f = PlanarField(
        p=-Y + BiPoly({
            (2, 0): a, (0, 2): -a, (1, 1): 2 * b,
            (3, 0): L, (2, 1): M, (1, 2): -L,
        }),
        q=X + BiPoly({
            (2, 0): -b, (0, 2): b, (1, 1): 2 * a,
            (2, 1): L, (1, 2): M, (0, 3): -L,
        }),
    )
    # invariant conic sharing the cofactor of x^2 + y^2, so their ratio
    # is a first integral
    curve = BiPoly({(0, 0): 1, (0, 1): 2 * a, (1, 0): -2 * b, (1, 1): 2 * L, (0, 2): M})
    return CatalogEntry(
        f, {"Isochronous", "CenterCandidate"}, extras={"invariant_curve": curve},
    )


def _cubic_center_sets(a, b, c, d, k, l, m, n) -> set[str]:
    cases = set()
    if 3 * a + l + c + 3 * n != 0:
        return cases
    if (
        (3 * a + l) * (b + d + k + m) - 2 * (a - n) * (b + m) == 0
        and 2 * (a + n) * ((3 * a + l) ** 2 - (b + m) ** 2)
        + (3 * a + l) * (b + m) * (b + k - d - m) == 0
    ):
        cases.add("i")
    if (
        2 * a + c - l - 2 * n == 0
        and b + 3 * d - 3 * k - m == 0
        and b + 5 * d + 5 * k + m == 0
        and (a + 3 * n) * (3 * a + n) - 16 * d * k == 0
    ):
        cases.add("ii")
    return cases


def _cubic_qh(A=0, B=0, C=0, D=0, K=0, L=0, M=0, N=0) -> CatalogEntry:
    f = PlanarField(
        p=-Y + BiPoly({(3, 0): A, (2, 1): B, (1, 2): C, (0, 3): D}),
        q=X + BiPoly({(3, 0): K, (2, 1): L, (1, 2): M, (0, 3): N}),
    )
    cases = _cubic_center_sets(A, B, C, D, K, L, M, N)
    tags = {"CenterCandidate"} if cases else _focus_tags(f, 10)
    return CatalogEntry(f, tags, extras={"cases": sorted(cases)})


def _quartic_uuu() -> CatalogEntry:
    f = PlanarField(
        p=-Y + BiPoly({(0, 4): 1}),
        q=X + BiPoly({(4, 0): 1, (2, 2): -1}),
    )
    # the off-origin rest point: x^3 - x + 1 = 0 at height y = 1
    extras = {"second_equilibrium": (-1.324717957244746, 1.0)}
    return CatalogEntry(
        f, {"FocusSign(-)"}, extras=extras,
        notes=(
            "often claimed to be a center; the first two constants vanish "
            "but V3 = -1/64, and the return map spirals inward to match",
        ),
    )


def _quartic_ttt(a=1) -> CatalogEntry:
    f = PlanarField(
        p=-Y,
        q=X + BiPoly({(0, 4): a, (3, 1): -4 * a}),
    )
    tags = _focus_tags(f, 8)
    notes = ()
    if a == 1:
        notes = (
            "often claimed to be a center; at a = 1 the first two constants "
            "vanish but V3 = 3/32, and the return map spirals outward to match",
        )
    return CatalogEntry(f, tags, notes=notes)


def _quintic_ssss() -> CatalogEntry:
    f = PlanarField(
        p=-Y,
        q=X + BiPoly({(4, 1): -5, (0, 5): 1}),
    )
    return CatalogEntry(f, {"CenterCandidate"})


def _quartic_family(L40=0, K22=0, L22=0, K04=0) -> CatalogEntry:
    big_g = BiPoly({(3, 0): L40, (2, 1): K22, (1, 2): L22, (0, 3): K04})
    f, cand = _uniform_isochronous(4, big_g)
    return CatalogEntry(
        f, {"UniformlyIsochronous", "CenterCandidate", "DarbouxCandidate"},
        darboux=cand, notes=("unverified-source",),
    )


def _quintic_family(L50=0, L41=0, L23=0, K05=0) -> CatalogEntry:
    # the x^2 y^2 coefficient is pinned so the multiplier averages to zero
    big_g = BiPoly({
        (4, 0): L50, (3, 1): L41, (1, 3): L23, (0, 4): K05, (2, 2): -3 * (K05 + L50),
    })
    f, cand = _uniform_isochronous(5, big_g)
    return CatalogEntry(
        f, {"UniformlyIsochronous", "CenterCandidate", "DarbouxCandidate"},
        darboux=cand, notes=("unverified-source",),
    )


def _r01200(b=0, c=0, beta=0, gamma=0) -> CatalogEntry:
    f = PlanarField(
        p=-Y + BiPoly({(2, 1): b, (0, 3): c}),
        q=X + BiPoly({(3, 0): beta, (1, 2): gamma}),
    )
    return CatalogEntry(f, {"Reversible", "CenterCandidate"})


# -- registry -------------------------------------------------------------------

# listing order is the order of this map
_FAMILIES: dict[str, Callable[..., CatalogEntry]] = {
    "bautin": _bautin,
    "schl": _schl,
    "schl1": _schl1,
    "rgg": _rgg,
    "req": _req,
    "reqq": _reqq,
    "loud1": _loud({(1, 1): 1}, {(0, 2): 1}),
    "loud2": _loud({(1, 1): 1}, {(0, 2): Fraction(1, 2), (2, 0): Fraction(-1, 2)}),
    "loud3": _loud({(1, 1): 1}, {(0, 2): Fraction(1, 4)}),
    "loud4": _loud({(1, 1): 1}, {(0, 2): 2, (2, 0): Fraction(-1, 2)}),
    "kukles": _kukles,
    "chava56": _chava56,
    "chava23": _chava23,
    "cubic_qh": _cubic_qh,
    "rloud_cubic1": _loud({(2, 1): 1}, {(1, 2): 1}),
    "rloud_cubic2": _loud({(2, 1): -3, (0, 3): 1}, {(1, 2): -3, (3, 0): 1}),
    "rloud_cubic3": _loud({(2, 1): 9, (0, 3): -2}, {(1, 2): 3}),
    "rloud_cubic4": _loud({(2, 1): -9, (0, 3): 2}, {(1, 2): -3}),
    "quartic_uuu": _quartic_uuu,
    "quartic_ttt": _quartic_ttt,
    "quintic_ssss": _quintic_ssss,
    "quartic_family": _quartic_family,
    "quintic_family": _quintic_family,
    "r01200": _r01200,
}


def _signature(name: str) -> FamilySignature:
    params = inspect.signature(_FAMILIES[name]).parameters.values()
    return FamilySignature(name, tuple(
        (p.name, None if p.default is p.empty else Fraction(p.default)) for p in params
    ))


def get(name: str, /, **params: ParamValue) -> CatalogEntry:
    """Build the named family with the given parameter values."""
    if name not in _FAMILIES:
        raise UnknownName(f"unknown catalog family {name!r}")
    declared = dict(_signature(name).params)
    for key in params:
        if key not in declared:
            raise UnknownName(f"{name} has no parameter {key!r}")
    values: Params = {}
    for key, default in declared.items():
        if key in params:
            values[key] = Fraction(params[key])
        elif default is None:
            raise MissingParam(f"{name} requires parameter {key!r}")
        else:
            values[key] = default
    entry = _FAMILIES[name](**values)
    return dataclasses.replace(
        entry, name=name, params=values, expectations=frozenset(entry.expectations),
    )


def list_families() -> tuple[FamilySignature, ...]:
    """All family signatures, in registration order."""
    return tuple(_signature(name) for name in _FAMILIES)
