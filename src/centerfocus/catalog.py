"""Named example families with machine-checkable expected properties.

Each family is a parametric constructor: ``get(name, **params)`` fills
missing parameters from their declared defaults, builds the field, and
attaches the expectation tags the test suite validates with the
matching engine. Families printed with clockwise rotation are stored
time-reversed (everything downstream requires the counterclockwise
normalization); the as-printed right-hand sides are kept on the entry
and the orientation flag records the rewrite.
"""

from __future__ import annotations

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
    """One family instance: the normalized field plus its asserted tags."""

    name: str
    params: Params
    field: PlanarField
    expectations: frozenset[str]
    orientation: str
    printed: tuple[BiPoly, BiPoly] | None
    darboux: DarbouxCandidate | None
    extras: dict
    notes: tuple[str, ...]


@dataclass(frozen=True)
class FamilySignature:
    """Parameter names with defaults; a None default marks a required one."""

    name: str
    params: tuple[tuple[str, Fraction | None], ...]


def _entry(
    name: str,
    params: Params,
    field: PlanarField,
    tags,
    orientation: str = "counterclockwise",
    printed: tuple[BiPoly, BiPoly] | None = None,
    darboux: DarbouxCandidate | None = None,
    extras: dict | None = None,
    notes: tuple[str, ...] = (),
) -> CatalogEntry:
    return CatalogEntry(
        name=name,
        params=dict(params),
        field=field,
        expectations=frozenset(tags),
        orientation=orientation,
        printed=printed,
        darboux=darboux,
        extras=extras or {},
        notes=notes,
    )


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


def _bautin(v: Params) -> CatalogEntry:
    l2, l3, l4, l5, l6 = (v[k] for k in ("lam2", "lam3", "lam4", "lam5", "lam6"))
    f = PlanarField(
        p=-Y + BiPoly({(2, 0): -l3, (1, 1): 2 * l2 + l5, (0, 2): l6}),
        q=X + BiPoly({(2, 0): l2, (1, 1): 2 * l3 + l4, (0, 2): -l2}),
    )
    cases = bautin_classify(l2, l3, l4, l5, l6)
    tags = {"CenterCandidate"} if cases else _focus_tags(f, 6)
    return _entry("bautin", v, f, tags, extras={"cases": sorted(cases)})


def _schl(v: Params) -> CatalogEntry:
    a, b, c, k, l, m = (v[key] for key in "abcklm")
    printed = (
        Y + BiPoly({(2, 0): a, (1, 1): b, (0, 2): c}),
        -X + BiPoly({(2, 0): k, (1, 1): l, (0, 2): m}),
    )
    f = PlanarField(p=-printed[0], q=-printed[1])
    # the condition sets are stated for the clockwise original; a focus
    # sign, when there is one, refers to the stored reversed field
    cases = schlomiuk_classify(a, b, c, k, l, m)
    tags = {"CenterCandidate"} if cases else _focus_tags(f, 6)
    return _entry(
        "schl", v, f, tags,
        orientation="clockwise", printed=printed, extras={"cases": sorted(cases)},
    )


def _schl1(v: Params) -> CatalogEntry:
    """Quadratic member of the weak-center family for every lam != 0."""
    a, beta, lam = v["a"], v["beta"], v["lam"]
    if lam == 0:
        raise LambdaZero("schl1 needs lam != 0")
    g = BiPoly({(1, 0): -2 * beta / lam, (0, 1): 2 * a / lam})
    f, cand = weak_center_family(2, lam, g)
    tags = {"CenterCandidate", "DarbouxCandidate"}
    if lam == Fraction(1, 2):
        tags |= {"CauchyRiemann", "Isochronous"}
    if lam == Fraction(2, 3):
        tags.add("UniformlyIsochronous")
    return _entry("schl1", v, f, tags, darboux=cand)


def _rgg(v: Params) -> CatalogEntry:
    l4, l5 = v["lam4"], v["lam5"]
    f = PlanarField(
        p=-Y + BiPoly({(2, 0): l4 / 4, (0, 2): -l4 / 4, (1, 1): l5 / 2}),
        q=X + BiPoly({(2, 0): -l5 / 4, (0, 2): l5 / 4, (1, 1): l4 / 2}),
    )
    return _entry("rgg", v, f, {"CauchyRiemann", "CenterCandidate", "Isochronous"})


def _req(v: Params) -> CatalogEntry:
    f = PlanarField(
        p=-Y + BiPoly({(1, 1): -2 * v["alpha"]}),
        q=X + BiPoly({(0, 2): v["r"], (2, 0): v["s"]}),
    )
    return _entry("req", v, f, {"Reversible", "CenterCandidate"})


def _reqq(v: Params) -> CatalogEntry:
    f = PlanarField(
        p=-Y + BiPoly({(2, 0): v["b"], (0, 2): v["c"]}),
        q=X + BiPoly({(1, 1): v["beta"]}),
    )
    return _entry("reqq", v, f, {"Reversible", "CenterCandidate"})


# clockwise isochronous fixtures printed as (y + p_extra, -x + q_extra)
_LOUD = {
    "loud1": ({(1, 1): 1}, {(0, 2): 1}),
    "loud2": ({(1, 1): 1}, {(0, 2): Fraction(1, 2), (2, 0): Fraction(-1, 2)}),
    "loud3": ({(1, 1): 1}, {(0, 2): Fraction(1, 4)}),
    "loud4": ({(1, 1): 1}, {(0, 2): 2, (2, 0): Fraction(-1, 2)}),
}
_RLOUD = {
    "rloud_cubic1": ({(2, 1): 1}, {(1, 2): 1}),
    "rloud_cubic2": ({(2, 1): -3, (0, 3): 1}, {(1, 2): -3, (3, 0): 1}),
    "rloud_cubic3": ({(2, 1): 9, (0, 3): -2}, {(1, 2): 3}),
    "rloud_cubic4": ({(2, 1): -9, (0, 3): 2}, {(1, 2): -3}),
}


def _loud(name: str, extra_p: dict, extra_q: dict) -> Callable[[Params], CatalogEntry]:
    def build(v: Params) -> CatalogEntry:
        printed = (Y + BiPoly(extra_p), -X + BiPoly(extra_q))
        f = PlanarField(p=-printed[0], q=-printed[1])
        return _entry(
            name, v, f, {"Isochronous", "CenterCandidate"},
            orientation="clockwise", printed=printed,
        )

    return build


def _kukles(v: Params) -> CatalogEntry:
    # no property is asserted at a generic parameter point
    f = PlanarField(
        p=-Y,
        q=X + BiPoly({
            (2, 0): v["alpha"], (0, 2): v["beta"], (1, 1): v["gamma"],
            (3, 0): v["K"], (2, 1): v["L"], (1, 2): v["M"], (0, 3): v["N"],
        }),
    )
    return _entry("kukles", v, f, set())


def _chava56(v: Params) -> CatalogEntry:
    f, cand = _uniform_isochronous(2, BiPoly({(1, 0): v["a"], (0, 1): v["b"]}))
    return _entry(
        "chava56", v, f,
        {"UniformlyIsochronous", "CenterCandidate", "DarbouxCandidate"},
        darboux=cand,
    )


def _chava23(v: Params) -> CatalogEntry:
    a, b, ll, mm = v["a"], v["b"], v["L"], v["M"]
    f = PlanarField(
        p=-Y + BiPoly({
            (2, 0): a, (0, 2): -a, (1, 1): 2 * b,
            (3, 0): ll, (2, 1): mm, (1, 2): -ll,
        }),
        q=X + BiPoly({
            (2, 0): -b, (0, 2): b, (1, 1): 2 * a,
            (2, 1): ll, (1, 2): mm, (0, 3): -ll,
        }),
    )
    # invariant conic sharing the cofactor of x^2 + y^2, so their ratio
    # is a first integral
    curve = BiPoly({(0, 0): 1, (0, 1): 2 * a, (1, 0): -2 * b, (1, 1): 2 * ll, (0, 2): mm})
    return _entry(
        "chava23", v, f, {"Isochronous", "CenterCandidate"},
        extras={"invariant_curve": curve},
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


def _cubic_qh(v: Params) -> CatalogEntry:
    coeffs = [v[k] for k in "ABCDKLMN"]
    f = PlanarField(
        p=-Y + BiPoly({(3, 0): coeffs[0], (2, 1): coeffs[1], (1, 2): coeffs[2], (0, 3): coeffs[3]}),
        q=X + BiPoly({(3, 0): coeffs[4], (2, 1): coeffs[5], (1, 2): coeffs[6], (0, 3): coeffs[7]}),
    )
    cases = _cubic_center_sets(*coeffs)
    tags = {"CenterCandidate"} if cases else _focus_tags(f, 10)
    return _entry("cubic_qh", v, f, tags, extras={"cases": sorted(cases)})


def _quartic_uuu(v: Params) -> CatalogEntry:
    f = PlanarField(
        p=-Y + BiPoly({(0, 4): 1}),
        q=X + BiPoly({(4, 0): 1, (2, 2): -1}),
    )
    # the off-origin rest point: x^3 - x + 1 = 0 at height y = 1
    extras = {"second_equilibrium": (-1.324717957244746, 1.0)}
    return _entry(
        "quartic_uuu", v, f, {"FocusSign(-)"}, extras=extras,
        notes=(
            "often claimed to be a center; the first two constants vanish "
            "but V3 = -1/64, and the return map spirals inward to match",
        ),
    )


def _quartic_ttt(v: Params) -> CatalogEntry:
    a = v["a"]
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
    return _entry("quartic_ttt", v, f, tags, notes=notes)


def _quintic_ssss(v: Params) -> CatalogEntry:
    f = PlanarField(
        p=-Y,
        q=X + BiPoly({(4, 1): -5, (0, 5): 1}),
    )
    return _entry("quintic_ssss", v, f, {"CenterCandidate"})


def _quartic_family(v: Params) -> CatalogEntry:
    big_g = BiPoly({
        (3, 0): v["L40"], (2, 1): v["K22"], (1, 2): v["L22"], (0, 3): v["K04"],
    })
    f, cand = _uniform_isochronous(4, big_g)
    return _entry(
        "quartic_family", v, f,
        {"UniformlyIsochronous", "CenterCandidate", "DarbouxCandidate"},
        darboux=cand, notes=("unverified-source",),
    )


def _quintic_family(v: Params) -> CatalogEntry:
    # the x^2 y^2 coefficient is pinned so the multiplier averages to zero
    big_g = BiPoly({
        (4, 0): v["L50"], (3, 1): v["L41"], (1, 3): v["L23"], (0, 4): v["K05"],
        (2, 2): -3 * (v["K05"] + v["L50"]),
    })
    f, cand = _uniform_isochronous(5, big_g)
    return _entry(
        "quintic_family", v, f,
        {"UniformlyIsochronous", "CenterCandidate", "DarbouxCandidate"},
        darboux=cand, notes=("unverified-source",),
    )


def _r01200(v: Params) -> CatalogEntry:
    f = PlanarField(
        p=-Y + BiPoly({(2, 1): v["b"], (0, 3): v["c"]}),
        q=X + BiPoly({(3, 0): v["beta"], (1, 2): v["gamma"]}),
    )
    return _entry("r01200", v, f, {"Reversible", "CenterCandidate"})


# -- registry -------------------------------------------------------------------

_REGISTRY: dict[str, tuple[FamilySignature, Callable[[Params], CatalogEntry]]] = {}


def _register(builder: Callable[[Params], CatalogEntry], name: str, *params) -> None:
    _REGISTRY[name] = (FamilySignature(name=name, params=tuple(params)), builder)


_Z = Fraction(0)

_register(_bautin, "bautin", ("lam2", _Z), ("lam3", _Z), ("lam4", _Z), ("lam5", _Z), ("lam6", _Z))
_register(_schl, "schl", ("a", _Z), ("b", _Z), ("c", _Z), ("k", _Z), ("l", _Z), ("m", _Z))
_register(_schl1, "schl1", ("a", _Z), ("beta", _Z), ("lam", None))
_register(_rgg, "rgg", ("lam4", _Z), ("lam5", _Z))
_register(_req, "req", ("alpha", _Z), ("r", _Z), ("s", _Z))
_register(_reqq, "reqq", ("b", _Z), ("c", _Z), ("beta", _Z))
for _name, _extras in _LOUD.items():
    _register(_loud(_name, *_extras), _name)
_register(
    _kukles, "kukles",
    ("alpha", _Z), ("beta", _Z), ("gamma", _Z), ("K", _Z), ("L", _Z), ("M", _Z), ("N", _Z),
)
_register(_chava56, "chava56", ("a", _Z), ("b", _Z))
_register(_chava23, "chava23", ("a", _Z), ("b", _Z), ("L", _Z), ("M", _Z))
_register(
    _cubic_qh, "cubic_qh",
    ("A", _Z), ("B", _Z), ("C", _Z), ("D", _Z), ("K", _Z), ("L", _Z), ("M", _Z), ("N", _Z),
)
for _name, _extras in _RLOUD.items():
    _register(_loud(_name, *_extras), _name)
_register(_quartic_uuu, "quartic_uuu")
_register(_quartic_ttt, "quartic_ttt", ("a", Fraction(1)))
_register(_quintic_ssss, "quintic_ssss")
_register(
    _quartic_family, "quartic_family",
    ("L40", _Z), ("K22", _Z), ("L22", _Z), ("K04", _Z),
)
_register(
    _quintic_family, "quintic_family",
    ("L50", _Z), ("L41", _Z), ("L23", _Z), ("K05", _Z),
)
_register(_r01200, "r01200", ("b", _Z), ("c", _Z), ("beta", _Z), ("gamma", _Z))


def get(name: str, /, **params: ParamValue) -> CatalogEntry:
    """Build the named family with the given parameter values."""
    if name not in _REGISTRY:
        raise UnknownName(f"unknown catalog family {name!r}")
    sig, build = _REGISTRY[name]
    declared = dict(sig.params)
    values: Params = {}
    for key, raw in params.items():
        if key not in declared:
            raise UnknownName(f"{name} has no parameter {key!r}")
        values[key] = Fraction(raw)
    for key, default in declared.items():
        if key in values:
            continue
        if default is None:
            raise MissingParam(f"{name} requires parameter {key!r}")
        values[key] = default
    return build(values)


def list_families() -> tuple[FamilySignature, ...]:
    """All family signatures, in registration order."""
    return tuple(sig for sig, _ in _REGISTRY.values())
