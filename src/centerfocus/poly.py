"""Exact sparse bivariate polynomials over the rationals.

Coefficients are ``fractions.Fraction``; terms are keyed by exponent
pairs (i, j) for x^i y^j. Zero coefficients are never stored, so the
empty map is the zero polynomial and equality is structural. Term
iteration is graded lexicographic (total degree, then x-degree
descending), which makes printing, serialization and float evaluation
deterministic.

The symbolic hot path works on dense slices instead: a degree-n
homogeneous polynomial as ``(nums, den)``, where ``nums[k]`` is the
integer numerator of x^k y^(n-k) and ``den > 0`` the one denominator
they share. ``to_slice`` and ``from_slice`` convert at the boundary;
``slice_gradient`` and ``slice_products`` are the slice arithmetic the
Lyapunov sources are built from (partial derivatives, and sums of
products over the lcm of their denominators); ``wallis_weights`` is the
one table of circle averages both forms read.

Float evaluation runs through generated straight-line code that
performs exactly the operations of the term loop
``total += float(c) * x**i * y**j`` in the same order, so every value
is bit for bit the loop's. ``float_sums`` is its one generator: the
statements for polynomials of a given monomial support, with the
coefficients as locals. ``float_code`` writes them into a frame, the
source of the functions a caller needs, and compiles it once per frame
and support, binding each call's coefficients as closure variables:
``evaluate`` keeps one function per polynomial on the ``BiPoly`` that
returns the bare value, and ``numeric`` builds its right-hand sides from
its own frames and writes the same sums into its step loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from typing import Iterator, Mapping, Sequence, Union

from .errors import NonRealInput, PreconditionFailed

Scalar = Union[Fraction, int]
Slice = tuple[list[int], int]  # (nums, den): nums[k] / den is the x^k y^(n-k) coefficient
# (d/dx numerators, d/dy numerators, shared denominator) of one slice
Gradient = tuple[list[int], list[int], int]


def _grlex(key: tuple[int, int]) -> tuple[int, int]:
    i, j = key
    return (i + j, j)


class BiPoly:
    """A polynomial in x and y with rational coefficients.

    Never mutated after construction, which is what makes the lazily
    filled ``_ev`` slot (the compiled float kernel used by ``evaluate``)
    safe to cache.
    """

    __slots__ = ("_terms", "_ev")

    def __init__(self, terms: Mapping[tuple[int, int], Scalar] | None = None):
        clean: dict[tuple[int, int], Fraction] = {}
        if terms:
            for (i, j), c in terms.items():
                if i < 0 or j < 0:
                    raise ValueError(f"negative exponent in term ({i}, {j})")
                c = Fraction(c)
                if c:
                    clean[(i, j)] = c
        self._terms = clean

    @staticmethod
    def _of(terms: dict[tuple[int, int], Fraction]) -> "BiPoly":
        """Wrap terms that are already clean (nonnegative exponents,
        nonzero Fractions), neither checked nor copied."""
        p = BiPoly.__new__(BiPoly)
        p._terms = terms
        return p

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def monomial(i: int, j: int, c: Scalar = 1) -> "BiPoly":
        return BiPoly({(i, j): c})

    @staticmethod
    def constant(c: Scalar) -> "BiPoly":
        return BiPoly({(0, 0): c})

    # -- basic queries ---------------------------------------------------------

    def terms(self) -> Iterator[tuple[tuple[int, int], Fraction]]:
        """Yield ((i, j), coeff) in graded lexicographic order."""
        for key in sorted(self._terms, key=_grlex):
            yield key, self._terms[key]

    def coeff(self, i: int, j: int) -> Fraction:
        return self._terms.get((i, j), Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(i + j for i, j in self._terms)

    def is_homogeneous(self) -> bool:
        degs = {i + j for i, j in self._terms}
        return len(degs) <= 1

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, BiPoly):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == BiPoly.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # generated code cannot be pickled; the kernel is rebuilt on first use
    def __getstate__(self):
        return self._terms

    def __setstate__(self, terms):
        self._terms = terms

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "BiPoly | Scalar") -> "BiPoly":
        if isinstance(other, (int, Fraction)):
            other = BiPoly.constant(other)
        out = dict(self._terms)
        for key, c in other._terms.items():
            s = out.get(key, Fraction(0)) + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return BiPoly._of(out)

    __radd__ = __add__

    def __neg__(self) -> "BiPoly":
        return BiPoly._of({k: -c for k, c in self._terms.items()})

    def __sub__(self, other: "BiPoly | Scalar") -> "BiPoly":
        if isinstance(other, (int, Fraction)):
            other = BiPoly.constant(other)
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "BiPoly":
        return BiPoly.constant(other) - self

    def __mul__(self, other: "BiPoly | Scalar") -> "BiPoly":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return BiPoly()
            return BiPoly._of({k: v * c for k, v in self._terms.items()})
        out: dict[tuple[int, int], Fraction] = {}
        for (i1, j1), c1 in self._terms.items():
            for (i2, j2), c2 in other._terms.items():
                key = (i1 + i2, j1 + j2)
                s = out.get(key, Fraction(0)) + c1 * c2
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return BiPoly._of(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "BiPoly":
        if n < 0:
            raise ValueError("negative power")
        result = BiPoly.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- calculus --------------------------------------------------------------

    def diff_x(self) -> "BiPoly":
        out = {}
        for (i, j), c in self._terms.items():
            if i:
                out[(i - 1, j)] = c * i
        return BiPoly._of(out)

    def diff_y(self) -> "BiPoly":
        out = {}
        for (i, j), c in self._terms.items():
            if j:
                out[(i, j - 1)] = c * j
        return BiPoly._of(out)

    def homogeneous_component(self, n: int) -> "BiPoly":
        return BiPoly._of({k: c for k, c in self._terms.items() if k[0] + k[1] == n})

    # -- output ----------------------------------------------------------------

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for (i, j), c in self.terms():
            mono = "".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in (("x", i), ("y", j))
                if e
            )
            if not mono:
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        s = " + ".join(parts)
        return s.replace("+ -", "- ")


X = BiPoly.monomial(1, 0)
Y = BiPoly.monomial(0, 1)
R2 = BiPoly({(2, 0): 1, (0, 2): 1})  # x^2 + y^2


@dataclass(frozen=True)
class HomogeneousPoly:
    """A BiPoly together with its (verified) uniform total degree."""

    degree: int
    inner: BiPoly

    def __post_init__(self):
        for (i, j) in self.inner._terms:
            if i + j != self.degree:
                raise ValueError(
                    f"term x^{i} y^{j} breaks homogeneity of degree {self.degree}"
                )


def homogeneous_components(p: BiPoly) -> list[HomogeneousPoly]:
    """Split into homogeneous pieces, zero components omitted, degree ascending."""
    by_deg: dict[int, dict[tuple[int, int], Fraction]] = {}
    for (i, j), c in p._terms.items():
        by_deg.setdefault(i + j, {})[(i, j)] = c
    out = []
    for n in sorted(by_deg):
        out.append(HomogeneousPoly(n, BiPoly._of(by_deg[n])))
    return out


def poisson_bracket(f: BiPoly, g: BiPoly) -> BiPoly:
    """{f, g} = f_x g_y - f_y g_x."""
    return f.diff_x() * g.diff_y() - f.diff_y() * g.diff_x()


def to_slice(p: BiPoly, n: int) -> Slice:
    """The degree-n part of p as integer numerators over their least
    common denominator."""
    part = [(i, c) for (i, j), c in p._terms.items() if i + j == n]
    den = lcm(*(c.denominator for _, c in part))
    nums = [0] * (n + 1)
    for i, c in part:
        nums[i] = c.numerator * (den // c.denominator)
    return nums, den


def from_slice(n: int, s: Slice) -> HomogeneousPoly:
    """The degree-n slice s as a polynomial with reduced coefficients."""
    nums, den = s
    terms = {(k, n - k): Fraction(c, den) for k, c in enumerate(nums) if c}
    return HomogeneousPoly(n, BiPoly._of(terms))


def slice_gradient(n: int, s: Slice) -> Gradient:
    """Both partial derivatives of a degree-n slice, over its denominator."""
    a, den = s
    return (
        [(k + 1) * a[k + 1] for k in range(n)],
        [(n - k) * a[k] for k in range(n)],
        den,
    )


def slice_products(n: int, terms: Sequence[tuple[list[int], list[int], int]]) -> Slice:
    """The degree-n slice sum of a * b / den over the terms (a, b, den).

    a and b are numerator lists of two slices whose degrees add up to n;
    each product is an integer convolution, scaled to the lcm of the
    term denominators.
    """
    den = lcm(*(t_den for _, _, t_den in terms))
    out = [0] * (n + 1)
    for a, b, t_den in terms:
        scale = den // t_den
        for p, u in enumerate(a):
            if u:
                u *= scale
                for q, v in enumerate(b, start=p):
                    if v:
                        out[q] += u * v
    return out, den


def double_factorial(n: int) -> int:
    # (-1)!! = 1 by convention
    result = 1
    while n > 1:
        result *= n
        n -= 2
    return result


@lru_cache(maxsize=256)
def wallis_weights(n: int) -> tuple[tuple[int, ...], int]:
    """Circle averages of the degree-n monomials over one denominator.

    Wallis: the average of x^i y^(n-i) over one turn is weights[i] / n!!
    with weights[i] = (i-1)!! (n-i-1)!! when i and n-i are both even,
    and 0 otherwise (so every weight of an odd degree is 0).
    """
    weights = tuple(
        double_factorial(i - 1) * double_factorial(n - i - 1)
        if i % 2 == 0 and n % 2 == 0 else 0
        for i in range(n + 1)
    )
    return weights, double_factorial(n)


def slice_average(n: int, s: Slice) -> Fraction:
    """Exact circle average of a degree-n slice."""
    weights, w_den = wallis_weights(n)
    nums, den = s
    return Fraction(sum(w * c for w, c in zip(weights, nums) if w), w_den * den)


def circle_average(p: BiPoly | HomogeneousPoly) -> Fraction:
    """Exact (1/2pi) integral of p(cos t, sin t) over one turn, by the
    per-degree Wallis table."""
    if isinstance(p, HomogeneousPoly):
        p = p.inner
    total = Fraction(0)
    for (i, j), c in p._terms.items():
        if i % 2 == 0 and j % 2 == 0:
            weights, w_den = wallis_weights(i + j)
            total += c * Fraction(weights[i], w_den)
    return total


# Terms per statement in generated sums: one flat sum of a few thousand
# terms nests deeply enough to raise RecursionError in the compiler.
_SUM_CHUNK = 256

# The monomials of some polynomials, each polynomial's (i, j) in graded
# order: the shape of their generated sums, which the coefficients do not
# change.
Support = tuple[tuple[tuple[int, int], ...], ...]


def float_support(polys: Sequence[BiPoly]) -> tuple[Support, tuple[float, ...]]:
    """The support of polys and their coefficients as floats, in the
    order ``float_sums`` numbers them; a coefficient whose magnitude no
    float holds is PreconditionFailed."""
    support = []
    coeffs: list[float] = []
    for p in polys:
        keys = []
        for (i, j), c in p.terms():
            try:
                coeffs.append(float(c))
            except OverflowError:
                raise PreconditionFailed(
                    f"coefficient of x^{i} y^{j} lies outside the float range"
                ) from None
            keys.append((int(i), int(j)))
        support.append(tuple(keys))
    return tuple(support), tuple(coeffs)


def float_sums(support: Support) -> list[str]:
    """The statements that bind _s0, _s1, ... to the float values at the
    locals _x and _y of polynomials with this support, whose coefficients
    are the locals _c0, _c1, ... in ``float_support``'s order.

    The values are bit for bit those of the term loop
    ``total = 0.0; total += float(c) * x**i * y**j`` over ``p.terms()``:
    each sum is written ``0.0 + _c0*x**i0*y**j0 + _c1*...`` in graded
    order, so products and sums happen in the loop's order. Each power
    x**e, y**e with e >= 2 is computed once, by the same ``pow`` call,
    into _x2, _y2, _x3, ..., and shared by all terms and polynomials;
    x**1 is written _x and x**0 is dropped, because multiplying by x**1
    or by 1.0 is exact. Every name read or written here is an underscore
    followed by x, y, c or s, so code around the sums keeps its own values
    under other names."""
    powers: set[tuple[str, int]] = set()
    sums: list[list[str]] = []
    k = 0
    for keys in support:
        products = []
        for i, j in keys:
            factors = [f"_c{k}"]
            k += 1
            for var, e in (("_x", i), ("_y", j)):
                if e == 1:
                    factors.append(var)
                elif e > 1:
                    factors.append(f"{var}{e}")
                    powers.add((var, e))
            products.append("*".join(factors))
        sums.append(products)
    lines = [f"{var}{e} = {var}**{e}" for var, e in sorted(powers)]
    for n, products in enumerate(sums):
        acc = "0.0"
        # at least one statement, so the zero polynomial gets _s = 0.0
        for start in range(0, max(len(products), 1), _SUM_CHUNK):
            chunk = products[start:start + _SUM_CHUNK]
            lines.append(f"_s{n} = " + " + ".join([acc] + chunk))
            acc = f"_s{n}"
    return lines


def coeff_unpack(support: Support) -> str:
    """The statement that unpacks ``coeffs`` into the locals _c0, _c1, ...
    that ``float_sums`` reads (``pass`` when there are none)."""
    names = "".join(f"_c{k}, " for k in range(sum(map(len, support))))
    return f"{names}= coeffs" if names else "pass"


def float_code(polys: Sequence[BiPoly], frame: str | None = None):
    """Compile the float values of polys into the functions of ``frame``.

    ``frame`` is the body of a factory: one or more ``def``s, each with a
    line that reads ``{sums}`` alone, where ``float_sums`` goes at that
    line's indent, and a last ``return`` of what the caller gets. The sums
    bind _s0, _s1, ... to the polynomials' values at the locals _x and _y,
    which the frame sets. The factory's own locals ``support`` and
    ``coeffs`` (``float_support``'s pair) are the frame's to read too.
    Without a frame the result is one function of (_x, _y) that returns
    the tuple of every value.

    The coefficients are closure variables, never printed as literals,
    so the source depends on the support only: it is compiled once per
    (frame, support), and the last 32 such factories are kept.
    """
    support, coeffs = float_support(polys)
    return _factory(frame, support)(support, coeffs)


@lru_cache(maxsize=32)
def _factory(frame: str | None, support: Support):
    """``float_code``'s compiled factory for one frame and support."""
    if frame is None:
        values = "".join(f"_s{k}, " for k in range(len(support)))
        frame = f"def kernel(_x, _y):\n    {{sums}}\n    return ({values})\nreturn kernel"
    body = float_sums(support)
    lines = []
    for line in frame.splitlines():
        if line.strip() == "{sums}":
            indent = line[:len(line) - len(line.lstrip())]
            lines += [indent + statement for statement in body]
        else:
            lines.append(line)
    source = "\n".join(
        ["def make(support, coeffs):", "    " + coeff_unpack(support)]
        + ["    " + line for line in lines]
    )
    namespace: dict = {}
    exec(compile(source, "<float_code>", "exec"), namespace)
    return namespace["make"]


# evaluate's kernel: the one value, not a 1-tuple
_VALUE_FRAME = """\
def kernel(_x, _y):
    {sums}
    return _s0
return kernel
"""


def evaluate(p: BiPoly, x: float, y: float) -> float:
    """Float value of p at (x, y), bit for bit the graded term loop
    (see ``float_code``); the compiled kernel is cached on p."""
    try:
        kernel = p._ev
    except AttributeError:  # slot not filled yet
        kernel = p._ev = float_code((p,), _VALUE_FRAME)
    return kernel(x, y)


# -- complex monomial basis ----------------------------------------------------
#
# x = (z + zbar)/2, y = (z - zbar)/(2i). A real polynomial becomes a map
# (k, l) -> coefficient of z^k zbar^l, with entries[(k,l)] the conjugate of
# entries[(l,k)]. Coefficients are Gaussian rationals held as (re, im) pairs.
# Library API only: the engine works in the real basis throughout.

CPair = tuple[Fraction, Fraction]


@dataclass
class ComplexCoeffs:
    """Coefficients of a polynomial written in z = x + iy, zbar = x - iy."""

    entries: dict[tuple[int, int], CPair]

    def __post_init__(self):
        self.entries = {
            k: v for k, v in self.entries.items() if v[0] or v[1]
        }

    def conjugate_symmetric(self) -> bool:
        for (k, l), (re, im) in self.entries.items():
            mre, mim = self.entries.get((l, k), (Fraction(0), Fraction(0)))
            if mre != re or mim != -im:
                return False
        return True


# U = (z + zbar)/2 and W = (z - zbar)/2 as polynomials in (z, zbar), so that
# x = U and y = -i W
_U = BiPoly({(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)})
_W = BiPoly({(1, 0): Fraction(1, 2), (0, 1): Fraction(-1, 2)})


def to_complex(p: BiPoly) -> ComplexCoeffs:
    """Rewrite p(x, y) in the z, zbar monomial basis.

    x^a y^b = (-i)^b U^a W^b: real for even b, imaginary for odd b.
    """
    us, ws = [BiPoly.constant(1)], [BiPoly.constant(1)]
    for _ in range(p.degree()):
        us.append(us[-1] * _U)
        ws.append(ws[-1] * _W)
    parts = [BiPoly(), BiPoly()]  # real, imaginary
    for (a, b), c in p._terms.items():
        parts[b % 2] = parts[b % 2] + us[a] * ws[b] * (c * (1, -1, -1, 1)[b % 4])
    re, im = parts
    keys = re._terms.keys() | im._terms.keys()
    return ComplexCoeffs({key: (re.coeff(*key), im.coeff(*key)) for key in keys})


def _x_plus_iy(n: int) -> tuple[BiPoly, BiPoly]:
    """Real and imaginary parts of (x + iy)^n."""
    parts: tuple[dict, dict] = ({}, {})
    for s in range(n + 1):
        parts[s % 2][(n - s, s)] = comb(n, s) * (-1) ** (s // 2)
    return BiPoly(parts[0]), BiPoly(parts[1])


def from_complex(c: ComplexCoeffs) -> BiPoly:
    """Inverse transform; raises NonRealInput if the result is not real.

    z^k zbar^l = (x^2 + y^2)^min(k, l) (x +- iy)^|k - l|, with the sign
    of k - l.
    """
    real = BiPoly()
    imag = BiPoly()
    for (k, l), (cre, cim) in c.entries.items():
        a, b = _x_plus_iy(abs(k - l))
        if l > k:
            b = -b
        radial = R2 ** min(k, l)
        real = real + radial * (a * cre - b * cim)
        imag = imag + radial * (b * cre + a * cim)
    if imag:
        key, v = next(imag.terms())
        raise NonRealInput(f"imaginary residue {v} at monomial {key}")
    return real
