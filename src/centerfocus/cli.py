"""Command-line front end: file formats, dispatch, machine reports.

System files are JSON: {"name": ..., "x_dot": [{"i", "j", "c"}, ...],
"y_dot": [...], "metadata": {}} with coefficients written as integers
or "p/q" strings. Decimal literals are rejected so nothing silently
leaves exact arithmetic. Reports carry every rational both exactly and
as a float hint, and identical invocations print identical bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import os
import sys
from fractions import Fraction

from . import __version__, numeric
from .catalog import get as catalog_get
from .catalog import list_families
from .errors import (
    CenterFocusError,
    Inconsistent,
    LambdaZero,
    ObstructionNonzeroAverage,
    ParseError,
    PreconditionFailed,
)
from .inverse import (
    DarbouxCandidate,
    InverseSpec,
    build_field,
    complementary_residuals,
    find_cofactor,
    verify_darboux,
)
from .lyapunov import H2, PlanarField, compute_lyapunov
from .numeric import (
    ABS_TOL,
    REL_TOL,
    SECTION_ABS,
    CenterLike,
    numeric_classify,
    period,
    return_map,
    write_csv,
)
from .poly import BiPoly
from .structure import (
    bautin_classify,
    detect_symmetries,
    hg_decompose,
    schlomiuk_classify,
    weak_center_check,
)

DEFAULT_MAX_DEGREE = 24


# -- parsing ---------------------------------------------------------------------


def _load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON: {exc.msg} at line {exc.lineno} column {exc.colno}"
        ) from None
    except ValueError as exc:
        # an integer literal past the interpreter's digit limit
        raise ParseError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None


def _parse_coeff(raw, where: str) -> Fraction:
    if isinstance(raw, bool) or not isinstance(raw, (int, str)):
        raise ParseError(f"{where}: coefficient must be an integer or a 'p/q' string")
    if isinstance(raw, int):
        return Fraction(raw)
    text = raw.strip()
    if "." in text or "e" in text.lower():
        raise ParseError(f"{where}: decimal literals are rejected, write 'p/q'")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"{where}: bad rational {raw!r} ({exc})") from None


def _parse_terms(entries, where: str) -> BiPoly:
    if not isinstance(entries, list):
        raise ParseError(f"{where}: expected a list of terms")
    seen: dict[tuple[int, int], Fraction] = {}
    for idx, term in enumerate(entries):
        spot = f"{where}[{idx}]"
        if not isinstance(term, dict) or set(term) != {"i", "j", "c"}:
            raise ParseError(f"{spot}: term must be an object with keys i, j, c")
        i, j = term["i"], term["j"]
        if (
            isinstance(i, bool) or isinstance(j, bool)
            or not isinstance(i, int) or not isinstance(j, int)
            or i < 0 or j < 0
        ):
            raise ParseError(f"{spot}: exponents must be nonnegative integers")
        if (i, j) in seen:
            raise ParseError(f"{spot}: duplicate exponent pair ({i}, {j})")
        seen[(i, j)] = _parse_coeff(term["c"], spot)
    return BiPoly(seen)


def parse_system(text: str) -> tuple[str, PlanarField, dict]:
    """System document -> (name, field, metadata).

    The linear-part shape is left to the PlanarField constructor so the
    error names the exact violation.
    """
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    for key in ("x_dot", "y_dot"):
        if key not in doc:
            raise ParseError(f"missing key {key!r}")
    name = doc.get("name", "unnamed")
    if not isinstance(name, str):
        raise ParseError("name must be a string")
    meta = doc.get("metadata", {})
    if not isinstance(meta, dict):
        raise ParseError("metadata must be an object")
    p = _parse_terms(doc["x_dot"], "x_dot")
    q = _parse_terms(doc["y_dot"], "y_dot")
    return name, PlanarField(p=p, q=q), meta


def parse_poly_document(text: str) -> BiPoly:
    doc = _load_json(text)
    if isinstance(doc, list):
        return _parse_terms(doc, "terms")
    if isinstance(doc, dict) and "terms" in doc:
        return _parse_terms(doc["terms"], "terms")
    raise ParseError("expected a term list or an object with a 'terms' key")


def parse_inverse_spec(text: str) -> tuple[str, InverseSpec]:
    """Inverse document: {"m": N, "h": [H_3..H_{m+1}], "g": [g_1..g_{m-1}]}.

    H_2 = (x^2+y^2)/2 and g_0 = 1 are implicit.
    """
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    m = doc.get("m")
    if isinstance(m, bool) or not isinstance(m, int) or m < 2:
        raise ParseError("'m' must be an integer >= 2")
    name = doc.get("name", "unnamed")
    if not isinstance(name, str):
        raise ParseError("name must be a string")
    h_raw = doc.get("h", [])
    g_raw = doc.get("g", [])
    if not isinstance(h_raw, list) or len(h_raw) != m - 1:
        raise ParseError(f"'h' must list the {m - 1} terms lists for degrees 3..{m + 1}")
    if not isinstance(g_raw, list) or len(g_raw) != m - 1:
        raise ParseError(f"'g' must list the {m - 1} terms lists for degrees 1..{m - 1}")
    h_list = (H2,) + tuple(
        _parse_terms(entry, f"h[{idx}]") for idx, entry in enumerate(h_raw)
    )
    g_list = (BiPoly.constant(1),) + tuple(
        _parse_terms(entry, f"g[{idx}]") for idx, entry in enumerate(g_raw)
    )
    return name, InverseSpec(m=m, h_list=h_list, g_list=g_list)


# -- serialization ----------------------------------------------------------------


def _coeff_json(c: Fraction):
    return int(c) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _terms_json(p: BiPoly) -> list:
    return [{"i": i, "j": j, "c": _coeff_json(c)} for (i, j), c in p.terms()]


def _approx(v: Fraction) -> float:
    """The float nearest v; inf or -inf where v lies beyond the float range."""
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _exact_json(v: Fraction) -> dict:
    # JSON has no infinity: a hint beyond the float range is null
    approx = _approx(v)
    return {"exact": str(v), "approx": approx if math.isfinite(approx) else None}


def system_json(name: str, field: PlanarField, metadata: dict | None = None) -> dict:
    return {
        "name": name,
        "x_dot": _terms_json(field.p),
        "y_dot": _terms_json(field.q),
        "metadata": metadata or {},
    }


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _report(command: str, digest: str, results) -> dict:
    return {
        "command": command,
        "engine_version": __version__,
        "input_digest": digest,
        "results": results,
    }


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


# -- shared helpers ---------------------------------------------------------------


def _order_cap() -> int:
    raw = os.environ.get("CF_MAX_DEGREE", str(DEFAULT_MAX_DEGREE))
    try:
        cap = int(raw)
    except ValueError:
        raise ParseError(f"CF_MAX_DEGREE must be an integer, got {raw!r}") from None
    if cap < 2:
        raise ParseError("CF_MAX_DEGREE must be at least 2")
    return cap


def _check_order(n: int, command: str) -> None:
    cap = _order_cap()
    if n < 2:
        print(f"centerfocus {command}: order must be at least 2", file=sys.stderr)
        raise SystemExit(1)
    if n > cap:
        print(
            f"centerfocus {command}: order {n} exceeds CF_MAX_DEGREE = {cap}",
            file=sys.stderr,
        )
        raise SystemExit(1)


def _c_list(raw: str) -> tuple[float, ...]:
    out = []
    for piece in raw.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            val = float(piece)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad abscissa {piece!r}") from None
        if val <= 0:
            raise argparse.ArgumentTypeError("section abscissas must be positive")
        if not math.isfinite(val):
            raise argparse.ArgumentTypeError("section abscissas must be finite")
        out.append(val)
    if not out:
        raise argparse.ArgumentTypeError("empty abscissa list")
    return tuple(out)


def _number(raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        # argparse's own wording for type=float
        raise argparse.ArgumentTypeError(f"invalid float value: {raw!r}") from None


def _coordinate(raw: str) -> float:
    val = _number(raw)
    if not math.isfinite(val):
        raise argparse.ArgumentTypeError("initial coordinates must be finite")
    return val


def _end_time(raw: str) -> float:
    # inf stays a number here and ends in TimeBudgetExceeded; nan would
    # never end the integration
    val = _number(raw)
    if math.isnan(val):
        raise argparse.ArgumentTypeError("end time must be a number, got nan")
    return val


def _param_pair(raw: str) -> tuple[str, str]:
    key, _, value = raw.partition("=")
    if not key or not value:
        raise argparse.ArgumentTypeError(f"expected k=v, got {raw!r}")
    return key, value


def _tolerances() -> dict:
    return {"rel_tol": REL_TOL, "abs_tol": ABS_TOL, "section_abs": SECTION_ABS}


def _load_system(path: str) -> tuple[str, str, PlanarField]:
    """(input digest, name, field) of a system file."""
    text = _read(path)
    name, field, _ = parse_system(text)
    return _digest(text), name, field


def _show(args, doc, lines: list[str]) -> None:
    """The one place a command's output is printed: `doc` or the text lines."""
    if args.json:
        _emit(doc)
    else:
        for line in lines:
            print(line)


def _batch(args, worker) -> list[dict]:
    """Run `worker` over every --input file and print the reports in order.

    A worker returns (report, text lines); a single file prints its bare
    report, several print a list, and text blocks are blank-line separated.
    """
    _check_order(args.order, args.command)
    paths = args.input
    if args.jobs > 1 and len(paths) > 1:
        from concurrent.futures import ProcessPoolExecutor

        # a fork pool starts all max_workers on the first submit
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(paths))) as pool:
            outs = list(pool.map(worker, paths))
    else:
        outs = [worker(path) for path in paths]
    reports = [rep for rep, _ in outs]
    lines: list[str] = []
    for idx, (_, rep_lines) in enumerate(outs):
        if idx:
            lines.append("")
        lines.extend(rep_lines)
    _show(args, reports[0] if len(reports) == 1 else reports, lines)
    return reports


# -- analyze ----------------------------------------------------------------------


def _analyze_one(path: str, order: int) -> tuple[dict, list[str]]:
    digest, name, field = _load_system(path)
    res = compute_lyapunov(field, order)
    degs = [h.degree for h in res.h_list]
    results = {
        "name": name,
        "order": order,
        "solved_h_degrees": degs,
        "v": [_exact_json(v) for v in res.v_list],
        "verdict": res.describe(),
    }
    lines = [f"name:    {name}", f"order:   {order}", f"solved:  H_{degs[0]} .. H_{degs[-1]}"]
    lines += [f"V_{k} = {v} (~ {_approx(v)})" for k, v in enumerate(res.v_list, start=1)]
    lines.append(f"verdict: {res.describe()}")
    return _report(f"analyze --order {order} --input {path}", digest, results), lines


def _cmd_analyze(args) -> int:
    _batch(args, functools.partial(_analyze_one, order=args.order))
    return 0


# -- classify ---------------------------------------------------------------------


def _classify_one(
    path: str, order: int, c_grid: tuple[float, ...]
) -> tuple[dict, list[str]]:
    digest, name, field = _load_system(path)
    res = compute_lyapunov(field, order)
    lines = [
        f"name:      {name}",
        f"symbolic:  {res.describe()}  V = [{', '.join(str(v) for v in res.v_list)}]",
    ]

    symmetries = dataclasses.asdict(detect_symmetries(field))
    flags = [k for k, v in symmetries.items() if v]
    lines.append(f"symmetry:  {', '.join(flags) if flags else 'none detected'}")

    weak = weak_center_check(field)
    if weak is None:
        weak_out = None
        lines.append("weak:      no proportionality")
    else:
        lam = weak.lambda_darboux
        weak_out = {
            "mu": _exact_json(weak.mu),
            "integral_ok": weak.integral_ok,
            "lambda": None if lam is None else _exact_json(lam),
        }
        lines.append(f"weak:      mu = {weak.mu}, integral_ok = {weak.integral_ok}, "
                     f"lambda = {'-' if lam is None else lam}")

    try:
        hg = hg_decompose(field)
        hg_out = {"h": _terms_json(hg.h), "g": _terms_json(hg.g)}
        lines.append("hg:        decomposed")
    except ObstructionNonzeroAverage as exc:
        hg_out = {"obstruction": {"degree": exc.degree, "value": str(exc.value)}}
        lines.append(f"hg:        obstructed at degree {exc.degree} (average {exc.value})")

    quadratic = None
    if field.degree == 2:
        p, q = field.p, field.q
        l2 = q.coeff(2, 0)
        bautin = None
        if q.coeff(0, 2) == -l2:
            l3 = -p.coeff(2, 0)
            l6 = p.coeff(0, 2)
            bautin = sorted(
                bautin_classify(l2, l3, q.coeff(1, 1) - 2 * l3, p.coeff(1, 1) - 2 * l2, l6)
            )
        # condition sets are stated for the clockwise mirror
        schl = sorted(
            schlomiuk_classify(
                -p.coeff(2, 0), -p.coeff(1, 1), -p.coeff(0, 2),
                -q.coeff(2, 0), -q.coeff(1, 1), -q.coeff(0, 2),
            )
        )
        quadratic = {"bautin_cases": bautin, "schlomiuk_cases": schl}
        lines.append(f"quadratic: bautin {bautin if bautin is not None else 'n/a'}, "
                     f"schlomiuk {schl}")

    num = numeric_classify(field, c_grid)
    if isinstance(num, CenterLike):
        num_out = {"kind": "CenterLike", "tol": num.tol}
        lines.append(f"numeric:   CenterLike (tol {num.tol})")
    else:
        num_out = {"kind": "FocusLike", "sign": num.sign}
        lines.append(f"numeric:   FocusLike (sign {num.sign:+d})")

    if res.verdict == "CenterCandidate":
        disagreement = False
    else:
        want = 1 if res.verdict == "UnstableFocus" else -1
        disagreement = isinstance(num, CenterLike) or num.sign != want
    lines.append(f"agreement: {'DISAGREEMENT' if disagreement else 'consistent'}")

    results = {
        "name": name,
        "symbolic": {
            "order": order,
            "v": [_exact_json(v) for v in res.v_list],
            "verdict": res.describe(),
        },
        "symmetries": symmetries,
        "weak_center": weak_out,
        "hg": hg_out,
        "quadratic": quadratic,
        "numeric": {"grid": list(c_grid), "tolerances": _tolerances(), **num_out},
        "disagreement": disagreement,
    }
    return _report(f"classify --order {order} --input {path}", digest, results), lines


def _cmd_classify(args) -> int:
    reports = _batch(
        args, functools.partial(_classify_one, order=args.order, c_grid=args.c)
    )
    if any(rep["results"]["disagreement"] for rep in reports):
        print("centerfocus classify: numeric oracle contradicts the symbolic verdict",
              file=sys.stderr)
        return 3
    return 0


# -- inverse ----------------------------------------------------------------------


def _cmd_inverse(args) -> int:
    _check_order(args.check_order, "inverse")
    text = _read(args.spec)
    name, spec = parse_inverse_spec(text)
    field = build_field(spec)
    residuals = complementary_residuals(spec, args.check_order)
    mismatch = field.divergence()
    orders = range(spec.m, args.check_order + 1)
    results = {
        "system": system_json(name, field),
        "residuals": [
            {"n": n, "zero": r.is_zero(), "terms": _terms_json(r)}
            for n, r in zip(orders, residuals)
        ],
        "hamiltonian_mismatch": {
            "zero": mismatch.is_zero(),
            "terms": _terms_json(mismatch),
        },
    }
    lines = [f"name:  {name}", f"field: x' = {field.p}", f"       y' = {field.q}"]
    lines += [
        f"residual n={n}: {'0' if r.is_zero() else 'nonzero'}"
        for n, r in zip(orders, residuals)
    ]
    lines.append(f"hamiltonian mismatch: {'0' if mismatch.is_zero() else repr(mismatch)}")
    rep = _report(
        f"inverse --check-order {args.check_order} --spec {args.spec}",
        _digest(text), results,
    )
    _show(args, rep, lines)
    return 0


# -- darboux ----------------------------------------------------------------------


def _cmd_darboux(args) -> int:
    digest, name, field = _load_system(args.input)
    curve = parse_poly_document(_read(args.curve))
    cert = find_cofactor(field, curve)
    results: dict = {
        "name": name,
        "curve": _terms_json(curve),
        "invariant": cert is not None,
    }
    lines = [f"name:  {name}"]
    if cert is None:
        lines.append("curve: not invariant")
    else:
        results["cofactor"] = _terms_json(cert.cofactor)
        lines.append(f"curve: invariant, cofactor = {cert.cofactor}")
    if args.lam is not None:
        lam = _parse_coeff(args.lam, "--lambda")
        if lam == 0:
            raise LambdaZero("--lambda 0 does not name a candidate")
        if lam == 1:
            # at lambda 1 the integral is H_2 exp(-g); the file holds g
            g = curve
        else:
            if curve.coeff(0, 0) != 1:
                raise PreconditionFailed(
                    "curve must have constant term 1 to recover the multiplier"
                )
            g = (curve - 1) * (Fraction(1) / (1 - lam))
        verified = verify_darboux(field, DarbouxCandidate(g=g, lam=lam))
        results["lambda"] = str(lam)
        results["darboux_verified"] = verified
        lines.append(f"candidate (lambda {lam}): {'verified' if verified else 'FAILED'}")
    rep = _report(f"darboux --input {args.input} --curve {args.curve}", digest, results)
    _show(args, rep, lines)
    return 0


# -- numeric commands --------------------------------------------------------------


def _returnmap_row(field: PlanarField, c: float):
    s = return_map(field, c)
    row = {"c": s.c, "p_of_c": s.p_of_c, "delta": s.delta, "theta_total": s.theta_total}
    return row, f"c = {s.c}: P(c) = {s.p_of_c!r}, delta = {s.delta!r}"


def _period_row(field: PlanarField, c: float):
    s = period(field, c)
    return {"c": s.c, "period": s.period}, f"c = {s.c}: T(c) = {s.period!r}"


def _cmd_samples(args) -> int:
    """returnmap and period: one sample per section abscissa."""
    digest, name, field = _load_system(args.input)
    rows = [args.row(field, c) for c in args.c]
    results = {
        "name": name,
        "tolerances": _tolerances(),
        "samples": [row for row, _ in rows],
    }
    lines = [f"name: {name}  (rel_tol {REL_TOL}, abs_tol {ABS_TOL})"]
    lines += [line for _, line in rows]
    _show(args, _report(f"{args.command} --input {args.input}", digest, results), lines)
    return 0


def _cmd_orbit(args) -> int:
    digest, name, field = _load_system(args.input)
    # looked up on the module, where perfbench's tracer wraps it
    traj = numeric.integrate(field, args.x0, args.y0, args.t)
    try:
        write_csv(traj, args.out)
    except OSError as exc:
        raise PreconditionFailed(f"cannot write {args.out}: {exc}") from None
    results = {
        "name": name,
        "out": args.out,
        "samples": len(traj.t),
        "final": [float(traj.x[-1]), float(traj.y[-1])],
        "tolerances": _tolerances(),
    }
    rep = _report(
        f"orbit --input {args.input} --t {args.t} --out {args.out}", digest, results
    )
    _show(args, rep, [
        f"wrote {len(traj.t)} samples to {args.out} "
        f"(rel_tol {REL_TOL}, abs_tol {ABS_TOL})"
    ])
    return 0


# -- catalog ----------------------------------------------------------------------


def _jsonable(value):
    # catalog extras: case lists (str), an invariant curve, a float tuple
    if isinstance(value, BiPoly):
        return _terms_json(value)
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    return value


def _entry_metadata(entry) -> dict:
    meta = {
        "params": {k: str(v) for k, v in entry.params.items()},
        "expectations": sorted(entry.expectations),
        "orientation": entry.orientation,
        "notes": list(entry.notes),
    }
    if entry.printed is not None:
        meta["printed"] = {
            "x_dot": _terms_json(entry.printed[0]),
            "y_dot": _terms_json(entry.printed[1]),
        }
    if entry.darboux is not None:
        meta["darboux"] = {
            "g": _terms_json(entry.darboux.g),
            "lambda": str(entry.darboux.lam),
            "form": entry.darboux.form,
        }
    for key, value in entry.extras.items():
        meta[key] = _jsonable(value)
    return meta


def _cmd_catalog_list(args) -> int:
    sigs = list_families()
    doc = [
        {
            "name": sig.name,
            "params": [
                {"name": k, "default": None if d is None else str(d)}
                for k, d in sig.params
            ],
        }
        for sig in sigs
    ]
    lines = [
        f"{sig.name}("
        + ", ".join(f"{k}={d}" if d is not None else f"{k}=<required>" for k, d in sig.params)
        + ")"
        for sig in sigs
    ]
    _show(args, doc, lines)
    return 0


def _cmd_catalog_get(args) -> int:
    params = {}
    for key, value in args.param or []:
        params[key] = _parse_coeff(value, f"--param {key}")
    entry = catalog_get(args.name, **params)
    _show(args, system_json(entry.name, entry.field, metadata=_entry_metadata(entry)), [])
    return 0


# -- wiring -----------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; engine errors exit 2 (argparse default is 2 for both)
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser as it found it,
    # and rebuilding it took about a fifth of an in-process classify call.
    # The handlers and type= callables are bound on the first call, so
    # rebinding them in this module afterwards does not reach the parser.
    parser = _Parser(prog="centerfocus", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    pa = sub.add_parser("analyze", help="run the constant recursion on system files")
    pa.add_argument("--input", nargs="+", required=True, metavar="FILE")
    pa.add_argument("--order", type=int, required=True)
    pa.add_argument("--json", action="store_true")
    pa.add_argument("--jobs", type=int, default=1)
    pa.set_defaults(handler=_cmd_analyze)

    pc = sub.add_parser("classify", help="symbolic + structural + numeric verdicts")
    pc.add_argument("--input", nargs="+", required=True, metavar="FILE")
    pc.add_argument("--order", type=int, default=6)
    pc.add_argument("--c", type=_c_list, default=(0.05, 0.1, 0.2),
                    help="comma-separated section abscissas")
    pc.add_argument("--json", action="store_true")
    pc.add_argument("--jobs", type=int, default=1)
    pc.set_defaults(handler=_cmd_classify)

    pi = sub.add_parser("inverse", help="build a field from prescribed H and g")
    pi.add_argument("--spec", required=True, metavar="FILE")
    pi.add_argument("--check-order", type=int, required=True, dest="check_order")
    pi.add_argument("--json", action="store_true")
    pi.set_defaults(handler=_cmd_inverse)

    pd = sub.add_parser("darboux", help="invariant-curve certificate for a field")
    pd.add_argument("--input", required=True, metavar="FILE")
    pd.add_argument("--curve", required=True, metavar="FILE")
    pd.add_argument("--lambda", dest="lam", default=None, metavar="p/q")
    pd.add_argument("--json", action="store_true")
    pd.set_defaults(handler=_cmd_darboux)

    pr = sub.add_parser("returnmap", help="first-return displacements on the section")
    pr.add_argument("--input", required=True, metavar="FILE")
    pr.add_argument("--c", type=_c_list, required=True)
    pr.add_argument("--json", action="store_true")
    pr.set_defaults(handler=_cmd_samples, row=_returnmap_row)

    pp = sub.add_parser("period", help="orbit periods through section points")
    pp.add_argument("--input", required=True, metavar="FILE")
    pp.add_argument("--c", type=_c_list, required=True)
    pp.add_argument("--json", action="store_true")
    pp.set_defaults(handler=_cmd_samples, row=_period_row)

    po = sub.add_parser("orbit", help="integrate one trajectory to CSV")
    po.add_argument("--input", required=True, metavar="FILE")
    po.add_argument("--x0", type=_coordinate, required=True)
    po.add_argument("--y0", type=_coordinate, required=True)
    po.add_argument("--t", type=_end_time, required=True)
    po.add_argument("--out", required=True, metavar="CSV")
    po.add_argument("--json", action="store_true")
    po.set_defaults(handler=_cmd_orbit)

    pg = sub.add_parser("catalog", help="named example families")
    gsub = pg.add_subparsers(dest="action", required=True, parser_class=_Parser)
    gl = gsub.add_parser("list", help="family signatures")
    gl.add_argument("--json", action="store_true")
    gl.set_defaults(handler=_cmd_catalog_list)
    gg = gsub.add_parser("get", help="emit one family instance as a system document")
    gg.add_argument("name")
    gg.add_argument("--param", action="append", type=_param_pair, metavar="k=v")
    # get has no --json: its output is always a system document
    gg.set_defaults(handler=_cmd_catalog_get, json=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except Inconsistent as exc:
        print(f"centerfocus: numeric disagreement: {exc}", file=sys.stderr)
        return 3
    except CenterFocusError as exc:
        print(f"centerfocus: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
