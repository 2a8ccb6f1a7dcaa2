"""The three workloads: seeded inputs, the timed operations, their checks.

A workload is built from a seed into one round: a fixed list of
operations. The timed loop repeats whole rounds, so every run attempts
the same operations in the same proportions. Each operation has

- ``run()``: the timed call into the engine;
- ``fingerprint(out)``: a cheap summary taken after the timing, which
  must be identical in every round (the engine is deterministic);
- ``check(out)``: the reference check from ``reference``, run once on
  the operation's first output after the timed loop.

Engine functions are looked up through their modules at call time
(``cf.lyapunov.compute_lyapunov``), so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import inputs
import reference

# fixtures every workload's set-up builds from the catalog
CATALOG_FIXTURES = (
    "quartic_uuu", "quartic_ttt", "quintic_ssss",
    "loud1", "loud2", "loud3", "loud4",
    "rloud_cubic1", "rloud_cubic2", "rloud_cubic3", "rloud_cubic4",
)
ISOCHRONOUS = CATALOG_FIXTURES[3:]

# orders chosen so that most operations cost about the same (0.3-1 s at
# the parent of this benchmark): the median then rests on many operations
# and moves little with the seed
LYAPUNOV_ORDERS = {
    "bautin": (12, 14, 16),
    "cubic": (16, 18, 20),
    "reversible": (14, 16),
    "hamiltonian": (14,),
}
FIXTURE_ORDERS = {"quartic_uuu": 18, "quartic_ttt": 18, "quintic_ssss": 20}

# an operation's cost grows with m (more terms in the RHS and in Psi);
# with two specs each for m = 2 and 3 and one each for m = 4 and 5 the
# median falls in the middle of the m = 3 operations, not on the step
# between two degrees, where it would swing with small timing noise
INVERSE_DEGREES = (2, 2, 3, 3, 4, 5)
INVERSE_CHECK_ORDER = 12
ORBIT_X0 = 0.25
ORBIT_T_END = 100.0


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    fingerprint: Callable[[object], object]
    check: Callable[[object], None]


def load_engine(src: Path):
    """Import the engine package with every module the workloads use; the
    import is part of set-up."""
    sys.path.insert(0, str(src))
    import centerfocus.cli

    return centerfocus


def terms_of(poly) -> dict:
    return {key: c for key, c in poly.terms()}


def planar(cf, p: dict, q: dict):
    return cf.lyapunov.PlanarField(p=cf.poly.BiPoly(p), q=cf.poly.BiPoly(q))


def build_fixtures(cf) -> dict[str, tuple[dict, dict]]:
    out = {}
    for name in CATALOG_FIXTURES:
        field = cf.catalog.get(name).field
        out[name] = (terms_of(field.p), terms_of(field.q))
    return out


def _coeff_text(c: Fraction):
    return c.numerator if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def write_system(path: Path, name: str, p: dict, q: dict) -> None:
    doc = {
        "name": name,
        "x_dot": [{"i": i, "j": j, "c": _coeff_text(c)} for (i, j), c in sorted(p.items())],
        "y_dot": [{"i": i, "j": j, "c": _coeff_text(c)} for (i, j), c in sorted(q.items())],
    }
    path.write_text(json.dumps(doc), encoding="utf-8")


# -- lyapunov-deep ----------------------------------------------------------------


def _lyapunov_op(cf, label: str, p: dict, q: dict, order: int) -> Op:
    field = planar(cf, p, q)

    def run():
        return cf.lyapunov.compute_lyapunov(field, order)

    def fingerprint(res):
        return res.v_list, tuple(hp.inner for hp in res.h_list)

    def check(res):
        h = {hp.degree: terms_of(hp.inner) for hp in res.h_list}
        reference.check_lyapunov(p, q, order, h, list(res.v_list))

    return Op(f"{label}@{order}", run, fingerprint, check)


def lyapunov_deep(cf, seed: int, fixtures: dict) -> list[Op]:
    rng = random.Random(seed)
    make = {
        "bautin": inputs.bautin,
        "cubic": inputs.cubic,
        "reversible": inputs.reversible,
        "hamiltonian": inputs.hamiltonian,
    }
    ops = []
    for kind, orders in LYAPUNOV_ORDERS.items():
        for order in orders:
            ops.append(_lyapunov_op(cf, kind, *make[kind](rng), order))
    for name, order in FIXTURE_ORDERS.items():
        ops.append(_lyapunov_op(cf, name, *fixtures[name], order))
    return ops


def warm_lyapunov(cf, fixtures: dict) -> None:
    cf.lyapunov.compute_lyapunov(planar(cf, *fixtures["quartic_uuu"]), 4)


# -- classify-grid ----------------------------------------------------------------


def run_cli(cf, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cf.cli.main(argv)
    return code, out.getvalue()


def _cli_op(cf, label: str, argv: list[str], check: Callable[[int, dict], None], tracer) -> Op:
    def run():
        if tracer is None:
            return run_cli(cf, argv)
        with tracer.span("cli.command"):
            return run_cli(cf, argv)

    def verify(out):
        code, text = out
        check(code, json.loads(text))

    return Op(label, run, lambda out: out, verify)


def classify_grid(cf, seed: int, fixtures: dict, workdir: Path, tracer) -> list[Op]:
    rng = random.Random(seed)
    a = inputs.radial_coefficient(rng)
    fields = {
        "bautin1": inputs.bautin(rng),
        "bautin2": inputs.bautin(rng),
        "cubic1": inputs.cubic(rng),
        "cubic2": inputs.cubic(rng),
        "reversible": inputs.reversible(rng),
        "hamiltonian": inputs.hamiltonian(rng),
        "radial": inputs.radial(a),
    }
    fields.update({name: fixtures[name] for name in ISOCHRONOUS})
    paths = {}
    for name, (p, q) in fields.items():
        paths[name] = workdir / f"{name}.json"
        write_system(paths[name], name, p, q)

    ops = []
    for name, (p, q) in fields.items():
        ops.append(_cli_op(
            cf, f"classify {name}",
            ["classify", "--input", str(paths[name]), "--json"],
            lambda code, rep, p=p, q=q: reference.check_classify(p, q, code, rep),
            tracer,
        ))
    c_text = ",".join(repr(c) for c in inputs.section_points(rng))
    ops.append(_cli_op(
        cf, "returnmap radial",
        ["returnmap", "--input", str(paths["radial"]), "--c", c_text, "--json"],
        lambda code, rep: reference.check_returnmap(a, code, rep),
        tracer,
    ))
    for name in ("radial",) + ISOCHRONOUS:
        c_text = ",".join(repr(c) for c in inputs.section_points(rng))
        ops.append(_cli_op(
            cf, f"period {name}",
            ["period", "--input", str(paths[name]), "--c", c_text, "--json"],
            reference.check_period,
            tracer,
        ))
    return ops


def warm_classify(cf, workdir: Path) -> None:
    path = workdir / "radial.json"
    code, _ = run_cli(cf, ["classify", "--input", str(path), "--order", "2", "--c", "0.1", "--json"])
    if code != 0:
        raise RuntimeError(f"warm-up classify exited {code}")


# -- inverse-orbit ----------------------------------------------------------------


def _spec(cf, m: int, psi: dict):
    """Prescribed H_2..H_{m+1} from psi, multipliers g_0 = 1 and g_k = 0."""
    BiPoly = cf.poly.BiPoly
    return cf.inverse.InverseSpec(
        m=m,
        h_list=tuple(BiPoly(h) for h in inputs.split_energy(psi, m)),
        g_list=(BiPoly.constant(1),) + (BiPoly(),) * (m - 1),
    )


def _inverse_op(cf, m: int, psi: dict) -> Op:
    spec = _spec(cf, m, psi)
    psi_poly = cf.poly.BiPoly(psi)

    def run():
        inv = cf.inverse
        field = inv.build_field(spec)
        mismatch = inv.hamiltonian_mismatch(spec)
        residuals = inv.complementary_residuals(spec, INVERSE_CHECK_ORDER)
        traj = cf.numeric.integrate(field, ORBIT_X0, 0.0, ORBIT_T_END)
        evaluate = cf.poly.evaluate
        energy = [evaluate(psi_poly, float(x), float(y)) for x, y in zip(traj.x, traj.y)]
        return field, mismatch, residuals, traj, energy

    def fingerprint(out):
        field, mismatch, residuals, traj, energy = out
        digest = hashlib.sha256()
        for arr in (traj.t, traj.x, traj.y):
            digest.update(arr.tobytes())
        digest.update(repr(energy).encode())
        return (
            field.p, field.q, mismatch.is_zero(),
            tuple(r.is_zero() for r in residuals), digest.hexdigest(),
        )

    def check(out):
        field, mismatch, residuals, traj, energy = out
        reference.check_inverse(
            psi, terms_of(field.p), terms_of(field.q),
            [r.is_zero() for r in residuals], INVERSE_CHECK_ORDER - m + 1,
            mismatch.is_zero(),
        )
        reference.check_orbit(
            psi, ORBIT_T_END, traj.t.tolist(), traj.x.tolist(), traj.y.tolist(), energy
        )

    return Op(f"inverse m={m}", run, fingerprint, check)


def inverse_orbit(cf, seed: int) -> list[Op]:
    rng = random.Random(seed)
    return [_inverse_op(cf, m, inputs.energy(rng, m + 1)) for m in INVERSE_DEGREES]


def warm_inverse(cf) -> None:
    psi = inputs.energy(random.Random(0), 3)
    spec = _spec(cf, 2, psi)
    field = cf.inverse.build_field(spec)
    cf.inverse.complementary_residuals(spec, 4)
    traj = cf.numeric.integrate(field, ORBIT_X0, 0.0, 1.0)
    cf.poly.evaluate(cf.poly.BiPoly(psi), float(traj.x[-1]), float(traj.y[-1]))


def build(name: str, cf, seed: int, workdir: Path, tracer) -> list[Op]:
    """Set-up for one workload: catalog fixtures, input files, warm-up."""
    fixtures = build_fixtures(cf)
    if name == "lyapunov-deep":
        ops = lyapunov_deep(cf, seed, fixtures)
        warm_lyapunov(cf, fixtures)
    elif name == "classify-grid":
        ops = classify_grid(cf, seed, fixtures, workdir, tracer)
        warm_classify(cf, workdir)
    elif name == "inverse-orbit":
        ops = inverse_orbit(cf, seed)
        warm_inverse(cf)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return ops


WORKLOADS = ("lyapunov-deep", "classify-grid", "inverse-orbit")
