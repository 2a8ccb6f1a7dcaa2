"""Span tracer that wraps engine functions from outside.

Each target is a function as it is bound in the module that calls it
(for example ``centerfocus.lyapunov.solve_homological``, which is what
``compute_lyapunov`` looks up at run time). The wrapper records a span
[name, start, end, parent, op] in memory; ``op`` is -1 during set-up and
the operation's index in the timed loop. Nothing in the engine changes.
"""

from __future__ import annotations

import contextlib
import json
from collections import defaultdict
from time import perf_counter

SETUP_OP = -1
IDLE_OP = -2  # between operations: spans are kept but counted nowhere


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.op = SETUP_OP
        # counters read from results at the same boundaries, per op id
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))

    # -- recording -------------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def count(self, key: str, value: float) -> None:
        self.counts[self.op][key] += value

    def peak(self, key: str, value: float) -> None:
        bucket = self.counts[self.op]
        bucket[key] = max(bucket[key], value)

    # -- patching --------------------------------------------------------------

    def wrap(self, fn, name: str, after):
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if after is not None:
                after(self, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def patch(self, owner, attr: str, name: str, after) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, after))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- reading ---------------------------------------------------------------

    def inclusive(self, ops: set[int]) -> dict[str, float]:
        """Seconds per span name, counting a span only when no ancestor
        carries the same name (so recursion is not counted twice)."""
        spans = self.spans
        out: dict[str, float] = defaultdict(float)
        for rec in spans:
            if rec[4] not in ops:
                continue
            name, parent = rec[0], rec[3]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                out[name] += rec[2] - rec[1]
        return out

    def self_times(self, ops: set[int]) -> dict[str, float]:
        """Seconds per span name minus the part covered by child spans."""
        out: dict[str, float] = defaultdict(float)
        for rec in self.spans:
            if rec[4] in ops:
                out[rec[0]] += rec[2] - rec[1]
                if rec[3] >= 0:
                    out[self.spans[rec[3]][0]] -= rec[2] - rec[1]
        return out

    def calls(self, ops: set[int]) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for rec in self.spans:
            if rec[4] in ops:
                out[rec[0]] += 1
        return out

    def totals(self, ops: set[int]) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for op in ops:
            for key, value in self.counts.get(op, {}).items():
                out[key] += value
        return out

    def dump(self, path) -> None:
        """One JSON line per span: name, start, end, parent index, op id."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


# -- what to wrap ------------------------------------------------------------------


def _after_compute(tracer: Tracer, res) -> None:
    tracer.count("lyapunov.computes", 1)
    tracer.count("lyapunov.h_terms", sum(len(hp.inner) for hp in res.h_list))
    bits = 0
    for hp in res.h_list:
        for _, c in hp.inner.terms():
            bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    tracer.peak("lyapunov.coeff_bits", bits)


def _after_solve_ivp(tracer: Tracer, sol) -> None:
    tracer.count("numeric.rhs_evals", sol.nfev)
    tracer.count("numeric.steps", len(sol.t) - 1)


def install(tracer: Tracer, cf) -> None:
    """Wrap each layer's functions where their callers look them up.

    ``cf`` is the imported ``centerfocus`` package.
    """
    targets = [
        (cf.poly.BiPoly, "__mul__", "poly.mul", None),
        (cf.poly.BiPoly, "__rmul__", "poly.mul", None),
        (cf.homological, "to_complex", "poly.to_complex", None),
        (cf.structure, "to_complex", "poly.to_complex", None),
        (cf.homological, "from_complex", "poly.from_complex", None),
        (cf.poly, "evaluate", "poly.evaluate", None),
        (cf.lyapunov, "solve_homological", "homological.solve", None),
        (cf.structure, "solve_homological", "homological.solve", None),
        (cf.catalog, "solve_homological", "homological.solve", None),
        (cf.lyapunov, "_assemble_f", "lyapunov.assemble", None),
        (cf.inverse, "_assemble_f", "lyapunov.assemble", None),
        (cf.lyapunov, "circle_average", "lyapunov.average", None),
        (cf.lyapunov, "compute_lyapunov", "lyapunov.compute", _after_compute),
        (cf.inverse, "compute_lyapunov", "lyapunov.compute", _after_compute),
        (cf.catalog, "compute_lyapunov", "lyapunov.compute", _after_compute),
        (cf.cli, "compute_lyapunov", "lyapunov.compute", _after_compute),
        (cf.cli, "detect_symmetries", "structure.symmetries", None),
        (cf.cli, "hg_decompose", "structure.hg", None),
        (cf.cli, "weak_center_check", "structure.weak_center", None),
        (cf.inverse, "build_field", "inverse.build_field", None),
        (cf.inverse, "complementary_residuals", "inverse.residuals", None),
        (cf.inverse, "hamiltonian_mismatch", "inverse.mismatch", None),
        (cf.numeric, "solve_ivp", "numeric.solve_ivp", _after_solve_ivp),
        (cf.numeric, "brentq", "numeric.brentq", None),
        (cf.numeric, "return_map", "numeric.return_map", None),
        (cf.cli, "return_map", "numeric.return_map", None),
        (cf.cli, "period", "numeric.return_map", None),
        (cf.numeric, "integrate", "numeric.integrate", None),
        (cf.catalog, "get", "catalog.get", None),
        (cf.cli, "parse_system", "cli.parse", None),
        (cf.cli, "_emit", "cli.report", None),
    ]
    for owner, attr, name, after in targets:
        tracer.patch(owner, attr, name, after)


PER_LAYER = [
    # name, unit, how it is derived
    ("homological.solve_calls", "count/op"),
    ("homological.solve_s", "s/op"),
    ("poly.to_complex_s", "s/op"),
    ("poly.from_complex_s", "s/op"),
    ("lyapunov.compute_s", "s/op"),
    ("lyapunov.assemble_s", "s/op"),
    ("lyapunov.average_s", "s/op"),
    ("poly.mul_calls", "count/op"),
    ("poly.mul_s", "s/op"),
    ("lyapunov.h_terms", "count"),
    ("lyapunov.coeff_bits", "bits"),
    ("numeric.return_map_calls", "count/op"),
    ("numeric.return_map_s", "s/op"),
    ("numeric.rhs_evals", "count/op"),
    ("numeric.steps", "count/op"),
    ("numeric.evals_per_step", "ratio"),
    ("numeric.root_fallbacks", "count/op"),
    ("numeric.integrate_s", "s/op"),
    ("poly.evaluate_calls", "count/op"),
    ("poly.evaluate_s", "s/op"),
    ("inverse.build_field_s", "s/op"),
    ("inverse.residuals_s", "s/op"),
    ("inverse.mismatch_s", "s/op"),
    ("structure.symmetries_s", "s/op"),
    ("structure.hg_s", "s/op"),
    ("structure.weak_center_s", "s/op"),
    ("cli.parse_s", "s/op"),
    ("cli.report_s", "s/op"),
    ("cli.command_s", "s/op"),
    ("catalog.get_s", "s"),
]


def per_layer_metrics(tracer: Tracer, n_ops: int, scale: float) -> dict[str, dict]:
    """The per-layer figures of the timed loop, per operation.

    Times are inclusive of child spans and multiplied by ``scale``, the
    run's median host-speed factor, like the end-to-end times;
    ``catalog.get_s`` is the set-up total. ``lyapunov.h_terms`` is the mean number of H_n terms per
    compute_lyapunov call and ``lyapunov.coeff_bits`` the largest
    numerator or denominator bit length of any H_n coefficient.
    """
    ops = set(range(n_ops))
    incl = tracer.inclusive(ops)
    calls = tracer.calls(ops)
    cnt = tracer.totals(ops)
    setup = tracer.inclusive({SETUP_OP})
    steps = cnt.get("numeric.steps", 0.0)
    computes = cnt.get("lyapunov.computes", 0.0)
    bits = max(
        (tracer.counts[op].get("lyapunov.coeff_bits", 0.0) for op in ops if op in tracer.counts),
        default=0.0,
    )
    values = {
        "homological.solve_calls": calls["homological.solve"] / n_ops,
        "homological.solve_s": incl["homological.solve"] / n_ops,
        "poly.to_complex_s": incl["poly.to_complex"] / n_ops,
        "poly.from_complex_s": incl["poly.from_complex"] / n_ops,
        "lyapunov.compute_s": incl["lyapunov.compute"] / n_ops,
        "lyapunov.assemble_s": incl["lyapunov.assemble"] / n_ops,
        "lyapunov.average_s": incl["lyapunov.average"] / n_ops,
        "poly.mul_calls": calls["poly.mul"] / n_ops,
        "poly.mul_s": incl["poly.mul"] / n_ops,
        "lyapunov.h_terms": cnt.get("lyapunov.h_terms", 0.0) / computes if computes else 0.0,
        "lyapunov.coeff_bits": bits,
        "numeric.return_map_calls": calls["numeric.return_map"] / n_ops,
        "numeric.return_map_s": incl["numeric.return_map"] / n_ops,
        "numeric.rhs_evals": cnt.get("numeric.rhs_evals", 0.0) / n_ops,
        "numeric.steps": steps / n_ops,
        "numeric.evals_per_step": cnt.get("numeric.rhs_evals", 0.0) / steps if steps else 0.0,
        "numeric.root_fallbacks": calls["numeric.brentq"] / n_ops,
        "numeric.integrate_s": incl["numeric.integrate"] / n_ops,
        "poly.evaluate_calls": calls["poly.evaluate"] / n_ops,
        "poly.evaluate_s": incl["poly.evaluate"] / n_ops,
        "inverse.build_field_s": incl["inverse.build_field"] / n_ops,
        "inverse.residuals_s": incl["inverse.residuals"] / n_ops,
        "inverse.mismatch_s": incl["inverse.mismatch"] / n_ops,
        "structure.symmetries_s": incl["structure.symmetries"] / n_ops,
        "structure.hg_s": incl["structure.hg"] / n_ops,
        "structure.weak_center_s": incl["structure.weak_center"] / n_ops,
        "cli.parse_s": incl["cli.parse"] / n_ops,
        "cli.report_s": incl["cli.report"] / n_ops,
        "cli.command_s": incl["cli.command"] / n_ops,
        "catalog.get_s": setup["catalog.get"],
    }
    return {
        name: {"value": values[name] * (scale if name.endswith("_s") else 1), "unit": unit}
        for name, unit in PER_LAYER
    }
