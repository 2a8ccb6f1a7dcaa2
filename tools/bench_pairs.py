"""Alternating parent/change pairs of the committed benchmark.

    python3 tools/bench_pairs.py --base REV --seed 3101 --out BENCH_x.json

Each side is exported with ``git archive`` into its own directory: the
parent from ``--base``, the change from ``--head`` (default HEAD). For
each workload, pair i runs

    python3 perfbench/run.py --workload W --seed S --seconds T

once per side on the same seed S, one benchmark process at a time, T
being ``--seconds`` (default BENCHMARK.json's ``run_seconds``); the
parent runs first in even-numbered pairs and the change first in odd
ones. Workload w (in ``--workload`` order) uses seeds ``--seed`` +
w * pairs + i, so pick a start seed no earlier run used. Metric
directions and bounds come from BENCHMARK.json.

The output has the ``method``/``workloads`` shape of the repository's
BENCH_*.json files: per workload the seeds, who ran first, every raw
run, and per metric each side's runs by pair, median and quartiles
(``statistics.quantiles``, inclusive), the change's wins and ties, the
relative change of the medians, the parent's quartile spread and
whether the change stays within the bound. The file is rewritten after
every pair, so a stopped run keeps what it measured.

After the pairs, each side runs every workload once more with
``--trace 1`` on the workload's first seed. The per-op counts of those
runs (``TRACED``) go under ``traced``, with whether the two sides agree
on each: equal counts mean the same steps, field evaluations, section
fallbacks, ``poly.evaluate`` calls and solves. Their per-layer seconds
are left out, since one traced run cannot resolve them to better than
about 15 %. ``homological.solve_calls`` counts only calls of
``lyapunov.solve_homological``, which the recursion does not make (it
calls ``solve_slice``), so it reads 0 on lyapunov-deep until perfbench's
tracer wraps the slice solve.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
# the per-op counts a traced run reports, kept in the output's "traced";
# homological.solve_calls counts solve_homological calls only, so it reads
# 0 on lyapunov-deep, whose recursion solves through solve_slice
TRACED = (
    "numeric.rhs_evals",
    "numeric.steps",
    "numeric.root_fallbacks",
    "numeric.return_map_calls",
    "poly.evaluate_calls",
    "homological.solve_calls",
)


def summarize(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Compare two sides' runs of one metric, paired by index.

    A pair is a win when the change's run is better than the parent's in
    the metric's direction ("lower" or "higher") and a tie when they are
    equal. ``relative_change`` is the change's median over the parent's,
    minus 1; ``within_bound`` holds when the change is not worse than the
    parent's median by more than ``bound`` of it.
    """
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need two equally long lists of at least two runs")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))

    def side(runs):
        q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
        return {"median": median, "q1": q1, "q3": q3, "runs_by_pair": list(runs)}

    out = {"parent": side(parent), "change": side(change), "better": better, "bound": bound}
    p_med, c_med = out["parent"]["median"], out["change"]["median"]
    rel = c_med / p_med - 1 if p_med else 0.0
    out.update(
        change_wins=wins,
        ties=ties,
        relative_change=round(rel, 4),
        parent_iqr=out["parent"]["q3"] - out["parent"]["q1"],
        within_bound=-sign * rel <= bound,
    )
    return out


def blas_kernel(lib_dir: Path | None = None) -> str:
    """The kernel OpenBLAS chose for this CPU when it loaded (``SkylakeX``,
    ``Haswell``, ...), or an ``OPENBLAS_CORETYPE`` override.

    It is read from ``scipy_openblas_get_corename64_`` in the OpenBLAS
    library of ``lib_dir``, by default the ``numpy.libs`` bundled with
    NumPy, after NumPy has loaded it. ``"unknown"`` when no library there
    loads and has that symbol.
    """
    import numpy as np

    if lib_dir is None:
        lib_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(lib_dir.glob("*openblas*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def library_versions() -> dict:
    """NumPy's and SciPy's versions, the BLAS NumPy was built against and
    the kernel that BLAS runs.

    The engine's printed floats are bit for bit SciPy's only for one BLAS
    build (its stage sums are BLAS dot products), and its golden digits
    replay only on the kernel they were recorded on, so a measurement
    names both. The engine no longer imports SciPy; its version is that
    of the oracle the tests compare the engine's Runge-Kutta loop and
    brentq with.
    """
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
        "blas_kernel": blas_kernel(),
    }


def export(rev: str, dest: Path) -> str:
    """Unpack ``git archive rev`` into dest; return the full commit id."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout.strip()
    dest.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "archive", commit], cwd=ROOT, check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return commit


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(
            f"bench_pairs: {workload} seed {seed} in {tree} exited {proc.returncode}\n"
            f"{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def workload_summary(seeds, first, raw, metrics) -> dict:
    """The per-workload block from the pairs run so far."""
    done = len(raw["parent"])
    out = {
        "pairs": done,
        "seeds": seeds[:done],
        "first": first[:done],
        "correct": all(r["correct"] for s in SIDES for r in raw[s]),
        "attempted": {s: sum(r["attempted"] for r in raw[s]) for s in SIDES},
        "failed": {s: sum(r["failed"] for r in raw[s]) for s in SIDES},
        "metrics": {},
        "raw": raw,
    }
    if done >= 2:
        for m in metrics:
            runs = {s: [r["metrics"][m["name"]]["value"] for r in raw[s]] for s in SIDES}
            out["metrics"][m["name"]] = summarize(
                runs["parent"], runs["change"], m["better"], m["bound"]
            )
    return out


def traced_summary(parent: dict, change: dict) -> dict:
    """Each side's ``TRACED`` counts from its ``--trace 1`` result line,
    with its attempted and failed operations and its verdict, and per
    count whether the two sides report the same value."""

    def side(run):
        counts = {name: run["metrics"][name]["value"] for name in TRACED}
        return {k: run[k] for k in ("attempted", "failed", "correct")} | counts

    out = {s: side(run) for s, run in zip(SIDES, (parent, change))}
    out["equal"] = {name: out["parent"][name] == out["change"][name] for name in TRACED}
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="parent revision")
    ap.add_argument("--head", default="HEAD", help="change revision (default HEAD)")
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in spec["workloads"]],
                    help="repeatable; default every workload in BENCHMARK.json")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                    help="seconds per run (default BENCHMARK.json's run_seconds)")
    ap.add_argument("--seed", type=int, required=True, help="first seed")
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"parent": Path(tmp, "parent"), "change": Path(tmp, "change")}
        commits = {s: export(rev, trees[s]) for s, rev in zip(SIDES, (args.base, args.head))}
        doc = {
            "method": {
                "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g}",
                "pairs": (
                    f"{args.pairs} pairs per workload, seeds from {args.seed} on; "
                    "parent first in even-numbered pairs and change first in odd ones; "
                    "each side runs from its own git archive, one benchmark process at a time"
                ),
                "parent": commits["parent"],
                "change": commits["change"],
                "quartiles": "statistics.quantiles(method='inclusive') over the runs of one side",
                "host_python": sys.version.split()[0],
                **library_versions(),
            },
            "workloads": {},
        }
        for w, name in enumerate(names):
            seeds = [args.seed + w * args.pairs + i for i in range(args.pairs)]
            first = [SIDES[i % 2] for i in range(args.pairs)]
            raw = {s: [] for s in SIDES}
            for i, seed in enumerate(seeds):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                for s in order:
                    raw[s].append(run_once(trees[s], name, seed, args.seconds))
                doc["workloads"][name] = workload_summary(seeds, first, raw, spec["end_to_end"])
                args.out.write_text(json.dumps(doc, indent=1) + "\n")
                print(f"bench_pairs: {name} pair {i + 1}/{args.pairs} done", file=sys.stderr)
        doc["traced"] = {
            "command": (
                f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} "
                "--trace 1, once per side on each workload's first seed, parent first"
            ),
        }
        for w, name in enumerate(names):
            seed = args.seed + w * args.pairs
            runs = [run_once(trees[s], name, seed, args.seconds, trace=1) for s in SIDES]
            doc["traced"][name] = traced_summary(*runs)
            args.out.write_text(json.dumps(doc, indent=1) + "\n")
            print(f"bench_pairs: {name} traced", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
