"""perfbench's tracer wraps engine names from outside; these tests fail
when one of its targets is renamed or removed, or when the engine stops
calling the wrapped layers.

Every run enters through the CLI, so every span comes from a name the
engine itself looks up: analyze for the compute and assemble layers,
classify --json for the structure layers and the float integrator,
inverse for the construction and the recursion it runs, catalog get for
the recursion and the homological solve the family builders call,
period and returnmap for the return map (through cli.period and
cli.return_map, the two names the tracer wraps in cli) and the RK45 loop
behind numeric.solve_ivp, and orbit for numeric.integrate called as the
inverse-orbit workload calls it. classify exercises the DOP853 loop
behind numeric.solve_ivp (the batched grid), and its run must also count
evaluations and steps: the tracer reads them from the nfev and t of the
owned loop's result.

The runs share one fresh interpreter, under -O when the suite runs so,
because no run, tracer.install included, may import SciPy: the engine
needs only NumPy, and SciPy is the tests' oracle, which this process
has already loaded.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import centerfocus

ROOT = Path(__file__).resolve().parent.parent

RUNS = {
    "analyze": (
        ["analyze", "--input", "tests/data/cli/bautin.json", "--order", "6"],
        {"lyapunov.compute", "lyapunov.assemble"},
    ),
    "inverse": (
        ["inverse", "--spec", "tests/data/cli/ham.json", "--check-order", "8"],
        {"inverse.build_field", "lyapunov.compute"},
    ),
    "catalog-bautin": (
        ["catalog", "get", "bautin", "--param", "lam3=1", "--param", "lam5=1/2"],
        {"lyapunov.compute"},
    ),
    "catalog-chava56": (
        ["catalog", "get", "chava56", "--param", "a=1"],
        {"homological.solve"},
    ),
    "classify": (
        ["classify", "--input", "tests/data/cli/bautin.json", "--json"],
        {"structure.hg", "structure.symmetries", "structure.weak_center", "numeric.solve_ivp"},
    ),
    "period": (
        ["period", "--input", "tests/data/cli/bautin.json", "--c", "0.1"],
        {"numeric.return_map", "numeric.solve_ivp"},
    ),
    "returnmap": (
        ["returnmap", "--input", "tests/data/cli/bautin.json", "--c", "0.1"],
        {"numeric.return_map", "numeric.solve_ivp"},
    ),
    "orbit": (
        ["orbit", "--input", "tests/data/cli/bautin.json",
         "--x0", "0.1", "--y0", "0", "--t", "5", "--out", "{csv}"],
        {"numeric.integrate", "numeric.solve_ivp"},
    ),
}

# each run's exit status, span names, summed evaluation and step counts,
# and whether SciPy was loaded after it, one JSON object per run
SCRIPT = textwrap.dedent("""
    import contextlib, io, json, sys
    import centerfocus.cli
    import tracer

    out = {}
    for name, argv in json.loads(sys.argv[1]).items():
        t = tracer.Tracer()
        tracer.install(t, centerfocus)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                status = centerfocus.cli.main(argv)
        finally:
            t.restore()
        out[name] = {
            "status": status,
            "spans": sorted({rec[0] for rec in t.spans}),
            "counts": {
                key: sum(c.get(key, 0) for c in t.counts.values())
                for key in ("numeric.rhs_evals", "numeric.steps")
            },
            "scipy": "scipy" in sys.modules,
        }
    print(json.dumps(out))
""")


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    csv = str(tmp_path_factory.mktemp("orbit") / "orbit.csv")
    argvs = {
        name: [csv if arg == "{csv}" else arg for arg in argv]
        for name, (argv, _) in RUNS.items()
    }
    src = Path(centerfocus.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(ROOT / "perfbench")])}
    flags = ["-O"] * sys.flags.optimize
    out = subprocess.run(
        [sys.executable, *flags, "-c", SCRIPT, json.dumps(argvs)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(out.stdout)


@pytest.mark.parametrize("name", RUNS)
def test_traced_run_records_its_spans(traced, name):
    run = traced[name]
    assert run["status"] == 0
    assert RUNS[name][1] <= set(run["spans"])


@pytest.mark.parametrize("name", RUNS)
def test_traced_run_loads_no_scipy(traced, name):
    assert traced[name]["scipy"] is False


def test_traced_classify_counts_evaluations_and_steps(traced):
    counts = traced["classify"]["counts"]
    assert counts["numeric.rhs_evals"] > 0
    assert counts["numeric.steps"] > 0
