"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

A short run of each workload must pass its checks, the traced run must
report every per-layer metric, and each reference check must reject a
corrupted engine output. The file is named so that the repository's
own test collection (test_*.py) does not pick it up.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from reference import CheckFailed  # noqa: E402

cf = workloads.load_engine(ROOT / "src")


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_short_run_passes_its_checks(workload):
    res = bench(workload, 0)
    assert res["correct"] is True
    assert res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == {"setup_s", "op_p50_s", "ops_per_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_every_layer(workload):
    res = bench(workload, 1)
    assert res["correct"] is True
    assert list(res["metrics"]) == [name for name, _ in tracing.PER_LAYER]
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert m["catalog.get_s"] > 0
    if workload == "lyapunov-deep":
        assert m["homological.solve_s"] > 0.5 * m["lyapunov.compute_s"] > 0
        assert m["numeric.return_map_calls"] == 0
    if workload == "classify-grid":
        assert m["numeric.return_map_s"] > 0.5 * m["cli.command_s"] > 0
    if workload == "inverse-orbit":
        assert m["numeric.integrate_s"] > 0 and m["poly.evaluate_calls"] > 1000


def test_workloads_are_seeded():
    a = [op.label for op in workloads.inverse_orbit(cf, 3)]
    assert a == [op.label for op in workloads.inverse_orbit(cf, 3)]
    assert inputs.bautin(random.Random(5)) == inputs.bautin(random.Random(5))


def test_bautin_draws_stay_within_their_size():
    rng = random.Random(24)
    for _ in range(50):
        p, q = inputs.bautin(rng)
        size = sum(abs(c) for (i, j), c in [*p.items(), *q.items()] if i + j == 2)
        assert size <= inputs.BAUTIN_SIZE


def test_operation_that_always_raises_makes_the_run_incorrect():
    def boom():
        raise ZeroDivisionError("engine fault")

    def reject(out):
        raise CheckFailed("unreachable")

    good = workloads.Op("good", lambda: 1, lambda out: out, lambda out: None)
    bad = workloads.Op("bad", boom, lambda out: out, reject)
    loop = run.timed_loop([good, bad], 0.001, None)
    assert loop.failed == loop.attempted // 2 >= 1
    assert run.verdict([good], loop) is True
    assert run.verdict([good, bad], loop) is False


# -- each check rejects a corrupted result ------------------------------------------


def lyapunov_case():
    p, q = inputs.bautin(random.Random(11))
    res = cf.lyapunov.compute_lyapunov(workloads.planar(cf, p, q), 6)
    h = {hp.degree: workloads.terms_of(hp.inner) for hp in res.h_list}
    return p, q, 6, h, list(res.v_list)


def test_lyapunov_check_accepts_engine_output():
    reference.check_lyapunov(*lyapunov_case())


def test_lyapunov_check_rejects_flipped_v1():
    p, q, order, h, v = lyapunov_case()
    v[0] = -v[0]
    with pytest.raises(CheckFailed):
        reference.check_lyapunov(p, q, order, h, v)


def test_lyapunov_check_rejects_changed_h_coefficient():
    p, q, order, h, v = lyapunov_case()
    key = next(iter(h[5]))
    h[5][key] += Fraction(1, 7)
    with pytest.raises(CheckFailed):
        reference.check_lyapunov(p, q, order, h, v)


def test_lyapunov_check_rejects_wrong_last_constant():
    p, q, order, h, v = lyapunov_case()
    v[-1] += 1
    with pytest.raises(CheckFailed):
        reference.check_lyapunov(p, q, order, h, v)


def cli_json(argv, tmp_path, p, q):
    path = tmp_path / "f.json"
    workloads.write_system(path, "f", p, q)
    code, text = workloads.run_cli(cf, [argv[0], "--input", str(path), *argv[1:], "--json"])
    return code, json.loads(text)


def test_returnmap_check_rejects_perturbed_delta(tmp_path):
    a = Fraction(1, 2)
    code, rep = cli_json(["returnmap", "--c", "0.05,0.1,0.2"], tmp_path, *inputs.radial(a))
    reference.check_returnmap(a, code, rep)
    rep["results"]["samples"][1]["delta"] *= 1 + 1e-6
    with pytest.raises(CheckFailed):
        reference.check_returnmap(a, code, rep)


def test_period_check_rejects_period_off_two_pi(tmp_path):
    code, rep = cli_json(["period", "--c", "0.1,0.2"], tmp_path, *inputs.radial(Fraction(-1, 3)))
    reference.check_period(code, rep)
    rep["results"]["samples"][0]["period"] = 2 * math.pi + 1e-7
    with pytest.raises(CheckFailed):
        reference.check_period(code, rep)


def test_classify_check_rejects_flipped_numeric_sign(tmp_path):
    p, q = inputs.cubic(random.Random(4))
    code, rep = cli_json(["classify"], tmp_path, p, q)
    reference.check_classify(p, q, code, rep)
    rep["results"]["numeric"]["sign"] *= -1
    with pytest.raises(CheckFailed):
        reference.check_classify(p, q, code, rep)


def test_classify_check_rejects_focus_claim_on_a_center(tmp_path):
    p, q = inputs.reversible(random.Random(4))
    code, rep = cli_json(["classify"], tmp_path, p, q)
    reference.check_classify(p, q, code, rep)
    rep["results"]["numeric"] = {"kind": "FocusLike", "sign": 1}
    with pytest.raises(CheckFailed):
        reference.check_classify(p, q, code, rep)


def test_orbit_check_rejects_energy_drift():
    psi = inputs.energy(random.Random(2), 3)
    p, q = reference.hamiltonian_field(psi)
    traj = cf.numeric.integrate(workloads.planar(cf, p, q), 0.25, 0.0, 5.0)
    t, x, y = traj.t.tolist(), traj.x.tolist(), traj.y.tolist()
    psi_poly = cf.poly.BiPoly(psi)
    energy = [cf.poly.evaluate(psi_poly, a, b) for a, b in zip(x, y)]
    reference.check_orbit(psi, 5.0, t, x, y, energy)
    energy[-1] += 1e-8
    with pytest.raises(CheckFailed):
        reference.check_orbit(psi, 5.0, t, x, y, energy)


def test_gh_coefficient_matches_closed_forms():
    # criterion 1 and 3 targets: -(1/8) lam5 (lam3 - lam6) and (1/8)(3a + c + l + 3n)
    l2, l3, l4, l5, l6 = (Fraction(k, 7) for k in (1, 2, 3, 4, 6))
    p = {(2, 0): -l3, (1, 1): 2 * l2 + l5, (0, 2): l6}
    q = {(2, 0): l2, (1, 1): 2 * l3 + l4, (0, 2): -l2}
    assert reference.gh_first_coefficient(p, q) == -l5 * (l3 - l6) / 8
    a, c, l, n = Fraction(1, 3), Fraction(-2), Fraction(5, 4), Fraction(1, 9)
    p = {(3, 0): a, (1, 2): c, (2, 1): Fraction(7)}
    q = {(2, 1): l, (0, 3): n, (1, 2): Fraction(-3)}
    assert reference.gh_first_coefficient(p, q) == (3 * a + c + l + 3 * n) / 8
