"""The pure summary of tools/bench_pairs.py: wins, ties, medians, spreads."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
sys.path.insert(0, str(TOOLS))

import bench_pairs  # noqa: E402
from bench_pairs import (  # noqa: E402
    ROOT,
    TRACED,
    blas_kernel,
    library_versions,
    summarize,
    traced_summary,
)


def test_lower_is_better_counts_wins_and_ties():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 2.0, 2.5, 4.5, 4.0]
    out = summarize(parent, change, "lower", 0.25)
    assert out["change_wins"] == 3
    assert out["ties"] == 1
    assert out["parent"]["runs_by_pair"] == parent
    assert out["change"]["runs_by_pair"] == change
    assert (out["parent"]["q1"], out["parent"]["median"], out["parent"]["q3"]) == (2.0, 3.0, 4.0)
    assert out["parent_iqr"] == 2.0
    assert out["change"]["median"] == 2.5
    assert out["relative_change"] == pytest.approx(-1 / 6, abs=1e-4)
    assert out["within_bound"]


def test_higher_is_better_counts_wins():
    out = summarize([10.0, 10.0, 10.0], [11.0, 9.0, 12.0], "higher", 0.25)
    assert out["change_wins"] == 2
    assert out["ties"] == 0
    assert out["relative_change"] == pytest.approx(0.1)
    assert out["within_bound"]


@pytest.mark.parametrize(
    "better, change, within",
    [
        ("lower", [1.2, 1.2], True),
        ("lower", [1.3, 1.3], False),
        ("higher", [0.8, 0.8], True),
        ("higher", [0.7, 0.7], False),
    ],
)
def test_bound_is_on_the_worse_side_only(better, change, within):
    out = summarize([1.0, 1.0], change, better, 0.25)
    assert out["within_bound"] is within
    assert out["change_wins"] == (2 if (better == "lower") == (change[0] < 1) else 0)


def test_rejects_unpaired_or_unknown_direction():
    with pytest.raises(ValueError):
        summarize([1.0, 2.0], [1.0], "lower", 0.25)
    with pytest.raises(ValueError):
        summarize([1.0], [1.0], "lower", 0.25)
    with pytest.raises(ValueError):
        summarize([1.0, 2.0], [1.0, 2.0], "faster", 0.25)


def test_library_versions_name_numpy_scipy_and_blas():
    import numpy as np
    import scipy

    out = library_versions()
    assert set(out) == {"numpy", "scipy", "blas", "blas_kernel"}
    assert out["numpy"] == np.__version__ and out["scipy"] == scipy.__version__
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert out["blas"] == f"{blas['name']} {blas['version']}"
    assert out["blas_kernel"] == blas_kernel()


def bundled_openblas():
    import numpy as np

    return sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*"))


@pytest.mark.skipif(not bundled_openblas(), reason="NumPy bundles no OpenBLAS here")
def test_blas_kernel_reads_the_runtime_choice():
    # OPENBLAS_CORETYPE picks the kernel when the library loads, so the
    # override must be set before NumPy is imported: in a fresh process.
    # Haswell's kernel runs on any x86-64 CPU with AVX2.
    script = "from bench_pairs import blas_kernel; print(blas_kernel())"
    env = {**os.environ, "PYTHONPATH": str(TOOLS), "OPENBLAS_CORETYPE": "Haswell"}
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    assert out.stdout == "Haswell\n"
    assert blas_kernel() not in ("unknown", "")


def test_blas_kernel_is_unknown_without_the_library_or_symbol(tmp_path):
    assert blas_kernel(tmp_path) == "unknown"
    # a file that does not load, and a library without the symbol
    (tmp_path / "libopenblas_broken.so").write_bytes(b"not a library")
    import _ctypes

    (tmp_path / "libopenblas_other.so").symlink_to(_ctypes.__file__)
    assert blas_kernel(tmp_path) == "unknown"


# the last line of two `perfbench/run.py --trace 1` runs, cut to a few metrics
TRACED_LINES = (
    '{"correct": true, "attempted": 96, "failed": 0, "metrics": {'
    '"numeric.rhs_evals": {"value": 46378.0, "unit": "count/op"}, '
    '"numeric.steps": {"value": 7729.333333333333, "unit": "count/op"}, '
    '"numeric.root_fallbacks": {"value": 0.0, "unit": "count/op"}, '
    '"numeric.return_map_calls": {"value": 0.0, "unit": "count/op"}, '
    '"poly.evaluate_calls": {"value": 7731.0, "unit": "count/op"}, '
    '"homological.solve_calls": {"value": 58.5, "unit": "count/op"}, '
    '"numeric.integrate_s": {"value": 0.21, "unit": "s/op"}}}',
    '{"correct": true, "attempted": 144, "failed": 0, "metrics": {'
    '"numeric.rhs_evals": {"value": 46378.0, "unit": "count/op"}, '
    '"numeric.steps": {"value": 7729.333333333333, "unit": "count/op"}, '
    '"numeric.root_fallbacks": {"value": 0.0, "unit": "count/op"}, '
    '"numeric.return_map_calls": {"value": 0.0, "unit": "count/op"}, '
    '"poly.evaluate_calls": {"value": 7731.0, "unit": "count/op"}, '
    '"homological.solve_calls": {"value": 58.0, "unit": "count/op"}, '
    '"numeric.integrate_s": {"value": 0.12, "unit": "s/op"}}}',
)


def test_traced_summary_keeps_counts_and_compares_them():
    out = traced_summary(*map(json.loads, TRACED_LINES))
    assert set(out) == {"parent", "change", "equal"}
    assert out["parent"] == {
        "attempted": 96, "failed": 0, "correct": True,
        "numeric.rhs_evals": 46378.0, "numeric.steps": 7729.333333333333,
        "numeric.root_fallbacks": 0.0, "numeric.return_map_calls": 0.0,
        "poly.evaluate_calls": 7731.0, "homological.solve_calls": 58.5,
    }
    assert out["change"]["attempted"] == 144
    # per-layer seconds are not kept
    assert not any(k.endswith("_s") for s in ("parent", "change") for k in out[s])
    assert out["equal"] == {name: name != "homological.solve_calls" for name in TRACED}


def test_run_seconds_default_to_the_benchmarks(monkeypatch, tmp_path):
    # every run, paired and traced, lasts BENCHMARK.json's run_seconds
    # unless --seconds says otherwise; here a copy of it sets 7
    spec = json.loads((ROOT / "BENCHMARK.json").read_text()) | {"run_seconds": 7}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    result = json.loads(TRACED_LINES[0])
    result["metrics"] |= {m["name"]: {"value": 1.0} for m in spec["end_to_end"]}
    seconds = []

    def run_once(tree, workload, seed, secs, trace=0):
        seconds.append(secs)
        return result

    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: rev)
    monkeypatch.setattr(bench_pairs, "library_versions", lambda: {})
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "bench.json"
    args = ["--base", "a", "--head", "b", "--seed", "1", "--pairs", "2",
            "--workload", spec["workloads"][0]["name"], "--out", str(out)]
    assert bench_pairs.main(args) == 0
    assert seconds == [7.0] * 6
    assert json.loads(out.read_text())["method"]["command"].endswith("--seconds 7")
    seconds.clear()
    assert bench_pairs.main(args + ["--seconds", "0.5"]) == 0
    assert seconds == [0.5] * 6
