"""Byte-for-byte replay of the CLI against stored output.

`tests/data/cli_golden.json` holds the exit code, stdout and stderr of
every invocation in CASES as the engine printed them at commit 118bc59,
before the command handlers shared one report-and-print path;
``classify-stalled`` and ``classify-straddle`` were taken at commit
0c8dca5, before ``numeric_classify`` integrated its grid in one batch,
when every grid point still had its own return map;
``classify-bautin-iv`` was taken at commit 500d549. The input
documents live in `tests/data/cli/`; each case runs in a copy of that
directory so the relative paths echoed into the reports stay the same.
The stored bytes are the reference: when a case differs, the CLI changed.
"""

import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import centerfocus
from centerfocus.cli import main

DATA = Path(__file__).parent / "data"
TWO_PI = "6.283185307179586"
# the step loop's sums are BLAS dot products, whose last bits depend on
# the kernel OpenBLAS picks for the CPU
KERNEL_NOTE = (
    "the numeric goldens were recorded on OpenBLAS's SkylakeX kernel; on another "
    "kernel (Haswell, which AMD Zen CPUs load too) the last digits of returnmap, "
    "period, orbit and classify move (see the BLAS note in README.md; "
    "tools/bench_pairs.py's blas_kernel() names the kernel loaded here)"
)

CASES = {
    "analyze-one": ["analyze", "--input", "radial.json", "--order", "6"],
    "analyze-two": ["analyze", "--input", "radial.json", "quad.json", "--order", "4"],
    "classify-consistent": ["classify", "--input", "loud1.json"],
    "classify-disagree": ["classify", "--input", "tiny.json"],
    "classify-obstructed": ["classify", "--input", "obstructed.json"],
    "classify-two": ["classify", "--input", "bautin.json", "radial.json", "--c", "0.05,0.1"],
    # two ends that the batched grid integration hands to one return map
    # per point: theta' vanishing on the orbit through 0.6, and a limit
    # cycle at r = 1/2 between the two section points
    "classify-stalled": ["classify", "--input", "stalled.json", "--c", "0.05,0.6"],
    "classify-straddle": ["classify", "--input", "straddle.json", "--c", "0.2,0.8"],
    # a Bautin quadratic with lam2 != 0, on case (iv)
    "classify-bautin-iv": ["classify", "--input", "bautin_iv.json"],
    "inverse-ham": ["inverse", "--spec", "ham.json", "--check-order", "8"],
    "inverse-m3": ["inverse", "--spec", "spec3.json", "--check-order", "6"],
    "darboux-plain": ["darboux", "--input", "uniso.json", "--curve", "line.json"],
    "darboux-lambda": [
        "darboux", "--input", "uniso.json", "--curve", "line.json", "--lambda", "2/3",
    ],
    "darboux-not-invariant": ["darboux", "--input", "radial.json", "--curve", "xline.json"],
    "returnmap": ["returnmap", "--input", "radial.json", "--c", "0.05,0.1"],
    "period": ["period", "--input", "iso.json", "--c", "0.05,0.1"],
    "orbit": [
        "orbit", "--input", "linear.json", "--x0", "1", "--y0", "0",
        "--t", TWO_PI, "--out", "orbit.csv",
    ],
    "catalog-list": ["catalog", "list"],
    "catalog-get-bautin": ["catalog", "get", "bautin", "--param", "lam5=1/2"],
    "catalog-get-loud2": ["catalog", "get", "loud2"],
    "catalog-get-quartic-ttt": ["catalog", "get", "quartic_ttt"],
    "catalog-get-unknown": ["catalog", "get", "lorenz"],
    "analyze-parse-error": ["analyze", "--input", "bad.json", "--order", "4"],
    "analyze-over-cap": ["analyze", "--input", "radial.json", "--order", "30"],
    "darboux-lambda-zero": [
        "darboux", "--input", "radial.json", "--curve", "line.json", "--lambda", "0",
    ],
}
# every command that takes --json is replayed in both modes
JSON_CASES = {
    f"{name}--json": argv + ["--json"]
    for name, argv in CASES.items()
    if argv[:2] != ["catalog", "get"]
}
ALL_CASES = {**CASES, **JSON_CASES}
NUMERIC_COMMANDS = ("classify", "returnmap", "period", "orbit")


def run_case(argv, capsys) -> dict:
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return {"exit": code, "stdout": captured.out, "stderr": captured.err}


def load_golden() -> dict:
    return json.loads((DATA / "cli_golden.json").read_text(encoding="utf-8"))


def enter_replay_dir(tmp_path, monkeypatch) -> None:
    """Run from a copy of tests/data/cli under the default degree cap."""
    monkeypatch.delenv("CF_MAX_DEGREE", raising=False)
    for src in (DATA / "cli").iterdir():
        shutil.copy(src, tmp_path / src.name)
    monkeypatch.chdir(tmp_path)


@pytest.fixture(scope="module")
def golden():
    return load_golden()


def test_golden_covers_every_case(golden):
    assert set(golden) == set(ALL_CASES)


@pytest.mark.parametrize("name", sorted(ALL_CASES))
def test_cli_bytes_match_golden(name, golden, tmp_path, monkeypatch, capsys):
    enter_replay_dir(tmp_path, monkeypatch)
    got = run_case(ALL_CASES[name], capsys)
    want = golden[name]
    assert got["exit"] == want["exit"], KERNEL_NOTE
    assert got["stdout"] == want["stdout"], KERNEL_NOTE
    assert got["stderr"] == want["stderr"], KERNEL_NOTE


def test_numeric_cases_replay_without_scipy_step_loops(golden, tmp_path, monkeypatch, capsys):
    """Every float integration runs on numeric.py's own step loop: with
    SciPy's solve_ivp and every SciPy solver's step raising, the numeric
    commands still print their stored bytes."""
    import scipy.integrate

    def refuse(*args, **kwargs):
        raise AssertionError("SciPy's step loop was called")

    monkeypatch.setattr(scipy.integrate, "solve_ivp", refuse)
    monkeypatch.setattr(scipy.integrate.OdeSolver, "step", refuse)
    enter_replay_dir(tmp_path, monkeypatch)
    names = [n for n, argv in sorted(ALL_CASES.items()) if argv[0] in NUMERIC_COMMANDS]
    assert len(names) == 20
    for name in names:
        assert run_case(ALL_CASES[name], capsys) == golden[name], name


def test_numeric_cases_replay_with_scipy_unimportable(golden, tmp_path):
    """The numeric commands print their stored bytes in an interpreter
    where importing SciPy fails."""
    script = textwrap.dedent("""
        import contextlib, io, json, sys
        sys.modules["scipy"] = None
        from centerfocus.cli import main
        out = {}
        for name, argv in json.loads(sys.argv[1]).items():
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
            out[name] = {"exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
        print(json.dumps(out))
    """)
    for src in (DATA / "cli").iterdir():
        shutil.copy(src, tmp_path / src.name)
    cases = {n: argv for n, argv in sorted(ALL_CASES.items()) if argv[0] in NUMERIC_COMMANDS}
    env = {k: v for k, v in os.environ.items() if k != "CF_MAX_DEGREE"}
    env["PYTHONPATH"] = str(Path(centerfocus.__file__).resolve().parents[1])
    flags = ["-O"] * sys.flags.optimize
    out = subprocess.run(
        [sys.executable, *flags, "-c", script, json.dumps(cases)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    got = json.loads(out.stdout)
    assert len(got) == 20
    assert got == {name: golden[name] for name in cases}
