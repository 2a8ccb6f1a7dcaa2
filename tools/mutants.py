"""Run hand-written source mutants against a test selection.

    python3 tools/mutants.py tools/mutants_inline.json --timeout 600 --out mutants.json

The mutant file is a JSON list of objects with the keys ``name``,
``file`` (relative to the repository root), ``old`` and ``new``: the
mutant replaces the one occurrence of ``old`` in ``file`` with ``new``.
An ``old`` that occurs other than once is an error, so a list goes stale
loudly when the source moves on.

The working tree's ``src/``, ``tests/`` and ``pyproject.toml`` are copied
into a temporary directory once. The unmutated copy runs the selection
first and must pass. Then each mutant is written into the copy, the
selection runs on it as

    python -m pytest -q -x -p no:cacheprovider SELECTION

with ``PYTHONPATH=src`` and no bytecode written, and the file is
restored. A mutant is killed when pytest fails, or when it runs longer
than ``--timeout`` seconds (its process group is then ended); it
survives when every selected test passes. Whether a survivor is
equivalent, a mutant no test could kill, is for the reader of its diff
to say.

The results (per mutant: name, outcome, seconds) are printed and, with
``--out``, written as JSON. This is an on-demand tool: a run of a dozen
mutants over the numeric tests takes minutes, so neither the tier-1
suite nor CI runs it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SELECTION = ("tests/test_numeric.py", "tests/test_cli_golden.py")


def load_mutants(path: Path) -> list[dict]:
    """The mutant list, each checked to name an existing file and to
    replace exactly one occurrence."""
    mutants = json.loads(path.read_text())
    names = [m["name"] for m in mutants]
    if len(set(names)) != len(names):
        raise SystemExit(f"{path}: mutant names repeat")
    for m in mutants:
        text = (ROOT / m["file"]).read_text()
        count = text.count(m["old"])
        if count != 1:
            raise SystemExit(f"{m['name']}: 'old' occurs {count} times in {m['file']}")
        if m["old"] == m["new"]:
            raise SystemExit(f"{m['name']}: 'new' is 'old'")
    return mutants


def run_selection(copy: Path, selection: list[str], timeout: float) -> tuple[str, float]:
    """('passed' | 'failed' | 'timeout', seconds) of one pytest run in copy."""
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *selection]
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return "timeout", time.perf_counter() - start
    return ("passed" if code == 0 else "failed"), time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mutants", type=Path, help="JSON list of mutants")
    parser.add_argument("--timeout", type=float, default=600.0, help="seconds per mutant")
    parser.add_argument("--out", type=Path, help="write the results here as JSON")
    parser.add_argument(
        "--tests", nargs="+", default=list(DEFAULT_SELECTION),
        help="pytest selection, relative to the repository root",
    )
    args = parser.parse_args(argv)
    mutants = load_mutants(args.mutants)

    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy / "pyproject.toml")

        outcome, seconds = run_selection(copy, args.tests, args.timeout)
        print(f"unmutated: {outcome} in {seconds:.0f} s", flush=True)
        if outcome != "passed":
            print("the unmutated copy must pass the selection", file=sys.stderr)
            return 2

        results = []
        for m in mutants:
            target = copy / m["file"]
            original = target.read_text()
            target.write_text(original.replace(m["old"], m["new"]))
            try:
                outcome, seconds = run_selection(copy, args.tests, args.timeout)
            finally:
                target.write_text(original)
            killed = outcome != "passed"
            results.append({"name": m["name"], "outcome": outcome, "killed": killed,
                            "seconds": round(seconds, 1)})
            print(f"{m['name']}: {'killed' if killed else 'SURVIVED'} ({outcome}, "
                  f"{seconds:.0f} s)", flush=True)

    survivors = [r["name"] for r in results if not r["killed"]]
    print(f"killed {len(results) - len(survivors)} of {len(results)}; "
          f"survived: {', '.join(survivors) or 'none'}")
    if args.out:
        args.out.write_text(json.dumps({"selection": args.tests, "results": results}, indent=1)
                            + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
