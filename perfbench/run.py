"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload lyapunov-deep --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the engine is imported from ``src/``.
With ``--trace 0`` the last line carries the end-to-end metrics:

- ``setup_s``: time from starting a fresh interpreter to its first timed
  operation (import, catalog builds, input files, warm-up). It is taken
  in SETUP_REPEATS separate processes and the median is reported; the
  last of those processes goes on to run the timed loop. Each set-up
  time is normalized by calibrations the started process takes itself,
  right after its set-up.
- ``op_p50_s``: median seconds of one operation.
- ``ops_per_s``: operations completed per second of the timed phase,
  which is the sum of the operation intervals.
- ``peak_rss_mb``: peak resident memory of the timed process.

Every time is reported in host-speed-normalized seconds: the measured
seconds times CAL_REF_S over the time of ``calibrate()``, a fixed piece
of interpreter work timed between operations. The shared host these
figures come from changes speed by up to 1.8x for tens of seconds at a
time; the engine's operations and the calibration slow down together,
so their ratio stays within a few percent where the raw times do not.
The raw median goes to standard error.

With ``--trace 1`` one process runs the same loop with every layer
wrapped by the span tracer, prints the per-layer metrics and writes the
spans to ``perfbench/out/``. The loop repeats whole rounds of the same
operations until ``--seconds`` of operation time have passed, then each
operation's first output goes through the reference checks.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 7
# calibrations each fresh process takes after its set-up; one calibration
# alone varies by about 20 % from call to call
SETUP_CALIBRATIONS = 9
SETUP_TIMEOUT_S = 60
RUN_TIMEOUT_S = 150
# calibrate() on the 2-vCPU Xeon host these figures come from, at its
# fast state: the 5th percentile of 1 500 runs (median 11.0 ms, fastest 6.2 ms)
CAL_REF_S = 0.0075
CAL_EVERY_S = 0.25


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("main", "setup", "run"), default="main",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


_CAL_TERMS = [(i, j, 0.1 * (i + 1) / (j + 2)) for i in range(5) for j in range(5 - i)]


def calibrate() -> float:
    """Seconds for a fixed piece of the interpreter work the engine does:
    Fraction arithmetic with dict updates, then float polynomial
    evaluation feeding small numpy arrays."""
    t0 = time.perf_counter()
    acc: dict = {}
    x = Fraction(1, 3)
    for i in range(1, 600):
        key = (i % 17, i % 13)
        acc[key] = acc.get(key, 0) + x * i
        x = x * Fraction(i % 7 + 1, i % 5 + 2) + 1
        if x.denominator > 10**30:
            x = Fraction(1, 3)
    state = np.zeros(3)
    for k in range(300):
        u = 0.1 + k * 1e-4
        total = 0.0
        for i, j, c in _CAL_TERMS:
            total += c * u**i * 0.2**j
        state = state + np.array((total, u, 0.2)) * 0.5
    return time.perf_counter() - t0


# -- parent: launches the measured processes ------------------------------------


def _spawn(args, role: str) -> tuple[float, dict | None]:
    """Start a fresh interpreter; return (normalized seconds to READY,
    final JSON or None). The seconds are scaled by the median of the
    calibrations the child takes right after READY: the parent's own
    calibration, taken in a process that slept through the previous
    child, varies by 50 % between spawns where the child's varies by 10 %."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--role", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        cal = proc.stdout.readline()
        rest, _ = proc.communicate(
            timeout=SETUP_TIMEOUT_S if role == "setup" else RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"perfbench: {role} process timed out")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "READY" or not cal.startswith("CAL ") or proc.returncode != 0:
        raise SystemExit(f"perfbench: {role} process failed (exit {proc.returncode})")
    lines = rest.strip().splitlines()
    return ready * CAL_REF_S / float(cal.split()[1]), json.loads(lines[-1]) if lines else None


def main_parent(args) -> int:
    if not (ROOT / "src" / "centerfocus" / "__init__.py").is_file():
        print(f"perfbench: no engine source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.trace:
        _, res = _spawn(args, "run")
        metrics = res["metrics"]
    else:
        setups = [_spawn(args, "setup")[0] for _ in range(SETUP_REPEATS - 1)]
        ready, res = _spawn(args, "run")
        setups.append(ready)
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "op_p50_s": {"value": statistics.median(res["times"]), "unit": "s"},
            "ops_per_s": {"value": len(res["times"]) / res["elapsed"], "unit": "1/s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0 if res["correct"] else 1


# -- child: set-up, timed loop, checks --------------------------------------------


@dataclass
class Loop:
    raw: list = field(default_factory=list)  # (measured seconds, completed)
    scale: list = field(default_factory=list)  # host-speed factor per op
    attempted: int = 0
    failed: int = 0
    first: dict = field(default_factory=dict)  # op index -> first output
    unstable: set = field(default_factory=set)  # labels whose output changed

    @property
    def times(self) -> list[float]:
        """Normalized seconds of the completed operations."""
        return [t * s for (t, ok), s in zip(self.raw, self.scale) if ok]

    @property
    def elapsed(self) -> float:
        """Normalized length of the timed phase: every operation's interval."""
        return sum(t * s for (t, _), s in zip(self.raw, self.scale))


def timed_loop(ops, seconds: float, tracer) -> Loop:
    """Whole rounds, ending at the round boundary nearest to `seconds` of
    measured operation time. A calibration runs whenever CAL_EVERY_S has
    passed since the last one, between operations; the operations in
    between get CAL_REF_S over the mean of the two calibrations around them."""
    loop = Loop()
    prints = {}
    measured, rounds = 0.0, 0
    cal_prev, cal_at = calibrate(), time.perf_counter()

    def close_interval():
        nonlocal cal_prev, cal_at
        cal_next = calibrate()
        factor = CAL_REF_S / (0.5 * (cal_prev + cal_next))
        loop.scale.extend([factor] * (len(loop.raw) - len(loop.scale)))
        cal_prev, cal_at = cal_next, time.perf_counter()

    while rounds == 0 or measured + 0.5 * measured / rounds < seconds:
        for k, op in enumerate(ops):
            if tracer is not None:
                tracer.op = loop.attempted
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # an engine failure is counted, not fatal
                t1 = time.perf_counter()
                loop.failed += 1
                loop.raw.append((t1 - t0, False))
                print(f"perfbench: {op.label} failed: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
            else:
                t1 = time.perf_counter()
                loop.raw.append((t1 - t0, True))
                if tracer is not None:
                    tracer.op = tracing.IDLE_OP
                fp = op.fingerprint(out)
                if k not in loop.first:
                    loop.first[k], prints[k] = out, fp
                elif prints[k] != fp:
                    loop.unstable.add(op.label)
            if tracer is not None:
                tracer.op = tracing.IDLE_OP
            measured += t1 - t0
            loop.attempted += 1
            if time.perf_counter() - cal_at >= CAL_EVERY_S:
                close_interval()
        rounds += 1
    if len(loop.scale) < len(loop.raw):
        close_interval()
    return loop


def verdict(ops, loop: Loop) -> bool:
    """True when every operation's first output passes its check and no
    output changed between rounds. An operation that never completed
    has no output to check, so it makes the run incorrect too."""
    correct = not loop.unstable
    for label in sorted(loop.unstable):
        print(f"perfbench: {label}: output changed between rounds", file=sys.stderr)
    for k, op in enumerate(ops):
        if k not in loop.first:
            correct = False
            print(f"perfbench: {op.label} never completed; its output is unchecked",
                  file=sys.stderr)
            continue
        try:
            op.check(loop.first[k])
        except Exception as exc:  # any check error means the output is wrong
            correct = False
            print(f"perfbench: check failed for {op.label}: {exc}", file=sys.stderr)
    return correct


def main_child(args) -> int:
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="inputs-", dir=OUT))
    try:
        cf = workloads.load_engine(ROOT / "src")
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracing.install(tracer, cf)
        ops = workloads.build(args.workload, cf, args.seed, workdir, tracer)
        print("READY", flush=True)
        cal = statistics.median(calibrate() for _ in range(SETUP_CALIBRATIONS))
        print(f"CAL {cal!r}", flush=True)
        if args.role == "setup":
            return 0
        loop = timed_loop(ops, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.restore()
        correct = verdict(ops, loop)
        raw = [t for t, ok in loop.raw if ok]
        print(f"perfbench: measured op_p50 {statistics.median(raw):.4f} s, "
              f"speed factor median {statistics.median(loop.scale):.3f}", file=sys.stderr)
        result = {"correct": correct, "attempted": loop.attempted, "failed": loop.failed}
        if tracer is None:
            result.update(times=loop.times, elapsed=loop.elapsed, peak_rss_mb=peak_rss_mb)
        else:
            scale = statistics.median(loop.scale)
            result["metrics"] = tracing.per_layer_metrics(tracer, loop.attempted, scale)
            write_trace(tracer, args, loop, scale)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def write_trace(tracer, args, loop: Loop, scale: float) -> None:
    """Spans as JSON lines plus a summary with self and inclusive times
    (measured seconds; `scale` converts them to normalized seconds)."""
    stem = OUT / f"trace-{args.workload}-seed{args.seed}"
    tracer.dump(stem.with_suffix(".jsonl"))
    ops = set(range(loop.attempted))
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "ops": loop.attempted,
        "speed_scale": scale,
        "traced_op_p50_s": statistics.median(loop.times) if loop.times else None,
        "inclusive_s": dict(sorted(tracer.inclusive(ops).items())),
        "self_s": dict(sorted(tracer.self_times(ops).items())),
        "calls": dict(sorted(tracer.calls(ops).items())),
    }
    stem.with_suffix(".summary.json").write_text(json.dumps(summary, indent=2))
    print(f"perfbench: traced op_p50_s = {summary['traced_op_p50_s']}", file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.role == "main":
        return main_parent(args)
    return main_child(args)


if __name__ == "__main__":
    sys.exit(main())
