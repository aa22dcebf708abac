"""practica benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from anywhere; the checkout is the directory above this file, and
`practica` is imported from its `src`.  Workloads: meanprops, certify,
roots, cli (see perfbench/README.md).

`--trace 0` prints the end-to-end metrics.  `setup_s` is the median time
of several fresh interpreters that import practica and build the
workload's first block of inputs; the other metrics come from one worker
process that runs the workload as a closed loop with one client.  Every
time is a wall time scaled to a reference machine speed (`speed.py`), so
that other tenants of a shared host move the figures less; the unscaled
figures go to stderr.

`--trace 1` runs the workload twice, for half the time each, untraced and
then with every public function of every practica module wrapped, and
prints the per-layer metrics of the traced run plus the tracing overhead.

Progress and a per-layer failure tally go to stderr; the last line of
stdout is one JSON object with keys correct, attempted, failed and
metrics.  An op that raises the library's documented numerical-failure
errors (CLI exit 3) is attempted but not solved; one that returns a wrong
answer or crashes otherwise is failed, and makes `correct` false.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import speed
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "solved_frac": "frac",
    "peak_rss_mib": "MiB",
}
#: Fresh interpreters timed per run for setup_s.
SETUP_REPEATS = 11
#: At least ten latency samples beyond p90.
MIN_OPS = 100
#: Every run, traced or not, ends well inside 180 seconds.
DEADLINE_S = 170


class BenchError(RuntimeError):
    pass


def _spawn(args: list[str], deadline: float) -> str:
    """Run the worker to completion in its own session; kill the session on
    timeout so no process outlives the run.  Waiting on the stdout pipe
    returns at the worker's exit, where a timed wait would poll."""
    with subprocess.Popen(
        [sys.executable, str(WORKER), *args], stdout=subprocess.PIPE, start_new_session=True,
    ) as proc:
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"worker {' '.join(args)} ran past the deadline")
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return out.decode()


def _measure(workload: str, seed: int, seconds: float, min_ops: int, deadline: float,
             *flags: str) -> dict:
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--min-ops", str(min_ops), *flags]
    return json.loads(_spawn(args, deadline).splitlines()[-1])


def _setup_seconds(workload: str, seed: int, repeats: int, deadline: float) -> tuple[float, float]:
    """Median scaled and median wall seconds of ``repeats`` fresh set-ups."""
    args = ["--workload", workload, "--seed", str(seed), "--setup-only"]
    times = [t[1:] for t in speed.timed_each(partial(_spawn, args, deadline) for _ in range(repeats))]
    return statistics.median(t[1] for t in times), statistics.median(t[0] for t in times)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 min_ops: int = MIN_OPS, setup_repeats: int = SETUP_REPEATS) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    if not trace:
        r = _measure(workload, seed, seconds, min_ops, deadline)
        setup_s, r["wall"]["setup_s"] = _setup_seconds(workload, seed, setup_repeats, deadline)
        values = {name: r[name] for name in END_TO_END_UNITS if name != "setup_s"}
        values["setup_s"] = setup_s
        units = END_TO_END_UNITS
        phases = [r]
    else:
        import tracing

        # Two phases of half the run each: the per-layer metrics need no p90,
        # and a traced run then takes about as long as an untraced one.
        half = (seconds / 2, (min_ops + 1) // 2, deadline)
        untraced = _measure(workload, seed, *half, "--cli-replay")
        r = _measure(workload, seed, *half, "--trace")
        values = dict(r["layers"])
        # In-process cli timings come from the untraced worker, so that they
        # hold no tracing overhead.
        values["cli.main_s"] = untraced.get("cli_main_s", 0.0)
        values["cli.process_overhead_s"] = untraced.get("cli_process_overhead_s", 0.0)
        values["trace.ops_per_s_delta"] = r["ops_per_s"] - untraced["ops_per_s"]
        units = tracing.LAYER_UNITS
        phases = [untraced, r]
    _report(workload, r, values, units)
    failed = sum(p["failed"] for p in phases)
    return {
        "correct": failed == 0,
        "attempted": sum(p["attempted"] for p in phases),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def _report(workload: str, r: dict, values: dict, units: dict) -> None:
    err = sys.stderr
    print(f"== {workload}: {r['attempted']} ops (latency samples), statuses {r['statuses']}",
          file=err)
    print("   unscaled wall times: " + ", ".join(
        f"{name} {value:.6g}" for name, value in sorted(r["wall"].items())), file=err)
    for key, rec in sorted(r["tally"].items()):
        unsolved = rec["attempted"] - rec["solved"]
        print(f"   {key:40s} {unsolved:5d} of {rec['attempted']:6d} not solved", file=err)
    for what, reason in sorted(r["first_reason"].items()):
        print(f"   first {what}: {reason}", file=err)
    for name, unit in units.items():
        print(f"   {name:45s} {values[name]:.6g} {unit}", file=err)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="short end-to-end check of every workload, oracle and metric name")
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")

    if not (SRC / "practica" / "__init__.py").is_file():
        print(f"run.py: no practica sources under {SRC}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(str(SRC / "practica"), quiet=1):
        print("run.py: practica failed to byte-compile", file=sys.stderr)
        return 2
    if args.smoke:
        import smoke

        return smoke.main(run_workload)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            print(json.dumps(run_workload(name, args.seed, args.seconds, bool(args.trace))),
                  flush=True)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
