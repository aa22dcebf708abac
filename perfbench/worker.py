"""One measured phase of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N --seconds S [--min-ops K] [--trace | --cli-replay]
    python3 perfbench/worker.py --workload W --seed N --setup-only

The worker imports `practica` from the checkout's `src`, builds the
workload's first block of inputs and, unless `--setup-only`, runs ops one
at a time (a closed loop with one client) until at least S seconds of op
wall time and K ops have passed, always finishing the current block.  Only
the library calls of an op are timed, and each time is scaled to the
reference machine speed (`speed.py`); every result is then judged by its
oracle.  The last line of stdout is a JSON summary for `run.py`.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import traceback
from functools import partial
from pathlib import Path

import speed
import workloads
from workloads import CRASHED, SOLVED, UNSOLVED, WRONG, Refused

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench_out"
_SEVERITY = {SOLVED: 0, UNSOLVED: 1, WRONG: 2, CRASHED: 3}


def run_parts(parts) -> list[tuple[object, BaseException | None]]:
    out = []
    for part in parts:
        try:
            out.append((part.call(), None))
        except Exception as exc:  # judged after the timed region, never fatal
            out.append((None, exc))
    return out


def classify(workload, part, value, exc) -> tuple[str, str | None]:
    if exc is not None:
        status = UNSOLVED if isinstance(exc, workload.numerical_errors) else CRASHED
        return status, "".join(traceback.format_exception_only(exc)).strip()
    try:
        reason = part.check(value)
    except Refused as refusal:
        return UNSOLVED, str(refusal)
    except Exception as err:  # a result the oracle cannot even read is a wrong result
        return WRONG, f"oracle could not read the result: {err!r}"
    return (SOLVED, None) if reason is None else (WRONG, reason)


def measure(workload, block, seconds: float, min_ops: int, tracer, cli_replay: bool) -> dict:
    run_op = run_parts if tracer is None else tracer.wrap(f"bench.{workload.name}.op", run_parts)
    latencies: list[float] = []
    walls: list[float] = []
    statuses = dict.fromkeys(_SEVERITY, 0)
    tally: dict[str, dict[str, int]] = {}
    first_reason: dict[str, str] = {}
    cli_pairs: list[tuple[float, float]] = []
    child_rss_kib = 0
    busy = wall_busy = 0.0

    def call(op):
        if tracer is not None:
            tracer.begin_op()
        return op, run_op(op.parts)

    while True:
        # No zip here: its reused result tuple would keep the last op's
        # results alive while the next ops run.
        for (op, results), wall, dt in speed.timed_each(partial(call, op) for op in block):
            busy += dt
            wall_busy += wall
            latencies.append(dt)
            walls.append(wall)
            op_status = SOLVED
            for part, (value, exc) in zip(op.parts, results):
                status, reason = classify(workload, part, value, exc)
                rec = tally.setdefault(part.key, {"attempted": 0, "solved": 0})
                rec["attempted"] += 1
                rec["solved"] += status == SOLVED
                if reason is not None:
                    first_reason.setdefault(f"{part.key} {status}", reason)
                if _SEVERITY[status] > _SEVERITY[op_status]:
                    op_status = status
                if isinstance(value, workloads.CliRun):
                    child_rss_kib = max(child_rss_kib, value.maxrss_kib)
            statuses[op_status] += 1
            results = value = None  # drop big results before the next op runs
            if cli_replay and op.argv is not None:
                replay = partial(workloads.run_cli_in_process, workload.mods.cli, op.argv)
                cli_pairs.append((dt, next(speed.timed_each([replay]))[2]))
        # Stopping on wall time bounds a run's length on a slow machine.
        if wall_busy >= seconds and len(latencies) >= min_ops:
            break
        block = workload.block()

    ops = len(latencies)
    rss_kib = child_rss_kib or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "attempted": ops,
        "failed": statuses[WRONG] + statuses[CRASHED],
        "statuses": statuses,
        "busy_s": busy,
        **timing_metrics(latencies, busy),
        "solved_frac": statuses[SOLVED] / ops,
        "peak_rss_mib": rss_kib / 1024,
        "wall": timing_metrics(walls, wall_busy),
        "tally": tally,
        "first_reason": first_reason,
    }
    if cli_pairs:
        result["cli_main_s"] = statistics.median(inproc for _, inproc in cli_pairs)
        result["cli_process_overhead_s"] = statistics.median(lat - inproc for lat, inproc in cli_pairs)
    if tracer is not None:
        import tracing

        result["layers"] = tracing.layer_metrics(tracer, ops, tally)
        tracer.dump(TRACE_DIR, f"spans-{workload.name}")
    return result


def timing_metrics(latencies: list[float], busy: float) -> dict[str, float]:
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8] if len(latencies) > 1 else latencies[0]
    return {
        "ops_per_s": len(latencies) / busy,
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": p90 * 1e3,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--min-ops", type=int, default=1)
    ap.add_argument("--trace", action="store_true", help="record spans (implies --cli-replay)")
    ap.add_argument("--cli-replay", action="store_true",
                    help="cli only: after each op, time practica.cli.main on its argv in-process")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import practica

    if Path(practica.__file__).resolve().parent != (SRC / "practica").resolve():
        print(f"worker: imported practica from {practica.__file__}, not {SRC}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    workload = workloads.build(args.workload, args.seed, str(SRC))
    block = workload.block()
    if args.setup_only:
        return 0
    result = measure(workload, block, args.seconds, args.min_ops, tracer,
                     args.cli_replay or args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
