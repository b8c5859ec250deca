"""Run one benchmark workload and print its result as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve_cold --seed 1 --seconds 15 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` wraps the
layers' entry points and reports the per-layer metrics instead.  The
last line of standard output is the result; a readable summary goes to
standard error.  See README.md.
"""

import time

_STARTED = time.perf_counter()  # before any other import

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD_NAMES = ("serve_cold", "serve_repeat", "profile_sweep", "dse_campaign")


def process_age_s() -> float:
    """Seconds from this process's start until the first line of this
    module ran: the interpreter's own start-up, part of set-up time."""
    try:
        with open("/proc/self/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return max(0.0, time.clock_gettime(time.CLOCK_BOOTTIME) - started - (time.perf_counter() - _STARTED))
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description="LLMulator end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def join_threads(timeout_s: float = 10.0) -> list[str]:
    """Wait for every thread the run started; names of any still alive."""
    deadline = time.monotonic() + timeout_s
    for thread in threading.enumerate():
        if thread is not threading.current_thread():
            thread.join(max(0.0, deadline - time.monotonic()))
    return [t.name for t in threading.enumerate() if t is not threading.current_thread()]


def main(argv=None) -> int:
    args = parse_args(argv)
    pre_start = process_age_s()
    # The program runs as shipped: telemetry at its default.
    os.environ.pop("REPRO_TELEMETRY", None)
    sys.path.insert(0, ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import_start = time.perf_counter()
    from perfbench import corpus, workloads

    import_s = time.perf_counter() - import_start
    data = corpus.load()
    tracer = None
    if args.trace:
        from perfbench.layers import EXPECTED, LayerTracer

        tracer = LayerTracer()
        tracer.install()
    work_dir = os.path.join(ROOT, ".perfbench", f"run-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    ctx = workloads.Context(data, args.seed, args.seconds, work_dir, tracer)
    try:
        outcome = workloads.WORKLOADS[args.workload](ctx)
        check_s = time.perf_counter() - ctx.measured_at
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass  # another run's directory is still there
    lingering = join_threads()
    if lingering:
        outcome.failures.append(f"threads still alive after the run: {lingering}")

    attempted = sum(len(times) for times in outcome.op_ms)
    failed = sum(ms is None for times in outcome.op_ms for ms in times)
    summary = workloads.summarize(outcome)
    end_to_end = {
        "ops_per_s": (summary["ops_per_s"], "1/s"),
        "op_p50_ms": (summary["op_p50_ms"], "ms"),
        "op_p90_ms": (summary["op_p90_ms"], "ms"),
        "setup_s": (pre_start + (ctx.ready_at - _STARTED), "s"),
        "peak_rss_mb": (ctx.peak_rss_mb, "MB"),
    }
    metrics = end_to_end
    if args.trace:
        metrics = {
            "setup.import_s": (import_s, "s"),
            "setup.model_s": (ctx.setup["setup.model_s"], "s"),
            # profile_sweep and dse_campaign bind no server.
            "setup.server_s": (ctx.setup.get("setup.server_s", 0.0), "s"),
        }
        metrics.update(tracer.metrics(max(1, attempted - failed), args.workload))
        if ctx.engine_requests or args.workload not in EXPECTED["engine.result_hit_share"]:
            share = ctx.result_hits / ctx.engine_requests if ctx.engine_requests else 0.0
            metrics["engine.result_hit_share"] = (share, "share")
        else:
            tracer.absent.append("engine.result_hit_share")
    calibration = sorted(ctx.calibration_ms)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(outcome.op_ms),
        "operations_per_pass": len(outcome.op_ms[0]),
        "pass_s": [round(seconds, 2) for seconds in ctx.pass_s],
        "check_s": round(check_s, 2),
        "calibration_ms": {
            "fastest": round(calibration[0], 3),
            "median": round(statistics.median(calibration), 3),
        },
        "end_to_end": {name: round(value, 4) for name, (value, _) in end_to_end.items()},
        "per_layer": {name: round(value, 4) for name, (value, _) in metrics.items()} if args.trace else None,
        **outcome.notes,
    }
    report["result_cache"] = f"{ctx.result_hits} hits of {ctx.engine_requests} requests"
    if tracer is not None and tracer.missing:
        report["entry_points_missing"] = tracer.missing
    if tracer is not None and tracer.absent:
        report["per_layer_absent"] = tracer.absent
    for message in ctx.errors[:5] + outcome.failures[:20]:
        print(message, file=sys.stderr)
    print(json.dumps(report, indent=1), file=sys.stderr)
    result = {
        "correct": not outcome.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
