"""Layered benchmark for planebundles.

    python3 perfbench/run.py --workload {queries,verify,cli,bulk} --seed N \
        --seconds S --trace {0,1} [--out results.jsonl]

Run from the root of a checkout; the package is imported from ./src and
never installed.  The seed makes every input; the package receives only
the generated inputs.  Every output is checked against expect.py, which
derives its values from the integers and does not import the package.

--trace 0 measures for S seconds of timed rounds (checks run outside the
timed region) and reports the end-to-end metrics:

  setup_s           median wall time of `python -c "import planebundles"`
                    over several fresh interpreters (bytecode cached)
  throughput_ops_s  operations per timed second (queries: library calls,
                    verify: pairs of pairs checked, cli/bulk: requests)
  latency_p50_ms    median latency of one request (verify: one sweep call)
  latency_p90_ms    90th percentile of the same samples
  wall_s            median wall time of one round, the fixed unit of work
  peak_rss_mb       peak resident memory of the process doing the work,
                    read after the first round and before any check
                    (cli: the largest request process)

Every end-to-end time is given at reference speed: it is multiplied by
measure.speed_factor(), taken from a fixed pure-Python loop that runs right
after the timed request (after the round on queries) and never inside the
timed region.  Shared hosts change speed by up to 1.8x within minutes, and
the raw times follow; the record keeps raw_throughput_ops_s and raw_wall_s.

--trace 1 runs a fixed number of rounds untraced and then traced, and
reports per module function its calls and self time (span time minus the
time of its child spans), the CLI layers, and the tracing overhead as the
difference between the two passes, all as raw times.  Spans go to
perfbench/out/.

The last stdout line is {"correct", "attempted", "failed", "metrics"}.
`failed` counts refusals (the package's own errors, nonzero exits), crashes
and wrong outputs; `correct` is false after a crash or a wrong output.  The
line before it is the full record: every metric (latency_p99_ms and the
failed_ratio too), sample counts, the output digest of the first round,
failing requests, the environment and why the workload was chosen.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import sys
import time
from pathlib import Path

import measure
import workloads
from workloads import Check

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_SPAWNS = 15
LAYER_SPAWNS = 5
MAX_FAILURES_LISTED = 20


class BenchError(Exception):
    pass


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PLANEBUNDLES_WIDTH")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def import_package():
    """Import planebundles from ./src of this checkout, and nowhere else."""
    src = ROOT / "src"
    if not (src / "planebundles" / "__init__.py").is_file():
        raise BenchError(f"no package source under {src}")
    sys.path.insert(0, str(src))
    import planebundles
    import planebundles.cli  # noqa: F401  (bound in sys.modules for the CLI workloads)
    import planebundles.oracles  # noqa: F401

    if Path(planebundles.__file__).resolve().parent != (src / "planebundles").resolve():
        raise BenchError(f"imported planebundles from {planebundles.__file__}, not {src}")
    return planebundles


def median_spawn(code, env, n, scale=False):
    """Median time of n fresh interpreters running `code`, after one warm-up.

    With `scale`, each spawn's wall time is taken at reference speed.
    """
    argv = [sys.executable, "-c", code]
    times = []
    for i in range(n + 1):
        wall, rc, _, err = measure.spawn(argv, env)
        if rc != 0:
            raise BenchError(f"{code!r} exited {rc}: {err.decode().strip()}")
        if i:
            times.append(wall * measure.speed_factor() if scale else wall)
    return statistics.median(times)


class Tally:
    """Counts, failures and the first-round digest of one pass."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = self.failed = self.wrong = self.stdout_bytes = 0
        self.failures = []
        self.digest = hashlib.sha256()

    def add_round(self, reqs, outs, first_round):
        for req, out in zip(reqs, outs):
            self.add(req, out, first_round)

    def add(self, req, out, first_round):
        wl = self.workload
        self.attempted += 1
        self.stdout_bytes += len(out.stdout.encode())
        status = out.raised or wl.check(req, out)
        if first_round:
            self.digest.update(f"raised {out.error}".encode() if out.raised
                               else wl.digest_bytes(req, out))
        if status == Check.OK:
            return
        self.failed += 1
        self.wrong += status == Check.WRONG
        if len(self.failures) < MAX_FAILURES_LISTED:
            self.failures.append({"request": wl.describe(req), "status": status,
                                  "exit": out.code, "error": out.error})


def execute(workload, req, errors):
    try:
        return workload.execute(req)
    except errors as exc:
        return workloads.Outcome(error=f"{type(exc).__name__}: {exc}", raised=Check.FAILED)
    except Exception as exc:  # a crash inside the package: counted, never fatal
        return workloads.Outcome(error=f"{type(exc).__name__}: {exc}", raised=Check.WRONG)


def run_round(workload, reqs, errors, samples=None, tracer=None, scale=False):
    """Execute one round back to back: (raw s, s at reference speed, outcomes).

    With `scale`, the reference loop runs after every request (after the
    round for workloads whose requests take microseconds) and each latency
    is multiplied by the speed factor measured right after it.  Only request
    time is counted, never the loop's own.  Scaled latencies go to `samples`.
    """
    outs, lat, factors = [], [], []
    clock = time.perf_counter_ns
    each = scale and workload.scale_each_request
    for req in reqs:
        if tracer is not None:
            tracer.request += 1
        t0 = clock()
        outs.append(execute(workload, req, errors))
        lat.append(clock() - t0)
        if each:
            factors.append(measure.speed_factor())
    if not each:
        factors = [measure.speed_factor() if scale else 1.0] * len(lat)
    scaled_ms = [ns * f / 1e6 for ns, f in zip(lat, factors)]
    if samples is not None:
        for ms in scaled_ms:
            samples.add(ms)
    return sum(lat) / 1e9, sum(scaled_ms) / 1e3, outs


def timed_run(workload, seed, seconds, errors):
    rng = random.Random(seed)
    samples = measure.Reservoir(seed=seed)
    tally = Tally(workload)
    raw_walls, walls, units, peak_rss = [], [], 0, None
    while sum(raw_walls) < seconds or not walls:
        reqs = workload.make_round(rng)
        raw, wall, outs = run_round(workload, reqs, errors, samples, scale=True)
        if peak_rss is None:
            # read before any output is checked, so the checks' own memory stays out
            peak_rss = (measure.self_peak_rss_mb() if workload.in_process
                        else measure.children_peak_rss_mb())
        tally.add_round(reqs, outs, not walls)
        raw_walls.append(raw)
        walls.append(wall)
        units += sum(workload.units(r) for r in reqs)
    lat = samples.values
    metrics = {
        "throughput_ops_s": (units / sum(walls), "1/s"),
        "latency_p50_ms": (measure.percentile(lat, 50), "ms"),
        "latency_p90_ms": (measure.percentile(lat, 90), "ms"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    extra = {
        "latency_p99_ms": (measure.percentile(lat, 99), "ms"),
        "failed_ratio": (tally.failed / tally.attempted, "ratio"),
        "raw_throughput_ops_s": (units / sum(raw_walls), "1/s"),
        "raw_wall_s": (statistics.median(raw_walls), "s"),
    }
    counts = {"rounds": len(walls), "latency_samples": samples.seen,
              "latency_kept": len(lat), "measured_s": sum(raw_walls)}
    return tally, metrics, extra, counts


def traced_run(workload, seed, errors, env):
    from tracer import Tracer

    rng = random.Random(seed)
    rounds = [workload.make_round(rng) for _ in range(workload.trace_rounds)]
    workload.in_process = True  # spans can only be taken inside this process
    plain, traced = Tally(workload), Tally(workload)
    untraced_s = traced_s = 0.0
    for i, reqs in enumerate(rounds):
        wall, _, outs = run_round(workload, reqs, errors)
        plain.add_round(reqs, outs, i == 0)
        untraced_s += wall
    tracer = Tracer()
    for i, reqs in enumerate(rounds):
        tracer.install()
        try:
            wall, _, outs = run_round(workload, reqs, errors, tracer=tracer)
        finally:
            tracer.uninstall()
        traced.add_round(reqs, outs, i == 0)
        traced_s += wall
    interpreter = median_spawn("pass", env, LAYER_SPAWNS)
    imported = median_spawn("import planebundles", env, LAYER_SPAWNS)
    metrics = tracer.metrics()
    metrics.update({
        "cli.interpreter_ms": (interpreter * 1e3, "ms"),
        "cli.import_ms": ((imported - interpreter) * 1e3, "ms"),
        "cli.stdout_bytes": (traced.stdout_bytes, "bytes"),
        "trace.spans": (tracer.span_count, "count"),
        "trace.untraced_ms": (untraced_s * 1e3, "ms"),
        "trace.overhead_ms": ((traced_s - untraced_s) * 1e3, "ms"),
    })
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload.name}-{seed}.tsv"
    tracer.dump(spans_path)
    if traced.digest.hexdigest() != plain.digest.hexdigest():
        raise BenchError("traced and untraced passes produced different outputs")
    counts = {"rounds": len(rounds), "spans_kept": len(tracer.spans),
              "spans_file": str(spans_path.relative_to(ROOT))}
    return traced, metrics, {}, counts


def main(argv=None):
    ap = argparse.ArgumentParser(description="planebundles benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="append the full record to this JSON-lines file")
    args = ap.parse_args(argv)
    started = time.perf_counter()
    try:
        package = import_package()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    os.environ.pop("PLANEBUNDLES_WIDTH", None)
    env = child_env()
    errors = (package.DomainError, package.ConsistencyError)
    workload = workloads.WORKLOADS[args.workload](env)
    try:
        if args.trace:
            tally, metrics, extra, counts = traced_run(workload, args.seed, errors, env)
        else:
            setup = median_spawn("import planebundles", env, SETUP_SPAWNS, scale=True)
            tally, metrics, extra, counts = timed_run(workload, args.seed, args.seconds, errors)
            metrics = {"setup_s": (setup, "s"), **metrics}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "why": workloads.WHY[args.workload],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**metrics, **extra}.items()},
        "attempted": tally.attempted, "failed": tally.failed, "wrong": tally.wrong,
        "failures": tally.failures, "digest": tally.digest.hexdigest(), **counts,
        "python": sys.version.split()[0], "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(), "elapsed_s": time.perf_counter() - started,
    }
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(f"digest {args.workload} {record['digest']}")
    print(json.dumps(record))
    print(json.dumps({
        "correct": tally.wrong == 0, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
