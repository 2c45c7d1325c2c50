"""Benchmark for ci-engine: one workload, one seed, one process.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {axioms,nogo,cli} --seed N \
        --seconds S --trace {0,1}

The engine is imported from ``src/`` of the checkout this file sits in.
A run builds the workload's seeded inputs, then runs whole rounds (the
same ordered list of operations each time) until ``--seconds`` have
passed, checks every output, and prints one JSON object as its last line.

``--trace 0`` reports the end-to-end metrics: ``ops_per_s``, ``p50_ms``,
``setup_s`` (median over fresh processes that only set up) and
``peak_rss_mb``; the two operation timings are scaled to a nominal machine
speed measured by a gauge (below), and the unscaled ones go to stderr.  ``--trace 1`` alternates untraced and traced rounds and
reports per-round layer figures from the traced ones, plus the tracing
overhead against the untraced ones; it also writes every span to
``perfbench/out/``.  See README.md in this directory.
"""

import argparse
import os
import sys

# One BLAS thread: the engine's float paths are tiny, and extra threads
# only add noise on a small machine.  Must be set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import math
import resource
import shutil
import statistics
import subprocess
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
PROBES = 5

# Speed gauge.  The CPU of a shared machine can run the engine's
# Fraction-heavy code at half speed for tens of seconds at a time, which no
# run length averages away.  So a fixed pure-Python Fraction loop (the
# gauge) is timed at least every GAUGE_EVERY_S seconds between operations,
# and each operation's time is scaled by GAUGE_NOMINAL_S over the median of
# the last GAUGE_WINDOW gauge timings: the reported times are those of a
# machine on which the gauge takes GAUGE_NOMINAL_S.
GAUGE_ITERATIONS = 1800
GAUGE_NOMINAL_S = 0.010
GAUGE_EVERY_S = 0.2
GAUGE_WINDOW = 5


def _gauge():
    s = Fraction(0)
    for i in range(1, GAUGE_ITERATIONS):
        s += Fraction(1, i % 97 + 1) * Fraction(i % 13, 7)
    return s


def _import_engine():
    src = ROOT / "src"
    if not (src / "ci_engine" / "__init__.py").is_file():
        raise SystemExit(f"error: no engine sources at {src / 'ci_engine'}")
    sys.path.insert(0, str(src))
    import ci_engine

    if Path(ci_engine.__file__).resolve().parent != (src / "ci_engine").resolve():
        raise SystemExit(f"error: imported ci_engine from {ci_engine.__file__}")


def _setup(workload, seed, workdir):
    """Everything before the first timed operation."""
    _import_engine()
    import workloads

    workdir.mkdir(parents=True, exist_ok=True)
    return workloads.WORKLOADS[workload](seed, ROOT, workdir)


def _probe_setup_seconds(workload, seed):
    """Median set-up time of fresh processes, from spawn to ready.

    ``time.perf_counter`` reads CLOCK_MONOTONIC on Linux, which is shared
    between processes, so the child's ready time and the parent's spawn
    time are on one clock.
    """
    times = []
    for _ in range(PROBES):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=False, cwd=ROOT,
        )
        if done.returncode != 0:
            raise SystemExit(f"error: set-up probe failed: {done.stderr.strip()}")
        times.append(float(done.stdout.split()[-1]) - start)
    return statistics.median(times)


def _run_rounds(wl, seconds, tracer):
    """Whole rounds, as many as end nearest to ``seconds`` (two at least
    when tracing, so both kinds of round are seen)."""
    from workloads import CheckFailed

    untraced = []  # per-op durations in untraced rounds, raw and scaled
    scaled = []
    gauge = []
    gauge_end = -math.inf
    round_times = {False: [], True: []}
    by_kind = {}  # untraced operation time per kind, for the round make-up
    failed = attempted = 0
    start = time.perf_counter()
    rounds = 0
    last = 0.0
    while rounds < (2 if tracer else 1) or time.perf_counter() - start + last / 2 < seconds:
        round_start = time.perf_counter()
        trace_this = tracer is not None and rounds % 2 == 1
        if tracer is not None:
            tracer.active = trace_this
        round_total = 0.0
        for op in wl.ops:
            attempted += 1
            if time.perf_counter() - gauge_end >= GAUGE_EVERY_S:
                g0 = time.perf_counter()
                _gauge()
                gauge_end = time.perf_counter()
                gauge.append(gauge_end - g0)
            t0 = time.perf_counter()
            try:
                result = tracer.run_op(op.run) if trace_this else op.run()
            except Exception as exc:  # an engine error is a failed operation
                failed += 1
                print(f"FAILED {op.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            t1 = time.perf_counter()
            round_total += t1 - t0
            if not trace_this:
                untraced.append(t1 - t0)
                scaled.append((t1 - t0) * GAUGE_NOMINAL_S / statistics.median(gauge[-GAUGE_WINDOW:]))
                kind = op.name.split()[0]
                by_kind[kind] = by_kind.get(kind, 0.0) + t1 - t0
            if tracer is not None:
                tracer.active = False
            try:
                op.check(result)
            except CheckFailed as exc:
                failed += 1
                print(f"FAILED check {op.name}: {exc}", file=sys.stderr)
            if tracer is not None:
                tracer.active = trace_this
        round_times[trace_this].append(round_total)
        rounds += 1
        last = time.perf_counter() - round_start
    if tracer is not None:
        tracer.active = False
    total = sum(by_kind.values())
    wl.notes["time_share"] = {k: round(v / total, 3) for k, v in by_kind.items()}
    if not untraced:
        raise SystemExit("error: every operation failed")
    return untraced, scaled, gauge, round_times, attempted, failed, rounds


def _final_checks(wl):
    ok = True
    for name, check in wl.final_checks:
        try:
            check()
        except Exception as exc:
            ok = False
            print(f"FAILED final check {name}: {type(exc).__name__}: {exc}", file=sys.stderr)
    return ok


def _layer_metrics(tracer, round_times, gauge):
    """Per-round self times (ms) and counts from the traced rounds."""
    self_ns = tracer.self_times_ns()
    per = len(round_times[True])

    def ms(name):
        return {"value": self_ns[name] / per / 1e6, "unit": "ms"}

    def count(total):
        value = total / per
        return {"value": int(value) if value == int(value) else value, "unit": "count"}

    calls, sums, maxes = tracer.calls, tracer.count_sum, tracer.count_max
    overhead = (
        statistics.median(round_times[True]) / statistics.median(round_times[False]) - 1
    ) * 100
    return {
        "tensornet.contract_ms": ms("tensornet.contract"),
        "tensornet.contract_calls": count(calls["tensornet.contract"]),
        "tensornet.max_result_cells": {"value": maxes["tensornet.contract"], "unit": "count"},
        "fstheory.generator_tensor_ms": ms("fstheory.generator_tensor"),
        "fstheory.denote_ms": ms("fstheory.denote"),
        "fstheory.denote_calls": count(calls["fstheory.denote"]),
        "substoch.map_build_ms": ms("substoch.map_build"),
        "substoch.maps_built": count(calls["substoch.map_build"]),
        "exactlp.lp_ms": ms("exactlp.lp"),
        "exactlp.lp_calls": count(calls["exactlp.lp"]),
        "exactlp.lp_cells": count(sums["exactlp.lp"]),
        "exactlp.vertices_ms": ms("exactlp.vertices"),
        "exactlp.vertex_count": count(sums["exactlp.vertices"]),
        "exactlp.rays_ms": ms("exactlp.rays"),
        "exactlp.ray_count": count(sums["exactlp.rays"]),
        "nogo.local_vertices_ms": ms("nogo.local_vertices"),
        "nogo.deterministic_tables": count(sums["nogo.local_vertices"]),
        "nogo.rationalize_ms": ms("nogo.rationalize"),
        "nogo.membership_self_ms": ms("nogo.membership"),
        "nogo.embed_self_ms": ms("nogo.embed"),
        "optheory.predict_ms": ms("optheory.predict"),
        "fileformat.parse_ms": ms("fileformat.parse"),
        "fileformat.parse_bytes": count(sums["fileformat.parse"]),
        "fileformat.dump_ms": ms("fileformat.dump"),
        "fileformat.dump_bytes": count(sums["fileformat.dump"]),
        "cli.self_ms": ms("cli.run"),
        "engine.other_ms": ms("engine.other"),
        "bench.unattributed_ms": ms("bench.op"),
        "trace.overhead_pct": {"value": overhead, "unit": "%"},
        "gauge.median_ms": {"value": statistics.median(gauge) * 1000, "unit": "ms"},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("axioms", "nogo", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    workdir = OUT / f"inputs-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        wl = _setup(args.workload, args.seed, workdir)
        if args.probe:
            print(repr(time.perf_counter()))
            return 0
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        untraced, scaled, gauge, round_times, attempted, failed, rounds = _run_rounds(
            wl, args.seconds, tracer
        )
        if tracer is not None:
            tracer.uninstall()
        correct = _final_checks(wl)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(
        f"{args.workload} seed={args.seed}: {rounds} rounds of {len(wl.ops)} ops, "
        f"{failed} failed, notes={wl.notes}",
        file=sys.stderr,
    )
    raw = {
        "ops_per_s": len(untraced) / sum(untraced),
        "p50_ms": statistics.median(untraced) * 1000,
        "gauge_median_ms": statistics.median(gauge) * 1000,
    }
    if tracer is None:
        metrics = {
            "ops_per_s": {"value": len(scaled) / sum(scaled), "unit": "1/s"},
            "p50_ms": {"value": statistics.median(scaled) * 1000, "unit": "ms"},
            "setup_s": {"value": _probe_setup_seconds(args.workload, args.seed), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
    else:
        metrics = _layer_metrics(tracer, round_times, gauge)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.tsv")
    print(f"unscaled: {raw}", file=sys.stderr)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({**result, "unscaled": raw}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
