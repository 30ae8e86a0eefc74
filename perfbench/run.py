"""dumpwatch benchmark.

    python3 perfbench/run.py --workload {train,scene,vectorize} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout. The benchmark generates the workload's
inputs from the seed, then runs whole rounds of dumpwatch CLI stages, each
in a fresh child process, until S seconds have passed. It checks the
outputs and prints, as the last line of stdout, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, taken from
outside the program and scaled to the reference speed by the speed probe
that runs beside the stages (perfbench/probe.py). With ``--trace 1`` it
runs one untraced round and one traced round, in which each stage calls
``dumpwatch.cli.main`` under span tracing, and reports the per-layer
metrics and the tracing overhead.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import probe
import spans
import stages

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
# Set-up repeats until both counts are met; setup_s is the median.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
# The CLI's reference deterministic mode. On a 2-vCPU machine two BLAS
# threads made stage times swing more from round to round, since the idle
# BLAS thread spins on the second vCPU while the stage runs Python code.
THREADS = 1


class Call(NamedTuple):
    """One operation: a CLI stage invocation."""

    clean: bool  # False for the known-fault operation, kept out of metrics
    stage: stages.Stage
    log: Path
    spans: Path | None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("train", "scene", "vectorize"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def src_record() -> dict:
    files = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16], "src_lines": lines}


def _terminate(signum, frame):
    # unwind, so that the running stage is killed and waited for and the
    # working directory is removed
    sys.exit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (ROOT / "src" / "dumpwatch" / "cli.py").is_file():
        sys.stderr.write(f"no dumpwatch sources under {ROOT / 'src'}; run from the root of a checkout\n")
        return 2
    nproc = len(os.sched_getaffinity(0))
    # This process, its stages and the speed probe share one vCPU, so that
    # the probe times the vCPU the stages run on (see probe.py).
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    # this process runs set-up and checks in-process
    for var in ("DUMPWATCH_THREADS", *stages.BLAS_VARS):
        os.environ[var] = str(THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    if not compileall.compile_dir(str(ROOT / "src"), quiet=1):
        sys.stderr.write("byte-compiling src failed\n")
        return 2

    import numpy
    import scipy

    import checks
    import workloads

    env = stages.child_env(ROOT, THREADS)
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": nproc,
        "cpu": cpu,
        "DUMPWATCH_THREADS": THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **src_record(),
    }
    calls: list[Call] = []

    def runner(traced: bool):
        def run(stage: str, cli_args: list[str], clean: bool = True) -> stages.Stage:
            n = len(calls)
            log = work / "logs" / f"{n:04d}-{stage}.log"
            spans_file = work / "spans" / f"{n:04d}.json" if traced else None
            if traced:
                argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(spans_file), *cli_args]
            else:
                argv = [sys.executable, "-m", "dumpwatch.cli", *cli_args]
            result = stages.run(stage, argv, env, log)
            result.ref_s = result.wall_s * speed.scale(result.start, result.end)
            calls.append(Call(clean, result, log, spans_file))
            return result

        return run

    speed = probe.Probe(work / "probe.txt", dict(os.environ))
    try:
        speed.wait_ready()
        (work / "logs").mkdir()
        (work / "spans").mkdir()
        workload = workloads.WORKLOADS[args.workload](work / "data", args.seed)
        if args.trace:
            metrics, rounds = trace_run(workload, runner, calls, info)
        else:
            metrics, rounds = timed_run(workload, runner, speed, args.seconds, info)
        info["probe_pieces_s"] = speed.pieces_s(0.0, time.perf_counter())
        unexpected = [c for c in calls if c.clean and not c.stage.ok]
        for c in unexpected:
            sys.stderr.write(f"stage {c.stage.name} failed:\n{c.log.read_text()[-2000:]}\n")
        correct = not unexpected and rounds > 0
        if correct:
            try:
                info["checks"] = workload.check()
            except checks.CheckFailed as exc:
                sys.stderr.write(f"check failed: {exc}\n")
                correct = False
        info["counts"] = getattr(workload, "counts", {})
        info["rounds"] = rounds
    finally:
        speed.stop()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    result = {
        "correct": correct,
        "attempted": len(calls),
        "failed": sum(not c.stage.ok for c in calls),
        "metrics": metrics,
    }
    sys.stdout.write(json.dumps({"info": info}, default=float) + "\n")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


def timed_run(workload, runner, speed: probe.Probe, seconds: float, info: dict):
    setup = []
    first = time.perf_counter()
    while len(setup) < SETUP_MIN_REPEATS or sum(setup) < SETUP_MIN_SECONDS:
        start = time.perf_counter()
        workload.setup()
        setup.append(time.perf_counter() - start)
    setup_scale = speed.scale(first, time.perf_counter())
    run = runner(traced=False)
    measures = []
    start = time.perf_counter()
    while True:
        m = workload.round(run)
        if not m:
            break
        measures.append(m)
        if time.perf_counter() - start >= seconds:
            break
    info["setup_wall_s"] = setup
    info["setup_scale"] = setup_scale
    info["per_round"] = measures
    metrics = {"setup_s": {"value": statistics.median(setup) * setup_scale, "unit": "s"}}
    units = {"stages_ref_s": "s", "main_stage_ref_mpx_per_s": "Mpx/s", "peak_rss_mb": "MB"}
    for name, unit in units.items():
        values = [m[name] for m in measures]
        metrics[name] = {"value": statistics.median(values) if values else None, "unit": unit}
    return metrics, len(measures)


def trace_run(workload, runner, calls: list[Call], info: dict):
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        workload.setup()
    finally:
        restore()
    plain = workload.round(runner(traced=False))
    first_traced = len(calls)
    traced = workload.round(runner(traced=True))
    if not (plain and traced):
        return {}, 0
    # both rounds at the reference speed, so that the machine's drift
    # between them does not pass for tracing overhead
    untraced_s = sum(c.stage.ref_s for c in calls[:first_traced] if c.clean)
    traced_s = sum(c.stage.ref_s for c in calls[first_traced:] if c.clean)
    all_spans = list(tracer.spans)
    counters = dict(tracer.counters)
    stage_walls = {}
    for c in calls[first_traced:]:
        if not c.clean:
            continue
        stage_walls[c.stage.name] = (c.stage.wall_s, c.stage.peak_rss_mb)
        dumped = json.loads(c.spans.read_text())
        offset = len(all_spans)
        for name, t0, t1, parent in dumped["spans"]:
            all_spans.append([name, t0, t1, parent + offset if parent >= 0 else -1])
        for key, value in dumped["counters"].items():
            counters[key] = counters.get(key, 0.0) + value
    overhead_pct = 100.0 * (traced_s - untraced_s) / untraced_s
    metrics = spans.layer_metrics(all_spans, counters, stage_walls, overhead_pct)
    info["op_calls"] = spans.op_calls(all_spans)
    width = max(len(n) for n in metrics)
    table = [f"{'per-layer metric':<{width}}  {'value':>12}  unit"]
    for name, m in metrics.items():
        table.append(f"{name:<{width}}  {m['value']:>12.4f}  {m['unit']}")
    sys.stderr.write("\n".join(table) + "\n")
    return metrics, 2


if __name__ == "__main__":
    sys.exit(main())
