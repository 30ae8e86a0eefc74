"""Run one dumpwatch CLI stage in a fresh child process and time it.

The wall time is taken around the whole child, so it includes interpreter
start-up and imports as a user pays them; the peak RSS is the child's own,
read from ``wait4``.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Stage:
    name: str
    ok: bool
    wall_s: float
    peak_rss_mb: float
    summary: dict
    start: float  # time.perf_counter() around the child
    end: float
    ref_s: float = 0.0  # wall_s at the reference speed, set by the caller


BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env(root: Path, threads: int) -> dict:
    """Environment for a stage: the checkout's sources, BLAS pools pinned
    through DUMPWATCH_THREADS (which the CLI exports before numpy loads)."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = str(root / "src")
    env["DUMPWATCH_THREADS"] = str(threads)
    return env


def run(name: str, argv: list[str], env: dict, log_path: Path) -> Stage:
    """Run ``argv`` to completion; the last stdout line is its JSON summary."""
    out_path = log_path.with_suffix(".out")
    with open(out_path, "wb") as out, open(log_path, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out_path.read_text().strip().splitlines()
    summary = {}
    if proc.returncode == 0 and lines:
        summary = json.loads(lines[-1])
    # ru_maxrss is in KiB on Linux
    ok = proc.returncode == 0
    return Stage(name, ok, end - start, usage.ru_maxrss * 1024 / 1e6, summary, start, end)

