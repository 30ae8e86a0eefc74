"""A speed probe that runs beside the stages and tracks the machine's speed.

    python3 perfbench/probe.py SAMPLES_FILE

On a shared host the speed of a vCPU drifts by a third and more within a
minute, whatever runs on it, so the wall time of a stage swings with its
neighbours as much as with the program. The probe is a separate process
that, every ``PERIOD_S`` seconds, runs three fixed pieces of work: an
interpreter loop, element-wise passes over an array that fits in L2, and
small single-threaded matrix products. It appends the start and end of the
sample (``time.perf_counter``, the system's monotonic clock, which the
driving process shares) and the CPU time of each piece to
``SAMPLES_FILE``. It shares the stages' vCPU, since a probe on the other
vCPU tracks the stages' speed less well, and at a duty cycle under 2 % it
takes little from them.

``Probe.scale(t0, t1)`` takes, for each piece, the median of its times
over the samples in ``[t0, t1]``, and returns the geometric mean over the
pieces of ``REF_S`` over that median: the factor that turns a wall time
measured in the interval into the wall time at the reference speed. The
geometric mean weighs the three kinds of work alike: the interpreter loop
tracks the speed of Python-bound stages best, the numpy pieces that of
numpy-bound ones.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

PERIOD_S = 0.1
# Median CPU time of each piece on the reference machine (README,
# Reference figures): interpreter loop, L2 passes, matrix products.
REF_S = (1.0e-3, 4.4e-4, 1.05e-4)
# samples a scale rests on at least; a shorter interval is widened
MIN_SAMPLES = 5


def _sample_forever(out: Path) -> None:
    import numpy as np

    a = (np.arange(256 * 256, dtype=np.int32) * 7919) % 4001
    m = np.linspace(0.0, 1.0, 64 * 64, dtype=np.float32).reshape(64, 64)
    with open(out, "a", buffering=1) as f:
        while True:
            t0 = time.perf_counter()
            c = [time.thread_time()]
            s = 0
            for i in range(12_000):
                s += i * i
            c.append(time.thread_time())
            for k in range(6):
                (a == k).sum()
            c.append(time.thread_time())
            for _ in range(8):
                m @ m
            c.append(time.thread_time())
            t1 = time.perf_counter()
            pieces = " ".join(f"{c[i + 1] - c[i]:.9f}" for i in range(3))
            f.write(f"{t0:.6f} {t1:.6f} {pieces}\n")
            time.sleep(PERIOD_S)


class Probe:
    """The probe process, started and stopped by the driving process."""

    def __init__(self, samples: Path, env: dict):
        self.samples = samples
        self.samples.write_text("")
        self.proc = subprocess.Popen([sys.executable, __file__, str(samples)], env=env, stdin=subprocess.DEVNULL)
        self._rows: list[tuple[float, list[float]]] = []
        self._read = 0

    def _load(self) -> list[tuple[float, list[float]]]:
        with open(self.samples) as f:
            f.seek(self._read)
            data = f.read()
        whole = data[: data.rfind("\n") + 1]
        self._read += len(whole)
        for line in whole.splitlines():
            t0, t1, *pieces = (float(v) for v in line.split())
            self._rows.append(((t0 + t1) / 2, pieces))
        return self._rows

    def wait_ready(self, timeout: float = 30.0) -> None:
        """Block until the probe has taken MIN_SAMPLES samples."""
        end = time.perf_counter() + timeout
        while len(self._load()) < MIN_SAMPLES:
            if self.proc.poll() is not None or time.perf_counter() > end:
                raise RuntimeError("the speed probe did not start")
            time.sleep(PERIOD_S)

    def pieces_s(self, t0: float, t1: float) -> list[float]:
        """Median time of each piece over the samples in [t0, t1], the
        interval widened on both sides until it holds MIN_SAMPLES samples."""
        rows = self._load()
        pad = 0.0
        while True:
            inside = [pieces for mid, pieces in rows if t0 - pad <= mid <= t1 + pad]
            if len(inside) >= MIN_SAMPLES or (inside and pad > 60):
                return [statistics.median(column) for column in zip(*inside)]
            if pad > 60:
                raise RuntimeError("the speed probe took no samples")
            pad += PERIOD_S

    def scale(self, t0: float, t1: float) -> float:
        ratios = [ref / t for ref, t in zip(REF_S, self.pieces_s(t0, t1))]
        return math.prod(ratios) ** (1 / len(ratios))

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


if __name__ == "__main__":
    _sample_forever(Path(sys.argv[1]))
