"""Train the frozen checkpoint that the ``scene`` workload predicts with.

Runs ``dumpwatch synth``, ``chip`` and ``train`` through the CLI with a
fixed recipe (depth 2, 8 filters, 40 epochs, no early stop) and a fixed
seed, then copies the checkpoint pair into ``perfbench/checkpoint/``.
The checkpoint is frozen so that ``scene`` measures inference on a model
whose detections are the dump blobs, not on the speckle an untrained
model gives. Run from the repository root:

    python3 perfbench/make_checkpoint.py

It takes about four minutes on two cores. The frozen pair was made with
two BLAS threads; BLAS reductions can reorder with the thread count, so a
checkpoint made anew elsewhere may differ from it in the last bits.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TARGET = Path(__file__).resolve().parent / "checkpoint" / "scene_model"
SEED = 20211015

RECIPE = {
    "seed": SEED,
    "synth": {"scene_count": 8, "scene_size": 192, "dump_count": 5},
    "chip": {
        "chip_size": 64,
        "stride": 32,
        "negatives_per_positive": 1.0,
        "test_frac": 0.15,
        "val_frac": 0.2,
    },
    "model": {"depth": 2, "base_filters": 8},
    "train": {
        "batch_size": 16,
        "max_epochs": 40,
        "learning_rate": 0.002,
        "pos_weight": 5.0,
        "plateau_patience": 40,
    },
}


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        work = Path(tmp)
        config = dict(
            RECIPE,
            paths={
                "scene_dir": str(work / "scenes"),
                "catalog": str(work / "catalog"),
                "checkpoint": str(work / "model"),
                "report": str(work / "report.json"),
            },
        )
        (work / "run.json").write_text(json.dumps(config))
        for stage in ("synth", "chip", "train"):
            done = subprocess.run(
                [sys.executable, "-m", "dumpwatch.cli", stage, "--config", str(work / "run.json")],
                env=env,
                cwd=ROOT,
                stdout=subprocess.PIPE,
                text=True,
            )
            if done.returncode != 0:
                sys.stderr.write(f"dumpwatch {stage} failed\n")
                return 1
            sys.stdout.write(done.stdout)
        TARGET.parent.mkdir(parents=True, exist_ok=True)
        for suffix in (".json", ".bin"):
            shutil.copyfile(str(work / "model") + suffix, str(TARGET) + suffix)
    return 0


if __name__ == "__main__":
    sys.exit(main())
