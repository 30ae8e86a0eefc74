"""Span tracing around the public functions of dumpwatch's modules.

``install`` replaces module attributes with wrappers that record a span
(name, start, end, parent) around each call. Callers inside dumpwatch look
these names up at call time, so nested calls nest their spans. For the
numerics ops the wrapper also wraps the gradient closure of the tensor the
op returns, so backward time is charged to the op that recorded it. Spans
stay in memory; ``dump`` writes them out when the traced process ends.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from pathlib import Path

OPS = (
    "conv2d",
    "max_pool_2x2",
    "transposed_conv_2x2",
    "concat_channels",
    "relu",
    "crop_spatial",
    "weighted_bce_with_logits",
)

TRACED = {
    "dataset": (
        "generate_synthetic",
        "rasterize_mask",
        "stack_bands",
        "extract_chips",
        "fit_normalization",
        "save_catalog",
        "load_catalog",
        "normalize_split",
    ),
    "geodata": (
        "read_raster",
        "write_raster",
        "read_annotations",
        "ring_is_simple",
        "write_annotations",
    ),
    "unet": ("forward", "save_checkpoint", "load_checkpoint"),
    "training": ("evaluate",),
    "detect": (
        "predict_raster",
        "threshold_probability",
        "connected_components",
        "polygonize",
        "export_geojson",
    ),
    "numerics": ("backward", "adam_step"),
}

STAGES = ("chip", "train", "predict", "postprocess")

# (name, unit, better) for every per-layer metric the traced run reports.
PER_LAYER = (
    *((f"cli.{s}.s", "s", "lower") for s in STAGES),
    *((f"cli.{s}.peak_rss_mb", "MB", "lower") for s in STAGES),
    *(
        (f"numerics.{op}.{part}", "s", "lower")
        for op in OPS
        for part in ("fwd_s", "bwd_s")
    ),
    ("numerics.conv2d.gflops", "GFLOP/s", "higher"),
    ("numerics.conv2d.share_of_train_pct", "%", "lower"),
    ("numerics.backward.self_s", "s", "lower"),
    ("numerics.adam_step.s", "s", "lower"),
    ("unet.forward.s", "s", "lower"),
    ("unet.save_checkpoint.s", "s", "lower"),
    ("unet.load_checkpoint.s", "s", "lower"),
    ("training.step_s", "s", "lower"),
    ("training.evaluate.s", "s", "lower"),
    *((f"dataset.{f}.s", "s", "lower") for f in TRACED["dataset"]),
    ("geodata.read_raster.s", "s", "lower"),
    ("geodata.read_raster.mb", "MB", "lower"),
    ("geodata.write_raster.s", "s", "lower"),
    ("geodata.read_annotations.s", "s", "lower"),
    ("geodata.ring_is_simple.s", "s", "lower"),
    ("geodata.write_annotations.s", "s", "lower"),
    ("detect.predict_raster.self_s", "s", "lower"),
    ("detect.threshold_probability.s", "s", "lower"),
    ("detect.connected_components.s", "s", "lower"),
    ("detect.polygonize.s", "s", "lower"),
    ("detect.export_geojson.s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


class Tracer:
    """Spans as [name, start, end, parent index] plus a few counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans, "counters": self.counters}))


def _conv_flops(x, kernel) -> tuple[float, float]:
    """Multiply-adds x2 of one 3x3 conv forward, and of its backward."""
    b, cin, h, w = x.data.shape
    cout = kernel.data.shape[0]
    fwd = 2.0 * b * h * w * cout * cin * 9
    bwd = fwd * (int(x.requires_grad) + int(kernel.requires_grad))
    return fwd, bwd


def install(tracer: Tracer):
    """Wrap the traced functions in place; returns a function that undoes it."""
    from dumpwatch import dataset, detect, geodata, numerics, training, unet

    modules = {
        "dataset": dataset,
        "geodata": geodata,
        "unet": unet,
        "training": training,
        "detect": detect,
        "numerics": numerics,
    }
    originals = []

    def replace(module, attr, wrapper):
        originals.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def plain(name, fn):
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, *args, **kwargs)

        return wrapper

    for mod_name, funcs in TRACED.items():
        module = modules[mod_name]
        for func in funcs:
            replace(module, func, plain(f"{mod_name}.{func}", getattr(module, func)))

    read_raster = geodata.read_raster

    def traced_read(*args, **kwargs):
        raster = read_raster(*args, **kwargs)
        tracer.counters["geodata.read_raster.bytes"] += raster.samples.nbytes
        return raster

    geodata.read_raster = traced_read

    forward_logits = training._forward_logits

    def traced_forward_logits(*args, **kwargs):
        # a training step runs from a grad-mode forward to its adam_step
        name = "training.step_forward" if numerics._grad_enabled else "training.eval_forward"
        return tracer.call(name, forward_logits, *args, **kwargs)

    replace(training, "_forward_logits", traced_forward_logits)

    def op(name, fn):
        def wrapper(*args, **kwargs):
            out = tracer.call(f"numerics.{name}.fwd", fn, *args, **kwargs)
            bwd_flops = 0.0
            if name == "conv2d":
                fwd_flops, bwd_flops = _conv_flops(args[0], args[1])
                tracer.counters["numerics.conv2d.fwd_flops"] += fwd_flops
            grad_fn = out._grad_fn
            if grad_fn is not None:

                def traced_grad(g):
                    if bwd_flops:
                        tracer.counters["numerics.conv2d.bwd_flops"] += bwd_flops
                    return tracer.call(f"numerics.{name}.bwd", grad_fn, g)

                out._grad_fn = traced_grad
            return out

        return wrapper

    for name in OPS:
        replace(numerics, name, op(name, getattr(numerics, name)))

    def restore():
        for module, attr, fn in reversed(originals):
            setattr(module, attr, fn)

    return restore


def _durations(spans: list[list]):
    """Per span: duration and self time (duration minus direct children)."""
    dur = [end - start for _, start, end, _ in spans]
    self_time = list(dur)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            self_time[parent] -= dur[i]
    return dur, self_time


def layer_metrics(spans: list[list], counters: dict, stages: dict, overhead_pct: float) -> dict:
    """Per-layer metrics from the traced spans.

    ``stages`` maps a CLI stage name to its traced (wall_s, peak_rss_mb);
    ``overhead_pct`` is the tracing overhead the caller measured. A layer
    the workload does not exercise reads 0.
    """
    dur, self_time = _durations(spans)
    total = defaultdict(float)
    own = defaultdict(float)
    for i, (name, *_rest) in enumerate(spans):
        total[name] += dur[i]
        own[name] += self_time[i]

    values: dict[str, float] = {}
    for stage in STAGES:
        wall, rss = stages.get(stage, (0.0, 0.0))
        values[f"cli.{stage}.s"] = wall
        values[f"cli.{stage}.peak_rss_mb"] = rss
    for op in OPS:
        values[f"numerics.{op}.fwd_s"] = own[f"numerics.{op}.fwd"]
        values[f"numerics.{op}.bwd_s"] = own[f"numerics.{op}.bwd"]
    conv_s = values["numerics.conv2d.fwd_s"] + values["numerics.conv2d.bwd_s"]
    conv_flops = counters.get("numerics.conv2d.fwd_flops", 0.0) + counters.get(
        "numerics.conv2d.bwd_flops", 0.0
    )
    values["numerics.conv2d.gflops"] = conv_flops / conv_s / 1e9 if conv_s else 0.0
    # conv self time spent inside the train stage, as a share of that stage
    train_conv = 0.0
    in_train = _inside(spans, "cli.train")
    for i, (name, *_rest) in enumerate(spans):
        if in_train[i] and name in ("numerics.conv2d.fwd", "numerics.conv2d.bwd"):
            train_conv += self_time[i]
    train_wall = values["cli.train.s"]
    values["numerics.conv2d.share_of_train_pct"] = (
        100.0 * train_conv / train_wall if train_wall else 0.0
    )
    values["numerics.backward.self_s"] = own["numerics.backward"]
    values["numerics.adam_step.s"] = total["numerics.adam_step"]
    for func in ("forward", "save_checkpoint", "load_checkpoint"):
        values[f"unet.{func}.s"] = total[f"unet.{func}"]
    values["training.step_s"] = _median_step(spans)
    values["training.evaluate.s"] = total["training.evaluate"]
    for func in TRACED["dataset"]:
        values[f"dataset.{func}.s"] = total[f"dataset.{func}"]
    for func in TRACED["geodata"]:
        values[f"geodata.{func}.s"] = total[f"geodata.{func}"]
    values["geodata.read_raster.mb"] = counters.get("geodata.read_raster.bytes", 0.0) / 1e6
    values["detect.predict_raster.self_s"] = own["detect.predict_raster"]
    for func in TRACED["detect"][1:]:
        values[f"detect.{func}.s"] = total[f"detect.{func}"]
    values["trace.overhead_pct"] = overhead_pct
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}


def _inside(spans: list[list], root_name: str) -> list[bool]:
    """For each span, whether it descends from a span named root_name."""
    flags = []
    for name, _, _, parent in spans:
        flags.append(name == root_name or (parent >= 0 and flags[parent]))
    return flags


def _median_step(spans: list[list]) -> float:
    """Median time from a grad-mode forward to the adam_step that follows."""
    steps = []
    start = None
    for name, t0, t1, _ in spans:
        if name == "training.step_forward":
            start = t0
        elif name == "numerics.adam_step" and start is not None:
            steps.append(t1 - start)
            start = None
    return statistics.median(steps) if steps else 0.0


def op_calls(spans: list[list]) -> dict:
    """Forward and backward call counts per numerics op."""
    calls = defaultdict(int)
    for name, *_rest in spans:
        if name.startswith("numerics.") and name.endswith((".fwd", ".bwd")):
            calls[name] += 1
    return dict(sorted(calls.items()))
