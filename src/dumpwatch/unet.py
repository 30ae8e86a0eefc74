"""U-Net style encoder-decoder built on the numerics autodiff core.

The architecture is fixed by configuration: ``depth`` encoder stages of two
3x3 convs + 2x2 max pool, a two-conv bottleneck, and mirrored decoder stages
of learned 2x2 stride-2 upsampling, skip concatenation, and two 3x3 convs.
Every convolution, including the single-channel output head, is 3x3 with
same padding, so spatial size is preserved as long as the input is divisible
by 2**depth.

Parameters live in a flat name -> Tensor dict whose order (the "schema") is
derived from the config alone; checkpoints serialize that schema as a JSON
manifest next to a raw little-endian float32 payload.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Literal

import numpy as np

from . import numerics
from ._fileio import atomic_write_bytes, atomic_write_json, read_document, shown
from .dataset import NormalizationStats
from .numerics import Tensor

CHECKPOINT_FORMAT = "dumpwatch.checkpoint"
CHECKPOINT_VERSION = 1

ParameterSet = dict[str, Tensor]


@dataclass(frozen=True)
class UNetConfig:
    in_channels: int = 6
    depth: int = 4
    base_filters: int = 16
    kernel_size: int = 3  # fixed; recorded for the checkpoint manifest
    out_channels: int = 1  # fixed: binary segmentation logits

    def __post_init__(self):
        if self.in_channels < 1:
            raise ValueError(f"in_channels: must be >= 1, got {shown(self.in_channels)}")
        # 2**depth divides an input's height and width, which are below 2**31
        if not 1 <= self.depth <= 30:
            raise ValueError(f"depth: must be in [1, 30], got {shown(self.depth)}")
        if self.base_filters < 1:
            raise ValueError(f"base_filters: must be >= 1, got {shown(self.base_filters)}")
        if self.kernel_size != 3:
            raise ValueError(f"kernel_size: fixed at 3, got {shown(self.kernel_size)}")
        if self.out_channels != 1:
            raise ValueError(f"out_channels: fixed at 1, got {shown(self.out_channels)}")

    @property
    def pool_factor(self) -> int:
        """Input spatial dims must be divisible by this (2**depth)."""
        return 2**self.depth


def _double_conv_schema(prefix: str, cin: int, cout: int):
    return [
        (f"{prefix}.conv1.weight", (cout, cin, 3, 3)),
        (f"{prefix}.conv1.bias", (cout,)),
        (f"{prefix}.conv2.weight", (cout, cout, 3, 3)),
        (f"{prefix}.conv2.bias", (cout,)),
    ]


def parameter_schema(config: UNetConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Ordered (name, shape) pairs; also the checkpoint payload order."""
    widths = [config.base_filters * 2**i for i in range(config.depth + 1)]
    schema: list[tuple[str, tuple[int, ...]]] = []
    cin = config.in_channels
    for i in range(config.depth):
        schema += _double_conv_schema(f"enc{i}", cin, widths[i])
        cin = widths[i]
    schema += _double_conv_schema("bottleneck", widths[-2], widths[-1])
    for i in reversed(range(config.depth)):
        schema.append((f"dec{i}.up.weight", (widths[i + 1], widths[i], 2, 2)))
        schema.append((f"dec{i}.up.bias", (widths[i],)))
        schema += _double_conv_schema(f"dec{i}", 2 * widths[i], widths[i])
    schema.append(("head.weight", (1, config.base_filters, 3, 3)))
    schema.append(("head.bias", (1,)))
    return schema


def parameter_count(config: UNetConfig) -> int:
    return sum(int(np.prod(shape)) for _, shape in parameter_schema(config))


def _fan_in(name: str, shape: tuple[int, ...]) -> int:
    if name.endswith(".up.weight"):
        return shape[0] * shape[2] * shape[3]  # [in, out, kh, kw]
    return int(np.prod(shape[1:]))  # [out, in, kh, kw]


def build_unet(config: UNetConfig, seed: int = 0) -> ParameterSet:
    """Seeded fan-in-scaled normal weights (std = sqrt(2/fan_in)), zero biases."""
    rng = np.random.default_rng(seed)
    params: ParameterSet = {}
    for name, shape in parameter_schema(config):
        if name.endswith(".bias"):
            data = np.zeros(shape, dtype=np.float32)
        else:
            std = np.sqrt(2.0 / _fan_in(name, shape))
            data = (rng.standard_normal(shape) * std).astype(np.float32)
        params[name] = Tensor(data, requires_grad=True)
    return params


def _double_conv(params: ParameterSet, prefix: str, x: Tensor, skip: bool = False):
    """Two conv + relu. With ``skip``, an encoder stage's: the second relu
    writes the second half of a ``padded_buffer`` twice its width, whose
    first half the decoder's up-conv writes, so that the concatenation
    wraps it and the skip is held once. Gives the output and that buffer."""
    x = numerics.relu(
        numerics.conv2d(x, params[f"{prefix}.conv1.weight"], params[f"{prefix}.conv1.bias"])
    )
    y = numerics.conv2d(x, params[f"{prefix}.conv2.weight"], params[f"{prefix}.conv2.bias"])
    if not skip:
        return numerics.relu(y), None
    b, c, h, w = y.data.shape
    joint = numerics.padded_buffer(b, 2 * c, h, w, y.data.dtype)
    return numerics.relu(y, out=joint[:, c:]), joint


def model_input(windows, side: int, stats: NormalizationStats | None = None, valid=None) -> Tensor:
    """The float32 [batch, band, side, side] network input of a batch of
    [band, h, w] ``windows`` (chip samples, or views of a predict stripe),
    written into the interior of a zero-bordered padded-layout buffer that
    the first conv reads in place. Each window is normalized with ``stats``
    (float32 subtract, then divide), zeroed where its ``valid`` mask is
    False (nodata forwards as the band mean), and reflect-padded bottom and
    right by one gather of its own cells (numpy's ``reflect``: pads longer
    than the axis reflect again, a 1-wide axis repeats)."""
    x = numerics.padded_tensor(len(windows), len(windows[0]), side, side, np.float32)
    if stats is not None:
        if len(stats.means) != x.shape[1]:
            raise ValueError(f"windows have {x.shape[1]} bands, stats cover {len(stats.means)}")
        means, stds = (np.asarray(v, np.float32)[:, None, None] for v in (stats.means, stats.stds))
    for i, (image, window) in enumerate(zip(x.data, windows)):
        h, w = window.shape[1:]
        top_left = image[:, :h, :w]
        if stats is None:
            top_left[...] = window
        else:
            np.divide(window - means, stds, out=top_left)
        if valid is not None:
            top_left[:, ~valid[i]] = 0.0
        if (h, w) != (side, side):
            rows, cols = (np.pad(np.arange(n), (0, side - n), "reflect") for n in (h, w))
            image[...] = top_left[:, rows[:, None], cols]
    return x


def forward(params: ParameterSet, config: UNetConfig, batch: Tensor) -> Tensor:
    """Segmentation logits [batch, 1, h, w] for input [batch, c, h, w]."""
    b, c, h, w = batch.data.shape
    if c != config.in_channels:
        raise ValueError(f"model expects {config.in_channels} channels, got {c}")
    factor = config.pool_factor
    if h % factor or w % factor:
        raise ValueError(
            f"spatial dims {h}x{w} must be divisible by 2**depth = {factor}"
        )
    skips: list[tuple[Tensor, np.ndarray]] = []
    x = batch
    for i in range(config.depth):
        x, joint = _double_conv(params, f"enc{i}", x, skip=True)
        skips.append((x, joint))
        x = numerics.max_pool_2x2(x)
    x = _double_conv(params, "bottleneck", x)[0]
    for i in reversed(range(config.depth)):
        skip, joint = skips.pop()  # freed once used
        up = numerics.transposed_conv_2x2(
            x, params[f"dec{i}.up.weight"], params[f"dec{i}.up.bias"],
            out=joint[:, : skip.data.shape[1]],
        )
        x = _double_conv(params, f"dec{i}", numerics.concat_channels(up, skip))[0]
    return numerics.conv2d(x, params["head.weight"], params["head.bias"])


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


@dataclass
class Checkpoint:
    config: UNetConfig
    parameters: dict[str, np.ndarray]
    normalization: NormalizationStats | None = None
    training_metadata: dict = field(default_factory=dict)


def checkpoint_from_params(
    config: UNetConfig,
    params: ParameterSet,
    normalization: NormalizationStats | None = None,
    training_metadata: dict | None = None,
) -> Checkpoint:
    return Checkpoint(
        config=config,
        parameters={name: p.data.copy() for name, p in params.items()},
        normalization=normalization,
        training_metadata=dict(training_metadata or {}),
    )


def params_from_checkpoint(ckpt: Checkpoint) -> ParameterSet:
    return {
        name: Tensor(arr.astype(np.float32, copy=True), requires_grad=True)
        for name, arr in ckpt.parameters.items()
    }


@dataclass(frozen=True)
class CheckpointManifest:
    """A checkpoint's ``.json`` manifest, as ``save_checkpoint`` writes it."""

    format: Literal[CHECKPOINT_FORMAT]
    format_version: Literal[CHECKPOINT_VERSION]
    config: UNetConfig
    schema: tuple[tuple[str, tuple[int, ...]], ...]  # parameter_schema's pairs
    normalization: NormalizationStats | None = None
    training_metadata: dict = field(default_factory=dict)


def _checkpoint_paths(path: str | Path) -> tuple[Path, Path]:
    base = str(path)
    return Path(base + ".json"), Path(base + ".bin")


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    """Write manifest (+ .json) and float32 payload (+ .bin) atomically; a
    missing, misshapen or non-finite parameter raises before either is written."""
    schema = parameter_schema(ckpt.config)
    manifest_path, payload_path = _checkpoint_paths(path)
    for name, shape in schema:
        if name not in ckpt.parameters:
            raise ValueError(f"checkpoint missing parameter {name!r}")
        if tuple(ckpt.parameters[name].shape) != shape:
            raise ValueError(
                f"schema mismatch for {name!r}: config implies {shape}, "
                f"checkpoint holds {tuple(ckpt.parameters[name].shape)}"
            )
        if not np.isfinite(ckpt.parameters[name]).all():
            raise ValueError(f"non-finite weight for {payload_path}: parameter {name!r}")
    manifest = CheckpointManifest(
        CHECKPOINT_FORMAT, CHECKPOINT_VERSION, ckpt.config, tuple(schema),
        ckpt.normalization, ckpt.training_metadata,
    )
    payload = b"".join(
        np.ascontiguousarray(ckpt.parameters[name], dtype="<f4").tobytes()
        for name, _ in schema
    )
    atomic_write_bytes(payload_path, payload)
    atomic_write_json(manifest_path, asdict(manifest))


def read_checkpoint_manifest(path: str | Path) -> CheckpointManifest:
    """The manifest, checked against its config's schema and its payload's length."""
    manifest_path, payload_path = _checkpoint_paths(path)
    if not payload_path.exists():  # read_json names a missing manifest
        raise FileNotFoundError(f"missing checkpoint payload {payload_path}")
    manifest = read_document(CheckpointManifest, manifest_path)
    if manifest.schema != tuple(parameter_schema(manifest.config)):
        raise ValueError(
            f"schema mismatch in {manifest_path}: stored parameter list does not "
            "match the architecture implied by the checkpoint config"
        )
    total, size = sum(int(np.prod(shape)) for _, shape in manifest.schema), payload_path.stat().st_size
    if size != total * 4:
        raise ValueError(f"corrupt payload {payload_path}: expected {total * 4} bytes, found {size}")
    return manifest


def load_checkpoint(path: str | Path) -> Checkpoint:
    manifest = read_checkpoint_manifest(path)
    payload_path = _checkpoint_paths(path)[1]
    flat = np.frombuffer(payload_path.read_bytes(), dtype="<f4")
    parameters: dict[str, np.ndarray] = {}
    offset = 0
    for name, shape in manifest.schema:
        size = int(np.prod(shape))
        parameters[name] = flat[offset : offset + size].reshape(shape).copy()
        offset += size
        if not np.isfinite(parameters[name]).all():
            raise ValueError(f"non-finite weight in {payload_path}: parameter {name!r}")
    return Checkpoint(manifest.config, parameters, manifest.normalization, manifest.training_metadata)
