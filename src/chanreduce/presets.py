"""Hand-written descriptors for reference architectures, plus JSON descriptor files.

These exist purely for channel bookkeeping and parameter accounting; residual
shortcuts are recorded as data (a projection conv where the reference network has
one) and are never executed.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields
from pathlib import Path

from .arch import (BatchNorm, Conv, FullyConnected, GlobalAvgPool, Layer, ModelMeta,
                   ModelSpec, Pool, layer_from_dict, layer_to_dict, scale_width,
                   validate_spec)


def _basic_stage(layers, entry, stream, in_width, width, blocks, scale, downsample):
    """Append one residual stage of two-conv basic blocks fed by ``stream`` of
    ``in_width`` channels; returns (last entry, stage output stream)."""
    for b in range(blocks):
        project = downsample and b == 0
        entry += 1
        layers.append(Conv((3, 3), in_width, width, in_ref=stream, out_ref=entry,
                           stride=2 if project else 1, scale=scale))
        layers.append(BatchNorm(width, ref=entry))
        entry += 1
        layers.append(Conv((3, 3), width, width, in_ref=entry - 1, out_ref=entry, scale=scale))
        layers.append(BatchNorm(width, ref=entry))
        out = entry
        if project:
            # Projection shortcut: 1x1 conv matching the new width and scale.
            entry += 1
            layers.append(Conv((1, 1), in_width, width,
                               in_ref=stream, out_ref=entry, stride=2, scale=scale))
            layers.append(BatchNorm(width, ref=entry))
        stream, in_width = out, width
    return entry, stream


def _resnet(stage_blocks: list[int], name: str, num_classes: int = 1000) -> ModelSpec:
    widths = [64, 128, 256, 512]
    layers: list[Layer] = [
        Conv((7, 7), 3, 64, in_ref=0, out_ref=1, stride=2, scale=2),
        BatchNorm(64, ref=1),
        Pool(pool="max", window=3, stride=2),
    ]
    entry, stream, in_width = 1, 1, 64
    for s, (width, blocks) in enumerate(zip(widths, stage_blocks)):
        entry, stream = _basic_stage(layers, entry, stream, in_width, width, blocks,
                                     scale=4 * 2 ** s, downsample=(s > 0))
        in_width = width
    layers.append(GlobalAvgPool())
    layers.append(FullyConnected(widths[-1], num_classes, in_ref=stream))
    meta = ModelMeta(name=name, dataset="imagenet", num_classes=num_classes,
                     input_channels=3, resolution=224)
    spec = ModelSpec(tuple(layers), meta)
    validate_spec(spec)
    return spec


def resnet18(num_classes: int = 1000) -> ModelSpec:
    return _resnet([2, 2, 2, 2], "resnet18", num_classes)


def resnet34(num_classes: int = 1000) -> ModelSpec:
    return _resnet([3, 4, 6, 3], "resnet34", num_classes)


# (out_channels, stride) for the 13 depthwise-separable blocks.
_MOBILENET_BLOCKS = [(64, 1), (128, 2), (128, 1), (256, 2), (256, 1), (512, 2),
                     (512, 1), (512, 1), (512, 1), (512, 1), (512, 1),
                     (1024, 2), (1024, 1)]


def mobilenet(width_mult: float = 1.0, num_classes: int = 1000) -> ModelSpec:
    """Depthwise-separable CNN with an optional uniform width multiplier."""
    if not 0 < width_mult <= 1:
        raise ValueError(f"width multiplier must be in (0, 1], got {width_mult!r}")

    def w(nominal: int) -> int:
        return scale_width(nominal, width_mult)

    stem = w(32)
    layers: list[Layer] = [
        Conv((3, 3), 3, stem, in_ref=0, out_ref=1, stride=2, scale=2),
        BatchNorm(stem, ref=1),
    ]
    entry, stream, width, scale = 1, 1, stem, 2
    for out, stride in _MOBILENET_BLOCKS:
        scale *= stride
        layers.append(Conv((3, 3), width, width, in_ref=stream, out_ref=stream,
                           stride=stride, scale=scale, depthwise=True))
        layers.append(BatchNorm(width, ref=stream))
        entry += 1
        layers.append(Conv((1, 1), width, w(out), in_ref=stream, out_ref=entry, scale=scale))
        layers.append(BatchNorm(w(out), ref=entry))
        stream, width = entry, w(out)
    layers.append(GlobalAvgPool())
    layers.append(FullyConnected(width, num_classes, in_ref=stream))
    meta = ModelMeta(name=f"mobilenet-{width_mult:g}", dataset="imagenet",
                     num_classes=num_classes, input_channels=3, resolution=224)
    spec = ModelSpec(tuple(layers), meta)
    validate_spec(spec)
    return spec


PRESETS = {
    "resnet18": resnet18,
    "resnet34": resnet34,
    "mobilenet": mobilenet,
}


# ---------------------------------------------------------------------------
# Declarative descriptor files (JSON).

# Header defaults of a descriptor file; num_classes is required.
_META_DEFAULTS = {"name": "descriptor", "dataset": "unknown", "input_channels": 3, "resolution": 224}


def spec_to_dict(spec: ModelSpec) -> dict:
    return {**asdict(spec.meta), "layers": [layer_to_dict(l) for l in spec.layers]}


def spec_from_dict(d: dict) -> ModelSpec:
    header = {f.name: d[f.name] for f in fields(ModelMeta) if f.name in d}
    meta = ModelMeta(**{**_META_DEFAULTS, **header})
    spec = ModelSpec(tuple(layer_from_dict(l) for l in d["layers"]), meta)
    validate_spec(spec)
    return spec


def save_descriptor(spec: ModelSpec, path) -> None:
    Path(path).write_text(json.dumps(spec_to_dict(spec), indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def load_descriptor(path) -> ModelSpec:
    try:
        return spec_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed model descriptor {path}: {exc}") from exc
