"""Descriptors of reference architectures, plus JSON descriptor files.

The presets are written through :class:`~chanreduce.arch.SpecBuilder`, which
numbers the channel entries. They exist purely for channel bookkeeping and
parameter accounting; residual shortcuts are recorded as data (a projection conv
where the reference network has one) and are never executed.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields
from pathlib import Path

from .arch import (ModelMeta, ModelSpec, Pool, SpecBuilder, layer_from_dict,
                   layer_to_dict, scale_width, write_json)

_IMAGENET = dict(dataset="imagenet", input_channels=3, resolution=224)


def _resnet(stage_blocks: list[int], name: str, num_classes: int = 1000) -> ModelSpec:
    """Two-conv basic blocks; the first block of every stage after the first
    downsamples and records its 1x1 projection shortcut."""
    builder = SpecBuilder(ModelMeta(name, num_classes=num_classes, **_IMAGENET))
    stream = builder.conv((7, 7), 0, 64, scale=2, stride=2)
    builder.layers.append(Pool(pool="max", window=3, stride=2))
    for s, (width, blocks) in enumerate(zip([64, 128, 256, 512], stage_blocks)):
        scale = 4 * 2 ** s
        for b in range(blocks):
            project = s > 0 and b == 0
            mid = builder.conv((3, 3), stream, width, scale=scale, stride=2 if project else 1)
            out = builder.conv((3, 3), mid, width, scale=scale)
            if project:
                builder.conv((1, 1), stream, width, scale=scale, stride=2)
            stream = out
    return builder.build(stream)


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
    builder = SpecBuilder(ModelMeta(f"mobilenet-{width_mult:g}", num_classes=num_classes,
                                    **_IMAGENET))
    scale = 2
    stream = builder.conv((3, 3), 0, scale_width(32, width_mult), scale=scale, stride=2)
    for out, stride in _MOBILENET_BLOCKS:
        scale *= stride
        builder.conv((3, 3), stream, scale=scale, stride=stride, depthwise=True)
        stream = builder.conv((1, 1), stream, scale_width(out, width_mult), scale=scale)
    return builder.build(stream)


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
    return ModelSpec(tuple(layer_from_dict(l) for l in d["layers"]), meta)


def save_descriptor(spec: ModelSpec, path) -> None:
    write_json(path, spec_to_dict(spec))


def load_descriptor(path) -> ModelSpec:
    try:
        return spec_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed model descriptor {path}: {exc}") from exc
