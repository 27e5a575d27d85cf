"""Architecture descriptors, channel vectors, macroblock partitioning, and width transforms.

A model is described layer by layer with explicit channel counts; no graph is ever
executed. Every convolution that produces a new feature stream owns one entry of the
channel vector ``[n0, n1, ..., nN]`` (entry 0 is the immutable input channel count).
Depthwise convolutions preserve their stream and therefore share the producing entry.
All width transforms are pure functions on :class:`ChannelConfig`.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from functools import cached_property
from itertools import groupby
from pathlib import Path
from typing import ClassVar, Sequence, Union

Rational = Union[int, float, Fraction]
# Compact, key-sorted JSON: the encoding of spec identities, config digests and ledger lines.
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


# The one writer of each run-artifact format: indented, key-sorted JSON, and CSV in
# the csv module's default dialect (None is an empty cell, a float its repr).
def write_json(path, payload) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_csv(path, header, rows) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header, *rows])


# Float scale factors are snapped to a nearby exact rational before the ceiling is
# taken, so 0.7 * 100 rounds to 70 rather than ceil(70.00000000000001) = 71.
_FLOAT_SNAP_DENOMINATOR = 10 ** 6


def _scale_ratio(k: Rational) -> tuple[int, int]:
    """k as an exact (numerator, denominator), checked once to lie in (0, 1]."""
    if isinstance(k, float):
        if not math.isfinite(k):
            raise ValueError(f"scale factor must be finite, got {k!r}")
        frac = Fraction(k).limit_denominator(_FLOAT_SNAP_DENOMINATOR)
    elif isinstance(k, (int, Fraction)):
        frac = Fraction(k)
    else:
        raise TypeError(f"scale factor must be int, float, or Fraction, got {type(k).__name__}")
    if not 0 < frac <= 1:
        raise ValueError(f"scale factor must be in (0, 1], got {k!r}")
    return frac.numerator, frac.denominator


def scale_width(width: int, k: Rational) -> int:
    """Ceiling-scale a channel width: ceil(k * width), computed exactly."""
    num, den = _scale_ratio(k)
    return -((-num * width) // den)


class LayerKind:
    """Base of the layer kinds; each declares these tables once, as class data.
    Each kind also counts its stored scalars in ``scalars() -> (learnable,
    buffers)``; there is no default, so a kind without one fails when counted."""

    kind: ClassVar[str]  # tag in descriptor files and structural keys
    renamed: ClassVar[dict[str, str]] = {}  # field -> descriptor key, where they differ
    key_fields: ClassVar[tuple[str, ...] | None] = ()  # structural-key row; None: unkeyed
    wiring: ClassVar[tuple[tuple[str, str], ...]] = ()  # (width, ref): width = channels[ref]


@dataclass(frozen=True)
class Conv(LayerKind):
    """2-D convolution. ``scale`` is the output feature map's downsampling factor
    relative to the network input; it determines macroblock membership. ``in_ref``
    and ``out_ref`` index the channel vector; a depthwise conv has out_ref == in_ref
    and in_channels == out_channels."""

    kind = "conv"
    renamed = {"in_channels": "in", "out_channels": "out", "has_bias": "bias"}
    key_fields = ("kernel", "stride", "scale", "depthwise", "has_bias", "in_ref", "out_ref")
    wiring = (("in_channels", "in_ref"), ("out_channels", "out_ref"))
    kernel: tuple[int, int]
    in_channels: int
    out_channels: int
    in_ref: int
    out_ref: int
    stride: int = 1
    scale: int = 1
    depthwise: bool = False
    has_bias: bool = False

    def scalars(self) -> tuple[int, int]:
        """kh * kw * in * out weights, or one kh * kw filter per channel when
        depthwise, plus out bias terms if present; no buffers."""
        kh, kw = self.kernel
        taps = kh * kw * (1 if self.depthwise else self.in_channels)
        return taps * self.out_channels + (self.out_channels if self.has_bias else 0), 0


@dataclass(frozen=True)
class BatchNorm(LayerKind):
    kind = "batchnorm"
    key_fields = ("ref",)
    wiring = (("channels", "ref"),)
    channels: int
    ref: int

    def scalars(self) -> tuple[int, int]:
        """2 * channels learnable scale/shift, and 2 * channels running statistics."""
        return 2 * self.channels, 2 * self.channels


@dataclass(frozen=True)
class Pool(LayerKind):
    """Parameter-free spatial pooling; the stride defaults to the window."""

    kind = "pool"
    key_fields = ("pool", "window", "stride")
    pool: str = "max"
    window: int = 2
    stride: int | None = None

    def __post_init__(self):
        if self.stride is None:
            object.__setattr__(self, "stride", self.window)

    def scalars(self) -> tuple[int, int]:
        return 0, 0


@dataclass(frozen=True)
class GlobalAvgPool(LayerKind):
    kind = "global_avg_pool"

    def scalars(self) -> tuple[int, int]:
        return 0, 0


@dataclass(frozen=True)
class FullyConnected(LayerKind):
    kind = "fully_connected"
    renamed = {"in_features": "in", "out_features": "out", "has_bias": "bias"}
    key_fields = ("out_features", "has_bias", "in_ref")
    wiring = (("in_features", "in_ref"),)
    in_features: int
    out_features: int
    in_ref: int
    has_bias: bool = True

    def scalars(self) -> tuple[int, int]:
        """in * out weights, plus out bias terms if present."""
        return (self.in_features * self.out_features
                + (self.out_features if self.has_bias else 0)), 0


LAYER_KINDS = (Conv, BatchNorm, Pool, GlobalAvgPool, FullyConnected)
Layer = Union[LAYER_KINDS]


def _kind_of(layer) -> type:
    if type(layer) not in LAYER_KINDS:
        raise TypeError(f"unregistered layer kind {type(layer).__name__}")
    return type(layer)


def layer_to_dict(layer: Layer) -> dict:
    d = {"kind": _kind_of(layer).kind}
    for f in fields(layer):
        value = getattr(layer, f.name)
        d[layer.renamed.get(f.name, f.name)] = list(value) if isinstance(value, tuple) else value
    return d


def layer_from_dict(d: dict) -> Layer:
    """Inverse of :func:`layer_to_dict`; a missing key takes its field's default."""
    if not isinstance(d, dict):
        raise ValueError(f"layer must be a JSON object, got {d!r}")
    cls = {c.kind: c for c in LAYER_KINDS}.get(d.get("kind"))
    if cls is None:
        raise ValueError(f"unknown layer kind {d.get('kind')!r}")
    names = {cls.renamed.get(f.name, f.name): f.name for f in fields(cls)}
    return cls(**{names[k]: tuple(v) if isinstance(v, list) else v
                  for k, v in d.items() if k in names})


@dataclass(frozen=True)
class ModelMeta:
    """Labels and bookkeeping that do not affect parameter counts or digests
    (except num_classes/input_channels, which are structural)."""

    name: str
    dataset: str
    num_classes: int
    input_channels: int
    resolution: int


# Declared field type -> (the exact type a value must have, item by item for a
# tuple, and what an error calls it), so an int is never a bool. An optional
# field is checked as its base type: __post_init__ has filled it in by then.
_DECLARED_TYPES = {
    "int": (int, "an integer"),
    "bool": (bool, "a boolean"),
    "str": (str, "a string"),
    "tuple[int, int]": ((int, int), "a pair of integers"),
}
# Each layer kind's and ModelMeta's fields, with the types declared for them.
_TYPED_FIELDS = {cls: tuple((f.name, *_DECLARED_TYPES[f.type.removesuffix(" | None")])
                            for f in fields(cls))
                 for cls in (*LAYER_KINDS, ModelMeta)}


def _type_error(obj) -> str | None:
    """What is wrong with the first field of ``obj`` whose value lacks its
    declared type; None when every field has it."""
    for name, want, expected in _TYPED_FIELDS[type(obj)]:
        value = getattr(obj, name)
        if (tuple(map(type, value)) if type(value) is tuple else type(value)) != want:
            return f"{name} must be {expected}, got {value!r}"
    return None


@dataclass(frozen=True)
class ModelSpec:
    """A layer list whose wiring :func:`validate_spec` has checked; a spec that
    fails the check cannot be constructed."""

    layers: tuple[Layer, ...]
    meta: ModelMeta

    def __post_init__(self):
        validate_spec(self)

    def convs(self) -> list[tuple[int, Conv]]:
        return [(i, l) for i, l in enumerate(self.layers) if isinstance(l, Conv)]

    @cached_property
    def structural_json(self) -> str:
        """:func:`structural_key` as compact, key-sorted JSON, built once per spec."""
        return canonical_json(structural_key(self))


@dataclass(frozen=True)
class ChannelConfig:
    """Channel vector plus its macroblock boundaries.

    ``channels[0]`` is the input channel count and is never transformed.
    ``macroblock_starts`` lists the first channel index of each block; blocks are
    contiguous, cover 1..N, and the first start is always 1.
    """

    channels: tuple[int, ...]
    macroblock_starts: tuple[int, ...]

    def __post_init__(self):
        if len(self.channels) < 2:
            raise ValueError("channel vector needs the input entry plus at least one conv entry")
        for i, c in enumerate(self.channels):  # a bool equals 1 but is sent as true
            if type(c) is not int or c < 1:
                raise ValueError(f"channel entry {i} must be a positive integer, got {c!r}")
        starts = self.macroblock_starts
        if not starts:
            raise ValueError("macroblock_starts must not be empty")
        if any(type(s) is not int for s in starts):
            raise ValueError(f"macroblock_starts must be integers, got {starts!r}")
        if starts[0] != 1:
            raise ValueError(f"first macroblock must start at channel 1, got {starts[0]}")
        n = self.num_entries
        for a, b in zip(starts, starts[1:]):
            if b <= a:
                raise ValueError("macroblock_starts must be strictly increasing")
        if starts[-1] > n:
            raise ValueError(f"macroblock start {starts[-1]} beyond last channel index {n}")

    @property
    def num_entries(self) -> int:
        return len(self.channels) - 1

    def block_channels(self, block: int) -> tuple[int, ...]:
        stops = self.macroblock_starts[1:] + (len(self.channels),)
        return self.channels[self.macroblock_starts[block]:stops[block]]

    def replace_entries(self, updates: dict[int, int]) -> "ChannelConfig":
        for i in updates:
            if not 1 <= i <= self.num_entries:
                raise ValueError(f"channel index {i} out of range 1..{self.num_entries}")
        chans = tuple(updates.get(i, c) for i, c in enumerate(self.channels))
        return ChannelConfig(chans, self.macroblock_starts)

    def to_dict(self) -> dict:
        return {"channels": list(self.channels), "macroblock_starts": list(self.macroblock_starts)}


@dataclass(frozen=True)
class Macroblock:
    index: int
    layer_range: tuple[int, int]   # half-open over spec.layers
    entry_range: tuple[int, int]   # half-open over channel indices
    widths: tuple[int, ...]        # nominal width per owned entry

    @property
    def search_width(self) -> int:
        # Finest lattice for the bisection loop guard on non-uniform blocks.
        return max(self.widths)


@dataclass(frozen=True)
class MacroblockPartition:
    blocks: tuple[Macroblock, ...]

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def macroblock_starts(self) -> tuple[int, ...]:
        return tuple(b.entry_range[0] for b in self.blocks)


class SpecBuilder:
    """Writes a model conv by conv and numbers its channel entries.

    ``widths`` holds the width of each entry, entry 0 being the input. Callers
    may append parameter-free layers (pools) to ``layers`` directly.
    """

    def __init__(self, meta: ModelMeta):
        self.meta = meta
        self.layers: list[Layer] = []
        self.widths = [meta.input_channels]

    def conv(self, kernel: tuple[int, int], src: int, width: int | None = None, *,
             scale: int, stride: int = 1, depthwise: bool = False) -> int:
        """Append a conv reading entry ``src`` and its batchnorm; return the entry
        written: a new one of ``width`` channels, or ``src`` for a depthwise conv."""
        out = src if depthwise else len(self.widths)
        if not depthwise:
            self.widths.append(width)
        width = self.widths[out]
        self.layers += [Conv(kernel, self.widths[src], width, in_ref=src, out_ref=out,
                             stride=stride, scale=scale, depthwise=depthwise),
                        BatchNorm(width, ref=out)]
        return out

    def build(self, src: int) -> ModelSpec:
        """Close with global average pooling and a classifier reading entry ``src``."""
        self.layers += [GlobalAvgPool(),
                        FullyConnected(self.widths[src], self.meta.num_classes, in_ref=src)]
        return ModelSpec(tuple(self.layers), self.meta)


def build_sequential_cnn(depth: int, block_widths: Sequence[int], input_channels: int = 3,
                         num_classes: int = 10, *, dataset: str = "cifar10",
                         resolution: int = 32, name: str | None = None) -> ModelSpec:
    """Plain CNN: ``depth`` 3x3 conv+batchnorm layers split evenly over
    ``len(block_widths)`` macroblocks, a parameter-free 2x2 pool between blocks,
    then global average pooling and a single fully connected classifier."""
    blocks = len(block_widths)
    if blocks < 1:
        raise ValueError("need at least one macroblock width")
    if depth < blocks:
        raise ValueError(f"depth {depth} smaller than number of blocks {blocks}")
    if depth % blocks != 0:
        raise ValueError(f"depth {depth} not divisible by number of blocks {blocks}")
    for w in block_widths:
        if not isinstance(w, int) or w < 1:
            raise ValueError(f"block widths must be positive integers, got {w!r}")
    if input_channels < 1 or num_classes < 1:
        raise ValueError("input_channels and num_classes must be >= 1")

    name = name or "sequential-d{}-{}".format(depth, "-".join(str(w) for w in block_widths))
    builder = SpecBuilder(ModelMeta(name, dataset, num_classes, input_channels, resolution))
    entry = 0
    for b, width in enumerate(block_widths):
        if b:
            builder.layers.append(Pool(pool="max", window=2, stride=2))
        for _ in range(depth // blocks):
            entry = builder.conv((3, 3), entry, width, scale=2 ** b)
    return builder.build(entry)


def validate_spec(spec: ModelSpec) -> None:
    """Check each field's declared type, ref wiring and literal channel counts;
    every :class:`ModelSpec` runs it once, when constructed. Raises ValueError
    (TypeError: unknown kind)."""
    if error := _type_error(spec.meta):
        raise ValueError(f"model {error}")
    entries: list[int] = []  # nominal width per entry, index 1-based via offset
    n0 = spec.meta.input_channels

    def resolve(ref: int) -> int:
        if ref == 0:
            return n0
        if not 1 <= ref <= len(entries):
            raise ValueError(f"channel ref {ref} not yet defined")
        return entries[ref - 1]

    fc_seen = 0
    for idx, layer in enumerate(spec.layers):
        kind = _kind_of(layer)
        if error := _type_error(layer):
            raise ValueError(f"layer {idx}: {kind.kind} {error}")
        if isinstance(layer, Conv):
            if (layer.out_ref == layer.in_ref) != layer.depthwise:
                raise ValueError(f"layer {idx}: a conv shares its input entry exactly when "
                                 f"it is depthwise")
            if not layer.depthwise:
                if layer.out_ref != len(entries) + 1:
                    raise ValueError(f"layer {idx}: conv out_ref {layer.out_ref} breaks entry order "
                                     f"(expected {len(entries) + 1})")
                entries.append(layer.out_channels)
            if layer.out_channels < 1 or layer.in_channels < 1:
                raise ValueError(f"layer {idx}: channel counts must be >= 1")
            if layer.stride < 1 or layer.scale < 1 or min(layer.kernel) < 1:
                raise ValueError(f"layer {idx}: conv kernel, stride and scale must be >= 1")
        elif isinstance(layer, Pool):
            if layer.window < 1 or layer.stride < 1:
                raise ValueError(f"layer {idx}: pool window and stride must be >= 1")
        elif isinstance(layer, FullyConnected):
            fc_seen += 1
            if layer.out_features < 1:
                raise ValueError(f"layer {idx}: out_features must be >= 1")
        for width, ref in kind.wiring:
            if getattr(layer, width) != resolve(getattr(layer, ref)):
                raise ValueError(f"layer {idx}: {layer.kind} {width} {getattr(layer, width)} "
                                 f"does not match ref {getattr(layer, ref)}")
    if fc_seen > 1:
        raise ValueError("at most one fully connected classification head is supported")


def partition_macroblocks(spec: ModelSpec) -> MacroblockPartition:
    """Group consecutive conv layers whose outputs share a spatial scale.

    Every conv (depthwise included) belongs to the macroblock of its output scale;
    batchnorm/pool layers attach to the block of the preceding conv, and the last
    block ends at the head. Raises ValueError when the model has no conv layers
    or a block owns no channel entry.
    """
    convs = spec.convs()
    if not convs:
        raise ValueError("model has no convolution layers to partition")
    head = next((idx for idx, layer in enumerate(spec.layers)
                 if isinstance(layer, (GlobalAvgPool, FullyConnected))), len(spec.layers))
    runs = [list(run) for _, run in groupby(convs, key=lambda pos: pos[1].scale)]
    stops = [run[0][0] for run in runs[1:]] + [head]

    blocks: list[Macroblock] = []
    for i, (run, stop) in enumerate(zip(runs, stops)):
        # Entry ownership comes from non-depthwise convs only.
        owned = [conv for _, conv in run if not conv.depthwise]
        if not owned:
            raise ValueError("macroblock with only depthwise convs has no channel entries")
        blocks.append(Macroblock(index=i, layer_range=(run[0][0], stop),
                                 entry_range=(owned[0].out_ref, owned[-1].out_ref + 1),
                                 widths=tuple(conv.out_channels for conv in owned)))
    return MacroblockPartition(tuple(blocks))


def channel_config(spec: ModelSpec) -> ChannelConfig:
    """Extract the nominal channel vector with macroblock boundaries."""
    partition = partition_macroblocks(spec)
    entries = [l.out_channels for _, l in spec.convs() if not l.depthwise]
    return ChannelConfig((spec.meta.input_channels, *entries), partition.macroblock_starts)


def with_config(spec: ModelSpec, config: ChannelConfig) -> ModelSpec:
    """Rebuild the descriptor with literal channel counts taken from ``config``."""
    nominal_entries = sum(1 for _, l in spec.convs() if not l.depthwise)
    if config.num_entries != nominal_entries:
        raise ValueError(f"config has {config.num_entries} entries, model needs {nominal_entries}")
    if config.channels[0] != spec.meta.input_channels:
        raise ValueError(f"input channel entry is immutable "
                         f"({config.channels[0]} != {spec.meta.input_channels})")
    layers = [replace(layer, **{width: config.channels[getattr(layer, ref)]
                                for width, ref in layer.wiring})
              for layer in spec.layers]
    return ModelSpec(tuple(layers), spec.meta)


def structural_key(spec: ModelSpec) -> list:
    """Canonical architecture skeleton, independent of channel widths and labels.

    Feeds the evaluation digest: permuting metadata labels leaves it unchanged,
    while any structural edit (layer kinds, kernels, wiring, head size) moves it.
    """
    key: list = [["input", spec.meta.input_channels]]
    for layer in spec.layers:
        if layer.key_fields is None:
            continue
        row = [layer.kind]
        for name in layer.key_fields:
            value = getattr(layer, name)
            row += value if isinstance(value, tuple) else [value]
        key.append([int(v) if isinstance(v, bool) else v for v in row])
    return key


# ---------------------------------------------------------------------------
# Width transforms. All pure: they return a new ChannelConfig.

def apply_constant_lesion(config: ChannelConfig, index: int, value: int) -> ChannelConfig:
    """Set channel entry ``index`` to the constant ``value`` (one-hot lesion). A
    lesion narrows: ``value`` is at most the entry's width in ``config``."""
    lesioned = config.replace_entries({index: value})   # checks index and value
    if value > config.channels[index]:
        raise ValueError(f"lesion width {value} exceeds entry {index}'s "
                         f"{config.channels[index]} channels")
    return lesioned


def apply_proportional_lesion(config: ChannelConfig, index: int, k: Rational) -> ChannelConfig:
    """Scale channel entry ``index`` to ceil(k * n_index), 0 < k <= 1."""
    if not 1 <= index <= config.num_entries:
        raise ValueError(f"channel index {index} out of range 1..{config.num_entries}")
    return config.replace_entries({index: scale_width(config.channels[index], k)})


def apply_macroblock_scale(config: ChannelConfig, partition: MacroblockPartition,
                           block: int, k: Rational) -> ChannelConfig:
    """Ceiling-scale every entry of one macroblock by k."""
    if not 0 <= block < partition.num_blocks:
        raise ValueError(f"block index {block} out of range 0..{partition.num_blocks - 1}")
    start, stop = partition.blocks[block].entry_range
    if stop > config.num_entries + 1:
        raise ValueError("partition does not match this channel vector")
    return _scale_entries(config, range(start, stop), k)


def apply_alpha_scaling(config: ChannelConfig, alpha: Rational) -> ChannelConfig:
    """Uniformly ceiling-scale every output channel entry by the width multiplier."""
    return _scale_entries(config, range(1, config.num_entries + 1), alpha)


def _scale_entries(config: ChannelConfig, entries: range, k: Rational) -> ChannelConfig:
    """Ceiling-scale the given entries by k, as scale_width does, checking k once."""
    num, den = _scale_ratio(k)
    return config.replace_entries({i: -((-num * config.channels[i]) // den) for i in entries})
