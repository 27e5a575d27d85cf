"""Descriptor construction, macroblock partitioning, and the width transforms."""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import textwrap
from dataclasses import dataclass, fields
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chanreduce as cr
from chanreduce.arch import _META_DEFAULTS, LAYER_KINDS

README = Path(__file__).resolve().parent.parent / "README.md"


# -- exact ceiling scaling ---------------------------------------------------


def test_scale_width_known_values():
    assert cr.scale_width(64, Fraction(3, 4)) == 48
    assert cr.scale_width(64, 0.515625) == 33
    assert cr.scale_width(16, 0.9375) == 15
    assert cr.scale_width(5, Fraction(1, 2)) == 3
    assert cr.scale_width(7, 1) == 7


def test_scale_width_float_snapping():
    # Floats are snapped to a nearby exact rational before the ceiling, so
    # binary representation error cannot push the result up a channel.
    assert cr.scale_width(100, 0.7) == 70
    assert cr.scale_width(30, 0.1) == 3
    assert cr.scale_width(10, 0.75) == 8


def test_scale_width_rejects_bad_factors():
    with pytest.raises(ValueError):
        cr.scale_width(8, 0)
    with pytest.raises(ValueError):
        cr.scale_width(8, 1.5)
    with pytest.raises(ValueError):
        cr.scale_width(8, float("nan"))
    with pytest.raises(TypeError):
        cr.scale_width(8, "0.5")


@given(w=st.integers(1, 4096),
       k=st.fractions(min_value=Fraction(1, 1000), max_value=1))
def test_scale_width_is_exact_ceiling(w, k):
    r = cr.scale_width(w, k)
    assert r >= 1
    assert k * w <= r < k * w + 1


@given(w=st.integers(1, 1024),
       k1=st.fractions(min_value=Fraction(1, 100), max_value=1),
       k2=st.fractions(min_value=Fraction(1, 100), max_value=1))
def test_scale_width_monotone(w, k1, k2):
    if k1 > k2:
        k1, k2 = k2, k1
    assert cr.scale_width(w, k1) <= cr.scale_width(w, k2)


# -- sequential builder ------------------------------------------------------


def test_build_sequential_channel_vector(d15_spec):
    cfg = cr.channel_config(d15_spec)
    assert cfg.channels == (3, 16, 16, 16, 16, 16, 32, 32, 32, 32, 32,
                            64, 64, 64, 64, 64)
    assert cfg.macroblock_starts == (1, 6, 11)


def test_build_sequential_layer_plan(d15_spec):
    kinds = [type(l).__name__ for l in d15_spec.layers]
    # 5 conv+bn pairs per block, a pool between blocks, then the head.
    assert kinds.count("Conv") == 15
    assert kinds.count("BatchNorm") == 15
    assert kinds.count("Pool") == 2
    assert kinds[-2:] == ["GlobalAvgPool", "FullyConnected"]
    head = d15_spec.layers[-1]
    assert head.in_features == 64 and head.out_features == 10


def test_build_sequential_small_variants():
    tiny = cr.build_sequential_cnn(3, [8], 3, 10)
    assert cr.channel_config(tiny).channels == (3, 8, 8, 8)
    wide = cr.build_sequential_cnn(12, [32, 64, 128], num_classes=100)
    cfg = cr.channel_config(wide)
    assert cfg.channels == (3, 32, 32, 32, 32, 64, 64, 64, 64, 128, 128, 128, 128)
    assert wide.layers[-1].out_features == 100


def test_build_sequential_rejects_bad_shapes():
    with pytest.raises(ValueError):
        cr.build_sequential_cnn(14, [16, 32, 64])   # depth not divisible
    with pytest.raises(ValueError):
        cr.build_sequential_cnn(2, [16, 32, 64])
    with pytest.raises(ValueError):
        cr.build_sequential_cnn(15, [])
    with pytest.raises(ValueError):
        cr.build_sequential_cnn(15, [16, 0, 64])


# -- partitioning ------------------------------------------------------------


def test_partition_by_scale(d15_spec, d15_partition):
    assert d15_partition.num_blocks == 3
    assert [b.search_width for b in d15_partition.blocks] == [16, 32, 64]
    assert d15_partition.macroblock_starts == (1, 6, 11)
    for block in d15_partition.blocks:
        assert set(block.widths) == {block.search_width}
    # Layer ranges cover the conv trunk without overlap.
    stops = [b.layer_range for b in d15_partition.blocks]
    assert stops[0][1] == stops[1][0] and stops[1][1] == stops[2][0]


def test_partition_needs_convs():
    meta = cr.ModelMeta("fc-only", "cifar10", 10, 3, 32)
    spec = cr.ModelSpec((cr.GlobalAvgPool(), cr.FullyConnected(3, 10, in_ref=0)), meta)
    with pytest.raises(ValueError):
        cr.partition_macroblocks(spec)


def test_partition_resnet34():
    part = cr.partition_macroblocks(cr.resnet34())
    assert part.num_blocks == 5
    assert [b.search_width for b in part.blocks] == [64, 64, 128, 256, 512]
    for block in part.blocks:
        assert set(block.widths) == {block.search_width}


def test_partition_mobilenet():
    part = cr.partition_macroblocks(cr.mobilenet())
    assert part.num_blocks == 5
    # The stem block mixes widths 32 and 64.
    assert part.blocks[0].widths == (32, 64)
    assert [b.search_width for b in part.blocks[1:]] == [128, 256, 512, 1024]
    assert part.blocks[0].search_width == 64


def test_depthwise_share_stream_entry():
    spec = cr.mobilenet()
    for _, conv in spec.convs():
        if conv.depthwise:
            assert conv.out_ref == conv.in_ref
            assert conv.in_channels == conv.out_channels


def test_validate_rejects_inconsistent_channels():
    spec = cr.build_sequential_cnn(3, [8])
    broken = list(spec.layers)
    broken[2] = cr.Conv((3, 3), 99, 8, in_ref=1, out_ref=2, scale=1)
    with pytest.raises(ValueError):
        cr.ModelSpec(tuple(broken), spec.meta)


def _conv(in_channels, out_channels, in_ref, out_ref, **extra):
    return {"kind": "conv", "kernel": [3, 3], "in": in_channels, "out": out_channels,
            "in_ref": in_ref, "out_ref": out_ref, **extra}


def _fc(in_features, out_features, in_ref):
    return {"kind": "fully_connected", "in": in_features, "out": out_features,
            "in_ref": in_ref}


@pytest.mark.parametrize("layers,error", [
    ([_conv(3, 8, 0, 1), {"kind": "batchnorm", "channels": 8, "ref": 2}],
     "channel ref 2 not yet defined"),
    ([_conv(3, 3, 0, 1, depthwise=True)],
     "layer 0: a conv shares its input entry exactly when it is depthwise"),
    ([_conv(3, 8, 0, 1), _conv(8, 8, 1, 1)],
     "layer 1: a conv shares its input entry exactly when it is depthwise"),
    ([_conv(3, 8, 0, 2)], "layer 0: conv out_ref 2 breaks entry order (expected 1)"),
    ([_conv(3, 0, 0, 1)], "layer 0: conv out_channels must be >= 1, got 0"),
    ([_conv(3, 8, 0, 1), _fc(8, 0, 1)], "layer 1: fully_connected out_features must be >= 1, "
     "got 0"),
    ([_conv(3, 8, 0, 1), _fc(8, 10, 1), _fc(8, 10, 1)],
     "at most one fully connected classification head is supported"),
], ids=["undefined-ref", "depthwise-with-a-new-entry", "plain-conv-on-its-input-entry",
        "entry-out-of-order", "zero-channels", "zero-out-features", "second-fc-head"])
def test_descriptor_refusals(layers, error):
    with pytest.raises(ValueError) as err:
        cr.spec_from_dict({"num_classes": 10, "layers": layers})
    assert str(err.value) == error


def _head(width, **conv):
    """A one-conv descriptor of ``width`` channels and its classifier."""
    return [_conv(3, width, 0, 1, **conv), {"kind": "batchnorm", "channels": width, "ref": 1},
            {"kind": "global_avg_pool"}, _fc(width, 10, 1)]


@pytest.mark.parametrize("header,layers,error", [
    ({}, _head(8.5), "layer 0: conv out_channels must be an integer, got 8.5"),
    ({}, _head(8, kernel="33"), "layer 0: conv kernel must be a pair of integers, got '33'"),
    ({}, _head(True), "layer 0: conv out_channels must be an integer, got True"),
    ({"num_classes": "10"}, _head(8), "model num_classes must be an integer, got '10'"),
    ({}, _head(8, depthwise=0), "layer 0: conv depthwise must be a boolean, got 0"),
    ({}, _head(8)[:2] + [{"kind": "pool", "window": 2.0}], "layer 2: pool window must be an "
     "integer, got 2.0"),
    ({}, _head(8)[:2] + [{"kind": "pool", "pool": 1}], "layer 2: pool pool must be a string, "
     "got 1"),
    ({"name": None}, _head(8), "model name must be a string, got None"),
    ({}, _head(8, strides=2), "layer 0: conv has no key 'strides'"),
    ({"resolutoin": 64}, _head(8), "model has no key 'resolutoin'"),
], ids=["fractional-width", "string-kernel", "boolean-width", "string-class-count",
        "integer-depthwise", "float-pool-window", "numeric-pool-kind", "null-name",
        "unknown-layer-key", "unknown-header-key"])
def test_descriptor_numbers_have_their_declared_types(header, layers, error):
    with pytest.raises(ValueError) as err:
        cr.spec_from_dict({"num_classes": 10, **header, "layers": layers})
    assert str(err.value) == error


def test_a_pool_stride_left_out_is_the_window():
    pool = cr.spec_from_dict({"num_classes": 10, "layers": [{"kind": "pool", "window": 3}]})
    assert pool.layers[0].stride == 3
    with pytest.raises(ValueError, match="^layer 0: pool stride must be an integer, got 1.5$"):
        cr.spec_from_dict({"num_classes": 10, "layers": [{"kind": "pool", "stride": 1.5}]})


def test_partition_refuses_a_block_of_only_depthwise_convs():
    # Valid wiring, but the scale-2 run owns no channel entry to scale.
    spec = cr.spec_from_dict({"num_classes": 10, "layers": [
        _conv(3, 8, 0, 1), _conv(8, 8, 1, 1, depthwise=True, scale=2),
        {"kind": "global_avg_pool"}, _fc(8, 10, 1)]})
    with pytest.raises(ValueError,
                       match="^macroblock with only depthwise convs has no channel entries$"):
        cr.partition_macroblocks(spec)


# -- config round trips ------------------------------------------------------


def test_with_config_identity(d15_spec):
    assert cr.with_config(d15_spec, cr.channel_config(d15_spec)) == d15_spec


def test_with_config_rewrites_all_literals(d15_spec):
    cfg = cr.channel_config(d15_spec)
    reduced = cr.with_config(d15_spec, cfg.replace_entries({i: 33 for i in range(11, 16)}))
    assert cr.channel_config(reduced).channels[11:] == (33,) * 5
    assert reduced.layers[-1].in_features == 33


def test_with_config_input_entry_immutable(d15_spec):
    cfg = cr.channel_config(d15_spec)
    bad = cr.ChannelConfig((4,) + cfg.channels[1:], cfg.macroblock_starts)
    with pytest.raises(ValueError):
        cr.with_config(d15_spec, bad)


def test_channel_config_validation():
    with pytest.raises(ValueError):
        cr.ChannelConfig((3, 16), (2,))           # first start must be 1
    with pytest.raises(ValueError):
        cr.ChannelConfig((3, 16, 16), (1, 1))     # strictly increasing
    with pytest.raises(ValueError):
        cr.ChannelConfig((3, 16, 0), (1,))        # positive widths
    with pytest.raises(ValueError):
        cr.ChannelConfig((3,), (1,))
    with pytest.raises(ValueError, match="^macroblock_starts must not be empty$"):
        cr.ChannelConfig((3, 16), ())
    with pytest.raises(ValueError, match="^macroblock start 3 beyond last channel index 2$"):
        cr.ChannelConfig((3, 16, 16), (1, 3))


@pytest.mark.parametrize("channels,starts,message", [
    ((3, True, 4, 4), (1,), "^channel entry 1 must be a positive integer, got True$"),
    ((3, 4, 4, 4), (True,), "^macroblock_starts must be integers, got \\(True,\\)$"),
    ((3, 4, 4, 4), (1, 2.0), "^macroblock_starts must be integers, got \\(1, 2.0\\)$")],
    ids=["bool-entry", "bool-start", "float-start"])
def test_channel_config_refuses_bools_and_floats(channels, starts, message):
    # True == 1, so the config would equal (3, 1, 4, 4) while its digest and
    # request differ.
    with pytest.raises(ValueError, match=message):
        cr.ChannelConfig(channels, starts)


def test_with_config_refuses_a_wrong_entry_count(d15_spec):
    with pytest.raises(ValueError, match="^config has 2 entries, model needs 15$"):
        cr.with_config(d15_spec, cr.ChannelConfig((3, 16, 16), (1,)))


def test_block_channels_for_every_block_index(d15_spec):
    cfg = cr.channel_config(cr.mobilenet(0.5))
    blocks = [cfg.block_channels(b) for b in range(len(cfg.macroblock_starts))]
    assert blocks == [(16, 32), (64, 64), (128, 128), (256,) * 6, (512, 512)]
    for b in range(1, len(blocks) + 1):
        assert cfg.block_channels(-b) == blocks[-b]
    for b in (5, -6):
        with pytest.raises(IndexError):
            cfg.block_channels(b)
    d15 = cr.channel_config(d15_spec)
    assert [d15.block_channels(b) for b in (-3, -2, -1)] == \
        [(16,) * 5, (32,) * 5, (64,) * 5]


# -- transforms --------------------------------------------------------------


def test_constant_lesion_rows(d15_spec):
    cfg = cr.channel_config(d15_spec)
    h1 = cr.apply_constant_lesion(cfg, 1, 4)
    assert h1.channels == (3, 4, 16, 16, 16, 16, 32, 32, 32, 32, 32,
                           64, 64, 64, 64, 64)
    h14 = cr.apply_constant_lesion(cfg, 14, 4)
    assert h14.channels == (3, 16, 16, 16, 16, 16, 32, 32, 32, 32, 32,
                            64, 64, 64, 4, 64)
    # The untouched config is not mutated.
    assert cfg.channels[1] == 16 and cfg.channels[14] == 64


def test_constant_lesion_only_narrows(d15_spec):
    cfg = cr.channel_config(d15_spec)
    assert cr.apply_constant_lesion(cfg, 1, 16) == cfg
    with pytest.raises(ValueError, match="lesion width 17 exceeds entry 1's 16 channels"):
        cr.apply_constant_lesion(cfg, 1, 17)
    narrowed = cr.apply_constant_lesion(cfg, 14, 4)
    with pytest.raises(ValueError, match="exceeds entry 14's 4 channels"):
        cr.apply_constant_lesion(narrowed, 14, 8)
    for bad in (0, 16):
        with pytest.raises(ValueError, match="out of range 1..15"):
            cr.apply_constant_lesion(cfg, bad, 4)


def test_proportional_lesion(d15_spec):
    cfg = cr.channel_config(d15_spec)
    assert cr.apply_proportional_lesion(cfg, 12, Fraction(1, 16)).channels[12] == 4
    assert cr.apply_proportional_lesion(cfg, 6, Fraction(1, 8)).channels[6] == 4
    with pytest.raises(ValueError):
        cr.apply_proportional_lesion(cfg, 0, Fraction(1, 2))


def test_macroblock_scale(d15_spec, d15_partition):
    cfg = cr.channel_config(d15_spec)
    b2 = cr.apply_macroblock_scale(cfg, d15_partition, 2, Fraction(15, 16))
    assert b2.block_channels(2) == (60,) * 5
    assert b2.block_channels(0) == (16,) * 5
    b1 = cr.apply_macroblock_scale(cfg, d15_partition, 1, Fraction(11, 16))
    assert b1.block_channels(1) == (22,) * 5


def test_macroblock_scale_refusals(d15_spec, d15_partition):
    cfg = cr.channel_config(d15_spec)
    for block in (3, -1):
        with pytest.raises(ValueError, match=rf"^block index {block} out of range 0\.\.2$"):
            cr.apply_macroblock_scale(cfg, d15_partition, block, Fraction(1, 2))
    resnet = cr.partition_macroblocks(cr.resnet34())
    with pytest.raises(ValueError, match="^partition does not match this channel vector$"):
        cr.apply_macroblock_scale(cfg, resnet, 4, Fraction(1, 2))


def test_alpha_scaling(d15_spec):
    half = cr.apply_alpha_scaling(cr.channel_config(d15_spec), Fraction(1, 2))
    assert half.channels == (3, 8, 8, 8, 8, 8, 16, 16, 16, 16, 16,
                             32, 32, 32, 32, 32)
    wide = cr.build_sequential_cnn(12, [32, 64, 128])
    scaled = cr.apply_alpha_scaling(cr.channel_config(wide), Fraction(1, 2))
    assert set(scaled.block_channels(0)) == {16}
    assert set(scaled.block_channels(1)) == {32}
    assert set(scaled.block_channels(2)) == {64}
    odd = cr.apply_alpha_scaling(cr.channel_config(d15_spec), 0.7)
    assert odd.channels[1] == 12 and odd.channels[6] == 23 and odd.channels[11] == 45


@given(alpha=st.fractions(min_value=Fraction(1, 16), max_value=1))
@settings(max_examples=50)
def test_alpha_scaling_bounds(alpha):
    spec = cr.build_sequential_cnn(6, [16, 32])
    cfg = cr.channel_config(spec)
    scaled = cr.apply_alpha_scaling(cfg, alpha)
    assert scaled.channels[0] == cfg.channels[0]
    for i in range(1, cfg.num_entries + 1):
        assert scaled.channels[i] == cr.scale_width(cfg.channels[i], alpha)
    if alpha == 1:
        assert scaled == cfg


TRANSFORM_MODELS = [lambda: cr.build_sequential_cnn(15, [16, 32, 64]), cr.resnet34,
                    lambda: cr.mobilenet(0.5)]


@pytest.mark.parametrize("build", TRANSFORM_MODELS, ids=["d15", "resnet34", "mobilenet-0.5"])
def test_block_and_alpha_scaling_equal_per_entry_scale_width(build):
    spec = build()
    cfg = cr.channel_config(spec)
    partition = cr.partition_macroblocks(spec)
    for k in (1, 0.7, 0.125, Fraction(1, 3), Fraction(11, 16), 3 / 4):
        scaled = tuple(cr.scale_width(c, k) for c in cfg.channels)
        assert cr.apply_alpha_scaling(cfg, k).channels == cfg.channels[:1] + scaled[1:]
        for b, block in enumerate(partition.blocks):
            start, stop = block.entry_range
            expected = cfg.channels[:start] + scaled[start:stop] + cfg.channels[stop:]
            assert cr.apply_macroblock_scale(cfg, partition, b, k).channels == expected


@pytest.mark.parametrize("build", TRANSFORM_MODELS, ids=["d15", "resnet34", "mobilenet-0.5"])
@pytest.mark.parametrize("k", [0, 1.5, -0.5, float("nan"), float("inf"), "0.5"])
def test_block_and_alpha_scaling_refuse_a_factor_as_scale_width_does(build, k):
    spec = build()
    cfg = cr.channel_config(spec)
    partition = cr.partition_macroblocks(spec)
    with pytest.raises((TypeError, ValueError)) as want:
        cr.scale_width(cfg.channels[1], k)
    transforms = [lambda: cr.apply_alpha_scaling(cfg, k)]
    transforms += [lambda b=b: cr.apply_macroblock_scale(cfg, partition, b, k)
                   for b in range(partition.num_blocks)]
    for transform in transforms:
        with pytest.raises(type(want.value)) as got:
            transform()
        assert type(got.value) is type(want.value) and str(got.value) == str(want.value)


# -- presets and descriptor files --------------------------------------------


def test_descriptor_round_trip(tmp_path):
    for spec in (cr.build_sequential_cnn(6, [8, 12], num_classes=7),
                 cr.resnet18(), cr.mobilenet(0.75)):
        path = tmp_path / f"{spec.meta.name}.json"
        cr.save_descriptor(spec, path)
        loaded = cr.load_descriptor(path)
        assert loaded == spec


def test_descriptor_bytes_golden(tmp_path, d15_spec):
    # save_descriptor output is a file format; these bytes must not move.
    for spec, sha in (
            (d15_spec, "4e0223283f76d734b9d3c495edd244318377c2a7df33a9d2b3c9dc0990c11fd1"),
            (cr.resnet34(), "30e33bbc35c5e506a6ade6ef2ce1db3c6d5b834f32c3221cb7a0a643ef5670f6"),
            (cr.mobilenet(0.75),
             "17855facf8bfc4f81ce963f1c09e5abf8bc8353432a9d585b8c4b0c9d98c854a"),
            (cr.resnet18(), "e91657a86e1ffec99c6907053a609f7112571b2e692a538fffa2e4310c0d175d"),
            (cr.resnet34(num_classes=10),
             "f33a7ebae1dccb967dde090e4ef177f21bea821392eabcda5a2dbe083968d826"),
            (cr.mobilenet(1.0),
             "dcd8e599e60308da8386b3623772dee54c813756bc65a212e302496afec2cbbf"),
            (cr.mobilenet(0.5),
             "f9c27cc8769330b7b27a5d8ae5b31cea2a053e26ef242dfb71ca31c6c01a282d"),
            (cr.build_sequential_cnn(6, [4, 4, 4], 1, 2, dataset="x", resolution=64),
             "ed4f97467a5ba5a14ffe22241e31aedf1481aede51363a904905fc2d36169033")):
        path = tmp_path / "model.json"
        cr.save_descriptor(spec, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == sha, spec.meta.name


def test_descriptor_files_are_utf8_whatever_the_locale(tmp_path):
    # A descriptor written on one machine must load on another: both ends name
    # their encoding, so an interpreter warning on the locale default stays quiet.
    script = textwrap.dedent("""\
        import sys
        import chanreduce as cr
        spec = cr.build_sequential_cnn(6, [8, 12])
        cr.save_descriptor(spec, sys.argv[1])
        assert cr.load_descriptor(sys.argv[1]) == spec
        """)
    path = tmp_path / "model.json"
    src = str(Path(cr.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-X", "warn_default_encoding",
                           "-W", "error::EncodingWarning", "-c", script, str(path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_descriptor_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"layers": "nope"}')
    with pytest.raises(ValueError):
        cr.load_descriptor(path)
    path.write_text("not json")
    with pytest.raises(ValueError):
        cr.load_descriptor(path)
    for kernel in (3, [3, 3, 3]):
        conv = {"kind": "conv", "kernel": kernel, "in": 3, "out": 4, "in_ref": 0, "out_ref": 1}
        path.write_text(json.dumps({"num_classes": 10, "layers": [conv]}))
        with pytest.raises(ValueError):
            cr.load_descriptor(path)


@pytest.mark.parametrize("layers", [["conv"], "conv"])
def test_descriptor_layer_must_be_an_object(tmp_path, layers):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"num_classes": 10, "layers": layers}))
    with pytest.raises(ValueError, match="layer must be a JSON object"):
        cr.load_descriptor(path)


def test_descriptor_defaults():
    # Keys a descriptor may leave out; the README lists them.
    spec = cr.spec_from_dict({"num_classes": 10, "layers": [
        {"kind": "conv", "kernel": [3, 3], "in": 3, "out": 8, "in_ref": 0, "out_ref": 1},
        {"kind": "batchnorm", "channels": 8, "ref": 1},
        {"kind": "pool", "window": 3},
        {"kind": "pool"},
        {"kind": "global_avg_pool"},
        {"kind": "fully_connected", "in": 8, "out": 10, "in_ref": 1}]})
    conv, _, pool3, pool, _, fc = spec.layers
    assert conv == cr.Conv((3, 3), 3, 8, in_ref=0, out_ref=1, stride=1, scale=1,
                           depthwise=False, has_bias=False)
    assert pool3 == cr.Pool("max", window=3, stride=3)
    assert pool == cr.Pool("max", window=2, stride=2)
    assert fc.has_bias is True
    assert spec.meta == cr.ModelMeta("descriptor", "unknown", 10, 3, 224)
    with pytest.raises(ValueError, match="unknown layer kind 'fire'"):
        cr.spec_from_dict({"num_classes": 10, "layers": [{"kind": "fire"}]})


def test_readme_descriptor_table_is_the_layer_classes():
    """The README's descriptor key table lists, per layer kind, the keys its
    class declares (field names through ``renamed``), and its header sentence
    ModelMeta's fields with the descriptor defaults."""
    text = README.read_text(encoding="utf-8").split("## Model descriptors", 1)[1]
    table = text.split("| kind | keys (default) |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    documented = {}
    for row in table.splitlines():
        kind, keys = re.match(r"\| `(\w+)` \| (.*) \|$", row).groups()
        documented[kind] = re.findall(r"`(\w+)`", keys)
    assert documented == {cls.kind: [cls.renamed.get(f.name, f.name) for f in fields(cls)]
                          for cls in LAYER_KINDS}

    header = " ".join(text.split("`ModelMeta` fields:", 1)[1].split(". `layers`", 1)[0].split())
    pairs = re.findall(r"`(\w+)` \((?:default )?`?([^`)]*)`?\)", header)
    assert pairs == [(f.name, str(_META_DEFAULTS.get(f.name, "required")))
                     for f in fields(cr.ModelMeta)]


@dataclass(frozen=True)
class _Dummy:
    channels: int = 4


def test_unregistered_layer_kind_fails_loudly(d15_spec):
    # A layer of a class outside LAYER_KINDS must not be dropped from the digest,
    # passed through width rewrites or counted as parameter-free, so a spec
    # holding one cannot be constructed.
    layers = d15_spec.layers
    with pytest.raises(TypeError, match="_Dummy"):
        cr.ModelSpec(layers[:-2] + (_Dummy(),) + layers[-2:], d15_spec.meta)


def test_every_layer_kind_counts_its_own_scalars():
    # No inherited default: a kind that forgot scalars() would count as parameter-free.
    assert not hasattr(cr.arch.LayerKind, "scalars")
    for kind in cr.arch.LAYER_KINDS:
        assert "scalars" in vars(kind), kind.__name__


def test_kind_leaves_the_structural_key_only_by_declaring_it(d15_spec, monkeypatch):
    key = cr.structural_key(d15_spec)
    monkeypatch.setattr(cr.GlobalAvgPool, "key_fields", None)
    assert cr.structural_key(d15_spec) == [row for row in key if row != ["global_avg_pool"]]


def test_mobilenet_width_multiplier():
    spec = cr.mobilenet(0.75)
    cfg = cr.channel_config(spec)
    assert cfg.channels[1] == 24      # ceil(0.75 * 32)
    assert cfg.channels[-1] == 768    # ceil(0.75 * 1024)
    with pytest.raises(ValueError):
        cr.mobilenet(0.0)


@given(depth_per_block=st.integers(1, 4), widths=st.lists(st.integers(1, 64),
                                                          min_size=1, max_size=4))
@settings(max_examples=40)
def test_partition_round_trip_property(depth_per_block, widths):
    spec = cr.build_sequential_cnn(depth_per_block * len(widths), widths)
    part = cr.partition_macroblocks(spec)
    cfg = cr.channel_config(spec)
    assert part.macroblock_starts == cfg.macroblock_starts
    assert sum(len(b.widths) for b in part.blocks) == cfg.num_entries
    assert cr.with_config(spec, cfg) == spec
