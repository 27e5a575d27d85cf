"""Parameter counting against an independent brute-force enumerator.

The enumerator below recounts every layer from first principles (per-filter for
convs) and serves as the reference for all derived totals frozen in this file.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chanreduce as cr


def enumerate_scalars(layers):
    """Reference count of a layer list: (learnable, buffers), walking filters
    one by one."""
    learnable = 0
    buffers = 0
    for layer in layers:
        if isinstance(layer, cr.Conv):
            kh, kw = layer.kernel
            taps = kh * kw * (1 if layer.depthwise else layer.in_channels)
            for _ in range(layer.out_channels):
                learnable += taps
            if layer.has_bias:
                learnable += layer.out_channels
        elif isinstance(layer, cr.BatchNorm):
            learnable += 2 * layer.channels
            buffers += 2 * layer.channels
        elif isinstance(layer, cr.FullyConnected):
            learnable += layer.in_features * layer.out_features
            if layer.has_bias:
                learnable += layer.out_features
    return learnable, buffers


# -- frozen totals (cross-checked against enumerate_scalars below) -----------


def test_depth15_exact_counts(d15_spec):
    conv_learnable = enumerate_scalars(l for l in d15_spec.layers if isinstance(l, cr.Conv))[0]
    fc_learnable = 64 * 10 + 10
    bn_learnable = 2 * (5 * 16 + 5 * 32 + 5 * 64)
    assert conv_learnable == 217008
    assert fc_learnable == 650
    assert bn_learnable == 1120

    report = cr.count_parameters(d15_spec)
    assert report.parameter_count == conv_learnable + fc_learnable + bn_learnable == 218778
    assert report.buffer_count == 1120
    assert report.size_bytes == (218778 + 1120) * 4 == 879592
    # Within 5% of the 0.87 MB serialized size reported for this network.
    assert abs(report.size_bytes - 0.87 * cr.MB) / (0.87 * cr.MB) < 0.05


def test_depth15_matches_enumerator(d15_spec):
    learnable, buffers = enumerate_scalars(d15_spec.layers)
    report = cr.count_parameters(d15_spec)
    assert (report.parameter_count, report.buffer_count) == (learnable, buffers)


def test_resnet_parameter_totals():
    r34 = cr.count_parameters(cr.resnet34())
    assert r34.parameter_count == 21797672
    assert abs(r34.parameter_count - 21.8e6) / 21.8e6 < 0.02
    r18 = cr.count_parameters(cr.resnet18())
    assert r18.parameter_count == 11689512
    for spec in (cr.resnet18(), cr.resnet34()):
        assert enumerate_scalars(spec.layers) == (cr.count_parameters(spec).parameter_count,
                                                  cr.count_parameters(spec).buffer_count)


def test_mobilenet_parameter_total():
    rep = cr.count_parameters(cr.mobilenet())
    assert rep.parameter_count == 4231976
    assert abs(rep.parameter_count - 4.23e6) / 4.23e6 < 0.02
    assert rep.buffer_count == 21888


def _reduce_last_two_blocks(spec, w3, w4):
    part = cr.partition_macroblocks(spec)
    cfg = cr.channel_config(spec)
    updates = {}
    for block, w in ((part.blocks[3], w3), (part.blocks[4], w4)):
        updates.update({i: w for i in range(*block.entry_range)})
    return cr.with_config(spec, cfg.replace_entries(updates))


def test_resnet34_reduced_saving():
    base = cr.count_parameters(cr.resnet34())
    red = cr.count_parameters(_reduce_last_two_blocks(cr.resnet34(), 256, 346))
    assert red.parameter_count == 14795128
    assert abs(red.parameter_count - 14.8e6) / 14.8e6 < 0.02
    saving = cr.saving_percent(base, red)
    assert abs(saving - 32.1) < 1.0


def test_mobilenet_reduced_saving():
    base = cr.count_parameters(cr.mobilenet())
    red = cr.count_parameters(_reduce_last_two_blocks(cr.mobilenet(), 507, 513))
    assert red.parameter_count == 2636562
    saving = cr.saving_percent(base, red)
    assert abs(saving - 37.56) < 1.0


# -- report mechanics --------------------------------------------------------


def test_per_block_breakdown_sums_to_trunk(d15_spec):
    report = cr.count_parameters(d15_spec)
    assert [b.block_id for b in report.per_block_breakdown] == [0, 1, 2]
    trunk_params = sum(b.params for b in report.per_block_breakdown)
    head = d15_spec.layers[-1]
    assert trunk_params + head.in_features * head.out_features + head.out_features \
        == report.parameter_count
    trunk_bytes = sum(b.bytes for b in report.per_block_breakdown)
    assert trunk_bytes + (650) * 4 == report.size_bytes


def test_invalid_spec_is_refused_and_a_convless_one_has_totals_only():
    meta = cr.ModelMeta("m", "d", num_classes=10, input_channels=3, resolution=8)
    with pytest.raises(ValueError, match="channel ref 2 not yet defined"):
        cr.ModelSpec((cr.Conv((3, 3), 3, 8, in_ref=0, out_ref=1),
                      cr.BatchNorm(8, ref=2), cr.GlobalAvgPool(),
                      cr.FullyConnected(8, 10, in_ref=1)), meta)
    head_only = cr.ModelSpec((cr.GlobalAvgPool(), cr.FullyConnected(3, 10, in_ref=0)), meta)
    assert cr.count_parameters(head_only) == cr.SizeReport(40, 0, 160, ())


def test_saving_percent_examples():
    # Ratios only: 83.24 MB vs 56.52 MB and 16.25 MB vs 10.15 MB.
    a = cr.SizeReport(0, 0, 8324)
    b = cr.SizeReport(0, 0, 5652)
    assert round(cr.saving_percent(a, b), 2) == 32.10
    c = cr.SizeReport(0, 0, 1625)
    d = cr.SizeReport(0, 0, 1015)
    assert round(cr.saving_percent(c, d), 2) == 37.54
    assert cr.saving_percent(a, a) == 0.0
    with pytest.raises(ValueError):
        cr.saving_percent(cr.SizeReport(0, 0, 0), b)


def test_report_serialization(d15_spec):
    report = cr.count_parameters(d15_spec)
    d = report.to_dict()
    assert d["parameter_count"] == 218778
    assert len(d["per_block_breakdown"]) == 3
    assert report.parameter_count + report.buffer_count == 219898


# -- properties --------------------------------------------------------------


@given(depth_per_block=st.integers(1, 3),
       widths=st.lists(st.integers(2, 48), min_size=1, max_size=3),
       data=st.data())
@settings(max_examples=60)
def test_enumerator_equivalence_and_monotonicity(depth_per_block, widths, data):
    spec = cr.build_sequential_cnn(depth_per_block * len(widths), widths)
    report = cr.count_parameters(spec)
    assert enumerate_scalars(spec.layers) == (report.parameter_count, report.buffer_count)

    cfg = cr.channel_config(spec)
    entry = data.draw(st.integers(1, cfg.num_entries))
    if cfg.channels[entry] > 1:
        narrower = cr.with_config(spec, cfg.replace_entries({entry: cfg.channels[entry] - 1}))
        assert cr.count_parameters(narrower).size_bytes < report.size_bytes
