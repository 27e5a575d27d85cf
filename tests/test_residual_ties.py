"""ResNet-34's residual ties, enumerated here independently of the preset builder.

A basic block adds its input, or its projection shortcut's output, to its
conv2 output, so the entries a stage's residual stream passes through must
have one width: a tie group. The presets do not yet keep a group at one width
(ROADMAP Direction 1); the two strict xfail cases pin that known defect and
turn into passes when it is mended.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

import chanreduce as cr
from chanreduce.lesion import SWEEP_PROPORTIONAL, SweepPlan, sweep_configs

RESNET34_STAGES = (3, 4, 6, 3)


def resnet_tie_groups(stages=RESNET34_STAGES):
    """``(groups, projections, entries)`` of a basic-block ResNet, entries numbered
    in builder order: the stem is entry 1, then each block's conv1 and conv2,
    with a stage's projection right after its first block's conv2. The stem
    joins the first stage's group, whose blocks all have identity shortcuts."""
    groups, projections, entry = [], [], 1
    for s, blocks in enumerate(stages):
        group = [] if s else [entry]
        for b in range(blocks):
            entry += 2               # conv1, then conv2, which the shortcut joins
            group.append(entry)
            if s and not b:
                entry += 1
                projections.append(entry)
                group.append(entry)
        groups.append(tuple(group))
    return groups, projections, entry


GROUPS, PROJECTIONS, ENTRIES = resnet_tie_groups()


def split_groups(config: cr.ChannelConfig) -> list[dict[int, int]]:
    """Each tie group whose entries do not all have one width in ``config``, as
    {entry: width}."""
    return [{e: config.channels[e] for e in group} for group in GROUPS
            if len({config.channels[e] for e in group}) > 1]


def test_the_enumerated_ties_match_the_resnet34_preset():
    spec = cr.resnet34()
    nominal = cr.channel_config(spec)
    assert nominal.num_entries == ENTRIES == 36
    assert [len(group) for group in GROUPS] == [4, 5, 7, 4]
    assert len({e for group in GROUPS for e in group}) == 20
    assert [{nominal.channels[e] for e in group} for group in GROUPS] == \
        [{64}, {128}, {256}, {512}]
    assert split_groups(nominal) == []
    convs = [layer for _, layer in spec.convs()]
    assert [c.out_ref for c in convs if c.kernel == (1, 1)] == PROJECTIONS
    # A projection reads its block's input, as the block's conv1 does.
    conv1 = {c.out_ref: c for c in convs}
    assert [conv1[p - 2].in_ref for p in PROJECTIONS] == \
        [conv1[p].in_ref for p in PROJECTIONS]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="residual ties are not kept (ROADMAP Direction 1): on the "
                          "surrogate the stem becomes 61 and entries 3, 5 and 7 become 58")
def test_backward_reduction_keeps_each_tie_group_at_one_width():
    spec = cr.resnet34()
    result = cr.backward_reduction(spec, None, 0.01, cr.SurrogateOracle(spec),
                                   cr.SEARCH_BUDGET)
    assert split_groups(result.reduced_config) == []


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="residual ties are not kept (ROADMAP Direction 1): 40 of the "
                          "72 configurations split a group")
def test_proportional_lesions_keep_each_tie_group_at_one_width():
    plan = SweepPlan(SWEEP_PROPORTIONAL, (Fraction(1, 2), Fraction(3, 4)))
    configs = [config for _, _, config in sweep_configs(cr.resnet34(), plan)]
    assert len(configs) == 72
    assert [split for split in map(split_groups, configs) if split] == []
