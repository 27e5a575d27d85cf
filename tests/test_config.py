"""Run configuration: parsing, the resolved dump, and the documented key set."""

from __future__ import annotations

import inspect
import re
import textwrap
from dataclasses import fields
from pathlib import Path

import pytest

from chanreduce.arch import channel_config
from chanreduce.config import BUILDERS, ConfigError, ModelConfig, RunConfig
from chanreduce.oracle import (FINAL_BUDGET, METRICS, SEARCH_BUDGET, EvaluationRecord,
                               SurrogateParams)
from chanreduce.search import BetaMode
from chanreduce.trainer import build_request

README = Path(__file__).resolve().parent.parent / "README.md"

FULL_CFG = """\
    [model]
    Family = Descriptor
    depth = 9
    block_widths = 8, 16 32
    input_channels = 1
    num_classes = 100
    dataset = CIFAR100
    resolution = 28
    width_mult = 3/4
    descriptor = models/net.json
    name = Tiny-Net

    [oracle]
    KIND = Replay
    a_max = 0.8
    exponent = 3
    frontiers = 0.9,0.8 0.5
    weights = 3 2, 1
    ledger = old/ledger.jsonl
    trainer_cmd = python3 worker.py --fast
    parallelism = 2
    timeout_seconds = 120
    protocol = Files
    exchange_dir = jobs

    [search]
    delta = 1/50
    scope = 2
    beta_return_mode = Last_Midpoint
    seed = 7
    metric = TOP5

    [budget]
    search_epochs = 10
    search_milestones = 4,8
    final_epochs = 30
    final_milestones = 10 20
    lr_initial = 0.05
    lr_divisor = 5
    momentum = 0.95
    weight_decay = 5e-4
    batch_size = 64

    [run]
    command = reduce --budget search --direction backward
    """

FULL_RESOLVED = """\
[model]
family = descriptor
depth = 9
block_widths = 8 16 32
input_channels = 1
dataset = CIFAR100
resolution = 28
width_mult = 0.75
descriptor = {base}/models/net.json
name = Tiny-Net

[oracle]
kind = replay
a_max = 0.8
exponent = 3.0
frontiers = 0.9 0.8 0.5
weights = 3.0 2.0 1.0
parallelism = 2
timeout_seconds = 120.0
protocol = files
ledger = {base}/old/ledger.jsonl
trainer_cmd = python3 worker.py --fast
exchange_dir = {base}/jobs

[search]
delta = 0.02
beta_return_mode = last_midpoint
seed = 7
metric = top5
scope = 2

[budget]
search_epochs = 10
search_milestones = 4 8
final_epochs = 30
final_milestones = 10 20
lr_initial = 0.05
lr_divisor = 5.0
momentum = 0.95
weight_decay = 0.0005
batch_size = 64

[run]
command = reduce --budget search --direction backward

"""

DEFAULT_RESOLVED = """\
[model]
family = sequential
depth = 15
block_widths = 16 32 64
input_channels = 3
dataset = cifar10
resolution = 32
width_mult = 1.0
num_classes = 10

[oracle]
kind = surrogate
a_max = 0.91
exponent = 2.0
frontiers = 0.95 0.85 0.55
weights = 4.0 4.0 4.0
parallelism = 1
timeout_seconds = 3600.0
protocol = pipe

[search]
delta = 0.01
beta_return_mode = feasible_bound
seed = 0
metric = top1

[budget]
search_epochs = 20
search_milestones = 8 16
final_epochs = 90
final_milestones = 30 60
lr_initial = 0.1
lr_divisor = 10.0
momentum = 0.9
weight_decay = 0.0001
batch_size = 128

"""


def _load(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(textwrap.dedent(text))
    return RunConfig.from_file(path)


def test_resolved_text_every_key(tmp_path):
    (tmp_path / "models").mkdir()
    (tmp_path / "models" / "net.json").write_text("{}")
    (tmp_path / "old").mkdir()
    (tmp_path / "old" / "ledger.jsonl").touch()
    cfg = _load(tmp_path, FULL_CFG)
    assert cfg.resolved_text() == FULL_RESOLVED.format(base=tmp_path.resolve())


def test_resolved_text_defaults(tmp_path):
    assert _load(tmp_path, "").resolved_text() == DEFAULT_RESOLVED


def test_resolved_text_preset_class_count(tmp_path):
    cfg = _load(tmp_path, "[model]\nfamily = ResNet18\nnum_classes = 100\n")
    model = cfg.resolved_text().split("\n\n")[0]
    assert model.splitlines()[1] == "family = resnet18"
    assert model.splitlines()[-1] == "num_classes = 100"


def test_a_model_key_the_family_does_not_read_warns(tmp_path, caplog):
    # A warning, not an error, as for unknown keys: a recorded resolved.cfg
    # must still replay.
    cfg = _load(tmp_path, "[model]\nfamily = resnet34\ndataset = svhn\n")
    with caplog.at_level("WARNING", logger="chanreduce.config"):
        spec = cfg.build_spec()
    assert [r.getMessage() for r in caplog.records] == [
        "ignoring model.dataset: family resnet34 does not read it"]
    request = build_request("r-1", channel_config(spec), spec, SEARCH_BUDGET)
    assert request["dataset"] == "imagenet"
    assert "dataset = svhn\n" in cfg.resolved_text()


@pytest.mark.parametrize("text, message", [
    ("[search]\nscope = two\n", "search.scope must be an integer, got 'two'"),
    ("[search]\nscope = 0\n", "search.scope must be within [1, inf], got 0"),
    ("[search]\ndelta = 3/2\n", "search.delta must be within [0.0, 1.0], got 1.5"),
    ("[search]\ndelta = 1/0\n", "search.delta must be a number, got '1/0'"),
    ("[model]\nblock_widths = 8, x\n", "model.block_widths must be a list of integers"),
    ("[oracle]\nweights = 1 one\n", "oracle.weights must be a list of numbers"),
    ("[oracle]\nkind = Quantum\n", "oracle.kind must be surrogate|replay|external, "
                                    "got 'quantum'"),
    ("[model]\nfamily = vgg\n", "model.family must be sequential|descriptor|"),
    ("[search]\nmetric = top3\n", "search.metric must be top1|top5"),
    ("[oracle]\nprotocol = smoke\n", "oracle.protocol must be pipe|files"),
    ("[run]\nsearch_slots = 0\n", "run.search_slots must be within [1, inf], got 0"),
    ("[model]\nfamily = descriptor\n", "model.family=descriptor needs model.descriptor=<path>"),
    ("[model]\nfamily = descriptor\ndescriptor = none.json\n",
     "model descriptor {base}/none.json does not exist"),
    ("family = sequential\n", "cannot parse "),
])
def test_invalid_values(tmp_path, text, message):
    with pytest.raises(ConfigError) as err:
        _load(tmp_path, text)
    assert str(err.value).startswith(message.format(base=tmp_path.resolve()))


@pytest.mark.parametrize("key", ["budget.lr_initial", "budget.weight_decay",
                                 "oracle.timeout_seconds", "oracle.frontiers"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
def test_a_non_finite_number_is_refused(tmp_path, key, value):
    # nan never equals itself, so a nan in the recipe would never match a
    # ledger record, and select() refuses a nan timeout mid-run.
    section, name = key.split(".")
    with pytest.raises(ConfigError) as err:
        _load(tmp_path, f"[{section}]\n{name} = {value}\n")
    assert str(err.value).startswith(f"{key} must be a ")


@pytest.mark.parametrize("text, section, key", [
    ("[search]\nscope =\n", "search", "scope"),
    ("[model]\nnum_classes =\n", "model", "num_classes"),
    ("[run]\nsearch_slots =\n", "run", "search_slots"),
])
def test_empty_value_unsets_an_optional_key(tmp_path, text, section, key):
    cfg = _load(tmp_path, text)
    assert getattr(cfg if section == "run" else getattr(cfg, section), key) is None
    assert cfg.resolved_text() == DEFAULT_RESOLVED


def test_defaults_are_the_library_defaults():
    """The config's defaults are read from the oracle module's declarations."""
    cfg = RunConfig()
    assert cfg.search_budget() == SEARCH_BUDGET
    assert cfg.final_budget() == FINAL_BUDGET
    assert cfg.surrogate_params() == SurrogateParams()


def test_model_defaults_are_the_builder_defaults():
    """Every builder parameter is a [model] key; where a builder declares a
    default, the key's default is that value, and an unset class count is the
    family builder's own."""
    keys = {f.name: f.default for f in fields(ModelConfig)}
    for family, builder in BUILDERS.items():
        for p in inspect.signature(builder).parameters.values():
            assert p.name in keys, (family, p.name)
            if p.default is not p.empty and p.name != "num_classes":
                assert keys[p.name] == p.default, (family, p.name)
        cfg = RunConfig()
        cfg.model.family = family
        assert cfg.effective_classes() == \
            inspect.signature(builder).parameters["num_classes"].default
    assert keys["num_classes"] is None


def test_search_choices_are_the_library_choices(tmp_path):
    choices = {f.name: f.metadata.get("choices") for f in fields(RunConfig().search)}
    assert choices["beta_return_mode"] == tuple(mode.value for mode in BetaMode)
    assert choices["metric"] == METRICS
    cfg = _load(tmp_path, "[search]\nmetric = top5\nbeta_return_mode = last_midpoint\n")
    assert cfg.beta_mode() is BetaMode.LAST_MIDPOINT
    record = EvaluationRecord("d" * 64, SEARCH_BUDGET, 0.5, 0.75, 0.0, "ok")
    assert [record.metric(m) for m in METRICS] == [0.5, 0.75]


def test_readme_lists_every_key():
    """The README's configuration block documents exactly the parsed key set."""
    text = README.read_text(encoding="utf-8")
    block = text.split("### Configuration", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
    documented, section = set(), None
    for line in block.splitlines():
        if m := re.match(r"\[(\w+)\]", line):
            section = m.group(1)
        elif m := re.match(r";?\s*(\w+)\s*=", line):
            documented.add(f"{section}.{m.group(1)}")
    # The [run] keys record what a run did; the CLI writes them, users do not.
    derived = {f"{section}.{f.name}" for section, f, _ in RunConfig()._keys()
               if section != "run"}
    assert documented == derived


def test_readme_names_the_families_reading_each_model_key():
    """Each [model] key's README comment names the families whose builder takes
    it as a parameter; only ``descriptor`` reads the descriptor path."""
    text = README.read_text(encoding="utf-8")
    block = text.split("```ini\n[model]\n", 1)[1].split("\n\n", 1)[0]
    for line in block.splitlines():
        key, comment = re.match(r";?\s*(\w+)\s*=[^;]*;\s*([^;:]*)", line).groups()
        if key == "family":
            continue
        readers = {family for family, builder in BUILDERS.items()
                   if key in inspect.signature(builder).parameters}
        if key == "descriptor":
            readers.add("descriptor")
        assert set(re.split(r",\s*", comment.strip())) == readers, key
