"""Run configuration: a flat, sectioned text file driving every CLI command.

Sections: [model], [oracle], [search], [budget], [run]. The file is the only way
to set a key; the recipe and surrogate defaults come from
:mod:`chanreduce.oracle`. Unknown keys warn but do not fail; genuinely invalid
values raise :class:`ConfigError`. A run reads ``[model] family`` and its
builder's parameters (``BUILDERS``; an unset one is the builder's default),
``[oracle] kind`` and ``OracleConfig.READS[kind]``, and every other key. The
resolved configuration in the run directory, which replays the run, lists
exactly those; a rerun compares those of ``[oracle]`` but ``BRIDGE``
(``record_key``), and a user's config warns about each other key it sets.
"""

from __future__ import annotations

import configparser
import inspect
import io
import logging
import math
from dataclasses import dataclass, field, fields, is_dataclass
from fractions import Fraction
from pathlib import Path

from .arch import ModelSpec, build_sequential_cnn, format_value, load_descriptor
from .oracle import FINAL_BUDGET, METRICS, SEARCH_BUDGET, SurrogateParams, TrainingBudget
from .presets import PRESETS
from .search import BetaMode

log = logging.getLogger(__name__)


class ConfigError(Exception):
    """A configuration problem the user must fix (CLI exit code 2)."""


# The run-directory format, [run] format: fresh runs write FORMAT, and this code
# reads OLDEST_FORMAT to FORMAT; a run recorded without the key is format 1. A
# change to what an older directory replays into raises FORMAT, and raises
# OLDEST_FORMAT past the formats it no longer replays.
OLDEST_FORMAT, FORMAT = 1, 3


# Each family's builder; build_spec sets each parameter from its [model] key.
BUILDERS = {"sequential": build_sequential_cnn, "descriptor": load_descriptor, **PRESETS}


def _word(*choices: str):
    """A string key read case-insensitively; one of ``choices``, the first by
    default."""
    return field(default=choices[0], metadata={"choices": choices})


def _bounded(default, low, high=math.inf):
    """A number key that must lie within [low, high] when set."""
    return field(default=default, metadata={"range": (low, high)})


def _positive(default):
    """A number key that must be > 0."""
    return field(default=default, metadata={"positive": True})


def _path():
    """An optional path; a relative one is read against the config file's directory."""
    return field(default=None, metadata={"path": True})


# Each field is one config key, named [section] key = value in the file. Optional
# fields come last: the resolved dump lists keys in declaration order and leaves
# out the unset ones.


@dataclass
class ModelConfig:   # each builder key unset: its family builder's default
    family: str = _word(*BUILDERS)
    depth: int | None = None
    block_widths: tuple[int, ...] | None = None
    input_channels: int | None = None
    dataset: str | None = None
    resolution: int | None = None
    width_mult: float | None = None
    num_classes: int | None = None
    descriptor: str | None = _path()
    name: str | None = None


@dataclass
class OracleConfig:
    kind: str = _word("surrogate", "replay", "external")
    a_max: float = SurrogateParams.a_max
    exponent: float = SurrogateParams.exponent
    frontiers: tuple[float, ...] = SurrogateParams.frontiers
    weights: tuple[float, ...] = SurrogateParams.weights
    parallelism: int = _bounded(1, 1)
    timeout_seconds: float = _positive(3600.0)
    protocol: str = _word("pipe", "files")
    ledger: str | None = _path()
    trainer_cmd: str | None = None
    exchange_dir: str | None = _path()
    # Keys that say only how to reach the trainer, so a rerun may change them.
    BRIDGE = ("parallelism", "timeout_seconds", "protocol", "exchange_dir")
    # The keys each kind reads besides kind itself.
    READS = {"surrogate": ("a_max", "exponent", "frontiers", "weights"),
             "external": ("trainer_cmd", *BRIDGE), "replay": ("ledger",)}


@dataclass
class SearchConfig:
    delta: float = _bounded(0.01, 0.0, 1.0)
    beta_return_mode: str = _word(*(mode.value for mode in BetaMode))
    seed: int = TrainingBudget.seed
    metric: str = _word(*METRICS)
    scope: int | None = _bounded(None, 1)   # None: all macroblocks


@dataclass
class BudgetConfig:
    search_epochs: int = SEARCH_BUDGET.epochs
    search_milestones: tuple[int, ...] = SEARCH_BUDGET.lr_milestones
    final_epochs: int = FINAL_BUDGET.epochs
    final_milestones: tuple[int, ...] = FINAL_BUDGET.lr_milestones
    lr_initial: float = TrainingBudget.lr_initial
    lr_divisor: float = TrainingBudget.lr_divisor
    momentum: float = TrainingBudget.momentum
    weight_decay: float = TrainingBudget.weight_decay
    batch_size: int = TrainingBudget.batch_size


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    oracle: OracleConfig = field(default_factory=OracleConfig)
    search: SearchConfig = field(default_factory=SearchConfig)
    budget: BudgetConfig = field(default_factory=BudgetConfig)
    command: str | None = field(default=None, metadata={"section": "run"})
    # Trainer slots the run's searches had; replay needs them to ask for the
    # same configs. A format-1 run without the key searched on one slot.
    search_slots: int | None = field(default=None,
                                     metadata={"section": "run", "range": (1, math.inf)})
    # The format of the run that wrote the file (see FORMAT); a user's config has none.
    format: int | None = field(default=None,
                               metadata={"section": "run", "range": (OLDEST_FORMAT, FORMAT)})

    def _keys(self):
        """Every config key as (section, field, object holding its value), in
        file order."""
        for f in fields(self):
            if "section" in f.metadata:
                yield f.metadata["section"], f, self
            elif is_dataclass(part := getattr(self, f.name)):
                for g in fields(part):
                    yield f.name, g, part

    def _reads(self):
        """Each key this run reads as (section, key, effective value), in file
        order: [model] family and its builder's parameters, an unset one at the
        builder's default, [oracle] kind and its ``OracleConfig.READS``, and
        every key of the other sections."""
        builder = inspect.signature(BUILDERS[self.model.family]).parameters
        defaults = {("model", p.name): p.default for p in builder.values()
                    if p.default is not p.empty}
        reads = {"model": ("family", *builder),
                 "oracle": ("kind", *OracleConfig.READS[self.oracle.kind])}
        for section, f, part in self._keys():
            if f.name in reads.get(section, (f.name,)):
                value = getattr(part, f.name)
                yield section, f.name, defaults.get((section, f.name)) if value is None else value

    # -- parsing ------------------------------------------------------------

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        path = Path(path)
        parser = configparser.ConfigParser(interpolation=None,
                                           inline_comment_prefixes=("#", ";"))
        try:  # ConfigParser.read would skip a file it cannot open or decode
            parser.read_string(path.read_text(encoding="utf-8"), source=str(path))
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read {path}: {exc}") from exc
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc

        cfg, given = cls(), []
        keys = {(section, f.name): (f, part) for section, f, part in cfg._keys()}
        sections = {section for section, _ in keys}
        try:
            for section in parser.sections():
                if section not in sections:
                    log.warning("ignoring unknown config section [%s]", section)
                    continue
                for key, raw in parser[section].items():
                    if (section, key) not in keys:
                        log.warning("ignoring unknown config key %s.%s", section, key)
                        continue
                    f, part = keys[section, key]
                    value = _parse(f"{section}.{key}", f, raw.strip())
                    if value is not None and f.metadata.get("path"):
                        value = str(path.resolve().parent / value)   # an absolute value stays
                    setattr(part, key, value)
                    if value is not None:
                        given.append((section, key))
            if cfg.command is not None and cfg.format is None:   # a run recorded before the key
                cfg.format = 1
            cfg._validate()
        except ConfigError as exc:
            raise ConfigError(f"{exc} (in {path})") from exc
        if cfg.command is None:   # a user's config; formats 1-2 recorded keys no run read
            read = {(section, key) for section, key, _ in cfg._reads()}
            for section, key in given:
                if (section, key) not in read:   # warn, not refuse, as for an unknown key
                    log.warning("ignoring %s.%s: %s does not read it", section, key,
                                f"family {cfg.model.family}" if section == "model"
                                else f"kind {cfg.oracle.kind}")
        return cfg

    def _validate(self) -> None:
        for section, f, part in self._keys():
            value = getattr(part, f.name)
            choices = f.metadata.get("choices")
            if choices and value not in choices:
                raise ConfigError(f"{section}.{f.name} must be {'|'.join(choices)}, "
                                  f"got {value!r}")
            low, high = f.metadata.get("range", (None, None))
            if low is not None and value is not None and not low <= value <= high:
                raise ConfigError(f"{section}.{f.name} must be within [{low}, {high}], "
                                  f"got {value}")
            if f.metadata.get("positive") and not value > 0:
                raise ConfigError(f"{section}.{f.name} must be > 0, got {value}")
        if self.model.family == "descriptor":
            if not self.model.descriptor:
                raise ConfigError("model.family=descriptor needs model.descriptor=<path>")
            if not Path(self.model.descriptor).exists():
                raise ConfigError(f"model descriptor {self.model.descriptor} does not exist")
        if self.oracle.kind == "external" and not self.oracle.trainer_cmd:
            raise ConfigError("oracle.kind=external needs oracle.trainer_cmd")
        if self.oracle.kind == "replay" and not self.oracle.ledger:
            raise ConfigError("oracle.kind=replay needs oracle.ledger=<path>")
        self.search_budget()   # each raises ConfigError on a bad training recipe
        self.final_budget()

    # -- derived objects ----------------------------------------------------

    def build_spec(self) -> ModelSpec:
        m = self.model
        reads = inspect.signature(BUILDERS[m.family]).parameters
        try:
            return BUILDERS[m.family](**{p: getattr(m, p) for p in reads
                                         if getattr(m, p) is not None})
        except ValueError as exc:
            raise ConfigError(f"cannot build model: {exc}") from exc

    def surrogate_params(self) -> SurrogateParams:
        try:
            return SurrogateParams(**{f.name: getattr(self.oracle, f.name)
                                      for f in fields(SurrogateParams)})
        except ValueError as exc:
            raise ConfigError(f"bad surrogate parameters: {exc}") from exc

    def record_key(self, spec: ModelSpec | None = None) -> tuple:
        """What a record answers for: ``spec``'s dataset and each [oracle] key the
        run reads, kind included, but BRIDGE."""
        return ((spec or self.build_spec()).meta.dataset,
                tuple((key, value) for section, key, value in self._reads()
                      if section == "oracle" and key not in OracleConfig.BRIDGE))

    def _budget(self, epochs: int, milestones: tuple[int, ...]) -> TrainingBudget:
        """The recipe: each [budget] key named after a TrainingBudget field, plus
        the schedule given and the search seed."""
        recipe = {f.name: getattr(self.budget, f.name) for f in fields(TrainingBudget)
                  if hasattr(self.budget, f.name)}
        try:
            return TrainingBudget(**recipe, epochs=epochs, lr_milestones=milestones,
                                  seed=self.search.seed)
        except ValueError as exc:
            raise ConfigError(f"bad training budget: {exc}") from exc

    def search_budget(self) -> TrainingBudget:
        return self._budget(self.budget.search_epochs, self.budget.search_milestones)

    def final_budget(self) -> TrainingBudget:
        return self._budget(self.budget.final_epochs, self.budget.final_milestones)

    def beta_mode(self) -> BetaMode:   # unread: bench/workloads.py reference() calls it
        return BetaMode(self.search.beta_return_mode)

    # -- resolved dump ------------------------------------------------------

    def resolved_text(self) -> str:
        """Each key the run reads at its effective value, written back in config
        syntax; one unset and without a default is left out."""
        parser = configparser.ConfigParser(interpolation=None)
        for section, key, value in self._reads():
            if value is not None:
                if not parser.has_section(section):
                    parser.add_section(section)
                parser.set(section, key, format_value(value))
        buf = io.StringIO()
        parser.write(buf)
        return buf.getvalue()


def _number(raw: str) -> float:
    """A finite float; nan would never equal itself in a ledger key."""
    value = float(Fraction(raw)) if "/" in raw else float(raw)
    if not math.isfinite(value):
        raise ValueError(f"not finite: {raw!r}")
    return value


# annotation -> (parser of one value, what an error calls the expected value)
_TYPES = {
    "int": (int, "an integer"),
    "float": (_number, "a number"),
    "str": (str, "a string"),
    "tuple[int, ...]": (lambda raw: tuple(int(x) for x in _split(raw)),
                        "a list of integers"),
    "tuple[float, ...]": (lambda raw: tuple(_number(x) for x in _split(raw)),
                          "a list of numbers"),
}


def _split(raw: str) -> list[str]:
    return raw.replace(",", " ").split()


def _parse(name: str, f, raw: str):
    """The typed value of key ``name`` (declared by field ``f``) from its raw text."""
    if "choices" in f.metadata:
        raw = raw.lower()
    if not raw and f.type.endswith(" | None"):
        return None
    parse, expected = _TYPES[f.type.removesuffix(" | None")]
    try:
        return parse(raw)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"{name} must be {expected}, got {raw!r}") from None
