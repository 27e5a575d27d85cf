"""Run configuration: a flat, sectioned text file driving every CLI command.

Sections: [model], [oracle], [search], [budget], [run]. The file is the only way
to set a key; the recipe and surrogate defaults come from
:mod:`chanreduce.oracle`. Unknown keys warn but do not fail; genuinely invalid
values raise :class:`ConfigError`. The resolved configuration (every effective
value made explicit) is written into the run directory so a run can be replayed
from its own artifacts.
"""

from __future__ import annotations

import configparser
import inspect
import io
import logging
import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from fractions import Fraction
from pathlib import Path

from .arch import ModelSpec, build_sequential_cnn
from .oracle import FINAL_BUDGET, METRICS, SEARCH_BUDGET, SurrogateParams, TrainingBudget
from .presets import PRESETS, load_descriptor
from .search import BetaMode

log = logging.getLogger(__name__)


class ConfigError(Exception):
    """A configuration problem the user must fix (CLI exit code 2)."""


# Each family's builder; build_spec sets each parameter from its [model] key.
BUILDERS = {"sequential": build_sequential_cnn, **PRESETS}


def _default(family: str, name: str):
    return inspect.signature(BUILDERS[family]).parameters[name].default


def _word(*choices: str):
    """A string key read case-insensitively; one of ``choices``, the first by
    default."""
    return field(default=choices[0], metadata={"choices": choices})


def _bounded(default, low, high=math.inf):
    """A number key that must lie within [low, high] when set."""
    return field(default=default, metadata={"range": (low, high)})


def _path():
    """An optional path; a relative one is read against the config file's directory."""
    return field(default=None, metadata={"path": True})


# Each field is one config key, named [section] key = value in the file. Optional
# fields come last: the resolved dump lists keys in declaration order and leaves
# out the unset ones.


@dataclass
class ModelConfig:
    family: str = _word("sequential", "descriptor", *PRESETS)
    depth: int = 15
    block_widths: tuple[int, ...] = (16, 32, 64)
    input_channels: int = _default("sequential", "input_channels")
    dataset: str = _default("sequential", "dataset")
    resolution: int = _default("sequential", "resolution")
    width_mult: float = _default("mobilenet", "width_mult")
    num_classes: int | None = None   # the family builder's default when unset
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
    timeout_seconds: float = 3600.0
    protocol: str = _word("pipe", "files")
    ledger: str | None = _path()
    trainer_cmd: str | None = None
    exchange_dir: str | None = _path()
    # Keys that say only how to reach the trainer, so a rerun may change them.
    BRIDGE = ("parallelism", "timeout_seconds", "protocol", "exchange_dir")


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
    # same configs. Runs recorded before searches used more than one slot lack
    # the key and replay on one.
    search_slots: int | None = field(default=None,
                                     metadata={"section": "run", "range": (1, math.inf)})

    def _keys(self):
        """Every config key as (section, field, object holding its value), in
        file order."""
        for f in fields(self):
            if "section" in f.metadata:
                yield f.metadata["section"], f, self
            elif is_dataclass(part := getattr(self, f.name)):
                for g in fields(part):
                    yield f.name, g, part

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

        cfg = cls()
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
            cfg._validate()
        except ConfigError as exc:
            raise ConfigError(f"{exc} (in {path})") from exc
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
        return self._spec(warn=True)

    def _spec(self, warn: bool = False) -> ModelSpec:
        """The model; with ``warn``, each [model] key its family does not read warns."""
        m = self.model
        reads = (("descriptor",) if m.family == "descriptor"
                 else tuple(inspect.signature(BUILDERS[m.family]).parameters))
        for f in fields(m):   # warn, not refuse: a run recorded with such a key must replay
            if warn and f.name not in ("family", *reads) and getattr(m, f.name) != f.default:
                log.warning("ignoring model.%s: family %s does not read it", f.name, m.family)
        try:
            if m.family == "descriptor":
                return load_descriptor(m.descriptor)
            return BUILDERS[m.family](**{p: getattr(m, p) for p in reads
                                         if getattr(m, p) is not None})
        except ValueError as exc:
            raise ConfigError(f"cannot build model: {exc}") from exc

    def effective_classes(self) -> int | None:
        """The set class count, else the family builder's; None for a descriptor."""
        if self.model.family == "descriptor":
            return None
        if self.model.num_classes is not None:
            return self.model.num_classes
        return _default(self.model.family, "num_classes")

    def surrogate_params(self) -> SurrogateParams:
        try:
            return SurrogateParams(**{f.name: getattr(self.oracle, f.name)
                                      for f in fields(SurrogateParams)})
        except ValueError as exc:
            raise ConfigError(f"bad surrogate parameters: {exc}") from exc

    def record_key(self, spec: ModelSpec | None = None) -> tuple:
        """What a record answers for: ``spec``'s dataset and each [oracle] key but BRIDGE."""
        return ((spec or self._spec()).meta.dataset,
                replace(self.oracle, **dict.fromkeys(OracleConfig.BRIDGE)))

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

    def beta_mode(self) -> BetaMode:
        return BetaMode(self.search.beta_return_mode)

    # -- resolved dump ------------------------------------------------------

    def resolved_text(self) -> str:
        """Every effective value, written back in config syntax."""
        parser = configparser.ConfigParser(interpolation=None)
        for section, f, part in self._keys():
            value = getattr(part, f.name)
            if f.name == "num_classes":
                value = self.effective_classes()
            if value is not None:
                if not parser.has_section(section):
                    parser.add_section(section)
                parser.set(section, f.name, _fmt(value))
        buf = io.StringIO()
        parser.write(buf)
        return buf.getvalue()


def _fmt(value) -> str:
    if isinstance(value, tuple):
        return " ".join(_fmt(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


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
