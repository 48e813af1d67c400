"""JSON experiment configuration.  Each field is declared once, as
dataclasses.field metadata: the JSON kind _get reads it as, its default and
its rule, which __post_init__ checks.  Every error names the config path."""

import json
import sys
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from typing import ClassVar

import numpy as np

from .propagators import ModelSequence
from .rng import RngSpec

__all__ = ["ConfigError", "ModelConfig", "MvConfig", "ExperimentConfig"]


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field path."""


# two JSON kinds besides the plain ones: a nonempty list of numbers, and a
# nonempty list of such lists, all of one length
_VECTOR, _ROWS = "vector", "rows"
_KIND_NAMES = {int: "an integer", float: "a number", bool: "a boolean",
               str: "a string", list: "a list", dict: "an object"}


def _get(obj, key, kind, path):
    """obj[key] read as kind: a type of _KIND_NAMES, _VECTOR, _ROWS or a section
    class.  No boolean is a number, every number must be finite and an
    integer-valued one counts as an integer.  Errors name path.key or path[key]."""
    name = "%s[%d]" % (path, key) if isinstance(obj, list) else "%s.%s" % (path, key)
    if isinstance(obj, dict) and key not in obj:
        raise ConfigError("%s: missing required field" % name)
    val = obj[key]
    if is_dataclass(kind):
        return kind.from_dict(_get(obj, key, dict, path))
    if kind in (_VECTOR, _ROWS):
        items = _get(obj, key, list, path)
        if not items:
            raise ConfigError("%s: expected a nonempty list" % name)
        vals = tuple(_get(items, j, float if kind == _VECTOR else _VECTOR, name)
                     for j in range(len(items)))
        if kind == _ROWS and len(set(map(len, vals))) > 1:
            raise ConfigError("%s: rows must all have the same length" % name)
        return vals
    if kind in (int, float):
        number = isinstance(val, (int, float)) and not isinstance(val, bool)
        # abs(nan) <= max is False, and so is it for an int beyond double range
        if number and not abs(val) <= sys.float_info.max:
            raise ConfigError("%s: expected a finite number, got %s" % (name, json.dumps(val)))
        if number and (kind is float or float(val).is_integer()):
            return kind(val)
    elif isinstance(val, kind):
        return val
    raise ConfigError("%s: expected %s, got %s" % (name, _KIND_NAMES[kind], json.dumps(val)))


def _field(kind, default=MISSING, rule=None):
    """A config field: its JSON kind, default and (test, message) rule."""
    return field(default=default, metadata={"kind": kind, "rule": rule})


def _one_of(*names):
    return (lambda v: v in names, "expected one of %s" % ", ".join(map(repr, names)))


_POSITIVE = (lambda v: v > 0.0, "must be positive")


def _check(cfg):
    """Raise a ConfigError naming the first field of cfg whose rule fails."""
    for f in fields(cfg):
        rule = f.metadata.get("rule")
        if rule is not None and not rule[0](getattr(cfg, f.name)):
            raise ConfigError("%s.%s: %s" % (cfg._PATH, f.name, rule[1]))


def _only(cls, obj, names, kind=None):
    """Raise on the first key of obj outside names: unknown if cls does not
    declare it, else not read by the model kind."""
    declared = {f.name for f in fields(cls) if f.metadata}
    for key in obj:
        if key not in names:
            why = "unknown field" if key not in declared else "not read by kind %r" % kind
            raise ConfigError("%s.%s: %s" % (cls._PATH, key, why))


def _read(cls, obj, names, required=False):
    """The named fields of cls, all if required else those obj holds."""
    kinds = {f.name: f.metadata.get("kind") for f in fields(cls)}
    return {n: _get(obj, n, kinds[n], cls._PATH) for n in names if required or n in obj}


# the fields each model kind reads: (required, optional)
_MODEL_FIELDS = {"constant": (("m",), ()), "explicit": (("values",), ()),
                 "random_loguniform": ((), ("low", "high", "signed"))}


@dataclass(frozen=True)
class ModelConfig:
    _PATH: ClassVar[str] = "config.model"
    kind: str = _field(str, rule=_one_of(*_MODEL_FIELDS))
    m: float = _field(float, 1.0, (lambda m: m != 0.0, "must be nonzero"))
    values: tuple = _field(_VECTOR, (), (all, "must all be nonzero"))
    low: float = _field(float, 0.5, _POSITIVE)
    high: float = _field(float, 2.0)
    signed: bool = _field(bool, True)

    def __post_init__(self):
        _check(self)
        if not self.low <= self.high:
            raise ConfigError("config.model.high: must be >= config.model.low")

    @classmethod
    def from_dict(cls, obj):
        kind = _read(cls, obj, ("kind",), True)["kind"]
        if kind not in _MODEL_FIELDS:
            return cls(kind)  # the kind's rule names the choices
        required, optional = _MODEL_FIELDS[kind]
        _only(cls, obj, ("kind",) + required + optional, kind)
        return cls(kind, **_read(cls, obj, required, True), **_read(cls, obj, optional))

    def build(self, steps, spec: RngSpec):
        if self.kind == "constant":
            return ModelSequence.constant(self.m, steps)
        if self.kind == "explicit":
            return ModelSequence(np.asarray(self.values))
        return ModelSequence.random_loguniform(steps, spec, self.low,
                                               self.high, self.signed)


@dataclass(frozen=True)
class MvConfig:
    _PATH: ClassVar[str] = "config.mv"
    Z: tuple = _field(_ROWS)
    multipliers: tuple = _field(_ROWS)
    p0_diag: tuple = _field(_VECTOR)
    r_diag: tuple = _field(_VECTOR)
    x0: tuple = _field(_VECTOR)

    @classmethod
    def from_dict(cls, obj):
        names = [f.name for f in fields(cls)]
        _only(cls, obj, names)
        return cls(**_read(cls, obj, names, True))


@dataclass(frozen=True)
class ExperimentConfig:
    _PATH: ClassVar[str] = "config"
    seed: int = _field(int, 20260826, (lambda s: 0 <= s < 2**64,
                                       "must fit in an unsigned 64-bit integer"))
    steps: int = _field(int, 20, (lambda v: v >= 1, "must be >= 1"))
    ensemble_size: int = _field(int, 16, (lambda v: v >= 3, "must be >= 3"))
    p0: float = _field(float, 1.0, _POSITIVE)
    x0: float = _field(float, 0.0)
    x0_truth: float = _field(float, 1.0)
    r: float = _field(float, 1.0, _POSITIVE)
    p_tilde0: float = _field(float, 1.0, _POSITIVE)
    x_tilde0: float = _field(float, 0.0)
    replicates: int = _field(int, 100_000, (lambda v: v >= 2, "must be >= 2"))
    inflation: str = _field(str, "none", _one_of("none", "sequential", "initial-theta"))
    perturbed_obs: bool = _field(bool, False)
    output_path: "str | None" = _field(str, None)
    # whether "seed" was given; JSON cannot set it
    seed_given: bool = False
    model: ModelConfig = _field(ModelConfig, ModelConfig("constant"))
    mv: "MvConfig | None" = _field(MvConfig, None)

    def __post_init__(self):
        _check(self)
        # an explicit model fixes the step count: steps may only restate it
        n = len(self.model.values)
        if self.model.kind == "explicit" and self.steps != n:
            raise ConfigError("config.steps: %d does not match the %d values of "
                              "config.model.values" % (self.steps, n))

    @classmethod
    def from_dict(cls, obj):
        if not isinstance(obj, dict):
            raise ConfigError("config: top level must be a JSON object")
        _only(cls, obj, [f.name for f in fields(cls) if f.metadata])
        kwargs = _read(cls, obj, obj)
        if getattr(kwargs.get("model"), "kind", None) == "explicit":
            kwargs.setdefault("steps", len(kwargs["model"].values))
        # the sampled prior mean and variance follow the exact prior
        for exact, sampled in (("p0", "p_tilde0"), ("x0", "x_tilde0")):
            if exact in kwargs:
                kwargs.setdefault(sampled, kwargs[exact])
        return cls(seed_given="seed" in obj, **kwargs)

    @classmethod
    def from_json(cls, path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError("config: invalid JSON in %s: %s" % (path, exc)) from exc
        return cls.from_dict(obj)
