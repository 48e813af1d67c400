"""JSON experiment configuration with field-path validation diagnostics."""

import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .propagators import ModelSequence
from .rng import RngSpec

__all__ = ["ConfigError", "ModelConfig", "MvConfig", "ExperimentConfig"]


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field path."""


def _need(obj, key, types, path):
    if key not in obj:
        raise ConfigError("%s.%s: missing required field" % (path, key))
    val = obj[key]
    if not isinstance(val, types) or isinstance(val, bool):
        raise ConfigError("%s.%s: expected %s, got %r" % (path, key, types, val))
    return val


def _opt(obj, key, types, path, default):
    if key not in obj:
        return default
    return _need(obj, key, types, path)


_NUM = (int, float)


@dataclass(frozen=True)
class ModelConfig:
    kind: str
    m: float = 1.0
    values: tuple = ()
    low: float = 0.5
    high: float = 2.0
    signed: bool = True

    @classmethod
    def from_dict(cls, obj, path="model"):
        kind = _need(obj, "kind", str, path)
        if kind == "constant":
            return cls(kind=kind, m=float(_need(obj, "m", _NUM, path)))
        if kind == "explicit":
            vals = _need(obj, "values", list, path)
            if not vals or not all(isinstance(v, _NUM) and v != 0 for v in vals):
                raise ConfigError("%s.values: need a nonempty list of nonzero numbers" % path)
            return cls(kind=kind, values=tuple(float(v) for v in vals))
        if kind == "random_loguniform":
            low = float(_opt(obj, "low", _NUM, path, 0.5))
            high = float(_opt(obj, "high", _NUM, path, 2.0))
            if not (0.0 < low <= high):
                raise ConfigError("%s: need 0 < low <= high" % path)
            signed = obj.get("signed", True)
            if not isinstance(signed, bool):
                raise ConfigError("%s.signed: expected a boolean" % path)
            return cls(kind=kind, low=low, high=high, signed=signed)
        raise ConfigError("%s.kind: unknown kind %r" % (path, kind))

    def build(self, steps, spec: RngSpec):
        if self.kind == "constant":
            return ModelSequence.constant(self.m, steps)
        if self.kind == "explicit":
            return ModelSequence(np.asarray(self.values))
        return ModelSequence.random_loguniform(steps, spec, self.low,
                                               self.high, self.signed)


@dataclass(frozen=True)
class MvConfig:
    Z: tuple
    multipliers: tuple
    p0_diag: tuple
    r_diag: tuple
    x0: tuple

    @classmethod
    def from_dict(cls, obj, path="mv"):
        def grid(key):
            v = _need(obj, key, list, path)
            if not v or not all(isinstance(row, list) for row in v):
                raise ConfigError("%s.%s: expected a list of rows" % (path, key))
            return tuple(tuple(float(x) for x in row) for row in v)

        def vec(key):
            v = _need(obj, key, list, path)
            if not v or not all(isinstance(x, _NUM) for x in v):
                raise ConfigError("%s.%s: expected a list of numbers" % (path, key))
            return tuple(float(x) for x in v)

        return cls(Z=grid("Z"), multipliers=grid("multipliers"),
                   p0_diag=vec("p0_diag"), r_diag=vec("r_diag"), x0=vec("x0"))


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 20260826
    steps: int = 20
    ensemble_size: int = 16
    p0: float = 1.0
    x0: float = 0.0
    x0_truth: float = 1.0
    r: float = 1.0
    p_tilde0: float = 1.0
    x_tilde0: float = 0.0
    replicates: int = 100_000
    inflation: str = "none"
    perturbed_obs: bool = False
    output_path: "str | None" = None
    seed_given: bool = False
    model: ModelConfig = field(default_factory=lambda: ModelConfig(kind="constant", m=1.0))
    mv: "MvConfig | None" = None

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigError("steps: must be >= 1")
        if self.ensemble_size < 3:
            raise ConfigError("ensemble_size: must be >= 3")
        for name in ("p0", "r", "p_tilde0"):
            if not (getattr(self, name) > 0.0):
                raise ConfigError("%s: must be positive" % name)
        if self.replicates < 2:
            raise ConfigError("replicates: must be >= 2")
        if self.inflation not in ("none", "sequential", "initial-theta"):
            raise ConfigError(
                "inflation: expected 'none', 'sequential' or 'initial-theta'")
        if not (0 <= int(self.seed) < 2**64):
            raise ConfigError("seed: must fit in an unsigned 64-bit integer")

    @classmethod
    def from_dict(cls, obj):
        if not isinstance(obj, dict):
            raise ConfigError("config: top level must be a JSON object")
        path = "config"
        kwargs = {}
        for name in ("seed", "steps", "ensemble_size", "replicates"):
            if name in obj:
                val = _need(obj, name, _NUM, path)
                if not (isinstance(val, int) or val.is_integer()):
                    raise ConfigError("%s.%s: expected an integer, got %r" % (path, name, val))
                kwargs[name] = int(val)
        for name in ("p0", "x0", "x0_truth", "r", "p_tilde0", "x_tilde0"):
            if name in obj:
                val = float(_need(obj, name, _NUM, path))
                if not math.isfinite(val):
                    raise ConfigError("%s.%s: expected a finite number, got %r"
                                      % (path, name, val))
                kwargs[name] = val
        if "inflation" in obj:
            kwargs["inflation"] = _need(obj, "inflation", str, path)
        if "perturbed_obs" in obj:
            po = obj["perturbed_obs"]
            if not isinstance(po, bool):
                raise ConfigError("config.perturbed_obs: expected a boolean")
            kwargs["perturbed_obs"] = po
        if "output_path" in obj:
            kwargs["output_path"] = _need(obj, "output_path", str, path)
        if "model" in obj:
            model = kwargs["model"] = ModelConfig.from_dict(_need(obj, "model", dict, path))
            # an explicit model fixes the step count: steps may only restate it
            if model.kind == "explicit":
                n = len(model.values)
                if kwargs.setdefault("steps", n) != n:
                    raise ConfigError("config.steps: %d does not match the %d values of "
                                      "config.model.values" % (kwargs["steps"], n))
        if "mv" in obj:
            kwargs["mv"] = MvConfig.from_dict(_need(obj, "mv", dict, path))
        # seed_given records whether "seed" was present; JSON cannot set it
        known = {f.name for f in fields(cls)} - {"seed_given"}
        for key in obj:
            if key not in known:
                raise ConfigError("config.%s: unknown field" % key)
        # defaults: sampled prior mean/variance follow the exact prior
        if "p_tilde0" not in kwargs and "p0" in kwargs:
            kwargs["p_tilde0"] = kwargs["p0"]
        if "x_tilde0" not in kwargs and "x0" in kwargs:
            kwargs["x_tilde0"] = kwargs["x0"]
        kwargs["seed_given"] = "seed" in obj
        return cls(**kwargs)

    @classmethod
    def from_json(cls, path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("config: invalid JSON in %s: %s" % (path, exc)) from exc
        return cls.from_dict(obj)
