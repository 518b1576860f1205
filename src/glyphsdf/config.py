"""Run configuration: JSON document with dataset/field/train/eval/paths
sections, strict about unknown keys, with flag overrides applied on top.

Each section validates its own values when it is built, and an override
is written into the document before the document is built, so values from
the file and from overrides pass the same checks.

This is the one place where a run setting's default is written.  The
library reads it from here: a function takes the section it needs, and a
library default names the field, as ``rho: float = TrainSettings.rho``.
"""
from __future__ import annotations

import dataclasses
import json
import math
import string
import sys
from dataclasses import dataclass, field as dc_field
from pathlib import Path

# imports nothing that loads numpy, so the CLI reads the thread count from
# the config before numpy starts its BLAS pools
from .errors import ConfigError

# smallest grid width a field is trained or rendered at
MIN_WIDTH = 8
DEFAULT_ALPHABET = string.ascii_uppercase + string.ascii_lowercase
DEFAULT_MARGIN = 0.15
# a junction is a corner when the angle between its two curve rays is
# below this, about 171 degrees
CORNER_ANGLE_DEFAULT = 3.0  # radians


def _require(ok, message):
    if not ok:
        raise ConfigError(message)


_KINDS = {
    "int": ((int,), "an integer"),
    "float": ((int, float), "a finite number"),
    "str": ((str,), "a string"),
    "list": ((list,), "a list"),
}


def require_types(obj, name):
    """Each ``int``, ``float``, ``str`` or ``list`` field of the dataclass
    ``obj`` (or ``T | None`` field) holds a value of that type; a float
    field holds a finite float or an int that a float can hold, and no field
    takes a bool.  The annotations are strings under the module's
    ``from __future__ import annotations``."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        kind = f.type.removesuffix(" | None")
        if kind in _KINDS and not (value is None and kind != f.type):
            types, what = _KINDS[kind]
            # NaN fails the comparison, and an int compares exactly
            ok = type(value) in types and (kind != "float" or abs(value) <= sys.float_info.max)
            _require(ok, f"{name}.{f.name} must be {what}, got {value!r}")


@dataclass
class DatasetSettings:
    manifest: str | None = None
    alphabet: str = DEFAULT_ALPHABET
    margin: float = DEFAULT_MARGIN

    def __post_init__(self):
        require_types(self, "dataset")
        _require(
            self.alphabet and len(set(self.alphabet)) == len(self.alphabet),
            f"dataset.alphabet must be non-empty with no repeated character, got {self.alphabet!r}",
        )
        _require(0 <= self.margin < 1, f"dataset.margin must be in [0, 1), got {self.margin!r}")


@dataclass
class FieldSettings:
    channels: int = 3
    aa_k: float = 4.0
    train_width: int = 64
    corner_threshold: float = CORNER_ANGLE_DEFAULT

    def __post_init__(self):
        require_types(self, "field")
        _require(self.channels in (1, 3), f"field.channels must be 1 or 3, got {self.channels!r}")
        _require(self.aa_k > 0, f"field.aa_k must be > 0, got {self.aa_k!r}")
        _require(
            self.train_width >= MIN_WIDTH,
            f"field.train_width must be >= {MIN_WIDTH}, got {self.train_width!r}",
        )
        _require(
            0 < self.corner_threshold < math.pi,
            f"field.corner_threshold must be in (0, pi), got {self.corner_threshold!r}",
        )

    @property
    def gamma_final(self):
        return self.aa_k / self.train_width


@dataclass
class TrainSettings:
    epochs: int = 2000
    lr: float = 1e-3
    seed: int = 0
    freeze_epoch: int | None = None
    alpha: float = 1.0           # corner template loss weight
    beta: float = 0.01           # gradient-norm (eikonal) loss weight
    gamma_reg: float = 1e-4      # latent norm weight
    gamma_start: float = 1.0     # warm-up anti-alias range (full field range)
    anneal_epochs: int | None = None  # None -> epochs // 2; 0 disables warm-up
    supervision: str = "sdf"     # "sdf" | "pixel"
    eikonal_ratio: float = 0.15  # fraction of samples carrying the stencil
    rho: float = 0.25            # homogeneous samples per edge sample
    min_homogeneous: int = 64
    # per-step cap on edge+homogeneous samples (seeded subset per epoch;
    # corner windows always kept); None trains on every sample each step
    samples_cap: int | None = 1024
    fit_lr: float = 1e-2
    fit_steps: int = 500
    hidden_layers: int = 8       # network depth (production default)
    hidden_width: int = 384      # units per hidden layer
    threads: int | None = None   # 1 forces the bit-reproducible mode

    def __post_init__(self):
        require_types(self, "train")
        _require(
            self.supervision in ("sdf", "pixel"),
            f"train.supervision must be 'sdf' or 'pixel', got {self.supervision!r}",
        )
        _require(
            min(self.alpha, self.beta, self.gamma_reg) >= 0,
            "train.alpha, train.beta and train.gamma_reg must be >= 0",
        )
        _require(0.0 <= self.eikonal_ratio <= 1.0, "train.eikonal_ratio must be in [0, 1]")
        _require(self.gamma_start > 0, f"train.gamma_start must be > 0, got {self.gamma_start!r}")
        _require(self.epochs >= 1, f"train.epochs must be >= 1, got {self.epochs!r}")
        _require(self.lr > 0 and self.fit_lr > 0, "train.lr and train.fit_lr must be > 0")
        _require(
            self.hidden_layers >= 1 and self.hidden_width >= 1,
            "train.hidden_layers and train.hidden_width must be >= 1",
        )
        _require(
            self.samples_cap is None or self.samples_cap >= 1,
            f"train.samples_cap must be null or >= 1, got {self.samples_cap!r}",
        )
        _require(
            self.threads is None or self.threads >= 1,
            f"train.threads must be null or >= 1, got {self.threads!r}",
        )
        for key in ("anneal_epochs", "freeze_epoch"):
            value = getattr(self, key)
            _require(value is None or value >= 0, f"train.{key} must be null or >= 0, got {value!r}")
        for key in ("fit_steps", "rho", "min_homogeneous"):
            value = getattr(self, key)
            _require(value >= 0, f"train.{key} must be >= 0, got {value!r}")


@dataclass
class EvalSettings:
    resolutions: list = dc_field(default_factory=lambda: [128, 256, 512, 1024])
    methods: list = dc_field(default_factory=lambda: ["implicit", "bilateral"])

    def __post_init__(self):
        require_types(self, "eval")
        _require(
            all(type(width) is int and width >= MIN_WIDTH for width in self.resolutions),
            f"eval.resolutions must all be integers >= {MIN_WIDTH}, got {self.resolutions!r}",
        )
        _require(
            all(m in ("implicit", "bilateral") for m in self.methods),
            f"eval.methods must be 'implicit' or 'bilateral', got {self.methods!r}",
        )


@dataclass
class PathsSettings:
    output_dir: str = "out"

    def __post_init__(self):
        require_types(self, "paths")


_SECTIONS = {
    "dataset": DatasetSettings,
    "field": FieldSettings,
    "train": TrainSettings,
    "eval": EvalSettings,
    "paths": PathsSettings,
}


@dataclass
class RunConfig:
    dataset: DatasetSettings = dc_field(default_factory=DatasetSettings)
    field: FieldSettings = dc_field(default_factory=FieldSettings)
    train: TrainSettings = dc_field(default_factory=TrainSettings)
    eval: EvalSettings = dc_field(default_factory=EvalSettings)
    paths: PathsSettings = dc_field(default_factory=PathsSettings)

    @classmethod
    def from_dict(cls, doc):
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(doc) - set(_SECTIONS)
        if unknown:
            raise ConfigError(f"unknown config sections: {sorted(unknown)}")
        kwargs = {}
        for name, section_cls in _SECTIONS.items():
            section = doc.get(name, {})
            if not isinstance(section, dict):
                raise ConfigError(f"config section {name!r} must be an object")
            valid = {f.name for f in dataclasses.fields(section_cls)}
            bad = set(section) - valid
            if bad:
                raise ConfigError(f"unknown keys in section {name!r}: {sorted(bad)}")
            try:
                kwargs[name] = section_cls(**section)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad config section {name!r}: {exc}") from exc
        return cls(**kwargs)

    @classmethod
    def load(cls, path):
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            # RecursionError: arrays or objects nested too deeply to decode
            raise ConfigError(f"config {path} is not valid UTF-8 JSON: {exc}") from exc
        return cls.from_dict(doc)

    def to_dict(self):
        return dataclasses.asdict(self)

    def apply_overrides(self, pairs):
        """The config with ``section.key=value`` overrides (values parsed as
        JSON) written into its document, validated as a file's values are."""
        doc = self.to_dict()
        for pair in pairs:
            if "=" not in pair:
                raise ConfigError(f"override {pair!r} must look like section.key=value")
            target, _, raw = pair.partition("=")
            if "." not in target:
                raise ConfigError(f"override target {target!r} must be section.key")
            section_name, _, key = target.partition(".")
            try:
                value = json.loads(raw)
            except (json.JSONDecodeError, RecursionError):
                value = raw  # bare strings are convenient on the command line
            doc.setdefault(section_name, {})[key] = value
        return self.from_dict(doc)
