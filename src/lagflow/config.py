"""Line-oriented experiment configuration: `section.key = value`.

Blank lines and `#` comments are ignored.  Unknown keys are rejected with
the offending line number (fail-closed: a silently ignored typo in a
threshold would corrupt every downstream verdict).  Every key has a typed
default, so an empty file is a valid configuration.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

# key -> (type tag, default).  Tags: int, float, bool, str, int_list, float_list, str_list
SCHEMA = {
    "output_dir": ("str", "out"),
    "master_seed": ("int", 0),

    "solver.n": ("int", 32),
    "solver.box_len": ("float", 1.0),
    "solver.nu": ("float", 0.05),
    "solver.dt": ("float", 0.01),
    "solver.t_end": ("float", 1.0),
    "solver.n_moll": ("float", math.inf),
    "solver.dealias": ("bool", True),
    "solver.initial": ("str", "taylor_green"),
    "solver.amplitude": ("float", 1.0),
    "solver.energy": ("float", 1.0),
    "solver.k_band": ("int", 8),

    "flow.m": ("int", 16),
    "flow.dt": ("float", 0.01),
    "flow.schemes": ("str_list", ["rk4", "euler"]),

    "weights.pair_count": ("int", 20000),

    "picard.n_iters": ("int", 10),
    "picard.m": ("int", 8),
    "picard.dt": ("float", 0.02),

    "probe.m": ("int", 8),
    "probe.dt": ("float", 0.02),
    "probe.halvings": ("int", 2),
    "probe.seeds": ("int_list", [0, 1, 2]),
    "probe.epsilons": ("float_list", [0.05, 0.2]),
    "probe.negative_control": ("bool", True),
}

_VALID_INITIAL = ("taylor_green", "shear", "random_band")
_VALID_SCHEMES = ("rk4", "euler")


class ConfigError(ValueError):
    pass


def _cast(tag: str, raw: str, where: str):
    try:
        if tag == "int":
            return int(raw)
        if tag == "float":
            return float(raw)
        if tag == "bool":
            low = raw.lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if tag == "str":
            return raw
        if tag == "int_list":
            return [int(v) for v in raw.split(",") if v.strip() != ""]
        if tag == "float_list":
            return [float(v) for v in raw.split(",") if v.strip() != ""]
        if tag == "str_list":
            return [v.strip() for v in raw.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    raise AssertionError(f"unknown tag {tag}")


@dataclass
class ExperimentConfig:
    values: dict = field(default_factory=dict)

    def __post_init__(self):
        merged = {k: SCHEMA[k][1] for k in SCHEMA}
        merged.update(self.values)
        self.values = merged
        self.validate()

    def __getitem__(self, key: str):
        return self.values[key]

    def validate(self):
        for key in self.values:
            if key not in SCHEMA:
                raise ConfigError(f"unknown key {key!r}")
        v = self.values
        for key, (tag, _) in SCHEMA.items():
            # n_moll = inf means no mollifier; NaN fails its range check below
            if tag == "float" and key != "solver.n_moll" and not math.isfinite(v[key]):
                raise ConfigError(f"{key} must be finite")
        if not all(0 <= e < math.inf for e in v["probe.epsilons"]):
            raise ConfigError("probe.epsilons must be finite and >= 0")
        if not v["solver.nu"] > 0:
            raise ConfigError("nu must be > 0")
        for key in ("solver.dt", "solver.t_end", "flow.dt", "picard.dt",
                    "probe.dt", "solver.box_len"):
            if not v[key] > 0:
                raise ConfigError(f"{key} must be > 0")
        n = v["solver.n"]
        if n < 8 or n & (n - 1):
            raise ConfigError("solver.n must be a power of two >= 8")
        if not v["solver.n_moll"] >= 1:
            raise ConfigError("solver.n_moll must be >= 1 (or inf)")
        if v["solver.initial"] not in _VALID_INITIAL:
            raise ConfigError(f"solver.initial must be one of {_VALID_INITIAL}")
        if not v["flow.schemes"] or not set(v["flow.schemes"]) <= set(_VALID_SCHEMES):
            raise ConfigError(f"flow.schemes must be a non-empty list of {_VALID_SCHEMES}")
        # the flow-Lipschitz check pairs neighbours of a lattice with m >= 4
        for key, least in (("flow.m", 4), ("picard.m", 2), ("probe.m", 2)):
            if v[key] < least:
                raise ConfigError(f"{key} must be >= {least}")
        for key in ("picard.n_iters", "probe.halvings", "weights.pair_count"):
            if v[key] < 1:
                raise ConfigError(f"{key} must be >= 1")
        if not v["probe.seeds"]:
            raise ConfigError("probe.seeds must be non-empty")
        # a repeated entry would run, record and average the same case twice
        for key, (tag, _) in SCHEMA.items():
            if tag.endswith("_list") and len(set(v[key])) < len(v[key]):
                raise ConfigError(f"{key} has duplicate entries: {v[key]}")

    def serialize(self) -> str:
        lines = []
        for key in sorted(self.values):
            tag = SCHEMA[key][0]
            val = self.values[key]
            if tag.endswith("_list"):
                raw = ",".join(str(x) for x in val)
            elif tag == "bool":
                raw = "true" if val else "false"
            else:
                raw = repr(val) if tag == "float" else str(val)
            lines.append(f"{key} = {raw}")
        return "\n".join(lines) + "\n"


def parse_config_text(text: str) -> ExperimentConfig:
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _cast(SCHEMA[key][0], raw, f"line {lineno}: {key}")
    return ExperimentConfig(values)


def parse_config(path) -> ExperimentConfig:
    with open(path) as f:
        return parse_config_text(f.read())


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(cfg.serialize().encode()).hexdigest()


def stage_seed(master_seed: int, label: str) -> int:
    """Independent per-stage seed: changing one stage label leaves every
    other stage's stream untouched."""
    digest = hashlib.sha256(label.encode()).digest()
    entropy = int.from_bytes(digest[:8], "little")
    ss = np.random.SeedSequence([master_seed & 0xFFFFFFFFFFFFFFFF, entropy])
    return int(ss.generate_state(1, dtype=np.uint64)[0])
