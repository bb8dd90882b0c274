"""Run configuration: JSON file -> validated dataclass with defaults."""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass, field

from .errors import ConfigError


# smallest allowed value of the numeric keys that have one, which must also
# be finite; a semaphore of 0 slots would hang, a NaN temperature makes every
# request body invalid JSON, and the others fail only after paid LLM calls
_MINIMUM = {
    "max_concurrency": 1,
    "max_retries": 0,
    "max_tokens": 1,
    "k_medoids": 1,
    "folds": 2,
    "temperature": 0,
    "summary_temperature": 0,
    "l2_lambda": 0,
}


@dataclass
class Config:
    # data inputs
    admissions_path: str = "admissions.csv"
    diagnoses_path: str = "diagnoses.csv"
    notes_path: str = "notes.csv"
    truth_vitals_path: str = ""
    truth_sdoh_path: str = ""

    # gateway
    endpoint_url: str = "http://localhost:8000/v1"
    api_key_env: str = "CLINNOTE_API_KEY"
    chat_model: str = "qwen3-14b"
    embed_model: str = "embedding"
    temperature: float = 0.0
    summary_temperature: float = 0.3
    max_tokens: int = 2048
    max_concurrency: int = 4
    max_retries: int = 3
    cache_dir: str = "cache"
    mock_mode: bool = False
    seed: int = 0

    # normalization / modeling
    k_medoids: int = 200
    folds: int = 5
    l2_lambda: float = 1.0
    standardize: bool = True

    def __post_init__(self):
        for key, low in _MINIMUM.items():
            value = getattr(self, key)
            if not low <= value < math.inf:  # also false for NaN
                raise ConfigError(
                    f"config key '{key}': must be at least {low} and finite, got {value}"
                )

    def api_key(self) -> str:
        return os.environ.get(self.api_key_env, "")


_FIELDS = {f.name: f.type for f in dataclasses.fields(Config)}

_TYPES = {
    "str": str,
    "float": (int, float),
    "int": int,
    "bool": bool,
}


def validate_config(path: str | None) -> Config:
    """Load a JSON config, applying defaults; unknown keys are fatal."""
    raw = {}
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        with open(path) as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
    return config_from_dict(raw)


def config_from_dict(raw: dict) -> Config:
    unknown = sorted(set(raw) - set(_FIELDS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    for key, value in raw.items():
        want = _TYPES[_FIELDS[key]]
        if isinstance(value, bool) and want is not bool:
            raise ConfigError(f"config key '{key}': expected {_FIELDS[key]}, got bool")
        if not isinstance(value, want):
            raise ConfigError(
                f"config key '{key}': expected {_FIELDS[key]}, got {type(value).__name__}"
            )
    return Config(**raw)
