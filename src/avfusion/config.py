"""Experiment configuration files.

A run is described by one JSON object with three optional sections::

    {
      "out_dir": "runs/demo",
      "generator": { ... synthdata.GenConfig fields ... },
      "training":  { ... training.TrainConfig fields ... }
    }

Every field has a default, and unknown keys, keys given twice and values
of the wrong JSON type are rejected with the offending line number.
Float fields take integers too and keep them as given; the model
settings among the training fields are checked by
``model.ModelSettings`` when the training section is built.  The
machine-readable field list lives in ``config.schema.json`` at the
repository root.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from dataclasses import dataclass, field

from .exceptions import ConfigError
from .synthdata import GenConfig
from .training import TrainConfig


@dataclass
class ExperimentConfig:
    out_dir: str = "runs"
    generator: GenConfig = field(default_factory=GenConfig)
    training: TrainConfig = field(default_factory=TrainConfig)


def _key_line(text: str, key: str, start: int = 1):
    """1-based line of the first occurrence of a quoted key at or after
    line ``start``, if any."""
    needle = f'"{key}"'
    for lineno, line in enumerate(text.splitlines()[start - 1 :], start=start):
        if needle in line:
            return lineno
    return None


def _where(text: str, section_name: str, key: str) -> str:
    """`` (line N)`` for a key of a section, searched from the section's key on."""
    line = _key_line(text, key, _key_line(text, section_name) or 1)
    return f" (line {line})" if line is not None else ""


class _JsonObject(dict):
    """A JSON object that keeps the first key it was given twice, if any."""

    def __init__(self, pairs):
        super().__init__(pairs)
        seen = set()
        self.repeated = next((key for key, _ in pairs if key in seen or seen.add(key)), None)


def _check_keys(section_name: str, data: dict, allowed, text: str):
    repeated = getattr(data, "repeated", None)
    if repeated is not None:
        raise ConfigError(
            f"key {repeated!r} given twice in {section_name}{_where(text, section_name, repeated)}"
        )
    for key in data:
        if key not in allowed:
            raise ConfigError(
                f"unknown key {key!r} in {section_name}{_where(text, section_name, key)}; "
                f"expected one of: {', '.join(sorted(allowed))}"
            )


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# declared field type -> (test on the parsed JSON value, what the message asks for)
_JSON_TYPES = {
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "int": (_is_int, "an integer"),
    "float": (
        lambda v: _is_int(v) or (isinstance(v, float) and math.isfinite(v)),
        "a finite number",
    ),
    "str": (lambda v: isinstance(v, str), "a string"),
    "tuple": (lambda v: isinstance(v, list) and all(map(_is_int, v)), "a list of integers"),
}


def _build_section(section_name: str, cls, data, text: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{section_name} must be a JSON object, got {type(data).__name__}")
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    _check_keys(section_name, data, types, text)
    for key, value in data.items():
        accepts, expected = _JSON_TYPES[types[key]]
        if not accepts(value):
            raise ConfigError(
                f"{key} in {section_name}{_where(text, section_name, key)} must be {expected}, "
                f"got {json.dumps(value)}"
            )
    return cls(**{key: tuple(v) if types[key] == "tuple" else v for key, v in data.items()})


def parse_config(text: str) -> ExperimentConfig:
    """Parse a JSON experiment description; all sections optional."""
    try:
        data = json.loads(text, object_pairs_hook=_JsonObject)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError:  # the only other one: an integer past Python's digit limit
        raise ConfigError(
            f"invalid JSON: an integer has more than {sys.get_int_max_str_digits()} digits"
        ) from None
    except RecursionError:
        raise ConfigError("invalid JSON: arrays or objects nest too deeply") from None
    if not isinstance(data, dict):
        raise ConfigError(f"top level must be a JSON object, got {type(data).__name__}")
    allowed = {f.name for f in dataclasses.fields(ExperimentConfig)}
    _check_keys("top level", data, allowed, text)
    out_dir = data.get("out_dir", "runs")
    if not isinstance(out_dir, str):
        raise ConfigError(f"out_dir must be a string, got {type(out_dir).__name__}")
    return ExperimentConfig(
        out_dir=out_dir,
        generator=_build_section("generator", GenConfig, data.get("generator", {}), text),
        training=_build_section("training", TrainConfig, data.get("training", {}), text),
    )


def load_config(path) -> ExperimentConfig:
    """Read and parse a config file; every error it holds is a
    :class:`ConfigError` that names the file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return parse_config(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text (byte offset {exc.start})") from None
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
