"""JSON system configuration: a subshift plus named potential tables.

Expected layout::

    {
      "alphabet": 2,
      "transitions": [[1, 1], [1, 0]],
      "potentials": {
        "phi0": {"memory": 2, "values": {"00": 0.0, "01": -1.0, "10": -1.0}}
      }
    }

Block keys are digit strings for alphabets up to ten symbols, or
comma-separated symbol indices (``"0,11,3"``) for larger alphabets.
Every potential table must cover the admissible blocks of its memory
exactly; unknown keys anywhere are rejected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import ParseError, SftError, ValidationError
from .potentials import Potential
from .sft import Block, Sft, build_sft


@dataclass(frozen=True)
class SystemConfig:
    """A validated subshift with its named potentials."""

    sft: Sft
    potentials: dict[str, Potential]


def block_to_str(block: Block, alphabet_size: int) -> str:
    if alphabet_size <= 10:
        return "".join(str(s) for s in block)
    return ",".join(str(s) for s in block)


def str_to_block(text: str, alphabet_size: int) -> Block:
    try:
        if "," in text:
            symbols = tuple(int(part) for part in text.split(","))
        elif alphabet_size <= 10:
            symbols = tuple(int(ch) for ch in text)
        else:
            # beyond ten symbols a comma-less key is a single symbol index
            symbols = (int(text),)
    except ValueError as exc:
        raise ValidationError(f"block key {text!r} is not a symbol string") from exc
    if not symbols:
        raise ValidationError("empty block key")
    if any(s < 0 or s >= alphabet_size for s in symbols):
        raise ValidationError(f"block {text!r} uses symbols outside the alphabet")
    return symbols


def _expect_keys(mapping: dict, allowed: set[str], required: set[str], where: str):
    unknown = set(mapping) - allowed
    if unknown:
        raise ValidationError(f"{where}: unknown key(s) {sorted(unknown)}")
    missing = required - set(mapping)
    if missing:
        raise ValidationError(f"{where}: missing key(s) {sorted(missing)}")


def parse_config(path) -> SystemConfig:
    """Load and validate a system configuration file."""
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(raw)


def config_from_dict(raw) -> SystemConfig:
    """Validate an already-loaded configuration object."""
    if not isinstance(raw, dict):
        raise ValidationError("config root must be an object")
    _expect_keys(raw, {"alphabet", "transitions", "potentials"},
                 {"alphabet", "transitions"}, "config")

    alphabet = raw["alphabet"]
    if not isinstance(alphabet, int) or isinstance(alphabet, bool) or alphabet < 1:
        raise ValidationError("alphabet: must be a positive integer")
    try:
        sft = build_sft(alphabet, raw["transitions"])
    except SftError as exc:
        raise ValidationError(f"transitions: {exc}") from exc

    tables = raw.get("potentials", {})
    if not isinstance(tables, dict):
        raise ValidationError("potentials: must be an object")
    potentials: dict[str, Potential] = {}
    for name, entry in tables.items():
        if not isinstance(entry, dict):
            raise ValidationError(f"potentials.{name}: must be an object")
        _expect_keys(entry, {"memory", "values"}, {"memory", "values"},
                     f"potentials.{name}")
        memory = entry["memory"]
        if not isinstance(memory, int) or isinstance(memory, bool) or memory < 1:
            raise ValidationError(f"potentials.{name}.memory: must be a positive integer")
        if not isinstance(entry["values"], dict):
            raise ValidationError(f"potentials.{name}.values: must be an object")
        values: dict[Block, float] = {}
        for key, value in entry["values"].items():
            try:
                block = str_to_block(key, alphabet)
            except ValidationError as exc:
                raise ValidationError(f"potentials.{name}.values: {exc}") from exc
            if len(block) != memory:
                raise ValidationError(
                    f"potentials.{name}.values: block {key!r} has length "
                    f"{len(block)}, expected memory {memory}"
                )
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValidationError(
                    f"potentials.{name}.values: value for {key!r} is not a number"
                )
            values[block] = float(value)
        try:
            potentials[name] = Potential(sft, memory, values)
        except ValidationError as exc:
            raise ValidationError(f"potentials.{name}: {exc}") from exc
    return SystemConfig(sft, potentials)
