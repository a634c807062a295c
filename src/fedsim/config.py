"""Config files: YAML in, validated experiment/grid descriptions out.

A config file is a flat YAML mapping with optional per-component
sections (client, server, model, data) and an optional ``grid`` section.
Every key and its type are read off the config dataclasses, which own
every rule (enum tokens included), so a file and a Python caller get
one message. This module types YAML values, rejects unknown keys and
places each error at its key's line; its only hand-written tables are
``_CASTERS`` (annotation -> caster) and ``_HOISTED``.
``serialize_config`` emits YAML that parses back to an equal object.

Every key has a default; the minimal useful file just names the
optimizer pair::

    opt_c: prox
    opt_s: yogi
"""
from __future__ import annotations

import re
import sys
from dataclasses import asdict, dataclass, fields, is_dataclass, replace
from pathlib import Path
from typing import get_type_hints

import yaml

from .client import CLIENT_OPTIMIZERS
from .orchestrator import ExperimentConfig
from .server import SERVER_OPTIMIZERS


class ConfigError(ValueError):
    """A config file failed validation; message carries key path and line."""


# ------------------------------------------------------------------
# YAML loading that remembers the line of every key (for error messages)


class _Loader(yaml.SafeLoader):
    """PyYAML's safe scalar typing, plus YAML 1.2's exponent floats (``1e-3``)."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"),
)


def _node_to_obj(loader: _Loader, node: yaml.Node, path: str, lines: dict[str, int]):
    if isinstance(node, yaml.MappingNode):
        out = {}
        for key_node, value_node in node.value:
            key = str(key_node.value)
            child = f"{path}.{key}" if path else key
            lines[child] = key_node.start_mark.line + 1
            if key in out:
                raise _err(child, lines, "duplicate key")
            out[key] = _node_to_obj(loader, value_node, child, lines)
        return out
    if isinstance(node, yaml.SequenceNode):
        out = []
        for i, item in enumerate(node.value):
            child = f"{path}[{i}]"
            lines[child] = item.start_mark.line + 1
            out.append(_node_to_obj(loader, item, child, lines))
        return out
    try:
        return loader.construct_object(node, deep=True)
    except yaml.constructor.ConstructorError:
        raise _err(path, lines, f"unsupported YAML node type {node.tag!r}") from None
    except (ValueError, KeyError, AttributeError):  # ``!!int x``, ``!!bool x``, ``!!timestamp x``
        raise _err(path, lines, f"cannot parse scalar {node.value!r}") from None


def _load_yaml_tree(text: str) -> tuple[dict, dict[str, int]]:
    loader, lines = _Loader(text), {}
    try:
        root = loader.get_single_node()
        obj = {} if root is None else _node_to_obj(loader, root, "", lines)
    except yaml.YAMLError as exc:
        raise ConfigError(f"not valid YAML: {exc}") from exc
    finally:
        loader.dispose()
    if not isinstance(obj, dict):
        raise ConfigError("top level must be a mapping of keys to values")
    return obj, lines


# ------------------------------------------------------------------
# Schema: each section's keys and types are its dataclass's fields


def _err(path: str, lines: dict[str, int], msg: str) -> ConfigError:
    line = lines.get(path)
    where = f"{path} (line {line})" if line else path
    return ConfigError(f"{where}: {msg}" if where else msg)


def _construct(cls, kwargs: dict, path: str, lines: dict[str, int]):
    """``cls(**kwargs)``, with a rule it breaks reported at the key its
    message starts with if the file sets it under ``path`` (or, for a
    hoisted key, at the top level), else at ``path``."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        name = str(exc).split(" ", 1)[0]
        key = f"{path}.{name}" if path and _HOISTED.get(name) != path else name
        raise _err(key if key in lines else path, lines, str(exc)) from exc


def _take(section: dict, lines: dict[str, int], path: str, allowed: dict) -> dict:
    """Pop known keys through their casters; reject anything left over."""
    out = {}
    for key, caster in allowed.items():
        if key in section:
            child = f"{path}.{key}" if path else key
            out[key] = caster(section.pop(key), child, lines)
    for key in section:
        child = f"{path}.{key}" if path else key
        raise _err(child, lines, f"unknown key; expected one of {sorted(allowed)}")
    return out


def _cast_int(value, path, lines) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _err(path, lines, f"expected an integer, got {value!r}")
    return value


def _cast_float(value, path, lines) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _err(path, lines, f"expected a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, +-inf, or an int no float can hold
        raise _err(path, lines, f"must be finite, got {value!r}")
    return float(value)


def _cast_bool(value, path, lines) -> bool:
    if not isinstance(value, bool):
        raise _err(path, lines, f"expected true/false, got {value!r}")
    return value


def _cast_str(value, path, lines) -> str:
    if not isinstance(value, str):
        raise _err(path, lines, f"expected a string, got {value!r}")
    return value


def _cast_int_or_str(value, path, lines):
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise _err(path, lines, f"expected a column index or name, got {value!r}")
    return value


def _cast_mapping(what: str):
    def cast(value, path, lines) -> dict:
        if value is None:  # ``client:`` with nothing under it
            return {}
        if not isinstance(value, dict):
            raise _err(path, lines, f"expected a mapping of {what}")
        return value

    return cast


def _cast_list(item_caster):
    def cast(value, path, lines):
        if not isinstance(value, list):
            raise _err(path, lines, f"expected a list, got {value!r}")
        if not value:
            raise _err(path, lines, "list must not be empty")
        return tuple(item_caster(v, f"{path}[{i}]", lines) for i, v in enumerate(value))

    return cast


# Field type (as annotated, less a trailing "| None") -> caster.  YAML
# null is rejected for every key: an optional field stays unset by
# leaving its key out.
_CASTERS = {
    "int": _cast_int,
    "float": _cast_float,
    "bool": _cast_bool,
    "str": _cast_str,
    "int | str": _cast_int_or_str,
    "tuple[str, ...]": _cast_list(_cast_str),
    "tuple[int, ...]": _cast_list(_cast_int),
}

# Top-level keys that set a field of a section: ``opt_c: scaf`` is client.opt_c.
_HOISTED = {"opt_c": "client", "opt_s": "server"}


def _schema(cls) -> dict:
    """Key -> caster for the fields of ``cls`` that hold no nested config, read off their types."""
    hints = get_type_hints(cls)
    return {
        f.name: _CASTERS[f.type.removesuffix(" | None")]
        for f in fields(cls)
        if not is_dataclass(hints[f.name])
    }


_SECTIONS = {name: t for name, t in get_type_hints(ExperimentConfig).items() if is_dataclass(t)}

_SECTION_KEYS = {name: _schema(cls) for name, cls in _SECTIONS.items()}

_TOP_KEYS = {
    **{key: _SECTION_KEYS[name].pop(key) for key, name in _HOISTED.items()},  # top level only
    **_schema(ExperimentConfig),
    **dict.fromkeys(_SECTIONS, _cast_mapping("settings")),
}


@dataclass(frozen=True)
class GridSpec:
    """A sweep over optimizer pairs and seeds sharing one base config (the ``grid`` keys)."""

    base: ExperimentConfig
    opt_c: tuple[str, ...] = CLIENT_OPTIMIZERS
    opt_s: tuple[str, ...] = SERVER_OPTIMIZERS
    seeds: tuple[int, ...] = (0,)
    checkpoints: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for key in _GRID_KEYS:
            values = getattr(self, key)
            if len(set(values)) != len(values):
                raise ValueError(f"{key} contains duplicates: {list(values)}")
        for seed in self.seeds:
            if seed < 0:
                raise ValueError(f"seeds must be >= 0, got {seed}")
        cells = self.cells()
        if not cells:
            raise ValueError("grid must sweep at least one opt_c, opt_s, and seed")
        for cell in cells:
            self.cell_config(*cell)  # each cell passes a single run's rules
        for t in self.checkpoints:
            if not (0 < t <= self.base.rounds) or not self.base.is_eval_round(t):
                raise ValueError(
                    f"checkpoints must be evaluated rounds: {t} is never evaluated "
                    f"(rounds={self.base.rounds}, eval_every={self.base.eval_every})"
                )
        if tuple(sorted(self.checkpoints)) != self.checkpoints:
            raise ValueError(f"checkpoints must be sorted ascending: {self.checkpoints}")

    def resolved_checkpoints(self) -> tuple[int, ...]:
        if self.checkpoints:
            return self.checkpoints
        return (self.base.rounds,) if self.base.rounds > 0 else (0,)

    def cell_config(self, opt_c: str, opt_s: str, seed: int) -> ExperimentConfig:
        return replace(
            self.base,
            client=replace(self.base.client, opt_c=opt_c),
            server=replace(self.base.server, opt_s=opt_s),
            seed=seed,
        )

    def cells(self) -> list[tuple[str, str, int]]:
        return [
            (oc, os_, seed)
            for oc in self.opt_c
            for os_ in self.opt_s
            for seed in self.seeds
        ]


_GRID_KEYS = _schema(GridSpec)


def _build_experiment(top: dict, lines: dict[str, int]) -> ExperimentConfig:
    sections = {
        name: _take(top.pop(name, {}), lines, name, _SECTION_KEYS[name]) for name in _SECTIONS
    }
    for key, name in _HOISTED.items():
        if key in top:
            sections[name][key] = top.pop(key)
    for name, cls in _SECTIONS.items():
        sections[name] = _construct(cls, sections[name], name, lines)
    return _construct(ExperimentConfig, {**sections, **top}, "", lines)


def parse_config(path: str | Path) -> ExperimentConfig | GridSpec:
    """Parse and validate a config file.

    Returns a GridSpec when the file has a ``grid`` section, otherwise a
    single ExperimentConfig.
    """
    tree, lines = _load_yaml_tree(Path(path).read_text())
    # A ``grid`` key makes the file a sweep, even with nothing under it.
    top = _take(tree, lines, "", {**_TOP_KEYS, "grid": _cast_mapping("sweep settings")})
    grid_raw = top.pop("grid", None)
    base = _build_experiment(top, lines)
    if grid_raw is None:
        return base
    grid_kw = _take(grid_raw, lines, "grid", _GRID_KEYS)
    return _construct(GridSpec, {"base": base, **grid_kw}, "grid", lines)


# ------------------------------------------------------------------
# Serialization (parse(serialize(cfg)) == cfg)


def _experiment_dict(cfg: ExperimentConfig) -> dict:
    out = {}
    for key in _TOP_KEYS:
        value = getattr(cfg, key)
        if key in _SECTIONS:
            keys = _SECTION_KEYS[key]
            value = {k: v for k, v in asdict(value).items() if k in keys and v is not None}
        out[key] = value
    return out


def serialize_config(cfg: ExperimentConfig | GridSpec) -> str:
    """YAML text that parse_config maps back to an equal object."""
    if isinstance(cfg, GridSpec):
        out = _experiment_dict(cfg.base)
        out["grid"] = {key: list(getattr(cfg, key)) for key in _GRID_KEYS if getattr(cfg, key)}
    else:
        out = _experiment_dict(cfg)
    return yaml.safe_dump(out, sort_keys=False, default_flow_style=False)


def save_config(cfg: ExperimentConfig | GridSpec, path: str | Path) -> None:
    Path(path).write_text(serialize_config(cfg))
