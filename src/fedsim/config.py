"""Config files: YAML in, validated experiment/grid descriptions out.

A config file is a flat YAML mapping with optional per-component
sections (client, server, model, data) and an optional ``grid`` section.
Unknown keys are rejected with their file line, wrong enum tokens are
rejected with the list of valid tokens, and ``serialize_config`` emits
YAML that parses back to an equal object, so configs can be archived
alongside results and replayed exactly.

Every key has a default; the minimal useful file just names the
optimizer pair::

    opt_c: prox
    opt_s: yogi
"""
from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import yaml

from .client import CLIENT_OPTIMIZERS, CONTROL_OPTIONS, ClientConfig
from .model import ACTIVATIONS, MODEL_KINDS
from .orchestrator import DATA_SOURCES, DataConfig, ExperimentConfig, ModelConfig
from .server import SERVER_OPTIMIZERS, ServerConfig


class ConfigError(ValueError):
    """A config file failed validation; message carries key path and line."""


# ------------------------------------------------------------------
# YAML loading that remembers the line of every key (for error messages)


def _scalar_value(node: yaml.ScalarNode, path: str, line: int):
    tag = node.tag.rsplit(":", 1)[-1]
    text = node.value
    if tag == "null":
        return None
    if tag == "bool":
        return text.lower() in ("true", "yes", "on")
    try:
        if tag == "int":
            try:
                return int(text)
            except ValueError:
                return int(text, 0)
        if tag == "float":
            lowered = text.lower().replace("_", "")
            if lowered.endswith(".inf"):
                return -math.inf if lowered.startswith("-") else math.inf
            if lowered.endswith(".nan"):
                return math.nan
            return float(lowered)
    except ValueError:
        raise ConfigError(f"{path} (line {line}): cannot parse scalar {text!r}") from None
    if tag == "str":
        return text
    raise ConfigError(f"{path} (line {line}): unsupported YAML node type {node.tag!r}")


def _node_to_obj(node: yaml.Node, path: str, lines: dict[str, int]):
    if isinstance(node, yaml.MappingNode):
        out = {}
        for key_node, value_node in node.value:
            key = str(key_node.value)
            child = f"{path}.{key}" if path else key
            lines[child] = key_node.start_mark.line + 1
            if key in out:
                raise ConfigError(f"{child} (line {lines[child]}): duplicate key")
            out[key] = _node_to_obj(value_node, child, lines)
        return out
    if isinstance(node, yaml.SequenceNode):
        return [
            _node_to_obj(item, f"{path}[{i}]", lines) for i, item in enumerate(node.value)
        ]
    return _scalar_value(node, path, lines.get(path, 0))


def _load_yaml_tree(text: str) -> tuple[dict, dict[str, int]]:
    try:
        root = yaml.compose(text, Loader=yaml.SafeLoader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"not valid YAML: {exc}") from exc
    if root is None:
        return {}, {}
    lines: dict[str, int] = {}
    obj = _node_to_obj(root, "", lines)
    if not isinstance(obj, dict):
        raise ConfigError("top level must be a mapping of keys to values")
    return obj, lines


# ------------------------------------------------------------------
# Schema


def _err(path: str, lines: dict[str, int], msg: str) -> ConfigError:
    line = lines.get(path)
    where = f"{path} (line {line})" if line else path
    return ConfigError(f"{where}: {msg}")


def _take(section: dict, lines: dict[str, int], path: str, allowed: dict) -> dict:
    """Pop known keys through their casters; reject anything left over."""
    out = {}
    for key, caster in allowed.items():
        if key in section:
            child = f"{path}.{key}" if path else key
            out[key] = caster(section.pop(key), child, lines)
    for key in section:
        child = f"{path}.{key}" if path else key
        raise _err(
            child, lines, f"unknown key; expected one of {sorted(allowed)}"
        )
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


def _cast_token(valid: tuple[str, ...]):
    def cast(value, path, lines):
        if value not in valid:
            raise _err(path, lines, f"invalid token {value!r}; valid tokens: {list(valid)}")
        return value

    return cast


def _cast_label_col(value, path, lines):
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise _err(path, lines, f"expected a column index or name, got {value!r}")
    return value


def _cast_list(item_caster):
    def cast(value, path, lines):
        if not isinstance(value, list):
            raise _err(path, lines, f"expected a list, got {value!r}")
        if not value:
            raise _err(path, lines, "list must not be empty")
        return tuple(item_caster(v, f"{path}[{i}]", lines) for i, v in enumerate(value))

    return cast


_CLIENT_KEYS = {
    "local_epochs": _cast_int,
    "batch_size": _cast_int,
    "lr": _cast_float,
    "momentum": _cast_float,
    "weight_decay": _cast_float,
    "prox_mu": _cast_float,
    "control_option": _cast_token(CONTROL_OPTIONS),
}

_SERVER_KEYS = {
    "server_lr": _cast_float,
    "beta1": _cast_float,
    "beta2": _cast_float,
    "eps": _cast_float,
    "damped": _cast_bool,
}

_MODEL_KEYS = {
    "kind": _cast_token(MODEL_KINDS),
    "hidden_dim": _cast_int,
    "activation": _cast_token(ACTIVATIONS),
}

_DATA_KEYS = {
    "source": _cast_token(DATA_SOURCES),
    "alpha": _cast_float,
    "test_fraction": _cast_float,
    "num_classes": _cast_int,
    "dim": _cast_int,
    "samples_per_class": _cast_int,
    "spread": _cast_float,
    "path": _cast_str,
    "label_col": _cast_label_col,
    "has_header": _cast_bool,
}

_GRID_KEYS = {
    "opt_c": _cast_list(_cast_token(CLIENT_OPTIMIZERS)),
    "opt_s": _cast_list(_cast_token(SERVER_OPTIMIZERS)),
    "seeds": _cast_list(_cast_int),
    "checkpoints": _cast_list(_cast_int),
}


@dataclass(frozen=True)
class GridSpec:
    """A sweep over optimizer pairs and seeds sharing one base config."""

    base: ExperimentConfig
    opt_c_values: tuple[str, ...] = CLIENT_OPTIMIZERS
    opt_s_values: tuple[str, ...] = SERVER_OPTIMIZERS
    seeds: tuple[int, ...] = (0,)
    checkpoints: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not self.opt_c_values or not self.opt_s_values or not self.seeds:
            raise ValueError("grid must sweep at least one opt_c, opt_s, and seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"grid seeds contain duplicates: {self.seeds}")
        for s in self.seeds:
            if s < 0:
                raise ValueError(f"grid seeds must be >= 0, got {s}")
        for t in self.checkpoints:
            evaluated = t % self.base.eval_every == 0 or t == self.base.rounds
            if not (0 < t <= self.base.rounds) or not evaluated:
                raise ValueError(
                    f"checkpoint {t} is never evaluated (rounds={self.base.rounds}, "
                    f"eval_every={self.base.eval_every})"
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
            for oc in self.opt_c_values
            for os_ in self.opt_s_values
            for seed in self.seeds
        ]


def _build_experiment(tree: dict, lines: dict[str, int]) -> ExperimentConfig:
    top = _take(
        tree,
        lines,
        "",
        {
            "opt_c": _cast_token(CLIENT_OPTIMIZERS),
            "opt_s": _cast_token(SERVER_OPTIMIZERS),
            "num_clients": _cast_int,
            "sample_ratio": _cast_float,
            "rounds": _cast_int,
            "eval_every": _cast_int,
            "seed": _cast_int,
            "client": lambda v, p, l: v,
            "server": lambda v, p, l: v,
            "model": lambda v, p, l: v,
            "data": lambda v, p, l: v,
        },
    )

    def section(name: str, keys: dict) -> dict:
        raw = top.pop(name, {})
        if raw is None:
            raw = {}
        if not isinstance(raw, dict):
            raise _err(name, lines, "expected a mapping of settings")
        return _take(dict(raw), lines, name, keys)

    client_kw = section("client", _CLIENT_KEYS)
    server_kw = section("server", _SERVER_KEYS)
    model_kw = section("model", _MODEL_KEYS)
    data_kw = section("data", _DATA_KEYS)
    if "opt_c" in top:
        client_kw["opt_c"] = top.pop("opt_c")
    if "opt_s" in top:
        server_kw["opt_s"] = top.pop("opt_s")

    try:
        return ExperimentConfig(
            client=ClientConfig(**client_kw),
            server=ServerConfig(**server_kw),
            model=ModelConfig(**model_kw),
            data=DataConfig(**data_kw),
            **top,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_config(path: str | Path) -> ExperimentConfig | GridSpec:
    """Parse and validate a config file.

    Returns a GridSpec when the file has a ``grid`` section, otherwise a
    single ExperimentConfig.
    """
    text = Path(path).read_text()
    tree, lines = _load_yaml_tree(text)
    grid_raw = tree.pop("grid", None)
    base = _build_experiment(tree, lines)
    if grid_raw is None:
        return base
    if not isinstance(grid_raw, dict):
        raise _err("grid", lines, "expected a mapping of sweep settings")
    grid_kw = _take(dict(grid_raw), lines, "grid", _GRID_KEYS)
    fields = {"opt_c": "opt_c_values", "opt_s": "opt_s_values"}
    kwargs = {fields.get(key, key): value for key, value in grid_kw.items()}
    try:
        return GridSpec(base=base, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc


# ------------------------------------------------------------------
# Serialization (parse(serialize(cfg)) == cfg)


def _experiment_dict(cfg: ExperimentConfig) -> dict:
    client = asdict(cfg.client)
    server = asdict(cfg.server)
    data = {k: v for k, v in asdict(cfg.data).items() if v is not None}
    model = {k: v for k, v in asdict(cfg.model).items() if v is not None}
    out = {
        "opt_c": client.pop("opt_c"),
        "opt_s": server.pop("opt_s"),
        "num_clients": cfg.num_clients,
        "sample_ratio": cfg.sample_ratio,
        "rounds": cfg.rounds,
        "eval_every": cfg.eval_every,
        "seed": cfg.seed,
        "client": client,
        "server": {k: v for k, v in server.items() if v is not None},
        "model": model,
        "data": data,
    }
    return out


def serialize_config(cfg: ExperimentConfig | GridSpec) -> str:
    """YAML text that parse_config maps back to an equal object."""
    if isinstance(cfg, GridSpec):
        out = _experiment_dict(cfg.base)
        out["grid"] = {
            "opt_c": list(cfg.opt_c_values),
            "opt_s": list(cfg.opt_s_values),
            "seeds": list(cfg.seeds),
        }
        if cfg.checkpoints:
            out["grid"]["checkpoints"] = list(cfg.checkpoints)
    else:
        out = _experiment_dict(cfg)
    return yaml.safe_dump(out, sort_keys=False, default_flow_style=False)


def save_config(cfg: ExperimentConfig | GridSpec, path: str | Path) -> None:
    Path(path).write_text(serialize_config(cfg))
