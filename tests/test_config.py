from __future__ import annotations

import ast
import math
import re

import pytest

from fedsim import config
from fedsim.client import ClientConfig
from fedsim.config import ConfigError, GridSpec, parse_config, save_config, serialize_config
from fedsim.orchestrator import DataConfig, ExperimentConfig
from fedsim.server import ServerConfig


def write(tmp_path, text: str):
    p = tmp_path / "config.yaml"
    p.write_text(text)
    return p


def test_minimal_config_gets_defaults(tmp_path):
    cfg = parse_config(write(tmp_path, "opt_c: prox\nopt_s: yogi\n"))
    assert isinstance(cfg, ExperimentConfig)
    assert cfg.opt_c == "prox"
    assert cfg.opt_s == "yogi"
    assert cfg.algorithm == "ProxYogi"
    assert cfg.num_clients == 100
    assert cfg.sample_ratio == 0.1
    assert cfg.rounds == 2000
    assert cfg.eval_every == 100
    assert cfg.client.local_epochs == 1
    assert cfg.client.batch_size == 32
    assert cfg.client.lr == 0.01
    assert cfg.client.momentum == 0.9
    assert cfg.client.weight_decay == 1e-4
    assert cfg.client.prox_mu == 0.005
    assert cfg.server.lr == 0.005  # adaptive default
    assert cfg.server.beta1 == 0.9
    assert cfg.server.beta2 == 0.99
    assert cfg.server.eps == 1e-8
    assert cfg.data.alpha == 0.1
    assert cfg.data.test_fraction == 0.2


def test_empty_config_is_all_defaults(tmp_path):
    cfg = parse_config(write(tmp_path, ""))
    assert cfg.algorithm == "FedAvg"
    assert cfg.server.lr == 1.0  # sgd default


def test_full_config_parses(tmp_path):
    cfg = parse_config(
        write(
            tmp_path,
            """
opt_c: scaf
opt_s: adam
num_clients: 20
sample_ratio: 0.5
rounds: 50
eval_every: 10
seed: 3

client:
  local_epochs: 2
  batch_size: 16
  lr: 0.02
  momentum: 0.8
  weight_decay: 0.001
  prox_mu: 0.01
  control_option: II

server:
  server_lr: 0.01
  beta1: 0.95
  beta2: 0.999
  eps: 1.0e-07
  damped: true

model:
  kind: mlp1
  hidden_dim: 12
  activation: tanh

data:
  source: synthetic
  num_classes: 4
  dim: 6
  samples_per_class: 50
  spread: 1.5
  alpha: 0.3
  test_fraction: 0.25
""",
        )
    )
    assert cfg.algorithm == "ScafAdam"
    assert cfg.client.control_option == "II"
    assert cfg.server.lr == 0.01 and cfg.server.damped
    assert cfg.model.kind == "mlp1" and cfg.model.hidden_dim == 12
    assert cfg.data.spread == 1.5
    assert cfg.seed == 3


def test_invalid_optimizer_token_lists_valid_ones(tmp_path):
    with pytest.raises(ConfigError) as e:
        parse_config(write(tmp_path, "opt_c: fedavg\n"))
    msg = str(e.value)
    assert "line 1" in msg
    for tok in ("sgd", "prox", "scaf", "nova"):
        assert tok in msg


def test_invalid_server_token(tmp_path):
    with pytest.raises(ConfigError) as e:
        parse_config(write(tmp_path, "opt_c: sgd\nopt_s: sgdm\n"))
    msg = str(e.value)
    assert "line 2" in msg and "yogi" in msg


def test_unknown_key_reports_path_and_line(tmp_path):
    with pytest.raises(ConfigError) as e:
        parse_config(write(tmp_path, "opt_c: sgd\nclient:\n  learning_rate: 0.1\n"))
    msg = str(e.value)
    assert "client.learning_rate" in msg
    assert "line 3" in msg
    assert "lr" in msg  # suggests the valid keys


def test_unknown_top_level_key(tmp_path):
    with pytest.raises(ConfigError, match=r"rounds_total \(line 2\)"):
        parse_config(write(tmp_path, "opt_c: sgd\nrounds_total: 10\n"))


def test_wrong_type_reports_line(tmp_path):
    with pytest.raises(ConfigError, match="line 1"):
        parse_config(write(tmp_path, "rounds: soon\n"))
    with pytest.raises(ConfigError, match="integer"):
        parse_config(write(tmp_path, "rounds: 1.5\n"))
    with pytest.raises(ConfigError, match="number"):
        parse_config(write(tmp_path, "client:\n  lr: fast\n"))


def test_semantic_errors_become_config_errors(tmp_path):
    # A section's own rules are reported at the section and its line, a
    # top-level field's at its key and line.
    with pytest.raises(ConfigError, match=r"^sample_ratio \(line 1\): sample_ratio must"):
        parse_config(write(tmp_path, "sample_ratio: 0.0\n"))
    with pytest.raises(ConfigError, match=r"^client \(line 1\): momentum"):
        parse_config(write(tmp_path, "client:\n  momentum: 1.5\n"))
    with pytest.raises(ConfigError, match=r"^data \(line 1\): alpha"):
        parse_config(write(tmp_path, "data:\n  alpha: -1.0\n"))
    with pytest.raises(ConfigError, match=r"^model \(line 1\): mlp1 needs hidden_dim >= 1"):
        parse_config(write(tmp_path, "model:\n  kind: mlp1\n  hidden_dim: 0\n"))
    with pytest.raises(ConfigError, match=r"^data \(line 1\): label_col by name requires has_header"):
        parse_config(write(tmp_path, "data:\n  source: csv\n  path: d.csv\n  label_col: y\n"))


# Every key read through _cast_float (test_float_keys_are_pinned fixes the list).
FLOAT_KEYS = [
    f"{section}.{key}" if section else key
    for section, keys in (
        ("", config._TOP_KEYS),
        ("client", config._SECTION_KEYS["client"]),
        ("server", config._SECTION_KEYS["server"]),
        ("data", config._SECTION_KEYS["data"]),
    )
    for key, caster in keys.items()
    if caster is config._cast_float
]


def key_text(key: str, token: str) -> tuple[str, int]:
    """A config setting one (possibly section.) key, and that key's line."""
    if "." in key:
        section, name = key.split(".")
        return f"rounds: 3\n{section}:\n  {name}: {token}\n", 3
    return f"rounds: 3\n{key}: {token}\n", 2


@pytest.mark.parametrize("token", [".nan", ".inf", "-.inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_float_rejected_at_parse(tmp_path, key, token):
    text, line = key_text(key, token)
    with pytest.raises(ConfigError, match=re.escape(f"{key} (line {line}): must be finite")):
        parse_config(write(tmp_path, text))


@pytest.mark.parametrize("token", ["1e-3", "5E-4", "+2.5e+1", "-.5e-3"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_exponent_float_parses(tmp_path, key, token):
    try:
        cfg = parse_config(write(tmp_path, key_text(key, token)[0]))
    except ConfigError as exc:
        # Out of the key's range (momentum: 25.0): the range check saw the number.
        assert str(exc).endswith(f"got {float(token)}"), exc
        return
    *section, name = key.split(".")
    owner = getattr(cfg, section[0]) if section else cfg
    value = getattr(owner, name)
    assert type(value) is float and value == float(token)


def test_exponent_is_not_an_integer(tmp_path):
    with pytest.raises(ConfigError, match=r"rounds \(line 1\): expected an integer, got 1000.0"):
        parse_config(write(tmp_path, "rounds: 1e3\n"))


@pytest.mark.parametrize(
    "token, value", [("0x1F", 31), ("017", 15), ("1:30", 90), ("1_000", 1000)]
)
def test_yaml_1_1_integers(tmp_path, token, value):
    assert parse_config(write(tmp_path, f"seed: {token}\n")).seed == value


@pytest.mark.parametrize(
    "token, msg",
    [
        ("!!int abc", "cannot parse scalar 'abc'"),
        ("!!bool abc", "cannot parse scalar 'abc'"),
        ("!!timestamp abc", "cannot parse scalar 'abc'"),
        ("!!python/name:os.system", "unsupported YAML node type"),
        ("!!timestamp 2020-13-45", "cannot parse scalar '2020-13-45'"),
        ("!!map abc", "unsupported YAML node type"),
    ],
)
def test_malformed_tagged_scalar_rejected(tmp_path, token, msg):
    with pytest.raises(ConfigError, match=re.escape(f"seed (line 1): {msg}")):
        parse_config(write(tmp_path, f"seed: {token}\n"))


@pytest.mark.parametrize(
    "text", ["server:\n  server_lr: null\n", "model:\n  kind: mlp1\n  hidden_dim: null\n"]
)
def test_null_is_rejected_for_optional_fields(tmp_path, text):
    with pytest.raises(ConfigError, match="got None"):
        parse_config(write(tmp_path, text))


# The accepted keys of every section, written out so that a schema read
# off the dataclasses cannot lose a key unnoticed.
SCHEMA = {
    "": [
        "opt_c", "opt_s", "num_clients", "sample_ratio", "rounds", "eval_every", "seed",
        "client", "server", "model", "data", "grid",
    ],
    "client": [
        "local_epochs", "batch_size", "lr", "momentum", "weight_decay", "prox_mu",
        "control_option",
    ],
    "server": ["server_lr", "beta1", "beta2", "eps", "damped"],
    "model": ["kind", "hidden_dim", "activation"],
    "data": [
        "source", "alpha", "test_fraction", "num_classes", "dim", "samples_per_class",
        "spread", "path", "label_col", "has_header",
    ],
    "grid": ["opt_c", "opt_s", "seeds", "checkpoints"],
}


@pytest.mark.parametrize("section", list(SCHEMA), ids=lambda s: s or "top")
def test_schema_is_pinned(tmp_path, section):
    text = f"{section}:\n  bogus: 1\n" if section else "bogus: 1\n"
    with pytest.raises(ConfigError, match="unknown key") as e:
        parse_config(write(tmp_path, text))
    listed = ast.literal_eval(str(e.value).split("expected one of ", 1)[1])
    assert listed == sorted(SCHEMA[section])


def test_float_keys_are_pinned():
    assert FLOAT_KEYS == [
        "sample_ratio", "client.lr", "client.momentum", "client.weight_decay",
        "client.prox_mu", "server.server_lr", "server.beta1", "server.beta2", "server.eps",
        "data.alpha", "data.test_fraction", "data.spread",
    ]


@pytest.mark.parametrize("key", ["client.opt_c", "server.opt_s"])
def test_optimizer_keys_are_top_level_only(tmp_path, key):
    with pytest.raises(ConfigError, match=re.escape(f"{key} (line 3): unknown key")):
        parse_config(write(tmp_path, key_text(key, "sgd")[0]))


def test_duplicate_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(write(tmp_path, "seed: 1\nseed: 2\n"))


def test_invalid_yaml_rejected(tmp_path):
    with pytest.raises(ConfigError, match="YAML"):
        parse_config(write(tmp_path, "a: [1, 2\n"))
    with pytest.raises(ConfigError, match="mapping"):
        parse_config(write(tmp_path, "- a\n- b\n"))


def test_parse_serialize_parse_is_identity(tmp_path):
    original = parse_config(
        write(
            tmp_path,
            "opt_c: nova\nopt_s: adagrad\nseed: 5\nrounds: 7\neval_every: 7\n"
            "client:\n  lr: 0.025\n  momentum: 0.0\n"
            "data:\n  num_classes: 3\n  samples_per_class: 40\n",
        )
    )
    text = serialize_config(original)
    reparsed = parse_config(write(tmp_path, text))
    assert reparsed == original
    assert serialize_config(reparsed) == text  # serialization is a fixpoint


def test_save_config_roundtrip(tmp_path):
    cfg = parse_config(write(tmp_path, "opt_c: prox\nrounds: 12\neval_every: 3\n"))
    out = tmp_path / "saved.yaml"
    save_config(cfg, out)
    assert parse_config(out) == cfg


# ------------------------------------------------------------------ grid


def test_grid_section_parses(tmp_path):
    spec = parse_config(
        write(
            tmp_path,
            """
rounds: 20
eval_every: 10
grid:
  opt_c: [sgd, prox]
  opt_s: [sgd, yogi]
  seeds: [0, 1, 2]
  checkpoints: [10, 20]
""",
        )
    )
    assert isinstance(spec, GridSpec)
    assert spec.opt_c == ("sgd", "prox")
    assert spec.opt_s == ("sgd", "yogi")
    assert spec.seeds == (0, 1, 2)
    assert spec.checkpoints == (10, 20)
    assert len(spec.cells()) == 2 * 2 * 3


def test_grid_defaults_to_full_sweep(tmp_path):
    spec = parse_config(write(tmp_path, "rounds: 4\neval_every: 2\ngrid: {}\n"))
    assert isinstance(spec, GridSpec)
    assert len(spec.opt_c) == 4 and len(spec.opt_s) == 4
    assert spec.seeds == (0,)
    assert spec.resolved_checkpoints() == (4,)
    assert len(spec.cells()) == 16


def test_grid_cell_config_overrides_pair_and_seed(tmp_path):
    spec = parse_config(
        write(tmp_path, "rounds: 4\neval_every: 2\nclient:\n  lr: 0.5\ngrid: {}\n")
    )
    cell = spec.cell_config("scaf", "yogi", 9)
    assert cell.opt_c == "scaf" and cell.opt_s == "yogi" and cell.seed == 9
    assert cell.client.lr == 0.5  # base settings survive
    assert cell.server.lr == 0.005  # adaptive default resolves per cell
    assert spec.cell_config("scaf", "sgd", 9).server.lr == 1.0


def test_grid_checkpoint_validation(tmp_path):
    with pytest.raises(ConfigError, match="never evaluated"):
        parse_config(write(tmp_path, "rounds: 20\neval_every: 10\ngrid:\n  checkpoints: [15]\n"))
    with pytest.raises(ConfigError, match="never evaluated"):
        parse_config(write(tmp_path, "rounds: 20\neval_every: 10\ngrid:\n  checkpoints: [30]\n"))
    with pytest.raises(ConfigError, match="sorted"):
        parse_config(write(tmp_path, "rounds: 20\neval_every: 10\ngrid:\n  checkpoints: [20, 10]\n"))


def test_grid_rejects_duplicates_and_bad_tokens(tmp_path):
    with pytest.raises(ConfigError, match="duplicates"):
        parse_config(write(tmp_path, "grid:\n  seeds: [1, 1]\n"))
    with pytest.raises(ConfigError, match=r"^grid \(line 2\): opt_c contains duplicates"):
        parse_config(write(tmp_path, "rounds: 3\ngrid:\n  opt_c: [sgd, sgd]\n"))
    with pytest.raises(ConfigError, match=r"^grid \(line 1\): opt_s contains duplicates"):
        parse_config(write(tmp_path, "grid:\n  opt_s: [adam, yogi, adam]\n"))
    with pytest.raises(ConfigError, match="valid tokens"):
        parse_config(write(tmp_path, "grid:\n  opt_c: [sgd, avg]\n"))
    with pytest.raises(ConfigError, match="empty"):
        parse_config(write(tmp_path, "grid:\n  seeds: []\n"))


@pytest.mark.parametrize(
    "axis, match",
    [
        ({"opt_c": ("sgd", "bogus")}, "unknown opt_c 'bogus'"),
        ({"opt_s": ("bogus",)}, "unknown opt_s 'bogus'"),
        ({"seeds": (0, -1)}, "seed must be >= 0"),
    ],
)
def test_grid_spec_checks_cells_with_run_rules(axis, match):
    with pytest.raises(ValueError, match=match):
        GridSpec(ExperimentConfig(rounds=4, eval_every=2), **axis)


def test_grid_serialize_roundtrip(tmp_path):
    spec = parse_config(
        write(
            tmp_path,
            "rounds: 10\neval_every: 5\nseed: 2\n"
            "grid:\n  opt_c: [nova]\n  opt_s: [adam, yogi]\n  seeds: [3, 4]\n  checkpoints: [5, 10]\n",
        )
    )
    reparsed = parse_config(write(tmp_path, serialize_config(spec)))
    assert reparsed == spec


_FLOAT_FIELDS = {
    ClientConfig: ("lr", "momentum", "weight_decay", "prox_mu"),
    ServerConfig: ("server_lr", "beta1", "beta2", "eps"),
    DataConfig: ("alpha", "test_fraction", "spread"),
    ExperimentConfig: ("sample_ratio",),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "cls, field",
    [(cls, name) for cls, names in _FLOAT_FIELDS.items() for name in names],
    ids=lambda x: x.__name__ if isinstance(x, type) else x,
)
def test_non_finite_float_rejected_in_python(cls, field, value):
    with pytest.raises(ValueError, match=field):
        cls(**{field: value})
