"""fedsim: a deterministic federated-learning simulator.

Compose any client-side mechanism (plain SGD, proximal regularization,
control variates, step-normalized averaging) with any server optimizer
(SGD, Adam, Adagrad, Yogi) on Dirichlet-skewed client data, and get
bit-reproducible runs keyed entirely by the config.
"""
from .rng import seeded_rng, spawn_seed
from .params import NonFiniteError, ParamVector
from .model import (
    Batch,
    ModelSpec,
    evaluate,
    finite_diff_grad,
    init_params,
    loss_and_grad,
    mean_loss,
)
from .data import (
    Dataset,
    Partition,
    dirichlet_partition,
    epoch_batches,
    gen_synthetic,
    load_csv_dataset,
    split_train_test,
)
from .client import (
    ClientConfig,
    ClientUpdate,
    DivergenceError,
    accum_coeff_norm,
    local_train,
    update_control_variate,
)
from .server import (
    ServerConfig,
    ServerState,
    aggregate,
    aggregate_control,
    server_step,
)
from .orchestrator import (
    ALGORITHM_NAMES,
    DataConfig,
    ExperimentConfig,
    ExperimentResult,
    FederatedRun,
    ModelConfig,
    RoundMetrics,
    algorithm_name,
    load_params,
    run_experiment,
    sample_clients,
    save_params,
    write_metrics_csv,
)
from .config import ConfigError, GridSpec, parse_config, save_config, serialize_config

__version__ = "0.1.0"

# Re-exported from .cli on first use: an eager import would leave
# fedsim.cli in sys.modules before `python -m fedsim.cli` runs it.
_CLI_EXPORTS = ("GridResult", "emit_per_seed_report", "emit_report", "run_grid")


def __getattr__(name: str):
    if name in _CLI_EXPORTS:
        from . import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ALGORITHM_NAMES",
    "Batch",
    "ClientConfig",
    "ClientUpdate",
    "ConfigError",
    "DataConfig",
    "Dataset",
    "DivergenceError",
    "ExperimentConfig",
    "ExperimentResult",
    "FederatedRun",
    "GridResult",
    "GridSpec",
    "ModelConfig",
    "ModelSpec",
    "NonFiniteError",
    "ParamVector",
    "Partition",
    "RoundMetrics",
    "ServerConfig",
    "ServerState",
    "accum_coeff_norm",
    "aggregate",
    "aggregate_control",
    "algorithm_name",
    "dirichlet_partition",
    "emit_per_seed_report",
    "emit_report",
    "epoch_batches",
    "evaluate",
    "finite_diff_grad",
    "gen_synthetic",
    "init_params",
    "load_csv_dataset",
    "load_params",
    "local_train",
    "loss_and_grad",
    "mean_loss",
    "parse_config",
    "run_experiment",
    "run_grid",
    "sample_clients",
    "save_config",
    "save_params",
    "seeded_rng",
    "serialize_config",
    "server_step",
    "spawn_seed",
    "split_train_test",
    "update_control_variate",
    "write_metrics_csv",
    "__version__",
]
