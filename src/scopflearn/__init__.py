"""Self-supervised learning of near-optimal secure DC dispatch.

The package combines a static grid model with linear outage sensitivities,
a differentiable dispatch pipeline (bound map, power-balance repair,
per-outage response search), a small dense-network kernel, four trainers,
and an exhaustive micro-scale reference solver.
"""

from .cases import BUILTIN_CASES, get_case, micro5, triangle3
from .errors import ConfigError, DataError, DivergenceError, ScopflearnError
from .grid import (
    ContingencySet,
    GridCase,
    LinearFactors,
    build_factors,
    build_lodf,
    build_ptdf,
    load_case,
    save_case,
    screen_contingencies,
)
from .layers import (
    PrimalPipeline,
    binary_search_batch,
    bound_map,
    repair_layer,
)
from .nn import AdamState, MlpParams, adam_step, init_mlp, lr_schedule, mlp_backward, mlp_forward
from .oracle import OracleResult, label_dataset, oracle_objective, oracle_solve
from .report import EvalReport, evaluate_model
from .sampling import Instance, PerturbationConfig, make_instance, sample_dataset
from .storage import Dataset, load_checkpoint, read_dataset, save_checkpoint, write_dataset
from .training import (
    TrainerConfig,
    TrainerState,
    TrainResult,
    max_violation,
    train,
    train_pdl,
    update_penalty,
)

__version__ = "0.1.0"
