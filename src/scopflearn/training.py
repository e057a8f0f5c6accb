"""Training: one augmented-Lagrangian loop shared by the primal-dual scheme,
the penalty-only baseline and the supervised (naive / distance-plus-penalty)
baselines.

Every method trains the same primal architecture: layer-normalized MLP,
bound map, power-balance repair, and per-outage bisection.  Each outer
iteration runs the primal steps against the current penalty, makes one
chunked pass over the dataset for the worst contingency balance violation
and the mean objective, and updates the penalty.  A method supplies only its
per-batch loss.  The primal-dual scheme splits the 2L steps of an outer
iteration into L primal steps against multipliers from its second network,
frozen for the phase, and L dual regression steps toward the multiplier
update targets; the others run 2L primal steps.  The supervised baselines
keep a fixed penalty and skip the dataset pass.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigError, DataError, DivergenceError
from .grid import ContingencySet, GridCase, LinearFactors
from .layers import BISECT_ITERS, MAX_BISECT_ITERS, PrimalPipeline
from .nn import (
    AdamState,
    MlpParams,
    adam_step,
    hidden_width,
    init_mlp,
    lr_schedule,
    mlp_backward,
    mlp_forward,
)
from .sampling import Instance

METHODS = ("pdl", "penalty", "naive", "ld")
LD_PENALTY = 1e3
# rows per chunk of the dataset passes; line-outage slacks are reduced in
# blocks of layers.SLACK_BLOCK elements, so this does not set training memory
EVAL_CHUNK = 256


@dataclass(frozen=True)
class TrainerConfig:
    K: int = 20
    L: int = 2000
    batch: int = 8
    rho0: float = 0.1
    rho_max: float = 1e8
    tau: float = 0.9
    alpha: float = 2.0
    dual_loss_rho: float = 0.1
    obj_scale: float = 1e5
    lr: float = 1e-4
    seed: int = 0
    bisect_iters: int = BISECT_ITERS

    def __post_init__(self):
        # each field takes the kind of its default: an integer for the int
        # fields, any real number for the float ones, never a bool
        for f in fields(self):
            value, integral = getattr(self, f.name), isinstance(f.default, int)
            if isinstance(value, bool) or not isinstance(
                    value, numbers.Integral if integral else numbers.Real):
                kind = "an integer" if integral else "a real number"
                raise ConfigError(f"{f.name} must be {kind}, got {value!r}")
        if not 0 < self.tau < 1:
            raise ConfigError(f"tau must be in (0, 1), got {self.tau}")
        if not self.alpha > 1:
            raise ConfigError(f"alpha must exceed 1, got {self.alpha}")
        for name in ("K", "L", "batch", "rho0", "rho_max", "dual_loss_rho",
                     "obj_scale", "lr"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive")
        # layers.binary_search_batch's precondition
        if not 1 <= self.bisect_iters <= MAX_BISECT_ITERS:
            raise ConfigError(f"bisect_iters must be in [1, {MAX_BISECT_ITERS}], "
                              f"got {self.bisect_iters}")

    @property
    def total_steps(self) -> int:
        return 2 * self.K * self.L


@dataclass
class TrainerState:
    rho: float
    v_prev: float = float("inf")
    outer: int = 0
    inner: int = 0

    def as_dict(self) -> dict:
        return {"rho": self.rho, "v_prev": self.v_prev,
                "outer": self.outer, "inner": self.inner}


@dataclass
class TrainResult:
    method: str
    primal: MlpParams
    primal_adam: AdamState
    dual: MlpParams | None
    dual_adam: AdamState | None
    state: TrainerState
    log: list = field(default_factory=list)
    outer_log: list = field(default_factory=list)
    wall_s: float = 0.0


# ---------------------------------------------------------------------------
# loss pieces

def primal_loss_terms(pipe: PrimalPipeline, state, c, lam, rho, obj_scale):
    """Per-instance loss values and the gradients the backward pass needs.

    loss = objective/obj_scale + lam'h + (rho/2) sum h^2, with squared
    violations as the penalty function.
    """
    obj = pipe.objective(state, c)
    h = state.h
    loss = obj / obj_scale + (lam * h).sum(-1) + 0.5 * rho * (h * h).sum(-1)
    grad_gtilde, grad_gk = pipe.objective_grads(state, c)
    grad_gtilde = grad_gtilde / obj_scale
    grad_gk = grad_gk / obj_scale + (lam + rho * h)[..., None]
    return loss, grad_gtilde, grad_gk


def _pdl_loss(pipe, state, batch, lam, rho, config):
    return primal_loss_terms(pipe, state, batch.c, lam, rho, config.obj_scale)


def _penalty_loss(pipe, state, batch, lam, rho, config):
    """objective/obj_scale + rho sum h^2: the augmented loss at 2 rho, lam 0."""
    return primal_loss_terms(pipe, state, batch.c, 0.0, 2.0 * rho, config.obj_scale)


def _distance_loss(pipe, state, batch, lam, rho, config):
    """Euclidean distance of the repaired dispatch to the reference."""
    diff = state.gtilde - batch.g_star
    dist = np.linalg.norm(diff, axis=-1)
    return dist, diff / np.maximum(dist, 1e-12)[..., None], None


def _ld_loss(pipe, state, batch, lam, rho, config):
    """Distance plus rho sum h^2 at the fixed penalty LD_PENALTY."""
    dist, grad_gtilde, _ = _distance_loss(pipe, state, batch, lam, rho, config)
    h = state.h
    return dist + rho * (h * h).sum(-1), grad_gtilde, 2.0 * rho * h[..., None]


# each method's minibatch loss: (per-instance loss, gradient on the repaired
# dispatch, gradient on the contingency dispatches or None)
_LOSSES = {"pdl": _pdl_loss, "penalty": _penalty_loss,
           "naive": _distance_loss, "ld": _ld_loss}


def update_penalty(rho: float, v: float, v_prev: float, config: TrainerConfig) -> float:
    """Grow the penalty only when the max violation failed to drop below
    tau times its previous value; never exceed rho_max."""
    if v > config.tau * v_prev:
        return min(config.alpha * rho, config.rho_max)
    return rho


def max_violation(pipe: PrimalPipeline, primal: MlpParams, data: "_Stacked"):
    """The evaluation pass: one chunked pass of the primal network over the
    dataset.  Returns the balance residuals h (n, |Kg|), the worst of them
    v_k (infinity norm) and the mean objective."""
    h = np.empty((data.n, pipe.kg.size))
    total = 0.0
    for lo in range(0, data.n, EVAL_CHUNK):
        sl = slice(lo, lo + EVAL_CHUNK)
        z, _ = mlp_forward(primal, data.x[sl])
        st = pipe.forward(z, data.d[sl], data.gub[sl], with_slacks="totals")
        h[sl] = st.h
        total += float(pipe.objective(st, data.c[sl]).sum())
    # a NaN would make v_k NaN, and the penalty update never grows rho on it
    if not (np.isfinite(h).all() and np.isfinite(total)):
        raise DivergenceError("non-finite balance residual or objective in the evaluation pass")
    return h, float(np.abs(h).max()) if h.size else 0.0, total / data.n


def _dual_outputs(dual: MlpParams, data: "_Stacked", cont: ContingencySet) -> np.ndarray:
    out = np.empty((data.n, max(cont.n_gen, 1)))
    for lo in range(0, data.n, EVAL_CHUNK):
        sl = slice(lo, lo + EVAL_CHUNK)
        out[sl], _ = mlp_forward(dual, data.x[sl])
    return out[:, :cont.n_gen]


# ---------------------------------------------------------------------------
# shared plumbing

@dataclass
class _Stacked:
    x: np.ndarray
    d: np.ndarray
    c: np.ndarray
    gub: np.ndarray
    g_star: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.x.shape[0]

    def take(self, idx) -> "_Stacked":
        return _Stacked(x=self.x[idx], d=self.d[idx], c=self.c[idx], gub=self.gub[idx],
                        g_star=None if self.g_star is None else self.g_star[idx])


def stack_instances(instances: list[Instance], g_star=None) -> _Stacked:
    if not instances:
        raise DataError("dataset is empty")
    return _Stacked(
        x=np.stack([i.x for i in instances]),
        d=np.stack([i.d for i in instances]),
        c=np.stack([i.c for i in instances]),
        gub=np.stack([i.gub for i in instances]),
        g_star=None if g_star is None else np.asarray(g_star, float),
    )


def build_networks(case: GridCase, cont: ContingencySet, dim_x: int, seed: int,
                   need_dual: bool):
    width = hidden_width(dim_x)
    primal_sizes = (dim_x, width, width, width, width, case.n_gen)
    primal = init_mlp(primal_sizes, np.random.default_rng([seed, 0]),
                      use_layernorm=True)
    dual = None
    if need_dual:
        dual_sizes = (dim_x, width, width, width, width, max(cont.n_gen, 1))
        dual = init_mlp(dual_sizes, np.random.default_rng([seed, 2]),
                        use_layernorm=False)
    return primal, dual


class _Run:
    """Bookkeeping of the training loop: minibatch stream, global step
    counter with the shared learning-rate clock, CSV-ready log rows."""

    def __init__(self, config: TrainerConfig, n_records: int):
        self.config = config
        self.rng = np.random.default_rng([config.seed, 1])
        self.n = n_records
        self.step = 0
        self.log: list = []
        self.t0 = time.perf_counter()

    def next_batch(self) -> np.ndarray:
        return self.rng.integers(0, self.n, size=self.config.batch)

    def lr(self) -> float:
        return lr_schedule(self.config.lr, self.step, self.config.total_steps)

    def record(self, outer: int, inner: int, loss: float, rho: float, v: float) -> None:
        if not np.isfinite(loss):
            raise DivergenceError(
                f"non-finite loss at outer {outer} inner {inner}")
        self.log.append({
            "outer_k": outer,
            "inner_l": inner,
            "loss": float(loss),
            "rho": float(rho),
            "v_k": float(v),
            "lr": self.lr(),
            "wall_ms": (time.perf_counter() - self.t0) * 1e3,
        })
        self.step += 1


# ---------------------------------------------------------------------------
# the training loop

def train(method: str, case: GridCase, factors: LinearFactors, cont: ContingencySet,
          instances: list[Instance], config: TrainerConfig, g_star=None,
          checkpoint_cb=None) -> TrainResult:
    """Train one of METHODS; naive and ld need the reference dispatch g_star
    of every instance."""
    t_start = time.perf_counter()
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}; expected one of {METHODS}")
    loss_fn = _LOSSES[method]
    self_supervised = method in ("pdl", "penalty")
    data = stack_instances(instances, g_star=None if self_supervised else g_star)
    if not self_supervised and data.g_star is None:
        raise DataError(f"{method} training requires reference dispatch labels; "
                        "label the dataset with the oracle first")
    pipe = PrimalPipeline(case, factors, cont, t=config.bisect_iters)
    primal, dual = build_networks(case, cont, data.x.shape[1], config.seed,
                                  need_dual=method == "pdl")
    primal_adam = AdamState.for_params(primal)
    dual_adam = None if dual is None else AdamState.for_params(dual)
    if self_supervised:
        state = TrainerState(rho=config.rho0)
    else:
        state = TrainerState(rho=LD_PENALTY if method == "ld" else 0.0)
    primal_steps = config.L if dual is not None else 2 * config.L
    run = _Run(config, data.n)
    outer_log = []
    v_k = float("nan")

    for k in range(1, config.K + 1):
        # the dual network is untouched until the dual phase, so its outputs
        # are the frozen multipliers of the primal phase and the base of the
        # dual targets
        lam_all = None if dual is None else _dual_outputs(dual, data, cont)
        for l in range(1, primal_steps + 1):
            idx = run.next_batch()
            batch = data.take(idx)
            z, tape = mlp_forward(primal, batch.x)
            st = pipe.forward(z, batch.d, batch.gub,
                              with_slacks="sums" if self_supervised else False)
            lam = None if lam_all is None else lam_all[idx]
            loss_vec, g_t, g_k = loss_fn(pipe, st, batch, lam, state.rho, config)
            lr = run.lr()  # before record(), which advances the step clock
            run.record(k, l, float(loss_vec.mean()), state.rho, v_k)
            grad_z = pipe.backward(st, g_t, g_k) / config.batch
            grads, _ = mlp_backward(primal, tape, grad_z)
            adam_step(primal, grads, primal_adam, lr)

        rho, v_prev = state.rho, state.v_prev
        if self_supervised:
            h, v_k, mean_objective = max_violation(pipe, primal, data)
            outer_log.append({"outer_k": k, "rho": state.rho, "v_k": v_k,
                              "mean_objective": mean_objective})
            rho, v_prev = update_penalty(state.rho, v_k, state.v_prev, config), v_k

        if dual is not None:
            # regression toward the multiplier update targets
            targets = np.zeros((data.n, dual.sizes[-1]))
            targets[:, :cont.n_gen] = lam_all + config.dual_loss_rho * h
            for l in range(1, config.L + 1):
                idx = run.next_batch()
                lam, tape = mlp_forward(dual, data.x[idx])
                resid = lam - targets[idx]
                lr = run.lr()
                run.record(k, l, float((resid * resid).mean()), state.rho, v_k)
                grads, _ = mlp_backward(dual, tape, 2.0 * resid / resid.size)
                adam_step(dual, grads, dual_adam, lr)

        state = TrainerState(rho=rho, v_prev=v_prev, outer=k, inner=primal_steps)
        if checkpoint_cb is not None:
            checkpoint_cb(k, primal, primal_adam, dual, dual_adam, state)

    return TrainResult(method=method, primal=primal, primal_adam=primal_adam,
                       dual=dual, dual_adam=dual_adam, state=state, log=run.log,
                       outer_log=outer_log, wall_s=time.perf_counter() - t_start)


def train_pdl(case: GridCase, factors: LinearFactors, cont: ContingencySet,
              instances: list[Instance], config: TrainerConfig,
              checkpoint_cb=None) -> TrainResult:
    """Alternating primal-dual training.

    Each outer iteration runs L primal steps against multipliers from the
    frozen dual network, measures the worst balance violation, runs L dual
    regression steps toward the multiplier update targets, and finally
    updates the penalty coefficient.
    """
    return train("pdl", case, factors, cont, instances, config,
                 checkpoint_cb=checkpoint_cb)
