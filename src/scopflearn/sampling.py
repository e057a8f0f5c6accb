"""Instance generation: correlated perturbation of loads, costs and dispatch
upper bounds, plus assembly of the normalized network input vector."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .grid import ContingencySet, GridCase

Z95 = 1.645  # two-sided 90% z-score; the truncation box sits at the 95th percentile
MAX_REJECTIONS = 100
MAX_RESAMPLES = 10_000


@dataclass(frozen=True)
class PerturbationConfig:
    mu: float = 0.5
    load_corr: float = 0.5
    factor_corr: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.mu < 1:
            raise ConfigError(f"mu must be in [0, 1), got {self.mu}")
        for name in ("load_corr", "factor_corr"):
            v = getattr(self, name)
            if not 0 <= v <= 1:
                raise ConfigError(f"{name} must be in [0, 1], got {v}")


@dataclass(frozen=True)
class Instance:
    """One sampled problem: demands d, costs c, upper bounds gub, and the
    flattened input vector x of length 2*n_gen + n_load."""

    d: np.ndarray
    c: np.ndarray
    gub: np.ndarray
    x: np.ndarray
    seed: int = 0

    @property
    def d_total(self) -> float:
        return float(self.d.sum())


@functools.lru_cache(maxsize=None)
def _correlation_factor(n: int, corr: float) -> np.ndarray:
    """Symmetric square root of the equicorrelation matrix corr + (1-corr)I.

    Computed via eigendecomposition so the degenerate corr = 1 case (rank one,
    all deviations identical) works as well.  It depends only on (n, corr),
    so it is computed once per pair and shared read-only.
    """
    C = np.full((n, n), corr) + (1.0 - corr) * np.eye(n)
    vals, vecs = np.linalg.eigh(C)
    if vals.min() < -1e-10:
        raise DataError("correlation matrix is not positive semidefinite")
    root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T
    root.flags.writeable = False
    return root


def sample_loads(case: GridCase, config: PerturbationConfig, rng: np.random.Generator) -> np.ndarray:
    """Truncated correlated Gaussian draw around d0.

    sigma_i = mu*d0_i/Z95 so the truncation box (1 +/- mu)*d0 sits at the
    95th percentile of each marginal.  Whole-vector rejection inside the box;
    element-wise clamping after MAX_REJECTIONS rejections.
    """
    d0 = case.d0
    sigma = config.mu * d0 / Z95
    lo, hi = (1.0 - config.mu) * d0, (1.0 + config.mu) * d0
    root = _correlation_factor(case.n_load, config.load_corr)
    for _ in range(MAX_REJECTIONS):
        d = d0 + sigma * (root @ rng.standard_normal(case.n_load))
        if np.all(d >= lo) and np.all(d <= hi):
            return d
    return np.clip(d, lo, hi)


def sample_factors(n: int, corr: float, config: PerturbationConfig, rng: np.random.Generator) -> np.ndarray:
    """One draw from N(1, Sigma) with equicorrelated entries; sigma = mu/Z95.

    No truncation here; the cost and bound safeguards are applied downstream.
    """
    sigma = config.mu / Z95
    root = _correlation_factor(n, corr)
    return 1.0 + sigma * (root @ rng.standard_normal(n))


def input_vector(case: GridCase, d: np.ndarray, c: np.ndarray, gub: np.ndarray) -> np.ndarray:
    """Network input [d/d0, c/c0, gub/gub0] (a zero base divides by one).
    Takes one instance or rows of instances."""
    parts = [(d, case.d0), (c, case.c0), (gub, case.gub0)]
    return np.concatenate([v / np.where(base == 0.0, 1.0, base) for v, base in parts],
                          axis=-1)


def balanced_box_vertices(glb: np.ndarray, gub: np.ndarray, total: float) -> np.ndarray:
    """Vertices of the balanced-dispatch polytope {1'g = total} within the
    box: all but one coordinate pinned to a bound, the free one balancing.
    There are up to n * 2^(n-1) of them; the reference solver uses them as
    anchors on its small cases."""
    import itertools

    n = glb.size
    points = []
    for free in range(n):
        others = [i for i in range(n) if i != free]
        for pattern in itertools.product((0, 1), repeat=n - 1):
            g = np.empty(n)
            for i, bit in zip(others, pattern):
                g[i] = gub[i] if bit else glb[i]
            g[free] = total - g[others].sum()
            if glb[free] - 1e-12 <= g[free] <= gub[free] + 1e-12:
                g[free] = np.clip(g[free], glb[free], gub[free])
                points.append(g)
    return np.array(points) if points else np.zeros((0, n))


def _solvable(case: GridCase, cont: ContingencySet | None, d_total: float, gub: np.ndarray) -> bool:
    """Exact instance-level solvability screen.

    Base case: total load D inside [sum glb, sum gub].  Contingencies: some
    balanced g in the box must satisfy sum_{i != k} min(g_i + r_i, gub_i) >= D
    for every admissible generator outage k, with droop headroom
    r = gamma * (gub - glb).  That holds iff the headroom
    sum_i min(r_i, gub_i - g_i) reaches T = max_k min(g_k + r_k, gub_k).
    For a fixed threshold T, each outaged unit k is capped at
    U_k(T) = gub_k if T >= gub_k, else T - r_k; the others keep gub_i.  The
    headroom is A0 = sum_i min(r_i, gub_i - glb_i) while every unit sits at or
    below its knee max(glb_i, gub_i - r_i) and drops one for one above it, so
    the best g fills units up to their knees first.  The instance is
    recoverable iff some T has U(T) >= glb, sum U(T) >= D, T <= A0 and
    T - sum_i min(U_i(T), knee_i) <= A0 - D.

    Between consecutive gub_k, with m units still capped, the first two
    conditions are lower bounds on T and the last has slope 1 - m, so below
    the largest gub_k every condition but T <= A0 relaxes as T grows (the
    step at each gub_k relaxes them too), and above it T is best as small
    as possible.  A feasible T therefore exists iff one of the |Kg| + 1
    thresholds {gub_k : k in Kg} and A0 is feasible: O(|Kg| * n_gen) work.
    """
    glb = case.glb
    if not (glb.sum() <= d_total <= gub.sum()):
        return False
    if cont is None or cont.n_gen == 0:
        return True
    kg = np.asarray(cont.gen_contingencies, int)
    r = case.gamma * (gub - glb)
    knee = np.maximum(glb, gub - r)
    a0 = np.minimum(r, gub - glb).sum()
    T = np.append(gub[kg], a0)
    U = np.tile(gub, (T.size, 1))
    U[:, kg] = np.where(T[:, None] < gub[kg], T[:, None] - r[kg], gub[kg])
    # a relative slack of 1e-12 keeps exact ties feasible under rounding
    slack = 1e-12 * gub.sum()
    ok = ((U[:, kg] >= glb[kg] - slack).all(-1)
          & (U.sum(-1) >= d_total - slack)
          & (T <= a0)
          & (T - np.minimum(U, knee).sum(-1) <= a0 - d_total + slack))
    return bool(ok.any())


def make_instance(
    case: GridCase,
    config: PerturbationConfig,
    rng: np.random.Generator,
    cont: ContingencySet | None = None,
    seed: int = 0,
) -> tuple[Instance, int]:
    """Sample one instance; returns (instance, resample_count).

    Draws are redone wholesale until the instance passes the solvability
    screen, so every emitted instance admits a balanced base dispatch and a
    balanced response to every admissible generator outage.
    """
    ghat0 = case.ghat0
    floor = case.glb + 0.01 * ghat0
    for attempt in range(MAX_RESAMPLES):
        d = sample_loads(case, config, rng)
        fc = sample_factors(case.n_gen, config.factor_corr, config, rng)
        fg = sample_factors(case.n_gen, config.factor_corr, config, rng)
        c = np.maximum(0.0, fc * case.c0)
        gub = np.maximum(fg * case.gub0, floor)
        if _solvable(case, cont, float(d.sum()), gub):
            return Instance(d=d, c=c, gub=gub, x=input_vector(case, d, c, gub),
                            seed=seed), attempt
    raise DataError("could not sample a solvable instance; case capacity is too tight")


def sample_dataset(
    case: GridCase,
    config: PerturbationConfig,
    n: int,
    cont: ContingencySet | None = None,
) -> tuple[list[Instance], int]:
    """Sample n instances deterministically from config.seed.

    Each record gets an independent stream keyed by (seed, index), so the
    dataset is reproducible and order-independent.
    """
    instances = []
    resamples = 0
    for i in range(n):
        rng = np.random.default_rng([config.seed, i])
        inst, extra = make_instance(case, config, rng, cont=cont, seed=i)
        instances.append(inst)
        resamples += extra
    return instances, resamples
