"""Exact (to a certified tolerance) reference solver for micro instances.

With the base dispatch fixed, every contingency dispatch is pinned down by
the droop-response balance root, so the whole problem reduces to minimizing
a piecewise-linear function F over the affine slice
{1'g = 1'd, glb <= g <= gub}.  The solver enumerates a lattice on the slice
(exhaustively, with exact lower-bound pruning), polishes the winner with
pairwise transfers, and reports a Lipschitz-based suboptimality certificate.

Contingency balance is treated as a hard constraint here: dispatches whose
response cannot balance some admissible outage within BALANCE_TOL evaluate
to +inf, matching the problem the learned models are measured against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .grid import ContingencySet, GridCase, LinearFactors
from .layers import PrimalPipeline
from .sampling import Instance, balanced_box_vertices
from .storage import Dataset

MAX_ORACLE_GENS = 5
RESOLUTION = 1e-3   # lattice spacing on the dispatch slice
ORACLE_BISECT_ITERS = 40
BALANCE_TOL = 1e-6
CHUNK = 65_536
POLISH_MIN_STEP = 1e-7


@dataclass
class OracleResult:
    g_star: np.ndarray
    obj_star: float
    tol_certificate: float
    evals: int
    feasible: bool = True


def oracle_objective(g, inst: Instance, pipe: PrimalPipeline) -> np.ndarray:
    """F(g): cost plus penalized slacks with contingency dispatches from the
    balance search; +inf where some admissible outage cannot be balanced.

    Accepts a single dispatch or a batch (P, n_gen); evaluates at the
    pipeline's bisection iteration count (``oracle_solve`` builds its
    pipeline at ORACLE_BISECT_ITERS).
    """
    g = np.atleast_2d(np.asarray(g, float))
    state = pipe.evaluate_dispatch(g, np.broadcast_to(inst.d, (g.shape[0], inst.d.size)),
                                   np.broadcast_to(inst.gub, g.shape), with_slacks="totals")
    obj = pipe.objective(state, np.broadcast_to(inst.c, g.shape))
    if state.h.shape[-1]:
        infeasible = np.abs(state.h).max(-1) > BALANCE_TOL
        obj = np.where(infeasible, np.inf, obj)
    return obj


def _slice_lattice(glb, gub, d_total, resolution) -> np.ndarray:
    """Lattice over the first n-1 coordinates at the given spacing; the last
    coordinate balances the sum and is filtered against its box."""
    n = glb.size
    if n == 1:
        return np.array([[d_total]]) if glb[0] - 1e-9 <= d_total <= gub[0] + 1e-9 \
            else np.zeros((0, 1))
    axes = []
    for i in range(n - 1):
        lo = max(glb[i], d_total - (gub.sum() - gub[i]))
        hi = min(gub[i], d_total - (glb.sum() - glb[i]))
        if hi < lo:
            return np.zeros((0, n))
        pts = lo + np.arange(int(np.floor((hi - lo) / resolution)) + 1) * resolution
        if pts[-1] < hi - 1e-12:
            pts = np.append(pts, hi)
        axes.append(pts)
    mesh = np.meshgrid(*axes, indexing="ij")
    head = np.stack([m.ravel() for m in mesh], axis=1)
    last = d_total - head.sum(-1)
    mask = (last >= glb[-1] - 1e-12) & (last <= gub[-1] + 1e-12)
    head = head[mask]
    last = np.clip(last[mask], glb[-1], gub[-1])
    return np.concatenate([head, last[:, None]], axis=1)


def _cheap_lower_bound(pipe: PrimalPipeline, inst: Instance, g: np.ndarray) -> np.ndarray:
    """F without its (nonnegative) generator-outage slacks, formed as
    ``oracle_objective`` forms F, so on one batch it never exceeds F bit for
    bit; +inf, as F, where the survivors of some generator outage miss the
    load by BALANCE_TOL at response signal 0 or 1."""
    _, f0 = pipe.base_flows(g, np.broadcast_to(inst.d, (g.shape[0], inst.d.size)))
    eta = pipe.slack_and_sign(f0, signs=False)[0].sum(-1) + pipe.line_outage_slacks(f0)[0]
    bound = (inst.c * g).sum(-1) + pipe.Pi * eta
    d_total = inst.d.sum()
    capped = np.minimum(g + pipe.gamma * (inst.gub - pipe.glb), inst.gub)
    for k in pipe.kg:
        mask = np.arange(g.shape[1]) != k
        e0 = g[:, mask].sum(-1) - d_total
        e1 = capped[:, mask].sum(-1) - d_total
        bound[~((e0 <= BALANCE_TOL) & (e1 >= -BALANCE_TOL))] = np.inf
    return bound


def lipschitz_bound(pipe: PrimalPipeline, c: np.ndarray) -> float:
    """Upper bound on the Lipschitz constant of F over the feasible slice,
    assembled from the pipeline's factors: cost, base/line-contingency slack
    sensitivities, and droop-response amplification for generator outages."""
    row_norms = np.linalg.norm(pipe.phi_gen, axis=1)
    m0 = row_norms.sum()
    l_line = 0.0
    for k, lodf in zip(pipe.ke, pipe.lodf_ke):
        l_line += m0 - row_norms[k] + np.abs(lodf).sum() * row_norms[k]
    l_gen = pipe.kg.size * (1.0 + np.sqrt(pipe.case.n_gen)) * m0
    l_flow = m0 + l_line + l_gen
    return float(np.abs(c).sum() + pipe.Pi * l_flow)


def oracle_solve(inst: Instance, case: GridCase, factors: LinearFactors,
                 cont: ContingencySet, resolution: float = RESOLUTION) -> OracleResult:
    """Exhaustive lattice search over the balanced-dispatch slice with exact
    lower-bound pruning, followed by pairwise-transfer polish."""
    if not (np.isfinite(resolution) and resolution > 0):
        raise ConfigError(f"resolution must be positive and finite, got {resolution}")
    if case.n_gen > MAX_ORACLE_GENS:
        raise DataError(
            f"reference solver is limited to {MAX_ORACLE_GENS} generators "
            f"(case has {case.n_gen}); it enumerates the dispatch slice exhaustively")
    pipe = PrimalPipeline(case, factors, cont, t=ORACLE_BISECT_ITERS)
    glb, gub = case.glb, inst.gub
    d_total = inst.d.sum()
    if glb.sum() > d_total + 1e-12 or gub.sum() < d_total - 1e-12:
        raise DataError("infeasible instance: total load outside dispatch capability")

    lattice = _slice_lattice(glb, gub, d_total, resolution)
    vertices = balanced_box_vertices(glb, gub, d_total)
    ghat = gub - glb
    share = ghat / ghat.sum() if ghat.sum() > 0 else np.full(case.n_gen, 1.0 / case.n_gen)
    prop = (glb + (d_total - glb.sum()) * share)[None, :]
    anchors = np.concatenate([vertices, prop], axis=0)
    evals = 0

    # upper bound from anchors plus a thin subsample of the lattice
    stride = max(1, lattice.shape[0] // 256)
    probe = np.concatenate([anchors, lattice[::stride]], axis=0)
    probe_vals = _batched_objective(pipe, inst, probe)
    evals += probe.shape[0]
    # finite, so a row that cannot balance (bound +inf) never survives
    best_hi = min(probe_vals.min(), np.finfo(float).max)
    # + 1e-9: a small probe batch (one dense block) sums a dispatch's
    # line-outage slacks in another order than a lattice block (screened pairs)
    survivors = np.concatenate([
        block[_cheap_lower_bound(pipe, inst, block) <= best_hi + 1e-9]
        for block in _blocks(lattice)])

    candidates = np.concatenate([probe, survivors], axis=0)
    values = np.concatenate([probe_vals, _batched_objective(pipe, inst, survivors)])
    evals += survivors.shape[0]

    best_idx = int(np.argmin(values))
    best_g = candidates[best_idx].copy()
    best_val = float(values[best_idx])
    if not np.isfinite(best_val):
        return OracleResult(g_star=np.full(case.n_gen, np.nan), obj_star=np.inf,
                            tol_certificate=np.nan, evals=evals, feasible=False)

    best_g, best_val, polish_evals = _polish(pipe, inst, best_g, best_val,
                                             glb, gub, resolution)
    evals += polish_evals

    cert = lipschitz_bound(pipe, inst.c) * resolution * np.sqrt(case.n_gen)
    _check_result(pipe, inst, best_g)
    return OracleResult(g_star=best_g, obj_star=best_val, tol_certificate=cert,
                        evals=evals)


def _blocks(g: np.ndarray) -> list:
    """Row blocks of at most CHUNK (at least one, possibly empty), so the
    lattice passes run at memory bounded by CHUNK, not by the lattice size."""
    return [g[lo:lo + CHUNK] for lo in range(0, max(g.shape[0], 1), CHUNK)]


def _batched_objective(pipe, inst, g: np.ndarray) -> np.ndarray:
    return np.concatenate([oracle_objective(block, inst, pipe) for block in _blocks(g)])


def _polish(pipe, inst, g, val, glb, gub, resolution):
    """Pairwise transfers with a shrinking step: moves along the balanced
    slice only, so the sum constraint is preserved exactly."""
    n = g.size
    evals = 0
    step = resolution
    while step > POLISH_MIN_STEP:
        improved = False
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                cand = g.copy()
                cand[i] += step
                cand[j] -= step
                if cand[i] > gub[i] + 1e-12 or cand[j] < glb[j] - 1e-12:
                    continue
                cand[i] = min(cand[i], gub[i])
                cand[j] = max(cand[j], glb[j])
                new_val = float(oracle_objective(cand, inst, pipe)[0])
                evals += 1
                if new_val < val - 1e-12:
                    g, val = cand, new_val
                    improved = True
        if not improved:
            step *= 0.5
    return g, val, evals


def _check_result(pipe, inst, g) -> None:
    balance = abs(g.sum() - inst.d.sum())
    if balance > 1e-9:
        raise DataError(f"reference dispatch violates power balance by {balance:g}")
    if np.any(g < pipe.glb - 1e-9) or np.any(g > inst.gub + 1e-9):
        raise DataError("reference dispatch violates generator bounds")
    if not np.isfinite(oracle_objective(g, inst, pipe)[0]):
        raise DataError("reference dispatch cannot balance a contingency")


def label_dataset(dataset: Dataset, case: GridCase, factors: LinearFactors,
                  cont: ContingencySet, resolution: float = RESOLUTION) -> Dataset:
    """Solve every record and attach (g_star, obj_star, tol_certificate).

    Instances whose contingencies cannot be balanced by any dispatch are
    flagged with NaN labels and skipped by downstream consumers.
    """
    instances = dataset.instances(case)
    g_star = np.full((dataset.n, case.n_gen), np.nan)
    obj_star = np.full(dataset.n, np.nan)
    cert = np.full(dataset.n, np.nan)
    for i, inst in enumerate(instances):
        res = oracle_solve(inst, case, factors, cont, resolution=resolution)
        if res.feasible:
            g_star[i] = res.g_star
            obj_star[i] = res.obj_star
            cert[i] = res.tol_certificate
    return Dataset(case_name=dataset.case_name, seed=dataset.seed, d=dataset.d,
                   c=dataset.c, gub=dataset.gub, seeds=dataset.seeds,
                   g_star=g_star, obj_star=obj_star, tol_certificate=cert)
