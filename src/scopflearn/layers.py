"""Differentiable dispatch pipeline.

Three stages map raw network outputs to a full primal point:

1. bound map     -- sigmoid squashing into the dispatch box,
2. repair layer  -- proportional rescaling restoring total power balance,
3. bisection layer -- per-outage search on the global response signal,
   followed by slack retrieval for every thermal constraint family.

Each stage has an exact forward rule and a vector-Jacobian product.  The
backward conventions are: the repair branch and the per-generator cap flags
are frozen from the forward pass, and the converged response signal is
treated as a constant (no gradient through the bisection root).

Line-outage slacks are formed in blocks of outages of at most SLACK_BLOCK
elements, so the post-outage flows of a batch never exist all at once.  Each
slack mode keeps only what its callers read: every mode keeps the
per-instance line-outage slack total; "sums" (training, reference
evaluations) adds the weight vector of the objective gradient; True (serving,
reporting) adds the per-outage slacks, of shape (batch, line outage, line),
and forms no sign patterns; False retrieves no slacks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .grid import ContingencySet, GridCase, LinearFactors

DEGENERATE_TOL = 1e-12
# elements of one float64 temporary in the line-outage slack loop (512 KB);
# a block holds at least one outage, however large the batch
SLACK_BLOCK = 1 << 16


def sigmoid(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, float)
    # exp(-|z|) on both branches; min(z, -z) keeps a NaN's own bits
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


# ---------------------------------------------------------------------------
# bound map

def bound_map(z: np.ndarray, glb: np.ndarray, gub: np.ndarray):
    """Squash raw outputs into [glb, gub]: g = glb + sigmoid(z) * (gub - glb)."""
    sig = sigmoid(z)
    gcheck = glb + sig * (gub - glb)
    return gcheck, sig


def bound_map_vjp(grad_gcheck: np.ndarray, sig: np.ndarray, glb: np.ndarray,
                  gub: np.ndarray) -> np.ndarray:
    return grad_gcheck * (gub - glb) * sig * (1.0 - sig)


# ---------------------------------------------------------------------------
# power balance repair

@dataclass
class RepairContext:
    gcheck: np.ndarray
    glb: np.ndarray
    gub: np.ndarray
    d_total: np.ndarray
    s: np.ndarray
    zeta: np.ndarray
    deficit: np.ndarray
    degenerate: np.ndarray


def repair_layer(gcheck: np.ndarray, d_total, glb: np.ndarray, gub: np.ndarray):
    """Proportional rescaling so the dispatch sums to the total load.

    Deficit branch blends toward the upper bounds with
    zeta = (1'd - 1'g) / (1'gub - 1'g); the surplus branch blends toward the
    lower bounds analogously.  Requires 1'glb <= 1'd <= 1'gub.  A vanishing
    blend denominator can only occur when the dispatch already sits on the
    forcing bound, in which case that bound is returned directly.

    Works on (..., n_gen) arrays; d_total broadcasts over leading axes.
    """
    gcheck = np.asarray(gcheck, float)
    glb = np.asarray(glb, float)
    gub = np.asarray(gub, float)
    d_total = np.asarray(d_total, float)
    s = gcheck.sum(-1)
    total_ub = gub.sum(-1) * np.ones_like(s)
    total_lb = glb.sum(-1) * np.ones_like(s)
    deficit = s < d_total
    denom = np.where(deficit, total_ub - s, s - total_lb)
    degenerate = denom <= DEGENERATE_TOL
    denom_safe = np.where(degenerate, 1.0, denom)
    zeta = np.where(deficit, d_total - s, s - d_total) / denom_safe
    zeta = np.where(degenerate, 1.0, zeta)
    target = np.where(deficit[..., None], gub, glb)
    gtilde = (1.0 - zeta)[..., None] * gcheck + zeta[..., None] * target
    ctx = RepairContext(gcheck=gcheck, glb=glb, gub=gub, d_total=d_total,
                        s=s, zeta=zeta, deficit=deficit, degenerate=degenerate)
    return gtilde, ctx


def repair_layer_vjp(grad_gtilde: np.ndarray, ctx: RepairContext) -> np.ndarray:
    """Exact Jacobian of the branch taken in the forward pass.

    The Jacobian is (1 - zeta) I + u 1', where u carries the dependence of
    zeta on the dispatch sum:
      deficit:  u = (gub - g) (d - 1'gub) / (1'gub - 1'g)^2
      surplus:  u = -(g - glb) (d - 1'glb) / (1'g - 1'glb)^2
    """
    s = ctx.s
    total_ub = ctx.gub.sum(-1) * np.ones_like(s)
    total_lb = ctx.glb.sum(-1) * np.ones_like(s)
    denom = np.where(ctx.deficit, total_ub - s, s - total_lb)
    denom = np.where(ctx.degenerate, 1.0, denom)
    coef_up = (ctx.d_total - total_ub) / denom**2
    coef_dn = (ctx.d_total - total_lb) / denom**2
    u = np.where(
        ctx.deficit[..., None],
        (ctx.gub - ctx.gcheck) * coef_up[..., None],
        -(ctx.gcheck - ctx.glb) * coef_dn[..., None],
    )
    u = np.where(ctx.degenerate[..., None], 0.0, u)
    scale = np.where(ctx.degenerate, 0.0, 1.0 - ctx.zeta)
    rank_one = (grad_gtilde * u).sum(-1, keepdims=True)
    return scale[..., None] * grad_gtilde + rank_one


# ---------------------------------------------------------------------------
# bisection on the global response signal

def binary_search_batch(g, d_total, kg, gamma, ghat, gub, t: int = 25):
    """Bisect the response signal n in [0, 1] so each post-outage dispatch
    balances the load, for a batch of dispatches and all generator
    contingencies at once, then emit the dispatches, signals and cap flags
    evaluated at the returned signals.

    Returns the evaluated signal with the smallest absolute residual (the
    final bracketing midpoint is evaluated as a candidate as well, so the
    residual never grows when t does).  When no balancing signal exists the
    search converges to the 0 or 1 boundary and the signed residual is left
    to the caller.  A cap flag is set only where the uncapped response
    strictly exceeds the upper bound.

    g: (B, G); d_total: (B,); ghat, gub: (B, G); kg: contingency indices (K,).
    Returns gk (B, K, G), nk (B, K), rho (B, K, G).
    """
    if not 1 <= t <= 52:
        raise ConfigError(f"bisection iteration count must be in [1, 52], got {t}")
    g = np.atleast_2d(np.asarray(g, float))
    gub = np.atleast_2d(np.asarray(gub, float))
    ghat = np.atleast_2d(np.asarray(ghat, float))
    d_total = np.atleast_1d(np.asarray(d_total, float))
    kg = np.asarray(kg, int)
    n_batch, n_gen = g.shape
    n_cont = kg.size
    # the outaged unit of each contingency gets zero base, droop and cap, so
    # the loop needs no mask; its dispatch is 0 (NaN for a NaN dispatch)
    survivors = np.ones((n_cont, n_gen))
    survivors[np.arange(n_cont), kg] = 0.0
    base = g[:, None, :] * survivors
    droop = (np.asarray(gamma, float) * ghat)[:, None, :] * survivors
    cap = gub[:, None, :] * survivors
    target = d_total[:, None]

    n = np.full((n_batch, n_cont), 0.5)
    best_n = n.copy()
    best_abs = np.full((n_batch, n_cont), np.inf)
    gk = np.empty((n_batch, n_cont, n_gen))
    e, abs_e = np.empty((2, n_batch, n_cont))
    mask = np.empty((n_batch, n_cont), bool)
    n_col = n[..., None]
    step = 0.25
    for i in range(t + 1):
        np.multiply(n_col, droop, out=gk)
        gk += base
        np.minimum(gk, cap, out=gk)
        np.add.reduce(gk, -1, out=e)
        e -= target
        np.abs(e, out=abs_e)
        # the last smallest |e| wins; NaN never does
        np.less_equal(abs_e, best_abs, out=mask)
        np.copyto(best_n, n, where=mask)
        np.copyto(best_abs, abs_e, where=mask)
        if i == t:
            break   # the final midpoint was a candidate too
        # the next midpoint, n - step where e > 0, else n + step: the
        # bracket's exact midpoint, since every midpoint is dyadic, while the
        # step stays above n's last bit (t <= 52)
        np.greater(e, 0.0, out=mask)
        n += step
        np.subtract(n, 2.0 * step, out=n, where=mask)
        step *= 0.5
    raw = best_n[..., None] * droop + base
    rho = (raw > cap).astype(float)
    gk = np.minimum(raw, cap, out=raw)
    return gk, best_n, rho


def binary_search_vjp(grad_gk: np.ndarray, rho: np.ndarray, kg: np.ndarray) -> np.ndarray:
    """Gradient of the contingency dispatches back onto the base dispatch.

    With the signal treated as a constant, dgk_i/dg_j = delta_ij for
    uncapped survivors and 0 otherwise, so the VJP is a masked sum over
    contingencies.
    """
    kg = np.asarray(kg, int)
    mask = 1.0 - rho
    mask[..., np.arange(kg.size), kg] = 0.0
    return (grad_gk * mask).sum(-2)


# ---------------------------------------------------------------------------
# full batched pipeline

@dataclass
class PipelineState:
    """Everything the forward pass saved for reporting and backward."""

    z: np.ndarray
    sig: np.ndarray
    glb: np.ndarray
    gub: np.ndarray
    repair_ctx: RepairContext
    gtilde: np.ndarray
    gk: np.ndarray
    nk: np.ndarray
    rho: np.ndarray
    h: np.ndarray
    d_total: np.ndarray
    f0: np.ndarray = None
    eta0: np.ndarray = None
    eta_g: np.ndarray = None
    eta_e: np.ndarray = None
    sign0: np.ndarray = None
    sign_g: np.ndarray = None
    # always None: kept only because the benchmark's slack-bytes hook reads it
    sign_e: np.ndarray = None
    # every slack mode: the per-instance line-outage slack total (B,); "sums"
    # only: the objective-gradient weights on the base flows (B, n_line);
    # True only: eta_e and no sign patterns
    eta_e_sum: np.ndarray = None
    weights: np.ndarray = None


class PrimalPipeline:
    """Batched bound map -> repair -> bisection -> slack retrieval for one
    grid, with the matching backward pass to raw network outputs."""

    def __init__(self, case: GridCase, factors: LinearFactors,
                 cont: ContingencySet, t: int = 25):
        self.case = case
        self.cont = cont
        self.t = t
        self.kg = np.asarray(cont.gen_contingencies, int)
        self.ke = np.asarray(cont.line_contingencies, int)
        self.glb = case.glb
        self.gamma = case.gamma
        self.flb = case.flb
        self.fub = case.fub
        self.Pi = case.Pi
        # flow maps: f = d @ phi_load' - g @ phi_gen'
        self.phi_gen = factors.ptdf @ factors.gen_incidence
        self.phi_load = factors.ptdf @ factors.load_incidence
        self.lodf_ke = factors.lodf[:, self.ke].T if self.ke.size else np.zeros((0, case.n_line))

    def forward(self, z: np.ndarray, d: np.ndarray, gub: np.ndarray,
                with_slacks: bool | str = True) -> PipelineState:
        """Raw outputs z (B, n_gen) to the full primal point.

        with_slacks: True keeps every slack, the per-outage line-outage
        ones included, and no sign patterns (serving, reporting).  "sums"
        keeps the base-case and generator-outage slacks and signs, reduces
        the line outages block by block to the per-instance slack total, and
        forms the objective-gradient weights (training).  False retrieves no
        slacks.
        """
        z = np.atleast_2d(np.asarray(z, float))
        d = np.atleast_2d(np.asarray(d, float))
        gub = np.atleast_2d(np.asarray(gub, float))
        glb = np.broadcast_to(self.glb, gub.shape)
        d_total = d.sum(-1)
        gcheck, sig = bound_map(z, glb, gub)
        gtilde, repair_ctx = repair_layer(gcheck, d_total, glb, gub)
        state = self._dispatch_state(gtilde, d, d_total, glb, gub, self.t, with_slacks)
        state.z, state.sig, state.repair_ctx = z, sig, repair_ctx
        return state

    def evaluate_dispatch(self, g: np.ndarray, d: np.ndarray, gub: np.ndarray,
                          t: int | None = None,
                          with_slacks: bool | str = True) -> PipelineState:
        """The bisection and slack retrieval of ``forward`` from a given
        dispatch g (B, n_gen) instead of raw network outputs; reference
        evaluations start here.  t overrides the pipeline's bisection
        iteration count."""
        d = np.atleast_2d(np.asarray(d, float))
        gub = np.atleast_2d(np.asarray(gub, float))
        return self._dispatch_state(np.atleast_2d(np.asarray(g, float)), d, d.sum(-1),
                                    np.broadcast_to(self.glb, gub.shape), gub,
                                    self.t if t is None else t, with_slacks)

    def _dispatch_state(self, g, d, d_total, glb, gub, t, with_slacks) -> PipelineState:
        """The tail that ``forward`` and ``evaluate_dispatch`` share, on
        normalized (B, ...) arrays: bisection from dispatch g, then slacks."""
        gk, nk, rho = binary_search_batch(g, d_total, self.kg, self.gamma, gub - glb, gub, t)
        h = gk.sum(-1) - d_total[:, None]
        state = PipelineState(z=None, sig=None, glb=glb, gub=gub, repair_ctx=None,
                              gtilde=g, gk=gk, nk=nk, rho=rho, h=h, d_total=d_total)
        if with_slacks:
            self._attach_slacks(state, d, with_slacks)
        return state

    def base_flows(self, g: np.ndarray, d: np.ndarray):
        """Flows driven by the loads d alone, and the base-case flows of
        dispatch g: f0 = d @ phi_load' - g @ phi_gen'."""
        flow_d = d @ self.phi_load.T
        return flow_d, flow_d - g @ self.phi_gen.T

    def _attach_slacks(self, state: PipelineState, d: np.ndarray, with_slacks) -> None:
        if with_slacks is not True and with_slacks != "sums":
            raise ConfigError(f"with_slacks must be True, False or 'sums', got {with_slacks!r}")
        grads = with_slacks == "sums"
        flow_d, f0 = self.base_flows(state.gtilde, d)
        state.f0 = f0
        state.eta0, state.sign0 = self.slack_and_sign(f0, grads)
        fg = flow_d[:, None, :] - state.gk @ self.phi_gen.T
        state.eta_g, state.sign_g = self.slack_and_sign(fg, grads)
        batch, n_line = f0.shape
        state.eta_e_sum = np.zeros(batch)
        if grads:
            w = state.sign0.copy()
            extra = np.empty((batch, self.ke.size))
        else:
            state.eta_e = np.empty((self.ke.size, batch, n_line)).transpose(1, 0, 2)
        for sl, eta, sign in self.line_outage_blocks(f0, signs=grads):
            state.eta_e_sum += eta.sum((-2, -1))
            if grads:
                w += sign.sum(-2)   # integer-valued: exact in any order
                extra[:, sl] = (sign * self.lodf_ke[sl]).sum(-1)
            else:
                state.eta_e[:, sl] = eta
        if grads:
            # the LODF term on the outaged columns goes last, so the weights
            # do not depend on the blocking
            w[:, self.ke] += extra
            state.weights = w

    def line_outage_blocks(self, f0: np.ndarray, signs: bool = True):
        """Thermal slacks of the screened line outages at base flows f0
        (B, n_line), one block of outages at a time: yields (outage slice,
        slack, sign) with arrays (B, outages in the block, n_line), the
        outaged line's own entry zero, and sign None unless signs.

        A block holds at most SLACK_BLOCK elements, or one outage when a
        single one exceeds that, so memory does not grow with the outage
        count.  This is the one place that forms post-outage flows.
        """
        step = max(1, SLACK_BLOCK // max(f0.size, 1))
        for lo in range(0, self.ke.size, step):
            sl = slice(lo, lo + step)
            ke, lodf = self.ke[sl], self.lodf_ke[sl]
            post = f0[:, None, :] + f0[:, ke, None] * lodf[None, :, :]
            eta, sign = self.slack_and_sign(post, signs)
            rows = np.arange(ke.size)
            eta[:, rows, ke] = 0.0
            if signs:
                sign[:, rows, ke] = 0.0
            yield sl, eta, sign

    def slack_and_sign(self, f: np.ndarray, signs: bool = True):
        """Thermal slacks max(0, f - fub, flb - f) of flows f, and their sign
        pattern (+1 over the upper limit, -1 under the lower, else 0; None
        unless signs)."""
        over = f - self.fub
        under = self.flb - f
        eta = np.maximum(over, under)
        np.maximum(0.0, eta, out=eta)
        if not signs:
            return eta, None
        # in place: one temporary fewer at the peak of the training pass
        sign = np.where(over > 0, 1.0, 0.0)
        sign += np.where(under > 0, -1.0, 0.0)
        return eta, sign

    def slack_total(self, state: PipelineState) -> np.ndarray:
        return state.eta0.sum(-1) + state.eta_g.sum((-2, -1)) + state.eta_e_sum

    def objective(self, state: PipelineState, c: np.ndarray) -> np.ndarray:
        """Per-instance cost plus penalized slacks (requires slacks attached)."""
        return (np.atleast_2d(c) * state.gtilde).sum(-1) + self.Pi * self.slack_total(state)

    def objective_grads(self, state: PipelineState, c: np.ndarray):
        """Gradient of the per-instance objective w.r.t. the repaired dispatch
        and the contingency dispatches, with cap flags and signals frozen.

        Line-contingency slacks depend on the base flows both directly and
        through the redistributed flow of the outaged line, so their sign
        patterns accumulate an extra term on the outaged-line column.  Needs
        a state formed with with_slacks="sums".
        """
        if state.weights is None:
            raise ConfigError('objective gradients need slacks formed with with_slacks="sums"')
        grad_gtilde = np.atleast_2d(c) - self.Pi * (state.weights @ self.phi_gen)
        grad_gk = -self.Pi * (state.sign_g @ self.phi_gen)
        return grad_gtilde, grad_gk

    def backward(self, state: PipelineState, grad_gtilde: np.ndarray,
                 grad_gk: np.ndarray | None = None) -> np.ndarray:
        """Chain gradients on (gtilde, gk) back to the raw network outputs."""
        total = np.asarray(grad_gtilde, float)
        if grad_gk is not None and self.kg.size:
            total = total + binary_search_vjp(grad_gk, state.rho, self.kg)
        grad_gcheck = repair_layer_vjp(total, state.repair_ctx)
        return bound_map_vjp(grad_gcheck, state.sig, state.glb, state.gub)
