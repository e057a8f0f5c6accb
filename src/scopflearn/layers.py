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

The bisection layer returns what t steps of bisection on the response signal
n return, without taking them.  The residual
e(n) = sum(min(g + n gamma ghat, gub) * survivors) - d is made of operations
each monotone in n, in a fixed order, and rounding is monotone; so with
gamma ghat >= 0 the test "e(n) > 0" turns from false to true once as n
grows (a NaN counts as false, and sits only between -inf below and +inf
above).  The loop's midpoints are then a binary search for that switch on
the grid of step 2^-(t+1), which ends in the one cell [c, c + 1] (in grid
steps) with e not positive at c, or c = 0, and positive at c + 1, or
c + 1 = 2^(t+1).  The cell's odd end is the final midpoint; its even end is
the last midpoint on the other side of the switch, or 0 or 1, which the loop
never evaluates.  Every other midpoint lies on a side of the switch whose
end of the cell ran after it with an |e| no larger, so the answer is the
final midpoint unless the even end has the strictly smaller |e|.  The layer
guesses c from the piecewise-linear root and certifies it by e at both ends
in the loop's own operation order.  It runs the loop itself only where the
guess fails, or where e is NaN at an odd lower end (an earlier midpoint of
-inf may then win).  Negative droop, and an outaged unit whose
g + n gamma ghat overflows below an infinite cap (its term min(...) * 0
would turn NaN as n grows), are refused with a DataError; NaN passes.

Line-outage slacks take one of two forms, chosen by batch size alone.  A
batch whose post-outage flows fit one block of SLACK_BLOCK elements forms
them as one dense (batch, line outage, line) block.  A larger batch is first
screened (``PrimalPipeline.binding_pairs``): from each line's interval of
base flows over the batch, a pair whose post-outage flow stays strictly
inside its limits in every row is dropped, and only the other pairs are
gathered and formed, in blocks of at most SLACK_BLOCK elements, so its
post-outage flows never exist all at once.  The screen is exact in floating
point: its bounds take the operations of the post-outage flow in the same
order, and rounding is monotone, so every dropped pair has slack +0.0 and
sign 0 bit for bit, and a non-finite flow keeps its pairs.  The per-outage
slacks are identical in either form; sums over pairs can move in their last
bits, since the gathered blocks add fewer terms in another order.

Each slack mode keeps only what its callers read: every mode keeps the
base-case and generator-outage slacks and the per-instance line-outage slack
total; "totals" (the evaluation pass, the reference solver) keeps nothing
more; "sums" (training) adds the sign patterns and the weight vector of the
objective gradient; True (serving, reporting) adds the per-outage slacks, of
shape (batch, line outage, line), and forms no sign patterns; False
retrieves no slacks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .grid import ContingencySet, GridCase, LinearFactors

DEGENERATE_TOL = 1e-12
# bisection iterations t: the default, and the most allowed.  t sets the
# grid of step 2^-(t+1) that the signal is read on; up to t = 52 its
# 2^(t+1) cells, and every point of it in [0, 1], are exact in float64
BISECT_ITERS = 25
MAX_BISECT_ITERS = 52
# elements of one float64 temporary in the line-outage slacks (512 KB): a
# batch within it forms one dense block, a larger one the screened pairs, a
# block of which holds at least one pair however large the batch
SLACK_BLOCK = 1 << 16


def sigmoid(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, float)
    # exp(-|z|) on both branches; min(z, -z) keeps a NaN's own bits
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def thermal_slacks(f: np.ndarray, flb, fub, signs: bool = True, overwrite: bool = False):
    """Thermal slacks max(0, f - fub, flb - f) of flows f, and their sign
    pattern (+1 over the upper limit, -1 under the lower, else 0; None unless
    signs).  overwrite: f is a temporary whose memory may be reused."""
    over = f - fub
    under = np.subtract(flb, f, out=f if overwrite else None)
    eta = np.maximum(over, under, out=None if signs else over)
    np.maximum(0.0, eta, out=eta)
    if not signs:
        return eta, None
    # (over > 0) - (under > 0), in place; from booleans, far cheaper than
    # np.where with scalars
    sign = np.greater(over, 0.0).astype(float)
    np.subtract(sign, np.greater(under, 0.0), out=sign)
    return eta, sign


def _scatter_sum(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, shape) -> np.ndarray:
    """The dense array of the given shape whose (row, col) entry sums the
    vals at that index, in the order given."""
    idx = rows * shape[1] + cols
    return np.bincount(idx, vals, minlength=shape[0] * shape[1]).reshape(shape)


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
    """The branch the forward pass took: its blend target (gub or glb), the
    blend denominator (1.0 where degenerate) and blend weight zeta."""
    gcheck: np.ndarray
    d_total: np.ndarray
    s: np.ndarray
    zeta: np.ndarray
    deficit: np.ndarray
    degenerate: np.ndarray
    target: np.ndarray
    denom: np.ndarray


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
    deficit = s < d_total
    target = np.where(deficit[..., None], gub, glb)
    total = target.sum(-1)
    denom = np.where(deficit, total - s, s - total)
    degenerate = denom <= DEGENERATE_TOL
    denom_safe = np.where(degenerate, 1.0, denom)
    zeta = np.where(deficit, d_total - s, s - d_total) / denom_safe
    zeta = np.where(degenerate, 1.0, zeta)
    gtilde = (1.0 - zeta)[..., None] * gcheck + zeta[..., None] * target
    ctx = RepairContext(gcheck=gcheck, d_total=d_total, s=s, zeta=zeta, deficit=deficit,
                        degenerate=degenerate, target=target, denom=denom_safe)
    return gtilde, ctx


def repair_layer_vjp(grad_gtilde: np.ndarray, ctx: RepairContext) -> np.ndarray:
    """Exact Jacobian of the branch taken in the forward pass.

    The Jacobian is (1 - zeta) I + u 1', where u carries the dependence of
    zeta on the dispatch sum.  With the branch's target t (gub on a deficit,
    glb on a surplus) and its denominator (1't - 1'g on a deficit, 1'g - 1't
    on a surplus):
      u = (t - g) (d - 1't) / denom^2
    """
    coef = (ctx.d_total - ctx.target.sum(-1)) / ctx.denom**2
    u = (ctx.target - ctx.gcheck) * coef[..., None]
    u = np.where(ctx.degenerate[..., None], 0.0, u)
    scale = np.where(ctx.degenerate, 0.0, 1.0 - ctx.zeta)
    rank_one = (grad_gtilde * u).sum(-1, keepdims=True)
    return scale[..., None] * grad_gtilde + rank_one


# ---------------------------------------------------------------------------
# bisection on the global response signal

def binary_search_batch(g, d_total, kg, gamma, ghat, gub, t: int = BISECT_ITERS):
    """Bisect the response signal n in [0, 1] so each post-outage dispatch
    balances the load, for a batch of dispatches and all generator
    contingencies at once, then emit the dispatches, signals and cap flags
    evaluated at the returned signals.

    The result is the t-step loop's, bit for bit, read off without it: the
    loop starts at n = 1/2, steps down where the residual
    e(n) = sum(min(g + n gamma ghat, gub) * survivors) - d_total is positive
    and up elsewhere, halving the step, and returns the last of its t + 1
    midpoints with the least |e| (1/2 if every |e| is NaN).  Since e is
    monotone in n, only the grid cell where e turns positive, and e at its
    two ends, decide that (see the module docstring); the loop runs itself
    only where a guess of that cell fails.  When no balancing
    signal exists the signal runs to the 0 or 1 boundary and the signed
    residual is left to the caller.  A cap flag is set only where the
    uncapped response strictly exceeds the upper bound.

    Requires gamma ghat >= 0, and no outaged unit whose g + n gamma ghat
    overflows below an infinite gub; refuses either with a DataError.  NaN
    passes.  g: (B, G); d_total: (B,); ghat, gub: (B, G); kg: contingency
    indices (K,).  Returns gk (B, K, G), nk (B, K), rho (B, K, G).
    """
    if not 1 <= t <= MAX_BISECT_ITERS:
        raise ConfigError(
            f"bisection iteration count must be in [1, {MAX_BISECT_ITERS}], got {t}")
    g = np.atleast_2d(np.asarray(g, float))
    gub = np.atleast_2d(np.asarray(gub, float))
    d_total = np.atleast_1d(np.asarray(d_total, float))
    kg = np.asarray(kg, int)
    droop = np.asarray(gamma, float) * np.atleast_2d(np.asarray(ghat, float))
    if (droop < 0.0).any():
        raise DataError("the response needs gamma * ghat >= 0; a negative droop "
                        "(an upper bound below the lower one) lets the residual fall")
    # the outaged unit enters as min(g + n droop, gub) * 0: 0, unless g + n
    # droop overflows below an infinite cap, which turns it NaN above some n
    overflow = (g + droop) == np.inf
    if overflow.any() and np.any((overflow & (gub == np.inf) & np.isfinite(g)
                                  & np.isfinite(droop))[:, kg]):
        raise DataError("an outaged unit's response g + n * gamma * ghat overflows")
    survivors = np.ones((kg.size, g.shape[1]))
    survivors[np.arange(kg.size), kg] = 0.0
    best_n = _loop_signal(g, droop, gub, survivors, d_total, kg, t)
    raw = np.multiply(best_n[..., None], droop[:, None, :])
    np.add(g[:, None, :], raw, out=raw)
    rho = np.greater(raw, gub[:, None, :]) * survivors
    gk = np.minimum(raw, gub[:, None, :], out=raw)
    gk *= survivors
    return gk, best_n, rho


def _loop_signal(g, droop, gub, survivors, d_total, kg, t: int) -> np.ndarray:
    """The signal nk (B, K) that the t-step loop returns."""
    cells, h = 2 ** (t + 1), 0.5 ** (t + 1)
    args = (g[:, None, :], droop[:, None, :], gub[:, None, :], survivors, d_total[:, None])
    # the guessed cell [lo, lo + 1] (in steps h) holds the switch where e
    # is not positive at lo and positive at lo + 1; the ends 0 and 1 count
    # as not positive and positive, and NaN as not positive
    lo = _cell_guess(g, droop, gub, d_total, kg, cells)
    buf = np.empty(lo.shape + g.shape[-1:])
    e_lo = _residual(lo * h, *args, out=buf)
    e_hi = _residual((lo + 1) * h, *args, out=buf)
    odd = (lo & 1).astype(bool)
    # the loop runs itself where the guess fails, and where e is NaN at an
    # odd lower end (an earlier midpoint of -inf may then win)
    loop = (e_lo > 0.0) & (lo > 0)
    loop |= ~(e_hi > 0.0) & (lo < cells - 1)
    loop |= odd & np.isnan(e_lo)

    # the final midpoint, the odd end, wins ties; an end at 0 or 1 never ran
    a_lo, a_hi = np.abs(e_lo, out=e_lo), np.abs(e_hi, out=e_hi)
    a_lo[lo == 0] = np.nan
    a_hi[lo == cells - 1] = np.nan
    best_n = (lo + np.where(odd, a_hi < a_lo, ~(a_lo < a_hi))) * h
    if loop.any():
        loop = np.flatnonzero(loop)
        best_n.flat[loop] = _run_loop(loop, t, g, droop, gub, survivors, d_total)
    return best_n


def _residual(n, g, droop, gub, survivors, d_total, out=None):
    """The residual sum(min(g + n droop, gub) * survivors) - d_total at the
    signals n, in the operation order of the t-step loop; units run along
    the last axis of the broadcast, and n holds every other axis."""
    r = np.multiply(n[..., None], droop, out=out)
    np.add(g, r, out=r)   # g first: a NaN keeps the loop's bits
    np.minimum(r, gub, out=r)
    r *= survivors
    e = np.add.reduce(r, -1)
    e -= d_total
    return e


def _cell_guess(g, droop, gub, d_total, kg, cells: int) -> np.ndarray:
    """A guess, (B, K) in [0, cells), of the cell of step 1/cells where
    each outage's residual turns positive: the root of its piecewise-linear
    response, in any rounding.  Unit j gives min(g_j + n droop_j, gub_j),
    which bends at its knee; each outage's residual is read at every knee,
    and the root lies on the segment below the least knee where it is
    positive, or at the top where none is."""
    # a unit without droop is flat at min(g, gub), whatever its knee
    knee = np.subtract(gub, g)
    np.divide(knee, droop, out=knee, where=droop > 0.0)
    np.minimum(np.maximum(knee, 0.0, out=knee), 1.0, out=knee)
    # at[b, j, m]: unit j's capped response at knee m; each outage takes
    # out its own unit
    at = np.multiply(droop[:, :, None], knee[:, None, :])
    at += g[:, :, None]
    np.minimum(at, gub[:, :, None], out=at)
    v = at[:, kg, :]
    np.subtract(at.sum(1)[:, None, :], v, out=v)
    v -= d_total[:, None, None]
    del at
    x = np.where(np.greater(v, 0.0), knee[:, None, :], np.inf)
    least = (np.arange(x.shape[0])[:, None], np.arange(kg.size), x.argmin(-1))
    right, rise = x[least], v[least]
    del x, v
    # the segment's slope: the droop of the units whose knee lies at or
    # above its right end, less the outage's own
    slope = np.where(knee[:, None, :] >= right[..., None], droop[:, None, :], 0.0).sum(-1)
    slope -= droop[:, kg] * (knee[:, kg] >= right)
    right -= np.divide(rise, slope, out=np.zeros_like(rise), where=slope > 0.0)
    right *= cells
    # no positive knee (+inf) or a NaN guesses the top cell
    return np.fmax(np.fmin(right, cells - 1.0, out=right), 0.0, out=right).astype(np.int64)


def _run_loop(at, t: int, g, droop, gub, survivors, d_total) -> np.ndarray:
    """The t-step loop itself at the flat (B, K) positions at: from n = 1/2,
    step down where e is positive and up elsewhere, halving the step, and
    return the last of the t + 1 midpoints with the least |e|, or 1/2 where
    every |e| is NaN.  Every midpoint is exact on the grid of step
    2^-(t+1)."""
    rows, outs = np.divmod(at, survivors.shape[0])
    args = (g[rows], droop[rows], gub[rows], survivors[outs], d_total[rows])
    n, best_n, best = np.full(at.size, 0.5), np.full(at.size, 0.5), np.full(at.size, np.inf)
    for i in range(t + 1):
        e = _residual(n, *args)
        a = np.abs(e)
        keep = a <= best
        best_n[keep], best[keep] = n[keep], a[keep]
        n += np.where(e > 0.0, -0.5 ** (i + 2), 0.5 ** (i + 2))
    return best_n


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
    # True only: eta_e, the dense block itself where the batch fits one;
    # "totals" neither
    eta_e_sum: np.ndarray = None
    weights: np.ndarray = None


class PrimalPipeline:
    """Batched bound map -> repair -> bisection -> slack retrieval for one
    grid, with the matching backward pass to raw network outputs."""

    def __init__(self, case: GridCase, factors: LinearFactors,
                 cont: ContingencySet, t: int = BISECT_ITERS):
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
        self.phi_gen, self.phi_load = factors.phi_gen, factors.phi_load
        bridges = self.ke[factors.islanding[self.ke]]
        if bridges.size:
            raise ConfigError(f"line outages {bridges.tolist()} would island the network")
        # the LODF row of each outage in ke: the screened set reads the
        # factors' own rows, any other set gathers its rows
        rows = np.cumsum(~factors.islanding)[self.ke] - 1
        self.lodf_ke = (factors.lodf if np.array_equal(rows, np.arange(len(factors.lodf)))
                        else factors.lodf[rows])

    def forward(self, z: np.ndarray, d: np.ndarray, gub: np.ndarray,
                with_slacks: bool | str = True) -> PipelineState:
        """Raw outputs z (B, n_gen) to the full primal point.

        with_slacks: True keeps every slack, the per-outage line-outage
        ones included, and no sign patterns (serving, reporting).  "totals"
        keeps the base-case and generator-outage slacks and reduces the line
        outages block by block to the per-instance slack total (evaluation
        passes).  "sums" adds the base-case and generator-outage signs and
        the objective-gradient weights (training).  False retrieves no
        slacks.
        """
        z = np.atleast_2d(np.asarray(z, float))
        d = np.atleast_2d(np.asarray(d, float))
        gub = np.atleast_2d(np.asarray(gub, float))
        glb = np.broadcast_to(self.glb, gub.shape)
        d_total = d.sum(-1)
        gcheck, sig = bound_map(z, glb, gub)
        gtilde, repair_ctx = repair_layer(gcheck, d_total, glb, gub)
        state = self._dispatch_state(gtilde, d, d_total, glb, gub, with_slacks)
        state.sig, state.repair_ctx = sig, repair_ctx
        return state

    def evaluate_dispatch(self, g: np.ndarray, d: np.ndarray, gub: np.ndarray,
                          with_slacks: bool | str = True) -> PipelineState:
        """The bisection and slack retrieval of ``forward`` from a given
        dispatch g (B, n_gen) instead of raw network outputs; reference
        evaluations start here."""
        d = np.atleast_2d(np.asarray(d, float))
        gub = np.atleast_2d(np.asarray(gub, float))
        return self._dispatch_state(np.atleast_2d(np.asarray(g, float)), d, d.sum(-1),
                                    np.broadcast_to(self.glb, gub.shape), gub, with_slacks)

    def _dispatch_state(self, g, d, d_total, glb, gub, with_slacks) -> PipelineState:
        """The tail that ``forward`` and ``evaluate_dispatch`` share, on
        normalized (B, ...) arrays: bisection from dispatch g, then slacks."""
        gk, nk, rho = binary_search_batch(g, d_total, self.kg, self.gamma, gub - glb, gub,
                                          self.t)
        h = gk.sum(-1) - d_total[:, None]
        state = PipelineState(sig=None, glb=glb, gub=gub, repair_ctx=None,
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
        if with_slacks is not True and with_slacks not in ("sums", "totals"):
            raise ConfigError("with_slacks must be True, False, 'sums' or 'totals', "
                              f"got {with_slacks!r}")
        grads = with_slacks == "sums"
        flow_d, f0 = self.base_flows(state.gtilde, d)
        state.f0 = f0
        state.eta0, state.sign0 = thermal_slacks(f0, self.flb, self.fub, grads)
        fg = flow_d[:, None, :] - state.gk @ self.phi_gen.T
        state.eta_g, state.sign_g = thermal_slacks(fg, self.flb, self.fub, grads,
                                                   overwrite=True)
        state.eta_e_sum, state.eta_e, sign_sum, lodf_term = self.line_outage_slacks(
            f0, with_slacks)
        if grads:
            # the LODF term on the outaged columns goes last, after the
            # integer-valued sign sums, so the weights do not depend on the
            # block form
            state.weights = state.sign0 + sign_sum
            state.weights[:, self.ke] += lodf_term

    def line_outage_slacks(self, f0: np.ndarray, mode: bool | str = "totals"):
        """The line-outage slacks at base flows f0 (B, n_line), reduced as
        slack mode ``mode`` needs them: (total, eta_e, sign_sum, lodf_term).

        total (B,), the per-instance slack total, in every mode; eta_e
        (B, n_ke, n_line), the per-outage slacks with the outaged line's own
        entry zero, for True; for "sums", the gradient's sign sums over
        outages sign_sum (B, n_line) and its LODF terms on the outaged lines
        lodf_term (B, n_ke).  What the mode does not need is None.

        A batch within one block of SLACK_BLOCK elements is formed as one
        dense block, a larger one as the screened pairs.  This is the one
        place that reduces post-outage flows.
        """
        grads, serving = mode == "sums", mode is True
        batch, n_line = f0.shape
        n_ke = self.ke.size
        total = np.zeros(batch)   # from +0.0 in both forms
        if batch * n_ke * n_line <= SLACK_BLOCK:
            # one dense block: at batch 1 on a 210-line mesh the screen took
            # 0.6-0.8 ms, the dense block 0.15-0.2 ms without signs
            post = f0[:, self.ke, None] * self.lodf_ke[None, :, :]
            post += f0[:, None, :]
            eta, sign = thermal_slacks(post, self.flb, self.fub, grads, overwrite=True)
            own = (slice(None), np.arange(n_ke), self.ke)
            eta[own] = 0.0
            total += eta.sum((-2, -1))
            if not grads:
                return total, eta if serving else None, None, None
            sign[own] = 0.0
            return total, None, sign.sum(-2), (sign * self.lodf_ke).sum(-1)
        # screened before the outputs are allocated, so its temporaries are
        # gone at their peak
        pairs = self.binding_pairs(f0)
        eta_e = sign_sum = lodf_term = store = None
        if grads:
            sign_sum, lodf_term = np.zeros((batch, n_line)), np.zeros((batch, n_ke))
        elif serving:
            # pair-major, in the order of the blocks' writes
            store = np.zeros((n_ke, n_line, batch))
            eta_e = store.transpose(2, 0, 1)
        for where, eta, sign in self.line_outage_blocks(f0, pairs, grads):
            total += eta.sum(0)
            if grads:
                # few signs are nonzero: sum those alone
                at, rows = np.divmod(np.flatnonzero(sign), batch)
                nz, outages, lines = sign[at, rows], where[0][at], where[1][at]
                sign_sum += _scatter_sum(rows, lines, nz, sign_sum.shape)
                nz *= self.lodf_ke[outages, lines]
                lodf_term += _scatter_sum(rows, outages, nz, lodf_term.shape)
            elif serving:
                store[where] = eta
        return total, eta_e, sign_sum, lodf_term

    def binding_pairs(self, f0: np.ndarray):
        """The (outage, line) pairs whose post-outage slack can be nonzero in
        some row of the base flows f0 (B, n_line), as (outage positions,
        lines) in row-major order.

        Over the batch each line's flow lies in [lo, hi], so the post-outage
        flow f0_l + f0_k L_kl lies in [lo_l + min(lo_k L, hi_k L),
        hi_l + max(lo_k L, hi_k L)], evaluated in the same operation order.
        Rounding is monotone, so a pair whose interval lies strictly inside
        (flb_l, fub_l) has slack +0.0 and sign 0 in every row, bit for bit.
        The strict test keeps a flow of -0.0 at a zero limit, whose dense
        slack can be -0.0; a NaN or inf fails it and keeps the pair.
        """
        lo, hi = f0.min(0), f0.max(0)
        reach_lo = lo[self.ke, None] * self.lodf_ke
        reach_hi = hi[self.ke, None] * self.lodf_ke
        top = np.maximum(reach_lo, reach_hi)
        top += hi
        bottom = np.minimum(reach_lo, reach_hi, out=reach_lo)
        bottom += lo
        clear = top < self.fub
        clear &= bottom > self.flb
        clear[np.arange(self.ke.size), self.ke] = True   # the outaged line's own entry is zero
        return np.nonzero(np.logical_not(clear, out=clear))

    def line_outage_blocks(self, f0: np.ndarray, pairs, signs: bool = True):
        """Thermal slacks of the screened pairs at base flows f0 (B, n_line),
        one block at a time: yields (where, slack, sign), with sign None
        unless signs.  pairs are (outage positions, lines) from
        ``binding_pairs``; where is those of a run of the pairs, and the
        arrays are (pairs in the block, B).

        A block holds at most SLACK_BLOCK elements, or one pair when a
        single one exceeds that, so memory does not grow with the outage
        count.  The operations and rounding are the dense block's.
        """
        f0t = np.ascontiguousarray(f0.T)   # gathers of contiguous rows
        step = max(1, SLACK_BLOCK // max(f0.shape[0], 1))
        for lo in range(0, pairs[0].size, step):
            outages, lines = where = pairs[0][lo:lo + step], pairs[1][lo:lo + step]
            post = f0t[self.ke[outages]]
            post *= self.lodf_ke[where][:, None]
            post += f0t[lines]
            eta, sign = thermal_slacks(post, self.flb[lines, None], self.fub[lines, None],
                                       signs, overwrite=True)
            yield where, eta, sign

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
