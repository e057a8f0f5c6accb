"""Independent reference implementations used to cross-check the package.

Nothing here imports computational code from scopflearn beyond the plain
GridCase data container: flows are recomputed by solving the bus angle
system from scratch, contingency responses by exact piecewise-linear root
finding, line outages by rebuilding the reduced network, and instance
recoverability by a linear program.

It also holds the frozen-branch surrogate of the dispatch pipeline
(``frozen_objective``), whose finite differences check the pipeline's
vector-Jacobian products.  It reads the pipeline's factor maps and the tape
of one forward pass, and recomputes everything else itself.

The loop forms of three fused kernels are kept here as byte-for-byte
references: the masked sigmoid, the bracketing bisection with its own
temporaries, and Adam applied array by array.
"""

import numpy as np
from scipy.optimize import linprog
from scipy.special import expit


def solve_dc_flows(n_bus, line_from, line_to, susceptance, slack_bus, injections):
    """Line flows from bus injections via a fresh angle solve (theta_slack = 0)."""
    injections = np.asarray(injections, float)
    n_line = len(line_from)
    A = np.zeros((n_line, n_bus))
    A[np.arange(n_line), line_from] = 1.0
    A[np.arange(n_line), line_to] = -1.0
    Bbus = A.T @ (susceptance[:, None] * A)
    keep = np.arange(n_bus) != slack_bus
    theta = np.zeros(n_bus)
    theta[keep] = np.linalg.solve(Bbus[np.ix_(keep, keep)], injections[keep])
    return susceptance * (A @ theta)


def case_flows(case, g, d):
    """Base-case flows for dispatch g and per-load-unit demand d."""
    inj = np.zeros(case.n_bus)
    np.add.at(inj, case.gen_bus, np.asarray(g, float))
    np.subtract.at(inj, case.load_bus, np.asarray(d, float))
    return solve_dc_flows(case.n_bus, case.line_from, case.line_to,
                          case.susceptance, case.slack_bus, inj)


def case_flows_without_line(case, k, g, d):
    """Post-outage flows, recomputed on the network with line k removed."""
    keep = np.arange(case.n_line) != k
    inj = np.zeros(case.n_bus)
    np.add.at(inj, case.gen_bus, np.asarray(g, float))
    np.subtract.at(inj, case.load_bus, np.asarray(d, float))
    full = solve_dc_flows(case.n_bus, case.line_from[keep], case.line_to[keep],
                          case.susceptance[keep], case.slack_bus, inj)
    out = np.zeros(case.n_line)
    out[keep] = full
    return out


def exact_response_signal(g, k, gamma, ghat, gub, d_total):
    """Exact root of sum_i min(g_i + n*gamma_i*ghat_i, gub_i) = d_total over
    n in [0, 1], for outage k.  Returns the clipped boundary value when no
    root exists.  Piecewise-linear walk over the cap breakpoints; no bisection.
    """
    g = np.asarray(g, float).copy()
    mask = np.ones(len(g), bool)
    mask[k] = False
    gs, slopes, caps = g[mask], (gamma * ghat)[mask], gub[mask]

    def total(n):
        return np.minimum(gs + n * slopes, caps).sum()

    if total(0.0) >= d_total:
        return 0.0
    if total(1.0) <= d_total:
        return 1.0
    # breakpoints where a generator hits its cap
    with np.errstate(divide="ignore", invalid="ignore"):
        bps = np.where(slopes > 0, (caps - gs) / slopes, np.inf)
    knots = np.unique(np.concatenate([[0.0, 1.0], bps[(bps > 0) & (bps < 1)]]))
    for lo, hi in zip(knots[:-1], knots[1:]):
        tlo, thi = total(lo), total(hi)
        if tlo <= d_total <= thi:
            if thi == tlo:
                return lo
            return lo + (d_total - tlo) * (hi - lo) / (thi - tlo)
    raise AssertionError("root bracketing failed")


def apr_dispatch(g, n, k, gamma, ghat, gub):
    gk = np.minimum(np.asarray(g, float) + n * gamma * ghat, gub)
    gk[k] = 0.0
    return gk


def response_residuals(g, kg, gamma, glb, gub, d_total):
    """Balance residual sum(g^k) - d_total of the droop response to each
    outage k in kg, at the exact signal of exact_response_signal: zero where
    a signal in [0, 1] balances the outage, else the shortfall (or surplus)
    at the clipped signal.  Also returns each outage's surviving droop
    sum_{i != k} gamma_i*ghat_i, the slope of the residual in the signal."""
    g, gub = np.asarray(g, float), np.asarray(gub, float)
    ghat = gub - glb
    droop = gamma * ghat
    resid = np.array([
        apr_dispatch(g, exact_response_signal(g, k, gamma, ghat, gub, d_total),
                     k, gamma, ghat, gub).sum() - d_total for k in kg])
    return resid, droop.sum() - droop[np.asarray(kg, int)]


def recoverable_by_lp(glb, gub, gamma, d_total, kg, tol=1e-9):
    """Whether some balanced g in [glb, gub] lets every outage k in kg be
    met by the droop response: sum_{i != k} min(g_i + r_i, gub_i) >= d_total
    with r = gamma*(gub - glb).  HiGHS LP over (g, y, s) with y_i the
    response cap, y_i <= g_i + r_i and y_i <= gub_i, maximizing the worst
    margin s = min_k sum_{i != k} y_i - d_total; recoverable iff s >= -tol."""
    glb, gub = np.asarray(glb, float), np.asarray(gub, float)
    n, kg = glb.size, list(kg)
    r = gamma * (gub - glb)
    cost = np.zeros(2 * n + 1)
    cost[-1] = -1.0
    a_ub = np.zeros((n + len(kg), 2 * n + 1))
    a_ub[np.arange(n), np.arange(n)] = -1.0
    a_ub[np.arange(n), n + np.arange(n)] = 1.0
    for j, k in enumerate(kg):
        a_ub[n + j, n:2 * n] = -1.0
        a_ub[n + j, n + k] = 0.0
        a_ub[n + j, -1] = 1.0
    b_ub = np.concatenate([r, np.full(len(kg), -d_total)])
    a_eq = np.concatenate([np.ones(n), np.zeros(n + 1)])[None, :]
    bounds = ([(lo, hi) for lo, hi in zip(glb, gub)] + [(None, hi) for hi in gub]
              + [(None, None) if kg else (0.0, 0.0)])
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[d_total],
                  bounds=bounds, method="highs")
    if res.status == 2:
        return False
    assert res.status == 0, res.message
    return -res.fun >= -tol


def slack_from_flows(f, flb, fub):
    return np.maximum(0.0, np.maximum(f - fub, flb - f))


def reference_slacks(case, g, gk, ke, d):
    """Thermal slacks of base dispatch g (n_line,), of each contingency
    dispatch in gk (len(gk), n_line) and of each line outage in ke
    (len(ke), n_line), from fresh angle solves.  An outaged line's own entry
    is zero: it carries no flow."""
    def slack(f):
        return slack_from_flows(f, case.flb, case.fub)

    eta_e = np.zeros((len(ke), case.n_line))
    for j, k in enumerate(ke):
        eta_e[j] = slack(case_flows_without_line(case, k, g, d))
        eta_e[j, k] = 0.0
    eta_g = np.array([slack(case_flows(case, x, d)) for x in gk]).reshape(-1, case.n_line)
    return slack(case_flows(case, g, d)), eta_g, eta_e


def full_objective(case, kg, ke, g, d, c, gub, tol=1e-6, t_unused=None):
    """Independent evaluation of cost plus penalized thermal slacks, with the
    contingency balance treated as a hard constraint (returns +inf when any
    admissible generator outage cannot be balanced within tol)."""
    g = np.asarray(g, float)
    d = np.asarray(d, float)
    gub = np.asarray(gub, float)
    gamma, ghat = case.gamma, gub - case.glb
    d_total = d.sum()
    gks = []
    for k in kg:
        n = exact_response_signal(g, k, gamma, ghat, gub, d_total)
        gks.append(apr_dispatch(g, n, k, gamma, ghat, gub))
        if abs(gks[-1].sum() - d_total) > tol:
            return np.inf
    eta0, eta_g, eta_e = reference_slacks(case, g, gks, ke, d)
    return float(np.dot(c, g)) + case.Pi * (eta0.sum() + eta_g.sum() + eta_e.sum())


def _frozen_slack(pipe, f, f_tape):
    """Thermal slacks of flows f on the side of the limit that the tape flows
    f_tape violate: linear in f, and zero where f_tape is within limits."""
    over, under = f_tape > pipe.fub, f_tape < pipe.flb
    return np.where(over, f - pipe.fub, 0.0) + np.where(under, pipe.flb - f, 0.0)


def frozen_objective(pipe, z, state, d, c):
    """Objective and residuals re-evaluated at new raw outputs z with every
    branch decision frozen at the tape point of ``state``: same repair
    branch, same cap flags, same response signals, same slack sign patterns.

    This is the exactly-differentiable surrogate whose analytic gradient the
    pipeline's backward pass computes; finite differences of it validate the
    vector-Jacobian products.  Returns (objective, residuals h, gtilde).
    """
    z = np.atleast_2d(np.asarray(z, float))
    d = np.atleast_2d(np.asarray(d, float))
    gcheck = state.glb + expit(z) * (state.gub - state.glb)
    ctx = state.repair_ctx
    s = gcheck.sum(-1)
    total_ub = state.gub.sum(-1)
    total_lb = state.glb.sum(-1)
    denom = np.where(ctx.deficit, total_ub - s, s - total_lb)
    denom = np.where(ctx.degenerate, 1.0, denom)
    zeta = np.where(ctx.deficit, state.d_total - s, s - state.d_total) / denom
    zeta = np.where(ctx.degenerate, 1.0, zeta)
    target = np.where(ctx.deficit[..., None], state.gub, state.glb)
    gtilde = (1.0 - zeta)[..., None] * gcheck + zeta[..., None] * target
    # frozen-mask contingency dispatch: linear in gtilde
    droop = (pipe.gamma * (state.gub - state.glb))[:, None, :]
    survivors = np.ones((pipe.kg.size, gtilde.shape[-1]))
    survivors[np.arange(pipe.kg.size), pipe.kg] = 0.0
    raw = gtilde[:, None, :] + state.nk[..., None] * droop
    gk = (raw * (1.0 - state.rho) + state.gub[:, None, :] * state.rho) * survivors
    h = gk.sum(-1) - state.d_total[:, None]
    flow_d = d @ pipe.phi_load.T
    f0 = flow_d - gtilde @ pipe.phi_gen.T
    fg = flow_d[:, None, :] - gk @ pipe.phi_gen.T
    # frozen-sign slack: eta = sign * (f - active bound), with the signs of
    # the tape point's own flows
    slack = _frozen_slack(pipe, f0, state.f0).sum(-1)
    slack += _frozen_slack(pipe, fg, flow_d[:, None, :] - state.gk @ pipe.phi_gen.T).sum((-2, -1))
    if pipe.ke.size:
        post = f0[:, None, :] + f0[:, pipe.ke, None] * pipe.lodf_ke[None, :, :]
        post_tape = state.f0[:, None, :] + state.f0[:, pipe.ke, None] * pipe.lodf_ke[None, :, :]
        eta_e = _frozen_slack(pipe, post, post_tape)
        eta_e[:, np.arange(pipe.ke.size), pipe.ke] = 0.0   # the outaged line carries no flow
        slack += eta_e.sum((-2, -1))
    obj = (np.atleast_2d(c) * gtilde).sum(-1) + pipe.Pi * slack
    return obj, h, gtilde


def sigmoid_masked(z):
    """The logistic function by a boolean-mask scatter, one exp per branch."""
    z = np.asarray(z, float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def bisection_reference(g, d_total, kg, gamma, ghat, gub, t=25):
    """The response-signal bisection with an explicit [n_min, n_max] bracket
    and a survivor mask applied on every iteration; same contract and return
    values as ``layers.binary_search_batch``."""
    g = np.atleast_2d(np.asarray(g, float))
    gub = np.atleast_2d(np.asarray(gub, float))
    ghat = np.atleast_2d(np.asarray(ghat, float))
    d_total = np.atleast_1d(np.asarray(d_total, float))
    kg = np.asarray(kg, int)
    n_batch, n_gen = g.shape
    n_cont = kg.size
    survivors = np.ones((n_cont, n_gen))
    survivors[np.arange(n_cont), kg] = 0.0

    droop = (np.asarray(gamma, float) * ghat)[:, None, :]
    g_b = g[:, None, :]
    gub_b = gub[:, None, :]
    n = np.full((n_batch, n_cont), 0.5)
    n_min = np.zeros((n_batch, n_cont))
    n_max = np.ones((n_batch, n_cont))
    best_n = n.copy()
    best_abs = np.full((n_batch, n_cont), np.inf)
    for _ in range(t):
        gk = np.minimum(g_b + n[..., None] * droop, gub_b) * survivors
        e = gk.sum(-1) - d_total[:, None]
        better = np.abs(e) <= best_abs
        best_n = np.where(better, n, best_n)
        best_abs = np.where(better, np.abs(e), best_abs)
        pos = e > 0.0
        n_max = np.where(pos, n, n_max)
        n_min = np.where(~pos, n, n_min)
        n = 0.5 * (n_max + n_min)
    gk = np.minimum(g_b + n[..., None] * droop, gub_b) * survivors
    e = gk.sum(-1) - d_total[:, None]
    best_n = np.where(np.abs(e) <= best_abs, n, best_n)
    raw = g_b + best_n[..., None] * droop
    gk = np.minimum(raw, gub_b) * survivors
    rho = ((raw > gub_b) & (survivors > 0)).astype(float)
    return gk, best_n, rho


def adam_reference(params, grads, m, v, step, lr, b1=0.9, b2=0.999, eps=1e-8):
    """One Adam update with bias correction, applied array by array to
    parallel lists of parameter, gradient and moment arrays, in place."""
    c1 = 1.0 - b1 ** step
    c2 = 1.0 - b2 ** step
    for p, g, mi, vi in zip(params, grads, m, v):
        mi *= b1
        mi += (1.0 - b1) * g
        vi *= b2
        vi += (1.0 - b2) * g * g
        p -= lr * (mi / c1) / (np.sqrt(vi / c2) + eps)


def fd_gradient(fun, x, h=1e-6):
    """Central-difference gradient of a scalar function of a 1-D array."""
    x = np.asarray(x, float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        grad[i] = (fun(x + e) - fun(x - e)) / (2 * h)
    return grad


def fd_jacobian(fun, x, h=1e-6):
    """Central-difference Jacobian of a vector function of a 1-D array."""
    x = np.asarray(x, float)
    cols = []
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        cols.append((fun(x + e) - fun(x - e)) / (2 * h))
    return np.stack(cols, axis=-1)


def rel_err(a, b, floor=1e-8):
    a, b = np.asarray(a, float), np.asarray(b, float)
    return np.max(np.abs(a - b) / np.maximum(floor, np.maximum(np.abs(a), np.abs(b))))
