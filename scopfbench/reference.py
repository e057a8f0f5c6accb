"""Independent references for the benchmark's correctness checks.

Nothing here imports scopflearn.  Flows come from fresh bus-angle solves on
the network (rebuilt without the line for line outages), response signals
from an exact walk over the breakpoints of the piecewise-linear droop
response, instance feasibility from a linear program, and the micro-case
optimum from a dense enumeration of the balanced-dispatch slice.  The
functions read only the plain data fields of a case object.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

BALANCE_TOL = 1e-6


# ---------------------------------------------------------------------------
# DC flows by angle solves

def injection_sensitivities(n_bus, line_from, line_to, susceptance, slack_bus, buses):
    """Flows on every line per unit injection at each bus in ``buses`` (the
    slack bus absorbs the balance), from one angle solve of the network.

    Returns an (n_line, len(buses)) matrix.
    """
    n_line = len(line_from)
    A = np.zeros((n_line, n_bus))
    A[np.arange(n_line), line_from] = 1.0
    A[np.arange(n_line), line_to] = -1.0
    Bbus = A.T @ (susceptance[:, None] * A)
    keep = np.arange(n_bus) != slack_bus
    rhs = np.zeros((n_bus, len(buses)))
    rhs[np.asarray(buses), np.arange(len(buses))] = 1.0
    theta = np.zeros((n_bus, len(buses)))
    theta[keep] = np.linalg.solve(Bbus[np.ix_(keep, keep)], rhs[keep])
    return susceptance[:, None] * (A @ theta)


class FlowReference:
    """Flow maps of a case, base network and each line outage, from fresh
    angle solves: f = g @ gen_map.T - d @ load_map.T (batched on rows)."""

    def __init__(self, case):
        self.case = case
        self.gen_map, self.load_map = self._maps(np.ones(case.n_line, bool))
        self.outage_maps = {}

    def _maps(self, keep_lines):
        c = self.case
        full = injection_sensitivities(
            c.n_bus, c.line_from[keep_lines], c.line_to[keep_lines],
            c.susceptance[keep_lines], c.slack_bus,
            np.concatenate([c.gen_bus, c.load_bus]))
        out = np.zeros((c.n_line, full.shape[1]))
        out[keep_lines] = full
        return out[:, :c.n_gen], out[:, c.n_gen:]

    def flows(self, g, d):
        return np.asarray(g) @ self.gen_map.T - np.asarray(d) @ self.load_map.T

    def flows_without_line(self, k, g, d):
        """Post-outage flows on the network rebuilt without line k."""
        if k not in self.outage_maps:
            keep = np.arange(self.case.n_line) != k
            self.outage_maps[k] = self._maps(keep)
        gen_map, load_map = self.outage_maps[k]
        return np.asarray(g) @ gen_map.T - np.asarray(d) @ load_map.T

    def slack(self, f):
        return np.maximum(0.0, np.maximum(f - self.case.fub, self.case.flb - f))


# ---------------------------------------------------------------------------
# droop response

def exact_signal(g, k, droop, gub, d_total):
    """Exact root n in [0, 1] of sum_{i != k} min(g_i + n droop_i, gub_i) =
    d_total, clipped to the boundary when no root exists.

    Batched: g, droop, gub are (P, n) and d_total is (P,).  The response is
    concave and nondecreasing in n; its knots are where a survivor reaches
    its cap, so the root lies on the first segment whose end meets d_total.
    """
    g = np.atleast_2d(g)
    droop = np.broadcast_to(droop, g.shape)
    gub = np.broadcast_to(gub, g.shape)
    d_total = np.broadcast_to(np.asarray(d_total, float), g.shape[:1])
    surv = np.ones(g.shape[1], bool)
    surv[k] = False
    gs, ss, us = g[:, surv], droop[:, surv], gub[:, surv]
    with np.errstate(divide="ignore", invalid="ignore"):
        knots = np.where(ss > 0, (us - gs) / ss, np.inf)
    knots = np.clip(knots, 0.0, 1.0)
    knots = np.sort(np.concatenate(
        [np.zeros((g.shape[0], 1)), knots, np.ones((g.shape[0], 1))], axis=1), axis=1)
    totals = np.minimum(gs[:, None, :] + knots[..., None] * ss[:, None, :],
                        us[:, None, :]).sum(-1)
    out = np.empty(g.shape[0])
    low = totals[:, 0] >= d_total
    high = totals[:, -1] <= d_total
    out[low] = 0.0
    out[high & ~low] = 1.0
    mid = ~(low | high)
    if mid.any():
        t = totals[mid]
        kn = knots[mid]
        dt = d_total[mid]
        seg = np.argmax(t >= dt[:, None], axis=1)
        rows = np.arange(seg.size)
        lo, hi = kn[rows, seg - 1], kn[rows, seg]
        tlo, thi = t[rows, seg - 1], t[rows, seg]
        width = np.where(thi > tlo, thi - tlo, 1.0)
        out[mid] = np.where(thi > tlo, lo + (dt - tlo) * (hi - lo) / width, lo)
    return out


def response_dispatch(g, n, k, droop, gub):
    gk = np.minimum(g + n[:, None] * droop, gub)
    gk[:, k] = 0.0
    return gk


# ---------------------------------------------------------------------------
# objective

def objective(case, flows: FlowReference, kg, ke, g, d, c, gub):
    """Cost plus penalized thermal slacks of base dispatches g (P, n_gen),
    with every contingency evaluated from scratch: generator outages by the
    exact response root and fresh flows, line outages on the network rebuilt
    without the line.  Returns (objective (P,), balanced (P,)), where
    balanced is False if some outage cannot be balanced within BALANCE_TOL."""
    g = np.atleast_2d(g)
    d = np.broadcast_to(d, (g.shape[0], case.n_load))
    gub = np.broadcast_to(gub, g.shape)
    c = np.broadcast_to(c, g.shape)
    droop = case.gamma * (gub - case.glb)
    d_total = d.sum(-1)
    slack = flows.slack(flows.flows(g, d)).sum(-1)
    balanced = np.ones(g.shape[0], bool)
    for k in kg:
        n = exact_signal(g, k, droop, gub, d_total)
        gk = response_dispatch(g, n, k, droop, gub)
        balanced &= np.abs(gk.sum(-1) - d_total) <= BALANCE_TOL
        slack += flows.slack(flows.flows(gk, d)).sum(-1)
    for k in ke:
        eta = flows.slack(flows.flows_without_line(k, g, d))
        eta[:, k] = 0.0
        slack += eta.sum(-1)
    return (c * g).sum(-1) + case.Pi * slack, balanced


def enumerate_optimum(case, flows, kg, ke, d, c, gub, step=5e-3, refine=5e-4):
    """Dense enumeration of the balanced-dispatch slice on a lattice of the
    first n-1 coordinates, then a finer lattice around the best point.
    Meant for cases with at most three or four generators."""
    d_total = float(np.sum(d))
    glb = case.glb

    def lattice(lo, hi, h):
        axes = [np.arange(lo[i], hi[i] + 0.5 * h, h) for i in range(lo.size)]
        head = np.stack([a.ravel() for a in np.meshgrid(*axes, indexing="ij")], axis=1)
        last = d_total - head.sum(-1)
        ok = (last >= glb[-1]) & (last <= gub[-1])
        return np.concatenate([head[ok], last[ok, None]], axis=1)

    def values(p):
        obj, balanced = objective(case, flows, kg, ke, p, d, c, gub)
        return np.where(balanced, obj, np.inf)

    pts = lattice(glb[:-1], gub[:-1], step)
    vals = values(pts)
    best = pts[int(np.argmin(vals))]
    lo = np.maximum(glb[:-1], best[:-1] - 2 * step)
    hi = np.minimum(gub[:-1], best[:-1] + 2 * step)
    fine = lattice(lo, hi, refine)
    if fine.size:
        vals = np.concatenate([vals, values(fine)])
    return float(vals.min())


# ---------------------------------------------------------------------------
# instance feasibility

def feasible_by_lp(case, kg, d, gub, chunk=64):
    """Per instance: does some base dispatch balance the load within the box
    and leave every generator outage recoverable by the droop response?

    For outage k the reachable total is sum_{i != k} min(g_i + droop_i,
    gub_i), a concave function of g, so the condition is linear with
    auxiliary variables y_ki <= g_i + droop_i, y_ki <= gub_i and
    sum_{i != k} y_ki >= total load.  Instances are solved in block-diagonal
    groups; a group that fails is re-solved one instance at a time.
    Returns a boolean array.
    """
    d = np.atleast_2d(d)
    gub = np.atleast_2d(gub)
    out = np.zeros(d.shape[0], bool)
    for lo in range(0, d.shape[0], chunk):
        idx = np.arange(lo, min(lo + chunk, d.shape[0]))
        if _lp_group(case, kg, d[idx], gub[idx]):
            out[idx] = True
        else:
            for i in idx:
                out[i] = _lp_group(case, kg, d[i:i + 1], gub[i:i + 1])
    return out


def _lp_group(case, kg, d, gub) -> bool:
    n = case.n_gen
    kg = list(kg)
    per = n + len(kg) * n
    n_inst = d.shape[0]
    rows, cols, vals = [], [], []
    b_ub = []
    eq_rows, eq_cols = [], []
    b_eq = []
    lower = np.empty(n_inst * per)
    upper = np.empty(n_inst * per)
    r = 0
    for p in range(n_inst):
        base = p * per
        D = float(d[p].sum())
        droop = case.gamma * (gub[p] - case.glb)
        lower[base:base + n] = case.glb
        upper[base:base + n] = gub[p]
        eq_rows += [p] * n
        eq_cols += list(range(base, base + n))
        b_eq.append(D)
        for j, k in enumerate(kg):
            yb = base + n + j * n
            lower[yb:yb + n] = -np.inf
            upper[yb:yb + n] = gub[p]
            for i in range(n):
                if i == k:
                    continue
                # y_ki - g_i <= droop_i
                rows += [r, r]
                cols += [yb + i, base + i]
                vals += [1.0, -1.0]
                b_ub.append(droop[i])
                r += 1
            # -sum_{i != k} y_ki <= -D
            surv = [i for i in range(n) if i != k]
            rows += [r] * len(surv)
            cols += [yb + i for i in surv]
            vals += [-1.0] * len(surv)
            b_ub.append(-D)
            r += 1
    a_ub = sparse.csr_matrix((vals, (rows, cols)), shape=(r, n_inst * per)) if r else None
    a_eq = sparse.csr_matrix((np.ones(len(eq_rows)), (eq_rows, eq_cols)),
                             shape=(n_inst, n_inst * per))
    res = linprog(np.zeros(n_inst * per), A_ub=a_ub, b_ub=b_ub or None, A_eq=a_eq,
                  b_eq=b_eq, bounds=np.stack([lower, upper], axis=1), method="highs")
    return res.status == 0
