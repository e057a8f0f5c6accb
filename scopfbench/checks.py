"""Correctness checks of the program's outputs against the independent
references in ``reference.py``.

Each check returns ``(ok, detail)``.  The reference or property a check rests
on is stated in its docstring; the README lists them as well.
"""

from __future__ import annotations

import numpy as np

import reference

BALANCE_TOL = 1e-9      # served base dispatch: sum(g) = sum(d)
BOUND_TOL = 1e-12       # served base dispatch inside [glb, gub]
AGREE_TOL = 1e-9        # batched against single-instance outputs
FLOW_TOL = 1e-8         # flows and slacks against fresh angle solves (p.u.)
OBJ_RTOL = 1e-6         # objective against the independent recomputation


def dispatch_balance_and_bounds(glb, d, gub, g):
    """Repair-layer property: every served base dispatch sums to the total
    demand within 1e-9 and lies inside [glb, gub]."""
    balance = float(np.max(np.abs(g.sum(-1) - d.sum(-1))))
    outside = float(max(np.max(glb - g), np.max(g - gub)))
    ok = balance <= BALANCE_TOL and outside <= BOUND_TOL
    return ok, f"max |sum g - sum d| {balance:.2e}, max bound excess {outside:.2e}"


def batch_matches_single(single: dict, batched: dict):
    """Serving a request alone or inside a batch gives the same dispatch,
    response signals and objective."""
    worst = 0.0
    for key in ("g", "nk", "obj"):
        a, b = np.asarray(single[key]), np.asarray(batched[key])
        scale = np.maximum(1.0, np.abs(a))
        worst = max(worst, float(np.max(np.abs(a - b) / scale)) if a.size else 0.0)
    return worst <= AGREE_TOL, f"max relative difference {worst:.2e}"


def response_signals(case, kg, t, g, nk, d, gub):
    """Each response signal lies within 2^-t of the exact root of the
    piecewise-linear balance equation (breakpoint walk, no bisection)."""
    if not len(kg):
        return True, "no generator outages"
    droop = case.gamma * (gub - case.glb)
    d_total = d.sum(-1)
    worst = 0.0
    for j, k in enumerate(kg):
        exact = reference.exact_signal(g, k, droop, gub, d_total)
        worst = max(worst, float(np.max(np.abs(nk[:, j] - exact))))
    return worst <= 2.0 ** -t, f"max |n - n*| {worst:.2e} (bound 2^-{t} = {2.0 ** -t:.2e})"


def flows_and_slacks(case, flows: reference.FlowReference, kg, ke, out: dict):
    """Base flows equal a fresh angle solve; generator-outage slacks equal
    the slacks of fresh flows at the served outage dispatch; line-outage
    slacks equal the slacks of flows solved on the network rebuilt without
    the line.  The pipeline keeps only the slacks of outage flows, so outage
    flows are compared through them (``active`` counts the nonzero ones)."""
    g, d = out["g"], out["d"]
    worst = float(np.max(np.abs(out["f0"] - flows.flows(g, d))))
    worst = max(worst, float(np.max(np.abs(out["eta0"] - flows.slack(flows.flows(g, d))))))
    active = int(np.count_nonzero(out["eta0"]))
    for j, _ in enumerate(kg):
        eta = flows.slack(flows.flows(out["gk"][:, j], d))
        worst = max(worst, float(np.max(np.abs(out["eta_g"][:, j] - eta))))
        active += int(np.count_nonzero(out["eta_g"][:, j]))
    for j, k in enumerate(ke):
        eta = flows.slack(flows.flows_without_line(k, g, d))
        eta[:, k] = 0.0
        worst = max(worst, float(np.max(np.abs(out["eta_e"][:, j] - eta))))
        active += int(np.count_nonzero(out["eta_e"][:, j]))
    return worst <= FLOW_TOL, f"max abs difference {worst:.2e} p.u. over {active} active slacks"


def objective_matches(case, flows, kg, ke, out: dict):
    """The served objective equals cost plus penalized slacks recomputed
    from scratch (exact response roots, fresh angle solves)."""
    ind, _ = reference.objective(case, flows, kg, ke, out["g"], out["d"], out["c"], out["gub"])
    rel = float(np.max(np.abs(out["obj"] - ind) / np.maximum(1.0, np.abs(ind))))
    return rel <= OBJ_RTOL, f"max relative difference {rel:.2e}"


def samples_feasible(case, kg, mu, d, gub):
    """Every sampled instance lies in its (1 +/- mu) d0 box and admits a
    balanced, outage-recoverable dispatch by an independent LP."""
    lo, hi = (1.0 - mu) * case.d0, (1.0 + mu) * case.d0
    in_box = bool(np.all(d >= lo) and np.all(d <= hi))
    feas = reference.feasible_by_lp(case, kg, d, gub)
    n_bad = int((~feas).sum())
    return in_box and n_bad == 0, f"{d.shape[0]} instances, in box: {in_box}, LP-infeasible: {n_bad}"


def training_schedule(result, K, L, tau, alpha, rho0, rho_max):
    """train_pdl runs exactly 2KL finite steps, and rho grows by alpha (up to
    rho_max) exactly when v_k > tau v_{k-1}."""
    steps = len(result.log)
    finite = all(np.isfinite(row["loss"]) for row in result.log)
    rho, v_prev = rho0, float("inf")
    rule = len(result.outer_log) == K
    for row in result.outer_log:
        rule &= row["rho"] == rho
        v = row["v_k"]
        rho = min(alpha * rho, rho_max) if v > tau * v_prev else rho
        v_prev = v
    rule &= result.state.rho == rho
    ok = steps == 2 * K * L and finite and rule
    return ok, f"{steps} steps (want {2 * K * L}), finite: {finite}, rho rule: {rule}"


def checkpoint_roundtrip(bytes_a: bytes, bytes_b: bytes, out_trained, out_loaded):
    """A reloaded checkpoint gives identical outputs, and writing the same
    checkpoint twice gives identical bytes."""
    same_bytes = bytes_a == bytes_b
    same_out = all(np.array_equal(a, b) for a, b in zip(out_trained, out_loaded))
    return same_bytes and same_out, f"identical bytes: {same_bytes}, identical outputs: {same_out}"


def oracle_optimum(case, flows, kg, ke, insts, results, served_g):
    """The reference solver's obj_star matches an independent enumeration of
    the slice within its certificate, its dispatch evaluates to obj_star
    independently, and no contingency-balanced served dispatch beats
    obj_star by more than the certificate."""
    worst_enum, worst_self, worst_served = 0.0, 0.0, 0.0
    for inst, res, g in zip(insts, results, served_g):
        enum_val = reference.enumerate_optimum(case, flows, kg, ke, inst.d, inst.c, inst.gub)
        worst_enum = max(worst_enum, abs(res.obj_star - enum_val) / res.tol_certificate)
        (own, ), (bal, ) = reference.objective(case, flows, kg, ke, res.g_star, inst.d,
                                               inst.c, inst.gub)
        worst_self = max(worst_self, abs(own - res.obj_star) / max(1.0, abs(own)) if bal else np.inf)
        (served, ), (bal, ) = reference.objective(case, flows, kg, ke, g, inst.d, inst.c, inst.gub)
        if bal:
            worst_served = max(worst_served, (res.obj_star - served) / res.tol_certificate)
    ok = worst_enum <= 1.0 and worst_self <= OBJ_RTOL and worst_served <= 1.0
    return ok, (f"{len(results)} instances: |obj* - enumeration| {worst_enum:.3f} cert, "
                f"self-consistency {worst_self:.1e}, served beats obj* by {worst_served:.3f} cert")
