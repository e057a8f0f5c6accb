"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The learning experiments follow a three-seed protocol (train with seeds 1, 2
and 3, average the reported metrics), matching how multi-seed results are
normally reported for these methods.  All datasets, seeds and tolerances are
frozen here.
"""

import time

import numpy as np
import pytest

from scopflearn import training
from scopflearn.cases import micro5, triangle3
from scopflearn.grid import build_factors, build_lodf, build_ptdf, branch_incidence, \
    screen_contingencies
from scopflearn.layers import PrimalPipeline, binary_search_batch, repair_layer
from scopflearn.nn import init_mlp, mlp_backward, mlp_forward
from scopflearn.oracle import label_dataset, oracle_objective, oracle_solve
from scopflearn.report import evaluate_model
from scopflearn.sampling import PerturbationConfig, sample_dataset
from scopflearn.storage import dataset_from_instances
from scopflearn.training import TrainerConfig, train_pdl

from conftest import make_mesh8, make_two_bus
from oracles import bus_demand, case_flows_without_line, fd_gradient, frozen_objective, rel_err

TRAIN_SEEDS = (1, 2, 3)
DATA_SEED_TRAIN = 11
DATA_SEED_TEST = 12
DATA_SEED_SUP_EVAL = 13
N_TRAIN = 500
N_TEST = 100
N_SUP_EVAL = 500
RUN_CONFIG = dict(K=10, L=200)


def _report(name, value, threshold, comparison="<="):
    ok = value <= threshold if comparison == "<=" else value < threshold
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {value:.6g} {comparison} {threshold:g}")
    return ok


@pytest.fixture(scope="module")
def grid():
    case = micro5()
    factors = build_factors(case)
    cont = screen_contingencies(case, factors)
    return case, factors, cont


@pytest.fixture(scope="module")
def datasets(grid):
    case, factors, cont = grid
    train, _ = sample_dataset(case, PerturbationConfig(seed=DATA_SEED_TRAIN),
                              N_TRAIN, cont=cont)
    test, _ = sample_dataset(case, PerturbationConfig(seed=DATA_SEED_TEST),
                             N_TEST, cont=cont)
    sup_eval, _ = sample_dataset(case, PerturbationConfig(seed=DATA_SEED_SUP_EVAL),
                                 N_SUP_EVAL, cont=cont)
    return train, test, sup_eval


@pytest.fixture(scope="module")
def labeled(grid, datasets):
    case, factors, cont = grid
    train, test, _ = datasets
    test_labels = label_dataset(dataset_from_instances(case.name, DATA_SEED_TEST, test),
                                case, factors, cont, resolution=1e-3)
    train_labels = label_dataset(dataset_from_instances(case.name, DATA_SEED_TRAIN, train),
                                 case, factors, cont, resolution=2e-3)
    return train_labels, test_labels


@pytest.fixture(scope="module")
def pdl_runs(grid, datasets):
    case, factors, cont = grid
    train, _, _ = datasets
    return [train_pdl(case, factors, cont, train,
                      TrainerConfig(seed=s, **RUN_CONFIG)) for s in TRAIN_SEEDS]


@pytest.fixture(scope="module")
def penalty_runs(grid, datasets):
    case, factors, cont = grid
    train, _, _ = datasets
    return [training.train("penalty", case, factors, cont, train,
                           TrainerConfig(seed=s, **RUN_CONFIG)) for s in TRAIN_SEEDS]


@pytest.fixture(scope="module")
def supervised_runs(grid, datasets, labeled):
    case, factors, cont = grid
    train, _, _ = datasets
    train_labels, _ = labeled
    naive = [training.train("naive", case, factors, cont, train,
                            TrainerConfig(seed=s, **RUN_CONFIG), g_star=train_labels.g_star)
             for s in TRAIN_SEEDS]
    ld = [training.train("ld", case, factors, cont, train,
                         TrainerConfig(seed=s, **RUN_CONFIG), g_star=train_labels.g_star)
          for s in TRAIN_SEEDS]
    return naive, ld


def test_criterion_1_repair_feasibility():
    rng = np.random.default_rng(100)
    t0 = time.perf_counter()
    n = 10_000
    n_gen = 5
    glb = np.tile(rng.uniform(0.0, 0.4, n_gen), (n, 1))
    gub = glb + rng.uniform(0.3, 2.0, (n, n_gen))
    gcheck = glb + rng.uniform(0.0, 1.0, (n, n_gen)) * (gub - glb)
    frac = rng.uniform(0.0, 1.0, n)
    d_total = glb.sum(-1) + frac * (gub.sum(-1) - glb.sum(-1))
    gtilde, _ = repair_layer(gcheck, d_total, glb, gub)
    balance = float(np.max(np.abs(gtilde.sum(-1) - d_total)))
    below = float(np.max(glb - gtilde))
    above = float(np.max(gtilde - gub))
    elapsed = time.perf_counter() - t0
    ok = _report("criterion 1: repair balance residual (p.u.)", balance, 1e-9)
    ok &= _report("criterion 1: repair bound violation", max(below, above), 0.0)
    ok &= _report("criterion 1: runtime (s)", elapsed, 5.0)
    assert ok


@pytest.mark.parametrize("t", [10, 25])
def test_criterion_2_bisection_accuracy(t):
    t0 = time.perf_counter()
    # closed-form root: three symmetric generators, one outage, survivors
    # each pick up half the lost unit => n* = 0.25
    g = np.full(3, 1.0)
    gamma = np.full(3, 1.0)
    ghat = np.full(3, 2.0)
    gub = np.full(3, 4.0)
    gk, nk, _ = (a[0, 0] for a in binary_search_batch(g, 3.0, [2], gamma, ghat, gub, t=t))
    n_err = abs(nk - 0.25)
    resid = abs(gk.sum() - 3.0)
    droop = (gamma * ghat)[[0, 1]].sum()
    ok = _report(f"criterion 2 (t={t}): |nk - n*|", n_err, 2.0 ** -t)
    ok &= _report(f"criterion 2 (t={t}): residual", resid, 2.0 ** -t * droop)
    # infeasible case saturates with a signed residual
    gk, nk, rho = (a[0, 0] for a in binary_search_batch(
        np.array([1.0, 1.0]), 2.0, [1], np.array([1.0, 1.0]), np.array([2.0, 2.0]),
        np.array([1.5, 3.0]), t=t))
    sat = 1.0 - nk
    ok &= _report(f"criterion 2 (t={t}): boundary saturation", sat, 2.0 ** -(t - 1))
    assert gk.sum() - 2.0 == pytest.approx(-0.5)
    ok &= _report(f"criterion 2 (t={t}): runtime (s)", time.perf_counter() - t0, 5.0)
    assert ok


def test_criterion_3_gradient_fidelity(grid):
    case, factors, cont = grid
    t0 = time.perf_counter()
    pipe = PrimalPipeline(case, factors, cont)
    cfg = PerturbationConfig(seed=103)
    instances, _ = sample_dataset(case, cfg, 100, cont=cont)
    rng = np.random.default_rng(103)
    lam = rng.normal(scale=0.3, size=cont.n_gen)
    rho = 1.3
    worst = 0.0
    checked = 0
    points = []
    for inst in instances:
        found = 0
        for _ in range(120):
            z = rng.normal(scale=1.5, size=case.n_gen)
            state = pipe.forward(z, inst.d, inst.gub, with_slacks="sums")
            if _branch_margin(pipe, state) > 1e-3:
                points.append((inst, z, state))
                found += 1
                if found >= 2 or len(points) >= 100:
                    break
        if len(points) >= 100:
            break
    for inst, z, state in points[:100]:
        grad_gt, grad_gk = pipe.objective_grads(state, inst.c)
        grad_gk = grad_gk + (lam + rho * state.h)[..., None]
        grad_z = pipe.backward(state, grad_gt, grad_gk)[0]

        def loss(v):
            obj, h, _ = frozen_objective(pipe, v[None, :], state,
                                         inst.d[None, :], inst.c)
            return obj[0] + lam @ h[0] + 0.5 * rho * (h[0] ** 2).sum()

        fd = fd_gradient(loss, z, h=1e-6)
        worst = max(worst, float(rel_err(grad_z, fd, floor=1e-6)))
        checked += 1
    assert checked >= 100
    ok = _report("criterion 3: pipeline gradient rel. err", worst, 1e-4)

    # standalone network kernel at tighter tolerance
    rng = np.random.default_rng(104)
    params = init_mlp((6, 12, 10, 4), rng, use_layernorm=True)
    for w in params.weights:
        w += rng.normal(scale=0.2, size=w.shape)
    x = rng.normal(size=(3, 6))
    seed_grad = rng.normal(size=(3, 4))
    out, tape = mlp_forward(params, x)
    grads, _ = mlp_backward(params, tape, seed_grad)
    theta = np.concatenate([a.ravel() for a in params.arrays()])
    flat = np.concatenate([a.ravel() for a in grads.arrays()])
    probe = params.copy()

    def net_loss(vec):
        i = 0
        for a in probe.arrays():
            a.flat[:] = vec[i:i + a.size]
            i += a.size
        o, _ = mlp_forward(probe, x)
        return float((o * seed_grad).sum())

    worst_net = 0.0
    idx = np.random.default_rng(105).choice(theta.size, size=150, replace=False)
    for j in idx:
        e = np.zeros_like(theta)
        e[j] = 1e-6
        fd = (net_loss(theta + e) - net_loss(theta - e)) / 2e-6
        if abs(flat[j]) < 1e-8 and abs(fd) < 1e-8:
            continue
        worst_net = max(worst_net, float(rel_err(flat[j], fd, floor=1e-7)))
    ok &= _report("criterion 3: network kernel gradient rel. err", worst_net, 1e-5)
    ok &= _report("criterion 3: runtime (s)", time.perf_counter() - t0, 60.0)
    assert ok


def _branch_margin(pipe, state):
    margin = float(np.abs(state.repair_ctx.s - state.d_total).min())
    raw = state.gtilde[:, None, :] + state.nk[..., None] * (
        pipe.gamma * (state.gub - state.glb))[:, None, :]
    gaps = np.abs(raw - state.gub[:, None, :])
    rows = np.arange(pipe.kg.size)
    gaps[:, rows, pipe.kg] = np.inf
    margin = min(margin, float(gaps.min()))
    for f in (state.f0,):
        margin = min(margin, float(np.abs(f - pipe.fub).min()),
                     float(np.abs(f - pipe.flb).min()))
    flow_d = state.f0 + state.gtilde @ pipe.phi_gen.T
    fg = flow_d[:, None, :] - state.gk @ pipe.phi_gen.T
    margin = min(margin, float(np.abs(fg - pipe.fub).min()),
                 float(np.abs(fg - pipe.flb).min()))
    if pipe.ke.size:
        post = state.f0[:, None, :] + state.f0[:, pipe.ke, None] * pipe.lodf_ke[None, :, :]
        rows = np.arange(pipe.ke.size)
        keep = np.ones_like(post, bool)
        keep[:, rows, pipe.ke] = False
        margin = min(margin,
                     float(np.abs(post[keep] - np.broadcast_to(pipe.fub, post.shape)[keep]).min()),
                     float(np.abs(post[keep] - np.broadcast_to(pipe.flb, post.shape)[keep]).min()))
    return margin


def test_criterion_4_factor_matrices():
    t0 = time.perf_counter()
    worst_kcl = 0.0
    worst_lodf = 0.0
    for maker in (make_two_bus, make_mesh8, triangle3, micro5):
        case = maker()
        ptdf = build_ptdf(case)
        A = branch_incidence(case)
        rng = np.random.default_rng(106)
        for _ in range(25):
            w = rng.normal(size=case.n_bus)
            w -= w.mean()
            f = ptdf @ w
            worst_kcl = max(worst_kcl, float(np.max(np.abs(A.T @ f + w))))
        lodf, islanding = build_lodf(case, ptdf)
        outaged = np.flatnonzero(~islanding)
        assert np.all(np.isclose(lodf[np.arange(outaged.size), outaged], -1.0))
        factors = build_factors(case)
        cont = screen_contingencies(case, factors)
        for k in range(case.n_line):
            if islanding[k]:
                assert k not in cont.line_contingencies
        g = rng.uniform(0.1, 0.8, case.n_gen)
        d = rng.uniform(0.1, 0.5, case.n_load)
        g = g * (d.sum() / g.sum())
        w = bus_demand(case, d)
        np.subtract.at(w, case.gen_bus, g)
        f = ptdf @ w
        assert cont.line_contingencies == tuple(outaged)
        for k, row in zip(outaged, lodf):
            post = f + f[k] * row
            ref = case_flows_without_line(case, k, g, d)
            mask = np.arange(case.n_line) != k
            worst_lodf = max(worst_lodf, float(np.max(np.abs(post[mask] - ref[mask]))))
            worst_lodf = max(worst_lodf, abs(float(post[k])))
    ok = _report("criterion 4: PTDF KCL residual", worst_kcl, 1e-9)
    ok &= _report("criterion 4: LODF vs re-solved outage", worst_lodf, 1e-8)
    ok &= _report("criterion 4: runtime (s)", time.perf_counter() - t0, 10.0)
    assert ok


def test_criterion_5_oracle_self_consistency():
    t0 = time.perf_counter()
    case = triangle3()
    factors = build_factors(case)
    cont = screen_contingencies(case, factors)
    pipe = PrimalPipeline(case, factors, cont, t=40)
    cfg = PerturbationConfig(seed=107)
    instances, _ = sample_dataset(case, cfg, 100, cont=cont)
    worst_excess = -np.inf
    cert_violations = 0
    for inst in instances:
        res = oracle_solve(inst, case, factors, cont, resolution=1e-3)
        assert res.feasible
        d = inst.d_total
        lo = max(case.glb[0], d - inst.gub[1])
        hi = min(inst.gub[0], d - case.glb[1])
        g0 = np.linspace(lo, hi, 2001)
        enum_best = float(oracle_objective(
            np.stack([g0, d - g0], axis=1), inst, pipe).min())
        # the solver must match (or beat) the independent enumeration, and
        # the enumeration may beat the solver only within the certificate
        excess = res.obj_star - enum_best
        worst_excess = max(worst_excess, excess)
        if excess > res.tol_certificate:
            cert_violations += 1
    ok = _report("criterion 5: solver vs enumeration excess ($)",
                 max(worst_excess, 0.0), 1e-9)
    ok &= _report("criterion 5: certificate violations", float(cert_violations), 0.0)
    ok &= _report("criterion 5: runtime (s)", time.perf_counter() - t0, 120.0)
    assert ok


def test_criterion_6_scaled_balance_violations(grid, datasets, pdl_runs):
    case, factors, cont = grid
    _, test, _ = datasets
    t0 = time.perf_counter()
    maxima = []
    for run in pdl_runs:
        rep = evaluate_model(case, factors, cont, run.primal, test)
        maxima.append(rep.max_balance_viol)
    mean_max = float(np.mean(maxima))
    ok = _report("criterion 6: held-out max balance violation (p.u., "
                 f"seed-avg of {[f'{m:.1e}' for m in maxima]})", mean_max, 1e-3)
    ok &= _report("criterion 6: runtime incl. training (s)",
                  time.perf_counter() - t0 + sum(r.wall_s for r in pdl_runs), 1200.0)
    assert ok


def test_criterion_7_scaled_optimality_gap(grid, datasets, labeled, pdl_runs, penalty_runs):
    case, factors, cont = grid
    _, test, _ = datasets
    _, test_labels = labeled
    gaps_pdl = []
    gaps_pen = []
    for run_p, run_n in zip(pdl_runs, penalty_runs):
        gaps_pdl.append(evaluate_model(case, factors, cont, run_p.primal, test,
                                       obj_star=test_labels.obj_star).mean_gap_pct)
        gaps_pen.append(evaluate_model(case, factors, cont, run_n.primal, test,
                                       obj_star=test_labels.obj_star).mean_gap_pct)
    gap_pdl = float(np.mean(gaps_pdl))
    gap_pen = float(np.mean(gaps_pen))
    ok = _report(f"criterion 7: mean optimality gap (%, seeds {list(TRAIN_SEEDS)})",
                 gap_pdl, 5.0)
    ok &= _report("criterion 7: gap vs penalty baseline (pp)",
                  gap_pdl - gap_pen, 1.0)
    print(f"       (penalty baseline mean gap: {gap_pen:.3f}%)")
    # the penalty baseline itself keeps violations within its looser bound
    pen_viol = float(np.mean([
        evaluate_model(case, factors, cont, r.primal, test).max_balance_viol
        for r in penalty_runs]))
    ok &= _report("criterion 7: penalty baseline max |h| (p.u.)", pen_viol, 1e-2)
    assert ok


def test_criterion_8_penalty_schedule(pdl_runs):
    cfg = TrainerConfig(**RUN_CONFIG)
    violations = 0
    for run in pdl_runs:
        rhos = [row["rho"] for row in run.log]
        if any(b < a for a, b in zip(rhos, rhos[1:])):
            violations += 1
        if any(r > cfg.rho_max for r in rhos):
            violations += 1
        # rho may only increase when v_k exceeded tau * previous v_k
        v_prev = float("inf")
        rho = cfg.rho0
        for row in run.outer_log:
            assert row["rho"] == pytest.approx(rho)
            v_k = row["v_k"]
            if v_k > cfg.tau * v_prev:
                rho = min(cfg.alpha * rho, cfg.rho_max)
            v_prev = v_k
        if abs(run.state.rho - rho) > 0:
            violations += 1
    ok = _report("criterion 8: penalty schedule rule violations",
                 float(violations), 0.0)
    assert ok


def test_criterion_9_supervised_baselines(grid, datasets, supervised_runs):
    case, factors, cont = grid
    _, _, sup_eval = datasets
    naive_runs, ld_runs = supervised_runs
    t0 = time.perf_counter()
    for runs, name in ((naive_runs, "naive"), (ld_runs, "ld")):
        for run in runs:
            losses = [row["loss"] for row in run.log]
            n = len(losses) // 10
            first = float(np.mean(losses[:n]))
            penultimate = float(np.mean(losses[-2 * n:-n]))
            last = float(np.mean(losses[-n:]))
            assert last < first, f"{name} did not learn"
            plateau = abs(penultimate - last) / max(abs(penultimate), 1e-12)
            assert plateau <= 0.15, f"{name} loss still moving: {plateau:.3f}"
    naive_max = float(np.mean([
        evaluate_model(case, factors, cont, r.primal, sup_eval).max_balance_viol
        for r in naive_runs]))
    ld_max = float(np.mean([
        evaluate_model(case, factors, cont, r.primal, sup_eval).max_balance_viol
        for r in ld_runs]))
    ok = _report("criterion 9: LD max |h| minus naive max |h| (p.u., seed-avg)",
                 ld_max - naive_max, 0.0)
    print(f"       (naive: {naive_max:.4e} p.u., ld: {ld_max:.4e} p.u.)")
    elapsed = time.perf_counter() - t0 + sum(
        r.wall_s for r in naive_runs + ld_runs)
    ok &= _report("criterion 9: runtime incl. training (s)", elapsed, 1800.0)
    assert ok


def test_criterion_10_inference_latency(grid, datasets, pdl_runs):
    case, factors, cont = grid
    _, test, _ = datasets
    # the median request of each pass, and the median over three passes: a
    # mean follows the slowest requests, which a loaded host stretches
    p50 = np.median([evaluate_model(case, factors, cont, pdl_runs[0].primal, test)
                     .p50_inference_ms for _ in range(3)])
    ok = _report("criterion 10: single-instance inference, median (ms)", p50, 1.0,
                 comparison="<")
    assert ok
