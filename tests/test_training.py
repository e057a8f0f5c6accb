import numpy as np
import pytest

from scopflearn.errors import ConfigError, DataError, DivergenceError
from scopflearn.layers import PrimalPipeline
from scopflearn.nn import mlp_forward
from scopflearn.sampling import PerturbationConfig, sample_dataset
from scopflearn.training import (
    TrainerConfig,
    max_violation,
    primal_loss_terms,
    stack_instances,
    train,
    train_pdl,
    update_penalty,
)

from oracles import fd_gradient, frozen_objective, rel_err, response_residuals


CHEAP = dict(K=2, L=10, batch=4, seed=0)


@pytest.fixture(scope="module")
def tri_data(tri_case_mod, tri_cont_mod):
    cfg = PerturbationConfig(seed=21)
    instances, _ = sample_dataset(tri_case_mod, cfg, 24, cont=tri_cont_mod)
    return instances


@pytest.fixture(scope="module")
def tri_case_mod():
    from scopflearn.cases import triangle3
    return triangle3()


@pytest.fixture(scope="module")
def tri_factors_mod(tri_case_mod):
    from scopflearn.grid import build_factors
    return build_factors(tri_case_mod)


@pytest.fixture(scope="module")
def tri_cont_mod(tri_case_mod, tri_factors_mod):
    from scopflearn.grid import screen_contingencies
    return screen_contingencies(tri_case_mod, tri_factors_mod)


def test_config_validation():
    with pytest.raises(ConfigError):
        TrainerConfig(tau=1.5)
    with pytest.raises(ConfigError):
        TrainerConfig(alpha=0.5)
    with pytest.raises(ConfigError):
        TrainerConfig(L=0)
    # past 52 iterations the bisection step falls below the signal's last bit
    for t in (0, 53):
        with pytest.raises(ConfigError):
            TrainerConfig(bisect_iters=t)
    assert TrainerConfig(bisect_iters=52).bisect_iters == 52
    assert TrainerConfig().total_steps == 80_000


def test_trainer_config_types():
    # the float fields take any real number, integers included; the int
    # fields any integer, numpy's included; a bool neither
    cfg = TrainerConfig(K=np.int64(2), rho0=1, lr=np.float64(1e-3))
    assert (cfg.K, cfg.rho0, cfg.lr) == (2, 1, 1e-3)
    for bad in ({"K": 2.0}, {"L": "3"}, {"seed": True}, {"tau": False}, {"lr": "1e-3"},
                {"bisect_iters": np.float64(8.0)}):
        with pytest.raises(ConfigError, match=f"{next(iter(bad))} must be an? "):
            TrainerConfig(**bad)


def test_primal_loss_arithmetic(tri_case_mod, tri_factors_mod, tri_cont_mod, tri_data):
    pipe = PrimalPipeline(tri_case_mod, tri_factors_mod, tri_cont_mod)
    inst = tri_data[0]
    state = pipe.forward(np.zeros((1, 2)), inst.d[None], inst.gub[None], with_slacks="sums")
    obj = pipe.objective(state, inst.c)[0]
    lam = np.zeros(tri_cont_mod.n_gen)
    loss, _, _ = primal_loss_terms(pipe, state, inst.c[None], lam[None], 0.1, 1e5)
    # residuals vanish on solvable instances, so the loss is the scaled objective
    assert np.isclose(loss[0], obj / 1e5, atol=1e-10)


def test_primal_loss_penalty_term():
    # f = 0, single residual 0.5, lam = 1, rho = 2 -> 0.5 + 0.25
    lam, h, rho = 1.0, 0.5, 2.0
    val = lam * h + 0.5 * rho * h**2
    assert np.isclose(val, 0.75)


def test_update_penalty_rule():
    cfg = TrainerConfig()
    assert update_penalty(1.0, 0.5, 1.0, cfg) == 1.0
    assert update_penalty(1.0, 1.0, 1.0, cfg) == 2.0
    assert update_penalty(cfg.rho_max, 5.0, 1.0, cfg) == cfg.rho_max
    assert update_penalty(0.1, 1e-9, float("inf"), cfg) == 0.1


def test_max_violation_matches_reference_response(tri_case_mod, tri_factors_mod,
                                                  tri_cont_mod, tri_data):
    # an untrained network balances an outage only where its served dispatch
    # admits a response signal in [0, 1]; elsewhere the residual is the
    # shortfall at the full response.  Every instance and outage is pinned
    # to the exact reference, up to the bisection's 2^-t signal resolution
    pipe = PrimalPipeline(tri_case_mod, tri_factors_mod, tri_cont_mod)
    from scopflearn.training import build_networks
    data = stack_instances(tri_data)
    primal, _ = build_networks(tri_case_mod, tri_cont_mod, data.x.shape[1], 0, False)
    v = max_violation(pipe, primal, data)[1]
    z, _ = mlp_forward(primal, data.x)
    st = pipe.forward(z, data.d, data.gub, with_slacks=False)
    for i in range(data.n):
        ref, droop = response_residuals(st.gtilde[i], pipe.kg, tri_case_mod.gamma,
                                        tri_case_mod.glb, data.gub[i], data.d[i].sum())
        assert np.all(np.abs(st.h[i] - ref) <= 2.0 ** -pipe.t * droop + 1e-12)
    assert v == np.abs(st.h).max()


def test_pdl_smoke_and_logs(tri_case_mod, tri_factors_mod, tri_cont_mod, tri_data):
    cfg = TrainerConfig(**CHEAP)
    res = train_pdl(tri_case_mod, tri_factors_mod, tri_cont_mod, tri_data, cfg)
    assert len(res.log) == 2 * cfg.K * cfg.L
    rhos = [row["rho"] for row in res.log]
    assert all(b >= a for a, b in zip(rhos, rhos[1:]))
    assert all(r <= cfg.rho_max for r in rhos)
    assert len(res.outer_log) == cfg.K
    assert res.dual is not None


def test_pdl_deterministic(tri_case_mod, tri_factors_mod, tri_cont_mod, tri_data):
    cfg = TrainerConfig(**CHEAP)
    r1 = train_pdl(tri_case_mod, tri_factors_mod, tri_cont_mod, tri_data, cfg)
    r2 = train_pdl(tri_case_mod, tri_factors_mod, tri_cont_mod, tri_data, cfg)
    for a, b in zip(r1.primal.arrays(), r2.primal.arrays()):
        assert np.array_equal(a, b)
    for a, b in zip(r1.dual.arrays(), r2.dual.arrays()):
        assert np.array_equal(a, b)
    assert [row["loss"] for row in r1.log] == [row["loss"] for row in r2.log]


def test_pdl_frozen_dual_during_primal(monkeypatch, tri_case_mod, tri_factors_mod,
                                       tri_cont_mod, tri_data):
    # the multipliers computed at the start of a primal phase are reused as
    # the base of the dual targets, so the dual network must stay
    # bit-identical from the first primal step to the first dual step
    import scopflearn.training as training

    nets = {}
    build = training.build_networks

    def capture(*args, **kwargs):
        primal, nets["dual"] = build(*args, **kwargs)
        return primal, nets["dual"]

    def snapshot():
        return b"".join(a.tobytes() for a in nets["dual"].arrays())

    steps = []  # (stepped the dual?, dual bytes before, dual bytes after)
    step = training.adam_step

    def traced_step(params, grads, state, lr):
        before = snapshot()
        step(params, grads, state, lr)
        steps.append((params is nets["dual"], before, snapshot()))

    monkeypatch.setattr(training, "build_networks", capture)
    monkeypatch.setattr(training, "adam_step", traced_step)
    cfg = TrainerConfig(**CHEAP)
    train_pdl(tri_case_mod, tri_factors_mod, tri_cont_mod, tri_data, cfg)

    assert [is_dual for is_dual, _, _ in steps] == ([False] * cfg.L + [True] * cfg.L) * cfg.K
    for k in range(cfg.K):
        primal_phase = steps[2 * k * cfg.L:(2 * k + 1) * cfg.L]
        dual_phase = steps[(2 * k + 1) * cfg.L:(2 * k + 2) * cfg.L]
        frozen = primal_phase[0][1]
        assert all(before == after == frozen for _, before, after in primal_phase)
        assert dual_phase[0][1] == frozen
        assert dual_phase[-1][2] != frozen  # the dual phase does train it


@pytest.mark.parametrize("method", ["pdl", "penalty"], ids=lambda m: f"train_{m}")
def test_outer_log_matches_fresh_evaluation(method, tri_case_mod, tri_factors_mod,
                                            tri_cont_mod, tri_data):
    # v_k and mean_objective of every outer iteration come from one pass over
    # the dataset; both must match a fresh evaluation of that iteration's primal
    cfg = TrainerConfig(**CHEAP)
    primals = []

    def cb(k, primal, padam, dual, dadam, state):
        primals.append(primal.copy())

    res = train(method, tri_case_mod, tri_factors_mod, tri_cont_mod, tri_data, cfg,
                checkpoint_cb=cb)
    pipe = PrimalPipeline(tri_case_mod, tri_factors_mod, tri_cont_mod, t=cfg.bisect_iters)
    data = stack_instances(tri_data)
    assert len(res.outer_log) == len(primals) == cfg.K
    for row, primal in zip(res.outer_log, primals):
        assert row["v_k"] == max_violation(pipe, primal, data)[1]
        z, _ = mlp_forward(primal, data.x)
        st = pipe.forward(z, data.d, data.gub)
        assert row["mean_objective"] == pipe.objective(st, data.c).mean()


def test_nan_residual_in_evaluation_pass_raises(monkeypatch, tri_case_mod, tri_factors_mod,
                                                tri_cont_mod, tri_data):
    # poison the primal network after its last step, so only the evaluation
    # pass sees the NaN; the penalty method has no dual phase to trip on it
    import scopflearn.training as training

    cfg = TrainerConfig(**dict(CHEAP, K=1))
    calls = []
    step = training.adam_step

    def poisoning_step(params, grads, state, lr):
        step(params, grads, state, lr)
        calls.append(1)
        if len(calls) == 2 * cfg.L:
            params.biases[-1][:] = np.nan

    monkeypatch.setattr(training, "adam_step", poisoning_step)
    with pytest.raises(DivergenceError):
        train("penalty", tri_case_mod, tri_factors_mod, tri_cont_mod, tri_data, cfg)
    assert len(calls) == 2 * cfg.L


def test_penalty_trainer(tri_case_mod, tri_factors_mod, tri_cont_mod, tri_data):
    cfg = TrainerConfig(**CHEAP)
    res = train("penalty", tri_case_mod, tri_factors_mod, tri_cont_mod, tri_data, cfg)
    assert len(res.log) == 2 * cfg.K * cfg.L
    rhos = [row["rho"] for row in res.log]
    assert all(b >= a for a, b in zip(rhos, rhos[1:]))
    assert res.dual is None


def test_supervised_requires_labels(tri_case_mod, tri_factors_mod, tri_cont_mod, tri_data):
    cfg = TrainerConfig(**CHEAP)
    with pytest.raises(DataError, match="oracle"):
        train("naive", tri_case_mod, tri_factors_mod, tri_cont_mod, tri_data, cfg)


def test_supervised_loss_zero_at_targets(tri_case_mod, tri_factors_mod, tri_cont_mod, tri_data):
    # train naive toward a constant proportional dispatch; loss must drop
    cfg = TrainerConfig(K=2, L=60, batch=8, seed=1)
    g_star = np.stack([
        inst.gub * (inst.d_total / inst.gub.sum()) for inst in tri_data])
    res = train("naive", tri_case_mod, tri_factors_mod, tri_cont_mod, tri_data, cfg,
                g_star=g_star)
    first = np.mean([row["loss"] for row in res.log[:20]])
    last = np.mean([row["loss"] for row in res.log[-20:]])
    assert last < first


def test_ld_loss_arithmetic():
    # distance zero, one residual 0.1 at fixed penalty 1e3 -> 10
    h = 0.1
    assert np.isclose(1e3 * h * h, 10.0)


def test_ld_trainer_runs(tri_case_mod, tri_factors_mod, tri_cont_mod, tri_data):
    cfg = TrainerConfig(**CHEAP)
    g_star = np.stack([
        inst.gub * (inst.d_total / inst.gub.sum()) for inst in tri_data])
    res = train("ld", tri_case_mod, tri_factors_mod, tri_cont_mod, tri_data, cfg,
                g_star=g_star)
    assert len(res.log) == 2 * cfg.K * cfg.L
    assert all(row["rho"] == 1e3 for row in res.log)


def test_train_dispatcher_rejects_unknown(tri_case_mod, tri_factors_mod, tri_cont_mod, tri_data):
    with pytest.raises(ConfigError, match="unknown method"):
        train("sgd", tri_case_mod, tri_factors_mod, tri_cont_mod, tri_data,
              TrainerConfig(**CHEAP))


def test_full_pipeline_param_gradient(tri_case_mod, tri_factors_mod, tri_cont_mod, tri_data):
    """End-to-end: gradient of the primal loss w.r.t. network parameters
    matches finite differences of the frozen-convention forward."""
    from scopflearn.nn import mlp_backward
    from scopflearn.training import build_networks

    pipe = PrimalPipeline(tri_case_mod, tri_factors_mod, tri_cont_mod)
    data = stack_instances(tri_data[:2])
    primal, _ = build_networks(tri_case_mod, tri_cont_mod, data.x.shape[1], 3, False)
    rng = np.random.default_rng(4)
    for w in primal.weights:
        w += rng.normal(scale=0.1, size=w.shape)

    lam = np.array([[0.2, -0.1], [0.05, 0.3]])[:, :tri_cont_mod.n_gen]
    rho = 1.7

    z, tape, st = (lambda out: (out[0], out[1], pipe.forward(out[0], data.d, data.gub,
                                                                 with_slacks="sums")))(
        mlp_forward(primal, data.x))
    loss_vec, g_t, g_k = primal_loss_terms(pipe, st, data.c, lam, rho, 1e5)
    grad_z = pipe.backward(st, g_t, g_k) / 2
    grads, _ = mlp_backward(primal, tape, grad_z)

    def loss_at(vec):
        probe = primal.copy()
        i = 0
        for a in probe.arrays():
            a.flat[:] = vec[i:i + a.size]
            i += a.size
        zz, _ = mlp_forward(probe, data.x)
        obj, h, _ = frozen_objective(pipe, zz, st, data.d, data.c)
        per = obj / 1e5 + (lam * h).sum(-1) + 0.5 * rho * (h * h).sum(-1)
        return float(per.mean())

    theta = np.concatenate([a.ravel() for a in primal.arrays()])
    flat = np.concatenate([a.ravel() for a in grads.arrays()])
    idx = np.random.default_rng(5).choice(theta.size, size=60, replace=False)
    for j in idx:
        e = np.zeros_like(theta)
        e[j] = 1e-6
        fd = (loss_at(theta + e) - loss_at(theta - e)) / 2e-6
        if abs(flat[j]) < 1e-8 and abs(fd) < 1e-8:
            continue  # below central-difference noise; both are zero
        assert rel_err(flat[j], fd, floor=1e-8) <= 1e-4
