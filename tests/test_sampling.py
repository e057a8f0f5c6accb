from types import SimpleNamespace

import numpy as np
import pytest

from scopflearn.errors import ConfigError, DataError
from scopflearn.grid import ContingencySet, GridCase, build_factors, screen_contingencies
from scopflearn.sampling import (
    Instance,
    PerturbationConfig,
    _solvable,
    make_instance,
    sample_dataset,
    sample_factors,
    sample_loads,
)

from oracles import recoverable_by_lp


def test_mu_zero_returns_base(m5_case, m5_cont):
    cfg = PerturbationConfig(mu=0.0, seed=1)
    rng = np.random.default_rng(1)
    d = sample_loads(m5_case, cfg, rng)
    assert np.allclose(d, m5_case.d0)
    inst, _ = make_instance(m5_case, cfg, np.random.default_rng(2), cont=m5_cont)
    assert np.allclose(inst.d, m5_case.d0)
    assert np.allclose(inst.c, m5_case.c0)
    assert np.allclose(inst.gub, m5_case.gub0)


def test_loads_respect_truncation_box(m5_case):
    cfg = PerturbationConfig(seed=3)
    rng = np.random.default_rng(3)
    lo, hi = 0.5 * m5_case.d0, 1.5 * m5_case.d0
    for _ in range(500):
        d = sample_loads(m5_case, cfg, rng)
        assert np.all(d >= lo - 1e-12)
        assert np.all(d <= hi + 1e-12)


def test_perfect_correlation_equal_deviations():
    case = GridCase(
        n_bus=2, gen_bus=[0], glb=[0.0], gub0=[3.0], c0=[1.0], gamma=[1.0],
        line_from=[0], line_to=[1], susceptance=[1.0], flb=[-5.0], fub=[5.0],
        load_bus=[1, 1], d0=[0.5, 0.5], slack_bus=0,
    )
    cfg = PerturbationConfig(load_corr=1.0, seed=4)
    rng = np.random.default_rng(4)
    d = sample_loads(case, cfg, rng)
    dev = d - case.d0
    assert abs(dev[0] - dev[1]) <= 1e-12


def test_factor_mean_and_correlation():
    cfg = PerturbationConfig(seed=5)
    rng = np.random.default_rng(5)
    draws = np.array([sample_factors(3, 0.8, cfg, rng) for _ in range(10_000)])
    assert np.all(np.abs(draws.mean(axis=0) - 1.0) <= 0.02)
    corr = np.corrcoef(draws.T)
    assert np.all(np.abs(corr[np.triu_indices(3, 1)] - 0.8) <= 0.05)


def test_factor_corr_one_identical():
    cfg = PerturbationConfig(seed=6)
    f = sample_factors(2, 1.0, cfg, np.random.default_rng(6))
    assert abs(f[0] - f[1]) <= 1e-12


def test_factor_scalar_case():
    cfg = PerturbationConfig(seed=7)
    f = sample_factors(1, 0.8, cfg, np.random.default_rng(7))
    assert f.shape == (1,)


def test_instance_invariants_hold_in_bulk(m5_case, m5_cont):
    cfg = PerturbationConfig(seed=8)
    instances, resamples = sample_dataset(m5_case, cfg, 1000, cont=m5_cont)
    ghat0 = m5_case.gub0 - m5_case.glb
    floor = m5_case.glb + 0.01 * ghat0
    for inst in instances:
        assert np.all(inst.d >= 0.5 * m5_case.d0 - 1e-12)
        assert np.all(inst.d <= 1.5 * m5_case.d0 + 1e-12)
        assert np.all(inst.c >= 0.0)
        assert np.all(inst.gub >= floor - 1e-12)
        assert inst.x.shape == (2 * m5_case.n_gen + m5_case.n_load,)
        # solvability screen
        assert m5_case.glb.sum() <= inst.d_total <= inst.gub.sum()
    # the screen should reject only a small share of draws
    assert resamples < 200


def test_gub_floor_when_factor_small(m5_case):
    # drive the factor negative by monkeypatching the rng draw
    cfg = PerturbationConfig(seed=9)

    class FixedRng:
        def __init__(self, vals):
            self.vals = list(vals)

        def standard_normal(self, n):
            return np.full(n, self.vals.pop(0))

    ghat0 = m5_case.gub0 - m5_case.glb
    f = sample_factors(3, 0.8, cfg, FixedRng([-50.0]))
    gub = np.maximum(f * m5_case.gub0, m5_case.glb + 0.01 * ghat0)
    assert np.allclose(gub, m5_case.glb + 0.01 * ghat0)


def test_determinism(m5_case, m5_cont):
    cfg = PerturbationConfig(seed=10)
    a, _ = sample_dataset(m5_case, cfg, 20, cont=m5_cont)
    b, _ = sample_dataset(m5_case, cfg, 20, cont=m5_cont)
    for ia, ib in zip(a, b):
        assert np.array_equal(ia.d, ib.d)
        assert np.array_equal(ia.c, ib.c)
        assert np.array_equal(ia.gub, ib.gub)
        assert np.array_equal(ia.x, ib.x)


def test_x_normalization(m5_case, m5_cont):
    cfg = PerturbationConfig(seed=11)
    inst, _ = make_instance(m5_case, cfg, np.random.default_rng(11), cont=m5_cont)
    nl, ng = m5_case.n_load, m5_case.n_gen
    assert np.allclose(inst.x[:nl], inst.d / m5_case.d0)
    assert np.allclose(inst.x[nl:nl + ng], inst.c / m5_case.c0)
    assert np.allclose(inst.x[nl + ng:], inst.gub / m5_case.gub0)


def test_config_validation():
    with pytest.raises(ConfigError):
        PerturbationConfig(mu=1.5)
    with pytest.raises(ConfigError):
        PerturbationConfig(load_corr=-0.1)


def _screen(glb, gub, gamma, d_total, kg):
    # the screen reads only the lower bounds and droop factors of the case
    case = SimpleNamespace(glb=np.asarray(glb, float), gamma=np.asarray(gamma, float))
    return _solvable(case, ContingencySet(tuple(kg), ()), d_total, np.asarray(gub, float))


def test_screen_agrees_with_lp_on_random_boxes():
    rng = np.random.default_rng(2024)
    verdicts = []
    for _ in range(2000):
        n = int(rng.integers(2, 9))
        glb = rng.uniform(0.0, 1.0, n) * (rng.random() < 0.5)
        gub = glb + rng.uniform(0.05, 2.0, n)
        gamma = rng.uniform(0.05, 2.0, n)
        kg = [int(k) for k in np.flatnonzero(rng.random(n) < 0.7)]
        d_total = rng.uniform(glb.sum(), gub.sum())
        ours = _screen(glb, gub, gamma, d_total, kg)
        assert ours == recoverable_by_lp(glb, gub, gamma, d_total, kg), \
            (glb, gub, gamma, d_total, kg)
        verdicts.append(ours)
    # both verdicts are well represented
    assert 200 <= sum(verdicts) <= 1800


def test_screen_accepts_interior_recovery():
    # recoverable only for g_0 in [2.5, 3]: no vertex of the balanced box and
    # not the proportional point, so a vertex-based screen rejects it
    assert _screen([0.0, 0.0], [10.0, 20.0], [0.15, 0.15], 4.0, [0, 1])
    assert recoverable_by_lp([0.0, 0.0], [10.0, 20.0], [0.15, 0.15], 4.0, [0, 1])
    # with less droop the band closes (g_0 <= 2 and g_0 >= 3)
    assert not _screen([0.0, 0.0], [10.0, 20.0], [0.1, 0.1], 4.0, [0, 1])
    assert not recoverable_by_lp([0.0, 0.0], [10.0, 20.0], [0.1, 0.1], 4.0, [0, 1])


def _mesh(n_gen, seed=0):
    """Ring of 2*n_gen buses with n_gen chords, a generator on every other
    bus and total capacity twice the base load."""
    rng = np.random.default_rng(seed)
    n_bus = 2 * n_gen
    line_from = list(range(n_bus)) + [int(a) for a in rng.integers(0, n_bus, n_gen)]
    line_to = [(i + 1) % n_bus for i in range(n_bus)] + \
        [int(a + n_bus // 2) % n_bus for a in line_from[n_bus:]]
    n_line = len(line_from)
    d0 = rng.uniform(0.05, 0.15, n_gen)
    cap = rng.uniform(0.8, 1.2, n_gen)
    cap = cap / cap.sum() * 2.0 * d0.sum()
    return GridCase(
        n_bus=n_bus, gen_bus=list(range(0, n_bus, 2)), glb=list(0.1 * cap), gub0=list(cap),
        c0=list(rng.uniform(3000.0, 4500.0, n_gen)), gamma=[0.8] * n_gen,
        line_from=line_from, line_to=line_to, susceptance=list(rng.uniform(5.0, 15.0, n_line)),
        flb=[-5.0] * n_line, fub=[5.0] * n_line, load_bus=list(range(1, n_bus, 2)),
        d0=list(d0), slack_bus=0, name=f"mesh{n_gen}g")


def test_samples_a_50_generator_mesh():
    case = _mesh(50)
    cont = screen_contingencies(case, build_factors(case))
    assert cont.n_gen == 50
    instances, _ = sample_dataset(case, PerturbationConfig(seed=12), 20, cont=cont)
    assert len(instances) == 20
    for inst in instances:
        assert recoverable_by_lp(case.glb, inst.gub, case.gamma, inst.d_total,
                                 cont.gen_contingencies)
