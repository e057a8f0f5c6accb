"""The secure-dispatch quantities of the pipeline state (response dispatch,
cap flags, flows, slacks, objective, balance residuals), checked against the
independent references in oracles.py."""

import dataclasses

import numpy as np

from scopflearn.grid import ContingencySet, GridCase, build_factors, screen_contingencies
from scopflearn.layers import PrimalPipeline, thermal_slacks

from conftest import make_two_bus
from oracles import (
    apr_dispatch,
    case_flows,
    exact_response_signal,
    reference_slacks,
    slack_from_flows,
)


def _response(g, d_total, k, gamma, gub):
    """The pipeline's dispatch, signal and cap flags for the outage of
    generator k alone: every generator at bus 0 with lower bound 0, the load
    d_total at bus 1."""
    n = len(g)
    case = GridCase(n_bus=2, gen_bus=[0] * n, glb=np.zeros(n), gub0=gub, c0=np.ones(n),
                    gamma=gamma, line_from=[0], line_to=[1], susceptance=[1.0],
                    flb=[-10.0], fub=[10.0], load_bus=[1], d0=[d_total], slack_bus=0)
    pipe = PrimalPipeline(case, build_factors(case), ContingencySet((k,), ()))
    st = pipe.evaluate_dispatch(g, [d_total], gub, with_slacks=False)
    return st.gk[0, 0], st.nk[0, 0], st.rho[0, 0]


def _assert_matches_reference(g, d_total, k, gamma, gub):
    """Dispatch and cap flags at the bisected signal equal the reference
    response at the exact root, to bisection precision."""
    g, gamma, gub = (np.asarray(a, float) for a in (g, gamma, gub))
    gk, nk, rho = _response(g, d_total, k, gamma, gub)
    n_star = exact_response_signal(g, k, gamma, gub, gub, d_total)
    assert abs(nk - n_star) <= 2.0 ** -25
    assert np.allclose(gk, apr_dispatch(g, n_star, k, gamma, gub, gub),
                       rtol=0, atol=2.0 ** -25 * (gamma * gub).max())
    flags = (g + n_star * gamma * gub > gub) & (np.arange(g.size) != k)
    assert np.array_equal(rho, flags.astype(float))
    return gk, nk, rho


def _pipe(case):
    factors = build_factors(case)
    return PrimalPipeline(case, factors, screen_contingencies(case, factors))


def test_apr_response_basic():
    # one survivor of droop 2 picks up the lost unit at signal 0.5
    gk, nk, rho = _assert_matches_reference([1.0, 1.0], 2.0, 1, [2 / 3, 2 / 3], [3.0, 3.0])
    assert nk == 0.5
    assert np.isclose(gk[0], 2.0)
    assert gk[1] == 0.0
    assert rho[0] == 0.0 and rho[1] == 0.0


def test_apr_response_cap_binds():
    # generator 0 caps at 1.2 before the survivors balance 3.5 (signal 0.26)
    gk, nk, rho = _assert_matches_reference([1.0, 1.0, 1.5], 3.5, 2, [1.0, 1.0, 1.0],
                                            [1.2, 5.0, 5.0])
    assert np.isclose(nk, 0.26)
    assert gk[0] == 1.2
    assert rho[0] == 1.0 and rho[1] == 0.0


def test_apr_response_tie_is_uncapped():
    # g + n*gamma*ghat == gub exactly at the root n = 0.5: indicator stays 0
    gk, nk, rho = _response(np.array([1.0, 1.0, 2.0]), 4.0, 2, np.array([1.0, 0.4, 0.4]),
                            np.array([2.0, 5.0, 5.0]))
    assert nk == 0.5
    assert gk[0] == 2.0
    assert rho[0] == 0.0


def test_apr_outaged_entry_zero():
    for k in range(3):
        gk, _, rho = _assert_matches_reference([2.0, 3.0, 1.0], 4.4, k, np.full(3, 0.2),
                                               np.full(3, 5.0))
        assert gk[k] == 0.0
        assert rho[k] == 0.0


def test_apr_monotone_in_signal():
    # a larger load needs a larger signal, and no survivor gives way
    rng = np.random.default_rng(0)
    for _ in range(50):
        g = rng.uniform(0, 1, 4)
        gamma = rng.uniform(0.2, 1.5, 4)
        gub = g + rng.uniform(0.0, 2.0, 4)
        lo = g.sum() - g[2]
        d1, d2 = sorted(lo + rng.uniform(0, 1, 2) * (gub.sum() - gub[2] - lo))
        gk1, n1, _ = _response(g, d1, 2, gamma, gub)
        gk2, n2, _ = _response(g, d2, 2, gamma, gub)
        assert n2 >= n1 - 2.0 ** -25
        assert np.all(gk2 >= gk1 - 2.0 ** -25 * (gamma * gub).max())


def test_base_flows_colocated_cancel(m5_case):
    # no generation and no load: no flow
    pipe = _pipe(m5_case)
    st = pipe.evaluate_dispatch(np.zeros(m5_case.n_gen), np.zeros(m5_case.n_load),
                                m5_case.gub0)
    assert np.allclose(st.f0, 0.0)


def test_base_flows_two_bus():
    pipe = _pipe(make_two_bus())
    st = pipe.evaluate_dispatch(np.array([1.0]), np.array([1.0]), pipe.case.gub0)
    assert np.isclose(st.f0[0, 0], 1.0)


def test_base_flows_linearity(m5_case):
    pipe = _pipe(m5_case)
    rng = np.random.default_rng(1)
    g1, g2 = rng.uniform(0, 1, (2, m5_case.n_gen))
    d = rng.uniform(0, 1, m5_case.n_load)

    def f0(g, d):
        return pipe.evaluate_dispatch(g, d, m5_case.gub0).f0

    assert np.allclose(f0(g1 + g2, 2 * d), f0(g1, d) + f0(g2, d))


def test_base_flows_match_direct_solve(m5_case):
    pipe = _pipe(m5_case)
    rng = np.random.default_rng(2)
    g = rng.uniform(0, 1, (4, m5_case.n_gen))
    d = rng.uniform(0.1, 0.5, (4, m5_case.n_load))
    st = pipe.evaluate_dispatch(g, d, np.broadcast_to(m5_case.gub0, g.shape))
    for b in range(4):
        assert np.allclose(st.f0[b], case_flows(m5_case, g[b], d[b]), atol=1e-10)


def test_slack_base_cases(m5_case):
    pipe = _pipe(m5_case)
    for f, want in ((np.zeros(m5_case.n_line), 0.0), (m5_case.fub + 0.2, 0.2),
                    (m5_case.flb - 0.5, 0.5)):
        eta, sign = thermal_slacks(f, pipe.flb, pipe.fub)
        assert np.allclose(eta, want)
        assert np.array_equal(eta, slack_from_flows(f, m5_case.flb, m5_case.fub))
        assert np.array_equal(sign, np.sign(f - np.clip(f, m5_case.flb, m5_case.fub)))


def test_slack_gen_contingency_consistency(m5_case):
    pipe = _pipe(m5_case)
    # a heavy unit 0 overloads lines in the base case and under outages
    g, d = np.array([1.5, 0.4, 0.1]), m5_case.d0 * 1.25
    st = pipe.evaluate_dispatch(g, d, m5_case.gub0)
    eta0, eta_g, _ = reference_slacks(m5_case, g, st.gk[0], [], d)
    # recomputed from scratch through the independent flow solver, from the
    # pipeline's own contingency dispatches
    assert eta0.any() and eta_g.any()
    assert np.allclose(st.eta_g[0], eta_g, atol=1e-10)
    assert np.allclose(st.eta0[0], eta0, atol=1e-10)


def test_slack_line_contingency_outaged_entry(tri_case, tri_factors):
    pipe = PrimalPipeline(tri_case, tri_factors, screen_contingencies(tri_case, tri_factors))
    first = list(pipe.ke).index(0)
    eta = pipe.line_outage_slacks(np.zeros((1, tri_case.n_line)), True)[1]
    assert np.all(eta == 0.0)
    # hand-built overload: base flow on line 0 redistributes +1 onto line 1
    eta = pipe.line_outage_slacks(np.array([[1.0, 0.0, 0.0]]), True)[1]
    eta = eta[0, first]
    assert eta[0] == 0.0
    assert np.isclose(eta[1], 1.0 - tri_case.fub[1])  # 1.0 > fub = 0.9
    assert np.isclose(eta[2], 1.0 - tri_case.fub[2])  # |-1.0| > 0.9
    # from a dispatch: against flows re-solved without the outaged line
    g, d = np.array([1.6, 0.0]), np.array([0.1, 1.5])
    st = pipe.evaluate_dispatch(g, d, tri_case.gub0)
    _, _, eta_e = reference_slacks(tri_case, g, [], pipe.ke, d)
    assert eta_e.any()
    assert np.allclose(st.eta_e[0], eta_e, atol=1e-10)
    for j, k in enumerate(pipe.ke):
        assert st.eta_e[0, j, k] == 0.0


def test_objective_and_residuals(m5_case):
    pipe = _pipe(m5_case)
    g = np.array([0.5, 0.3, 0.2])
    st = pipe.evaluate_dispatch(g, m5_case.d0, m5_case.gub0)
    c = m5_case.c0
    slack = st.eta0.sum() + st.eta_g.sum() + st.eta_e.sum()
    assert np.isclose(pipe.objective(st, c)[0], c @ g + m5_case.Pi * slack, rtol=1e-12)
    assert np.array_equal(st.h, st.gk.sum(-1) - m5_case.d0.sum())

    # no dispatch, one base-case slack of 0.1: the objective is the penalty
    zero = dataclasses.replace(st, gtilde=np.zeros((1, 3)),
                               eta0=np.array([[0.1, 0, 0, 0, 0.0]]),
                               eta_g=np.zeros_like(st.eta_g), eta_e=np.zeros_like(st.eta_e),
                               eta_e_sum=np.zeros(1))
    assert np.isclose(pipe.objective(zero, c)[0], 1500 * 0.1)


def test_objective_permutation_invariant(m5_case, m5_factors, m5_cont):
    # the order of the contingency lists changes neither the objective nor
    # any outage's residual
    rng = np.random.default_rng(4)
    g = np.array([0.4, 0.4, 0.2]) + rng.uniform(0, 0.5, (6, 3))
    d = np.broadcast_to(m5_case.d0 * 1.4, (6, m5_case.n_load))
    gub = np.broadcast_to(m5_case.gub0, g.shape)
    c = m5_case.c0
    flipped = ContingencySet(m5_cont.gen_contingencies[::-1], m5_cont.line_contingencies[::-1])
    base = PrimalPipeline(m5_case, m5_factors, m5_cont)
    perm = PrimalPipeline(m5_case, m5_factors, flipped)
    st, st_perm = base.evaluate_dispatch(g, d, gub), perm.evaluate_dispatch(g, d, gub)
    assert st.eta_g.any() and st.eta_e.any()
    assert np.allclose(base.objective(st, c), perm.objective(st_perm, c), rtol=1e-12)
    assert np.array_equal(st.h, st_perm.h[:, ::-1])


def test_slacks_nonnegative_fuzz(m5_case):
    pipe = _pipe(m5_case)
    rng = np.random.default_rng(5)
    f = rng.normal(scale=2.0, size=(200, m5_case.n_line))
    assert np.all(thermal_slacks(f, pipe.flb, pipe.fub)[0] >= 0.0)
    assert np.all(pipe.line_outage_slacks(f, True)[1] >= 0.0)
