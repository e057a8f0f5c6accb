import dataclasses
import tracemalloc

import numpy as np
import pytest

from scopflearn import layers
from scopflearn.errors import ConfigError, DataError
from scopflearn.grid import ContingencySet, GridCase, build_factors, screen_contingencies
from scopflearn.layers import (
    PrimalPipeline,
    binary_search_batch,
    bound_map,
    bound_map_vjp,
    repair_layer,
    repair_layer_vjp,
    sigmoid,
)
from scopflearn.sampling import PerturbationConfig, sample_dataset

from conftest import make_ring_mesh
from oracles import (
    apr_dispatch,
    bisection_reference,
    exact_response_signal,
    fd_gradient,
    fd_jacobian,
    frozen_objective,
    reference_slacks,
    rel_err,
    sigmoid_masked,
)


# ---------------------------------------------------------------------------
# bound map

def test_sigmoid_matches_masked_formula_bytes():
    special = np.array([0.0, -0.0, 1e3, -1e3, np.inf, -np.inf, np.nan, -np.nan,
                        745.0, -745.0, 1e-300, -1e-300])
    z = np.concatenate([special, np.random.default_rng(20).normal(scale=30.0, size=4000)])
    for arr in (z, z.reshape(-1, 4), z[0]):
        out = sigmoid(arr)
        want = sigmoid_masked(arr)
        assert out.shape == want.shape and out.tobytes() == want.tobytes()


def test_bound_map_midpoint_and_saturation():
    glb = np.array([0.0, 1.0])
    gub = np.array([2.0, 3.0])
    g, _ = bound_map(np.zeros(2), glb, gub)
    assert np.allclose(g, (glb + gub) / 2)
    g, _ = bound_map(np.full(2, 40.0), glb, gub)
    assert np.allclose(g, gub)
    g, _ = bound_map(np.full(2, -40.0), glb, gub)
    assert np.allclose(g, glb)


def test_bound_map_jacobian_fd():
    rng = np.random.default_rng(0)
    glb = np.array([0.0, 0.5, -1.0])
    gub = np.array([2.0, 1.5, 1.0])
    for _ in range(10):
        z = rng.normal(scale=2.0, size=3)
        _, sig = bound_map(z, glb, gub)
        analytic = np.diag(bound_map_vjp(np.ones(3), sig, glb, gub))
        fd = fd_jacobian(lambda v: bound_map(v, glb, gub)[0], z, h=1e-5)
        assert rel_err(analytic, fd) <= 1e-6


# ---------------------------------------------------------------------------
# repair layer

def test_repair_identity_when_balanced():
    glb = np.zeros(2)
    gub = np.full(2, 2.0)
    g, _ = repair_layer(np.array([0.7, 1.3]), 2.0, glb, gub)
    assert np.allclose(g, [0.7, 1.3])


def test_repair_deficit_arithmetic():
    g, ctx = repair_layer(np.array([0.5, 0.5]), 2.0, np.zeros(2), np.full(2, 2.0))
    assert np.isclose(ctx.zeta, 1 / 3)
    assert np.allclose(g, [1.0, 1.0])


def test_repair_surplus_arithmetic():
    g, ctx = repair_layer(np.array([1.5, 1.5]), 2.0, np.zeros(2), np.full(2, 2.0))
    assert np.isclose(ctx.zeta, 1 / 3)
    assert np.allclose(g, [1.0, 1.0])


def test_repair_degenerate_returns_bound():
    gub = np.array([1.0, 1.0])
    g, _ = repair_layer(gub.copy(), 2.0, np.zeros(2), gub)
    assert np.allclose(g, gub)
    glb = np.array([0.2, 0.3])
    g, _ = repair_layer(glb.copy(), 0.4, glb, np.full(2, 2.0))
    assert np.allclose(g, glb)


def test_repair_feasibility_fuzz():
    rng = np.random.default_rng(1)
    n = 10_000
    n_gen = 4
    glb = np.tile(rng.uniform(0.0, 0.3, n_gen), (n, 1))
    gub = glb + rng.uniform(0.5, 2.0, (n, n_gen))
    gcheck = glb + rng.uniform(0.0, 1.0, (n, n_gen)) * (gub - glb)
    frac = rng.uniform(0.0, 1.0, n)
    d_total = glb.sum(-1) + frac * (gub.sum(-1) - glb.sum(-1))
    gtilde, _ = repair_layer(gcheck, d_total, glb, gub)
    assert np.max(np.abs(gtilde.sum(-1) - d_total)) <= 1e-9
    assert np.all(gtilde >= glb - 1e-12)
    assert np.all(gtilde <= gub + 1e-12)


def test_repair_jacobian_fd_both_branches():
    rng = np.random.default_rng(2)
    glb = np.array([0.0, 0.1, 0.2])
    gub = np.array([2.0, 1.8, 1.5])
    for d_total in (2.5, 1.0):  # deficit for mid dispatch, then surplus
        for _ in range(10):
            gcheck = glb + rng.uniform(0.2, 0.8, 3) * (gub - glb)
            _, ctx = repair_layer(gcheck, d_total, glb, gub)

            def frozen(v, branch=ctx.deficit):
                g, c2 = repair_layer(v, d_total, glb, gub)
                assert c2.deficit == branch  # stay off the branch boundary
                return g

            fd = fd_jacobian(frozen, gcheck, h=1e-6)
            for i in range(3):
                seed_vec = np.zeros(3)
                seed_vec[i] = 1.0
                row = repair_layer_vjp(seed_vec, ctx)
                assert rel_err(row, fd[i]) <= 1e-6


# ---------------------------------------------------------------------------
# bisection layer

def _bisect_one(g, d_total, k, gamma, ghat, gub, t=25):
    """binary_search_batch on one dispatch and the single outage k."""
    gk, nk, rho = binary_search_batch(g, d_total, [k], gamma, ghat, gub, t=t)
    return gk[0, 0], nk[0, 0], rho[0, 0]


def test_bisection_exact_first_midpoint():
    gk, nk, rho = _bisect_one(
        g=np.array([1.0, 1.0]), d_total=2.0, k=1,
        gamma=np.array([1.0, 1.0]), ghat=np.array([2.0, 2.0]),
        gub=np.array([3.0, 3.0]), t=25)
    assert nk == 0.5
    assert np.allclose(gk, [2.0, 0.0])
    assert np.all(rho == 0.0)
    assert gk.sum() - 2.0 == 0.0


def test_bisection_evaluates_final_midpoint():
    # one step brackets the root 0.25 in [0, 0.5]; the final midpoint is it
    g, gamma, ghat, gub = np.ones(3), np.ones(3), np.full(3, 2.0), np.full(3, 4.0)
    gk, nk, _ = _bisect_one(g, 3.0, 2, gamma, ghat, gub, t=1)
    assert nk == 0.25
    assert gk.sum() == 3.0


def test_bisection_infeasible_saturates():
    gk, nk, rho = _bisect_one(
        g=np.array([1.0, 1.0]), d_total=2.0, k=1,
        gamma=np.array([1.0, 1.0]), ghat=np.array([2.0, 2.0]),
        gub=np.array([1.5, 3.0]), t=25)
    assert np.allclose(gk, [1.5, 0.0])
    assert nk >= 1.0 - 2.0 ** -24
    assert np.isclose(gk.sum() - 2.0, -0.5)
    assert rho[0] == 1.0 and rho[1] == 0.0


def test_bisection_overgeneration_saturates_low():
    # even n = 0 leaves a surplus: signal converges to 0
    gk, nk, rho = _bisect_one(
        g=np.array([2.0, 1.0]), d_total=1.5, k=1,
        gamma=np.array([1.0, 1.0]), ghat=np.array([1.0, 1.0]),
        gub=np.array([3.0, 3.0]), t=25)
    assert nk <= 2.0 ** -24
    assert gk.sum() - 1.5 > 0


@pytest.mark.parametrize("t", [10, 25])
def test_bisection_accuracy_bound(t):
    # three symmetric generators, one outaged; closed-form root
    g = np.array([1.0, 1.0, 1.0])
    gamma = np.full(3, 1.0)
    ghat = np.full(3, 2.0)
    gub = np.full(3, 4.0)
    d_total = 3.0  # outage removes 1.0; survivors each pick up 0.5 => n* = 0.25
    gk, nk, rho = _bisect_one(g, d_total, 2, gamma, ghat, gub, t=t)
    assert abs(nk - 0.25) <= 2.0 ** -t
    droop_sum = (gamma * ghat)[[0, 1]].sum()
    assert abs(gk.sum() - d_total) <= 2.0 ** -t * droop_sum


def test_bisection_residual_nonincreasing_in_t():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n_gen = 4
        glb = np.zeros(n_gen)
        gub = rng.uniform(0.5, 2.0, n_gen)
        g = rng.uniform(0, 1, n_gen) * gub
        gamma = rng.uniform(0.2, 1.0, n_gen)
        k = int(rng.integers(n_gen))
        d_total = g.sum()
        r = []
        for t in (5, 10, 20, 40):
            gk, _, _ = _bisect_one(g, d_total, k, gamma, gub, gub, t=t)
            r.append(abs(gk.sum() - d_total))
        assert r[1] <= r[0] + 1e-15 and r[2] <= r[1] + 1e-15 and r[3] <= r[2] + 1e-15


def test_bisection_matches_exact_root():
    rng = np.random.default_rng(4)
    for _ in range(100):
        n_gen = 5
        gub = rng.uniform(0.5, 2.0, n_gen)
        g = rng.uniform(0.1, 1.0, n_gen) * gub
        gamma = rng.uniform(0.2, 1.2, n_gen)
        k = int(rng.integers(n_gen))
        d_total = g.sum() * rng.uniform(0.9, 1.0)
        gk, nk, _ = _bisect_one(g, d_total, k, gamma, gub, gub, t=40)
        n_star = exact_response_signal(g, k, gamma, gub, gub, d_total)
        assert abs(nk - n_star) <= 2.0 ** -40 + 1e-12


def test_bisection_structure_invariants_fuzz():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n_gen = 4
        glb = np.zeros(n_gen)
        gub = rng.uniform(0.5, 2.0, n_gen)
        g = rng.uniform(0, 1, n_gen) * gub
        gamma = rng.uniform(0.2, 1.5, n_gen)
        k = int(rng.integers(n_gen))
        gk, nk, rho = _bisect_one(g, g.sum(), k, gamma, gub, gub, t=25)
        assert gk[k] == 0.0 and rho[k] == 0.0
        assert 0.0 <= nk <= 1.0
        mask = np.arange(n_gen) != k
        assert np.all(gk[mask] <= gub[mask] + 1e-15)
        assert np.all(gk[mask] >= g[mask] - 1e-15)
        raw = g + nk * gamma * gub
        assert np.array_equal(rho[mask], (raw[mask] > gub[mask]).astype(float))


def test_bisection_batch_matches_scalar():
    # every (instance, outage) pair of one batched call against the exact
    # root and the reference response at it
    rng = np.random.default_rng(6)
    n_gen, n_batch = 4, 16
    gub = rng.uniform(0.5, 2.0, (n_batch, n_gen))
    g = rng.uniform(0.1, 1.0, (n_batch, n_gen)) * gub
    gamma = rng.uniform(0.3, 1.0, n_gen)
    d_total = g.sum(-1) * rng.uniform(0.85, 1.05, n_batch)
    kg = np.array([0, 2, 3])
    gk, nk, rho = binary_search_batch(g, d_total, kg, gamma, gub, gub, t=25)
    for b in range(n_batch):
        droop = gamma * gub[b]
        for j, k in enumerate(kg):
            n_star = exact_response_signal(g[b], k, gamma, gub[b], gub[b], d_total[b])
            assert abs(nk[b, j] - n_star) <= 2.0 ** -25
            assert np.allclose(gk[b, j], apr_dispatch(g[b], n_star, k, gamma, gub[b], gub[b]),
                               rtol=0, atol=2.0 ** -25 * droop.max())
            flags = (g[b] + n_star * droop > gub[b]) & (np.arange(n_gen) != k)
            assert np.array_equal(rho[b, j], flags.astype(float))


def _assert_bisection_matches_reference(g, d_total, kg, gamma, ghat, gub, t):
    got = binary_search_batch(g, d_total, kg, gamma, ghat, gub, t)
    want = bisection_reference(g, d_total, kg, gamma, ghat, gub, t)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()
    return got


def _loop_spy(monkeypatch):
    """The number of positions of each call that runs the loop itself."""
    sizes, real = [], layers._run_loop
    monkeypatch.setattr(layers, "_run_loop", lambda at, *a: sizes.append(at.size)
                        or real(at, *a))
    return sizes


def _random_boxes(rng, inject=False):
    """Bisection inputs (g, d_total, kg, gamma, ghat, gub): batch sizes from
    1, outage sets from empty to all units, some zero droops, and loads on
    both sides of what the survivors can cover; each box also rounded to
    eighths, where |e| ties exactly between midpoints.  inject: NaN and +-inf
    in some dispatches, caps and loads (a cap of -inf, a negative droop, is
    left out: it is refused)."""
    for _ in range(60):
        n_batch, n_gen = int(rng.integers(1, 6)), int(rng.integers(2, 7))
        kg = rng.choice(n_gen, int(rng.integers(0, n_gen + 1)), replace=False)
        glb = rng.uniform(0.0, 0.5, (n_batch, n_gen))
        gub = glb + rng.uniform(0.0, 2.0, (n_batch, n_gen))
        g = rng.uniform(glb, gub)
        gamma = rng.uniform(0.0, 1.2, n_gen) * (rng.random(n_gen) > 0.2)
        d_total = g.sum(-1) * rng.uniform(0.8, 1.4, n_batch)
        for box in ((glb, gub, g, gamma, d_total),
                    tuple(np.round(a * 8) / 8 for a in (glb, gub, g, gamma, d_total))):
            glb, gub, g, gamma, d_total = box
            if inject:
                for a, values in ((g, [np.nan, np.inf, -np.inf]), (gub, [np.nan, np.inf]),
                                  (d_total, [np.nan, np.inf, -np.inf])):
                    hit = rng.random(a.shape) < 0.1
                    a[hit] = rng.choice(values, int(hit.sum()))
            yield g, d_total, kg, gamma, gub - glb, gub


@pytest.mark.parametrize("t", [1, 2, 25, 40, 52])
def test_bisection_matches_reference_random_boxes(t):
    for box in _random_boxes(np.random.default_rng(t)):
        _assert_bisection_matches_reference(*box, t)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("t", [1, 2, 25, 52])
def test_bisection_matches_reference_from_any_guess(t, monkeypatch):
    # random guessed cells fail their certificate almost everywhere, so the
    # loop itself runs there; where one passes by chance it is the switch
    rng = np.random.default_rng(100 + t)
    monkeypatch.setattr(layers, "_cell_guess", lambda g, droop, gub, d_total, kg, cells:
                        rng.integers(0, cells, (g.shape[0], len(kg))))
    loops, positions = _loop_spy(monkeypatch), 0
    for box in _random_boxes(rng, inject=True):
        positions += _assert_bisection_matches_reference(*box, t)[1].size
    assert sum(loops) > positions / 2


@pytest.mark.parametrize("t", [1, 40])
def test_bisection_matches_reference_edge_cases(t, monkeypatch):
    g = np.array([[1.0, 1.0, 1.0]])
    gamma, ghat = np.ones(3), np.full((1, 3), 2.0)
    gub = np.full((1, 3), 4.0)
    # unrecoverable outages: the signal runs to 1 (shortfall) or to 0 (surplus)
    _, nk, _ = _assert_bisection_matches_reference(g, [9.5], [0, 2], gamma, ghat, gub, t)
    assert np.all(nk == 1.0 - 2.0 ** -(t + 1))
    _, nk, _ = _assert_bisection_matches_reference(g, [1.5], [0, 2], gamma, ghat, gub, t)
    assert np.all(nk == 2.0 ** -(t + 1))
    # exact |e| ties across iterations: e(1/2) = 1/8 and e(1/4) = -1/8
    _, nk, _ = _assert_bisection_matches_reference(
        [[0.0, 0.0]], [0.375], [1], np.ones(2), [[1.0, 1.0]], [[2.0, 2.0]], t)
    if t == 1:
        assert nk[0, 0] == 0.25
    # capped units and zero droop: the residual is flat, the last tie wins
    _assert_bisection_matches_reference(
        g, [2.5], [1], np.array([1.0, 0.0, 1.0]), ghat, [[1.25, 4.0, 1.25]], t)
    _, nk, _ = _assert_bisection_matches_reference(g, [3.0], [1], np.zeros(3), ghat, gub, t)
    assert nk[0, 0] == 1.0 - 2.0 ** -(t + 1)
    # NaN dispatches: on a survivor, on the outaged unit, everywhere
    nan_g = np.array([[np.nan, 1.0, 1.0], [1.0, np.nan, 1.0], [np.nan] * 3])
    _assert_bisection_matches_reference(nan_g, np.full(3, 3.0), [0, 1], gamma,
                                        np.repeat(ghat, 3, 0), np.repeat(gub, 3, 0), t)
    # infinite dispatches, caps and loads, on survivors and outaged units
    inf_g = np.array([[np.inf, 1.0, 1.0], [1.0, -np.inf, 1.0], [1.0, 1.0, 1.0],
                      [1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
    inf_gub = np.array([[4.0] * 3, [4.0] * 3, [np.inf, 4.0, 4.0], [4.0, -np.inf, 4.0],
                        [4.0] * 3, [4.0] * 3])
    _assert_bisection_matches_reference(inf_g, [3.0, 3.0, 3.0, 3.0, np.inf, -np.inf], [0, 1],
                                        gamma, np.repeat(ghat, 6, 0), inf_gub, t)
    # -inf plus a unit overflowing to +inf from n = 0.8: e is -inf below and
    # NaN above, where every midpoint the loop visited is read
    loops = _loop_spy(monkeypatch)
    _, nk, _ = _assert_bisection_matches_reference(
        [[-np.inf, 1e308, 0.0]], [0.0], [2], np.ones(3), [[1.0, 1e308, 1.0]],
        [[np.inf, np.inf, 1.0]], t)
    assert nk[0, 0] == 0.75 and len(loops) == (t > 1)
    # no generator contingencies at all
    gk, nk, rho = _assert_bisection_matches_reference(g, [3.0], [], gamma, ghat, gub, t)
    assert gk.shape == (1, 0, 3) and nk.shape == (1, 0) and rho.shape == (1, 0, 3)
    # at t = 52, a residual rounded flat to +-1 ulp switches at 5/8, far
    # from the piecewise-linear root 1/2 that the first guess reads: the
    # guess is off by 2^50 cells, and the loop itself runs there
    loops.clear()
    _, nk, _ = _assert_bisection_matches_reference(
        g, [2.0 + 2.0 ** -51], [2], np.array([1.0, 0.0, 1.0]), np.full((1, 3), 2.0 ** -50),
        np.full((1, 3), 4.0), 52)
    assert loops and nk[0, 0] == 0.625


def test_bisection_refuses_a_falling_residual(m5_case, m5_factors, m5_cont):
    # a negative droop, directly or from a request whose upper bound lies
    # below the lower one, lets the residual fall as the signal grows
    with pytest.raises(DataError, match="gamma \\* ghat >= 0"):
        _bisect_one(np.ones(2), 1.0, 0, np.ones(2), np.array([1.0, -0.5]), np.full(2, 2.0))
    pipe = PrimalPipeline(m5_case, m5_factors, m5_cont)
    gub = m5_case.gub0.copy()
    gub[1] = m5_case.glb[1] - 0.05
    with pytest.raises(DataError, match="gamma \\* ghat >= 0"):
        pipe.evaluate_dispatch(m5_case.glb, m5_case.d0, gub)
    # an outaged unit whose response overflows below an infinite cap
    with pytest.raises(DataError, match="overflows"):
        binary_search_batch([[1e308, 1.0]], [1.0], [0], np.ones(2), [[1e308, 1.0]],
                            [[np.inf, 2.0]])
    # NaN is no negative droop: it passes, as in the reference
    _assert_bisection_matches_reference(np.ones((1, 2)), [1.0], [0], np.ones(2),
                                        [[np.nan, 1.0]], np.full((1, 2), 2.0), 25)


def test_bisection_peak_allocation_stays_within_budget(m5_case, m5_factors, m5_cont,
                                                      monkeypatch):
    """One call at micro5's batch-32 serving shape allocates at its peak at
    most 10 (B, K, G) float64 arrays (23 KB): the t-step loop peaked at
    20.7 KB, and a form holding a dozen such temporaries at once fails.
    Where every guessed cell fails, so that the loop itself runs at every
    position, at most 16 (37 KB): a gallop and bisection there peaked at
    46 KB."""
    pipe = PrimalPipeline(m5_case, m5_factors, m5_cont)
    rng = np.random.default_rng(0)
    n_batch, n_gen, n_cont = 32, m5_case.n_gen, pipe.kg.size
    gub = m5_case.gub0 * rng.uniform(0.9, 1.1, (n_batch, n_gen))
    d = m5_case.d0 * rng.uniform(0.8, 1.1, (n_batch, m5_case.n_load))
    state = pipe.forward(rng.normal(size=(n_batch, n_gen)), d, gub, with_slacks=False)
    args = (state.gtilde, state.d_total, pipe.kg, m5_case.gamma, gub - m5_case.glb, gub)

    def peak():
        binary_search_batch(*args)
        tracemalloc.start()
        try:
            binary_search_batch(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    array = n_batch * n_cont * n_gen * 8
    assert peak() <= 10 * array, f"peak over {10 * array} B"
    # the cell next to the switch's fails its certificate
    guess = layers._cell_guess
    monkeypatch.setattr(layers, "_cell_guess", lambda *a: (guess(*a) + 1) % a[-1])
    loops = _loop_spy(monkeypatch)
    assert peak() <= 16 * array, f"peak over {16 * array} B"
    assert loops == [n_batch * n_cont] * 2


def test_bisection_rejects_bad_iteration_count(m5_case, m5_factors, m5_cont):
    # at t > 52 the step would fall below the last bit of n in [0.5, 1)
    for t in (0, 53):
        with pytest.raises(ConfigError):
            _bisect_one(np.ones(2), 1.0, 0, np.ones(2), np.ones(2), np.full(2, 2.0), t=t)
        # through the pipeline's dispatch path too
        pipe = PrimalPipeline(m5_case, m5_factors, m5_cont, t=t)
        with pytest.raises(ConfigError):
            pipe.evaluate_dispatch(m5_case.glb, m5_case.d0, m5_case.gub0)


# ---------------------------------------------------------------------------
# full pipeline gradient checks

def _random_nonboundary_points(pipe, case, cont, n_points, seed=7):
    """Sample raw outputs whose tape sits safely away from every branch
    boundary: repair-branch flip, cap ties, and slack kinks."""
    rng = np.random.default_rng(seed)
    cfg = PerturbationConfig(seed=seed)
    instances, _ = sample_dataset(case, cfg, n_points, cont=cont)
    picked = []
    for inst in instances:
        for _ in range(50):
            z = rng.normal(scale=1.5, size=case.n_gen)
            state = pipe.forward(z, inst.d, inst.gub, with_slacks="sums")
            margin = min(
                abs(state.repair_ctx.s - state.d_total).min(),
                _cap_margin(state, pipe),
                _kink_margin(state, pipe),
            )
            if margin > 1e-3:
                picked.append((z, inst, state))
                break
    return picked


def _cap_margin(state, pipe):
    raw = state.gtilde[:, None, :] + state.nk[..., None] * (
        pipe.gamma * (state.gub - state.glb))[:, None, :]
    gaps = np.abs(raw - state.gub[:, None, :])
    rows = np.arange(pipe.kg.size)
    gaps[:, rows, pipe.kg] = np.inf
    return gaps.min()


def _kink_margin(state, pipe):
    def margin(f):
        return min(np.abs(f - pipe.fub).min(), np.abs(f - pipe.flb).min())

    m = margin(state.f0)
    fg = state.f0  # placeholder replaced below
    flow_d = state.f0 + state.gtilde @ pipe.phi_gen.T
    fg = flow_d[:, None, :] - state.gk @ pipe.phi_gen.T
    m = min(m, margin(fg))
    if pipe.ke.size:
        post = state.f0[:, None, :] + state.f0[:, pipe.ke, None] * pipe.lodf_ke[None, :, :]
        rows = np.arange(pipe.ke.size)
        post[:, rows, pipe.ke] = 0.0
        keep = np.ones_like(post, bool)
        keep[:, rows, pipe.ke] = False
        m = min(m, np.abs(post[keep] - np.broadcast_to(pipe.fub, post.shape)[keep]).min(),
                np.abs(post[keep] - np.broadcast_to(pipe.flb, post.shape)[keep]).min())
    return m


def test_pipeline_gradient_matches_fd(m5_case, m5_factors, m5_cont):
    pipe = PrimalPipeline(m5_case, m5_factors, m5_cont)
    rho_pen = 2.0
    lam = np.array([0.3, -0.2, 0.5])
    points = _random_nonboundary_points(pipe, m5_case, m5_cont, 20)
    assert len(points) >= 15
    for z, inst, state in points:
        grad_gtilde, grad_gk = pipe.objective_grads(state, inst.c)
        grad_gk = grad_gk + (lam + rho_pen * state.h)[..., None]
        grad_z = pipe.backward(state, grad_gtilde, grad_gk)[0]

        def loss(v):
            obj, h, _ = frozen_objective(pipe, v[None, :], state,
                                         inst.d[None, :], inst.c)
            return obj[0] + lam @ h[0] + 0.5 * rho_pen * (h[0] ** 2).sum()

        fd = fd_gradient(loss, z, h=1e-6)
        assert rel_err(grad_z, fd, floor=1e-6) <= 1e-4


def test_pipeline_balance_guarantee(m5_case, m5_factors, m5_cont):
    pipe = PrimalPipeline(m5_case, m5_factors, m5_cont)
    cfg = PerturbationConfig(seed=8)
    instances, _ = sample_dataset(m5_case, cfg, 50, cont=m5_cont)
    rng = np.random.default_rng(8)
    for inst in instances:
        z = rng.normal(scale=2.0, size=m5_case.n_gen)
        state = pipe.forward(z, inst.d, inst.gub)
        assert abs(state.gtilde.sum() - inst.d_total) <= 1e-9
        assert np.all(state.gtilde >= m5_case.glb - 1e-12)
        assert np.all(state.gtilde <= inst.gub + 1e-12)
        # every outage either balances to bisection precision or the search
        # saturated at a signal boundary with a signed shortfall
        droop_total = (m5_case.gamma * (inst.gub - m5_case.glb)).sum()
        for j in range(state.h.shape[1]):
            h = state.h[0, j]
            nk = state.nk[0, j]
            if abs(h) > 2.0 ** -25 * droop_total:
                assert nk <= 2.0 ** -25 or nk >= 1.0 - 2.0 ** -25


def test_pipeline_objective_matches_scopf_eval(m5_case, m5_factors, m5_cont):
    # slacks re-solved from the pipeline's own dispatches, and the objective
    # and residuals assembled from them
    pipe = PrimalPipeline(m5_case, m5_factors, m5_cont)
    cfg = PerturbationConfig(seed=9)
    instances, _ = sample_dataset(m5_case, cfg, 10, cont=m5_cont)
    rng = np.random.default_rng(9)
    for inst in instances:
        z = rng.normal(scale=1.0, size=m5_case.n_gen)
        state = pipe.forward(z, inst.d, inst.gub)
        g = state.gtilde[0]
        eta0, eta_g, eta_e = reference_slacks(m5_case, g, state.gk[0], pipe.ke, inst.d)
        ref = inst.c @ g + m5_case.Pi * (eta0.sum() + eta_g.sum() + eta_e.sum())
        assert np.isclose(pipe.objective(state, inst.c)[0], ref, rtol=1e-12)
        assert np.allclose(state.h[0], state.gk[0].sum(-1) - inst.d.sum())
        assert np.allclose(state.eta0[0], eta0)
        assert np.allclose(state.eta_g[0], eta_g)
        assert np.allclose(state.eta_e[0], eta_e)


# ---------------------------------------------------------------------------
# line-outage slacks: the dense block and the pair screen against per-outage
# arrays

# the gathered pairs sum fewer terms in another order than the dense block,
# so their sums agree with the per-outage reference to this share of the sum
# of the absolute terms (a float64 sum of a few thousand terms moves by a few
# ulps of that sum)
PAIR_SUM_RTOL = 1e-12


def _mesh_request(case, n_rows, seed, scale=1.5):
    factors = build_factors(case)
    pipe = PrimalPipeline(case, factors, screen_contingencies(case, factors))
    rng = np.random.default_rng(seed)
    z = rng.normal(scale=scale, size=(n_rows, case.n_gen))
    d = case.d0 * rng.uniform(0.9, 1.1, (n_rows, case.n_load))
    gub = np.broadcast_to(case.gub0, (n_rows, case.n_gen))
    c = case.c0 * rng.uniform(0.9, 1.1, (n_rows, case.n_gen))
    return pipe, z, d, gub, c


def _per_outage_reference(pipe, f0):
    """Line-outage slacks, signs and objective-gradient weights at base flows
    f0 from the whole (B, n_ke, n_line) post-outage flow array at once, and
    the sum of the absolute terms of each weight."""
    def slack_and_sign(f):
        over, under = f - pipe.fub, pipe.flb - f
        return (np.maximum(0.0, np.maximum(over, under)),
                np.where(over > 0, 1.0, 0.0) + np.where(under > 0, -1.0, 0.0))

    post = f0[:, None, :] + f0[:, pipe.ke, None] * pipe.lodf_ke[None, :, :]
    eta, sign = slack_and_sign(post)
    rows = np.arange(pipe.ke.size)
    eta[:, rows, pipe.ke] = 0.0
    sign[:, rows, pipe.ke] = 0.0
    w = slack_and_sign(f0)[1]
    w_abs = np.abs(w) + np.abs(sign).sum(-2)
    w += sign.sum(-2)
    w[:, pipe.ke] += (sign * pipe.lodf_ke[None, :, :]).sum(-1)
    w_abs[:, pipe.ke] += np.abs(sign * pipe.lodf_ke[None, :, :]).sum(-1)
    return eta, sign, w, w_abs


def _one_block(pipe, f0):
    """Whether the line-outage slacks at base flows f0 form one dense block."""
    return f0.size * pipe.ke.size <= layers.SLACK_BLOCK


def _spy_screen(monkeypatch, pipe):
    """Records the share of pairs kept by each call of the pair screen."""
    shares, screen = [], pipe.binding_pairs

    def spied(f0):
        pairs = screen(f0)
        shares.append(pairs[0].size / (pipe.ke.size * f0.shape[1]))
        return pairs

    monkeypatch.setattr(pipe, "binding_pairs", spied)
    return shares


def _check_slack_modes(pipe, z, d, gub, c):
    """Serving, training and evaluation slacks of one request against the
    per-outage reference; returns the reference slacks and signs."""
    full = pipe.forward(z, d, gub)
    sums = pipe.forward(z, d, gub, with_slacks="sums")
    totals = pipe.forward(z, d, gub, with_slacks="totals")
    assert full.f0.tobytes() == sums.f0.tobytes() == totals.f0.tobytes()
    eta_ref, sign_ref, w_ref, w_abs = _per_outage_reference(pipe, full.f0)
    # serving: every per-outage slack, and no sign pattern to form
    assert full.eta_e.shape == eta_ref.shape and full.eta_e.tobytes() == eta_ref.tobytes()
    assert all(getattr(full, name) is None
               for name in ("sign0", "sign_g", "sign_e", "weights"))
    with pytest.raises(ConfigError):
        pipe.objective_grads(full, c)
    # training: the slack total and the gradient weights, no per-outage array;
    # bytewise where the dense block runs
    assert sums.eta_e is None and sums.sign_e is None
    if _one_block(pipe, full.f0):
        assert sums.weights.tobytes() == w_ref.tobytes()
    else:
        assert np.all(np.abs(sums.weights - w_ref) <= PAIR_SUM_RTOL * w_abs)
    grad_gtilde, _ = pipe.objective_grads(sums, c)
    assert np.array_equal(grad_gtilde, c - pipe.Pi * (sums.weights @ pipe.phi_gen))
    # evaluation: the totals alone, byte-equal to the other modes' totals
    assert all(getattr(totals, name) is None
               for name in ("sign0", "sign_g", "sign_e", "eta_e", "weights"))
    eta_sum = eta_ref.sum((-2, -1))
    assert np.allclose(sums.eta_e_sum, eta_sum, rtol=PAIR_SUM_RTOL, atol=0, equal_nan=True)
    for state in (full, totals):
        assert state.eta_e_sum.tobytes() == sums.eta_e_sum.tobytes()
        assert state.h.tobytes() == sums.h.tobytes()
        assert pipe.objective(state, c).tobytes() == pipe.objective(sums, c).tobytes()
    # the reduction every reader shares, called directly
    total, eta_e, sign_sum, lodf_term = pipe.line_outage_slacks(full.f0)
    assert total.tobytes() == sums.eta_e_sum.tobytes()
    assert eta_e is None and sign_sum is None and lodf_term is None
    return eta_ref, sign_ref


def test_blocked_line_slacks_match_per_outage_arrays(monkeypatch):
    case = make_ring_mesh(grid_seed=3, n_bus=40, n_chords=15, n_gen=5, n_load=20)
    pipe, z, d, gub, c = _mesh_request(case, 6, seed=5)
    assert pipe.ke.size == case.n_line == 55
    shares = _spy_screen(monkeypatch, pipe)
    f0 = pipe.forward(z, d, gub).f0
    # 6 x 55 x 55 elements fit the default budget: one dense block, no screen
    assert _one_block(pipe, f0)
    eta_ref, sign_ref = _check_slack_modes(pipe, z, d, gub, c)
    assert not shares
    assert eta_ref.sum() > 0 and np.abs(sign_ref).sum() > 0
    # ten outages' pairs per block: the screened pairs, in several blocks
    monkeypatch.setattr(layers, "SLACK_BLOCK", 6 * 55 * 10)
    assert _check_pair_blocks(pipe, f0) > 1
    _check_slack_modes(pipe, z, d, gub, c)
    assert len(shares) == 5 and min(shares) > 0


def _check_pair_blocks(pipe, f0):
    """The gathered blocks of the screened pairs, scattered into per-outage
    arrays, equal the reference bytewise: every pruned pair has slack +0.0
    and sign 0 in every row.  Returns the number of blocks."""
    pairs = pipe.binding_pairs(f0)
    eta_ref, sign_ref, _, _ = _per_outage_reference(pipe, f0)
    eta, sign = np.zeros_like(eta_ref), np.zeros_like(sign_ref)
    blocks = 0
    for (outages, lines), block_eta, block_sign in pipe.line_outage_blocks(f0, pairs):
        eta[:, outages, lines] = block_eta.T
        sign[:, outages, lines] = block_sign.T
        blocks += 1
    assert eta.tobytes() == eta_ref.tobytes()
    assert sign.tobytes() == sign_ref.tobytes()
    return blocks


def _forced_pairs(monkeypatch, n_rows):
    """Gathered blocks of 64 pairs, and the screen at every batch size."""
    monkeypatch.setattr(layers, "SLACK_BLOCK", 64 * n_rows)


@pytest.mark.parametrize("n_rows", [8, 32, 128])
def test_pair_screen_is_exact_on_random_batches(monkeypatch, n_rows):
    case = make_ring_mesh(grid_seed=3, n_bus=40, n_chords=15, n_gen=5, n_load=20)
    pipe, z, d, gub, c = _mesh_request(case, n_rows, seed=n_rows, scale=0.3)
    _forced_pairs(monkeypatch, n_rows)
    f0 = pipe.forward(z, d, gub, with_slacks="totals").f0
    outages, _ = pipe.binding_pairs(f0)
    assert 0 < outages.size < 0.9 * pipe.ke.size * case.n_line
    assert _check_pair_blocks(pipe, f0) > 1
    eta_ref, _ = _check_slack_modes(pipe, z, d, gub, c)
    assert eta_ref.any()


@pytest.mark.parametrize("n_rows", [8, 32, 128])
def test_pair_screen_is_exact_at_the_limits(monkeypatch, n_rows):
    """Limits placed exactly on post-outage flows (post == limit, a slack of
    +0.0) and exactly on the screen's own interval bounds."""
    case = make_ring_mesh(grid_seed=3, n_bus=40, n_chords=15, n_gen=5, n_load=20)
    pipe, z, d, gub, c = _mesh_request(case, n_rows, seed=n_rows, scale=0.3)
    f0 = pipe.forward(z, d, gub, with_slacks="totals").f0
    post = f0[:, None, :] + f0[:, pipe.ke, None] * pipe.lodf_ke[None, :, :]
    post[:, np.arange(pipe.ke.size), pipe.ke] = 0.0
    rng = np.random.default_rng(n_rows)
    fub, flb = case.fub.copy(), case.flb.copy()
    lines = rng.permutation(case.n_line)
    for line in lines[:10]:   # the largest and smallest post-outage flows
        fub[line] = max(post[:, :, line].max(), 0.0)
        flb[line] = min(post[:, :, line].min(), 0.0)
    lo, hi = f0.min(0), f0.max(0)
    for line in lines[10:30]:   # one outage's interval bounds, as the screen forms them
        k = rng.integers(pipe.ke.size)
        reach = lo[pipe.ke[k]] * pipe.lodf_ke[k, line], hi[pipe.ke[k]] * pipe.lodf_ke[k, line]
        fub[line] = max(hi[line] + max(reach), 0.0)
        flb[line] = min(lo[line] + min(reach), 0.0)
    for line in lines[30:40]:   # one step inside the extreme flows: the slack is an ulp
        fub[line] = max(np.nextafter(post[:, :, line].max(), 0.0), 0.0)
        flb[line] = min(np.nextafter(post[:, :, line].min(), 0.0), 0.0)
    pipe, *_ = _mesh_request(dataclasses.replace(case, fub=fub, flb=flb), n_rows, seed=n_rows)
    _forced_pairs(monkeypatch, n_rows)
    assert _check_pair_blocks(pipe, f0) > 1
    eta_ref, sign_ref = _check_slack_modes(pipe, z, d, gub, c)
    at_limit = (post == fub) | (post == flb)
    at_limit[:, np.arange(pipe.ke.size), pipe.ke] = False
    assert at_limit.sum() >= 10
    assert not eta_ref[at_limit].any() and not sign_ref[at_limit].any()
    tiny = (eta_ref > 0) & (eta_ref < 1e-12)
    assert tiny.sum() >= 10 and np.abs(sign_ref[tiny]).min() == 1


@pytest.mark.parametrize("n_rows", [8, 32, 128])
def test_pair_screen_keeps_a_nan_row(monkeypatch, n_rows):
    from scopflearn import training
    from scopflearn.errors import DivergenceError

    case = make_ring_mesh(grid_seed=3, n_bus=40, n_chords=15, n_gen=5, n_load=20)
    pipe, z, d, gub, c = _mesh_request(case, n_rows, seed=n_rows, scale=0.3)
    z[n_rows // 2] = np.nan
    _forced_pairs(monkeypatch, n_rows)
    f0 = pipe.forward(z, d, gub, with_slacks="totals").f0
    assert np.isnan(f0[n_rows // 2]).all()
    assert _check_pair_blocks(pipe, f0) > 1
    _check_slack_modes(pipe, z, d, gub, c)
    for mode in ("sums", "totals", True):
        total = pipe.slack_total(pipe.forward(z, d, gub, with_slacks=mode))
        assert np.isnan(total).tolist() == [i == n_rows // 2 for i in range(n_rows)]
    # the evaluation pass sees the NaN
    x = np.zeros((n_rows, 2 * case.n_gen + case.n_load))
    x[n_rows // 2] = np.nan
    primal, _ = training.build_networks(case, pipe.cont, x.shape[1], 0, False)
    data = training._Stacked(x=x, d=d, c=c, gub=np.array(gub))
    with pytest.raises(DivergenceError):
        training.max_violation(pipe, primal, data)


def test_dense_block_runs_within_one_block_only(monkeypatch):
    """The dense block runs if and only if the batch's post-outage flows fit
    one block; above it the screen runs, whatever share of pairs it keeps."""
    case = make_ring_mesh(grid_seed=3, n_bus=40, n_chords=15, n_gen=5, n_load=20)
    # tight limits: the screen keeps most pairs
    case = dataclasses.replace(case, flb=0.2 * case.flb, fub=0.2 * case.fub)
    pipe, z, d, gub, c = _mesh_request(case, 8, seed=1)
    shares = _spy_screen(monkeypatch, pipe)
    monkeypatch.setattr(layers, "SLACK_BLOCK", 4 * 55 * 55)
    for mode in (True, "sums", "totals"):
        pipe.forward(z[:4], d[:4], gub[:4], with_slacks=mode)
    assert not shares   # exactly one block: dense, no screen
    for mode in (True, "sums", "totals"):
        pipe.forward(z[:5], d[:5], gub[:5], with_slacks=mode)
    assert len(shares) == 3 and min(shares) > 0.9   # one row more: screened
    _check_slack_modes(pipe, z, d, gub, c)
    assert len(shares) == 7 and min(shares) > 0.9


def test_line_slacks_without_line_outages():
    # a path: every line outage islands a bus, so none is screened in
    case = GridCase(n_bus=3, gen_bus=[0, 2], glb=[0.0, 0.0], gub0=[2.0, 1.5],
                    c0=[1000.0, 1800.0], gamma=[0.8, 0.8], line_from=[0, 1],
                    line_to=[1, 2], susceptance=[4.0, 6.0], flb=[-0.3, -0.3],
                    fub=[0.3, 0.3], load_bus=[1], d0=[1.2], slack_bus=0)
    pipe, z, d, gub, c = _mesh_request(case, 4, seed=2)
    assert pipe.ke.size == 0
    eta_ref, _ = _check_slack_modes(pipe, z, d, gub, c)
    assert eta_ref.shape == (4, 0, 2)
    full = pipe.forward(z, d, gub)
    assert full.eta0.sum() > 0 and not full.eta_e_sum.any()


def test_slack_mode_is_checked(m5_case, m5_factors, m5_cont):
    pipe = PrimalPipeline(m5_case, m5_factors, m5_cont)
    with pytest.raises(ConfigError):
        pipe.forward(np.zeros(3), m5_case.d0, m5_case.gub0, with_slacks="full")


# ---------------------------------------------------------------------------
# the factors a pipeline reads

def test_pipeline_reads_the_screened_factors_in_place(m5_case, m5_factors, m5_cont):
    pipe = PrimalPipeline(m5_case, m5_factors, m5_cont)
    for own, held in ((pipe.lodf_ke, m5_factors.lodf), (pipe.phi_gen, m5_factors.phi_gen),
                      (pipe.phi_load, m5_factors.phi_load)):
        assert np.shares_memory(own, held)


def test_pipeline_gathers_the_rows_of_other_outage_sets(mesh8_case):
    # mesh8's line 9 is a bridge, so not every line has a row; tight limits
    # make the line-outage slacks nonzero
    case = dataclasses.replace(mesh8_case, flb=np.full(10, -0.2), fub=np.full(10, 0.2))
    factors = build_factors(case)
    cont = screen_contingencies(case, factors)
    pipe, z, d, gub, _ = _mesh_request(case, 5, seed=3)
    full = pipe.forward(z, d, gub)
    assert full.eta_e.any()
    for ke in (cont.line_contingencies[::-1], cont.line_contingencies[1::3]):
        sub = PrimalPipeline(case, factors, ContingencySet(cont.gen_contingencies, ke))
        cols = [cont.line_contingencies.index(k) for k in ke]
        assert np.array_equal(sub.forward(z, d, gub).eta_e, full.eta_e[:, cols])


def test_pipeline_rejects_an_islanding_outage(mesh8_case):
    factors = build_factors(mesh8_case)
    assert factors.islanding[9]
    with pytest.raises(ConfigError, match="island"):
        PrimalPipeline(mesh8_case, factors, ContingencySet((0,), (0, 9)))


def test_setup_holds_each_factor_once():
    """The factors, the screened set and a pipeline together hold little
    beyond the LODF rows and the two flow maps: no PTDF and no second LODF."""
    case = make_ring_mesh(grid_seed=3, n_bus=250, n_chords=60, n_gen=6, n_load=40)
    tracemalloc.start()
    try:
        factors = build_factors(case)
        pipe = PrimalPipeline(case, factors, screen_contingencies(case, factors))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert pipe.ke.size == case.n_line >= 300
    need = pipe.lodf_ke.nbytes + pipe.phi_gen.nbytes + pipe.phi_load.nbytes
    assert held <= 1.1 * need, f"held {held} B for {need} B of factors"


def test_training_path_memory_does_not_grow_with_outages():
    """One training-path forward and objective gradient on 128 rows of a
    210-line mesh with all 210 outages screened in: a single (128, 210, 210)
    float64 array would take 45 MB."""
    case = make_ring_mesh(grid_seed=1, n_bus=150, n_chords=60, n_gen=6, n_load=75)
    pipe, z, d, gub, c = _mesh_request(case, 128, seed=1)
    assert pipe.ke.size == case.n_line == 210
    tracemalloc.start()
    try:
        state = pipe.forward(z, d, gub, with_slacks="sums")
        pipe.objective_grads(state, c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6, f"peak {peak / 1e6:.1f} MB"
