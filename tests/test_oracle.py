import time

import numpy as np
import pytest

from scopflearn.errors import ConfigError, DataError
from scopflearn.grid import GridCase, build_factors, screen_contingencies
from scopflearn.layers import SLACK_BLOCK, PrimalPipeline
from scopflearn.oracle import (
    ORACLE_BISECT_ITERS,
    OracleResult,
    label_dataset,
    oracle_objective,
    oracle_solve,
)
from scopflearn.sampling import Instance, PerturbationConfig, input_vector, sample_dataset
from scopflearn.storage import dataset_from_instances

from conftest import M5_UNCOVERABLE_GUB
from oracles import full_objective, outage_screen, reference_slacks


@pytest.fixture(scope="module")
def tri():
    from scopflearn.cases import triangle3
    case = triangle3()
    factors = build_factors(case)
    cont = screen_contingencies(case, factors)
    return case, factors, cont


@pytest.fixture(scope="module")
def m5():
    from scopflearn.cases import micro5
    case = micro5()
    factors = build_factors(case)
    cont = screen_contingencies(case, factors)
    return case, factors, cont


def test_objective_matches_independent_reimplementation(m5):
    case, factors, cont = m5
    pipe = PrimalPipeline(case, factors, cont, t=ORACLE_BISECT_ITERS)
    cfg = PerturbationConfig(seed=30)
    instances, _ = sample_dataset(case, cfg, 5, cont=cont)
    rng = np.random.default_rng(30)
    checked = 0
    for inst in instances:
        for _ in range(60):
            # random balanced dispatch on the slice
            w = rng.uniform(0.05, 1.0, case.n_gen)
            spare = inst.d_total - case.glb.sum()
            g = case.glb + w * (spare / w.sum())
            if np.any(g > inst.gub) or np.any(g < case.glb):
                continue
            ours = oracle_objective(g, inst, pipe)[0]
            ref = full_objective(case, cont.gen_contingencies,
                                 cont.line_contingencies, g, inst.d, inst.c,
                                 inst.gub)
            if np.isinf(ref) or np.isinf(ours):
                assert np.isinf(ref) == np.isinf(ours)
            else:
                assert abs(ours - ref) <= 1e-9 * max(1.0, abs(ref))
            checked += 1
    assert checked >= 100


def test_objective_simple_cases(tri):
    case, factors, cont = tri
    pipe = PrimalPipeline(case, factors, cont, t=ORACLE_BISECT_ITERS)
    cfg = PerturbationConfig(mu=0.0, seed=0)
    instances, _ = sample_dataset(case, cfg, 1, cont=cont)
    inst = instances[0]
    # ample limits: objective reduces to the linear cost
    g = np.array([0.6, 0.4])
    assert np.isclose(oracle_objective(g, inst, pipe)[0], inst.c @ g)


def test_oracle_matches_enumeration_two_gen(tri):
    case, factors, cont = tri
    pipe = PrimalPipeline(case, factors, cont, t=ORACLE_BISECT_ITERS)
    cfg = PerturbationConfig(seed=31)
    instances, _ = sample_dataset(case, cfg, 10, cont=cont)
    res_hist = []
    for inst in instances:
        res = oracle_solve(inst, case, factors, cont, resolution=1e-3)
        assert res.feasible
        # independent dense enumeration of the 1-D slice
        d = inst.d_total
        lo = max(case.glb[0], d - inst.gub[1])
        hi = min(inst.gub[0], d - case.glb[1])
        g0 = np.linspace(lo, hi, 4001)
        grid = np.stack([g0, d - g0], axis=1)
        vals = oracle_objective(grid, inst, pipe)
        best_enum = float(vals.min())
        assert res.obj_star <= best_enum + 1e-9
        assert best_enum - res.obj_star <= res.tol_certificate
        res_hist.append(res)
    # determinism
    again = oracle_solve(instances[0], case, factors, cont, resolution=1e-3)
    assert np.array_equal(again.g_star, res_hist[0].g_star)
    assert again.obj_star == res_hist[0].obj_star


def test_oracle_prefers_cheap_generator(tri):
    case, factors, cont = tri
    cfg = PerturbationConfig(mu=0.0, seed=0)
    instances, _ = sample_dataset(case, cfg, 1, cont=cont)
    inst = instances[0]
    res = oracle_solve(inst, case, factors, cont, resolution=1e-3)
    # gen 0 is half the price and nothing congests at base load
    assert res.g_star[0] > res.g_star[1]
    assert np.isclose(res.g_star.sum(), inst.d_total, atol=1e-9)


def test_oracle_respects_congestion():
    # one tight line forces part of the load onto the expensive generator
    case = GridCase(
        n_bus=3,
        gen_bus=[0, 1],
        glb=[0.0, 0.0],
        gub0=[2.0, 2.0],
        c0=[1000.0, 2000.0],
        gamma=[1.0, 1.0],
        line_from=[0, 0, 1],
        line_to=[1, 2, 2],
        susceptance=[1.0, 1.0, 1.0],
        flb=[-0.3, -0.3, -0.3],
        fub=[0.3, 0.3, 0.3],
        load_bus=[2],
        d0=[0.6],
        slack_bus=0,
        name="congested",
    )
    factors = build_factors(case)
    cont = screen_contingencies(case, factors)
    pipe = PrimalPipeline(case, factors, cont, t=ORACLE_BISECT_ITERS)
    cfg = PerturbationConfig(mu=0.0, seed=0)
    instances, _ = sample_dataset(case, cfg, 1, cont=cont)
    inst = instances[0]
    res = oracle_solve(inst, case, factors, cont, resolution=1e-3)
    # all-on-gen0 pushes 0.4 p.u. through the (0,2)+(0,1,2) paths: line (0,2)
    # would carry 0.4 > 0.3, so the optimum splits generation
    all_cheap = oracle_objective(np.array([0.6, 0.0]), inst, pipe)[0]
    assert res.obj_star < all_cheap
    assert res.g_star[1] > 0.05


def test_oracle_refuses_large_cases(m5):
    case, factors, cont = m5
    big = GridCase(
        n_bus=3,
        gen_bus=[0, 0, 1, 1, 2, 2],
        glb=[0.0] * 6,
        gub0=[1.0] * 6,
        c0=[1.0] * 6,
        gamma=[1.0] * 6,
        line_from=[0, 0, 1],
        line_to=[1, 2, 2],
        susceptance=[1.0, 1.0, 1.0],
        flb=[-1.0] * 3,
        fub=[1.0] * 3,
        load_bus=[2],
        d0=[1.0],
        slack_bus=0,
    )
    bf = build_factors(big)
    bc = screen_contingencies(big, bf)
    cfg = PerturbationConfig(mu=0.0, seed=0)
    instances, _ = sample_dataset(big, cfg, 1, cont=bc)
    with pytest.raises(DataError, match="5 generators"):
        oracle_solve(instances[0], big, bf, bc)


def test_label_dataset_roundtrip(tri, tmp_path):
    case, factors, cont = tri
    cfg = PerturbationConfig(seed=32)
    instances, _ = sample_dataset(case, cfg, 5, cont=cont)
    ds = dataset_from_instances(case.name, 32, instances)
    labeled = label_dataset(ds, case, factors, cont, resolution=2e-3)
    assert labeled.labeled
    assert np.all(np.isfinite(labeled.obj_star))
    pipe = PrimalPipeline(case, factors, cont, t=ORACLE_BISECT_ITERS)
    for i, inst in enumerate(labeled.instances(case)):
        # labels are feasible dispatches achieving their stated objective
        assert abs(labeled.g_star[i].sum() - inst.d_total) <= 1e-9
        val = oracle_objective(labeled.g_star[i], inst, pipe)[0]
        assert np.isclose(val, labeled.obj_star[i], rtol=1e-12)
    # relabeling is idempotent
    again = label_dataset(ds, case, factors, cont, resolution=2e-3)
    assert np.array_equal(again.g_star, labeled.g_star)


def test_micro5_oracle_speed(m5):
    case, factors, cont = m5
    cfg = PerturbationConfig(seed=33)
    instances, _ = sample_dataset(case, cfg, 3, cont=cont)
    t0 = time.perf_counter()
    for inst in instances:
        res = oracle_solve(inst, case, factors, cont, resolution=1e-3)
        assert res.feasible
    elapsed = (time.perf_counter() - t0) / 3
    assert elapsed < 3.0  # 100 instances must fit in 5 minutes


def test_lattice_blocks_do_not_change_labels(m5, monkeypatch):
    # the lattice passes run in blocks of CHUNK rows; block boundaries at
    # odd offsets, and a lattice far larger than one block, give the same
    # labels as a single block
    import scopflearn.oracle as oracle

    case, factors, cont = m5
    inst = sample_dataset(case, PerturbationConfig(seed=34), 1, cont=cont)[0][0]
    whole = oracle_solve(inst, case, factors, cont, resolution=4e-3)
    monkeypatch.setattr(oracle, "CHUNK", 997)
    blocked = oracle_solve(inst, case, factors, cont, resolution=4e-3)
    assert np.array_equal(whole.g_star, blocked.g_star)
    assert (whole.obj_star, whole.evals) == (blocked.obj_star, blocked.evals)


def test_lattice_blocks_cover_every_row(monkeypatch):
    import scopflearn.oracle as oracle

    monkeypatch.setattr(oracle, "CHUNK", 7)
    for n in (0, 1, 6, 7, 8, 22):
        g = np.arange(2.0 * n).reshape(n, 2)
        blocks = oracle._blocks(g)
        assert blocks and all(b.shape[0] <= 7 for b in blocks)
        assert np.array_equal(np.concatenate(blocks), g)


@pytest.mark.parametrize("resolution", [0.0, -1e-3, np.nan, np.inf])
def test_oracle_refuses_a_resolution_not_positive_and_finite(tri, resolution):
    case, factors, cont = tri
    inst = sample_dataset(case, PerturbationConfig(seed=0), 1, cont=cont)[0][0]
    with pytest.raises(ConfigError, match="resolution"):
        oracle_solve(inst, case, factors, cont, resolution=resolution)


def test_cheap_lower_bound_above_one_slack_block(m5):
    """The pruning bound on one lattice block larger than one slack block
    (the screened pairs run there) is the cost plus the penalized base-case
    and line-outage slacks of fresh angle solves, and does not exceed F."""
    import scopflearn.oracle as oracle

    case, factors, cont = m5
    pipe = PrimalPipeline(case, factors, cont, t=ORACLE_BISECT_ITERS)
    inst = sample_dataset(case, PerturbationConfig(seed=37), 1, cont=cont)[0][0]
    lattice = oracle._slice_lattice(case.glb, inst.gub, inst.d_total, 1.5e-2)
    (block,) = oracle._blocks(lattice)
    one_block = SLACK_BLOCK // (pipe.ke.size * case.n_line)
    assert one_block == 2621 < block.shape[0] <= oracle.CHUNK
    bound = oracle._cheap_lower_bound(pipe, inst, block)
    ref = np.empty(block.shape[0])
    line_slack = 0.0
    for i, g in enumerate(block):
        eta0, _, eta_e = reference_slacks(case, g, [], pipe.ke, inst.d)
        ref[i] = inst.c @ g + case.Pi * (eta0.sum() + eta_e.sum())
        line_slack += eta_e.sum()
    assert line_slack > 0
    assert np.all(np.abs(bound - ref) <= 1e-12 * np.abs(ref))
    # F adds the generator-outage slacks; where they are zero the two differ
    # by rounding only, within the 1e-9 the pruning allows
    objective = oracle_objective(block, inst, pipe)
    assert np.all(bound <= objective + 1e-9)
    assert np.any(np.isfinite(objective) & (bound < objective - 1.0))


@pytest.mark.parametrize("name, spacing, index", [("micro5", 1.5e-2, 0),
                                                  ("triangle3", 1e-4, 1)])
def test_cheap_lower_bound_is_f_without_generator_outage_slacks(name, spacing, index,
                                                                 monkeypatch):
    """On lattice blocks of three shapes -- within one slack block (the
    dense form), the whole lattice above one (the screened pairs), and
    blocks of 997 rows -- the bound never exceeds F on the same block, bit
    for bit, and is +inf exactly where the former outage screen rejects."""
    import scopflearn.oracle as oracle
    from scopflearn import cases

    case = getattr(cases, name)()
    factors = build_factors(case)
    cont = screen_contingencies(case, factors)
    pipe = PrimalPipeline(case, factors, cont, t=ORACLE_BISECT_ITERS)
    inst = sample_dataset(case, PerturbationConfig(seed=35), index + 1, cont=cont)[0][index]
    lattice = oracle._slice_lattice(case.glb, inst.gub, inst.d_total, spacing)
    one_block = SLACK_BLOCK // (pipe.ke.size * case.n_line)
    assert one_block < lattice.shape[0] <= oracle.CHUNK
    monkeypatch.setattr(oracle, "CHUNK", 997)
    rejected = 0
    for block in [lattice[:100], lattice, *oracle._blocks(lattice)]:
        bound = oracle._cheap_lower_bound(pipe, inst, block)
        objective = oracle_objective(block, inst, pipe)
        assert np.all(bound <= objective)
        screened = outage_screen(case, cont.gen_contingencies, block, inst.d_total, inst.gub)
        assert np.array_equal(np.isinf(bound), ~screened)
        rejected += int((~screened).sum())
    assert rejected > 0


def test_oracle_flags_an_instance_no_dispatch_can_secure(m5):
    case, factors, cont = m5
    gub = np.array(M5_UNCOVERABLE_GUB)
    bad = Instance(d=case.d0.copy(), c=case.c0.copy(), gub=gub,
                   x=input_vector(case, case.d0, case.c0, gub))
    res = oracle_solve(bad, case, factors, cont, resolution=1e-3)
    assert not res.feasible and res.obj_star == np.inf
    assert np.isnan(res.g_star).all() and np.isnan(res.tol_certificate)
    # every lattice row fails the outage screen, so only the probe points
    # are evaluated in full: a few hundred of 11,476 rows
    import scopflearn.oracle as oracle
    lattice = oracle._slice_lattice(case.glb, gub, bad.d_total, 1e-3)
    assert res.evals < lattice.shape[0] / 20

    good = sample_dataset(case, PerturbationConfig(seed=36), 1, cont=cont)[0][0]
    ds = dataset_from_instances(case.name, 36, [good, bad])
    labeled = label_dataset(ds, case, factors, cont, resolution=1.5e-2)
    assert np.isfinite(labeled.obj_star[0]) and np.isfinite(labeled.g_star[0]).all()
    assert np.isnan(labeled.obj_star[1]) and np.isnan(labeled.tol_certificate[1])
    assert np.isnan(labeled.g_star[1]).all()
