import json

import numpy as np
import pytest

from scopflearn.errors import DataError
from scopflearn.grid import (
    GridCase,
    branch_incidence,
    build_factors,
    build_lodf,
    build_ptdf,
    case_from_dict,
    case_to_dict,
    load_case,
    save_case,
    screen_contingencies,
)

from conftest import make_mesh8, make_two_bus
from oracles import bus_demand, case_flows, case_flows_without_line


def test_two_bus_ptdf():
    case = make_two_bus()
    ptdf = build_ptdf(case)
    assert np.allclose(ptdf, [[0.0, 1.0]])
    # 1 p.u. generated at bus 0 serving 1 p.u. load at bus 1
    w = np.array([-1.0, 1.0])
    assert np.isclose(ptdf @ w, 1.0).all()


def test_triangle_ptdf_hand_values(tri_case):
    # withdrawal of 1 p.u. at bus 1: flows (2/3, 1/3, -1/3) on lines
    # (0,1), (0,2), (1,2) -- solved by hand from the 2x2 reduced system
    col = build_ptdf(tri_case)[:, 1]
    assert np.allclose(col, [2 / 3, 1 / 3, -1 / 3])


def test_ptdf_zero_withdrawal_zero_flow(tri_case):
    assert np.all(build_ptdf(tri_case) @ np.zeros(3) == 0.0)


def test_ptdf_slack_column_zero(tri_case, m5_case):
    assert np.all(build_ptdf(tri_case)[:, 0] == 0.0)
    assert np.all(build_ptdf(m5_case)[:, 0] == 0.0)


def test_flow_maps_are_ptdf_columns(m5_case, m5_factors, mesh8_case):
    ptdf = build_ptdf(m5_case)
    assert np.array_equal(m5_factors.phi_gen, ptdf[:, m5_case.gen_bus])
    assert np.array_equal(m5_factors.phi_load, ptdf[:, m5_case.load_bus])
    # C order keeps the flow products' BLAS summation order
    factors = build_factors(mesh8_case)
    for a in (factors.phi_gen, factors.phi_load, factors.lodf):
        assert a.flags.c_contiguous


@pytest.mark.parametrize("maker", [make_two_bus, make_mesh8])
def test_ptdf_kcl(maker):
    case = maker()
    ptdf = build_ptdf(case)
    A = branch_incidence(case)
    rng = np.random.default_rng(0)
    for _ in range(20):
        w = rng.normal(size=case.n_bus)
        w -= w.mean()  # balanced withdrawal
        f = ptdf @ w
        assert np.max(np.abs(A.T @ f + w)) <= 1e-9


def test_ptdf_matches_direct_solve(mesh8_case):
    ptdf = build_ptdf(mesh8_case)
    rng = np.random.default_rng(1)
    g = rng.uniform(0, 1, mesh8_case.n_gen)
    d = rng.uniform(0, 0.5, mesh8_case.n_load)
    d = d * (g.sum() / d.sum())
    w = bus_demand(mesh8_case, d) - np.zeros(mesh8_case.n_bus)
    np.add.at(w, mesh8_case.gen_bus, -g)
    assert np.allclose(ptdf @ w, case_flows(mesh8_case, g, d), atol=1e-10)


def test_lodf_diagonal_minus_one(m5_case, mesh8_case):
    lodf, islanding = build_lodf(m5_case, build_ptdf(m5_case))
    assert not islanding.any()
    assert np.allclose(np.diag(lodf), -1.0)
    # one row per line that does not island the network, -1 on its own line
    lodf, islanding = build_lodf(mesh8_case, build_ptdf(mesh8_case))
    outaged = np.flatnonzero(~islanding)
    assert lodf.shape == (outaged.size, mesh8_case.n_line)
    assert np.all(lodf[np.arange(outaged.size), outaged] == -1.0)


def test_lodf_triangle_hand_values(tri_case, tri_factors):
    # outage of line (0,1): flow reroutes entirely via bus 2
    lodf = tri_factors.lodf
    assert np.isclose(lodf[0, 1], 1.0)
    assert np.isclose(lodf[0, 2], -1.0)


def test_lodf_radial_two_bus_islanding():
    case = make_two_bus()
    ptdf = build_ptdf(case)
    lodf, islanding = build_lodf(case, ptdf)
    assert islanding[0]
    assert lodf.shape == (0, 1)


@pytest.mark.parametrize("maker", [make_mesh8])
def test_lodf_matches_outage_resolve(maker):
    case = maker()
    factors = build_factors(case)
    cont = screen_contingencies(case, factors)
    rng = np.random.default_rng(2)
    for _ in range(5):
        g = rng.uniform(0, 0.8, case.n_gen)
        d = rng.uniform(0.1, 0.4, case.n_load)
        g = g * (d.sum() / g.sum())
        f = factors.phi_load @ d - factors.phi_gen @ g
        assert cont.line_contingencies == tuple(np.flatnonzero(~factors.islanding))
        for k, lodf in zip(cont.line_contingencies, factors.lodf):
            post = f + f[k] * lodf
            ref = case_flows_without_line(case, k, g, d)
            assert abs(post[k]) <= 1e-9
            mask = np.arange(case.n_line) != k
            assert np.max(np.abs(post[mask] - ref[mask])) <= 1e-8


def test_screening_rules(m5_factors):
    case = GridCase(
        n_bus=3,
        gen_bus=[0, 1, 2, 0],
        glb=[0.0, 0.5, -0.1, 0.0],
        gub0=[1.0, 0.5, 1.0, 1.0],
        c0=[1.0, 1.0, 1.0, 1.0],
        gamma=[1.0, 1.0, 1.0, 1.0],
        line_from=[0, 0, 1],
        line_to=[1, 2, 2],
        susceptance=[1.0, 1.0, 1.0],
        flb=[-1.0, -1.0, -1.0],
        fub=[1.0, 1.0, 1.0],
        load_bus=[2],
        d0=[1.0],
        slack_bus=0,
    )
    cont = screen_contingencies(case, build_factors(case))
    # gen 1 has zero capacity, gen 2 has a negative lower bound
    assert cont.gen_contingencies == (0, 3)
    assert cont.line_contingencies == (0, 1, 2)


def test_screening_excludes_bridge(mesh8_case):
    factors = build_factors(mesh8_case)
    cont = screen_contingencies(mesh8_case, factors)
    # line 9 is the only path to bus 7
    assert 9 not in cont.line_contingencies
    assert factors.islanding[9]


def test_disconnected_network_rejected():
    with pytest.raises(DataError, match="disconnected"):
        GridCase(
            n_bus=4,
            gen_bus=[0],
            glb=[0.0],
            gub0=[1.0],
            c0=[1.0],
            gamma=[1.0],
            line_from=[0, 2],
            line_to=[1, 3],
            susceptance=[1.0, 1.0],
            flb=[-1.0, -1.0],
            fub=[1.0, 1.0],
            load_bus=[1],
            d0=[0.5],
            slack_bus=0,
        )


TWO_BUS = dict(
    n_bus=2, gen_bus=[0], glb=[0.0], gub0=[1.0], c0=[1.0], gamma=[1.0],
    line_from=[0], line_to=[1], susceptance=[1.0], flb=[-1.0], fub=[1.0],
    load_bus=[1], d0=[0.5], slack_bus=0,
)


def test_case_validation_errors():
    base = TWO_BUS
    with pytest.raises(DataError):
        GridCase(**{**base, "glb": [2.0]})
    with pytest.raises(DataError):
        GridCase(**{**base, "susceptance": [-1.0]})
    with pytest.raises(DataError):
        GridCase(**{**base, "flb": [0.5]})
    with pytest.raises(DataError):
        GridCase(**{**base, "slack_bus": 5})
    with pytest.raises(DataError):
        GridCase(**{**base, "Pi": 0.0})
    with pytest.raises(DataError, match="gamma must be nonnegative"):
        GridCase(**{**base, "gamma": [-0.5]})
    assert GridCase(**{**base, "gamma": [0.0]}).gamma[0] == 0.0


@pytest.mark.parametrize("field, value, message", [
    ("gen_bus", [0.5], "gen_bus must hold integer"),
    ("load_bus", [np.nan], "load_bus must hold integer"),
    ("line_to", [1.25], "line_to must hold integer"),
    ("slack_bus", 0.5, "slack_bus must hold integer"),
    ("glb", [np.nan], "glb must be finite"),
    ("gub0", [np.inf], "gub0 must be finite"),
    ("c0", [np.nan], "c0 must be finite"),
    ("gamma", [np.nan], "gamma must be finite"),
    ("susceptance", [np.inf], "susceptance must be finite"),
    ("d0", [np.nan], "d0 must be finite"),
    ("flb", [np.nan], "flow limits"),
    ("Pi", np.inf, "penalty_Pi must be positive and finite"),
])
def test_case_refuses_a_fractional_index_or_non_finite_value(field, value, message):
    with pytest.raises(DataError, match=message):
        GridCase(**{**TWO_BUS, field: value})


def test_case_takes_integral_float_indices_and_infinite_flow_limits():
    case = GridCase(**{**TWO_BUS, "gen_bus": [0.0], "slack_bus": 0.0,
                       "flb": [-np.inf], "fub": [np.inf]})
    assert case.gen_bus.dtype.kind == "i" and case.gen_bus.tolist() == [0]
    assert type(case.slack_bus) is int and case.slack_bus == 0


@pytest.mark.parametrize("edit", [
    lambda c: c.update(penalty_Pi="x"),
    lambda c: c["loads"][0].update(bus="2.5"),
    lambda c: c["buses"][1].update(id=1.5),
    lambda c: c["lines"][0].update(fub="abc"),
], ids=["penalty_Pi_string", "load_bus_fraction", "bus_id_fraction", "fub_string"])
def test_case_file_value_errors_are_data_errors(m5_case, edit):
    data = case_to_dict(m5_case)
    edit(data)
    with pytest.raises(DataError):
        case_from_dict(data)


def test_case_roundtrip(tmp_path, m5_case):
    path = tmp_path / "m5.json"
    save_case(m5_case, path)
    loaded = load_case(path)
    assert loaded.n_bus == m5_case.n_bus
    for attr in ("gen_bus", "glb", "gub0", "c0", "gamma", "line_from", "line_to",
                 "susceptance", "flb", "fub", "load_bus", "d0"):
        assert np.array_equal(getattr(loaded, attr), getattr(m5_case, attr))
    assert loaded.slack_bus == m5_case.slack_bus
    assert loaded.Pi == m5_case.Pi


def test_case_schema_keys(m5_case):
    data = case_to_dict(m5_case)
    assert {"buses", "generators", "lines", "loads", "slack_bus",
            "penalty_Pi", "base_mva"} <= set(data)
    assert {"bus", "glb", "gub", "cost", "gamma"} == set(data["generators"][0])
    assert {"from", "to", "susceptance", "flb", "fub"} == set(data["lines"][0])


def test_malformed_case_file(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(DataError):
        load_case(p)
    p.write_text(json.dumps({"buses": []}))
    with pytest.raises(DataError):
        load_case(p)


def test_bus_demand_batched(m5_case):
    d = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
    out = bus_demand(m5_case, d)
    assert out.shape == (2, m5_case.n_bus)
    assert np.isclose(out[0].sum(), 0.6)
    single = bus_demand(m5_case, d[0])
    assert np.allclose(single, out[0])


def test_factors_immutable(m5_factors):
    for a in (m5_factors.phi_gen, m5_factors.phi_load, m5_factors.lodf, m5_factors.islanding):
        with pytest.raises(ValueError):
            a.flat[0] = 1
