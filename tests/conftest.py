import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from scopflearn.cases import micro5, triangle3
from scopflearn.grid import GridCase, build_factors, screen_contingencies


@pytest.fixture(scope="session")
def tri_case():
    return triangle3()


@pytest.fixture(scope="session")
def tri_factors(tri_case):
    return build_factors(tri_case)


@pytest.fixture(scope="session")
def tri_cont(tri_case, tri_factors):
    return screen_contingencies(tri_case, tri_factors)


@pytest.fixture(scope="session")
def m5_case():
    return micro5()


@pytest.fixture(scope="session")
def m5_factors(m5_case):
    return build_factors(m5_case)


@pytest.fixture(scope="session")
def m5_cont(m5_case, m5_factors):
    return screen_contingencies(m5_case, m5_factors)


def make_two_bus():
    """Single line 0->1, generator at bus 0 serving a load at bus 1."""
    return GridCase(
        n_bus=2,
        gen_bus=[0],
        glb=[0.0],
        gub0=[2.0],
        c0=[1000.0],
        gamma=[1.0],
        line_from=[0],
        line_to=[1],
        susceptance=[1.0],
        flb=[-2.0],
        fub=[2.0],
        load_bus=[1],
        d0=[1.0],
        slack_bus=0,
        name="twobus",
    )


def make_mesh8(seed=7):
    """8-bus mesh with a radial spur (bus 7), mixed susceptances."""
    rng = np.random.default_rng(seed)
    line_from = [0, 0, 1, 1, 2, 3, 4, 5, 2, 6]
    line_to = [1, 2, 2, 3, 4, 4, 5, 0, 6, 7]
    n_line = len(line_from)
    return GridCase(
        n_bus=8,
        gen_bus=[0, 3, 5],
        glb=[0.0, 0.0, 0.0],
        gub0=[2.0, 1.5, 1.0],
        c0=[900.0, 1500.0, 2400.0],
        gamma=[0.7, 0.7, 0.7],
        line_from=line_from,
        line_to=line_to,
        susceptance=list(rng.uniform(2.0, 12.0, n_line)),
        flb=[-1.5] * n_line,
        fub=[1.5] * n_line,
        load_bus=[1, 2, 4, 6, 7],
        d0=[0.2, 0.3, 0.25, 0.15, 0.1],
        slack_bus=0,
        name="mesh8",
    )


@pytest.fixture(scope="session")
def mesh8_case():
    return make_mesh8()


def make_ring_mesh(grid_seed, n_bus, n_chords, n_gen, n_load):
    """A ring of n_bus buses plus n_chords random chords, so every line
    outage keeps the network connected.  Generator capacity is twice the base
    load; line limits sit 30% above the base-case flows of a proportional
    dispatch (at least 0.2 p.u.), so outages overload some lines."""
    rng = np.random.default_rng(grid_seed)
    line_from = list(range(n_bus))
    line_to = [(i + 1) % n_bus for i in range(n_bus)]
    seen = {tuple(sorted(p)) for p in zip(line_from, line_to)}
    while len(line_from) < n_bus + n_chords:
        a, b = sorted(int(v) for v in rng.choice(n_bus, 2, replace=False))
        if (a, b) not in seen:
            seen.add((a, b))
            line_from.append(a)
            line_to.append(b)
    n_line = len(line_from)
    gen_bus = np.sort(rng.choice(n_bus, n_gen, replace=False))
    load_bus = np.sort(rng.choice(n_bus, n_load, replace=False))
    d0 = rng.uniform(0.5, 1.5, n_load) * 10.0 / n_load
    cap = rng.uniform(0.8, 1.2, n_gen)
    cap = cap / cap.sum() * 2.0 * d0.sum()
    glb = 0.1 * cap
    unlimited = GridCase(
        n_bus=n_bus, gen_bus=gen_bus, glb=glb, gub0=cap,
        c0=rng.uniform(3000.0, 4500.0, n_gen), gamma=np.full(n_gen, 0.8),
        line_from=line_from, line_to=line_to,
        susceptance=rng.uniform(5.0, 15.0, n_line),
        flb=np.full(n_line, -np.inf), fub=np.full(n_line, np.inf),
        load_bus=load_bus, d0=d0, slack_bus=0, name=f"ring{n_bus}x{n_line}")
    factors = build_factors(unlimited)
    g = glb + (d0.sum() - glb.sum()) * (cap - glb) / (cap - glb).sum()
    f0 = factors.phi_load @ d0 - factors.phi_gen @ g
    limit = np.maximum(1.3 * np.abs(f0), 0.2)
    return dataclasses.replace(unlimited, flb=-limit, fub=limit)


def assert_views_of(flat, arrays):
    """Each array is a writeable view of the owned buffer flat, the arrays
    laid end to end in order and covering it."""
    assert flat.dtype == np.float64 and flat.flags.c_contiguous and flat.flags.owndata
    offset = 0
    for a in arrays:
        assert a.base is flat and a.flags.c_contiguous and a.flags.writeable
        assert a.ctypes.data == flat.ctypes.data + offset * flat.itemsize
        offset += a.size
    assert offset == flat.size


# micro5 dispatch caps under which no dispatch survives the loss of unit 0:
# at base load, 1.6 p.u., the other two units reach 0.75 p.u. at most
M5_UNCOVERABLE_GUB = (1.0, 0.40, 0.35)


# the ways a checkpoint file can be refused by load_checkpoint for what it
# holds: the previous format, a stored bisection count the pipeline does not
# accept, dims that disagree with the primal sizes, a flat buffer of the
# wrong length or of sizes far beyond the file's length, a primal network
# without sizes
BAD_CHECKPOINTS = ("format_1", "bisect_iters_0", "bisect_iters_53", "bisect_iters_float",
                   "bisect_iters_bool", "dim_x", "n_gen", "short_flat", "huge_sizes",
                   "no_sizes")


def write_checkpoint(path, fault=None):
    """A small penalty checkpoint (sizes 4, 6, 2; bisect_iters 25), or one
    with the given fault of BAD_CHECKPOINTS."""
    from scopflearn.nn import AdamState, init_mlp
    from scopflearn.storage import (CHECKPOINT_MAGIC, Checkpoint, read_blob,
                                    save_checkpoint, write_blob)

    primal = init_mlp((4, 6, 2), np.random.default_rng(46))
    fields = dict(method="penalty", case_name="t", dim_x=4, n_gen=2, primal=primal,
                  primal_adam=AdamState.for_params(primal), trainer={"bisect_iters": 25})
    fields.update({
        "bisect_iters_0": {"trainer": {"bisect_iters": 0}},
        "bisect_iters_53": {"trainer": {"bisect_iters": 53}},
        "bisect_iters_float": {"trainer": {"bisect_iters": 25.0}},
        "bisect_iters_bool": {"trainer": {"bisect_iters": True}},
        "dim_x": {"dim_x": 5},
        "n_gen": {"n_gen": 3},
    }.get(fault, {}))
    save_checkpoint(path, Checkpoint(**fields))
    if fault == "format_1":
        path.write_bytes(b"SCLCKPT\x01" + path.read_bytes()[8:])
    elif fault in ("short_flat", "huge_sizes", "no_sizes"):
        meta, arrays, _ = read_blob(path, CHECKPOINT_MAGIC)
        names = [spec["name"] for spec in meta.pop("arrays")]
        if fault == "short_flat":
            arrays["p.flat"] = arrays["p.flat"][:-1]
        elif fault == "huge_sizes":   # 8e12 parameters, for the stored 44
            meta["primal"]["sizes"] = [4, 10**6, 10**6, 2]
        else:   # consistent with itself: no layers, so empty buffers
            meta["primal"]["sizes"] = []
            arrays = {name: arr[:0] for name, arr in arrays.items()}
        write_blob(path, CHECKPOINT_MAGIC, meta, [(n, arrays[n]) for n in names])
    return path


# the ways a dataset's arrays can disagree with its metadata: an array whose
# rows or columns differ from the stored n, n_load or n_gen, a stored n_load
# that differs from d's columns, label arrays in a file not flagged labeled
BAD_DATASETS = ("c_rows", "gub_cols", "seeds_len", "g_star_rows", "obj_star_len",
                "tol_certificate_len", "n_load", "unflagged_labels")


def write_labeled_dataset(path, fault=None):
    """A labeled three-record micro5 dataset at the base point, or one with
    the given fault of BAD_DATASETS."""
    from scopflearn.cases import micro5
    from scopflearn.storage import DATASET_MAGIC, Dataset, read_blob, write_blob, write_dataset

    case, n = micro5(), 3
    arrays = dict(d=np.tile(case.d0, (n, 1)), c=np.tile(case.c0, (n, 1)),
                  gub=np.tile(case.gub0, (n, 1)), seeds=np.arange(n, dtype=np.uint64),
                  g_star=np.tile(case.gub0 / 2, (n, 1)), obj_star=np.arange(1.0, n + 1),
                  tol_certificate=np.full(n, 1e-3))
    arrays.update({
        "c_rows": {"c": arrays["c"][:-1]},
        "gub_cols": {"gub": arrays["gub"][:, :-1]},
        "seeds_len": {"seeds": arrays["seeds"][:-1]},
        "g_star_rows": {"g_star": arrays["g_star"][:-1]},
        "obj_star_len": {"obj_star": arrays["obj_star"][:-1]},
        "tol_certificate_len": {"tol_certificate": np.append(arrays["tol_certificate"], 0.0)},
    }.get(fault, {}))
    write_dataset(path, Dataset(case_name=case.name, seed=0, **arrays))
    if fault in ("n_load", "unflagged_labels"):
        meta, stored, flags = read_blob(path, DATASET_MAGIC)
        names = [spec["name"] for spec in meta.pop("arrays")]
        if fault == "n_load":
            meta["n_load"] -= 1
        else:
            flags = 0
        write_blob(path, DATASET_MAGIC, meta, [(name, stored[name]) for name in names], flags=flags)
    return path
