"""Workload definitions: network, sizes and the reason each one exists.

The network of each workload is fixed (a builtin case or a synthetic mesh
drawn from a fixed grid seed), so every run times the same shapes; the run's
``--seed`` drives the sampled instances, the network initialisation and the
minibatch stream.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from reference import injection_sensitivities


@dataclass(frozen=True)
class Workload:
    """Sizes of one workload.  Every timed phase is cut into blocks of
    about 0.05-0.6 s, each scaled to nominal host speed (see hostref.py)."""

    name: str
    why: str
    # sampling: n_blocks calls of sample_dataset, block_size instances each;
    # the first n_train instances train, the next n_test are held out.  The
    # data_blocks that hold them run before training, the rest among the
    # serving blocks
    block_size: int
    n_blocks: int
    n_train: int
    n_test: int
    # training: one train_pdl call at batch 8, timed per outer iteration
    K: int
    L: int
    # serving: single requests and batches of serve_batch, cycling over the
    # held-out set; each timed block holds single_chunk requests or
    # batch_chunk batches
    serve_batch: int
    single_chunk: int
    single_blocks: int
    batch_chunk: int
    batch_blocks: int
    # reference-solver subset (0: the case exceeds the solver's size limit)
    n_oracle: int = 0
    # builtin case name, or mesh parameters
    builtin: str | None = None
    mesh: dict | None = None

    @property
    def data_blocks(self) -> int:
        return min(self.n_blocks, -(-(self.n_train + self.n_test) // self.block_size))


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="micro5-paper",
            why="bundled 5-bus case at the scaled-experiment sizes: tiny arrays, so "
                "Python and numpy call overhead in nn and layers dominate",
            block_size=125, n_blocks=40, n_train=500, n_test=128,
            K=10, L=200,
            serve_batch=32, single_chunk=128, single_blocks=40,
            batch_chunk=100, batch_blocks=40,
            n_oracle=6, builtin="micro5"),
        Workload(
            name="mesh-lines",
            why="150-bus mesh with 210 lines, all outages screened in: the "
                "(batch, outage, line) slack arrays dominate time and memory",
            block_size=32, n_blocks=40, n_train=128, n_test=64,
            K=12, L=40,
            serve_batch=32, single_chunk=64, single_blocks=80,
            batch_chunk=3, batch_blocks=60,
            mesh=dict(grid_seed=1, n_bus=150, n_chords=60, n_gen=6, n_load=75)),
        Workload(
            name="mesh-gens",
            why="30-bus mesh with 12 generators: the exponential solvability screen "
                "and the outage bisection dominate, slacks are small",
            block_size=1, n_blocks=64, n_train=16, n_test=16,
            K=10, L=150,
            serve_batch=16, single_chunk=128, single_blocks=32,
            batch_chunk=64, batch_blocks=32,
            mesh=dict(grid_seed=2, n_bus=30, n_chords=10, n_gen=12, n_load=15)),
    )
}


def mesh_case_dict(grid_seed: int, n_bus: int, n_chords: int, n_gen: int,
                   n_load: int) -> dict:
    """A meshed ring with random chords in the case-file schema.

    Generator capacity is twice the base load, split unevenly, so the loss of
    any unit is recoverable on most sampled instances.  Line limits sit 30%
    above the base-case flows of a proportional dispatch, so outages push
    some lines over their limits and the slack terms are exercised.
    """
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
    cost = rng.uniform(3000.0, 4500.0, n_gen)
    susceptance = rng.uniform(5.0, 15.0, n_line)

    flows = injection_sensitivities(
        n_bus, np.array(line_from), np.array(line_to), susceptance, 0,
        np.concatenate([gen_bus, load_bus]))
    g = glb + (d0.sum() - glb.sum()) * (cap - glb) / (cap - glb).sum()
    f0 = flows[:, :n_gen] @ g - flows[:, n_gen:] @ d0
    limit = np.maximum(1.3 * np.abs(f0), 0.2)
    return {
        "name": f"mesh{n_bus}x{n_line}g{n_gen}",
        "base_mva": 100.0,
        "slack_bus": 0,
        "penalty_Pi": 1500.0,
        "buses": [{"id": i} for i in range(n_bus)],
        "generators": [
            {"bus": int(gen_bus[i]), "glb": float(glb[i]), "gub": float(cap[i]),
             "cost": float(cost[i]), "gamma": 0.8}
            for i in range(n_gen)],
        "lines": [
            {"from": line_from[k], "to": line_to[k],
             "susceptance": float(susceptance[k]),
             "flb": -float(limit[k]), "fub": float(limit[k])}
            for k in range(n_line)],
        "loads": [{"bus": int(load_bus[j]), "d0": float(d0[j])} for j in range(n_load)],
    }


def write_case_file(workload: Workload, path) -> str:
    """Write the workload's mesh as a JSON case file; returns the case spec
    to load (a builtin name or the file path)."""
    if workload.builtin:
        return workload.builtin
    with open(path, "w") as fh:
        json.dump(mesh_case_dict(**workload.mesh), fh)
    return str(path)
