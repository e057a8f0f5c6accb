"""Static network model and linear sensitivity factors.

The DC flow convention used throughout is the withdrawal form

    f = d @ phi_load' - g @ phi_gen'

where phi_gen and phi_load, the PTDF columns of the generator and load
buses, are held once with one LODF row per line outage that keeps the
network connected.  The PTDF column of the slack bus is identically zero.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError

ISLANDING_TOL = 1e-6


def _asarray(x, dtype=float) -> np.ndarray:
    a = np.asarray(x, dtype=dtype)
    a.setflags(write=False)
    return a


def _indices(x, name: str) -> np.ndarray:
    """Integer bus indices; a value that is not integral is refused, never
    truncated."""
    a = np.asarray(x)
    if a.dtype.kind not in "iu":
        a = np.asarray(a, dtype=float)
        if not np.all(np.isfinite(a) & (a == np.round(a))):
            raise DataError(f"{name} must hold integer bus indices")
    return _asarray(a, dtype=int)


@dataclass(frozen=True)
class GridCase:
    """Immutable per-unit network description.

    Arrays are index-aligned: generator i lives at bus ``gen_bus[i]`` with
    bounds ``glb[i] <= g_i <= gub0[i]``, linear cost ``c0[i]`` and droop
    parameter ``gamma[i]``; load unit j draws ``d0[j]`` at ``load_bus[j]``.
    """

    n_bus: int
    gen_bus: np.ndarray
    glb: np.ndarray
    gub0: np.ndarray
    c0: np.ndarray
    gamma: np.ndarray
    line_from: np.ndarray
    line_to: np.ndarray
    susceptance: np.ndarray
    flb: np.ndarray
    fub: np.ndarray
    load_bus: np.ndarray
    d0: np.ndarray
    slack_bus: int
    Pi: float = 1500.0
    base_mva: float = 100.0
    name: str = field(default="case", compare=False)

    def __post_init__(self):
        for attr in ("gen_bus", "load_bus", "line_from", "line_to"):
            object.__setattr__(self, attr, _indices(getattr(self, attr), attr))
        object.__setattr__(self, "slack_bus", int(_indices(self.slack_bus, "slack_bus")))
        for attr in ("glb", "gub0", "c0", "gamma", "susceptance", "flb", "fub", "d0"):
            object.__setattr__(self, attr, _asarray(getattr(self, attr)))
        self._validate()

    def _validate(self):
        n = self.n_bus
        if n < 2:
            raise DataError("case needs at least 2 buses")
        if not (0 <= self.slack_bus < n):
            raise DataError(f"slack_bus {self.slack_bus} out of range for {n} buses")
        for name, idx in (("gen_bus", self.gen_bus), ("load_bus", self.load_bus),
                          ("line_from", self.line_from), ("line_to", self.line_to)):
            if idx.size and (idx.min() < 0 or idx.max() >= n):
                raise DataError(f"{name} contains bus index outside 0..{n - 1}")
        shapes = {
            "generators": (self.gen_bus, self.glb, self.gub0, self.c0, self.gamma),
            "lines": (self.line_from, self.line_to, self.susceptance, self.flb, self.fub),
            "loads": (self.load_bus, self.d0),
        }
        for group, arrays in shapes.items():
            if len({a.shape for a in arrays}) != 1:
                raise DataError(f"inconsistent {group} array lengths")
        if self.n_gen == 0 or self.n_line == 0 or self.n_load == 0:
            raise DataError("case needs at least one generator, line and load")
        # flow limits alone may be infinite: an unconstrained line
        for attr in ("glb", "gub0", "c0", "gamma", "susceptance", "d0"):
            if not np.isfinite(getattr(self, attr)).all():
                raise DataError(f"{attr} must be finite")
        # a negative droop would let the post-outage balance residual fall
        if np.any(self.gamma < 0):
            raise DataError("gamma must be nonnegative")
        if np.any(self.glb > self.gub0):
            raise DataError("generator lower bound exceeds upper bound")
        if np.any(self.susceptance <= 0):
            raise DataError("susceptance must be positive")
        if not np.all((self.flb <= 0) & (self.fub >= 0)):
            raise DataError("flow limits must satisfy flb <= 0 <= fub")
        if np.any(self.line_from == self.line_to):
            raise DataError("self-loop line")
        if not (np.isfinite(self.Pi) and self.Pi > 0):
            raise DataError("penalty_Pi must be positive and finite")
        if not _connected(self.n_bus, self.line_from, self.line_to):
            raise DataError("disconnected network")

    @property
    def n_gen(self) -> int:
        return self.gen_bus.size

    @property
    def n_line(self) -> int:
        return self.line_from.size

    @property
    def n_load(self) -> int:
        return self.load_bus.size

    @property
    def ghat0(self) -> np.ndarray:
        """Base generator capacities gub0 - glb."""
        return self.gub0 - self.glb


@dataclass(frozen=True)
class LinearFactors:
    """Flow maps ``phi_gen`` (n_line, n_gen) and ``phi_load`` (n_line, n_load),
    and line-outage factors.

    ``islanding[k]`` marks bridge lines, whose outage would split the network.
    ``lodf`` has one C-contiguous row per other line, in line order: row j
    spreads the pre-outage flow of line ``np.flatnonzero(~islanding)[j]`` over
    every line, with -1 on that line so its post-outage flow is zero.
    """

    phi_gen: np.ndarray
    phi_load: np.ndarray
    lodf: np.ndarray
    islanding: np.ndarray

    def __post_init__(self):
        for attr in ("phi_gen", "phi_load", "lodf"):
            object.__setattr__(self, attr, _asarray(getattr(self, attr)))
        object.__setattr__(self, "islanding", _asarray(self.islanding, dtype=bool))


@dataclass(frozen=True)
class ContingencySet:
    """Admissible generator and line outage indices after screening."""

    gen_contingencies: tuple
    line_contingencies: tuple

    @property
    def n_gen(self) -> int:
        return len(self.gen_contingencies)

    @property
    def n_line(self) -> int:
        return len(self.line_contingencies)


def _connected(n_bus: int, line_from: np.ndarray, line_to: np.ndarray) -> bool:
    adj = [[] for _ in range(n_bus)]
    for a, b in zip(line_from, line_to):
        adj[a].append(b)
        adj[b].append(a)
    seen = np.zeros(n_bus, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                stack.append(v)
    return bool(seen.all())


def branch_incidence(case: GridCase) -> np.ndarray:
    """Signed line-bus incidence A: +1 at the from bus, -1 at the to bus."""
    A = np.zeros((case.n_line, case.n_bus))
    A[np.arange(case.n_line), case.line_from] = 1.0
    A[np.arange(case.n_line), case.line_to] = -1.0
    return A


def build_ptdf(case: GridCase) -> np.ndarray:
    """Withdrawal-convention PTDF: f = ptdf @ w for balanced withdrawals w.

    Factorizes the reduced bus-susceptance matrix (slack row/column removed)
    against the branch-susceptance incidence rows, then negates so positive
    entries correspond to bus withdrawals rather than injections.
    """
    A = branch_incidence(case)
    b = case.susceptance
    Bbus = A.T @ (b[:, None] * A)
    keep = np.arange(case.n_bus) != case.slack_bus
    reduced = Bbus[np.ix_(keep, keep)]
    rows = (b[:, None] * A)[:, keep]
    try:
        sol = np.linalg.solve(reduced, rows.T).T
    except np.linalg.LinAlgError as exc:
        raise DataError("disconnected network") from exc
    ptdf = np.zeros((case.n_line, case.n_bus))
    ptdf[:, keep] = -sol
    return ptdf


def build_lodf(case: GridCase, ptdf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LODF rows and islanding flags from a withdrawal-convention PTDF.

    The row of outage k is the transfer sensitivity of a unit flow moved
    between the endpoints of line k, scaled by 1/(1 - phi_kk), with -1 on
    line k itself.  Lines with |1 - phi_kk| < ISLANDING_TOL are bridges:
    flagged, and given no row.
    """
    # transfer = withdrawal at the to bus, injection at the from bus
    lines = np.arange(case.n_line)
    denom = 1.0 - (ptdf[lines, case.line_to] - ptdf[lines, case.line_from])
    islanding = np.abs(denom) < ISLANDING_TOL
    keep = np.flatnonzero(~islanding)
    lodf = ptdf.T[case.line_to[keep]]
    lodf -= ptdf.T[case.line_from[keep]]
    lodf /= denom[keep, None]
    lodf[np.arange(keep.size), keep] = -1.0
    return lodf, islanding


def build_factors(case: GridCase) -> LinearFactors:
    ptdf = build_ptdf(case)
    lodf, islanding = build_lodf(case, ptdf)
    # a column gather comes out F-ordered, and BLAS would then sum the flow
    # products g @ phi_gen' in another order
    return LinearFactors(phi_gen=np.ascontiguousarray(ptdf[:, case.gen_bus]),
                         phi_load=np.ascontiguousarray(ptdf[:, case.load_bus]),
                         lodf=lodf, islanding=islanding)


def screen_contingencies(case: GridCase, factors: LinearFactors) -> ContingencySet:
    """Admissible outages: generators with positive capacity and nonnegative
    lower bound; lines whose removal keeps the network connected."""
    ghat = case.ghat0
    kg = tuple(i for i in range(case.n_gen) if ghat[i] > 0 and case.glb[i] >= 0)
    ke = tuple(k for k in range(case.n_line) if not factors.islanding[k])
    return ContingencySet(gen_contingencies=kg, line_contingencies=ke)


def case_to_dict(case: GridCase) -> dict:
    return {
        "name": case.name,
        "base_mva": case.base_mva,
        "slack_bus": int(case.slack_bus),
        "penalty_Pi": case.Pi,
        "buses": [{"id": i} for i in range(case.n_bus)],
        "generators": [
            {"bus": int(case.gen_bus[i]), "glb": float(case.glb[i]), "gub": float(case.gub0[i]),
             "cost": float(case.c0[i]), "gamma": float(case.gamma[i])}
            for i in range(case.n_gen)
        ],
        "lines": [
            {"from": int(case.line_from[k]), "to": int(case.line_to[k]),
             "susceptance": float(case.susceptance[k]),
             "flb": float(case.flb[k]), "fub": float(case.fub[k])}
            for k in range(case.n_line)
        ],
        "loads": [
            {"bus": int(case.load_bus[j]), "d0": float(case.d0[j])}
            for j in range(case.n_load)
        ],
    }


def case_from_dict(data: dict, name: str = "case") -> GridCase:
    try:
        buses = data["buses"]
        gens = data["generators"]
        lines = data["lines"]
        loads = data["loads"]
        if [b["id"] for b in buses] != list(range(len(buses))):
            raise DataError("bus ids must be 0..n_bus-1 in order")
        return GridCase(
            n_bus=len(buses),
            gen_bus=[g["bus"] for g in gens],
            glb=[g["glb"] for g in gens],
            gub0=[g["gub"] for g in gens],
            c0=[g["cost"] for g in gens],
            gamma=[g["gamma"] for g in gens],
            line_from=[ln["from"] for ln in lines],
            line_to=[ln["to"] for ln in lines],
            susceptance=[ln["susceptance"] for ln in lines],
            flb=[ln["flb"] for ln in lines],
            fub=[ln["fub"] for ln in lines],
            load_bus=[ld["bus"] for ld in loads],
            d0=[ld["d0"] for ld in loads],
            slack_bus=data["slack_bus"],
            Pi=float(data["penalty_Pi"]),
            base_mva=float(data.get("base_mva", 100.0)),
            name=data.get("name", name),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed case file: {exc}") from exc


def load_case(path: str | Path) -> GridCase:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read case file {path}: {exc}") from exc
    return case_from_dict(data, name=path.stem)


def save_case(case: GridCase, path: str | Path) -> None:
    Path(path).write_text(json.dumps(case_to_dict(case), indent=2) + "\n")
