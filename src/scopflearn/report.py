"""Model evaluation: per-instance objective, optimality gap against reference
labels, balance violations, per-constraint-family slack maxima, and inference
latency."""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .grid import ContingencySet, GridCase, LinearFactors
from .layers import BISECT_ITERS, PrimalPipeline
from .nn import MlpParams, mlp_forward
from .sampling import Instance

REPORT_COLUMNS = [
    "index", "objective", "oracle_objective", "gap_pct", "max_balance_viol",
    "max_slack_base", "max_slack_gen", "max_slack_line", "inference_ms",
]


def power_units(mva: float | None) -> tuple[float, str]:
    """Scale and unit of displayed power quantities: p.u. without an MVA
    base, MW on a positive, finite one."""
    if mva is None:
        return 1.0, "p.u."
    if not (np.isfinite(mva) and mva > 0):
        raise ConfigError(f"mva must be positive and finite, got {mva:g}")
    return mva, "MW"


@dataclass
class EvalReport:
    rows: list = field(default_factory=list)
    mean_objective: float = float("nan")
    mean_gap_pct: float = float("nan")
    max_balance_viol: float = 0.0
    max_slack_base: float = 0.0
    max_slack_gen: float = 0.0
    max_slack_line: float = 0.0
    mean_inference_ms: float = float("nan")
    p50_inference_ms: float = float("nan")
    p99_inference_ms: float = float("nan")
    n_labeled: int = 0

    def summary_lines(self, mva: float | None = None) -> list[str]:
        scale, unit = power_units(mva)
        lines = [
            f"instances evaluated      : {len(self.rows)}",
            f"mean objective           : {self.mean_objective:.4f} $",
            f"max |balance residual|   : {self.max_balance_viol * scale:.3e} {unit}",
            f"max base-case slack      : {self.max_slack_base * scale:.3e} {unit}",
            f"max gen-outage slack     : {self.max_slack_gen * scale:.3e} {unit}",
            f"max line-outage slack    : {self.max_slack_line * scale:.3e} {unit}",
            f"mean inference time      : {self.mean_inference_ms:.3f} ms "
            f"(p50 {self.p50_inference_ms:.3f} ms, p99 {self.p99_inference_ms:.3f} ms)",
        ]
        if self.n_labeled:
            lines.insert(2, f"mean optimality gap      : {self.mean_gap_pct:.3f} % "
                            f"(over {self.n_labeled} labeled instances)")
        return lines


def evaluate_model(case: GridCase, factors: LinearFactors, cont: ContingencySet,
                   primal: MlpParams, instances: list[Instance],
                   obj_star: np.ndarray | None = None,
                   bisect_iters: int = BISECT_ITERS) -> EvalReport:
    """Run the full primal pipeline per instance, one row each, and reduce
    every figure from the rows' columns.

    Each instance is evaluated individually so the reported latency is the
    single-instance figure.  A NaN in a row is NaN in every mean and maximum
    it enters.  No instance is a DataError: every mean would be NaN.
    """
    if not instances:
        raise DataError("no instance to evaluate: the dataset is empty")
    dim_x = instances[0].x.size
    if primal.sizes[0] != dim_x or primal.sizes[-1] != case.n_gen:
        raise DataError(
            f"checkpoint network ({primal.sizes[0]} -> {primal.sizes[-1]}) does not "
            f"match case dimensions (expected {dim_x} -> {case.n_gen})")
    pipe = PrimalPipeline(case, factors, cont, t=bisect_iters)
    rows = []
    for i, inst in enumerate(instances):
        t0 = time.perf_counter()
        z, _ = mlp_forward(primal, inst.x)
        state = pipe.forward(z, inst.d, inst.gub)
        dt_ms = (time.perf_counter() - t0) * 1e3
        obj = float(pipe.objective(state, inst.c)[0])
        row = {
            "index": i,
            "objective": obj,
            "oracle_objective": float("nan"),
            "gap_pct": float("nan"),
            "max_balance_viol": float(np.abs(state.h).max()) if state.h.size else 0.0,
            "max_slack_base": float(state.eta0.max()),
            "max_slack_gen": float(state.eta_g.max()) if state.eta_g.size else 0.0,
            "max_slack_line": float(state.eta_e.max()) if state.eta_e.size else 0.0,
            "inference_ms": dt_ms,
        }
        if obj_star is not None and np.isfinite(obj_star[i]):
            row["oracle_objective"] = float(obj_star[i])
            row["gap_pct"] = 100.0 * (obj - obj_star[i]) / obj_star[i]
        rows.append(row)
    col = {name: np.array([row[name] for row in rows]) for name in REPORT_COLUMNS}
    labeled = np.isfinite(col["oracle_objective"])
    p50, p99 = np.percentile(col["inference_ms"], [50, 99])
    # + 0.0 turns a -0.0 maximum (a zero flow limit's slack) into 0.0
    maxima = {name: float(col[name].max()) + 0.0
              for name in REPORT_COLUMNS if name.startswith("max_")}
    return EvalReport(
        rows=rows, mean_objective=float(col["objective"].mean()),
        mean_gap_pct=float(col["gap_pct"][labeled].mean()) if labeled.any() else float("nan"),
        mean_inference_ms=float(col["inference_ms"].mean()),
        p50_inference_ms=float(p50), p99_inference_ms=float(p99),
        n_labeled=int(labeled.sum()), **maxima)


def write_csv(rows: list, columns: list, path) -> None:
    """Write rows, dicts keyed by columns, as a CSV table under a header line."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)
