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
    """Run the full primal pipeline per instance and aggregate the metrics.

    Each instance is evaluated individually so the reported latency is the
    single-instance figure.
    """
    dim_x = 2 * case.n_gen + case.n_load
    if primal.sizes[0] != dim_x or primal.sizes[-1] != case.n_gen:
        raise DataError(
            f"checkpoint network ({primal.sizes[0]} -> {primal.sizes[-1]}) does not "
            f"match case dimensions (expected {dim_x} -> {case.n_gen})")
    pipe = PrimalPipeline(case, factors, cont, t=bisect_iters)
    report = EvalReport()
    gaps = []
    objs = []
    times = []
    for i, inst in enumerate(instances):
        t0 = time.perf_counter()
        z, _ = mlp_forward(primal, inst.x)
        state = pipe.forward(z, inst.d, inst.gub)
        dt_ms = (time.perf_counter() - t0) * 1e3
        obj = float(pipe.objective(state, inst.c)[0])
        max_h = float(np.abs(state.h).max()) if state.h.size else 0.0
        row = {
            "index": i,
            "objective": obj,
            "oracle_objective": float("nan"),
            "gap_pct": float("nan"),
            "max_balance_viol": max_h,
            "max_slack_base": float(state.eta0.max()),
            "max_slack_gen": float(state.eta_g.max()) if state.eta_g.size else 0.0,
            "max_slack_line": float(state.eta_e.max()) if state.eta_e.size else 0.0,
            "inference_ms": dt_ms,
        }
        if obj_star is not None and np.isfinite(obj_star[i]):
            row["oracle_objective"] = float(obj_star[i])
            row["gap_pct"] = 100.0 * (obj - obj_star[i]) / obj_star[i]
            gaps.append(row["gap_pct"])
        objs.append(obj)
        times.append(dt_ms)
        report.rows.append(row)
        report.max_balance_viol = max(report.max_balance_viol, max_h)
        report.max_slack_base = max(report.max_slack_base, row["max_slack_base"])
        report.max_slack_gen = max(report.max_slack_gen, row["max_slack_gen"])
        report.max_slack_line = max(report.max_slack_line, row["max_slack_line"])
    report.mean_objective = float(np.mean(objs)) if objs else float("nan")
    if times:
        report.mean_inference_ms = float(np.mean(times))
        report.p50_inference_ms, report.p99_inference_ms = map(float, np.percentile(times, [50, 99]))
    if gaps:
        report.mean_gap_pct = float(np.mean(gaps))
        report.n_labeled = len(gaps)
    return report


def write_report_csv(report: EvalReport, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=REPORT_COLUMNS)
        writer.writeheader()
        for row in report.rows:
            writer.writerow(row)


def write_training_log_csv(log_rows: list, path) -> None:
    columns = ["outer_k", "inner_l", "loss", "rho", "v_k", "lr", "wall_ms"]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for row in log_rows:
            writer.writerow(row)
