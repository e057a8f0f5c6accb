"""Command-line harness: dataset generation, reference labeling, training,
evaluation, and artifact inspection.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric
divergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .cases import BUILTIN_CASES, get_case
from .errors import ConfigError, DataError, DivergenceError, ScopflearnError
from .grid import GridCase, build_factors, load_case, screen_contingencies
from .oracle import label_dataset, oracle_solve
from .report import evaluate_model, write_report_csv, write_training_log_csv
from .sampling import PerturbationConfig, sample_dataset
from .storage import (
    Checkpoint,
    Dataset,
    config_hash,
    dataset_from_instances,
    load_checkpoint,
    read_dataset,
    save_checkpoint,
    write_dataset,
)
from .training import METHODS, TrainerConfig, train


@dataclass
class RunConfig:
    """Training run description; every field can come from a JSON config file
    and be overridden by a CLI flag."""

    case: str = "micro5"
    method: str = "pdl"
    dataset: str = ""
    out_dir: str = "run"
    K: int = 20
    L: int = 2000
    batch: int = 8
    rho0: float = 0.1
    rho_max: float = 1e8
    tau: float = 0.9
    alpha: float = 2.0
    dual_loss_rho: float = 0.1
    obj_scale: float = 1e5
    lr: float = 1e-4
    seed: int = 0
    bisect_iters: int = 25

    def trainer_config(self) -> TrainerConfig:
        return TrainerConfig(K=self.K, L=self.L, batch=self.batch, rho0=self.rho0,
                             rho_max=self.rho_max, tau=self.tau, alpha=self.alpha,
                             dual_loss_rho=self.dual_loss_rho,
                             obj_scale=self.obj_scale, lr=self.lr, seed=self.seed,
                             bisect_iters=self.bisect_iters)


def resolve_case(spec: str) -> GridCase:
    if spec in BUILTIN_CASES:
        return get_case(spec)
    return load_case(spec)


def _grid_context(spec: str):
    case = resolve_case(spec)
    factors = build_factors(case)
    cont = screen_contingencies(case, factors)
    return case, factors, cont


# ---------------------------------------------------------------------------
# subcommands

def cmd_gen(args) -> int:
    case, factors, cont = _grid_context(args.case)
    pcfg = PerturbationConfig(mu=args.mu, load_corr=args.load_corr,
                              factor_corr=args.factor_corr, seed=args.seed)
    instances, resamples = sample_dataset(case, pcfg, args.n, cont=cont)
    dataset = dataset_from_instances(case.name, args.seed, instances)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_dataset(out, dataset)
    manifest = {
        "case": case.name,
        "n": args.n,
        "seed": args.seed,
        "resamples": resamples,
        "perturbation": {"mu": pcfg.mu, "load_corr": pcfg.load_corr,
                         "factor_corr": pcfg.factor_corr, "z95": pcfg.z95},
    }
    manifest["config_hash"] = config_hash(manifest)
    out.with_suffix(out.suffix + ".manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.n} instances to {out} (resamples: {resamples})")
    return 0


def cmd_oracle(args) -> int:
    case, factors, cont = _grid_context(args.case)
    dataset = read_dataset(args.dataset)
    labeled = label_dataset(dataset, case, factors, cont, resolution=args.resolution)
    out = Path(args.out or args.dataset)
    write_dataset(out, labeled)
    n_ok = int(np.isfinite(labeled.obj_star).sum())
    print(f"labeled {n_ok}/{labeled.n} instances -> {out} "
          f"(resolution {args.resolution:g})")
    if n_ok < labeled.n:
        print(f"warning: {labeled.n - n_ok} instances are contingency-infeasible "
              "and were flagged with NaN labels")
    return 0


def _load_run_config(args) -> RunConfig:
    values = {f.name: f.default for f in fields(RunConfig)}
    if args.config:
        try:
            file_values = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        unknown = set(file_values) - set(values)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        values.update(file_values)
    for name in values:
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
    cfg = RunConfig(**values)
    if cfg.method not in METHODS:
        raise ConfigError(f"method must be one of {METHODS}, got {cfg.method!r}")
    if not cfg.dataset:
        raise ConfigError("a training dataset is required (--dataset)")
    return cfg


def cmd_train(args) -> int:
    cfg = _load_run_config(args)
    trainer_config = cfg.trainer_config()   # checked before anything is written
    case, factors, cont = _grid_context(cfg.case)
    dataset = read_dataset(cfg.dataset)
    instances = dataset.instances(case)
    g_star = None
    if cfg.method in ("naive", "ld"):
        if not dataset.labeled:
            raise DataError(
                f"method {cfg.method!r} needs reference labels; run "
                f"`scopflearn oracle --case {cfg.case} --dataset {cfg.dataset}` first")
        keep = np.isfinite(dataset.obj_star)
        if not keep.all():
            instances = [inst for inst, ok in zip(instances, keep) if ok]
            print(f"skipping {int((~keep).sum())} unlabeled (infeasible) records")
        g_star = dataset.g_star[keep]

    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    effective = asdict(cfg)
    effective["config_hash"] = config_hash(effective)
    (out_dir / "config.json").write_text(json.dumps(effective, indent=2, sort_keys=True) + "\n")

    dim_x = 2 * case.n_gen + case.n_load

    def save(name, primal, primal_adam, dual, dual_adam, state):
        # eval serves the model at the bisection count it was trained with
        trainer = {**state.as_dict(), "bisect_iters": cfg.bisect_iters}
        ck = Checkpoint(method=cfg.method, case_name=case.name, dim_x=dim_x,
                        n_gen=case.n_gen, primal=primal, primal_adam=primal_adam,
                        dual=dual, dual_adam=dual_adam, trainer=trainer)
        save_checkpoint(out_dir / name, ck)

    def checkpoint_cb(k, *nets_and_state):
        save(f"checkpoint_k{k:03d}.bin", *nets_and_state)

    result = train(cfg.method, case, factors, cont, instances,
                   trainer_config, g_star=g_star, checkpoint_cb=checkpoint_cb)
    save("checkpoint_final.bin", result.primal, result.primal_adam, result.dual,
         result.dual_adam, result.state)
    write_training_log_csv(result.log, out_dir / "train_log.csv")

    summary = {
        "method": cfg.method,
        "steps": len(result.log),
        "wall_s": result.wall_s,
        "final_rho": result.state.rho,
        "final_max_violation": result.state.v_prev if np.isfinite(result.state.v_prev) else None,
        "outer_log": result.outer_log,
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    v = summary["final_max_violation"]
    v_text = f"{v:.3e} p.u." if v is not None else "n/a"
    print(f"{cfg.method}: {len(result.log)} steps in {result.wall_s:.1f}s, "
          f"final max |balance residual| {v_text}, checkpoints in {out_dir}")
    return 0


def cmd_eval(args) -> int:
    case, factors, cont = _grid_context(args.case)
    ckpt = load_checkpoint(args.checkpoint)
    bisect_iters = ckpt.trainer.get("bisect_iters", 25)
    if type(bisect_iters) is not int:
        raise DataError(f"checkpoint bisect_iters must be an integer, got {bisect_iters!r}")
    dataset = read_dataset(args.dataset)
    instances = dataset.instances(case)
    report = evaluate_model(case, factors, cont, ckpt.primal, instances,
                            obj_star=dataset.obj_star if dataset.labeled else None,
                            bisect_iters=bisect_iters)
    if args.out:
        write_report_csv(report, args.out)
    for line in report.summary_lines(mva=args.mva):
        print(line)
    if args.out:
        print(f"per-instance report -> {args.out}")
    return 0


def cmd_inspect(args) -> int:
    shown = False
    if args.case:
        case, factors, cont = _grid_context(args.case)
        scale = args.mva if args.mva else 1.0
        unit = "MW" if args.mva else "p.u."
        print(f"case {case.name}: {case.n_bus} buses, {case.n_gen} generators, "
              f"{case.n_line} lines, {case.n_load} load units")
        print(f"  admissible outages: {cont.n_gen} generator, {cont.n_line} line "
              f"({int(factors.islanding.sum())} islanding lines excluded)")
        print(f"  total base load  : {case.d0.sum() * scale:.3f} {unit}")
        print(f"  total capacity   : {case.gub0.sum() * scale:.3f} {unit}")
        print(f"  slack penalty Pi : {case.Pi:g}, slack bus {case.slack_bus}")
        shown = True
    if args.dataset:
        ds = read_dataset(args.dataset)
        scale = args.mva if args.mva else 1.0
        unit = "MW" if args.mva else "p.u."
        totals = ds.d.sum(-1)
        print(f"dataset {args.dataset}: {ds.n} instances of case {ds.case_name} "
              f"(seed {ds.seed}, labeled: {ds.labeled})")
        print(f"  total demand range: [{totals.min() * scale:.3f}, "
              f"{totals.max() * scale:.3f}] {unit}")
        if ds.labeled:
            ok = np.isfinite(ds.obj_star)
            print(f"  labels: {int(ok.sum())}/{ds.n} feasible, "
                  f"mean reference objective {np.nanmean(ds.obj_star):.2f} $")
        shown = True
    if args.checkpoint:
        ck = load_checkpoint(args.checkpoint)
        print(f"checkpoint {args.checkpoint}: method {ck.method}, case {ck.case_name}")
        print(f"  primal sizes {list(ck.primal.sizes)}, layernorm {ck.primal.use_layernorm}")
        if ck.dual is not None:
            print(f"  dual sizes   {list(ck.dual.sizes)}")
        if ck.trainer:
            print(f"  trainer state: {ck.trainer}")
        shown = True
    if not shown:
        raise ConfigError("nothing to inspect: pass --case, --dataset or --checkpoint")
    return 0


# ---------------------------------------------------------------------------
# wiring

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scopflearn",
        description="Learn near-optimal secure DC dispatch with differentiable "
                    "repair and contingency-response layers.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="sample a perturbed-instance dataset")
    gen.add_argument("--case", required=True,
                     help=f"case file path or builtin name {sorted(BUILTIN_CASES)}")
    gen.add_argument("--n", type=int, required=True, help="number of instances")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output dataset path")
    gen.add_argument("--mu", type=float, default=0.5, help="load spread")
    gen.add_argument("--load-corr", type=float, default=0.5)
    gen.add_argument("--factor-corr", type=float, default=0.8)
    gen.set_defaults(func=cmd_gen)

    orc = sub.add_parser("oracle", help="attach reference labels to a dataset")
    orc.add_argument("--case", required=True)
    orc.add_argument("--dataset", required=True)
    orc.add_argument("--out", default=None,
                     help="output path (default: overwrite the dataset)")
    orc.add_argument("--resolution", type=float, default=1e-3)
    orc.set_defaults(func=cmd_oracle)

    tr = sub.add_parser("train", help="train one of the four methods")
    tr.add_argument("--config", default=None, help="JSON file with RunConfig keys")
    tr.add_argument("--case", default=None)
    tr.add_argument("--method", default=None, choices=METHODS)
    tr.add_argument("--dataset", default=None)
    tr.add_argument("--out-dir", dest="out_dir", default=None)
    tr.add_argument("-K", type=int, default=None, dest="K", help="outer iterations")
    tr.add_argument("-L", type=int, default=None, dest="L", help="inner iterations")
    tr.add_argument("--batch", type=int, default=None)
    tr.add_argument("--rho0", type=float, default=None)
    tr.add_argument("--rho-max", dest="rho_max", type=float, default=None)
    tr.add_argument("--tau", type=float, default=None)
    tr.add_argument("--alpha", type=float, default=None)
    tr.add_argument("--dual-loss-rho", dest="dual_loss_rho", type=float, default=None)
    tr.add_argument("--obj-scale", dest="obj_scale", type=float, default=None)
    tr.add_argument("--lr", type=float, default=None)
    tr.add_argument("--seed", type=int, default=None)
    tr.add_argument("--bisect-iters", dest="bisect_iters", type=int, default=None)
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    ev.add_argument("--case", required=True)
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--dataset", required=True)
    ev.add_argument("--out", default=None, help="per-instance CSV report path")
    ev.add_argument("--mva", type=float, default=None,
                    help="display power quantities in MW on this MVA base")
    ev.set_defaults(func=cmd_eval)

    ins = sub.add_parser("inspect", help="print case/dataset/checkpoint stats")
    ins.add_argument("--case", default=None)
    ins.add_argument("--dataset", default=None)
    ins.add_argument("--checkpoint", default=None)
    ins.add_argument("--mva", type=float, default=None)
    ins.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except DivergenceError as exc:
        print(f"numeric divergence: {exc}", file=sys.stderr)
        return 4
    except ScopflearnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
