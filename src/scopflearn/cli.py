"""Command-line harness: dataset generation, reference labeling, training,
evaluation, and artifact inspection.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric
divergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .cases import BUILTIN_CASES, get_case
from .errors import ConfigError, DataError, DivergenceError, ScopflearnError
from .grid import GridCase, build_factors, load_case, screen_contingencies
from .layers import BISECT_ITERS
from .oracle import RESOLUTION, label_dataset
from .report import evaluate_model, power_units, write_report_csv, write_training_log_csv
from .sampling import Z95, PerturbationConfig, sample_dataset
from .storage import (
    Checkpoint,
    config_hash,
    dataset_from_instances,
    load_checkpoint,
    read_dataset,
    save_checkpoint,
    write_dataset,
)
from .training import METHODS, TrainerConfig, train


# the run keys besides TrainerConfig's fields; a config file and the train
# flags set both, a flag winning
RUN_DEFAULTS = {"case": "micro5", "method": "pdl", "dataset": "", "out_dir": "run"}


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
    if args.n < 1:
        raise ConfigError(f"--n must be at least 1, got {args.n}")
    case, factors, cont = _grid_context(args.case)
    pcfg = PerturbationConfig(**{f.name: getattr(args, f.name)
                                 for f in fields(PerturbationConfig)})
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
                         "factor_corr": pcfg.factor_corr, "z95": Z95},
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


def _load_run_config(args) -> tuple[dict, TrainerConfig]:
    """The run's keys and its trainer settings, checked before anything is
    written."""
    values = {**RUN_DEFAULTS, **{f.name: f.default for f in fields(TrainerConfig)}}
    if args.config:
        try:
            file_values = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(file_values, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON object")
        unknown = set(file_values) - set(values)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        values.update(file_values)
    for name in values:
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
    for name in RUN_DEFAULTS:
        if not isinstance(values[name], str):
            raise ConfigError(f"{name} must be a string, got {values[name]!r}")
    if values["method"] not in METHODS:
        raise ConfigError(f"method must be one of {METHODS}, got {values['method']!r}")
    if not values["dataset"]:
        raise ConfigError("a training dataset is required (--dataset)")
    return values, TrainerConfig(**{f.name: values[f.name] for f in fields(TrainerConfig)})


def cmd_train(args) -> int:
    cfg, trainer_config = _load_run_config(args)
    method = cfg["method"]
    case, factors, cont = _grid_context(cfg["case"])
    dataset = read_dataset(cfg["dataset"])
    instances = dataset.instances(case)
    g_star = None
    if method in ("naive", "ld"):
        if not dataset.labeled:
            raise DataError(
                f"method {method!r} needs reference labels; run "
                f"`scopflearn oracle --case {cfg['case']} --dataset {cfg['dataset']}` first")
        keep = np.isfinite(dataset.obj_star)
        if not keep.all():
            instances = [inst for inst, ok in zip(instances, keep) if ok]
            print(f"skipping {int((~keep).sum())} unlabeled (infeasible) records")
        g_star = dataset.g_star[keep]

    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    effective = {**cfg, "config_hash": config_hash(cfg)}
    (out_dir / "config.json").write_text(json.dumps(effective, indent=2, sort_keys=True) + "\n")

    dim_x = 2 * case.n_gen + case.n_load

    def save(name, primal, primal_adam, dual, dual_adam, state):
        # eval serves the model at the bisection count it was trained with
        trainer = {**state.as_dict(), "bisect_iters": trainer_config.bisect_iters}
        ck = Checkpoint(method=method, case_name=case.name, dim_x=dim_x,
                        n_gen=case.n_gen, primal=primal, primal_adam=primal_adam,
                        dual=dual, dual_adam=dual_adam, trainer=trainer)
        save_checkpoint(out_dir / name, ck)

    def checkpoint_cb(k, *nets_and_state):
        save(f"checkpoint_k{k:03d}.bin", *nets_and_state)

    result = train(method, case, factors, cont, instances,
                   trainer_config, g_star=g_star, checkpoint_cb=checkpoint_cb)
    save("checkpoint_final.bin", result.primal, result.primal_adam, result.dual,
         result.dual_adam, result.state)
    write_training_log_csv(result.log, out_dir / "train_log.csv")

    summary = {
        "method": method,
        "steps": len(result.log),
        "wall_s": result.wall_s,
        "final_rho": result.state.rho,
        "final_max_violation": result.state.v_prev if np.isfinite(result.state.v_prev) else None,
        "outer_log": result.outer_log,
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    v = summary["final_max_violation"]
    v_text = f"{v:.3e} p.u." if v is not None else "n/a"
    print(f"{method}: {len(result.log)} steps in {result.wall_s:.1f}s, "
          f"final max |balance residual| {v_text}, checkpoints in {out_dir}")
    return 0


def cmd_eval(args) -> int:
    power_units(args.mva)   # a bad base is refused before any work
    case, factors, cont = _grid_context(args.case)
    ckpt = load_checkpoint(args.checkpoint)
    dataset = read_dataset(args.dataset)
    instances = dataset.instances(case)
    report = evaluate_model(case, factors, cont, ckpt.primal, instances,
                            obj_star=dataset.obj_star if dataset.labeled else None,
                            bisect_iters=ckpt.trainer.get("bisect_iters", BISECT_ITERS))
    if args.out:
        write_report_csv(report, args.out)
    for line in report.summary_lines(mva=args.mva):
        print(line)
    if args.out:
        print(f"per-instance report -> {args.out}")
    return 0


def cmd_inspect(args) -> int:
    scale, unit = power_units(args.mva)
    shown = False
    if args.case:
        case, factors, cont = _grid_context(args.case)
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
        print(f"dataset {args.dataset}: {ds.n} instances of case {ds.case_name} "
              f"(seed {ds.seed}, labeled: {ds.labeled})")
        if not ds.n:
            print("  it holds no instances")
        else:
            totals = ds.d.sum(-1)
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
    gen.add_argument("--out", required=True, help="output dataset path")
    for f in fields(PerturbationConfig):
        gen.add_argument("--" + f.name.replace("_", "-"), dest=f.name, type=type(f.default),
                         default=f.default, help=f"PerturbationConfig.{f.name}")
    gen.set_defaults(func=cmd_gen)

    orc = sub.add_parser("oracle", help="attach reference labels to a dataset")
    orc.add_argument("--case", required=True)
    orc.add_argument("--dataset", required=True)
    orc.add_argument("--out", default=None,
                     help="output path (default: overwrite the dataset)")
    orc.add_argument("--resolution", type=float, default=RESOLUTION)
    orc.set_defaults(func=cmd_oracle)

    tr = sub.add_parser("train", help="train one of the four methods")
    tr.add_argument("--config", default=None,
                    help="JSON file with the run keys (case, method, dataset, out_dir) "
                         "and TrainerConfig's fields")
    tr.add_argument("--case", default=None)
    tr.add_argument("--method", default=None, choices=METHODS)
    tr.add_argument("--dataset", default=None)
    tr.add_argument("--out-dir", dest="out_dir", default=None)
    for f in fields(TrainerConfig):
        flag = "-" + f.name if f.name in ("K", "L") else "--" + f.name.replace("_", "-")
        tr.add_argument(flag, dest=f.name, type=type(f.default), default=None,
                        help=f"TrainerConfig.{f.name} (default {f.default})")
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
