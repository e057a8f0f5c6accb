import hashlib
import json
import time

import numpy as np
import pytest

from scopflearn import cli
from scopflearn.cases import triangle3
from scopflearn.cli import main
from scopflearn.grid import build_factors, case_to_dict, save_case, screen_contingencies
from scopflearn.layers import PrimalPipeline
from scopflearn.nn import mlp_forward
from scopflearn.storage import Dataset, load_checkpoint, read_dataset, save_checkpoint, write_dataset

from conftest import BAD_CHECKPOINTS, M5_UNCOVERABLE_GUB, write_checkpoint
from oracles import response_residuals


def run(argv):
    return main(argv)


def test_gen_deterministic_and_manifest(tmp_path):
    out1 = tmp_path / "a.bin"
    out2 = tmp_path / "b.bin"
    assert run(["gen", "--case", "triangle3", "--n", "20", "--seed", "5",
                "--out", str(out1)]) == 0
    assert run(["gen", "--case", "triangle3", "--n", "20", "--seed", "5",
                "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    manifest = json.loads((tmp_path / "a.bin.manifest.json").read_text())
    assert manifest["seed"] == 5
    assert "config_hash" in manifest
    ds = read_dataset(out1)
    assert ds.n == 20


def test_gen_mu_zero_single_record(tmp_path):
    out = tmp_path / "base.bin"
    assert run(["gen", "--case", "micro5", "--n", "1", "--seed", "0",
                "--out", str(out), "--mu", "0"]) == 0
    ds = read_dataset(out)
    from scopflearn.cases import micro5
    case = micro5()
    assert np.allclose(ds.d[0], case.d0)
    assert np.allclose(ds.c[0], case.c0)
    assert np.allclose(ds.gub[0], case.gub0)


def test_gen_performance(tmp_path):
    t0 = time.perf_counter()
    assert run(["gen", "--case", "micro5", "--n", "1000", "--seed", "1",
                "--out", str(tmp_path / "big.bin")]) == 0
    assert time.perf_counter() - t0 < 10.0


def test_gen_invalid_case_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert run(["gen", "--case", str(bad), "--n", "1",
                "--out", str(tmp_path / "x.bin")]) == 3


@pytest.mark.parametrize("n", ["0", "-1"])
def test_gen_rejects_fewer_than_one_instance(tmp_path, capsys, n):
    out = tmp_path / "d.bin"
    assert run(["gen", "--case", "triangle3", "--n", n, "--out", str(out)]) == 2
    assert "--n must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", [["--mu", "1.5"], ["--load-corr", "-0.1"],
                                  ["--factor-corr", "2"]])
def test_gen_rejects_out_of_range_perturbation(tmp_path, capsys, flag):
    out = tmp_path / "d.bin"
    assert run(["gen", "--case", "triangle3", "--n", "2", "--out", str(out), *flag]) == 2
    assert "must be in" in capsys.readouterr().err
    assert not out.exists()


def test_gen_flag_spellings_and_defaults():
    # gen's flags are derived from PerturbationConfig, as train's are from
    # TrainerConfig; their spellings and defaults are part of the command line
    gen = next(a for a in cli.build_parser()._actions
               if a.dest == "command").choices["gen"]
    flags = {s for a in gen._actions for s in a.option_strings}
    assert flags == {"-h", "--help", "--case", "--n", "--out", "--seed", "--mu",
                     "--load-corr", "--factor-corr"}
    args = cli.build_parser().parse_args(["gen", "--case", "micro5", "--n", "1",
                                          "--out", "d.bin"])
    assert (args.seed, args.mu, args.load_corr, args.factor_corr) == (0, 0.5, 0.5, 0.8)
    assert type(args.seed) is int


# case-file faults that once printed a traceback or a silent number
CASE_FAULTS = {
    "susceptance_string": lambda c: c["lines"][0].update(susceptance="abc"),
    "slack_bus_string": lambda c: c.update(slack_bus="x"),
    "gen_bus_fraction": lambda c: c["generators"][0].update(bus=1.5),
    "glb_nan": lambda c: c["generators"][0].update(glb=float("nan")),
    "gamma_nan": lambda c: c["generators"][0].update(gamma=float("nan")),
    "cost_nan": lambda c: c["generators"][0].update(cost=float("nan")),
}


@pytest.mark.parametrize("fault", CASE_FAULTS.values(), ids=CASE_FAULTS.keys())
def test_inspect_refuses_a_malformed_case_file(tmp_path, capsys, fault):
    data = case_to_dict(triangle3())
    fault(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert run(["inspect", "--case", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "data error" in captured.err


def test_case_file_path_accepted(tmp_path):
    path = tmp_path / "tri.json"
    save_case(triangle3(), path)
    assert run(["gen", "--case", str(path), "--n", "3",
                "--out", str(tmp_path / "d.bin")]) == 0


def test_oracle_and_inspect(tmp_path, capsys):
    data = tmp_path / "d.bin"
    labeled = tmp_path / "l.bin"
    assert run(["gen", "--case", "triangle3", "--n", "5", "--seed", "2",
                "--out", str(data)]) == 0
    assert run(["oracle", "--case", "triangle3", "--dataset", str(data),
                "--out", str(labeled), "--resolution", "2e-3"]) == 0
    ds = read_dataset(labeled)
    assert ds.labeled
    assert np.all(np.isfinite(ds.obj_star))
    # relabel is byte-idempotent
    relabeled = tmp_path / "l2.bin"
    assert run(["oracle", "--case", "triangle3", "--dataset", str(data),
                "--out", str(relabeled), "--resolution", "2e-3"]) == 0
    assert labeled.read_bytes() == relabeled.read_bytes()

    assert run(["inspect", "--case", "triangle3", "--dataset", str(labeled)]) == 0
    out = capsys.readouterr().out
    assert "3 buses" in out
    assert "labeled: True" in out


@pytest.mark.parametrize("resolution", ["0", "-1e-3", "nan", "inf"])
def test_oracle_refuses_a_resolution_not_positive_and_finite(tmp_path, capsys, resolution):
    data = tmp_path / "d.bin"
    assert run(["gen", "--case", "triangle3", "--n", "2", "--out", str(data)]) == 0
    labeled = tmp_path / "l.bin"
    assert run(["oracle", "--case", "triangle3", "--dataset", str(data),
                "--out", str(labeled), f"--resolution={resolution}"]) == 2
    assert "resolution must be positive and finite" in capsys.readouterr().err
    assert not labeled.exists()


def test_oracle_warns_and_naive_training_skips_an_uncoverable_instance(tmp_path, capsys,
                                                                      m5_case):
    data = tmp_path / "d.bin"
    assert run(["gen", "--case", "micro5", "--n", "3", "--seed", "1", "--out", str(data)]) == 0
    ds = read_dataset(data)
    write_dataset(data, Dataset(case_name=ds.case_name, seed=ds.seed,
                                d=np.vstack([ds.d, m5_case.d0]), c=np.vstack([ds.c, m5_case.c0]),
                                gub=np.vstack([ds.gub, M5_UNCOVERABLE_GUB]),
                                seeds=np.append(ds.seeds, 3).astype(np.uint64)))
    capsys.readouterr()
    assert run(["oracle", "--case", "micro5", "--dataset", str(data),
                "--resolution", "1.5e-2"]) == 0
    out = capsys.readouterr().out
    assert "labeled 3/4 instances" in out
    assert "warning: 1 instances are contingency-infeasible" in out
    assert run(["train", "--case", "micro5", "--method", "naive", "--dataset", str(data),
                "--out-dir", str(tmp_path / "run"), "-K", "1", "-L", "2", "--batch", "2"]) == 0
    assert "skipping 1 unlabeled (infeasible) records" in capsys.readouterr().out


@pytest.mark.parametrize("mva", ["0", "-100", "nan", "inf"])
def test_mva_must_be_positive_and_finite(tmp_path, capsys, mva):
    assert run(["inspect", "--case", "triangle3", f"--mva={mva}"]) == 2
    # refused before the missing files are read
    missing = str(tmp_path / "missing.bin")
    assert run(["eval", "--case", "triangle3", "--checkpoint", missing, "--dataset", missing,
                f"--mva={mva}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("mva must be positive and finite") == 2


def test_eval_and_inspect_share_one_display_rule(capsys):
    from scopflearn.report import EvalReport, power_units

    assert power_units(None) == (1.0, "p.u.")
    assert power_units(100.0) == (100.0, "MW")
    assert run(["inspect", "--case", "triangle3", "--mva", "100"]) == 0
    assert "total base load  : 100.000 MW" in capsys.readouterr().out
    lines = EvalReport(max_balance_viol=0.5).summary_lines(mva=100.0)
    assert "max |balance residual|   : 5.000e+01 MW" in lines


def test_inspect_requires_target():
    assert run(["inspect"]) == 2


def test_inspect_empty_dataset(tmp_path, capsys):
    data = tmp_path / "empty.bin"
    write_dataset(data, Dataset(case_name="triangle3", seed=0, d=np.empty((0, 2)),
                                c=np.empty((0, 2)), gub=np.empty((0, 2)),
                                seeds=np.empty(0, np.uint64)))
    assert run(["inspect", "--dataset", str(data)]) == 0
    out = capsys.readouterr().out
    assert "0 instances of case triangle3" in out
    assert "holds no instances" in out


@pytest.mark.parametrize("fault", BAD_CHECKPOINTS)
def test_bad_checkpoint_exits_3(tmp_path, capsys, fault):
    data = tmp_path / "t.bin"
    assert run(["gen", "--case", "triangle3", "--n", "2", "--out", str(data)]) == 0
    ckpt = str(write_checkpoint(tmp_path / "bad.bin", fault))
    capsys.readouterr()
    assert run(["inspect", "--checkpoint", ckpt]) == 3
    assert run(["eval", "--case", "triangle3", "--checkpoint", ckpt,
                "--dataset", str(data)]) == 3
    assert capsys.readouterr().out == ""


def test_inspect_corrupt_metadata_exits_3(tmp_path, capsys):
    data = tmp_path / "d.bin"
    assert run(["gen", "--case", "triangle3", "--n", "5", "--seed", "2",
                "--out", str(data)]) == 0
    whole = data.read_bytes()
    # one flipped byte of the metadata block: its opening brace
    assert whole[24:25] == b"{"
    data.write_bytes(whole[:24] + b"\xfb" + whole[25:])
    capsys.readouterr()
    assert run(["inspect", "--dataset", str(data)]) == 3
    assert "corrupt metadata" in capsys.readouterr().err


def test_oracle_refuses_large_case(tmp_path):
    # six-generator case: refused with a data error
    from scopflearn.grid import GridCase
    case = GridCase(
        n_bus=3, gen_bus=[0, 0, 1, 1, 2, 2], glb=[0.0] * 6, gub0=[1.0] * 6,
        c0=[1.0] * 6, gamma=[1.0] * 6, line_from=[0, 0, 1], line_to=[1, 2, 2],
        susceptance=[1.0] * 3, flb=[-2.0] * 3, fub=[2.0] * 3,
        load_bus=[2], d0=[1.0], slack_bus=0, name="big6")
    case_path = tmp_path / "big6.json"
    save_case(case, case_path)
    data = tmp_path / "d.bin"
    assert run(["gen", "--case", str(case_path), "--n", "1",
                "--out", str(data)]) == 0
    assert run(["oracle", "--case", str(case_path), "--dataset", str(data)]) == 3


def test_train_eval_flow(tmp_path, capsys):
    data = tmp_path / "train.bin"
    assert run(["gen", "--case", "triangle3", "--n", "16", "--seed", "3",
                "--out", str(data)]) == 0
    out_dir = tmp_path / "run"
    assert run(["train", "--case", "triangle3", "--method", "pdl",
                "--dataset", str(data), "--out-dir", str(out_dir),
                "-K", "2", "-L", "5", "--batch", "4", "--seed", "7"]) == 0
    # config echo, log, checkpoints
    cfg = json.loads((out_dir / "config.json").read_text())
    assert cfg["method"] == "pdl" and cfg["K"] == 2 and cfg["L"] == 5
    log_lines = (out_dir / "train_log.csv").read_text().strip().splitlines()
    assert len(log_lines) == 1 + 2 * 2 * 5  # header + 2KL rows
    assert (out_dir / "checkpoint_final.bin").exists()
    assert (out_dir / "checkpoint_k001.bin").exists()
    assert (out_dir / "checkpoint_k002.bin").exists()
    ck = load_checkpoint(out_dir / "checkpoint_final.bin")
    assert ck.method == "pdl"
    assert ck.dual is not None

    report = tmp_path / "report.csv"
    assert run(["eval", "--case", "triangle3", "--checkpoint",
                str(out_dir / "checkpoint_final.bin"), "--dataset", str(data),
                "--out", str(report)]) == 0
    out = capsys.readouterr().out
    assert "max |balance residual|" in out
    rows = report.read_text().strip().splitlines()
    assert len(rows) == 1 + 16
    # the bisection balances an outage wherever the served dispatch admits a
    # response signal in [0, 1]; elsewhere the residual is the shortfall at
    # the full response.  Each row is pinned to the exact reference
    header = rows[0].split(",")
    viol_col = header.index("max_balance_viol")
    viols = [float(r.split(",")[viol_col]) for r in rows[1:]]
    case = triangle3()
    factors = build_factors(case)
    cont = screen_contingencies(case, factors)
    pipe = PrimalPipeline(case, factors, cont)
    for inst, viol in zip(read_dataset(data).instances(case), viols):
        z, _ = mlp_forward(ck.primal, inst.x)
        g = pipe.forward(z, inst.d, inst.gub, with_slacks=False).gtilde[0]
        ref, droop = response_residuals(g, cont.gen_contingencies, case.gamma, case.glb,
                                        inst.gub, inst.d.sum())
        assert abs(viol - np.abs(ref).max()) <= 2.0 ** -pipe.t * droop.max() + 1e-12


def test_train_reproducible_checkpoints(tmp_path):
    data = tmp_path / "train.bin"
    assert run(["gen", "--case", "triangle3", "--n", "8", "--seed", "4",
                "--out", str(data)]) == 0
    for d in ("r1", "r2"):
        assert run(["train", "--case", "triangle3", "--method", "penalty",
                    "--dataset", str(data), "--out-dir", str(tmp_path / d),
                    "-K", "1", "-L", "4", "--batch", "2", "--seed", "9"]) == 0
    c1 = (tmp_path / "r1" / "checkpoint_final.bin").read_bytes()
    c2 = (tmp_path / "r2" / "checkpoint_final.bin").read_bytes()
    assert hashlib.sha256(c1).digest() == hashlib.sha256(c2).digest()


def test_train_supervised_needs_labels(tmp_path, capsys):
    data = tmp_path / "train.bin"
    assert run(["gen", "--case", "triangle3", "--n", "8", "--seed", "5",
                "--out", str(data)]) == 0
    rc = run(["train", "--case", "triangle3", "--method", "naive",
              "--dataset", str(data), "--out-dir", str(tmp_path / "run")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "oracle" in err


def test_train_config_file_with_flag_override(tmp_path):
    data = tmp_path / "train.bin"
    assert run(["gen", "--case", "triangle3", "--n", "8", "--seed", "6",
                "--out", str(data)]) == 0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "case": "triangle3", "method": "penalty", "dataset": str(data),
        "out_dir": str(tmp_path / "from_cfg"), "K": 1, "L": 3, "batch": 2,
    }))
    assert run(["train", "--config", str(cfg_path), "-L", "2"]) == 0
    effective = json.loads((tmp_path / "from_cfg" / "config.json").read_text())
    assert effective["L"] == 2  # flag wins
    assert effective["K"] == 1  # file value kept


def test_train_flag_spellings():
    # the trainer's flags are derived from TrainerConfig; their spellings are
    # part of the command line
    train = next(a for a in cli.build_parser()._actions
                 if a.dest == "command").choices["train"]
    flags = {s for a in train._actions for s in a.option_strings}
    assert flags == {"-h", "--help", "--config", "--case", "--method", "--dataset",
                     "--out-dir", "-K", "-L", "--batch", "--rho0", "--rho-max", "--tau",
                     "--alpha", "--dual-loss-rho", "--obj-scale", "--lr", "--seed",
                     "--bisect-iters"}
    args = cli.build_parser().parse_args(["train", "-K", "3", "--rho-max", "5"])
    assert (args.K, args.rho_max) == (3, 5.0) and type(args.K) is int


def test_train_unknown_config_key(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"not_a_key": 1}))
    assert run(["train", "--config", str(cfg_path)]) == 2


@pytest.fixture(scope="module")
def tri_data(tmp_path_factory):
    data = tmp_path_factory.mktemp("data") / "t.bin"
    assert run(["gen", "--case", "triangle3", "--n", "4", "--seed", "0",
                "--out", str(data)]) == 0
    return data


# config files that once raised a TypeError, after writing config.json for
# some, or trained on a bool
WRONG_TYPES = {
    "number": 5, "null": None, "lr_string": {"lr": "1e-3"}, "K_string": {"K": "abc"},
    "case_int": {"case": 7}, "K_float": {"K": 2.5}, "batch_float": {"batch": 2.5},
    "seed_float": {"seed": 1.5}, "bisect_iters_float": {"bisect_iters": 2.0},
    "K_bool": {"K": True},
}


@pytest.mark.parametrize("content", WRONG_TYPES.values(), ids=WRONG_TYPES.keys())
def test_train_config_refuses_a_value_of_the_wrong_type(tmp_path, capsys, monkeypatch,
                                                        tri_data, content):
    monkeypatch.chdir(tmp_path)   # where the default out_dir would go
    if isinstance(content, dict):
        content = {"case": "triangle3", "method": "penalty", "dataset": str(tri_data),
                   "out_dir": "run", "K": 1, "L": 2, "batch": 2, **content}
    (tmp_path / "cfg.json").write_text(json.dumps(content))
    assert run(["train", "--config", "cfg.json"]) == 2
    assert "config error" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_train_rejects_bisection_count_before_writing(tmp_path):
    data = tmp_path / "t.bin"
    assert run(["gen", "--case", "triangle3", "--n", "4", "--seed", "0",
                "--out", str(data)]) == 0
    out_dir = tmp_path / "run"
    assert run(["train", "--case", "triangle3", "--method", "penalty",
                "--dataset", str(data), "--out-dir", str(out_dir),
                "-K", "1", "-L", "2", "--batch", "2", "--bisect-iters", "53"]) == 2
    assert not out_dir.exists()


def test_eval_serves_at_trained_bisection_count(tmp_path, monkeypatch):
    data = tmp_path / "t.bin"
    assert run(["gen", "--case", "triangle3", "--n", "4", "--seed", "0",
                "--out", str(data)]) == 0
    out_dir = tmp_path / "run"
    assert run(["train", "--case", "triangle3", "--method", "penalty",
                "--dataset", str(data), "--out-dir", str(out_dir),
                "-K", "1", "-L", "2", "--batch", "2", "--bisect-iters", "8"]) == 0
    for name in ("checkpoint_k001.bin", "checkpoint_final.bin"):
        assert load_checkpoint(out_dir / name).trainer["bisect_iters"] == 8
    seen = []
    original = cli.evaluate_model

    def spy(*args, **kwargs):
        seen.append(kwargs.get("bisect_iters"))
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "evaluate_model", spy)
    assert run(["eval", "--case", "triangle3", "--checkpoint",
                str(out_dir / "checkpoint_final.bin"), "--dataset", str(data)]) == 0
    assert seen == [8]
    # a count that is not an integer is a data error, not a traceback
    ck = load_checkpoint(out_dir / "checkpoint_final.bin")
    ck.trainer["bisect_iters"] = 8.0
    save_checkpoint(tmp_path / "bad.bin", ck)
    assert run(["eval", "--case", "triangle3", "--checkpoint", str(tmp_path / "bad.bin"),
                "--dataset", str(data)]) == 3
    assert seen == [8]


def test_eval_dimension_mismatch(tmp_path, capsys):
    data = tmp_path / "t.bin"
    assert run(["gen", "--case", "triangle3", "--n", "4", "--seed", "0",
                "--out", str(data)]) == 0
    out_dir = tmp_path / "run"
    assert run(["train", "--case", "triangle3", "--method", "penalty",
                "--dataset", str(data), "--out-dir", str(out_dir),
                "-K", "1", "-L", "2", "--batch", "2"]) == 0
    data5 = tmp_path / "m5.bin"
    assert run(["gen", "--case", "micro5", "--n", "2", "--seed", "0",
                "--out", str(data5)]) == 0
    rc = run(["eval", "--case", "micro5", "--checkpoint",
              str(out_dir / "checkpoint_final.bin"), "--dataset", str(data5)])
    assert rc == 3
    assert "does not match" in capsys.readouterr().err


def test_eval_latency_percentiles(tri_case, tri_factors, tri_cont):
    from scopflearn.report import evaluate_model
    from scopflearn.sampling import PerturbationConfig, sample_dataset
    from scopflearn.training import build_networks

    instances, _ = sample_dataset(tri_case, PerturbationConfig(seed=6), 40, cont=tri_cont)
    primal, _ = build_networks(tri_case, tri_cont, instances[0].x.size, seed=1,
                               need_dual=False)
    report = evaluate_model(tri_case, tri_factors, tri_cont, primal, instances)
    times = [row["inference_ms"] for row in report.rows]
    assert len(times) == 40
    assert report.mean_inference_ms == float(np.mean(times))
    assert report.p50_inference_ms == float(np.percentile(times, 50))
    assert report.p99_inference_ms == float(np.percentile(times, 99))
    assert min(times) <= report.p50_inference_ms <= report.p99_inference_ms <= max(times)
    line = next(s for s in report.summary_lines() if s.startswith("mean inference time"))
    assert (f"{report.mean_inference_ms:.3f} ms (p50 {report.p50_inference_ms:.3f} ms, "
            f"p99 {report.p99_inference_ms:.3f} ms)") in line
