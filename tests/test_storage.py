import hashlib

import numpy as np
import pytest

from scopflearn.errors import DataError
from scopflearn.nn import AdamState, init_mlp
from scopflearn.sampling import PerturbationConfig, sample_dataset
from scopflearn.storage import (
    CHECKPOINT_MAGIC,
    DATASET_MAGIC,
    Checkpoint,
    Dataset,
    canonical_json,
    config_hash,
    dataset_from_instances,
    load_checkpoint,
    read_blob,
    read_dataset,
    save_checkpoint,
    write_dataset,
)

from conftest import (BAD_CHECKPOINTS, BAD_DATASETS, assert_views_of, write_checkpoint,
                      write_labeled_dataset)


def _dataset(case, cont, seed=40, n=10):
    cfg = PerturbationConfig(seed=seed)
    instances, _ = sample_dataset(case, cfg, n, cont=cont)
    return dataset_from_instances(case.name, seed, instances)


def test_dataset_roundtrip(tmp_path, m5_case, m5_cont):
    ds = _dataset(m5_case, m5_cont)
    path = tmp_path / "data.bin"
    write_dataset(path, ds)
    # 16-byte magic/version header
    head = path.read_bytes()[:16]
    assert head[:8] == b"SCLDATA\x01"
    back = read_dataset(path)
    assert back.case_name == ds.case_name
    assert back.seed == ds.seed
    assert np.array_equal(back.d, ds.d)
    assert np.array_equal(back.c, ds.c)
    assert np.array_equal(back.gub, ds.gub)
    assert np.array_equal(back.seeds, ds.seeds)
    assert not back.labeled


def test_dataset_byte_identical(tmp_path, m5_case, m5_cont):
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    write_dataset(p1, _dataset(m5_case, m5_cont))
    write_dataset(p2, _dataset(m5_case, m5_cont))
    assert hashlib.sha256(p1.read_bytes()).digest() == \
        hashlib.sha256(p2.read_bytes()).digest()


def test_labeled_dataset_roundtrip(tmp_path, m5_case, m5_cont):
    ds = _dataset(m5_case, m5_cont, n=4)
    labeled = Dataset(case_name=ds.case_name, seed=ds.seed, d=ds.d, c=ds.c,
                      gub=ds.gub, seeds=ds.seeds,
                      g_star=np.ones((4, 3)), obj_star=np.arange(4.0),
                      tol_certificate=np.full(4, 0.5))
    path = tmp_path / "labeled.bin"
    write_dataset(path, labeled)
    back = read_dataset(path)
    assert back.labeled
    assert np.array_equal(back.g_star, labeled.g_star)
    assert np.array_equal(back.obj_star, labeled.obj_star)
    assert np.array_equal(back.tol_certificate, labeled.tol_certificate)


def test_instances_reconstruct_x(m5_case, m5_cont):
    cfg = PerturbationConfig(seed=41)
    instances, _ = sample_dataset(m5_case, cfg, 5, cont=m5_cont)
    ds = dataset_from_instances(m5_case.name, 41, instances)
    rebuilt = ds.instances(m5_case)
    for a, b in zip(instances, rebuilt):
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.d, b.d)


def test_instances_dim_check(m5_case, tri_case):
    cfg = PerturbationConfig(seed=42)
    from scopflearn.grid import build_factors, screen_contingencies
    cont = screen_contingencies(m5_case, build_factors(m5_case))
    instances, _ = sample_dataset(m5_case, cfg, 2, cont=cont)
    ds = dataset_from_instances(m5_case.name, 42, instances)
    with pytest.raises(DataError, match="match case"):
        ds.instances(tri_case)


def test_corrupt_files_rejected(tmp_path, m5_case, m5_cont):
    p = tmp_path / "junk.bin"
    p.write_bytes(b"definitely not a dataset")
    with pytest.raises(DataError):
        read_dataset(p)
    p.write_bytes(b"SCLDATA\x01" + b"\x00" * 4)
    with pytest.raises(DataError):
        read_dataset(p)
    # a file cut short inside its arrays, or claiming a larger array than it
    # holds, is refused before anything is read into a buffer
    write_dataset(p, _dataset(m5_case, m5_cont, n=3))
    whole = p.read_bytes()
    p.write_bytes(whole[:-1])
    with pytest.raises(DataError, match="truncated"):
        read_dataset(p)
    p.write_bytes(whole.replace(b'"shape":[3,3]', b'"shape":[9,3]', 1))
    with pytest.raises(DataError, match="truncated"):
        read_dataset(p)
    p.write_bytes(whole[:16] + b"\xff" * 8 + whole[24:])   # metadata length 2^64 - 1
    with pytest.raises(DataError, match="truncated"):
        read_dataset(p)
    primal = init_mlp((4, 6, 2), np.random.default_rng(47))
    save_checkpoint(p, Checkpoint(method="penalty", case_name="t", dim_x=4, n_gen=2,
                                  primal=primal, primal_adam=AdamState.for_params(primal)))
    p.write_bytes(p.read_bytes()[:-8])
    with pytest.raises(DataError, match="truncated"):
        load_checkpoint(p)


def _with_metadata(whole: bytes, meta: bytes) -> bytes:
    """A blob's bytes with its metadata block replaced."""
    old_len = int.from_bytes(whole[16:24], "little")
    return whole[:16] + len(meta).to_bytes(8, "little") + meta + whole[24 + old_len:]


def test_corrupt_metadata_is_a_data_error(tmp_path, m5_case, m5_cont):
    p = tmp_path / "d.bin"
    write_dataset(p, _dataset(m5_case, m5_cont, n=3))
    whole = p.read_bytes()
    meta = whole[24:24 + int.from_bytes(whole[16:24], "little")]
    spec = b'{"dtype":"<f8","name":"d","shape":[3,3]}'
    assert spec in meta
    bad = {
        "json": meta[:-1],
        "utf-8": b"\xff" + meta[1:],
        "not an object": b"[1,2]",
        "no arrays": meta.replace(b'"arrays"', b'"arrayz"'),
        "arrays not a list": meta.replace(b'"arrays":[', b'"arrays":7,"x":[', 1),
        "spec without shape": meta.replace(spec, b'{"dtype":"<f8","name":"d"}'),
        "shape not a list": meta.replace(spec, b'{"dtype":"<f8","name":"d","shape":9}'),
        "shape of strings": meta.replace(spec, b'{"dtype":"<f8","name":"d","shape":["a"]}'),
        "negative shape": meta.replace(spec, b'{"dtype":"<f8","name":"d","shape":[-3,-3]}'),
        "unknown dtype": meta.replace(spec, b'{"dtype":"<q9","name":"d","shape":[3,3]}'),
        "byte order": meta.replace(spec, b'{"dtype":">f8","name":"d","shape":[3,3]}'),
        "object dtype": meta.replace(spec, b'{"dtype":"|O","name":"d","shape":[3,3]}'),
        "name not hashable": meta.replace(spec, b'{"dtype":"<f8","name":[],"shape":[3,3]}'),
        "shorter shape": meta.replace(spec, b'{"dtype":"<f8","name":"d","shape":[3,2]}'),
        "no case": meta.replace(b'"case"', b'"cass"'),
    }
    for what, block in bad.items():
        assert block != meta, what
        p.write_bytes(_with_metadata(whole, block))
        with pytest.raises(DataError):
            read_dataset(p)
    # every single flipped byte of a dataset's or a checkpoint's metadata
    # either still reads or is a DataError
    q = tmp_path / "c.ckpt"
    primal = init_mlp((4, 6, 2), np.random.default_rng(47))
    save_checkpoint(q, Checkpoint(method="pdl", case_name="t", dim_x=4, n_gen=2,
                                  primal=primal, primal_adam=AdamState.for_params(primal),
                                  dual=primal, dual_adam=AdamState.for_params(primal)))
    p.write_bytes(whole)
    r = write_labeled_dataset(tmp_path / "l.bin")
    for path, read in ((p, read_dataset), (r, read_dataset), (q, load_checkpoint)):
        blob = path.read_bytes()
        for i in range(24, 24 + int.from_bytes(blob[16:24], "little")):
            for flip in (0x01, 0x20, 0xFF):
                path.write_bytes(blob[:i] + bytes([blob[i] ^ flip]) + blob[i + 1:])
                try:
                    read(path)
                except DataError:
                    pass


def test_blob_naming_one_array_twice_is_a_data_error(tmp_path, m5_case, m5_cont):
    # c renamed d: the sizes still add up, so only the names show the fault
    p = tmp_path / "d.bin"
    write_dataset(p, _dataset(m5_case, m5_cont, n=3))
    whole = p.read_bytes()
    meta = whole[24:24 + int.from_bytes(whole[16:24], "little")]
    assert meta.count(b'"name":"c"') == 1
    p.write_bytes(_with_metadata(whole, meta.replace(b'"name":"c"', b'"name":"d"')))
    with pytest.raises(DataError):
        read_blob(p, DATASET_MAGIC)
    with pytest.raises(DataError):
        read_dataset(p)


@pytest.mark.parametrize("fault", BAD_DATASETS)
def test_dataset_arrays_must_match_its_metadata(tmp_path, fault):
    good = read_dataset(write_labeled_dataset(tmp_path / "good.bin"))
    assert good.labeled and good.n == 3
    with pytest.raises(DataError, match="do not match|not the expected"):
        read_dataset(write_labeled_dataset(tmp_path / "bad.bin", fault))


@pytest.mark.parametrize("edit", [
    dict(c=lambda a: a[:-1]), dict(gub=lambda a: a[:, :-1]), dict(seeds=lambda a: a[:-1]),
    dict(g_star=lambda a: a[:-1]), dict(obj_star=lambda a: a[:-1]),
    dict(tol_certificate=lambda a: np.append(a, 0.0)),
], ids=["c_rows", "gub_cols", "seeds_len", "g_star_rows", "obj_star_len", "tol_certificate_len"])
def test_write_dataset_refuses_mismatched_arrays_and_writes_nothing(tmp_path, edit):
    good = read_dataset(write_labeled_dataset(tmp_path / "good.bin"))
    bad = Dataset(**{**vars(good), **{name: f(getattr(good, name)) for name, f in edit.items()}})
    path = tmp_path / "bad.bin"
    with pytest.raises(DataError, match="do not match"):
        write_dataset(path, bad)
    assert not path.exists()


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(43)
    primal = init_mlp((6, 9, 9, 3), rng, use_layernorm=True)
    dual = init_mlp((6, 9, 2), rng, use_layernorm=False)
    padam = AdamState.for_params(primal)
    dadam = AdamState.for_params(dual)
    padam.step = 7
    primal.split(padam.m)[0][:] = 0.25
    ck = Checkpoint(method="pdl", case_name="micro5", dim_x=6, n_gen=3,
                    primal=primal, primal_adam=padam, dual=dual, dual_adam=dadam,
                    trainer={"rho": 0.4, "v_prev": 0.01, "outer": 3, "inner": 10})
    path = tmp_path / "ck.bin"
    save_checkpoint(path, ck)
    assert path.read_bytes()[:8] == b"SCLCKPT\x02"
    back = load_checkpoint(path)
    # each buffer comes back byte for byte
    for net, adam, saved, saved_adam in ((back.primal, back.primal_adam, primal, padam),
                                         (back.dual, back.dual_adam, dual, dadam)):
        assert net.flat.tobytes() == saved.flat.tobytes()
        assert adam.m.tobytes() == saved_adam.m.tobytes()
        assert adam.v.tobytes() == saved_adam.v.tobytes()
    assert back.method == "pdl"
    assert back.primal.sizes == primal.sizes
    assert back.primal.use_layernorm
    for a, b in zip(back.primal.arrays(), primal.arrays()):
        assert np.array_equal(a, b)
    for a, b in zip(back.dual.arrays(), dual.arrays()):
        assert np.array_equal(a, b)
    assert back.primal_adam.step == 7
    assert np.array_equal(back.primal_adam.m, padam.m)
    assert np.all(back.primal.split(back.primal_adam.m)[0] == 0.25)
    assert back.trainer["rho"] == 0.4


def test_checkpoint_arrays_are_writeable_and_separate(tmp_path):
    # training resumes in place on loaded arrays: each network's parameters
    # and Adam moments load into three owned buffers, every named array a
    # writeable view of its buffer, in order, and no two buffers overlap
    rng = np.random.default_rng(45)
    primal = init_mlp((5, 7, 7, 2), rng, use_layernorm=True)
    dual = init_mlp((5, 7, 1), rng, use_layernorm=False)
    path = tmp_path / "ck.bin"
    save_checkpoint(path, Checkpoint(
        method="pdl", case_name="t", dim_x=5, n_gen=2, primal=primal,
        primal_adam=AdamState.for_params(primal), dual=dual,
        dual_adam=AdamState.for_params(dual)))
    back = load_checkpoint(path)
    buffers = []
    for params, adam in ((back.primal, back.primal_adam), (back.dual, back.dual_adam)):
        per_layer = [params.weights, params.biases]
        if params.use_layernorm:
            per_layer += [params.ln_gain, params.ln_offset]
        assert_views_of(params.flat, [a for layer in zip(*per_layer) for a in layer])
        for moment in (adam.m, adam.v):
            assert_views_of(moment, params.split(moment))
        buffers += [params.flat, adam.m, adam.v]
    for i, a in enumerate(buffers):
        for b in buffers[i + 1:]:
            assert not np.shares_memory(a, b)


def test_checkpoint_rejects_misshapen_array(tmp_path):
    # a p.flat one element short of the layout its sizes fix
    path = write_checkpoint(tmp_path / "ck.bin", "short_flat")
    with pytest.raises(DataError, match="do not match"):
        load_checkpoint(path)


def test_checkpoint_stores_three_arrays_per_network(tmp_path):
    rng = np.random.default_rng(48)
    primal = init_mlp((5, 7, 7, 2), rng, use_layernorm=True)
    dual = init_mlp((5, 7, 1), rng)
    path = tmp_path / "ck.bin"
    for dual_net, names in ((None, ["p.flat", "p.adam_m", "p.adam_v"]),
                            (dual, ["p.flat", "p.adam_m", "p.adam_v",
                                    "d.flat", "d.adam_m", "d.adam_v"])):
        save_checkpoint(path, Checkpoint(
            method="penalty" if dual_net is None else "pdl", case_name="t", dim_x=5,
            n_gen=2, primal=primal, primal_adam=AdamState.for_params(primal), dual=dual_net,
            dual_adam=None if dual_net is None else AdamState.for_params(dual_net)))
        meta, arrays, _ = read_blob(path, CHECKPOINT_MAGIC)
        assert [spec["name"] for spec in meta["arrays"]] == names
        assert arrays["p.flat"].tobytes() == primal.flat.tobytes()


@pytest.mark.parametrize("fault", BAD_CHECKPOINTS)
def test_checkpoint_refusals(tmp_path, fault):
    assert load_checkpoint(write_checkpoint(tmp_path / "good.bin")).trainer == {
        "bisect_iters": 25}
    with pytest.raises(DataError):
        load_checkpoint(write_checkpoint(tmp_path / "bad.bin", fault))


def test_checkpoint_byte_identical(tmp_path):
    def build():
        rng = np.random.default_rng(44)
        primal = init_mlp((4, 6, 2), rng)
        return Checkpoint(method="penalty", case_name="t", dim_x=4, n_gen=2,
                          primal=primal, primal_adam=AdamState.for_params(primal))

    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(p1, build())
    save_checkpoint(p2, build())
    assert p1.read_bytes() == p2.read_bytes()


def test_config_hash_stable():
    assert config_hash({"b": 1, "a": 2}) == config_hash({"a": 2, "b": 1})
    assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'
