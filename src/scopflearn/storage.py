"""Deterministic binary containers for datasets and checkpoints.

Blob layout (little-endian):

    bytes 0..7    magic (8 bytes, format id + format version byte)
    bytes 8..11   u32 container version
    bytes 12..15  u32 flags
    bytes 16..23  u64 length of the JSON metadata block
    ...           metadata JSON (utf-8, sorted keys, compact separators)
    ...           raw arrays, C order, concatenated in metadata order

Array dtypes are recorded in the metadata (numpy dtype strings).  Writers
never embed timestamps, so identical inputs produce identical bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .nn import AdamState, MlpParams
from .sampling import Instance, input_vector

DATASET_MAGIC = b"SCLDATA\x01"
CHECKPOINT_MAGIC = b"SCLCKPT\x01"
CONTAINER_VERSION = 1
FLAG_LABELED = 1


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def write_blob(path, magic: bytes, meta: dict, arrays: list, flags: int = 0) -> None:
    meta = dict(meta)
    meta["arrays"] = [
        {"name": name, "dtype": arr.dtype.str, "shape": list(arr.shape)}
        for name, arr in arrays
    ]
    meta_bytes = canonical_json(meta).encode()
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<II", CONTAINER_VERSION, flags))
        fh.write(struct.pack("<Q", len(meta_bytes)))
        fh.write(meta_bytes)
        for _, arr in arrays:
            fh.write(np.ascontiguousarray(arr).tobytes())


def read_blob(path, magic: bytes):
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if len(raw) < 24 or raw[:8] != magic:
        raise DataError(f"{path} is not a {magic[:7].decode()} file")
    version, flags = struct.unpack("<II", raw[8:16])
    if version != CONTAINER_VERSION:
        raise DataError(f"unsupported container version {version} in {path}")
    (meta_len,) = struct.unpack("<Q", raw[16:24])
    meta = json.loads(raw[24:24 + meta_len].decode())
    offset = 24 + meta_len
    arrays = {}
    for spec in meta["arrays"]:
        dtype = np.dtype(spec["dtype"])
        count = int(math.prod(spec["shape"]))
        nbytes = count * dtype.itemsize
        if offset + nbytes > len(raw):
            raise DataError(f"truncated blob {path}")
        # a read-only view of the file bytes: the reader makes the one copy
        arrays[spec["name"]] = np.frombuffer(raw, dtype, count, offset).reshape(spec["shape"])
        offset += nbytes
    return meta, arrays, flags


# ---------------------------------------------------------------------------
# datasets

@dataclass
class Dataset:
    case_name: str
    seed: int
    d: np.ndarray
    c: np.ndarray
    gub: np.ndarray
    seeds: np.ndarray
    g_star: np.ndarray | None = None
    obj_star: np.ndarray | None = None
    tol_certificate: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.d.shape[0]

    @property
    def labeled(self) -> bool:
        return self.g_star is not None

    def instances(self, case) -> list[Instance]:
        if self.d.shape[1] != case.n_load or self.c.shape[1] != case.n_gen:
            raise DataError(
                f"dataset dims (loads={self.d.shape[1]}, gens={self.c.shape[1]}) do not "
                f"match case (loads={case.n_load}, gens={case.n_gen})")
        x = input_vector(case, self.d, self.c, self.gub)
        return [Instance(d=self.d[i], c=self.c[i], gub=self.gub[i], x=x[i],
                         seed=int(self.seeds[i])) for i in range(self.n)]


def write_dataset(path, dataset: Dataset) -> None:
    arrays = [("d", dataset.d.astype("<f8")),
              ("c", dataset.c.astype("<f8")),
              ("gub", dataset.gub.astype("<f8")),
              ("seeds", dataset.seeds.astype("<u8"))]
    flags = 0
    if dataset.labeled:
        flags |= FLAG_LABELED
        arrays += [("g_star", dataset.g_star.astype("<f8")),
                   ("obj_star", dataset.obj_star.astype("<f8")),
                   ("tol_certificate", dataset.tol_certificate.astype("<f8"))]
    meta = {
        "kind": "dataset",
        "case": dataset.case_name,
        "seed": dataset.seed,
        "n": dataset.n,
        "n_load": dataset.d.shape[1],
        "n_gen": dataset.c.shape[1],
    }
    write_blob(path, DATASET_MAGIC, meta, arrays, flags=flags)


def read_dataset(path) -> Dataset:
    meta, arrays, flags = read_blob(path, DATASET_MAGIC)
    arrays = {name: a.copy() for name, a in arrays.items()}
    labeled = bool(flags & FLAG_LABELED)
    return Dataset(
        case_name=meta["case"],
        seed=int(meta["seed"]),
        d=arrays["d"],
        c=arrays["c"],
        gub=arrays["gub"],
        seeds=arrays["seeds"],
        g_star=arrays["g_star"] if labeled else None,
        obj_star=arrays["obj_star"] if labeled else None,
        tol_certificate=arrays["tol_certificate"] if labeled else None,
    )


def dataset_from_instances(case_name: str, seed: int, instances: list[Instance]) -> Dataset:
    return Dataset(
        case_name=case_name,
        seed=seed,
        d=np.stack([i.d for i in instances]),
        c=np.stack([i.c for i in instances]),
        gub=np.stack([i.gub for i in instances]),
        seeds=np.array([i.seed for i in instances], dtype=np.uint64),
    )


# ---------------------------------------------------------------------------
# checkpoints

@dataclass
class Checkpoint:
    method: str
    case_name: str
    dim_x: int
    n_gen: int
    primal: MlpParams
    primal_adam: AdamState
    dual: MlpParams | None = None
    dual_adam: AdamState | None = None
    trainer: dict | None = None


def _pack_net(prefix: str, params: MlpParams, adam: AdamState, arrays: list) -> dict:
    for name, arr in params.named_arrays():
        arrays.append((f"{prefix}.{name}", arr.astype("<f8")))
    for i, (m, v) in enumerate(zip(params.split(adam.m), params.split(adam.v))):
        arrays.append((f"{prefix}.adam_m{i}", m.astype("<f8")))
        arrays.append((f"{prefix}.adam_v{i}", v.astype("<f8")))
    return {
        "sizes": list(params.sizes),
        "use_layernorm": params.use_layernorm,
        "adam_step": adam.step,
        "adam_beta1": adam.beta1,
        "adam_beta2": adam.beta2,
        "adam_eps": adam.eps,
    }


def _unpack_net(prefix: str, spec: dict, arrays: dict) -> tuple[MlpParams, AdamState]:
    """Copy the stored arrays of one network straight into its flat
    parameter and Adam moment buffers, one copy per array."""
    params = MlpParams(sizes=tuple(spec["sizes"]), use_layernorm=spec["use_layernorm"])
    adam = AdamState(
        m=np.empty_like(params.flat),
        v=np.empty_like(params.flat),
        step=int(spec["adam_step"]),
        beta1=float(spec["adam_beta1"]),
        beta2=float(spec["adam_beta2"]),
        eps=float(spec["adam_eps"]),
    )
    names, shapes = zip(*params.shapes())
    for keys, flat in ((names, params.flat),
                       ([f"adam_m{i}" for i in range(len(names))], adam.m),
                       ([f"adam_v{i}" for i in range(len(names))], adam.v)):
        stored = [arrays[f"{prefix}.{key}"] for key in keys]
        if tuple(a.shape for a in stored) != shapes:
            raise DataError(f"checkpoint arrays of network {prefix!r} do not match "
                            f"its layer sizes {spec['sizes']}")
        np.concatenate(stored, axis=None, out=flat)
    return params, adam


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    arrays: list = []
    meta = {
        "kind": "checkpoint",
        "method": ckpt.method,
        "case": ckpt.case_name,
        "dim_x": ckpt.dim_x,
        "n_gen": ckpt.n_gen,
        "trainer": ckpt.trainer or {},
        "primal": _pack_net("p", ckpt.primal, ckpt.primal_adam, arrays),
    }
    if ckpt.dual is not None:
        meta["dual"] = _pack_net("d", ckpt.dual, ckpt.dual_adam, arrays)
    write_blob(path, CHECKPOINT_MAGIC, meta, arrays)


def load_checkpoint(path) -> Checkpoint:
    meta, arrays, _ = read_blob(path, CHECKPOINT_MAGIC)
    primal, primal_adam = _unpack_net("p", meta["primal"], arrays)
    dual = dual_adam = None
    if "dual" in meta:
        dual, dual_adam = _unpack_net("d", meta["dual"], arrays)
    return Checkpoint(
        method=meta["method"],
        case_name=meta["case"],
        dim_x=int(meta["dim_x"]),
        n_gen=int(meta["n_gen"]),
        primal=primal,
        primal_adam=primal_adam,
        dual=dual,
        dual_adam=dual_adam,
        trainer=meta.get("trainer") or {},
    )
