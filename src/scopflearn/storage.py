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
read_blob gives each array back as stored; read_dataset and load_checkpoint
then refuse arrays whose names, dtypes or shapes are not the ones the rest
of their metadata fixes.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .layers import BISECT_ITERS, MAX_BISECT_ITERS
from .nn import AdamState, MlpParams, param_count
from .sampling import Instance, input_vector

DATASET_MAGIC = b"SCLDATA\x01"
# format byte 2: one flat parameter buffer and two Adam moments per network
CHECKPOINT_MAGIC = b"SCLCKPT\x02"
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


@contextlib.contextmanager
def _metadata_of(path):
    """Reads of a blob's metadata: what a corrupt block raises there (bad
    JSON or UTF-8, a missing key, a malformed value) becomes a DataError."""
    try:
        yield
    except (ValueError, LookupError, TypeError, AttributeError) as exc:
        raise DataError(f"corrupt metadata in {path}: {exc!r}") from exc


def read_blob(path, magic: bytes):
    """Metadata, arrays and flags of a blob: a fresh array of the stored
    shape and dtype for each stored name, read in stored order.  Its
    magic, version and sizes are checked before anything is allocated."""
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            head = fh.read(24)
            if len(head) < 24 or head[:8] != magic:
                raise DataError(f"{path} is not a {magic[:7].decode()} file")
            version, flags, meta_len = struct.unpack("<IIQ", head[8:])
            if version != CONTAINER_VERSION:
                raise DataError(f"unsupported container version {version} in {path}")
            size = os.fstat(fh.fileno()).st_size
            if 24 + meta_len > size:
                raise DataError(f"truncated blob {path}")
            with _metadata_of(path):
                meta = json.loads(fh.read(meta_len).decode())
                specs = [(spec["name"], np.dtype(spec["dtype"]), tuple(spec["shape"]))
                         for spec in meta["arrays"]]
                if len({name for name, _, _ in specs}) != len(specs):
                    raise DataError(f"{path} names one array twice")
                # raw bytes read into an object array would be pointers
                if any(dtype.hasobject for _, dtype, _ in specs):
                    raise DataError(f"stored arrays of {path} hold Python objects")
                need = 24 + meta_len + sum(dtype.itemsize * math.prod(shape)
                                           for _, dtype, shape in specs)
                if need > size:
                    raise DataError(f"truncated blob {path}")
                if need < size:
                    raise DataError(f"{path} holds {size - need} bytes beyond its arrays")
                arrays = {name: np.empty(shape, dtype) for name, dtype, shape in specs}
            for out in arrays.values():
                if fh.readinto(out) != out.nbytes:
                    raise DataError(f"truncated blob {path}")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    return meta, arrays, flags


def _check_arrays(path, arrays: dict, expected: dict) -> None:
    """Refuses read arrays other than the expected ones: expected gives
    each name's dtype string and shape, as the metadata fixes them."""
    if arrays.keys() != expected.keys():
        raise DataError(f"stored arrays {sorted(arrays)} of {path} are not the "
                        f"expected {sorted(expected)}")
    for name, (dtype, shape) in expected.items():
        arr = arrays[name]
        if arr.dtype.str != dtype or arr.shape != shape:
            raise DataError(f"stored array {name!r} {arr.dtype.str}{list(arr.shape)} and "
                            f"the expected {dtype}{list(shape)} do not match in {path}")


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
    """A dataset whose arrays are the ones write_dataset stores, of its
    dtypes and of the shapes the stored n, n_load and n_gen fix."""
    meta, arrays, flags = read_blob(path, DATASET_MAGIC)
    labeled = bool(flags & FLAG_LABELED)
    with _metadata_of(path):
        n, n_load, n_gen = meta["n"], meta["n_load"], meta["n_gen"]
        expected = {"d": ("<f8", (n, n_load)), "c": ("<f8", (n, n_gen)),
                    "gub": ("<f8", (n, n_gen)), "seeds": ("<u8", (n,))}
        if labeled:
            expected |= {"g_star": ("<f8", (n, n_gen)), "obj_star": ("<f8", (n,)),
                         "tol_certificate": ("<f8", (n,))}
        _check_arrays(path, arrays, expected)
        return Dataset(case_name=meta["case"], seed=int(meta["seed"]), **arrays)


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


# the stored arrays of a network, each named "<prefix>.<part>": its flat
# parameter buffer and its two Adam moments, laid out like flat; the stored
# sizes and use_layernorm fix each parameter's place in flat (nn._layout)
NET_ARRAYS = ("flat", "adam_m", "adam_v")


def _pack_net(prefix: str, params: MlpParams, adam: AdamState, arrays: list) -> dict:
    arrays += [(f"{prefix}.{part}", buf.astype("<f8", copy=False))
               for part, buf in zip(NET_ARRAYS, (params.flat, adam.m, adam.v))]
    return {
        "sizes": list(params.sizes),
        "use_layernorm": params.use_layernorm,
        "adam_step": adam.step,
        "adam_beta1": adam.beta1,
        "adam_beta2": adam.beta2,
        "adam_eps": adam.eps,
    }


def _unpack_net(prefix: str, spec: dict, arrays: dict) -> tuple[MlpParams, AdamState]:
    """The network stored under prefix, wrapping its read arrays."""
    params = MlpParams(tuple(spec["sizes"]), spec["use_layernorm"], arrays[f"{prefix}.flat"])
    adam = AdamState(
        m=arrays[f"{prefix}.adam_m"],
        v=arrays[f"{prefix}.adam_v"],
        step=int(spec["adam_step"]),
        beta1=float(spec["adam_beta1"]),
        beta2=float(spec["adam_beta2"]),
        eps=float(spec["adam_eps"]),
    )
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
    """A checkpoint whose fields are checked: each network's three arrays
    have the length its sizes fix, the primal network's sizes match the
    stored dim_x and n_gen, and a stored bisection count is an integer the
    pipeline accepts."""
    meta, arrays, _ = read_blob(path, CHECKPOINT_MAGIC)
    with _metadata_of(path):
        nets = {key: (prefix, meta[key]) for prefix, key in (("p", "primal"), ("d", "dual"))
                if key in meta}
        _check_arrays(path, arrays, {
            f"{prefix}.{part}": ("<f8", (param_count(tuple(spec["sizes"]),
                                                     spec["use_layernorm"]),))
            for prefix, spec in nets.values() for part in NET_ARRAYS})
        primal, primal_adam = _unpack_net(*nets["primal"], arrays)
        dual, dual_adam = _unpack_net(*nets["dual"], arrays) if "dual" in nets else (None, None)
        ckpt = Checkpoint(
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
        bisect_iters = ckpt.trainer.get("bisect_iters", BISECT_ITERS)
        if (ckpt.dim_x, ckpt.n_gen) != (primal.sizes[0], primal.sizes[-1]):
            raise DataError(f"checkpoint dim_x {ckpt.dim_x} and n_gen {ckpt.n_gen} do not "
                            f"match its primal sizes {list(primal.sizes)} in {path}")
        # a bool is an int to Python, not to a reader of the file
        if type(bisect_iters) is not int or not 1 <= bisect_iters <= MAX_BISECT_ITERS:
            raise DataError(f"checkpoint bisect_iters must be an integer in "
                            f"[1, {MAX_BISECT_ITERS}], got {bisect_iters!r} in {path}")
    return ckpt
