"""Binary container formats for tensors and models.

Every container shares one envelope: a 4-byte magic, a u32 little-endian
format version, a u32 little-endian header length, a UTF-8 JSON header, and
a payload of raw little-endian IEEE-754 doubles.  Matrix and core payloads
are stored in the canonical first-index-fastest (column-major) order.
"""

from __future__ import annotations

import json
import struct
from math import prod
from pathlib import Path

import numpy as np

from .blockmodels import HOPTANode
from .cpd import CPModel
from .cur import FSTDModel
from .dense import DenseTensor
from .quantize import QuantizationScheme
from .tucker import TuckerModel
from .ttrain import TTMatrixModel, TTModel

MAGIC_DTEN = b"DTEN"
MAGIC_CPM = b"CPMD"
MAGIC_TKM = b"TUKM"
MAGIC_TTM = b"TTMD"
MAGIC_HOP = b"HOPT"
_VERSION = 1

_EXT_MAGIC = {".dten": MAGIC_DTEN, ".cpm": MAGIC_CPM, ".tkm": MAGIC_TKM,
              ".ttm": MAGIC_TTM, ".hop": MAGIC_HOP}


class ContainerError(ValueError):
    """Malformed or mismatched container file."""


def _write(path, magic: bytes, header: dict, payloads) -> None:
    blob = json.dumps(header, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<II", _VERSION, len(blob)))
        fh.write(blob)
        for arr in payloads:
            fh.write(np.asarray(arr, dtype="<f8").ravel(order="F").tobytes())


def _read(path, magic: bytes) -> tuple[dict, np.ndarray]:
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[:4] != magic:
        raise ContainerError(f"{path}: bad magic; expected "
                             f"{magic.decode()} container")
    version, hlen = struct.unpack("<II", raw[4:12])
    if version != _VERSION:
        raise ContainerError(f"{path}: unsupported version {version}")
    if len(raw) < 12 + hlen:
        raise ContainerError(f"{path}: truncated header")
    try:
        header = json.loads(raw[12:12 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ContainerError(f"{path}: malformed header: {exc}") from exc
    if not isinstance(header, dict):
        raise ContainerError(f"{path}: header is not a JSON object")
    payload = np.frombuffer(raw[12 + hlen:], dtype="<f8")
    return header, payload


def _field(path, header: dict, key: str):
    """Required header entry; a missing one makes the container malformed."""
    if key not in header:
        raise ContainerError(f"{path}: header lacks required key {key!r}")
    return header[key]


class _PayloadReader:
    def __init__(self, path, payload: np.ndarray):
        self.path = path
        self.payload = payload
        self.pos = 0

    def take(self, shape) -> np.ndarray:
        n = prod(shape)
        if self.pos + n > self.payload.size:
            raise ContainerError(f"{self.path}: payload shorter than the "
                                 f"header declares")
        out = self.payload[self.pos:self.pos + n].reshape(shape, order="F")
        self.pos += n
        return np.ascontiguousarray(out)

    def finish(self) -> None:
        if self.pos != self.payload.size:
            raise ContainerError(f"{self.path}: {self.payload.size - self.pos} "
                                 f"trailing payload scalars")


def write_dense(path, t: DenseTensor) -> None:
    header = {"order": t.order, "dims": list(t.dims), "scalar": "f64",
              "convention": "little-endian"}
    _write(path, MAGIC_DTEN, header, [t.data])


def read_dense(path) -> DenseTensor:
    header, payload = _read(path, MAGIC_DTEN)
    if header.get("scalar") != "f64" or \
            header.get("convention") != "little-endian":
        raise ContainerError(f"{path}: unsupported scalar type or convention")
    dims = tuple(int(d) for d in _field(path, header, "dims"))
    if int(header.get("order", len(dims))) != len(dims):
        raise ContainerError(f"{path}: order/dims mismatch in header")
    if payload.size != prod(dims):
        raise ContainerError(f"{path}: payload has {payload.size} scalars, "
                             f"header declares {prod(dims)}")
    return DenseTensor(dims, payload)


def write_cp(path, m: CPModel) -> None:
    header = {"rank": m.rank, "dims": list(m.dims),
              "weights": [float(w) for w in m.weights]}
    _write(path, MAGIC_CPM, header, m.factors)


def read_cp(path) -> CPModel:
    header, payload = _read(path, MAGIC_CPM)
    rank = int(_field(path, header, "rank"))
    dims = [int(d) for d in _field(path, header, "dims")]
    weights = np.array(_field(path, header, "weights"), dtype=np.float64)
    reader = _PayloadReader(path, payload)
    factors = [reader.take((d, rank)) for d in dims]
    reader.finish()
    return CPModel(weights, factors)


def write_tucker(path, m: TuckerModel) -> None:
    header = {"dims": list(m.dims), "ranks": list(m.ranks),
              "identity_modes": list(m.identity_modes)}
    payloads = [m.core.data] + [f for f in m.factors if f is not None]
    _write(path, MAGIC_TKM, header, payloads)


def read_tucker(path) -> TuckerModel:
    header, payload = _read(path, MAGIC_TKM)
    dims = [int(d) for d in _field(path, header, "dims")]
    ranks = [int(r) for r in _field(path, header, "ranks")]
    identity = set(int(n) for n in header.get("identity_modes", []))
    reader = _PayloadReader(path, payload)
    core = DenseTensor(ranks, reader.take((prod(ranks),)))
    factors = [None if n in identity else reader.take((dims[n - 1], ranks[n - 1]))
               for n in range(1, len(dims) + 1)]
    reader.finish()
    return TuckerModel(core, factors)


def write_tt(path, m: TTModel | TTMatrixModel,
             scheme: QuantizationScheme | None = None) -> None:
    if isinstance(m, TTMatrixModel):
        header = {"kind": "mpo", "order": m.order,
                  "row_dims": list(m.row_dims),
                  "col_dims": list(m.col_dims),
                  "pairing": [list(p) for p in m.pairing],
                  "ranks": list(m.ranks)}
    else:
        header = {"kind": "mps", "order": m.order, "dims": list(m.dims),
                  "ranks": list(m.ranks), "canonical": m.ortho_center}
    if scheme is not None:
        header["quantization"] = scheme.to_dict()
    _write(path, MAGIC_TTM, header, m.cores)


def read_tt(path):
    """Read a .ttm container.

    Returns (model, scheme) where model is a TTModel or TTMatrixModel and
    scheme is the stored QuantizationScheme or None.
    """
    header, payload = _read(path, MAGIC_TTM)
    kind = header.get("kind")
    reader = _PayloadReader(path, payload)
    scheme = None
    quant = header.get("quantization")
    if quant:
        for key in ("dims", "mode_factors"):
            _field(path, quant, key)
        scheme = QuantizationScheme.from_dict(quant)
    ranks = [int(r) for r in _field(path, header, "ranks")]
    if kind == "mps":
        dims = [int(d) for d in _field(path, header, "dims")]
        chain = [1] + ranks + [1]
        cores = [reader.take((chain[n], dims[n], chain[n + 1]))
                 for n in range(len(dims))]
        reader.finish()
        center = header.get("canonical")
        model = TTModel(cores, None if center is None else int(center))
        return model, scheme
    if kind == "mpo":
        rows = [int(d) for d in _field(path, header, "row_dims")]
        cols = [int(d) for d in _field(path, header, "col_dims")]
        pairing = [tuple(int(x) for x in p)
                   for p in _field(path, header, "pairing")]
        chain = [1] + ranks + [1]
        cores = [reader.take((chain[n], rows[n], cols[n], chain[n + 1]))
                 for n in range(len(rows))]
        reader.finish()
        return TTMatrixModel(cores, pairing), scheme
    raise ContainerError(f"{path}: unknown tensor-train kind {kind!r}")


def _hopta_manifest(node: HOPTANode, leaves: list) -> dict:
    if node.tensor is not None:
        leaves.append(node.tensor.data)
        return {"kind": "leaf", "dims": list(node.tensor.dims)}
    return {"kind": "sum",
            "terms": [[_hopta_manifest(child, leaves) for child in term]
                      for term in node.terms]}


def write_hopta(path, root: HOPTANode) -> None:
    leaves: list[np.ndarray] = []
    tree = _hopta_manifest(root, leaves)
    _write(path, MAGIC_HOP, {"tree": tree}, leaves)


def _hopta_build(tree: dict, reader: _PayloadReader) -> HOPTANode:
    kind = _field(reader.path, tree, "kind")
    if kind == "leaf":
        dims = tuple(int(d) for d in _field(reader.path, tree, "dims"))
        return HOPTANode.leaf(DenseTensor(dims, reader.take((prod(dims),))))
    if kind == "sum":
        return HOPTANode.sum_of_outer(
            [[_hopta_build(child, reader) for child in term]
             for term in _field(reader.path, tree, "terms")])
    raise ContainerError(f"{reader.path}: unknown HOPTA node kind {kind!r}")


def read_hopta(path) -> HOPTANode:
    header, payload = _read(path, MAGIC_HOP)
    reader = _PayloadReader(path, payload)
    root = _hopta_build(_field(path, header, "tree"), reader)
    reader.finish()
    return root


def write_fstd(path, m: FSTDModel) -> None:
    """FSTD ships as its Tucker form in a .tkm container plus a JSON sidecar
    listing the selected per-mode indices."""
    write_tucker(path, m.tucker)
    sidecar = {"indices": [list(ix) for ix in m.indices],
               "dims": list(m.tucker.dims)}
    Path(str(path) + ".indices.json").write_text(
        json.dumps(sidecar, sort_keys=True, separators=(",", ":")) + "\n",
        encoding="utf-8")


def sniff(path) -> str:
    """Container type of a file: one of dten, cpm, tkm, ttm, hop."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
    for ext, m in _EXT_MAGIC.items():
        if m == magic:
            return ext[1:]
    raise ContainerError(f"{path}: unrecognized container magic {magic!r}")


def read_model(path):
    """Read any model container by magic; returns the model object."""
    kind = sniff(path)
    if kind == "dten":
        return read_dense(path)
    if kind == "cpm":
        return read_cp(path)
    if kind == "tkm":
        return read_tucker(path)
    if kind == "ttm":
        return read_tt(path)[0]
    if kind == "hop":
        return read_hopta(path)
    raise ContainerError(f"{path}: unsupported container {kind}")
