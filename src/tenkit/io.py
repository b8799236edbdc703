"""Binary container formats for tensors and models.

Every container shares one envelope: a 4-byte magic, a u32 little-endian
format version, a u32 little-endian header length, a UTF-8 JSON header, and
a payload of raw little-endian IEEE-754 doubles.  Matrix and core payloads
are stored in the canonical first-index-fastest (column-major) order.
"""

from __future__ import annotations

import functools
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


def _is_count(v) -> bool:
    return type(v) is int and v >= 0


def _is_counts(v) -> bool:
    return type(v) is list and all(map(_is_count, v))


def _is_count_lists(v) -> bool:
    return type(v) is list and all(map(_is_counts, v))


def _field(path, header: dict, key: str, valid=None):
    """Required header entry; a missing one, or a value that ``valid``
    rejects, makes the container malformed."""
    if type(header) is not dict:
        raise ContainerError(f"{path}: expected a JSON object with {key!r}")
    if key not in header:
        raise ContainerError(f"{path}: header lacks required key {key!r}")
    if valid is not None and not valid(header[key]):
        raise ContainerError(f"{path}: header key {key!r} has an invalid "
                             f"value {header[key]!r:.40}")
    return header[key]


def _container_reader(read):
    """Report a header the model constructors reject as a malformed file."""
    @functools.wraps(read)
    def checked(path):
        try:
            return read(path)
        except ContainerError:
            raise
        except (ValueError, OverflowError) as exc:
            raise ContainerError(f"{path}: inconsistent header: {exc}") from exc
    return checked


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


@_container_reader
def read_dense(path) -> DenseTensor:
    header, payload = _read(path, MAGIC_DTEN)
    if header.get("scalar") != "f64" or \
            header.get("convention") != "little-endian":
        raise ContainerError(f"{path}: unsupported scalar type or convention")
    dims = _field(path, header, "dims", _is_counts)
    if header.get("order", len(dims)) != len(dims):
        raise ContainerError(f"{path}: order/dims mismatch in header")
    if payload.size != prod(dims):
        raise ContainerError(f"{path}: payload has {payload.size} scalars, "
                             f"header declares {prod(dims)}")
    return DenseTensor(dims, payload)


def write_cp(path, m: CPModel) -> None:
    header = {"rank": m.rank, "dims": list(m.dims),
              "weights": [float(w) for w in m.weights]}
    _write(path, MAGIC_CPM, header, m.factors)


@_container_reader
def read_cp(path) -> CPModel:
    header, payload = _read(path, MAGIC_CPM)
    rank = _field(path, header, "rank", _is_count)
    dims = _field(path, header, "dims", _is_counts)
    weights = np.array(_field(path, header, "weights", lambda v: type(v) is list
                              and all(type(w) in (int, float) for w in v)),
                       dtype=np.float64)
    reader = _PayloadReader(path, payload)
    factors = [reader.take((d, rank)) for d in dims]
    reader.finish()
    return CPModel(weights, factors)


def write_tucker(path, m: TuckerModel) -> None:
    header = {"dims": list(m.dims), "ranks": list(m.ranks),
              "identity_modes": list(m.identity_modes)}
    payloads = [m.core.data] + [f for f in m.factors if f is not None]
    _write(path, MAGIC_TKM, header, payloads)


@_container_reader
def read_tucker(path) -> TuckerModel:
    header, payload = _read(path, MAGIC_TKM)
    dims = _field(path, header, "dims", _is_counts)
    ranks = _field(path, header, "ranks", _is_counts)
    identity = _field(path, header, "identity_modes", _is_counts)
    reader = _PayloadReader(path, payload)
    core = DenseTensor(ranks, reader.take((prod(ranks),)))
    factors = [None if n in identity else reader.take((d, r))
               for n, (d, r) in enumerate(zip(dims, ranks), start=1)]
    reader.finish()
    model = TuckerModel(core, factors)
    if list(model.dims) != dims:
        raise ContainerError(f"{path}: header dims do not match the model's")
    return model


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


@_container_reader
def read_tt(path):
    """Read a .ttm container.

    Returns (model, scheme) where model is a TTModel or TTMatrixModel and
    scheme is the stored QuantizationScheme or None.
    """
    header, payload = _read(path, MAGIC_TTM)
    kind = header.get("kind")
    if kind not in ("mps", "mpo"):
        raise ContainerError(f"{path}: unknown tensor-train kind {kind!r}")
    keys = ("row_dims", "col_dims") if kind == "mpo" else ("dims",)
    site_dims = [_field(path, header, key, _is_counts) for key in keys]
    chain = [1] + _field(path, header, "ranks", _is_counts) + [1]
    if any(len(dims) != len(chain) - 1 for dims in site_dims):
        raise ContainerError(f"{path}: header dims and ranks disagree")
    reader = _PayloadReader(path, payload)
    cores = [reader.take((chain[n], *(dims[n] for dims in site_dims),
                          chain[n + 1])) for n in range(len(chain) - 1)]
    reader.finish()
    if kind == "mpo":
        model = TTMatrixModel(cores, _field(path, header, "pairing",
                                            _is_count_lists))
    else:
        model = TTModel(cores, _field(path, header, "canonical",
                                      lambda v: v is None or _is_count(v)))
    scheme = None
    quant = header.get("quantization")
    if quant:
        _field(path, quant, "dims", _is_counts)
        _field(path, quant, "mode_factors", _is_count_lists)
        scheme = QuantizationScheme.from_dict(quant)
        if kind == "mpo" or model.dims != scheme.virtual_dims:
            raise ContainerError(f"{path}: quantization does not match the "
                                 f"cores")
    return model, scheme


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
        dims = _field(reader.path, tree, "dims", _is_counts)
        return HOPTANode.leaf(DenseTensor(dims, reader.take((prod(dims),))))
    if kind == "sum":
        return HOPTANode.sum_of_outer(
            [[_hopta_build(child, reader) for child in term]
             for term in _field(reader.path, tree, "terms", lambda v: type(v)
                                is list and all(type(t) is list for t in v))])
    raise ContainerError(f"{reader.path}: unknown HOPTA node kind {kind!r}")


@_container_reader
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
    """Read any container by its magic.

    Returns (obj, scheme): obj is a DenseTensor or a model, and scheme is the
    stored QuantizationScheme of a QTT .ttm and None for anything else.
    """
    kind = sniff(path)
    if kind == "ttm":
        return read_tt(path)
    read = {"dten": read_dense, "cpm": read_cp, "tkm": read_tucker,
            "hop": read_hopta}[kind]
    return read(path), None


def write_model(path, m, scheme: QuantizationScheme | None = None) -> None:
    """Write a DenseTensor or any model to the container for its type; an
    FSTD model also gets its .indices.json sidecar, and ``scheme`` marks a
    tensor train as QTT."""
    if isinstance(m, (TTModel, TTMatrixModel)):
        return write_tt(path, m, scheme=scheme)
    if scheme is not None:
        raise TypeError("a quantization scheme applies to tensor trains only")
    for cls, write in ((DenseTensor, write_dense), (CPModel, write_cp),
                       (TuckerModel, write_tucker), (FSTDModel, write_fstd),
                       (HOPTANode, write_hopta)):
        if isinstance(m, cls):
            return write(path, m)
    raise TypeError(f"no container for {type(m).__name__}")
