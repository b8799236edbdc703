"""Reference decoder for tenkit containers, written from the documented
format alone and importing nothing from tenkit.

Envelope: 4-byte magic, u32 little-endian version, u32 little-endian header
length, UTF-8 JSON header, then little-endian float64 scalars stored first
index fastest.  ``load`` splits the payload into the arrays the header
declares, ``params`` counts the stored scalars, and ``densify`` rebuilds the
represented dense array with ``np.einsum``.
"""

from __future__ import annotations

import json
import string
import struct
from dataclasses import dataclass
from math import prod

import numpy as np

_KINDS = {b"DTEN": "dten", b"CPMD": "cpm", b"TUKM": "tkm", b"TTMD": "ttm"}
_LETTERS = string.ascii_letters


@dataclass
class Container:
    kind: str
    header: dict
    parts: list          # arrays in payload order, shaped per the header
    payload_size: int

    @property
    def params(self) -> int:
        """Stored scalars: the payload, plus the header's weights for CP."""
        extra = len(self.header["weights"]) if self.kind == "cpm" else 0
        return self.payload_size + extra


def load(path) -> Container:
    with open(path, "rb") as fh:
        raw = fh.read()
    kind = _KINDS.get(raw[:4])
    if kind is None:
        raise ValueError(f"{path}: unknown magic {raw[:4]!r}")
    version, hlen = struct.unpack("<II", raw[4:12])
    if version != 1:
        raise ValueError(f"{path}: unknown version {version}")
    header = json.loads(raw[12:12 + hlen].decode("utf-8"))
    payload = np.frombuffer(raw[12 + hlen:], dtype="<f8")
    shapes = _shapes(kind, header)
    if sum(prod(s) for s in shapes) != payload.size:
        raise ValueError(f"{path}: payload holds {payload.size} scalars, "
                         f"header declares {sum(prod(s) for s in shapes)}")
    parts, pos = [], 0
    for shape in shapes:
        n = prod(shape)
        parts.append(payload[pos:pos + n].reshape(shape, order="F"))
        pos += n
    return Container(kind, header, parts, payload.size)


def _shapes(kind: str, header: dict) -> list[tuple[int, ...]]:
    if kind == "dten":
        return [tuple(header["dims"])]
    if kind == "cpm":
        return [(d, header["rank"]) for d in header["dims"]]
    if kind == "tkm":
        identity = set(header.get("identity_modes", []))
        return [tuple(header["ranks"])] + [
            (d, r) for n, (d, r) in enumerate(zip(header["dims"], header["ranks"]), 1)
            if n not in identity]
    if header.get("kind") != "mps":
        raise ValueError("only MPS tensor trains are decoded")
    chain = [1] + list(header["ranks"]) + [1]
    return [(chain[n], d, chain[n + 1]) for n, d in enumerate(header["dims"])]


def densify(c: Container) -> np.ndarray:
    """Dense array the container represents, indexed by its original modes."""
    if c.kind == "dten":
        return np.array(c.parts[0])
    if c.kind == "cpm":
        n = len(c.parts)
        subs = "z," + ",".join(f"{_LETTERS[k]}z" for k in range(n))
        return np.einsum(f"{subs}->{_LETTERS[:n]}",
                         np.asarray(c.header["weights"], dtype=np.float64),
                         *c.parts, optimize="greedy")
    if c.kind == "tkm":
        identity = set(c.header.get("identity_modes", []))
        n = c.parts[0].ndim
        inner, outer = _LETTERS[:n], _LETTERS[n:2 * n]
        free = [k for k in range(n) if k + 1 not in identity]
        subs = ",".join([inner] + [outer[k] + inner[k] for k in free])
        out = "".join(outer[k] if k in free else inner[k] for k in range(n))
        return np.einsum(f"{subs}->{out}", *c.parts, optimize="greedy")
    # tensor train: bond letters from the front of the alphabet, site letters
    # from the back
    n = len(c.parts)
    if 2 * n + 1 > len(_LETTERS):
        raise ValueError("too many sites for one einsum")
    bonds, sites = _LETTERS[:n + 1], _LETTERS[::-1][:n]
    subs = ",".join(bonds[k] + sites[k] + bonds[k + 1] for k in range(n))
    arr = np.einsum(f"{subs}->{bonds[0]}{sites}{bonds[n]}", *c.parts,
                    optimize="greedy")
    arr = arr.reshape(arr.shape[1:-1])
    scheme = c.header.get("quantization")
    if scheme:
        if scheme.get("interleaved"):
            raise ValueError("interleaved quantization is not decoded")
        # non-interleaved digits keep first-index-fastest storage unchanged
        arr = arr.reshape(tuple(scheme["dims"]), order="F")
    return arr
