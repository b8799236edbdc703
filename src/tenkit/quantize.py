"""Tensorization/quantization of low-order data into high-order tensors and
the QTT compression round trip."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import prod
from typing import Sequence

import numpy as np

from .dense import DenseTensor
from .ttrain import DENSE_CAP, TTModel, tt_reconstruct, tt_svd


def factorize_dim(i: int, q: int = 2) -> list[int]:
    """Virtual-mode factor list for a dim of size ``i``.

    Returns [q] * K when i = q^K, otherwise the ascending prime factorization.
    A prime dim stays a single factor and is reported as unquantizable.
    """
    if i < 1:
        raise ValueError("dim must be >= 1")
    if q < 2:
        raise ValueError("base q must be >= 2")
    if i == 1:
        return [1]
    k = round(np.log(i) / np.log(q))
    if k >= 1 and q ** k == i:
        return [q] * k
    factors = []
    rem = i
    p = 2
    while p * p <= rem:
        while rem % p == 0:
            factors.append(p)
            rem //= p
        p += 1
    if rem > 1:
        factors.append(rem)
    if len(factors) == 1:
        warnings.warn(f"dim {i} is prime and cannot be quantized",
                      stacklevel=2)
    return factors


@dataclass(frozen=True)
class QuantizationScheme:
    """Per-mode factorization of dims into virtual modes.

    Virtual modes keep within-mode digits fastest (little-endian digit order)
    and original modes in order; ``interleaved`` instead cycles digit 1 of
    every mode, then digit 2, ..., and requires equal digit counts.
    """

    dims: tuple[int, ...]
    mode_factors: tuple[tuple[int, ...], ...]
    interleaved: bool = False

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        factors = tuple(tuple(int(f) for f in fs) for fs in self.mode_factors)
        if len(dims) != len(factors):
            raise ValueError("one factor list per mode is required")
        for n, (d, fs) in enumerate(zip(dims, factors), start=1):
            if not fs or prod(fs) != d:
                raise ValueError(f"factors {fs} of mode {n} do not multiply "
                                 f"to {d}")
            if any(f < 1 for f in fs):
                raise ValueError(f"factors of mode {n} must be >= 1")
            if any(f == 1 for f in fs) and d > 1:
                raise ValueError(f"padding factor 1 not allowed for mode {n} "
                                 f"of size {d}")
        if self.interleaved:
            counts = {len(fs) for fs in factors}
            if len(counts) > 1:
                raise ValueError("interleaving requires equal digit counts "
                                 "across modes")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "mode_factors", factors)

    @classmethod
    def uniform(cls, dims: Sequence[int], q: int = 2,
                interleaved: bool = False) -> "QuantizationScheme":
        return cls(tuple(dims), tuple(tuple(factorize_dim(d, q)) for d in dims),
                   interleaved)

    @property
    def base(self) -> int | None:
        """The uniform base q, or None for mixed-radix schemes."""
        vals = {f for fs in self.mode_factors for f in fs}
        return vals.pop() if len(vals) == 1 else None

    @property
    def fully_quantized(self) -> bool:
        return all(len(fs) > 1 or d == 1
                   for d, fs in zip(self.dims, self.mode_factors))

    def _block_dims(self) -> list[int]:
        return [f for fs in self.mode_factors for f in fs]

    def _permutation(self) -> list[int]:
        # positions of the mode-major virtual axes in the scheme's axis order
        if not self.interleaved:
            return list(range(sum(len(fs) for fs in self.mode_factors)))
        k = len(self.mode_factors[0])
        n = len(self.mode_factors)
        offsets = [sum(len(fs) for fs in self.mode_factors[:m])
                   for m in range(n)]
        return [offsets[m] + d for d in range(k) for m in range(n)]

    @property
    def virtual_dims(self) -> tuple[int, ...]:
        block = self._block_dims()
        return tuple(block[p] for p in self._permutation())

    def to_dict(self) -> dict:
        return {"dims": list(self.dims),
                "mode_factors": [list(fs) for fs in self.mode_factors],
                "interleaved": self.interleaved}

    @classmethod
    def from_dict(cls, d: dict) -> "QuantizationScheme":
        return cls(tuple(d["dims"]),
                   tuple(tuple(fs) for fs in d["mode_factors"]),
                   bool(d.get("interleaved", False)))


def tensorize(x: DenseTensor, scheme: QuantizationScheme) -> DenseTensor:
    """Relabel the entries of ``x`` as a higher-order quantized tensor.

    Pure bijective reindexing: the non-interleaved little-endian digit order
    leaves the canonical flat storage untouched, and the result shares it.
    """
    if x.dims != scheme.dims:
        raise ValueError(f"scheme dims {scheme.dims} do not match tensor "
                         f"dims {x.dims}")
    arr = x.data.reshape(scheme._block_dims(), order="F")
    arr = arr.transpose(scheme._permutation())
    return DenseTensor(scheme.virtual_dims, arr.ravel(order="F"), copy=False)


def detensorize(y: DenseTensor, scheme: QuantizationScheme) -> DenseTensor:
    """Inverse of :func:`tensorize` (bit-exact)."""
    if y.dims != scheme.virtual_dims:
        raise ValueError(f"tensor dims {y.dims} do not match the scheme's "
                         f"virtual dims {scheme.virtual_dims}")
    arr = y.to_array().transpose(np.argsort(scheme._permutation()))
    return DenseTensor(scheme.dims, arr.ravel(order="F"), copy=False)


def qtt_compress(x: DenseTensor, q: int = 2, eps: float = 0.0,
                 max_ranks=None) -> tuple[TTModel, QuantizationScheme]:
    """Quantized-TT compression: tensorize, then TT-SVD at accuracy ``eps``.

    Dims that do not factorize stay as single virtual modes (partial
    quantization, warned).  The returned model's ``meta`` records the ranks,
    the exact compression ratio (original scalars / stored parameters), and
    the Table-4 asymptotic count when the dims are exact powers of q.
    """
    scheme = QuantizationScheme.uniform(x.dims, q)
    quantized = tensorize(x, scheme)
    model = tt_svd(quantized, eps=eps, max_ranks=max_ranks)
    meta = dict(model.meta)
    meta["ranks"] = list(model.ranks)
    meta["compression_ratio"] = x.size / model.storage()
    i_max = max(x.dims)
    k = round(np.log(i_max) / np.log(q)) if i_max > 1 else 0
    if k >= 1 and q ** k == i_max:
        r = max(model.ranks) if model.ranks else 1
        meta["asymptotic_params"] = storage_complexity(
            "qtt", len(x.dims), i_max, r, q)
    model.meta = meta
    return model, scheme


def qtt_decompress(model: TTModel, scheme: QuantizationScheme,
                   cap: int = DENSE_CAP) -> DenseTensor:
    """Reconstruct and de-tensorize a QTT-compressed array."""
    if model.dims != scheme.virtual_dims:
        raise ValueError(f"model dims {model.dims} do not match the scheme's "
                         f"virtual dims {scheme.virtual_dims}")
    return detensorize(tt_reconstruct(model, cap=cap), scheme)


def storage_complexity(fmt: str, n: int, i: int, r: int, q: int = 2) -> int:
    """Evaluate the closed-form parameter counts behind the storage table
    for uniform dims I and uniform rank R.

    cpd: NIR; tucker: NIR + R^N; tt: NIR^2; ttm: NI^2R^2;
    qtt: N log_q(I) q R^2 (requires I to be an exact power of q).
    """
    if min(n, i, r) < 1:
        raise ValueError("n, i, r must be positive")
    fmt = fmt.lower()
    if fmt == "cpd":
        return n * i * r
    if fmt == "tucker":
        return n * i * r + r ** n
    if fmt == "tt":
        return n * i * r * r
    if fmt == "ttm":
        return n * i * i * r * r
    if fmt == "qtt":
        k = round(np.log(i) / np.log(q)) if i > 1 and q > 1 else 0
        if k < 1 or q ** k != i:
            raise ValueError(f"I = {i} is not a power of q = {q}")
        return n * k * q * r * r
    raise ValueError(f"unknown format {fmt!r}")
