"""Dense N-way tensors with explicit first-index-fastest (little-endian) storage.

Conventions used throughout the package:

* Tensor indices and mode numbers at the API surface are 1-based, matching the
  standard multilinear-algebra notation; offsets into flat storage are 0-based.
* The canonical flat layout is little-endian: the first index varies fastest
  (Fortran order).  Big-endian views (last index fastest) are available where
  an operation takes a ``convention`` argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import frexp, inf, isfinite, prod, sqrt
from typing import Iterable, Sequence

import numpy as np

LITTLE_ENDIAN = "little-endian"
BIG_ENDIAN = "big-endian"
_CONVENTIONS = (LITTLE_ENDIAN, BIG_ENDIAN)


def _check_convention(convention: str) -> None:
    if convention not in _CONVENTIONS:
        raise ValueError(f"unknown index convention {convention!r}; "
                         f"expected one of {_CONVENTIONS}")


class DenseTensor:
    """Immutable dense tensor of 64-bit floats.

    ``dims`` is the tuple (I_1, ..., I_N); ``data`` is the flat canonical
    little-endian array of length prod(dims).  Instances are safe to share
    across threads: the underlying buffer is marked read-only.
    """

    __slots__ = ("dims", "data")

    def __init__(self, dims: Sequence[int], data, copy: bool = True):
        dims = tuple(int(d) for d in dims)
        if len(dims) < 1:
            raise ValueError("tensor order must be at least 1")
        if any(d < 1 for d in dims):
            raise ValueError(f"all dims must be >= 1, got {dims}")
        arr = np.array(data, dtype=np.float64, copy=copy).reshape(-1)
        if arr.size != prod(dims):
            raise ValueError(f"data length {arr.size} does not match "
                             f"prod(dims) = {prod(dims)} for dims {dims}")
        arr.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "data", arr)

    def __setattr__(self, name, value):
        raise AttributeError("DenseTensor is immutable")

    @classmethod
    def from_array(cls, arr) -> "DenseTensor":
        """Wrap an ndarray; its logical index order becomes the tensor's modes."""
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim == 0:
            raise ValueError("tensor order must be at least 1")
        return cls(arr.shape, arr.flatten(order="F"), copy=False)

    def to_array(self) -> np.ndarray:
        """Read-only ndarray view with shape ``dims``."""
        return self.data.reshape(self.dims, order="F")

    @property
    def order(self) -> int:
        return len(self.dims)

    @property
    def size(self) -> int:
        return self.data.size

    def element(self, *idx: int) -> float:
        """Entry at a 1-based multi-index."""
        return float(self.data[linear_index(idx, self.dims)])

    def __repr__(self) -> str:
        return f"DenseTensor(dims={self.dims})"


def _sum_tensors(pieces: Iterable[DenseTensor]) -> DenseTensor:
    """Entrywise sum of equal-dims tensors, added left to right."""
    return reduce(lambda a, b: DenseTensor(a.dims, a.data + b.data, copy=False),
                  pieces)


def check_multi_index(idx: Sequence[int], dims: Sequence[int]) -> None:
    """Validate a 1-based multi-index, naming the offending mode on failure."""
    if len(idx) != len(dims):
        raise IndexError(f"multi-index has {len(idx)} entries for an "
                         f"order-{len(dims)} tensor")
    for n, (i, d) in enumerate(zip(idx, dims), start=1):
        if not 1 <= i <= d:
            raise IndexError(f"index i_{n} = {i} out of range 1..{d}")


def linear_index(idx: Sequence[int], dims: Sequence[int],
                 convention: str = LITTLE_ENDIAN) -> int:
    """0-based flat offset of a 1-based multi-index.

    Little-endian: (i_1-1) + (i_2-1) I_1 + ... + (i_N-1) I_1...I_{N-1};
    big-endian is the mode-reversed formula.  Both are bijections onto
    [0, prod(dims)).
    """
    _check_convention(convention)
    check_multi_index(idx, dims)
    if convention == LITTLE_ENDIAN:
        pairs = zip(idx, dims)
    else:
        pairs = zip(reversed(idx), reversed(dims))
    offset = 0
    stride = 1
    for i, d in pairs:
        offset += (i - 1) * stride
        stride *= d
    return offset


def multi_index(offset: int, dims: Sequence[int],
                convention: str = LITTLE_ENDIAN) -> tuple[int, ...]:
    """Inverse of :func:`linear_index`: 1-based multi-index of a flat offset."""
    _check_convention(convention)
    total = prod(dims)
    if not 0 <= offset < total:
        raise IndexError(f"offset {offset} out of range 0..{total - 1}")
    order = dims if convention == LITTLE_ENDIAN else tuple(reversed(dims))
    digits = []
    for d in order:
        digits.append(offset % d + 1)
        offset //= d
    if convention == BIG_ENDIAN:
        digits.reverse()
    return tuple(digits)


@dataclass(frozen=True)
class UnfoldingSpec:
    """Split of modes {1..N} into ordered row and column groups.

    The multi-index on each side is combined per ``convention``:
    little-endian makes the first listed mode vary fastest, big-endian the
    last listed mode.
    """

    row_modes: tuple[int, ...]
    col_modes: tuple[int, ...]
    convention: str = LITTLE_ENDIAN

    def __post_init__(self):
        _check_convention(self.convention)
        object.__setattr__(self, "row_modes", tuple(self.row_modes))
        object.__setattr__(self, "col_modes", tuple(self.col_modes))

    def validate(self, order: int) -> None:
        seen = self.row_modes + self.col_modes
        if sorted(seen) != list(range(1, order + 1)):
            raise ValueError(
                f"row modes {self.row_modes} and column modes {self.col_modes} "
                f"must partition 1..{order} without overlap")


def unfold(t: DenseTensor, n: int) -> np.ndarray:
    """Mode-n unfolding: rows indexed by i_n, columns by the little-endian
    combination of the remaining modes in ascending order."""
    if not 1 <= n <= t.order:
        raise ValueError(f"mode {n} invalid for an order-{t.order} tensor")
    arr = np.moveaxis(t.to_array(), n - 1, 0)
    return arr.reshape(t.dims[n - 1], -1, order="F")


def _unfolding_row_blocks(t: DenseTensor, n: int, bounds: Sequence[int]):
    """Yield the row blocks ``bounds[i]:bounds[i + 1]`` of the transposed
    mode-n unfolding unfold(t, n)^T, which is never formed (n is valid).

    The blocks are read from the free F-order (I_<n, I_n, I_>n) view of the
    canonical buffer, whose slab [:, :, s] holds rows s I_<n to
    (s + 1) I_<n - 1.  A block inside one slab is a view of the buffer; any
    other block is gathered from the slabs it touches, the only copy (a view
    when I_<n = 1).
    """
    lo, mid = prod(t.dims[:n - 1]), t.dims[n - 1]
    a = t.data.reshape((lo, mid, -1), order="F")
    for start, stop in zip(bounds[:-1], bounds[1:]):
        s, p = divmod(start, lo)
        if p + stop - start <= lo:
            yield a[p:p + stop - start, :, s]
        else:
            slabs = a[:, :, s:-(-stop // lo)].transpose(2, 0, 1)
            yield slabs.reshape(-1, mid)[p:p + stop - start]


def fold(mat, n: int, dims: Sequence[int]) -> DenseTensor:
    """Inverse of :func:`unfold`."""
    dims = tuple(int(d) for d in dims)
    if not 1 <= n <= len(dims):
        raise ValueError(f"mode {n} invalid for an order-{len(dims)} tensor")
    mat = np.asarray(mat, dtype=np.float64)
    rest = tuple(d for k, d in enumerate(dims, start=1) if k != n)
    arr = mat.reshape((dims[n - 1],) + rest, order="F")
    return DenseTensor.from_array(np.moveaxis(arr, 0, n - 1))


def _effective_axes(spec: UnfoldingSpec) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # Big-endian combination over a mode list equals little-endian over the
    # reversed list, so one F-order reshape covers both conventions.
    if spec.convention == LITTLE_ENDIAN:
        return spec.row_modes, spec.col_modes
    return tuple(reversed(spec.row_modes)), tuple(reversed(spec.col_modes))


def unfold_general(t: DenseTensor, spec: UnfoldingSpec) -> np.ndarray:
    """Mode-(r, c) unfolding into a (prod I_r) x (prod I_c) matrix."""
    spec.validate(t.order)
    rows, cols = _effective_axes(spec)
    perm = tuple(m - 1 for m in rows + cols)
    arr = t.to_array().transpose(perm)
    nrows = prod(t.dims[m - 1] for m in spec.row_modes)
    return arr.reshape(nrows, -1, order="F")


def fold_general(mat, spec: UnfoldingSpec, dims: Sequence[int]) -> DenseTensor:
    """Inverse of :func:`unfold_general` for the given full dims."""
    dims = tuple(int(d) for d in dims)
    spec.validate(len(dims))
    rows, cols = _effective_axes(spec)
    perm = tuple(m - 1 for m in rows + cols)
    mat = np.asarray(mat, dtype=np.float64)
    arr = mat.reshape(tuple(dims[p] for p in perm), order="F")
    return DenseTensor.from_array(arr.transpose(np.argsort(perm)))


def vectorize(t: DenseTensor, convention: str = LITTLE_ENDIAN) -> np.ndarray:
    """Flatten to a vector.  Little-endian equals the canonical data order;
    big-endian satisfies the Kronecker-product identities as printed."""
    _check_convention(convention)
    if convention == LITTLE_ENDIAN:
        return t.data.copy()
    return t.to_array().ravel(order="C")


def extract_subtensor(t: DenseTensor, fixed: dict[int, int]) -> DenseTensor:
    """Subtensor obtained by fixing a strict subset of modes (1-based pairs
    mode -> index).  Fixing all but one mode yields a fiber, all but two a
    slice; fixing every mode is rejected (use ``element``)."""
    if len(fixed) >= t.order:
        raise ValueError("cannot fix every mode; use DenseTensor.element")
    for n, i in fixed.items():
        if not 1 <= n <= t.order:
            raise IndexError(f"mode {n} invalid for an order-{t.order} tensor")
        if not 1 <= i <= t.dims[n - 1]:
            raise IndexError(f"index i_{n} = {i} out of range 1..{t.dims[n - 1]}")
    key = tuple(fixed[n] - 1 if n in fixed else slice(None)
                for n in range(1, t.order + 1))
    return DenseTensor.from_array(t.to_array()[key])


# Below this a sum of squares may have lost bits to underflow; above it each
# square that underflowed is under eps times the sum.
_NORM_FLOOR = sqrt(np.finfo(np.float64).tiny / np.finfo(np.float64).eps)


def _norm(x) -> float:
    """Euclidean norm of all entries of the float64 array ``x``: the one
    rule by which tenkit measures a tensor (an error is measured by
    :func:`_rel_error`).

    The fast path is numpy's own, sqrt(x . x) over the flat array, so within
    range the result is bitwise that of ``np.linalg.norm`` and a contiguous
    ``x`` is not copied.  When that sum overflows, or is small enough for
    squares to have underflowed, ``x`` is scaled by the power of two of its
    largest |entry|, which is exact, and summed again (Blue, ACM TOMS 1978).
    """
    x = np.ravel(x, order="K")
    with np.errstate(over="ignore"):
        fast = sqrt(float(x.dot(x)))
        if _NORM_FLOOR < fast < inf:
            return fast
        big = float(np.max(np.abs(x), initial=0.0))
        if big == 0.0 or not isfinite(big):
            return fast  # all zero, or an inf or nan entry
        e = frexp(big)[1]
        y = np.ldexp(x, -e)
        return float(np.ldexp(sqrt(float(y.dot(y))), e))


def frobenius_norm(t: DenseTensor) -> float:
    """sqrt of the sum of squared entries, by :func:`_norm`: bitwise
    ``np.linalg.norm`` within range, and free of overflow and underflow
    outside it (a tensor scaled by 2^k has 2^k times the norm)."""
    return _norm(t.data)


# Entries of a difference formed at a time: 32 KB, so the difference stays
# in cache and no allocation of its own grows with the tensor
_SLICE = 2 ** 12

# Entries of a product formed at a time by _product_error: 512 KB, so a
# fit's error holds no tensor-sized temporary
_BLOCK = 2 ** 16


def _error_ratio(x: np.ndarray, y: np.ndarray, norm: float) -> float:
    """|x - y| / ``norm`` for equal-size flat contiguous arrays: the slice
    loop of the error rule (:func:`_rel_error`).  0 when x equals y, inf
    when only ``norm`` is zero.

    The difference is formed :data:`_SLICE` entries at a time in one buffer
    and the sums of squares of the slices are added up, so an array of one
    slice gets bitwise ``_norm(x - y) / norm`` and a larger one agrees with
    it within roundoff.  Only when that sum leaves :func:`_norm`'s safe
    range (an exact fit, an overflow or underflow, a non-finite entry) is
    the whole difference formed and measured by :func:`_norm`; a finite
    difference that overflows is formed from both operands halved and
    divided by half of ``norm``, which is exact (a subnormal's lost bit
    cannot move the ratio).
    """
    whole = x.size - x.size % _SLICE
    buf = np.empty(min(x.size, _SLICE))
    tail = buf[:x.size - whole]
    acc = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for a, b in zip(x[:whole].reshape(-1, _SLICE),
                        y[:whole].reshape(-1, _SLICE)):
            np.subtract(a, b, out=buf)
            acc += buf.dot(buf)
        np.subtract(x[whole:], y[whole:], out=tail)
        err = sqrt(acc + tail.dot(tail))
        if not _NORM_FLOOR < err < inf:
            err = _norm(x - y)
            if err == inf:
                err, norm = _norm(x * 0.5 - y * 0.5), norm * 0.5
    if not err:
        return 0.0
    return err / norm if norm else inf


def _rel_error(t: DenseTensor, rec: DenseTensor) -> float:
    """|t - rec| / |t| for equal-dims tensors: the one rule by which tenkit
    measures an approximation, by :func:`_error_ratio` over the canonical
    buffers.  0 for an exact fit, inf when only t is zero."""
    return _error_ratio(t.data, rec.data, _norm(t.data))


def _product_error(t: DenseTensor, a: np.ndarray, b: np.ndarray,
                   norm: float) -> float:
    """|t - a @ b| / ``norm``, where the C-order (M, C) product ``a @ b`` is
    t's canonical buffer and is never formed: the error rule's front end for
    a model that ends its reconstruction in one GEMM (the two halves of a
    tensor train, or a CP model's Khatri-Rao chain and first factor).

    The product is formed :data:`_BLOCK` entries of rows at a time (one row
    when a row is wider) into one reused buffer.  Each block's rows are a
    run of t's canonical buffer, measured against it by
    :func:`_error_ratio`, and the result is the :func:`_norm` of the block
    ratios.  So a product of one
    block gets bitwise ``_rel_error(t, a @ b)`` when ``norm`` is |t|, and a
    larger one agrees with it within roundoff.
    """
    rows = max(1, _BLOCK // b.shape[1])
    buf = np.empty((min(rows, len(a)), b.shape[1]))
    x = t.data.reshape(len(a), -1)
    ratios = []
    for i in range(0, len(a), rows):
        y = np.matmul(a[i:i + rows], b, out=buf[:len(a) - i])
        ratios.append(_error_ratio(x[i:i + rows].reshape(-1), y.reshape(-1),
                                   norm))
    return _norm(np.array(ratios))


def _fit_norm(t: DenseTensor, fitter: str) -> float:
    """|t|_F, checked to be finite and nonzero: the input rule of every
    fitter, named ``fitter`` in the message."""
    norm_t = frobenius_norm(t)
    if not isfinite(norm_t):
        raise ValueError(f"the Frobenius norm of the tensor is {norm_t}; "
                         f"{fitter} needs a finite one")
    if norm_t == 0.0:
        raise ValueError("cannot fit an all-zero tensor")
    return norm_t


def fiber(t: DenseTensor, n: int, coords: Sequence[int]) -> np.ndarray:
    """Mode-n fiber through the 1-based point ``coords`` (entry n ignored)."""
    if not 1 <= n <= t.order:
        raise ValueError(f"mode {n} invalid for an order-{t.order} tensor")
    key = []
    for m in range(1, t.order + 1):
        if m == n:
            key.append(slice(None))
        else:
            i = coords[m - 1]
            if not 1 <= i <= t.dims[m - 1]:
                raise IndexError(f"index i_{m} = {i} out of range "
                                 f"1..{t.dims[m - 1]}")
            key.append(i - 1)
    return np.array(t.to_array()[tuple(key)])


def random_tensor(dims: Sequence[int], rng=None) -> DenseTensor:
    """Standard-normal tensor, seeded via ``rng`` (int seed or Generator)."""
    rng = np.random.default_rng(rng)
    return DenseTensor.from_array(rng.standard_normal(tuple(dims)))
