"""Tensor trains (TT/MPS) and matrix tensor trains (TT/MPO): construction by
SVD sweeps, element and dense access, orthogonalization, rounding, ALS and
two-site MALS/DMRG sweeps, strong-Kronecker forms."""

from __future__ import annotations

from itertools import chain
from math import frexp, prod, sqrt
from typing import Callable, Iterable, Sequence

import numpy as np

from .dense import (DenseTensor, _fit_norm, _norm, _product_error,
                    _unfolding_row_blocks, frobenius_norm)
from .ops import BlockMatrix, strong_kron

DENSE_CAP = 2 ** 26  # default cap on dense materialization, in scalars


class TTModel:
    """Chain of 3rd-order cores (R_{n-1}, I_n, R_n) with boundary ranks 1.

    ``ortho_center`` = k declares sites < k left-orthogonal and sites > k
    right-orthogonal (1-based); None means no canonical structure is claimed.
    ``meta`` carries per-run diagnostics and is not part of the model value.
    """

    __slots__ = ("cores", "ortho_center", "meta")

    def __init__(self, cores: Sequence[np.ndarray], ortho_center: int | None = None,
                 meta: dict | None = None):
        cores = [np.asarray(c, dtype=np.float64) for c in cores]
        if not cores:
            raise ValueError("a tensor train needs at least one core")
        for n, c in enumerate(cores, start=1):
            if c.ndim != 3:
                raise ValueError(f"core {n} must be 3rd-order, got {c.ndim}")
        if cores[0].shape[0] != 1 or cores[-1].shape[2] != 1:
            raise ValueError("boundary ranks must be 1")
        for n in range(len(cores) - 1):
            if cores[n].shape[2] != cores[n + 1].shape[0]:
                raise ValueError(f"rank mismatch between cores {n + 1} and "
                                 f"{n + 2}: {cores[n].shape[2]} vs "
                                 f"{cores[n + 1].shape[0]}")
        if ortho_center is not None and not 1 <= ortho_center <= len(cores):
            raise ValueError(f"orthogonality center {ortho_center} out of range")
        self.cores = cores
        self.ortho_center = ortho_center
        self.meta = meta or {}

    @property
    def order(self) -> int:
        return len(self.cores)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(c.shape[1] for c in self.cores)

    @property
    def ranks(self) -> tuple[int, ...]:
        """Interior TT ranks R_1..R_{N-1}."""
        return tuple(c.shape[2] for c in self.cores[:-1])

    def storage(self) -> int:
        return sum(c.size for c in self.cores)

    def copy(self) -> "TTModel":
        return TTModel([c.copy() for c in self.cores], self.ortho_center,
                       dict(self.meta))

    def verify_orthogonality(self, tol: float = 1e-12) -> bool:
        """Gram-test the declared canonical state.  The sites right of the
        center are right-orthogonal exactly when they are left-orthogonal
        in the mirrored chain, so one Gram test covers both sides."""
        if self.ortho_center is None:
            return True
        k = self.ortho_center
        for c in self.cores[:k - 1] + _mirror(self.cores)[:self.order - k]:
            m = c.reshape(-1, c.shape[2])
            if np.max(np.abs(m.T @ m - np.eye(c.shape[2]))) > tol:
                return False
        return True

    def __repr__(self) -> str:
        return f"TTModel(dims={self.dims}, ranks={self.ranks})"


class TTMatrixModel:
    """Chain of 4th-order cores (R_{n-1}, I_n, J_n, R_n), boundary ranks 1.

    ``pairing`` records which original tensor modes each core's (row, col)
    pair came from (1-based), so dense reconstruction restores mode order.
    """

    __slots__ = ("cores", "pairing", "meta")

    def __init__(self, cores: Sequence[np.ndarray],
                 pairing: Sequence[tuple[int, int]] | None = None,
                 meta: dict | None = None):
        cores = [np.asarray(c, dtype=np.float64) for c in cores]
        if not cores:
            raise ValueError("a matrix tensor train needs at least one core")
        for n, c in enumerate(cores, start=1):
            if c.ndim != 4:
                raise ValueError(f"core {n} must be 4th-order, got {c.ndim}")
        if cores[0].shape[0] != 1 or cores[-1].shape[3] != 1:
            raise ValueError("boundary ranks must be 1")
        for n in range(len(cores) - 1):
            if cores[n].shape[3] != cores[n + 1].shape[0]:
                raise ValueError(f"rank mismatch between cores {n + 1} and "
                                 f"{n + 2}")
        if pairing is None:
            pairing = _default_pairing(2 * len(cores))
        self.cores = cores
        self.pairing = _check_pairing(pairing, 2 * len(cores))
        self.meta = meta or {}

    @property
    def order(self) -> int:
        return len(self.cores)

    @property
    def row_dims(self) -> tuple[int, ...]:
        return tuple(c.shape[1] for c in self.cores)

    @property
    def col_dims(self) -> tuple[int, ...]:
        return tuple(c.shape[2] for c in self.cores)

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(c.shape[3] for c in self.cores[:-1])

    def storage(self) -> int:
        return sum(c.size for c in self.cores)

    def __repr__(self) -> str:
        return (f"TTMatrixModel(row_dims={self.row_dims}, "
                f"col_dims={self.col_dims}, ranks={self.ranks})")


# Row-block size of the tall-skinny QR in _tsqr_r, in scalars: 2**17 float64
# is 1 MB, a block LAPACK factors in cache
_TSQR_BLOCK = 2 ** 17


def _tsqr_group(n: int) -> tuple[int, int]:
    """Rows b of one TSQR block of width ``n``, and rows per stacked QR
    call: two blocks."""
    b = max(8 * n, _TSQR_BLOCK // n)
    return b, 2 * b


def _tsqr_r(blocks: Iterable[np.ndarray]) -> np.ndarray:
    """The min(m, n) x n triangle R of a QR of the m x n matrix whose rows
    are the row blocks ``blocks`` (each m_i x n) in order, Q never formed:
    tenkit's only tall-skinny QR (TSQR; Demmel, Grigori, Hoemmen & Langou,
    SISC 2012).

    A block of at least 2b rows, b = max(8n, 2**17 // n), is cut into whole
    b-row blocks, which one stacked QR factors two at a time; their
    triangles and a copy of the leftover rows are kept.  A smaller block is
    kept as a copy.  So nothing of a block is read after the next one is
    pulled, and a source may reuse one buffer.  Kept rows that have reached
    2b are refactored into one triangle before more are kept, and one last
    QR factors what is kept.  The fold thus holds two blocks plus O(b n)
    kept rows, however large or many the blocks.  A single matrix of fewer than
    2b^2 / n rows gets the two-level tree (one QR below 2b rows); a taller
    one is refolded every 2b triangle rows, which moves R only by roundoff.
    Householder QR of a matrix far larger than cache is slow: on one
    OpenBLAS thread a 16384 x 128 matrix takes 150 ms in one QR and 88 ms
    in 1 MB blocks, and b >= 8n keeps the second level within 1/8 of the
    rows; below 2b rows one QR was faster (4096 x 512: 107 ms, 120 ms in
    two blocks).  R^T R is the sum of the blocks' Grams whatever the tree,
    TSQR is as backward stable as Householder QR, and the same blocks give
    the same R bytes.
    """
    kept, held = [], 0
    for a in blocks:
        m, n = a.shape
        b, step = _tsqr_group(n)
        top = m // b * b if m >= 2 * b else 0
        parts = chain((np.linalg.qr(a[i:min(i + step, top)].reshape(-1, b, n),
                                    mode="r").reshape(-1, n)
                       for i in range(0, top, step)),
                      (a[top:].copy(),))
        for part in parts:
            if held >= 2 * b and len(part):
                kept = [np.linalg.qr(np.concatenate(kept), mode="r")]
                held = len(kept[0])
            kept.append(part)
            held += len(part)
        del a, parts  # the source may free or overwrite this block
    return np.linalg.qr(kept[0] if len(kept) == 1 else np.concatenate(kept),
                        mode="r")


def _left_factor(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Left singular vectors and singular values of ``mat``, V never formed.

    A wide n x m matrix (m > n) is first reduced to the n x n triangle R of
    a QR of its transpose, mat = R^T Q^T, whose SVD has the same U and
    singular values, as accurate as a direct SVD's.  The transpose goes to
    :func:`_tsqr_r` as one block, a view, so only two of its b-row blocks
    are copied at a time (a transpose below 2b rows is copied whole).  Any
    other matrix goes to the direct economy SVD.
    """
    if mat.shape[1] > mat.shape[0]:
        mat = _tsqr_r((mat.T,)).T
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    return u, s


def _unfolding_factor(t: DenseTensor, n: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_left_factor` of unfold(t, n), the unfolding never formed.

    A wide unfolding's transpose goes to :func:`_tsqr_r` in blocks of
    whole slabs of the F-order (I_<n, I_n, I_>n) view of the buffer
    (:func:`dense._unfolding_row_blocks`), as few as make one QR group of
    2b rows, the last block taking the rest: a view when one slab is that
    large, a gathered copy of a few slabs otherwise.  Where I_<n divides 2b
    or is a multiple of it, every block starts where a group of the whole
    transpose starts, so U and the singular values are bitwise those of
    ``_left_factor(unfold(t, n))``; elsewhere each block leaves its own
    leftover rows, which moves them by roundoff.  A tall or square
    unfolding is gathered as one block for the direct SVD, as
    :func:`_left_factor` factors it.
    """
    lo, mid = prod(t.dims[:n - 1]), t.dims[n - 1]
    cols = t.size // mid
    if cols <= mid:
        return _left_factor(next(_unfolding_row_blocks(t, n, (0, cols))).T)
    step = lo * -(-_tsqr_group(mid)[1] // lo)
    bounds = [*range(0, max(cols - step, 0) + 1, step), cols]
    r = _tsqr_r(_unfolding_row_blocks(t, n, bounds))
    return _left_factor(r.T)


def _fix_signs(u: np.ndarray) -> np.ndarray:
    # Reproducibility: largest-magnitude entry of each column made positive.
    if u.size == 0:
        return u
    picks = np.argmax(np.abs(u), axis=0)
    signs = np.sign(u[picks, np.arange(u.shape[1])])
    signs[signs == 0] = 1.0
    return u * signs


def _numerical_rank(s: np.ndarray, rtol: float) -> int:
    """Count of the singular values ``s`` (sorted, largest first) above
    ``rtol * s[0]``; 0 for an empty or all-zero ``s``."""
    if s.size == 0 or s[0] <= 0:
        return 0
    return int(np.sum(s > rtol * s[0]))


def _truncation_rank(s: np.ndarray, delta: float | None, cap: int | None) -> tuple[int, str]:
    """Minimal kept rank for an absolute tail budget ``delta`` plus a hard cap.
    Returns (rank, active bound).

    The squared tail sums are taken on ``s`` and ``delta`` scaled by 2^-e,
    e the binary exponent of s[0].  Scaling by a power of two is exact, so
    the rank is bitwise the unscaled rule's wherever its squares stay in
    range, and a budget on a tensor of norm near 2^+-600 does not overflow
    or underflow."""
    if s.size == 0:
        return 1, "none"
    if delta is None:
        r_eps = s.size
    elif delta == 0.0:
        r_eps = _numerical_rank(s, 0.0)
    else:
        e = frexp(s[0])[1]
        with np.errstate(over="ignore"):
            s_e, budget = np.ldexp(s, -e), np.ldexp(delta, -e) ** 2
        tail = np.cumsum(s_e[::-1] ** 2)[::-1]
        r_eps = s.size
        while r_eps > 1 and tail[r_eps - 1] <= budget:
            r_eps -= 1
    r_eps = max(r_eps, 1)
    which = "none"
    r = r_eps
    if delta is not None and r_eps < s.size:
        which = "eps"
    if cap is not None and cap < r:
        r, which = cap, "cap"
    return r, which


def _truncated_split(mat: np.ndarray, delta: float | None,
                     cap: int | None) -> tuple[np.ndarray, np.ndarray, str]:
    """The one truncated split: ``mat`` ~ left @ rest.  Returns
    (left, rest, active bound).

    ``left`` holds the leading left singular vectors of ``mat``
    (:func:`_left_factor`), as many as :func:`_truncation_rank` keeps under
    the tail budget ``delta`` and the cap, with the largest-magnitude entry
    of every column made positive; ``rest`` is the projection left.T @ mat,
    so |mat - left @ rest|_F is the discarded tail.  ``rest`` is computed
    as (mat.T @ left).T: when mat.T is C-contiguous, rest.T is the
    C-contiguous product and needs no copy.  HOSVD, TT-SVD, TT rounding and
    the MALS split all truncate through here.
    """
    u, s = _left_factor(mat)
    r, which = _truncation_rank(s, delta, cap)
    left = _fix_signs(u[:, :r])
    return left, (mat.T @ left).T, which


def _qr_split(mat: np.ndarray, cap: int | None) -> tuple[np.ndarray, np.ndarray]:
    """Untruncated split: the reduced QR, orthonormal Q on the left."""
    return np.linalg.qr(mat)


def _chain_sweep(cores: Sequence[np.ndarray], split: Callable,
                 caps: Sequence[int | None]) -> list[np.ndarray]:
    """Left-to-right pass over the first len(``caps``) bonds of a chain.

    At site n the (R_{n-1} I_n, R_n) unfolding of the core is split by
    ``split(mat, caps[n])`` into (left, rest) with orthonormal left columns
    (the contract of :func:`_half_sweep`); ``left`` becomes the core and
    site n+1 absorbs ``rest``.  The represented tensor changes only by what
    the splits discard.  A right-to-left pass is this pass on the mirrored
    chain (:func:`_mirror`).  Returns the new list; ``cores`` is not changed.
    """
    cores = list(cores)
    for n, cap in enumerate(caps):
        c, nxt = cores[n], cores[n + 1]
        left, rest = split(c.reshape(-1, c.shape[2]), cap)
        cores[n] = left.reshape(c.shape[0], c.shape[1], left.shape[1])
        cores[n + 1] = (rest @ nxt.reshape(nxt.shape[0], -1)).reshape(
            rest.shape[0], nxt.shape[1], nxt.shape[2])
    return cores


def _rank_caps(max_ranks, n_bonds: int) -> list[int | None]:
    if max_ranks is None:
        return [None] * n_bonds
    if np.isscalar(max_ranks):
        caps = [int(max_ranks)] * n_bonds
    else:
        caps = [int(r) for r in max_ranks]
        if len(caps) != n_bonds:
            raise ValueError(f"expected {n_bonds} rank caps, got {len(caps)}")
    if any(c < 1 for c in caps):
        raise ValueError("rank caps must be >= 1")
    return caps


def _mirror(cores: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Cores of the same tensor with its modes in reverse order.  The tensor's
    own mirror is ``t.to_array().T``, a C-contiguous view of the canonical
    buffer, so a left-to-right sweep of the mirrored chain is a
    right-to-left sweep of the original."""
    return [c.transpose(2, 1, 0) for c in reversed(cores)]


def tt_svd(t: DenseTensor, eps: float | None = None,
           max_ranks=None) -> TTModel:
    """TT-SVD: left-to-right truncated splits of the remainder matrix.

    Each split is :func:`_truncated_split`: the left core is the leading
    left singular vectors of the remainder (sign-fixed) and the next
    remainder is its projection onto them.  ``eps`` in [0, 1) bounds the
    total relative error; the per-split budget is
    delta = eps |t|_F / sqrt(N-1).  ``max_ranks`` (scalar or per-bond list)
    caps ranks and takes precedence over ``eps`` where both bind; the active
    bound per split lands in ``meta['active_bounds']``.  The result is
    left-canonical through site N-1.
    """
    if eps is None and max_ranks is None:
        raise ValueError("give eps and/or max_ranks")
    if eps is not None and not 0.0 <= eps < 1.0:
        raise ValueError("eps must lie in [0, 1)")
    n_modes = t.order
    caps = _rank_caps(max_ranks, max(n_modes - 1, 0))
    delta = None
    if eps is not None:
        delta = eps * frobenius_norm(t) / sqrt(max(n_modes - 1, 1))
    cores = []
    bounds = []
    rank = 1
    # C-order views of the canonical buffer are transposed remainders: rows
    # run over the modes left to split, columns over (I_n, R_{n-1}), R fastest
    rem_t = t.data
    for n, dim in enumerate(t.dims[:-1]):
        rem_t = rem_t.reshape(-1, dim * rank)
        left, rest, which = _truncated_split(rem_t.T, delta, caps[n])
        bounds.append(which)
        cores.append(left.reshape(dim, rank, -1).transpose(1, 0, 2))
        # rest.T is rem_t @ left, the next C-order transposed remainder
        rem_t, rank = rest.T, left.shape[1]
    cores.append(rem_t.reshape(t.dims[-1], rank).T[:, :, None])
    return TTModel(cores, ortho_center=n_modes,
                   meta={"active_bounds": bounds})


def _check_pairing(pairing, order: int) -> list[tuple[int, int]]:
    """``pairing`` as a list of tuples; it must split modes 1..order into
    disjoint (row, col) pairs."""
    pairing = [tuple(int(m) for m in p) for p in pairing]
    if any(len(p) != 2 for p in pairing) or \
            sorted(m for p in pairing for m in p) != list(range(1, order + 1)):
        raise ValueError(f"pairing {pairing} must split modes 1..{order} "
                         f"into disjoint (row, col) pairs")
    return pairing


def _default_pairing(order: int) -> list[tuple[int, int]]:
    if order % 2:
        raise ValueError("odd tensor order: give an explicit mode pairing")
    return [(2 * n + 1, 2 * n + 2) for n in range(order // 2)]


def ttm_svd(t: DenseTensor, pairing: Sequence[tuple[int, int]] | None = None,
            eps: float | None = None, max_ranks=None) -> TTMatrixModel:
    """TT/MPO construction: :func:`tt_svd` of the tensor whose modes fuse each
    (row, col) pair with index i + I j, split back per core.  Only a pairing
    other than the default permutes ``t``; the default relabels its buffer."""
    if pairing is None:
        pairing = _default_pairing(t.order)
    pairing = _check_pairing(pairing, t.order)
    perm = [m - 1 for p in pairing for m in p]
    data = t.to_array().transpose(perm).ravel(order="F")
    fused_dims = [t.dims[p[0] - 1] * t.dims[p[1] - 1] for p in pairing]
    mps = tt_svd(DenseTensor(fused_dims, data, copy=False), eps=eps,
                 max_ranks=max_ranks)
    cores = [c.reshape(c.shape[0], t.dims[j - 1], t.dims[i - 1], c.shape[2])
             .transpose(0, 2, 1, 3) for c, (i, j) in zip(mps.cores, pairing)]
    return TTMatrixModel(cores, pairing, meta=dict(mps.meta))


def tt_element(m: TTModel, idx: Sequence[int]) -> float:
    """Entry at a 1-based multi-index via the slice-matrix product; O(N R^2)."""
    if len(idx) != m.order:
        raise IndexError(f"expected {m.order} indices, got {len(idx)}")
    vec = None
    for n, (c, i) in enumerate(zip(m.cores, idx), start=1):
        if not 1 <= i <= c.shape[1]:
            raise IndexError(f"index i_{n} = {i} out of range 1..{c.shape[1]}")
        sl = c[:, i - 1, :]
        vec = sl if vec is None else vec @ sl
    return float(vec[0, 0])


def ttm_element(m: TTMatrixModel, idx: Sequence[int]) -> float:
    """Entry of the order-2N tensor (original mode order) via slice products."""
    full = 2 * m.order
    if len(idx) != full:
        raise IndexError(f"expected {full} indices, got {len(idx)}")
    vec = None
    for n, c in enumerate(m.cores):
        i = idx[m.pairing[n][0] - 1]
        j = idx[m.pairing[n][1] - 1]
        if not 1 <= i <= c.shape[1]:
            raise IndexError(f"row index {i} out of range 1..{c.shape[1]}")
        if not 1 <= j <= c.shape[2]:
            raise IndexError(f"column index {j} out of range 1..{c.shape[2]}")
        sl = c[:, i - 1, j - 1, :]
        vec = sl if vec is None else vec @ sl
    return float(vec[0, 0])


def _check_cap(total: int, cap: int) -> None:
    if total > cap:
        raise ValueError(f"dense materialization of {total} scalars exceeds "
                         f"the cap of {cap}")


def _contract_chain(out: np.ndarray, cores: Sequence[np.ndarray]) -> np.ndarray:
    """``out`` (M, R) times the chain ``cores`` in C order: (M prod I, R')."""
    for c in cores:
        out = (out @ c.reshape(c.shape[0], -1)).reshape(-1, c.shape[2])
    return out


def _halves(cores: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The two halves of a chain whose C-order product ``right @ left`` is
    the canonical buffer of the represented tensor.

    The chain is cut at the first bond k where I_1 ... I_k reaches
    sqrt(size).  The mirrored chain's sites N..k+1, contracted in C order
    from a 1 x 1 one, give the (I_N ... I_{k+1}, R_k) matrix ``right``; its
    sites k..1, contracted from the R_k x R_k identity, give the
    (R_k, I_k ... I_1) matrix ``left``.  The contractions hold
    O(R^2 I sqrt(size)) scalars, not the O(R size) of a chain contracted
    from one end.
    """
    dims = [c.shape[1] for c in cores]
    size = prod(dims)
    k = 0
    while prod(dims[:k]) ** 2 < size:
        k += 1
    mirrored = _mirror(cores)
    right = _contract_chain(np.ones((1, 1)), mirrored[:len(cores) - k])
    left = _contract_chain(np.eye(right.shape[1]), mirrored[len(cores) - k:])
    return right, left.reshape(right.shape[1], -1)


def tt_reconstruct(m: TTModel, cap: int = DENSE_CAP) -> DenseTensor:
    """Dense tensor, contracted from both ends of the chain to the middle:
    one GEMM of the chain's two halves (:func:`_halves`) writes the
    canonical buffer, at R_k multiply-adds per entry."""
    _check_cap(prod(m.dims), cap)
    right, left = _halves(m.cores)
    return DenseTensor(m.dims, (right @ left).reshape(-1), copy=False)


def ttm_reconstruct(m: TTMatrixModel, cap: int = DENSE_CAP) -> DenseTensor:
    """Dense order-2N tensor in the original mode order: the TT/MPS of the
    fused (row, col) pairs, index i + I j, relabelled.  Only a pairing other
    than the default permutes the result."""
    cores = [c.transpose(0, 2, 1, 3).reshape(c.shape[0], -1, c.shape[3])
             for c in m.cores]
    fused = tt_reconstruct(TTModel(cores), cap)
    interleaved = [d for c in m.cores for d in c.shape[1:3]]
    flat = [mode - 1 for p in m.pairing for mode in p]
    arr = fused.data.reshape(interleaved, order="F").transpose(np.argsort(flat))
    return DenseTensor(arr.shape, arr.ravel(order="F"), copy=False)


def tt_outer_sum(m: TTModel, cap: int = DENSE_CAP) -> DenseTensor:
    """Dense tensor via the explicit outer-product-sum representation
    (one rank-1 term per interior multi-rank tuple)."""
    _check_cap(prod(m.dims), cap)
    ranks = (1,) + m.ranks + (1,)
    out = np.zeros(m.dims)
    for combo in np.ndindex(*ranks[1:-1]):
        chain = (0,) + combo + (0,)
        term = m.cores[0][chain[0], :, chain[1]]
        for n in range(1, m.order):
            term = np.multiply.outer(term, m.cores[n][chain[n], :, chain[n + 1]])
        out += term
    return DenseTensor.from_array(out)


def tt_orthogonalize(m: TTModel, center: int) -> TTModel:
    """Mixed-canonical form by two QR chain sweeps (:func:`_chain_sweep`):
    one over sites 1..center-1 makes them left-orthogonal, and one over the
    mirrored chain's first N-center sites makes sites > center
    right-orthogonal; each sweep absorbs its triangular factors toward the
    center.  Reconstruction is unchanged up to roundoff and the full norm
    concentrates in the center core."""
    if not 1 <= center <= m.order:
        raise ValueError(f"center {center} out of range 1..{m.order}")
    cores = _chain_sweep(m.cores, _qr_split, [None] * (center - 1))
    cores = _mirror(_chain_sweep(_mirror(cores), _qr_split,
                                 [None] * (m.order - center)))
    return TTModel(cores, ortho_center=center)


def tt_norm(m: TTModel) -> float:
    """Frobenius norm of the represented tensor (via orthogonalization)."""
    w = m if m.ortho_center is not None and m.verify_orthogonality() else \
        tt_orthogonalize(m, 1)
    return _norm(w.cores[w.ortho_center - 1])


def tt_round(m: TTModel, eps: float = 0.0, max_ranks=None) -> TTModel:
    """TT-rounding: right-orthogonalize, then one chain sweep of truncated
    splits (:func:`_chain_sweep` with :func:`_truncated_split`).

    With the sites right of the current one orthogonal, the singular values
    of each core's unfolding are those of the tensor's bond unfolding.  The
    kept left singular vectors become the core and the next core absorbs
    the projection of the current one onto them.  Ranks never increase;
    the result satisfies |m - round(m)| <= eps |m| and rounding twice at
    the same eps is a no-op up to roundoff.  With eps = 0 only exactly zero
    singular values are dropped.  The active bound per bond lands in
    ``meta['active_bounds']``.
    """
    if not (np.isfinite(eps) and eps >= 0.0):
        raise ValueError(f"eps must be finite and >= 0, got {eps}")
    caps = _rank_caps(max_ranks, max(m.order - 1, 0))
    cores = tt_orthogonalize(m, 1).cores
    delta = eps * _norm(cores[0]) / sqrt(max(m.order - 1, 1))
    bounds = []

    def split(mat, cap):
        left, rest, which = _truncated_split(mat, delta, cap)
        bounds.append(which)
        return left, rest

    return TTModel(_chain_sweep(cores, split, caps), ortho_center=m.order,
                   meta={"active_bounds": bounds})


def tt_storage(m: TTModel) -> int:
    """Exact stored-parameter count sum_n R_{n-1} I_n R_n."""
    return m.storage()


def ttm_storage(m: TTMatrixModel) -> int:
    """Exact stored-parameter count sum_n R_{n-1} I_n J_n R_n."""
    return m.storage()


def _check_rank_chain(ranks: Sequence[int], dims: Sequence[int]) -> None:
    chain = [1] + list(ranks) + [1]
    for n in range(1, len(chain) - 1):
        if chain[n] > chain[n - 1] * dims[n - 1] or \
                chain[n] > dims[n] * chain[n + 1]:
            raise ValueError(f"rank R_{n} = {chain[n]} infeasible for dims "
                             f"{tuple(dims)} and the requested chain")


def _right_interfaces(cores: Sequence[np.ndarray], order: str) -> list:
    # envs[k] is the (R_k, I_{k+1} ... I_N) interface of sites k+1..N in the
    # layout ``order``, one GEMM per site from envs[N], the 1x1 identity; a
    # half-sweep reads none left of site 2, so envs[0] stays None
    envs = [None] * len(cores) + [np.ones((1, 1))]
    for k in range(len(cores) - 1, 0, -1):
        c = cores[k]
        envs[k] = np.matmul(c.reshape(-1, c.shape[2], order=order), envs[k + 1],
                            order=order).reshape(c.shape[0], -1, order=order)
    return envs


def _residual(t: DenseTensor, cores, norm_t: float) -> float:
    """|t - chain| / ``norm_t`` by the error rule, the product of the
    chain's two halves formed one block at a time (:func:`_product_error`),
    never the whole reconstruction."""
    return _product_error(t, *_halves(cores), norm_t)


def _half_sweep(arr: np.ndarray, order: str, cores: list,
                caps: Sequence[int | None], width: int, split: Callable) -> None:
    """One left-to-right half-sweep of ``width``-site local steps, in place.

    ``cores`` must be right-orthogonal from site 2 on.  ``arr`` is the
    tensor with one axis per site, a C- or F-contiguous view of the
    canonical buffer, and ``order`` ("C" or "F") names its layout: every
    reshape of ``arr``, of ``w`` and of the interfaces uses it, so none of
    them copies.  The sweep carries ``w``, the tensor projected onto the
    orthonormal left cores so far, as an (R_{n-1}, I_n ... I_N) matrix in
    that layout that starts as ``arr`` itself.  Each window's local core is
    one GEMM of ``w`` with the window's right interface
    (:func:`_right_interfaces`).  ``split(mat, cap)`` splits its C-order
    (R_{n-1} I_n, ...) unfolding, the same small matrix in either layout,
    into (left, rest) with orthonormal left columns, so the cores do not
    depend on ``order`` beyond roundoff.  One more GEMM, written in
    ``order``, projects ``w`` onto the new left core, which shrinks it by
    I_n / R_n.  So the full tensor is read only by the first window's two
    GEMMs: window n costs about 2 R_{n-1} R' size / (I_1 ... I_{n-1})
    multiply-adds, R' its right bond, which falls geometrically once
    I_1 ... I_{n-1} outgrows the ranks.  A half-sweep costs O(R size) plus
    the right interfaces, not the O(N R size) of contracting the whole
    tensor at every site.  The next window replaces ``rest`` except after
    the last window, which keeps it.  The orthogonality center ends on the
    last site.
    """
    n_modes = len(cores)
    dims = arr.shape
    renvs = _right_interfaces(cores, order)
    w = arr.reshape(1, -1, order=order)
    for n in range(n_modes - width + 1):
        renv = renvs[n + width]
        rank = w.shape[0]
        local = (w.reshape(-1, renv.shape[1], order=order) @ renv.T).reshape(
            (rank,) + dims[n:n + width] + (-1,), order=order)
        last = n == n_modes - width
        if last and width == 1:
            cores[n] = local
            return
        a, rest = split(local.reshape(rank * dims[n], -1), caps[n])
        cores[n] = a.reshape(rank, dims[n], a.shape[1])
        if last:
            cores[n + 1] = rest.reshape(a.shape[1], dims[n + 1], 1)
            return
        w = np.matmul(cores[n].reshape(-1, a.shape[1], order=order).T,
                      w.reshape(rank * dims[n], -1, order=order), order=order)


def _sweeps(t: DenseTensor, norm_t: float, cores: list, width: int,
            split: Callable, caps: list, max_sweeps: int, target: float,
            tol: float) -> TTModel:
    """Alternating half-sweeps from a chain whose orthogonality center is
    site 1.  The right-to-left half is :func:`_half_sweep` on the mirrored
    chain.  The relative residual is recorded after every half-sweep; the
    sweeps stop once it is <= ``target`` or moved by less than ``tol`` over
    the last two half-sweeps.  A negative ``max_sweeps`` raises ValueError."""
    if max_sweeps < 0:
        raise ValueError(f"max_sweeps must be >= 0, got {max_sweeps}")
    # both halves read the canonical buffer itself: the left-to-right half
    # as its F-order view, the right-to-left half as the mirrored tensor,
    # whose transpose is a C-order view of the same buffer
    views = ((t.to_array(), "F"), (t.to_array().T, "C"))
    history = []
    flipped = False
    for _ in range(2 * max_sweeps):
        _half_sweep(*views[flipped], cores, caps[::-1] if flipped else caps,
                    width, split)
        cores, flipped = _mirror(cores), not flipped
        history.append(_residual(t, _mirror(cores) if flipped else cores,
                                 norm_t))
        if history[-1] <= target or (len(history) > 2 and
                                     abs(history[-3] - history[-1]) < tol):
            break
    return TTModel(_mirror(cores) if flipped else cores,
                   ortho_center=t.order if flipped else 1,
                   meta={"residual_history": history})


def tt_als(t: DenseTensor, ranks: Sequence[int] | int, *,
           max_sweeps: int = 20, tol: float = 1e-12, seed=None) -> TTModel:
    """Fixed-rank one-site ALS sweeps.

    With the complement held in mixed-canonical form, the optimal core at each
    site is the projection of ``t`` onto the orthonormal left/right
    interfaces, and a QR split moves the orthogonality center on.  Each
    half-sweep carries the tensor projected onto the left cores so far,
    which shrinks site by site (see :func:`_half_sweep`), so only its first
    site touches the full tensor and it costs O(R size), not O(N R size).
    The relative residual after it is the error rule on the product of the
    chain's two halves, formed one block at a time (:func:`_residual`), so
    no tensor-sized reconstruction is held; it is recorded after every
    half-sweep in ``meta['residual_history']`` and is non-increasing up to
    roundoff.  The sweeps stop after the first half-sweep whose residual is
    0 or differs by less than ``tol`` from the one two half-sweeps before,
    or after ``max_sweeps`` full sweeps.  ``ortho_center`` is where the last
    half-sweep left the center: site N after a left-to-right half, site 1
    after a right-to-left half or when ``max_sweeps`` is 0.  A negative
    ``max_sweeps`` or a tensor of zero or non-finite norm raises ValueError.
    """
    dims = t.dims
    n_modes = t.order
    if ranks is None:
        raise TypeError("tt_als needs ranks, got None")
    ranks = _rank_caps(ranks, n_modes - 1)
    if not (np.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    _check_rank_chain(ranks, dims)
    norm_t = _fit_norm(t, "tt_als")
    rng = np.random.default_rng(seed)
    chain = [1] + ranks + [1]
    cores = [rng.standard_normal((chain[n], dims[n], chain[n + 1]))
             for n in range(n_modes)]
    cores = tt_orthogonalize(TTModel(cores), 1).cores
    return _sweeps(t, norm_t, cores, 1, _qr_split,
                   [None] * (n_modes - 1), max_sweeps, 0.0, tol)


def tt_mals(t: DenseTensor, eps: float, *, max_sweeps: int = 10,
            seed=None, max_ranks=None) -> TTModel:
    """Two-site MALS/DMRG sweeps with rank adaptation.

    Neighboring cores are merged into a supercore, set to the projection of
    ``t`` onto the orthonormal interfaces, and split back by the truncated
    split of TT-SVD and rounding (:func:`_truncated_split`) at the local
    tolerance eps |t|_F / sqrt(N-1); bond ranks adapt both ways.
    As in :func:`tt_als`, each half-sweep carries the shrinking projected
    tensor, so only its first window touches the full tensor and it costs
    O(R size) plus the splits, and its residual is measured as in
    :func:`tt_als`.  Starts from a random rank-1 chain.  The relative
    residual is recorded after every half-sweep in
    ``meta['residual_history']``.  The sweeps stop after the first
    half-sweep whose residual is <= ``eps`` or differs by less than 1e-14
    from the one two half-sweeps before, or after ``max_sweeps`` full
    sweeps.  ``ortho_center`` is where the last
    half-sweep left the center: site N after a left-to-right half, site 1
    after a right-to-left half or when ``max_sweeps`` is 0.  A negative
    ``max_sweeps`` or a tensor of zero or non-finite norm raises ValueError.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    n_modes = t.order
    if n_modes < 2:
        raise ValueError("MALS needs an order >= 2 tensor")
    norm_t = _fit_norm(t, "tt_mals")
    caps = _rank_caps(max_ranks, n_modes - 1)
    delta = eps * norm_t / sqrt(n_modes - 1)
    rng = np.random.default_rng(seed)
    cores = [rng.standard_normal((1, d, 1)) for d in t.dims]
    cores = tt_orthogonalize(TTModel(cores), 1).cores
    return _sweeps(t, norm_t, cores, 2,
                   lambda mat, cap: _truncated_split(mat, delta, cap)[:2],
                   caps, max_sweeps, eps, 1e-14)


def tt_to_strong_kron(m: TTModel, cap: int = DENSE_CAP) -> tuple[list[BlockMatrix], np.ndarray]:
    """Block-matrix chain of core unfoldings (blocks are the cores' column
    fibers) and its strong-Kronecker evaluation, which equals the big-endian
    vectorization of the reconstruction."""
    _check_cap(prod(m.dims), cap)
    blocks = [BlockMatrix(c.transpose(0, 2, 1)[:, :, :, None]) for c in m.cores]
    acc = blocks[0]
    for b in blocks[1:]:
        acc = strong_kron(acc, b)
    return blocks, acc.to_dense()[:, 0]


def ttm_to_strong_kron(m: TTMatrixModel, cap: int = DENSE_CAP) -> tuple[list[BlockMatrix], np.ndarray]:
    """Block-matrix chain for a TT/MPO and its strong-Kronecker evaluation,
    the (row-modes x column-modes) unfolding with big-endian index grouping."""
    total = prod(m.row_dims) * prod(m.col_dims)
    _check_cap(total, cap)
    blocks = [BlockMatrix(c.transpose(0, 3, 1, 2)) for c in m.cores]
    acc = blocks[0]
    for b in blocks[1:]:
        acc = strong_kron(acc, b)
    return blocks, acc.to_dense()
