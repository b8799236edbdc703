"""Tucker models, HOSVD, sliced-Gram factors, block-wise and subtensor pipelines."""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import Iterable, Sequence

import numpy as np

from .dense import DenseTensor, _sum_tensors, frobenius_norm, unfold
from .ops import mode_n_matrix_product, multilinear_product
from .ttrain import _truncation_rank

_PINV_RCOND = 1e-12
_ORTHO_RTOL = 1e-10


@dataclass(frozen=True)
class TuckerModel:
    """Core tensor plus per-mode factors; ``None`` marks an identity mode."""

    core: DenseTensor
    factors: list  # (I_n x R_n) ndarray or None

    def __post_init__(self):
        if len(self.factors) != self.core.order:
            raise ValueError(f"expected {self.core.order} factors, "
                             f"got {len(self.factors)}")
        mats = []
        for n, f in enumerate(self.factors, start=1):
            if f is None:
                mats.append(None)
                continue
            f = np.asarray(f, dtype=np.float64)
            if f.ndim != 2 or f.shape[1] != self.core.dims[n - 1]:
                raise ValueError(f"factor {n} must have {self.core.dims[n - 1]} "
                                 f"columns, got shape {f.shape}")
            mats.append(f)
        object.__setattr__(self, "factors", mats)

    @property
    def identity_modes(self) -> tuple[int, ...]:
        return tuple(n for n, f in enumerate(self.factors, start=1) if f is None)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(self.core.dims[n] if f is None else f.shape[0]
                     for n, f in enumerate(self.factors))

    @property
    def ranks(self) -> tuple[int, ...]:
        return self.core.dims

    def storage(self) -> int:
        """Stored scalars: core entries plus explicit factor entries."""
        return self.core.size + sum(f.size for f in self.factors if f is not None)


def tucker_reconstruct(m: TuckerModel) -> DenseTensor:
    """Dense tensor [[core; B1, ..., BN]] with identity modes skipped."""
    return multilinear_product(m.core, m.factors)


def _fix_signs(u: np.ndarray) -> np.ndarray:
    # Reproducibility: largest-magnitude entry of each column made positive.
    if u.size == 0:
        return u
    picks = np.argmax(np.abs(u), axis=0)
    signs = np.sign(u[picks, np.arange(u.shape[1])])
    signs[signs == 0] = 1.0
    return u * signs


def hosvd(t: DenseTensor, ranks: Sequence[int] | None = None,
          eps: float | None = None,
          identity_modes: Iterable[int] = ()) -> TuckerModel:
    """Higher-order SVD (exact or truncated).

    Factors are the leading left singular vectors of each mode-n unfolding
    (identity modes skipped, giving a Tucker-(K,N) model); the core is
    t x_1 U1^T ... x_N UN^T.  Exactly one of ``ranks``/``eps`` may be given:
    ``ranks`` pins per-mode truncation, ``eps`` in [0, 1) picks per-mode ranks
    so the total relative error stays within ``eps`` (the squared budget is
    split equally across non-identity modes).  With neither, the full
    (untruncated) HOSVD is returned.
    """
    identity_modes = tuple(sorted(set(identity_modes)))
    for n in identity_modes:
        if not 1 <= n <= t.order:
            raise ValueError(f"identity mode {n} invalid for order {t.order}")
    if ranks is not None and eps is not None:
        raise ValueError("give either ranks or eps, not both")
    if eps is not None and not 0.0 <= eps < 1.0:
        raise ValueError("eps must lie in [0, 1)")
    if ranks is not None:
        ranks = list(ranks)
        if len(ranks) != t.order:
            raise ValueError(f"expected {t.order} ranks, got {len(ranks)}")
        for n, r in enumerate(ranks, start=1):
            if n in identity_modes:
                continue
            if not 1 <= r <= t.dims[n - 1]:
                raise ValueError(f"rank {r} invalid for mode {n} "
                                 f"of dim {t.dims[n - 1]}")

    n_free = t.order - len(identity_modes)
    delta = None
    if eps is not None and n_free > 0:
        delta = eps * frobenius_norm(t) / sqrt(n_free)

    factors: list[np.ndarray | None] = []
    for n in range(1, t.order + 1):
        if n in identity_modes:
            factors.append(None)
            continue
        u, s, _ = np.linalg.svd(unfold(t, n), full_matrices=False)
        if ranks is not None:
            r = ranks[n - 1]
        else:
            r, _ = _truncation_rank(s, delta, None)
        factors.append(_fix_signs(u[:, :r]))

    core = multilinear_product(
        t, [None if f is None else f.T for f in factors])
    return TuckerModel(core, factors)


def tucker_from_factors(t: DenseTensor, factors: Sequence) -> TuckerModel:
    """Core fitted to externally supplied (possibly non-orthogonal) factors
    via pseudo-inverses: G = t x_1 B1^+ ... x_N BN^+.

    The factor-producer hook for multiway component analysis: any per-mode
    low-rank factorization can supply the matrices.
    """
    pinvs = [None if f is None else np.linalg.pinv(np.asarray(f, float),
                                                   rcond=_PINV_RCOND)
             for f in factors]
    core = multilinear_product(t, pinvs)
    return TuckerModel(core, [None if f is None else np.asarray(f, float)
                              for f in factors])


@dataclass(frozen=True)
class OrthogonalityReport:
    """All-orthogonality check of a core tensor: per-mode maximal off-diagonal
    slice inner product and slice-norm sequences."""

    max_offdiag: tuple[float, ...]
    slice_norms: tuple[np.ndarray, ...]
    all_orthogonal: bool
    pseudo_diagonal: bool


def check_all_orthogonal(core: DenseTensor,
                         rel_tol: float = _ORTHO_RTOL) -> OrthogonalityReport:
    """Check that same-mode slices are mutually orthogonal with non-increasing
    Frobenius norms.  Thresholds scale with |core|_F^2; ties are allowed in
    the norm ordering."""
    scale = frobenius_norm(core) ** 2
    tol = rel_tol * scale if scale > 0 else rel_tol
    max_offdiag = []
    slice_norms = []
    orthogonal = True
    ordered = True
    for n in range(1, core.order + 1):
        g = unfold(core, n)
        gram = g @ g.T
        off = gram - np.diag(np.diag(gram))
        max_offdiag.append(float(np.max(np.abs(off))) if gram.shape[0] > 1 else 0.0)
        norms = np.sqrt(np.clip(np.diag(gram), 0.0, None))
        slice_norms.append(norms)
        if max_offdiag[-1] > tol:
            orthogonal = False
        if np.any(np.diff(norms ** 2) > tol):
            ordered = False
    return OrthogonalityReport(tuple(max_offdiag), tuple(slice_norms),
                               orthogonal, ordered)


@dataclass(frozen=True)
class SlicedGram:
    """Factor matrix recovered from an accumulated Gram: eigenvectors ordered
    by decreasing eigenvalue, singular values, and the numerical rank."""

    u: np.ndarray
    sigmas: np.ndarray
    rank: int


def factor_gram_sliced(slices: Iterable[np.ndarray]) -> SlicedGram:
    """Accumulate sum_q X_q X_q^T over column slices of a mode-n unfolding and
    eigendecompose it.

    ``u`` matches the left singular vectors of the full unfolding up to column
    sign, and ``sigmas`` its singular values; slices are pulled sequentially
    so the full unfolding never needs to be in memory at once.
    """
    gram = None
    for x in slices:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError("each slice must be a matrix")
        if gram is None:
            gram = x @ x.T
        else:
            if x.shape[0] != gram.shape[0]:
                raise ValueError(f"slice row count {x.shape[0]} does not match "
                                 f"{gram.shape[0]}")
            gram += x @ x.T
    if gram is None:
        raise ValueError("slice provider yielded no slices")
    w, v = np.linalg.eigh(gram)
    order = np.argsort(w)[::-1]
    w = np.clip(w[order], 0.0, None)
    u = _fix_signs(v[:, order])
    sigmas = np.sqrt(w)
    cutoff = _PINV_RCOND * sigmas[0] if sigmas.size and sigmas[0] > 0 else 0.0
    rank = int(np.sum(sigmas > cutoff))
    return SlicedGram(u, sigmas, rank)


def right_factor_block(x_q: np.ndarray, gram: SlicedGram) -> np.ndarray:
    """Per-slice right factor V_q = X_q^T U Sigma^{-1}, computed separately
    once U and the singular values are known.  Columns past the numerical
    rank are zero."""
    x_q = np.asarray(x_q, dtype=np.float64)
    inv = np.zeros_like(gram.sigmas)
    inv[:gram.rank] = 1.0 / gram.sigmas[:gram.rank]
    return (x_q.T @ gram.u) * inv


def unfolding_column_slices(t: DenseTensor, n: int, q: int):
    """Yield ``q`` column blocks of unfold(t, n), a ready-made slice provider."""
    mat = unfold(t, n)
    if q < 1:
        raise ValueError("slice count must be >= 1")
    for cols in np.array_split(np.arange(mat.shape[1]), q):
        if cols.size:
            yield mat[:, cols]


def _splits(total: int, parts: int) -> list[np.ndarray]:
    if not 1 <= parts <= total:
        raise ValueError(f"cannot split dim {total} into {parts} blocks")
    return np.array_split(np.arange(total), parts)


def partition_tensor(t: DenseTensor, blocks_per_mode: Sequence[int]) -> np.ndarray:
    """Split a tensor into an object grid of DenseTensor blocks (contiguous
    index ranges per mode, near-equal sizes)."""
    if len(blocks_per_mode) != t.order:
        raise ValueError(f"expected {t.order} block counts")
    splits = [_splits(d, k) for d, k in zip(t.dims, blocks_per_mode)]
    grid = np.empty(tuple(blocks_per_mode), dtype=object)
    arr = t.to_array()
    for idx in np.ndindex(*grid.shape):
        key = tuple(np.ix_(*[splits[m][idx[m]] for m in range(t.order)]))
        grid[idx] = DenseTensor.from_array(arr[key])
    return grid


def assemble_blocks(grid: np.ndarray) -> DenseTensor:
    """Reassemble a block grid produced by :func:`partition_tensor` or
    :func:`core_blockwise`."""
    order = grid.ndim
    arrs = np.empty(grid.shape, dtype=object)
    for idx in np.ndindex(*grid.shape):
        arrs[idx] = grid[idx].to_array()
    return DenseTensor.from_array(np.block(_nested(arrs)))


def _nested(arrs: np.ndarray):
    if arrs.ndim == 1:
        return list(arrs)
    return [_nested(arrs[i]) for i in range(arrs.shape[0])]


def partition_matrix_blocks(mat: np.ndarray, in_blocks: int,
                            out_blocks: int) -> list[list[np.ndarray]]:
    """Split a (rows_out x cols_in) matrix into ``blocks[k][q]`` with the
    input-block index first, as used by :func:`core_blockwise`."""
    mat = np.asarray(mat, dtype=np.float64)
    col_splits = _splits(mat.shape[1], in_blocks)
    row_splits = _splits(mat.shape[0], out_blocks)
    return [[mat[np.ix_(rows, cols)] for rows in row_splits]
            for cols in col_splits]


def core_blockwise(x_blocks: np.ndarray, ut_blocks: Sequence[Sequence[np.ndarray]],
                   n: int, k_order: Sequence[int] | None = None) -> np.ndarray:
    """Block-wise mode-n product: the output block at grid position
    (..., q_n, ...) is sum_{k_n} X[..., k_n, ...] x_n UT[k_n][q_n].

    ``x_blocks`` is an object grid of DenseTensor blocks; ``ut_blocks[k][q]``
    maps the k-th input block to the q-th output block and must have as many
    columns as that input block's mode-n dim.  ``k_order`` optionally permutes
    the summation order over k_n (the assembled result is order-independent
    up to roundoff).
    """
    order = x_blocks.ndim
    if not 1 <= n <= order:
        raise ValueError(f"mode {n} invalid for a grid of order {order}")
    kn = x_blocks.shape[n - 1]
    if len(ut_blocks) != kn:
        raise ValueError(f"factor grid has {len(ut_blocks)} input blocks, "
                         f"tensor grid has {kn} along mode {n}")
    qn = len(ut_blocks[0])
    if any(len(row) != qn for row in ut_blocks):
        raise ValueError("ragged factor block grid")
    ks = list(range(kn)) if k_order is None else list(k_order)
    if sorted(ks) != list(range(kn)):
        raise ValueError(f"k_order must permute 0..{kn - 1}")

    out_shape = list(x_blocks.shape)
    out_shape[n - 1] = qn
    out = np.empty(tuple(out_shape), dtype=object)
    for idx in np.ndindex(*out_shape):
        q = idx[n - 1]
        out[idx] = _sum_tensors(
            mode_n_matrix_product(x_blocks[idx[:n - 1] + (k,) + idx[n:]],
                                  ut_blocks[k][q], n) for k in ks)
    return out


def hosvd_from_subtensors(t: DenseTensor, counts: Sequence[int] | None = None,
                          indices: Sequence[Sequence[int]] | None = None,
                          rank_tol: float = 1e-10) -> TuckerModel:
    """HOSVD of a low-multilinear-rank tensor from N subtensors.

    Per-mode index sets (1-based) select an intersection subtensor W and the
    N subtensors X^(n) that keep mode n full.  Requires W to carry the
    tensor's full multilinear rank; the SVD of each X^(n) unfolding gives
    Utilde^(n), the selected rows are pseudo-inverted to map W onto an
    auxiliary core, and a final HOSVD of that core restores all-orthogonality.
    With ``counts`` the index sets come from the max-modulus fiber selection
    heuristic.
    """
    from .cur import _check_index_list, select_fibers_maxmod

    if (counts is None) == (indices is None):
        raise ValueError("give exactly one of counts or indices")
    if counts is not None:
        sel = select_fibers_maxmod(t, counts, complete=True)
        indices = sel.indices
    if len(indices) != t.order:
        raise ValueError(f"expected {t.order} index lists")
    idx0 = [_check_index_list(ix, t.dims[n], f"mode {n + 1}")
            for n, ix in enumerate(indices)]

    arr = t.to_array()
    w = arr[np.ix_(*idx0)]

    u_tilde = []
    ranks = []
    for n in range(1, t.order + 1):
        keys = [np.arange(t.dims[m - 1]) if m == n else idx0[m - 1]
                for m in range(1, t.order + 1)]
        sub = DenseTensor.from_array(arr[np.ix_(*keys)])
        u, s, _ = np.linalg.svd(unfold(sub, n), full_matrices=False)
        r = int(np.sum(s > rank_tol * s[0])) if s.size and s[0] > 0 else 0
        if r == 0:
            raise np.linalg.LinAlgError(
                f"subtensor for mode {n} is numerically zero")
        ranks.append(r)
        u_tilde.append(_fix_signs(u[:, :r]))

    core = DenseTensor.from_array(w)
    for n in range(1, t.order + 1):
        rows = u_tilde[n - 1][idx0[n - 1], :]
        s_rows = np.linalg.svd(rows, compute_uv=False)
        if s_rows.size < ranks[n - 1] or s_rows[ranks[n - 1] - 1] <= \
                rank_tol * s_rows[0]:
            raise np.linalg.LinAlgError(
                f"selected rows of mode-{n} factor are rank deficient; "
                f"increase P_{n} or choose different fibers")
        b = np.linalg.pinv(rows, rcond=_PINV_RCOND)
        core = mode_n_matrix_product(core, b, n)

    inner = hosvd(core)
    factors = [u_tilde[n] @ inner.factors[n] for n in range(t.order)]
    return TuckerModel(inner.core, factors)
