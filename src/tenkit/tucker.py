"""Tucker models, HOSVD, out-of-core factors from column slices, block-wise
and subtensor pipelines."""

from __future__ import annotations

from dataclasses import dataclass
from math import frexp, sqrt
from typing import Iterable, Sequence

import numpy as np

from .dense import (DenseTensor, _fit_norm, _sum_tensors,
                    _unfolding_row_blocks, fold, frobenius_norm, unfold)
from .ops import mode_n_matrix_product, multilinear_product
from .ttrain import (_fix_signs, _left_factor, _numerical_rank,
                     _truncated_split, _tsqr_r)

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


def hosvd(t: DenseTensor, ranks: Sequence[int] | None = None,
          eps: float | None = None,
          identity_modes: Iterable[int] = ()) -> TuckerModel:
    """Sequentially truncated higher-order SVD (exact or truncated).

    Modes are processed in ascending order (identity modes skipped, giving a
    Tucker-(K,N) model).  Each mode is one truncated split
    (:func:`ttrain._truncated_split`, shared with TT-SVD and TT rounding)
    of the mode-n unfolding of the tensor already projected on the earlier
    factors, t x_1 U1^T ... x_{n-1} U_{n-1}^T: mode n's factor holds its
    leading left singular vectors, sign-fixed, and the split's projection,
    folded back, is the next tensor, so the last one is the core
    (Vannieuwenhoven, Vandebril & Meerbergen, SISC 2012).  Exactly one of
    ``ranks``/``eps`` may be given: ``ranks`` pins per-mode truncation (a
    rank above what the projected unfolding has columns for is lowered to
    that count), ``eps`` in [0, 1) picks per-mode ranks so the total
    relative error stays within ``eps`` (the squared budget is split
    equally across non-identity modes).  The squared error is the sum of
    the squared singular values discarded at each step, at most those the
    plain HOSVD of ``t`` discards.  With neither, the full (untruncated)
    HOSVD is returned.
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
    core = t
    for n in range(1, t.order + 1):
        if n in identity_modes:
            factors.append(None)
            continue
        cap = ranks[n - 1] if ranks is not None else None
        u, rest, _ = _truncated_split(unfold(core, n), delta, cap)
        factors.append(u)
        dims = list(core.dims)
        dims[n - 1] = u.shape[1]
        core = fold(rest, n, dims)
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
    the norm ordering.

    The Grams and thresholds are computed on the core scaled by 2^-e, e the
    binary exponent of |core|_F, so they stay in range at any scale; the
    scaling is exact, and the reported values are scaled back (inner
    products by 2^2e, which can overflow to inf or underflow to 0 beyond
    about 2^+-500)."""
    mantissa, e = frexp(frobenius_norm(core))
    scaled = DenseTensor(core.dims, np.ldexp(core.data, -e), copy=False)
    tol = rel_tol * mantissa ** 2 if mantissa > 0 else rel_tol
    max_offdiag = []
    slice_norms = []
    orthogonal = True
    ordered = True
    for n in range(1, core.order + 1):
        g = unfold(scaled, n)
        gram = g @ g.T
        off = gram - np.diag(np.diag(gram))
        offdiag = float(np.max(np.abs(off))) if gram.shape[0] > 1 else 0.0
        norms = np.sqrt(np.clip(np.diag(gram), 0.0, None))
        if offdiag > tol:
            orthogonal = False
        if np.any(np.diff(norms ** 2) > tol):
            ordered = False
        with np.errstate(over="ignore"):
            max_offdiag.append(float(np.ldexp(offdiag, 2 * e)))
        slice_norms.append(np.ldexp(norms, e))
    return OrthogonalityReport(tuple(max_offdiag), tuple(slice_norms),
                               orthogonal, ordered)


@dataclass(frozen=True)
class SlicedGram:
    """Factor of an unfolding given as column slices: left singular vectors
    ordered by decreasing singular value, the singular values, and the
    numerical rank.  No Gram is formed; the name is kept for callers."""

    u: np.ndarray
    sigmas: np.ndarray
    rank: int


def factor_gram_sliced(slices: Iterable[np.ndarray]) -> SlicedGram:
    """Left singular vectors and singular values of the unfolding
    [X_1 ... X_Q] from its column slices, pulled one at a time so the full
    unfolding never needs to be in memory at once.

    Each slice is checked and its transpose X_q^T, a view, handed as one
    row block to the TSQR fold :func:`ttrain._tsqr_r`, which holds two
    b-row blocks and O(b n) kept rows at a time and reads nothing of a
    slice after the next is pulled, so a provider may read every slice into
    one reused buffer.  Its triangle R has
    R^T R = sum_q X_q X_q^T without that Gram being formed, and ``u`` and
    ``sigmas`` come from the SVD of R^T.  No condition number is squared:
    every singular value is within about machine epsilon times the
    largest, as from a direct SVD.  ``u`` (sign-fixed) and ``sigmas`` have
    min(rows, total columns) entries; ``rank`` counts the singular values
    above 1e-12 times the largest.
    """
    def checked():
        rows = None
        for q, x in enumerate(slices):
            x = np.asarray(x, dtype=np.float64)
            if x.ndim != 2:
                raise ValueError("each slice must be a matrix")
            if x.shape[0] == 0:
                raise ValueError(f"slice {q} has no rows")
            if rows is not None and x.shape[0] != rows:
                raise ValueError(f"slice row count {x.shape[0]} does not "
                                 f"match {rows}")
            if not np.isfinite(x).all():
                raise ValueError(f"slice {q} holds non-finite entries")
            rows = x.shape[0]
            yield x.T
        if rows is None:
            raise ValueError("slice provider yielded no slices")

    u, sigmas = _left_factor(_tsqr_r(checked()).T)
    return SlicedGram(_fix_signs(u), sigmas,
                      _numerical_rank(sigmas, _PINV_RCOND))


def right_factor_block(x_q: np.ndarray, gram: SlicedGram) -> np.ndarray:
    """Per-slice right factor V_q = X_q^T U Sigma^{-1}, computed separately
    once U and the singular values are known.  Columns past the numerical
    rank are zero."""
    x_q = np.asarray(x_q, dtype=np.float64)
    inv = np.zeros_like(gram.sigmas)
    inv[:gram.rank] = 1.0 / gram.sigmas[:gram.rank]
    return (x_q.T @ gram.u) * inv


def unfolding_column_slices(t: DenseTensor, n: int, q: int):
    """Iterator over ``q`` column blocks of unfold(t, n), as a ready-made
    slice provider; empty blocks are skipped.  The unfolding is never
    formed: a block whose columns lie in one slab of the F-order
    (I_<n, I_n, I_>n) view of the buffer is a view, any other is gathered
    from the slabs it touches (:func:`dense._unfolding_row_blocks`)."""
    if q < 1:
        raise ValueError("slice count must be >= 1")
    if not 1 <= n <= t.order:
        raise ValueError(f"mode {n} invalid for an order-{t.order} tensor")
    width, extra = divmod(t.size // t.dims[n - 1], q)
    bounds = sorted({k * width + min(k, extra) for k in range(q + 1)})
    return (rows.T for rows in _unfolding_row_blocks(t, n, bounds))


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
    heuristic.  Ranks count singular values above ``rank_tol`` times the
    largest, and ``rank_tol`` must lie in [0, 1).
    """
    from .cur import _cross

    if not 0.0 <= rank_tol < 1.0:
        raise ValueError(f"rank_tol must lie in [0, 1), got {rank_tol}")
    _fit_norm(t, "hosvd_from_subtensors")
    idx0, w, subs, _ = _cross(t, counts, indices)

    u_tilde = []
    ranks = []
    for n, sub in enumerate(subs, start=1):
        u, s = _left_factor(sub)
        r = _numerical_rank(s, rank_tol)
        if r == 0:
            raise np.linalg.LinAlgError(
                f"subtensor for mode {n} is numerically zero")
        ranks.append(r)
        u_tilde.append(_fix_signs(u[:, :r]))

    core = DenseTensor.from_array(w)
    for n in range(1, t.order + 1):
        rows = u_tilde[n - 1][idx0[n - 1], :]
        s_rows = np.linalg.svd(rows, compute_uv=False)
        if _numerical_rank(s_rows, rank_tol) < ranks[n - 1]:
            raise np.linalg.LinAlgError(
                f"selected rows of mode-{n} factor are rank deficient; "
                f"increase P_{n} or choose different fibers")
        b = np.linalg.pinv(rows, rcond=_PINV_RCOND)
        core = mode_n_matrix_product(core, b, n)

    inner = hosvd(core)
    factors = [u_tilde[n] @ inner.factors[n] for n in range(t.order)]
    return TuckerModel(inner.core, factors)
