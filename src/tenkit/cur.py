"""Matrix CUR skeleton decomposition and fiber-sampling Tucker decomposition."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dense import DenseTensor, fiber, unfold
from .ops import mode_n_matrix_product
from .tucker import _PINV_RCOND, TuckerModel, tucker_reconstruct

_ZERO_RTOL = 1e-13


def _check_index_list(idx: Sequence[int], limit: int, what: str) -> np.ndarray:
    ix = np.asarray(idx, dtype=int)
    if ix.size < 1:
        raise ValueError(f"{what} selection is empty")
    if len(set(ix.tolist())) != ix.size:
        raise ValueError(f"duplicate {what} indices: {list(idx)}")
    if ix.min() < 1 or ix.max() > limit:
        raise IndexError(f"{what} index out of range 1..{limit}")
    return ix - 1


@dataclass(frozen=True)
class CURModel:
    """Skeleton decomposition X ~ C U R from actual columns and rows."""

    row_idx: tuple[int, ...]   # 1-based
    col_idx: tuple[int, ...]   # 1-based
    c: np.ndarray              # I x |c|
    r: np.ndarray              # |r| x J
    u: np.ndarray              # |c| x |r|
    diagnostics: dict = field(default_factory=dict)

    def reconstruct(self) -> np.ndarray:
        return self.c @ self.u @ self.r

    def storage(self) -> int:
        return self.c.size + self.r.size + self.u.size


def cur_decompose(x, row_idx: Sequence[int], col_idx: Sequence[int],
                  core_mode: str = "pseudo_inverse_w") -> CURModel:
    """CUR decomposition with the core chosen as W^+ (``pseudo_inverse_w``,
    touching only the selected entries) or the least-squares optimum
    C^+ X R^+ (``least_squares``, touching all of X).

    Exact whenever rank(X) <= min(|c|, |r|) and W carries that rank.  A
    numerically singular W is flagged in ``diagnostics`` rather than raised.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("cur_decompose expects a matrix")
    rows = _check_index_list(row_idx, x.shape[0], "row")
    cols = _check_index_list(col_idx, x.shape[1], "column")
    c = x[:, cols]
    r = x[rows, :]
    w = x[np.ix_(rows, cols)]
    diagnostics: dict = {}
    sw = np.linalg.svd(w, compute_uv=False)
    w_rank = int(np.sum(sw > _PINV_RCOND * sw[0])) if sw.size and sw[0] > 0 else 0
    diagnostics["w_rank"] = w_rank
    diagnostics["w_singular"] = w_rank < min(w.shape)
    if core_mode == "pseudo_inverse_w":
        u = np.linalg.pinv(w, rcond=_PINV_RCOND)
    elif core_mode == "least_squares":
        u = np.linalg.pinv(c, rcond=_PINV_RCOND) @ x @ \
            np.linalg.pinv(r, rcond=_PINV_RCOND)
    else:
        raise ValueError(f"unknown core_mode {core_mode!r}")
    return CURModel(tuple(int(i) for i in row_idx),
                    tuple(int(i) for i in col_idx), c, r, u, diagnostics)


@dataclass(frozen=True)
class FiberSelection:
    """Greedy cross-selection result: 1-based index lists per mode, the pivot
    trail, and whether the residual vanished before the quota was met."""

    indices: tuple[tuple[int, ...], ...]
    pivots: tuple[tuple[int, ...], ...]
    early_stop: bool


class _CrossResidual:
    # Residual of X minus the accumulated rank-1 cross terms, evaluated only
    # along fibers; each term stores one vector per mode plus a scale.
    def __init__(self, t: DenseTensor):
        self.t = t
        self.terms: list[tuple[list[np.ndarray], float]] = []

    def fiber(self, n: int, coords: Sequence[int]) -> np.ndarray:
        out = fiber(self.t, n, coords)
        for vecs, scale in self.terms:
            w = scale
            for m in range(1, self.t.order + 1):
                if m != n:
                    w *= vecs[m - 1][coords[m - 1] - 1]
            out = out - w * vecs[n - 1]
        return out

    def deflate(self, pivot: Sequence[int]) -> None:
        vecs = [self.fiber(n, pivot) for n in range(1, self.t.order + 1)]
        e = vecs[0][pivot[0] - 1]
        scale = 1.0 / e ** (self.t.order - 1)
        self.terms.append((vecs, scale))


def _alternating_pivot(resid: _CrossResidual, start: Sequence[int],
                       zero_tol: float, max_alternations: int):
    # Alternating fiber maximization; all-zero fibers leave the coordinate in
    # place (a zeroed cross must not capture the search), and the best entry
    # seen across all scanned fibers wins even if the sweep cycles.
    point = list(start)
    best_val = 0.0
    best_point = None
    for _ in range(max_alternations):
        moved = False
        for n in range(1, resid.t.order + 1):
            f = resid.fiber(n, point)
            j = int(np.argmax(np.abs(f)))
            if abs(f[j]) > best_val:
                best_val = abs(f[j])
                best_point = list(point)
                best_point[n - 1] = j + 1
            if abs(f[j]) > zero_tol and j + 1 != point[n - 1]:
                point[n - 1] = j + 1
                moved = True
        if not moved:
            break
    return best_point, best_val


def _complete_selection(t: DenseTensor, lists: list[list[int]],
                        counts: Sequence[int]) -> list[list[int]]:
    # Cross deflation can reach a zero residual before every mode has met its
    # quota (the cross expansion is exact while the index sets are short).
    # Fill a deficient mode n by greedily adding the index whose restricted
    # fiber has the largest component orthogonal to the chosen ones; this
    # reads only entries of the X^(n) subtensors that fstd assembles anyway.
    arr = t.to_array()
    out = [list(ix) for ix in lists]
    for n in range(t.order):
        if not out[n] and counts[n] >= 1:
            out[n].append(1)
    for n in range(t.order):
        need = counts[n] - len(out[n])
        if need <= 0:
            continue
        keys = [np.arange(t.dims[m]) if m == n else np.asarray(out[m], int) - 1
                for m in range(t.order)]
        sub = arr[np.ix_(*keys)]
        mat = np.moveaxis(sub, n, 0).reshape(t.dims[n], -1)
        tol = 1e-12 * max(np.linalg.norm(mat), 1e-300)
        chosen = [i - 1 for i in out[n]]
        while need > 0:
            q, _ = np.linalg.qr(mat[chosen].T)
            resid = mat - (mat @ q) @ q.T
            norms = np.linalg.norm(resid, axis=1)
            norms[chosen] = -1.0
            j = int(np.argmax(norms))
            if norms[j] <= tol:
                break  # mode rank exhausted within the selected cross
            chosen.append(j)
            out[n].append(j + 1)
            need -= 1
    return out


def select_fibers_maxmod(t: DenseTensor, counts: Sequence[int],
                         max_alternations: int = 8,
                         complete: bool = False) -> FiberSelection:
    """Greedy max-modulus cross selection with deflation.

    Pivots are located by alternating maximization over residual fibers,
    falling back to fresh start indices when a search lands in an already
    deflated cross; each accepted pivot contributes its coordinate to every
    mode's index list (up to that mode's quota) and is deflated away by the
    rank-1 cross update.  Only fibers of the data are ever read, and the
    selection is deterministic for a given tensor.

    A zero residual before the quota stops early with shorter lists
    (``early_stop``); with ``complete=True`` deficient modes are then topped
    up by orthogonal-residual fiber completion so W can reach the quota.
    """
    if len(counts) != t.order:
        raise ValueError(f"expected {t.order} fiber counts")
    for n, (p, d) in enumerate(zip(counts, t.dims), start=1):
        if not 1 <= p <= d:
            raise ValueError(f"count P_{n} = {p} invalid for dim {d}")

    resid = _CrossResidual(t)
    lists: list[list[int]] = [[] for _ in range(t.order)]
    pivots: list[tuple[int, ...]] = []
    scale_ref = float(np.max(np.abs(t.data))) if t.size else 0.0
    zero_tol = _ZERO_RTOL * scale_ref
    early = False
    point = [1] * t.order
    max_pivots = 4 * sum(counts)
    while any(len(lists[n]) < counts[n] for n in range(t.order)):
        if scale_ref == 0.0 or len(pivots) >= max_pivots:
            early = True
            break
        starts = [list(point)]
        for n in range(t.order):
            for i in range(1, t.dims[n] + 1):
                if i not in lists[n]:
                    alt = list(point)
                    alt[n] = i
                    starts.append(alt)
        found = None
        for start in starts:
            cand, val = _alternating_pivot(resid, start, zero_tol,
                                           max_alternations)
            if cand is not None and val > zero_tol:
                found = cand
                break
        if found is None:
            early = True
            break
        point = found
        resid.deflate(tuple(point))
        pivots.append(tuple(point))
        for n in range(t.order):
            if len(lists[n]) < counts[n] and point[n] not in lists[n]:
                lists[n].append(point[n])
    if complete and early and scale_ref > 0.0:
        lists = _complete_selection(t, lists, counts)
    return FiberSelection(tuple(tuple(l) for l in lists),
                          tuple(pivots), early)


@dataclass(frozen=True)
class FSTDModel:
    """Fiber Sampling Tucker Decomposition.

    Holds the per-mode selected indices, the intersection subtensor W, the
    fiber factor matrices C^(n), and the equivalent Tucker form with core W
    and factors C^(n) W_(n)^+.
    """

    indices: tuple[tuple[int, ...], ...]
    w: DenseTensor
    fiber_factors: list[np.ndarray]
    tucker: TuckerModel
    early_stop: bool = False

    def cur_core(self) -> DenseTensor:
        """Core of the C-U-R form: [[W; W_(1)^+, ..., W_(N)^+]]."""
        core = self.w
        for n in range(1, self.w.order + 1):
            core = mode_n_matrix_product(
                core, np.linalg.pinv(unfold(self.w, n), rcond=_PINV_RCOND), n)
        return core

    def reconstruct(self) -> DenseTensor:
        return tucker_reconstruct(self.tucker)

    def storage(self) -> int:
        return self.w.size + sum(f.size for f in self.fiber_factors)


def fstd(t: DenseTensor, counts: Sequence[int] | None = None,
         indices: Sequence[Sequence[int]] | None = None) -> FSTDModel:
    """Fiber Sampling Tucker Decomposition of an order-N tensor (N >= 2).

    Index sets come from ``indices`` (1-based) or from the max-modulus
    heuristic with per-mode quotas ``counts``.  Factors C^(n) collect the
    mode-n fibers crossing the selected indices of the other modes (columns
    combined little-endian over the other modes in ascending order); the
    Tucker-form factors are C^(n) W_(n)^+.  Reconstruction is exact whenever
    W has the tensor's full multilinear rank; for N = 2 the model coincides
    with matrix CUR using the W^+ core.
    """
    if t.order < 2:
        raise ValueError("fstd needs an order >= 2 tensor")
    if (counts is None) == (indices is None):
        raise ValueError("give exactly one of counts or indices")
    early = False
    if counts is not None:
        sel = select_fibers_maxmod(t, counts, complete=True)
        indices = sel.indices
        early = sel.early_stop
    if len(indices) != t.order:
        raise ValueError(f"expected {t.order} index lists")
    idx0 = [_check_index_list(ix, t.dims[n], f"mode {n + 1}")
            for n, ix in enumerate(indices)]

    arr = t.to_array()
    w = DenseTensor.from_array(arr[np.ix_(*idx0)])

    fiber_factors = []
    tucker_factors = []
    for n in range(1, t.order + 1):
        keys = [np.arange(t.dims[m - 1]) if m == n else idx0[m - 1]
                for m in range(1, t.order + 1)]
        sub = DenseTensor.from_array(arr[np.ix_(*keys)])
        c_n = unfold(sub, n)
        fiber_factors.append(c_n)
        tucker_factors.append(c_n @ np.linalg.pinv(unfold(w, n),
                                                   rcond=_PINV_RCOND))
    model = TuckerModel(w, tucker_factors)
    return FSTDModel(tuple(tuple(int(i) + 1 for i in ix) for ix in idx0),
                     w, fiber_factors, model, early)
