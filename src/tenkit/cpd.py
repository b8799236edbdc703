"""Canonical Polyadic model: reconstruction, matricized forms, ALS fitting."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from math import prod
from typing import Sequence

import numpy as np

from .dense import DenseTensor, _fit_norm, _norm, _product_error
from .ops import khatri_rao
from .ttrain import _numerical_rank, _unfolding_factor

_GRAM_CUTOFF = 1e-12  # relative eigenvalue cutoff for the R x R Gram pseudo-inverse
_EPS = np.finfo(np.float64).eps


@dataclass(frozen=True)
class CPModel:
    """Weights lambda plus N factor matrices of shared column count R."""

    weights: np.ndarray            # (R,)
    factors: list[np.ndarray]      # each I_n x R

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        mats = [np.asarray(f, dtype=np.float64) for f in self.factors]
        if not mats:
            raise ValueError("CPModel needs at least one factor matrix")
        r = w.size
        for n, f in enumerate(mats, start=1):
            if f.ndim != 2 or f.shape[1] != r:
                raise ValueError(f"factor {n} must have {r} columns, "
                                 f"got shape {f.shape}")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "factors", mats)

    @property
    def rank(self) -> int:
        return self.weights.size

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(f.shape[0] for f in self.factors)

    @property
    def order(self) -> int:
        return len(self.factors)

    def storage(self) -> int:
        """Stored scalars: all factor entries plus the weight vector."""
        return sum(f.size for f in self.factors) + self.rank


def _unit_columns(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(``f`` with every nonzero column scaled to unit norm, the column
    norms).  Each norm is :func:`tenkit.dense._norm` of its column, so no
    square overflows or underflows at any scale, and only I x R arrays are
    allocated."""
    norms = np.array([_norm(col) for col in f.T])
    return f / np.where(norms > 0, norms, 1.0), norms


def normalize(m: CPModel) -> CPModel:
    """Unit-norm columns, scales collected in lambda >= 0, signs pushed into
    the last factor.  Idempotent, and exact under power-of-two scaling: a
    model with a factor scaled by 2^k gets 2^k times the weights."""
    factors = []
    lam = m.weights.copy()
    for f in m.factors:
        f, norms = _unit_columns(f)
        factors.append(f)
        lam *= norms
    neg = lam < 0
    if neg.any():
        lam = np.abs(lam)
        factors[-1][:, neg] *= -1.0
    return CPModel(lam, factors)


def _kr_chain(mats: Sequence[np.ndarray], rank: int) -> np.ndarray:
    # Khatri-Rao product of the matrices in the given order; the empty chain
    # is a row of ones, so order-1 models need no special case
    return reduce(khatri_rao, mats) if mats else np.ones((1, rank))


def _kr_others(factors: Sequence[np.ndarray], n: int, descending: bool) -> np.ndarray:
    # Little-endian mode-n unfolding pairs with the Khatri-Rao chain over the
    # other factors in *descending* mode order (the printed big-endian form
    # uses ascending order).
    order = range(len(factors) - 1, -1, -1) if descending else range(len(factors))
    return _kr_chain([factors[k] for k in order if k != n - 1],
                     factors[0].shape[1])


def _gemm_operands(m: CPModel) -> tuple[np.ndarray, np.ndarray]:
    # (KR of modes N..2) (B1 Lambda)^T in C order is the first-index-fastest
    # buffer: row index over modes 2..N, column index i_1 fastest
    return _kr_others(m.factors, 1, descending=True), (m.factors[0] * m.weights).T


def cp_reconstruct(m: CPModel) -> DenseTensor:
    """Dense tensor sum_r lambda_r b_r^(1) o ... o b_r^(N)."""
    a, b = _gemm_operands(m)
    return DenseTensor(m.dims, (a @ b).reshape(-1), copy=False)


def _mttkrp(arr: np.ndarray, factors: Sequence[np.ndarray], n: int) -> np.ndarray:
    """unfold(t, n) @ _kr_others(factors, n, descending=True) on the
    first-index-fastest array ``arr`` of ``t``, without forming the unfolding.

    The F-order view (I_<n, I_n, I_>n) is free.  The larger outer side is
    contracted with its Khatri-Rao chain first, by one GEMM on that view, so
    the intermediate left for the small einsum over the other side has only
    R x size / (larger side) entries.
    """
    dims = arr.shape
    rank = factors[0].shape[1]
    left, right = prod(dims[:n - 1]), prod(dims[n:])
    kr_left = _kr_chain(factors[:n - 1][::-1], rank)
    kr_right = _kr_chain(factors[n:][::-1], rank)
    if right >= left:
        y = arr.reshape(left * dims[n - 1], right, order="F") @ kr_right
        return np.einsum("lir,lr->ir", y.reshape(left, dims[n - 1], rank,
                                                 order="F"), kr_left)
    y = kr_left.T @ arr.reshape(left, dims[n - 1] * right, order="F")
    return np.einsum("rij,jr->ir", y.reshape(rank, dims[n - 1], right,
                                             order="F"), kr_right)


def cp_unfolded(m: CPModel, n: int, convention: str = "little-endian") -> np.ndarray:
    """Matricized CP model B^(n) Lambda (Khatri-Rao of the other factors)^T.

    ``little-endian`` matches :func:`tenkit.dense.unfold`; ``big-endian``
    matches the Kronecker-form identity as printed (columns combined with the
    last mode fastest).
    """
    if not 1 <= n <= m.order:
        raise ValueError(f"mode {n} invalid for an order-{m.order} model")
    if convention not in ("little-endian", "big-endian"):
        raise ValueError(f"unknown convention {convention!r}")
    kr = _kr_others(m.factors, n, descending=(convention == "little-endian"))
    return (m.factors[n - 1] * m.weights) @ kr.T


def cp_fit(t: DenseTensor, m: CPModel) -> float:
    """1 - relative Frobenius error of the model against ``t``, by the error
    rule on the GEMM that ends :func:`cp_reconstruct`, formed one block of
    rows at a time (:func:`tenkit.dense._product_error`); no tensor-sized
    reconstruction is held.  |t| is measured once, by the input rule of the
    fitters (:func:`tenkit.dense._fit_norm`), so a tensor of zero or
    non-finite norm raises ValueError."""
    if t.dims != m.dims:
        raise ValueError(f"model dims {m.dims} differ from tensor dims {t.dims}")
    return _cp_fit(t, m, _fit_norm(t, "cp_fit"))


def _cp_fit(t: DenseTensor, m: CPModel, norm_t: float) -> float:
    """:func:`cp_fit` with |t| given: ``cp_als`` measures |t| once and
    passes it to the fit of every sweep."""
    return 1.0 - _product_error(t, *_gemm_operands(m), norm_t)


@dataclass
class CPDiagnostics:
    """Per-run ALS record; ``fit_history`` covers the returned (best) start."""

    fit_history: list[float]
    converged: bool
    n_sweeps: int
    overfactored: bool
    start_fits: list[float] = field(default_factory=list)
    best_start: int = 0


def _pinv_gram(g: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(g)
    cutoff = _GRAM_CUTOFF * w.max() if w.size and w.max() > 0 else 0.0
    inv = np.where(w > cutoff, 1.0 / np.where(w > cutoff, w, 1.0), 0.0)
    return (v * inv) @ v.T


def _init_factors(dims, rank, rng, init, lefts):
    factors = []
    for n, d in enumerate(dims):
        if init == "svd":
            f = lefts[n][:, :rank]
            if f.shape[1] < rank:
                extra = rng.standard_normal((d, rank - f.shape[1]))
                f = np.hstack([f, extra])
        else:
            f = rng.standard_normal((d, rank))
        factors.append(_unit_columns(f)[0])
    return factors


def cp_als(t: DenseTensor, rank: int, *, max_iters: int = 200,
           tol: float = 1e-10, seed=None, n_starts: int = 1,
           init: str = "svd") -> tuple[CPModel, CPDiagnostics]:
    """Fit a rank-R CP model by alternating least squares.

    Each sweep updates B^(n) <- X_(n) (KR of others)(Hadamard of Grams)^+
    and scales each update's columns to unit norm (:func:`tenkit.dense._norm`)
    at once, so every Gram stays O(1) whatever the scale of ``t``; lambda
    holds the column norms of the last update.  ALS is invariant to column
    scaling of the other factors, so in exact arithmetic this is the
    textbook sweep with one normalization per sweep.  The fit
    1 - |X - Xhat|/|X| is non-decreasing per sweep up to roundoff; iteration
    stops when the fit change drops below ``tol`` or after ``max_iters``
    sweeps.  Start 0 uses ``init``: the leading left singular vectors of
    each unfolding (``"svd"``) or Gaussian factors (``"random"``); later
    starts are random.  With ``n_starts`` > 1 the best final fit wins.  The MTTKRP X_(n) (KR of
    others) runs on the tensor's buffer (:func:`_mttkrp`), and every sweep
    records the exact dense fit.

    Returns the fitted model and a :class:`CPDiagnostics`.
    """
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if max_iters < 1 or n_starts < 1:
        raise ValueError(f"max_iters and n_starts must be >= 1, got "
                         f"{max_iters} and {n_starts}")
    if init not in ("random", "svd"):
        raise ValueError(f"unknown init {init!r}")
    if not (np.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    norm_t = _fit_norm(t, "cp_als")
    order = t.order
    arr = t.to_array()
    # one factorization per unfolding gives the SVD start and the mode
    # ranks, counted with matrix_rank's default tolerance; each unfolding is
    # read in slabs of the tensor's buffer, never formed
    lefts, ranks_n = [], []
    for n in range(1, order + 1):
        mid = t.dims[n - 1]
        u, sig = _unfolding_factor(t, n)
        lefts.append(u)
        ranks_n.append(_numerical_rank(sig, max(mid, t.size // mid) * _EPS))
    overfactored = any(rank > r for r in ranks_n)

    base = np.random.default_rng(seed)
    seeds = base.integers(0, 2**63 - 1, size=n_starts)

    best = None
    start_fits = []
    for s in range(n_starts):
        rng = np.random.default_rng(seeds[s])
        factors = _init_factors(t.dims, rank, rng, init if s == 0 else "random",
                                lefts)
        grams = [f.T @ f for f in factors]
        history = []
        converged = False
        for sweep in range(max_iters):
            for n in range(1, order + 1):
                g = np.ones((rank, rank))
                for k in range(order):
                    if k != n - 1:
                        g *= grams[k]
                # unit columns right after each update keep every Gram O(1)
                # at any data scale; the scale sits in lambda
                f, lam = _unit_columns(_mttkrp(arr, factors, n) @ _pinv_gram(g))
                factors[n - 1] = f
                grams[n - 1] = f.T @ f
            model = CPModel(lam, factors)
            history.append(_cp_fit(t, model, norm_t))
            if sweep > 0 and abs(history[-1] - history[-2]) < tol:
                converged = True
                break
        start_fits.append(history[-1])
        if best is None or history[-1] > best[1]:
            best = (model, history[-1], history, converged, s)

    model, _, history, converged, best_start = best
    diag = CPDiagnostics(fit_history=history, converged=converged,
                         n_sweeps=len(history), overfactored=overfactored,
                         start_fits=start_fits, best_start=best_start)
    return model, diag
