"""Tensor trains (TT/MPS) and matrix tensor trains (TT/MPO): construction by
SVD sweeps, element and dense access, orthogonalization, rounding, ALS and
two-site MALS/DMRG sweeps, strong-Kronecker forms."""

from __future__ import annotations

from math import prod, sqrt
from typing import Callable, Sequence

import numpy as np

from .dense import DenseTensor, frobenius_norm
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
        """Gram-test the declared canonical state."""
        if self.ortho_center is None:
            return True
        for n in range(1, self.order + 1):
            c = self.cores[n - 1]
            if n < self.ortho_center:
                m = c.reshape(-1, c.shape[2])
                if np.max(np.abs(m.T @ m - np.eye(c.shape[2]))) > tol:
                    return False
            elif n > self.ortho_center:
                m = c.reshape(c.shape[0], -1)
                if np.max(np.abs(m @ m.T - np.eye(c.shape[0]))) > tol:
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


def _truncation_rank(s: np.ndarray, delta: float | None, cap: int | None) -> tuple[int, str]:
    """Minimal kept rank for an absolute tail budget ``delta`` plus a hard cap.
    Returns (rank, active bound)."""
    if s.size == 0:
        return 1, "none"
    if delta is None:
        r_eps = s.size
    elif delta == 0.0:
        r_eps = int(np.sum(s > 0.0))
    else:
        tail = np.cumsum(s[::-1] ** 2)[::-1]
        r_eps = s.size
        while r_eps > 1 and tail[r_eps - 1] <= delta ** 2:
            r_eps -= 1
    r_eps = max(r_eps, 1)
    which = "none"
    r = r_eps
    if delta is not None and r_eps < s.size:
        which = "eps"
    if cap is not None and cap < r:
        r, which = cap, "cap"
    return r, which


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
           max_ranks=None, sweep: str = "lr") -> TTModel:
    """TT-SVD: left-to-right truncated-SVD splits of the remainder matrix.

    ``eps`` in [0, 1) bounds the total relative error; the per-split budget is
    delta = eps |t|_F / sqrt(N-1).  ``max_ranks`` (scalar or per-bond list)
    caps ranks and takes precedence over ``eps`` where both bind; the active
    bound per split lands in ``meta['active_bounds']``.  The result is
    left-canonical through site N-1.  ``sweep='rl'`` runs the mirrored
    right-to-left sweep (right-canonical result).
    """
    if eps is None and max_ranks is None:
        raise ValueError("give eps and/or max_ranks")
    if eps is not None and not 0.0 <= eps < 1.0:
        raise ValueError("eps must lie in [0, 1)")
    if sweep not in ("lr", "rl"):
        raise ValueError(f"unknown sweep direction {sweep!r}")
    n_modes = t.order
    caps = _rank_caps(max_ranks, max(n_modes - 1, 0))
    delta = None
    if eps is not None:
        delta = eps * frobenius_norm(t) / sqrt(max(n_modes - 1, 1))
    arr = t.to_array()
    if sweep == "rl":
        arr, caps = arr.T, caps[::-1]
    dims = arr.shape
    cores = []
    bounds = []
    rank = 1
    rem = arr.reshape(1, -1)
    for n in range(n_modes - 1):
        rem = rem.reshape(rank * dims[n], -1)
        u, s, vt = np.linalg.svd(rem, full_matrices=False)
        r, which = _truncation_rank(s, delta, caps[n])
        bounds.append(which)
        cores.append(u[:, :r].reshape(rank, dims[n], r))
        rem = s[:r, None] * vt[:r]
        rank = r
    cores.append(rem.reshape(rank, dims[-1], 1))
    if sweep == "rl":
        return TTModel(_mirror(cores), ortho_center=1,
                       meta={"active_bounds": bounds[::-1]})
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
    """TT/MPO construction: permute modes to the interleaved pair order,
    run :func:`tt_svd` on the fused pairs, split each fused mode back."""
    if pairing is None:
        pairing = _default_pairing(t.order)
    pairing = _check_pairing(pairing, t.order)
    perm = [m - 1 for p in pairing for m in p]
    arr = t.to_array().transpose(perm)
    fused_dims = [arr.shape[2 * n] * arr.shape[2 * n + 1]
                  for n in range(len(pairing))]
    fused = DenseTensor.from_array(arr.reshape(fused_dims))
    mps = tt_svd(fused, eps=eps, max_ranks=max_ranks)
    cores = []
    for n, c in enumerate(mps.cores):
        i_n = t.dims[pairing[n][0] - 1]
        j_n = t.dims[pairing[n][1] - 1]
        cores.append(c.reshape(c.shape[0], i_n, j_n, c.shape[2]))
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


def tt_reconstruct(m: TTModel, cap: int = DENSE_CAP) -> DenseTensor:
    """Dense tensor via chained mode-(3, 1) contractions of the cores."""
    _check_cap(prod(m.dims), cap)
    arr = m.cores[0]
    for c in m.cores[1:]:
        arr = np.tensordot(arr, c, axes=([arr.ndim - 1], [0]))
    return DenseTensor.from_array(arr.reshape(m.dims))


def ttm_reconstruct(m: TTMatrixModel, cap: int = DENSE_CAP) -> DenseTensor:
    """Dense order-2N tensor in the original mode order."""
    dims = tuple(d for n in range(m.order)
                 for d in (m.row_dims[n], m.col_dims[n]))
    _check_cap(prod(dims), cap)
    arr = m.cores[0]
    for c in m.cores[1:]:
        arr = np.tensordot(arr, c, axes=([arr.ndim - 1], [0]))
    arr = arr.reshape(dims)  # interleaved pair order
    flat = [mode for p in m.pairing for mode in p]
    return DenseTensor.from_array(arr.transpose(np.argsort([f - 1 for f in flat])))


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
    """Mixed-canonical form: QR sweeps make sites < center left-orthogonal and
    sites > center right-orthogonal, absorbing the triangular factors toward
    the center.  Reconstruction is unchanged up to roundoff and the full norm
    concentrates in the center core."""
    if not 1 <= center <= m.order:
        raise ValueError(f"center {center} out of range 1..{m.order}")
    cores = [c.copy() for c in m.cores]
    for n in range(center - 1):
        c = cores[n]
        q, r = np.linalg.qr(c.reshape(-1, c.shape[2]))
        cores[n] = q.reshape(c.shape[0], c.shape[1], q.shape[1])
        cores[n + 1] = np.tensordot(r, cores[n + 1], axes=(1, 0))
    for n in range(m.order - 1, center - 1, -1):
        c = cores[n]
        q, r = np.linalg.qr(c.reshape(c.shape[0], -1).T)
        cores[n] = q.T.reshape(q.shape[1], c.shape[1], c.shape[2])
        cores[n - 1] = np.tensordot(cores[n - 1], r.T, axes=(2, 0))
    return TTModel(cores, ortho_center=center)


def tt_norm(m: TTModel) -> float:
    """Frobenius norm of the represented tensor (via orthogonalization)."""
    w = m if m.ortho_center is not None and m.verify_orthogonality() else \
        tt_orthogonalize(m, 1)
    return float(np.linalg.norm(w.cores[w.ortho_center - 1]))


def tt_round(m: TTModel, eps: float = 0.0, max_ranks=None) -> TTModel:
    """TT-rounding: right-orthogonalize, then truncate with an SVD sweep.

    Ranks never increase; the result satisfies |m - round(m)| <= eps |m| and
    rounding twice at the same eps is a no-op up to roundoff.  With eps = 0
    only exactly zero singular values are dropped.
    """
    if eps < 0.0:
        raise ValueError("eps must be >= 0")
    caps = _rank_caps(max_ranks, max(m.order - 1, 0))
    w = tt_orthogonalize(m, 1)
    cores = w.cores
    norm = float(np.linalg.norm(cores[0]))
    delta = eps * norm / sqrt(max(m.order - 1, 1))
    bounds = []
    for n in range(m.order - 1):
        c = cores[n]
        u, s, vt = np.linalg.svd(c.reshape(-1, c.shape[2]), full_matrices=False)
        r, which = _truncation_rank(s, delta, caps[n])
        bounds.append(which)
        cores[n] = u[:, :r].reshape(c.shape[0], c.shape[1], r)
        cores[n + 1] = np.tensordot(s[:r, None] * vt[:r], cores[n + 1],
                                    axes=(1, 0))
    return TTModel(cores, ortho_center=m.order, meta={"active_bounds": bounds})


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


def _right_interfaces(cores: Sequence[np.ndarray]) -> list[np.ndarray]:
    # envs[n] has shape (R_n, prod I_{n+1}..I_N); envs[N] is the 1x1 identity.
    n = len(cores)
    envs = [None] * (n + 1)
    envs[n] = np.ones((1, 1))
    for k in range(n - 1, -1, -1):
        c = cores[k]
        nxt = np.tensordot(c, envs[k + 1], axes=(2, 0))
        envs[k] = nxt.reshape(c.shape[0], -1)
    return envs


def _residual(t: DenseTensor, cores, norm_t: float, cap: int,
              center: np.ndarray) -> float:
    if prod(t.dims) <= cap:
        rec = tt_reconstruct(TTModel(list(cores)))
        return float(np.linalg.norm(t.data - rec.data) / norm_t)
    # over-cap fallback: with orthonormal interfaces the projection identity
    # |X - Xhat|^2 = |X|^2 - |G_center|^2 holds (floors near sqrt(eps_mach))
    return float(sqrt(max(norm_t ** 2 - float(np.sum(center * center)), 0.0))
                 / norm_t)


def _half_sweep(arr: np.ndarray, cores: list, caps: Sequence[int | None],
                width: int, split: Callable) -> None:
    """One left-to-right half-sweep of ``width``-site local steps, in place.

    ``cores`` must be right-orthogonal from site 2 on and ``arr`` is the
    tensor as a C-contiguous array with one axis per site, so every reshape
    below is a view.  Each window is set to the projection of ``arr`` onto
    the orthonormal interfaces and split by ``split(mat, cap)`` into
    (left, rest) with orthonormal left columns.  The next window replaces
    ``rest`` except after the last window, which keeps it.  The
    orthogonality center ends on the last site.
    """
    n_modes = len(cores)
    dims = arr.shape
    renvs = _right_interfaces(cores)
    left = np.ones((1, 1))
    for n in range(n_modes - width + 1):
        renv = renvs[n + width]
        mat = arr.reshape(left.shape[0], -1, renv.shape[1])
        w = np.einsum("pr,pxq,sq->rxs", left, mat, renv, optimize=True)
        last = n == n_modes - width
        if last and width == 1:
            cores[n] = w
            return
        a, rest = split(w.reshape(w.shape[0] * dims[n], -1), caps[n])
        cores[n] = a.reshape(w.shape[0], dims[n], a.shape[1])
        if last:
            cores[n + 1] = rest.reshape(a.shape[1], dims[n + 1], 1)
            return
        left = np.tensordot(left, cores[n], axes=(1, 0))
        left = left.reshape(-1, a.shape[1])


def _sweeps(t: DenseTensor, norm_t: float, cores: list, width: int,
            split: Callable, caps: list, max_sweeps: int, target: float,
            tol: float, cap: int) -> TTModel:
    """Alternating half-sweeps from a chain whose orthogonality center is
    site 1.  The right-to-left half is :func:`_half_sweep` on the mirrored
    chain.  The relative residual is recorded after every half-sweep; the
    sweeps stop once it is <= ``target`` or moved by less than ``tol`` over
    the last two half-sweeps."""
    views = (np.ascontiguousarray(t.to_array()), t.to_array().T)
    history = []
    flipped = False
    for _ in range(2 * max_sweeps):
        _half_sweep(views[flipped], cores, caps[::-1] if flipped else caps,
                    width, split)
        cores, flipped = _mirror(cores), not flipped
        history.append(_residual(t, _mirror(cores) if flipped else cores,
                                 norm_t, cap, cores[0]))
        if history[-1] <= target or (len(history) > 2 and
                                     abs(history[-3] - history[-1]) < tol):
            break
    return TTModel(_mirror(cores) if flipped else cores,
                   ortho_center=t.order if flipped else 1,
                   meta={"residual_history": history})


def tt_als(t: DenseTensor, ranks: Sequence[int] | int, *,
           max_sweeps: int = 20, tol: float = 1e-12, seed=None,
           cap: int = DENSE_CAP) -> TTModel:
    """Fixed-rank one-site ALS sweeps.

    With the complement held in mixed-canonical form, the optimal core at each
    site is the projection of ``t`` onto the orthonormal left/right
    interfaces, and a QR split moves the orthogonality center on.  The
    relative residual is recorded after every half-sweep in
    ``meta['residual_history']`` and is non-increasing up to roundoff.  The
    sweeps stop after the first half-sweep whose residual is 0 or differs by
    less than ``tol`` from the one two half-sweeps before, or after
    ``max_sweeps`` full sweeps.  ``ortho_center`` is where the last
    half-sweep left the center: site N after a left-to-right half, site 1
    after a right-to-left half or when ``max_sweeps`` is 0.
    """
    dims = t.dims
    n_modes = t.order
    if np.isscalar(ranks):
        ranks = [int(ranks)] * (n_modes - 1)
    ranks = [int(r) for r in ranks]
    if len(ranks) != n_modes - 1:
        raise ValueError(f"expected {n_modes - 1} ranks, got {len(ranks)}")
    if any(r < 1 for r in ranks):
        raise ValueError("ranks must be >= 1")
    _check_rank_chain(ranks, dims)
    norm_t = frobenius_norm(t)
    if norm_t == 0.0:
        raise ValueError("cannot fit an all-zero tensor")
    rng = np.random.default_rng(seed)
    chain = [1] + ranks + [1]
    cores = [rng.standard_normal((chain[n], dims[n], chain[n + 1]))
             for n in range(n_modes)]
    cores = tt_orthogonalize(TTModel(cores), 1).cores
    return _sweeps(t, norm_t, cores, 1, lambda mat, _: np.linalg.qr(mat),
                   [None] * (n_modes - 1), max_sweeps, 0.0, tol, cap)


def _svd_splitter(mat: np.ndarray, delta: float,
                  cap: int | None) -> tuple[np.ndarray, np.ndarray]:
    u, s, vt = np.linalg.svd(mat, full_matrices=False)
    r, _ = _truncation_rank(s, delta, cap)
    return u[:, :r], s[:r, None] * vt[:r]


def tt_mals(t: DenseTensor, eps: float, *, max_sweeps: int = 10,
            seed=None, max_ranks=None, cap: int = DENSE_CAP,
            splitter: Callable | None = None) -> TTModel:
    """Two-site MALS/DMRG sweeps with rank adaptation.

    Neighboring cores are merged into a supercore, set to the projection of
    ``t`` onto the orthonormal interfaces, and split back by a truncated SVD
    at the local tolerance eps |t|_F / sqrt(N-1); bond ranks adapt both ways.
    Starts from a random rank-1 chain.  ``splitter(mat, delta, cap)`` may
    replace the SVD split (e.g. a nonnegative factorization); it must return
    (left, right) with orthonormal left columns.  The relative residual is
    recorded after every half-sweep in ``meta['residual_history']``.  The
    sweeps stop after the first half-sweep whose residual is <= ``eps`` or
    differs by less than 1e-14 from the one two half-sweeps before, or after
    ``max_sweeps`` full sweeps.  ``ortho_center`` is where the last
    half-sweep left the center: site N after a left-to-right half, site 1
    after a right-to-left half or when ``max_sweeps`` is 0.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    n_modes = t.order
    if n_modes < 2:
        raise ValueError("MALS needs an order >= 2 tensor")
    norm_t = frobenius_norm(t)
    if norm_t == 0.0:
        raise ValueError("cannot fit an all-zero tensor")
    caps = _rank_caps(max_ranks, n_modes - 1)
    split = splitter or _svd_splitter
    delta = eps * norm_t / sqrt(n_modes - 1)
    rng = np.random.default_rng(seed)
    cores = [rng.standard_normal((1, d, 1)) for d in t.dims]
    cores = tt_orthogonalize(TTModel(cores), 1).cores
    return _sweeps(t, norm_t, cores, 2,
                   lambda mat, bond_cap: split(mat, delta, bond_cap),
                   caps, max_sweeps, eps, 1e-14, cap)


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
