"""Scale equivariance: on 2^k t every decomposition keeps the ranks (FSTD: the
indices) and the relative error it has on t, for k far outside the range
where squares of the entries are representable.

A power of two scales the input exactly, but LAPACK rescales internally, so
fits agree within roundoff rather than bitwise.  Errors are measured after
scaling the residual back by 2^-k, which is exact, so the check does not
rest on the library's own norm.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from helpers import noisy_cp_cube, random_tt, random_tucker_tensor
from tenkit.cpd import cp_als, cp_reconstruct
from tenkit.cur import fstd
from tenkit.dense import DenseTensor
from tenkit.quantize import qtt_compress, qtt_decompress
from tenkit.tucker import check_all_orthogonal, hosvd, tucker_reconstruct
from tenkit.ttrain import (TTModel, tt_als, tt_mals, tt_reconstruct, tt_round,
                           tt_svd)

_property = settings(max_examples=12, deadline=None, derandomize=True,
                     database=None)
_k = st.integers(-900, 900)
_seed = st.integers(0, 2 ** 32 - 1)


def _scaled(t: DenseTensor, k: int) -> DenseTensor:
    return DenseTensor(t.dims, np.ldexp(t.data, k))


def _gaussian(dims, seed) -> DenseTensor:
    return DenseTensor.from_array(np.random.default_rng(seed).standard_normal(dims))


def _rel_error(t: DenseTensor, rec: DenseTensor, k: int) -> float:
    return float(np.linalg.norm(np.ldexp(t.data - rec.data, -k))
                 / np.linalg.norm(np.ldexp(t.data, -k)))


def _same_fit(fit, t, seed, k, rtol=1e-9, atol=1e-13):
    """Run ``fit(x, j) -> (ranks, reconstruction)`` on x = t, j = 0 and on
    x = 2^k t, j = k; the ranks must match and the relative errors agree
    within roundoff."""
    ranks, rec = fit(t, 0)
    ranks_k, rec_k = fit(_scaled(t, k), k)
    assert ranks_k == ranks, (seed, k)
    err, err_k = _rel_error(t, rec, 0), _rel_error(_scaled(t, k), rec_k, k)
    assert np.isclose(err_k, err, rtol=rtol, atol=atol), (seed, k, err, err_k)


@_property
@given(k=_k, seed=_seed)
@example(k=-900, seed=0)
@example(k=900, seed=0)
def test_tt_svd_eps_is_scale_invariant(k, seed):
    def fit(x, _):
        m = tt_svd(x, eps=0.3)
        return m.ranks, tt_reconstruct(m)
    _same_fit(fit, _gaussian((4, 5, 3, 4), seed), seed, k)


@_property
@given(k=_k, seed=_seed)
@example(k=-900, seed=0)
@example(k=900, seed=0)
def test_hosvd_eps_is_scale_invariant(k, seed):
    def fit(x, _):
        m = hosvd(x, eps=0.5)
        return m.ranks, tucker_reconstruct(m)
    _same_fit(fit, _gaussian((6, 5, 7), seed), seed, k)


@_property
@given(k=_k, seed=_seed)
@example(k=-900, seed=0)
@example(k=900, seed=0)
def test_tt_round_is_scale_invariant(k, seed):
    m = random_tt((4, 5, 4, 3), (4, 6, 3), seed % 2 ** 16)
    t = tt_reconstruct(m)

    def fit(_, j):
        cores = [np.ldexp(m.cores[0], j)] + m.cores[1:]
        rounded = tt_round(TTModel(cores), eps=0.2)
        return rounded.ranks, tt_reconstruct(rounded)
    _same_fit(fit, t, seed, k)


@_property
@given(k=_k, seed=_seed)
@example(k=-900, seed=0)
@example(k=900, seed=0)
def test_tt_als_is_scale_invariant(k, seed):
    t = tt_reconstruct(random_tt((4, 4, 4, 4), (2, 3, 2), seed % 2 ** 16))
    noisy = DenseTensor(t.dims, t.data + 1e-3 * _gaussian(t.dims, seed).data)

    def fit(x, _):
        m = tt_als(x, (2, 3, 2), max_sweeps=4, seed=1)
        return m.ranks, tt_reconstruct(m)
    _same_fit(fit, noisy, seed, k, rtol=1e-8)


@_property
@given(k=_k, seed=_seed)
@example(k=-900, seed=0)
@example(k=900, seed=0)
def test_tt_mals_is_scale_invariant(k, seed):
    def fit(x, _):
        m = tt_mals(x, 0.3, max_sweeps=3, seed=1)
        return m.ranks, tt_reconstruct(m)
    _same_fit(fit, _gaussian((3, 4, 4, 3), seed), seed, k, rtol=1e-8)


@_property
@given(k=_k, seed=_seed)
@example(k=-900, seed=0)
@example(k=900, seed=0)
def test_qtt_compress_is_scale_invariant(k, seed):
    def fit(x, _):
        m, scheme = qtt_compress(x, q=2, eps=0.3)
        return m.ranks, qtt_decompress(m, scheme)
    _same_fit(fit, _gaussian((8, 16), seed), seed, k)


@_property
@given(k=_k, seed=_seed)
@example(k=-900, seed=0)
@example(k=900, seed=0)
def test_cp_als_is_scale_invariant(k, seed):
    t, _ = noisy_cp_cube(5, seed % 2 ** 16, rank=2, noise=1e-3)

    def fit(x, _):
        m, _ = cp_als(x, 2, tol=1e-12, seed=1)
        return m.rank, cp_reconstruct(m)
    _same_fit(fit, t, seed, k, rtol=1e-7)


@_property
@given(k=_k, seed=_seed)
@example(k=-900, seed=0)
@example(k=900, seed=0)
def test_fstd_indices_are_scale_invariant(k, seed):
    # a Gaussian input fills the quotas by cross deflation; an exact
    # multilinear-rank-2 input stops early and completes the selection
    for t, counts in ((_gaussian((5, 6, 4), seed), (3, 2, 3)),
                      (random_tucker_tensor((6, 5, 6), (2, 2, 2),
                                            seed % 2 ** 16)[0], (3, 3, 3))):
        def fit(x, _):
            m = fstd(x, counts=counts)
            return m.indices, m.reconstruct()
        _same_fit(fit, t, seed, k, rtol=1e-8, atol=1e-12)


@_property
@given(k=_k, seed=_seed)
@example(k=-900, seed=0)
@example(k=900, seed=0)
def test_check_all_orthogonal_report_is_scale_invariant(k, seed):
    # the core is scaled exactly, so the report scales exactly: slice norms
    # by 2^k and inner products by 2^2k, with the same verdicts
    for core in (hosvd(_gaussian((5, 4, 6), seed)).core,
                 _gaussian((4, 4, 4), seed)):
        base = check_all_orthogonal(core)
        report = check_all_orthogonal(_scaled(core, k))
        assert report.all_orthogonal == base.all_orthogonal
        assert report.pseudo_diagonal == base.pseudo_diagonal
        for norms, base_norms in zip(report.slice_norms, base.slice_norms):
            assert np.array_equal(norms, np.ldexp(base_norms, k))
        with np.errstate(over="ignore"):
            assert report.max_offdiag == tuple(
                float(np.ldexp(v, 2 * k)) for v in base.max_offdiag)
