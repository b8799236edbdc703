"""CUR skeleton decomposition, greedy fiber selection, and FSTD."""

import numpy as np
import pytest

from helpers import random_tucker_tensor
from tenkit.cur import cur_decompose, fstd, select_fibers_maxmod
from tenkit.dense import DenseTensor, frobenius_norm


def low_rank_matrix(shape, rank, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((shape[0], rank)) @ \
        rng.standard_normal((rank, shape[1]))


def test_cur_exact_for_rank2():
    x = low_rank_matrix((50, 40), 2, seed=0)
    m = cur_decompose(x, row_idx=[3, 17], col_idx=[5, 30])
    err = np.linalg.norm(m.reconstruct() - x)
    assert err <= 1e-10 * np.linalg.norm(x)


def test_cur_full_selection_is_exact():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((6, 6))
    m = cur_decompose(x, row_idx=list(range(1, 7)), col_idx=list(range(1, 7)))
    assert np.allclose(m.reconstruct(), x, rtol=1e-10, atol=1e-10)


def test_cur_least_squares_beats_pinv_on_noise():
    rng = np.random.default_rng(2)
    x = low_rank_matrix((30, 25), 3, seed=3) + 0.05 * rng.standard_normal((30, 25))
    rows, cols = [1, 8, 20], [2, 10, 24]
    pw = cur_decompose(x, rows, cols, core_mode="pseudo_inverse_w")
    ls = cur_decompose(x, rows, cols, core_mode="least_squares")
    err_pw = np.linalg.norm(pw.reconstruct() - x)
    err_ls = np.linalg.norm(ls.reconstruct() - x)
    assert err_ls <= err_pw + 1e-12


def test_cur_singular_w_flagged_not_raised():
    x = np.zeros((5, 5))
    x[0, 0] = 1.0
    m = cur_decompose(x, row_idx=[2, 3], col_idx=[2, 3])
    assert m.diagnostics["w_singular"]


def test_cur_index_validation():
    x = np.eye(4)
    with pytest.raises(ValueError, match="duplicate"):
        cur_decompose(x, [1, 1], [1, 2])
    with pytest.raises(IndexError):
        cur_decompose(x, [1, 5], [1, 2])
    with pytest.raises(ValueError, match="core_mode"):
        cur_decompose(x, [1], [1], core_mode="nope")


def test_select_rank1_first_pivot_is_global_max():
    rng = np.random.default_rng(4)
    vecs = [rng.standard_normal(d) for d in (6, 7, 5)]
    arr = np.einsum("i,j,k->ijk", *vecs)
    t = DenseTensor.from_array(arr)
    sel = select_fibers_maxmod(t, (1, 1, 1))
    flat = np.unravel_index(np.argmax(np.abs(arr)), arr.shape)
    assert sel.pivots[0] == tuple(i + 1 for i in flat)
    assert not sel.early_stop


def test_select_rank1_deflation_stops_early_when_quota_exceeds_rank():
    rng = np.random.default_rng(5)
    vecs = [rng.standard_normal(d) for d in (5, 5, 5)]
    t = DenseTensor.from_array(np.einsum("i,j,k->ijk", *vecs))
    sel = select_fibers_maxmod(t, (2, 2, 2))
    assert sel.early_stop
    assert all(len(ix) == 1 for ix in sel.indices)


def test_select_exact_rank_gives_full_rank_w():
    t, _, _ = random_tucker_tensor((15, 15, 15), (2, 2, 2), seed=6)
    sel = select_fibers_maxmod(t, (2, 2, 2))
    idx0 = [np.asarray(ix) - 1 for ix in sel.indices]
    w = t.to_array()[np.ix_(*idx0)]
    for n in range(3):
        mat = np.moveaxis(w, n, 0).reshape(w.shape[n], -1)
        s = np.linalg.svd(mat, compute_uv=False)
        assert s[-1] > 1e-10 * s[0]


def test_select_zero_tensor_early_stop():
    t = DenseTensor((3, 3, 3), np.zeros(27))
    sel = select_fibers_maxmod(t, (2, 2, 2))
    assert sel.early_stop
    assert all(len(ix) == 0 for ix in sel.indices)


def test_select_deterministic():
    t, _, _ = random_tucker_tensor((12, 12, 12), (3, 3, 3), seed=7)
    a = select_fibers_maxmod(t, (3, 3, 3))
    b = select_fibers_maxmod(t, (3, 3, 3))
    assert a.indices == b.indices
    assert a.pivots == b.pivots


def test_fstd_exact_on_low_rank():
    t, _, _ = random_tucker_tensor((20, 30, 20), (2, 3, 2), seed=8)
    m = fstd(t, counts=(2, 3, 2))
    err = frobenius_norm(DenseTensor(t.dims, m.reconstruct().data - t.data))
    assert err <= 1e-8 * frobenius_norm(t)


def test_fstd_matrix_case_matches_cur():
    x = low_rank_matrix((12, 10), 2, seed=9)
    t = DenseTensor.from_array(x)
    m = fstd(t, indices=[[2, 7], [3, 9]])
    cur = cur_decompose(x, row_idx=[2, 7], col_idx=[3, 9],
                        core_mode="pseudo_inverse_w")
    assert np.allclose(m.reconstruct().to_array(), cur.reconstruct(),
                       rtol=1e-10, atol=1e-12)


def test_fstd_all_fibers_exact_any_tensor():
    rng = np.random.default_rng(10)
    t = DenseTensor.from_array(rng.standard_normal((4, 5, 3)))
    m = fstd(t, indices=[list(range(1, d + 1)) for d in t.dims])
    err = np.linalg.norm(m.reconstruct().data - t.data)
    assert err <= 1e-10 * frobenius_norm(t)


def test_fstd_tucker_and_cur_core_forms_agree():
    from tenkit.ops import multilinear_product
    t, _, _ = random_tucker_tensor((10, 12, 10), (2, 2, 2), seed=11)
    m = fstd(t, counts=(2, 2, 2))
    # C-U-R form: [[cur_core; C^(1), C^(2), C^(3)]]
    rebuilt = multilinear_product(m.cur_core(), m.fiber_factors)
    assert np.allclose(rebuilt.data, m.reconstruct().data,
                       rtol=1e-9, atol=1e-10)


def test_fstd_fiber_factor_shapes():
    t, _, _ = random_tucker_tensor((9, 8, 7), (2, 2, 2), seed=12)
    m = fstd(t, counts=(2, 2, 2))
    assert m.w.dims == (2, 2, 2)
    assert [f.shape for f in m.fiber_factors] == [(9, 4), (8, 4), (7, 4)]
    # columns of C^(n) are actual fibers of the tensor
    arr = t.to_array()
    col = m.fiber_factors[0][:, 0]
    i2, i3 = m.indices[1][0] - 1, m.indices[2][0] - 1
    assert np.array_equal(col, arr[:, i2, i3])


def test_fstd_validation():
    t = DenseTensor((4,), np.ones(4))
    with pytest.raises(ValueError):
        fstd(t, counts=(2,))
    t2 = DenseTensor((4, 4), np.ones(16))
    with pytest.raises(ValueError):
        fstd(t2)
    with pytest.raises(ValueError):
        fstd(t2, counts=(2, 2), indices=[[1], [1]])
    with pytest.raises(ValueError, match="index lists"):
        fstd(t2, indices=[[1], [1], [1]])
    zero = DenseTensor((3, 3, 3), np.zeros(27))
    for kwargs in ({"counts": (2, 2, 2)}, {"indices": [[1], [2], [3]]}):
        with pytest.raises(ValueError, match="cannot fit an all-zero tensor"):
            fstd(zero, **kwargs)


@pytest.mark.parametrize("k", [-600, 600])
def test_fstd_selection_is_scale_invariant(k):
    # a cross term keeps the pivot's fibers divided by the pivot value, never
    # a power of it: 1 / e^2 overflows at 2^-600 and e^2 at 2^+600
    t = DenseTensor.from_array(
        np.random.default_rng(31).standard_normal((6, 7, 8)))
    counts = (3, 2, 4)
    base = fstd(t, counts=counts)
    scaled = fstd(DenseTensor(t.dims, np.ldexp(t.data, k)), counts=counts)
    assert not base.early_stop and not scaled.early_stop
    assert scaled.indices == base.indices
