"""Tucker/HOSVD: exactness, truncation, all-orthogonality, factors from
column slices, block-wise cores, and the subtensor reconstruction pipeline."""

import numpy as np
import pytest

from helpers import random_tucker_tensor
from tenkit.cpd import CPModel, cp_reconstruct
from tenkit.dense import (BIG_ENDIAN, DenseTensor, frobenius_norm, unfold,
                          vectorize)
from tenkit.tucker import (TuckerModel, assemble_blocks, check_all_orthogonal,
                           core_blockwise, factor_gram_sliced, hosvd,
                           hosvd_from_subtensors, partition_matrix_blocks,
                           partition_tensor, right_factor_block,
                           tucker_from_factors, tucker_reconstruct,
                           unfolding_column_slices)


def rt(dims, seed):
    return DenseTensor.from_array(np.random.default_rng(seed).standard_normal(dims))


def test_reconstruct_identity_factors_gives_core():
    core = rt((2, 3, 2), 0)
    m = TuckerModel(core, [None, None, None])
    assert m.identity_modes == (1, 2, 3)
    assert np.array_equal(tucker_reconstruct(m).data, core.data)


def test_reconstruct_diagonal_core_equals_cp():
    rng = np.random.default_rng(1)
    lam = np.array([2.0, -1.5])
    factors = [rng.standard_normal((4, 2)) for _ in range(3)]
    core = np.zeros((2, 2, 2))
    core[0, 0, 0], core[1, 1, 1] = lam
    tucker = TuckerModel(DenseTensor.from_array(core), factors)
    cp = CPModel(lam, factors)
    assert np.allclose(tucker_reconstruct(tucker).data,
                       cp_reconstruct(cp).data, rtol=1e-13, atol=1e-13)


def test_tucker_kron_vec_identity():
    # vec(X) = [B1 kron B2 kron B3] vec(G) in big-endian form
    t, core, factors = random_tucker_tensor((4, 3, 5), (2, 2, 3), seed=2)
    kron = np.kron(np.kron(factors[0], factors[1]), factors[2])
    assert np.allclose(vectorize(t, BIG_ENDIAN),
                       kron @ vectorize(core, BIG_ENDIAN),
                       rtol=1e-12, atol=1e-12)


def test_hosvd_exact_recovery():
    t, _, _ = random_tucker_tensor((10, 10, 10), (2, 2, 2), seed=3)
    m = hosvd(t, ranks=(2, 2, 2))
    assert m.core.dims == (2, 2, 2)
    err = np.linalg.norm(tucker_reconstruct(m).data - t.data)
    assert err <= 1e-12 * frobenius_norm(t)


def test_hosvd_rank_111_single_core_entry():
    t, _, _ = random_tucker_tensor((6, 5, 4), (1, 1, 1), seed=4)
    m = hosvd(t, ranks=(1, 1, 1))
    assert np.isclose(abs(m.core.data[0]), frobenius_norm(t), rtol=1e-12)


def test_hosvd_core_all_orthogonal():
    t = rt((6, 5, 4), 5)
    m = hosvd(t)
    report = check_all_orthogonal(m.core)
    assert report.all_orthogonal
    assert report.pseudo_diagonal


def test_hosvd_norm_preserved_full_rank():
    t = rt((5, 4, 3), 6)
    m = hosvd(t)
    assert np.isclose(frobenius_norm(m.core), frobenius_norm(t), rtol=1e-12)


def test_hosvd_eps_truncation_error_bound():
    t = rt((8, 8, 8), 7)
    for eps in (0.05, 0.3):
        m = hosvd(t, eps=eps)
        err = np.linalg.norm(tucker_reconstruct(m).data - t.data)
        assert err <= eps * frobenius_norm(t)
    with pytest.raises(ValueError):
        hosvd(t, eps=1.5)
    with pytest.raises(ValueError):
        hosvd(t, ranks=(9, 2, 2))
    with pytest.raises(ValueError):
        hosvd(t, ranks=(2, 2, 2), eps=0.1)


def test_hosvd_truncated_error_matches_discarded_sigmas_single_mode():
    # per-mode truncation: error^2 equals the discarded squared singular
    # values of that mode exactly
    t = rt((8, 8, 8), 8)
    norm = frobenius_norm(t)
    for n in range(1, 4):
        sigmas = np.linalg.svd(unfold(t, n), compute_uv=False)
        keep = 5
        ranks = [8, 8, 8]
        ranks[n - 1] = keep
        m = hosvd(t, ranks=ranks)
        err = np.linalg.norm(tucker_reconstruct(m).data - t.data)
        want = np.sqrt(np.sum(sigmas[keep:] ** 2))
        assert abs(err - want) <= 1e-10 * norm


def test_hosvd_truncated_error_bounded_by_discarded_sigmas_multi_mode():
    t = rt((8, 8, 8), 9)
    ranks = (4, 5, 6)
    m = hosvd(t, ranks=ranks)
    err = np.linalg.norm(tucker_reconstruct(m).data - t.data)
    bound_sq = 0.0
    for n in range(1, 4):
        sigmas = np.linalg.svd(unfold(t, n), compute_uv=False)
        bound_sq += np.sum(sigmas[ranks[n - 1]:] ** 2)
    assert err <= np.sqrt(bound_sq) * (1 + 1e-12)


def test_hosvd_identity_modes_tucker_kn():
    t = rt((4, 5, 6), 10)
    m = hosvd(t, identity_modes=(2,))
    assert m.identity_modes == (2,)
    assert m.core.dims[1] == 5
    err = np.linalg.norm(tucker_reconstruct(m).data - t.data)
    assert err <= 1e-12 * frobenius_norm(t)


def test_tucker_from_factors_pinv_core():
    t, _, factors = random_tucker_tensor((6, 6, 6), (2, 3, 2), seed=11)
    skewed = [f @ np.triu(np.ones((f.shape[1], f.shape[1]))) for f in factors]
    m = tucker_from_factors(t, skewed)
    err = np.linalg.norm(tucker_reconstruct(m).data - t.data)
    assert err <= 1e-10 * frobenius_norm(t)


def test_check_all_orthogonal_cases():
    assert check_all_orthogonal(DenseTensor((1, 1, 1), [3.0])).all_orthogonal
    random_core = rt((4, 4, 4), 12)
    report = check_all_orthogonal(random_core)
    assert not report.all_orthogonal


def test_factor_gram_sliced_single_slice_is_direct():
    x = np.random.default_rng(13).standard_normal((6, 40))
    direct_u, direct_s, _ = np.linalg.svd(x, full_matrices=False)
    res = factor_gram_sliced([x])
    assert np.allclose(res.sigmas[:6], direct_s, rtol=1e-8, atol=1e-10)
    for k in range(6):
        dot = abs(np.dot(res.u[:, k], direct_u[:, k]))
        assert dot >= 1 - 1e-8


def test_factor_gram_sliced_q10_matches_direct_svd():
    rng = np.random.default_rng(14)
    x = rng.standard_normal((8, 1000))
    direct_u, direct_s, _ = np.linalg.svd(x, full_matrices=False)
    slices = np.array_split(x, 10, axis=1)
    res = factor_gram_sliced(slices)
    assert np.allclose(res.sigmas[:8], direct_s, rtol=1e-8)
    assert np.allclose(res.sigmas[:8] ** 2, direct_s ** 2,
                       rtol=1e-8)  # eigenvalues are squared singular values
    for k in range(8):
        assert abs(np.dot(res.u[:, k], direct_u[:, k])) >= 1 - 1e-8


def test_factor_gram_sliced_right_blocks():
    rng = np.random.default_rng(15)
    x = rng.standard_normal((5, 60))
    slices = np.array_split(x, 4, axis=1)
    res = factor_gram_sliced(slices)
    v = np.vstack([right_factor_block(s, res) for s in slices])
    rebuilt = res.u @ np.diag(res.sigmas) @ v.T
    assert np.allclose(rebuilt, x, rtol=1e-10, atol=1e-10)


def test_factor_gram_sliced_zero_gram():
    res = factor_gram_sliced([np.zeros((3, 10))])
    assert res.rank == 0
    assert np.array_equal(res.sigmas, np.zeros(3))


def test_factor_gram_sliced_graded_spectrum():
    # sigma from 1 to 1e-15, each at least 10x away from the 1e-12 rank
    # cutoff; a Gram would lose everything below about sqrt(eps) = 1.5e-8
    rng = np.random.default_rng(151)
    sig = np.array([1.0, 1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-11, 1e-13, 1e-14,
                    1e-15])
    left = np.linalg.qr(rng.standard_normal((10, 10)))[0]
    right = np.linalg.qr(rng.standard_normal((3000, 10)))[0]
    x = (left * sig) @ right.T
    res = factor_gram_sliced(np.array_split(x, 7, axis=1))
    assert res.sigmas.shape == (10,)
    assert np.all(np.abs(res.sigmas - sig) <= 1e-13 * sig[0])
    assert res.rank == int(np.sum(sig > 1e-12)) == 7
    # leading subspaces agree where a gap of at least 1e-4 separates them
    for j in (1, 2, 3):
        p, p0 = res.u[:, :j] @ res.u[:, :j].T, left[:, :j] @ left[:, :j].T
        assert np.allclose(p, p0, rtol=0, atol=1e-8)


def test_factor_gram_sliced_fewer_columns_than_rows():
    # u and sigmas have min(rows, columns) entries
    x = np.random.default_rng(152).standard_normal((6, 4))
    res = factor_gram_sliced([x[:, :1], x[:, 1:3], x[:, 3:]])
    direct_u, direct_s, _ = np.linalg.svd(x, full_matrices=False)
    assert res.u.shape == (6, 4) and res.sigmas.shape == (4,)
    assert res.rank == 4
    assert np.allclose(res.sigmas, direct_s, rtol=0, atol=1e-14)
    assert np.allclose(np.abs(res.u.T @ direct_u), np.eye(4), atol=1e-12)


def test_factor_gram_sliced_calls(monkeypatch):
    # the slices go through the TSQR fold, then one SVD of the final
    # triangle, and no Gram eigendecomposition
    seen = []

    def spy(name, fn):
        def wrapped(a, *args, **kwargs):
            seen.append((name, a.shape))
            return fn(a, *args, **kwargs)
        return wrapped

    for name in ("qr", "svd", "eigh"):
        monkeypatch.setattr(np.linalg, name, spy(name, getattr(np.linalg, name)))
    for cols, calls in [
            # slices below 2b = 43690 rows of the 6-column fold are kept
            # whole and factored by the last QR
            ((34, 33, 33), [("qr", (100, 6))]),
            # kept rows that reached 2b are refactored before the next
            # slice is kept
            ((30000, 30000, 30000), [("qr", (60000, 6)),
                                     ("qr", (6 + 30000, 6))])]:
        seen.clear()
        x = np.random.default_rng(153).standard_normal((6, sum(cols)))
        factor_gram_sliced(np.split(x, np.cumsum(cols)[:-1], axis=1))
        assert seen == calls + [("svd", (6, 6))]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_factor_gram_sliced_rejects_non_finite_slice(bad):
    slices = [np.ones((3, 4)), np.ones((3, 4)), np.ones((3, 4))]
    slices[1][2, 1] = bad
    with pytest.raises(ValueError, match="slice 1 holds non-finite"):
        factor_gram_sliced(slices)


def test_factor_gram_sliced_rejects_bad_providers():
    with pytest.raises(ValueError, match="no slices"):
        factor_gram_sliced([])
    with pytest.raises(ValueError, match="row count 4 does not match 3"):
        factor_gram_sliced([np.ones((3, 4)), np.ones((4, 4))])


def test_factor_gram_sliced_from_one_reused_buffer():
    # an out-of-core provider that reads each slice into one buffer: the
    # fold must not read a slice after the next one is pulled
    x = np.random.default_rng(31).standard_normal((6, 3000))
    buf = np.empty((6, 100))

    def reused():
        for q in range(30):
            buf[:] = x[:, 100 * q:100 * (q + 1)]
            yield buf
    got = factor_gram_sliced(reused())
    want = factor_gram_sliced(np.split(x, 30, axis=1))
    assert got.u.tobytes() == want.u.tobytes()
    assert got.sigmas.tobytes() == want.sigmas.tobytes()
    s0 = np.linalg.svd(x, compute_uv=False)
    assert np.all(np.abs(got.sigmas - s0) <= 1e-13 * s0[0])


def test_factor_gram_sliced_rejects_a_slice_without_rows():
    with pytest.raises(ValueError, match="slice 0 has no rows"):
        factor_gram_sliced([np.ones((0, 5))])
    with pytest.raises(ValueError, match="slice 1 has no rows"):
        factor_gram_sliced([np.ones((2, 5)), np.ones((0, 5))])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_unfolding_column_slices_are_views_within_a_slab(n):
    # slab s of the F-order (I_<n, I_n, I_>n) view holds columns
    # s I_<n .. (s + 1) I_<n - 1 of the unfolding; a block inside one slab is
    # a view of the tensor's buffer
    t = rt((3, 4, 5, 2), 17)
    whole = unfold(t, n)
    lo = int(np.prod(t.dims[:n - 1]))
    for q in (1, 2, 5, 7, whole.shape[1]):
        parts = list(unfolding_column_slices(t, n, q))
        assert np.array_equal(np.hstack(parts), whole)
        cols = [c for c in np.array_split(np.arange(whole.shape[1]), q) if c.size]
        assert [p.shape[1] for p in parts] == [c.size for c in cols]
        for part, c in zip(parts, cols):
            if c[0] // lo == c[-1] // lo:
                assert np.shares_memory(part, t.data), (q, c[0], c[-1])


def test_unfolding_column_slices_provider():
    t = rt((4, 6, 5), 16)
    whole = unfold(t, 2)
    parts = list(unfolding_column_slices(t, 2, 7))
    assert np.array_equal(np.hstack(parts), whole)
    res = factor_gram_sliced(unfolding_column_slices(t, 2, 7))
    direct = np.linalg.svd(whole, compute_uv=False)
    assert np.allclose(res.sigmas[:6], direct, rtol=1e-8)
    # more slices than columns: the empty ones are skipped
    assert np.array_equal(np.hstack(list(unfolding_column_slices(t, 2, 50))),
                          whole)
    with pytest.raises(ValueError, match="slice count"):
        unfolding_column_slices(t, 2, 0)


def test_partition_assemble_roundtrip():
    t = rt((6, 5, 4), 17)
    grid = partition_tensor(t, (2, 3, 2))
    assert grid.shape == (2, 3, 2)
    back = assemble_blocks(grid)
    assert np.array_equal(back.data, t.data)


def test_core_blockwise_single_block_is_plain_product():
    from tenkit.ops import mode_n_matrix_product
    t = rt((4, 4, 4), 18)
    ut = np.random.default_rng(19).standard_normal((3, 4))
    grid = partition_tensor(t, (1, 1, 1))
    out = core_blockwise(grid, partition_matrix_blocks(ut, 1, 1), 2)
    want = mode_n_matrix_product(t, ut, 2)
    assert np.array_equal(assemble_blocks(out).data, want.data)


def test_core_blockwise_matches_dense_and_order_independent():
    from tenkit.ops import multilinear_product
    t = rt((8, 8, 8), 20)
    rng = np.random.default_rng(21)
    uts = [rng.standard_normal((3, 8)) for _ in range(3)]
    dense = multilinear_product(t, uts)
    grid = partition_tensor(t, (2, 2, 2))
    grids = {}
    for order in ([0, 1], [1, 0]):
        g = grid
        for n in range(1, 4):
            ut_blocks = partition_matrix_blocks(uts[n - 1], 2, 1)
            g = core_blockwise(g, ut_blocks, n, k_order=order)
        grids[tuple(order)] = assemble_blocks(g)
    for res in grids.values():
        err = np.linalg.norm(res.data - dense.data)
        assert err <= 1e-12 * frobenius_norm(dense)
    assert np.allclose(grids[(0, 1)].data, grids[(1, 0)].data,
                       rtol=1e-12, atol=1e-14)


def test_core_blockwise_reproduces_hosvd_core():
    t = rt((6, 6, 6), 22)
    m = hosvd(t, ranks=(3, 3, 3))
    grid = partition_tensor(t, (2, 2, 2))
    for n in range(1, 4):
        ut_blocks = partition_matrix_blocks(m.factors[n - 1].T, 2, 1)
        grid = core_blockwise(grid, ut_blocks, n)
    got = assemble_blocks(grid)
    assert np.allclose(got.data, m.core.data, rtol=1e-12, atol=1e-13)


def test_core_blockwise_grid_mismatch():
    t = rt((4, 4), 23)
    grid = partition_tensor(t, (2, 2))
    with pytest.raises(ValueError):
        core_blockwise(grid, partition_matrix_blocks(np.eye(4), 3, 1), 1)


def test_hosvd_from_subtensors_exact():
    t, _, _ = random_tucker_tensor((30, 30, 30), (2, 2, 2), seed=24)
    m = hosvd_from_subtensors(t, counts=(3, 3, 3))
    err = np.linalg.norm(tucker_reconstruct(m).data - t.data)
    assert err <= 1e-8 * frobenius_norm(t)
    report = check_all_orthogonal(m.core)
    assert report.all_orthogonal


def test_hosvd_from_subtensors_full_selection_is_plain_hosvd():
    t = rt((5, 4, 3), 25)
    full = [list(range(1, d + 1)) for d in t.dims]
    m = hosvd_from_subtensors(t, indices=full)
    err = np.linalg.norm(tucker_reconstruct(m).data - t.data)
    assert err <= 1e-10 * frobenius_norm(t)
    plain = hosvd(t)
    assert m.core.dims == plain.core.dims


def test_hosvd_from_subtensors_rank_deficient_selection():
    # a selection whose W misses the rank triggers the singularity error
    rng = np.random.default_rng(26)
    u = np.zeros((20, 2))
    u[:10, 0] = rng.standard_normal(10)
    u[10:, 1] = rng.standard_normal(10)
    t, _, _ = random_tucker_tensor((20, 20, 20), (2, 2, 2), seed=27)
    arr = t.to_array().copy()
    # force mode-1 components supported on disjoint halves, then select rows
    # only from the first half so the selected rows are rank deficient
    blocked = np.einsum("ir,rjk->ijk", u,
                        np.random.default_rng(28).standard_normal((2, 20, 20)))
    bt = DenseTensor.from_array(blocked)
    with pytest.raises(np.linalg.LinAlgError):
        hosvd_from_subtensors(bt, indices=[[1, 2], [1, 2], [1, 2]])


@pytest.mark.parametrize("rank_tol", [np.nan, np.inf, -1e-3, 1.0, 2.0])
def test_hosvd_from_subtensors_rejects_bad_rank_tol(rank_tol):
    t, _, _ = random_tucker_tensor((6, 6, 6), (2, 2, 2), seed=29)
    with pytest.raises(ValueError, match="rank_tol must lie in"):
        hosvd_from_subtensors(t, counts=(3, 3, 3), rank_tol=rank_tol)


def test_tucker_big_endian_matricized_identity():
    # printed Kronecker form: the big-endian mode-n unfolding factors as
    # B_n G_(n) (B_1 kron ... kron B_{n-1} kron B_{n+1} kron ... kron B_N)^T
    from tenkit.dense import UnfoldingSpec, unfold_general
    t, core, factors = random_tucker_tensor((4, 3, 5), (2, 2, 3), seed=30)
    for n in (1, 2, 3):
        rest = tuple(m for m in (1, 2, 3) if m != n)
        spec = UnfoldingSpec((n,), rest, BIG_ENDIAN)
        lhs = unfold_general(t, spec)
        kron = None
        for m in rest:
            kron = factors[m - 1] if kron is None else np.kron(kron,
                                                               factors[m - 1])
        rhs = factors[n - 1] @ unfold_general(core, spec) @ kron.T
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(lhs)


def _noisy_tucker(dims, ranks, noise, seed):
    t, _, _ = random_tucker_tensor(dims, ranks, seed)
    rng = np.random.default_rng([seed, 1])
    e = rng.standard_normal(dims)
    e *= noise * frobenius_norm(t) / np.linalg.norm(e)
    return DenseTensor.from_array(t.to_array() + e)


@pytest.mark.parametrize("seed", range(6))
def test_hosvd_ranks_error_within_t_hosvd_bound(seed):
    # err^2 <= sum over modes of the discarded sigma^2 of unfold(t, n)
    rng = np.random.default_rng([seed, 2])
    order = 3 + seed % 2
    dims = tuple(int(d) for d in rng.integers(3, 8, size=order))
    ranks = tuple(int(rng.integers(1, d + 1)) for d in dims)
    t = _noisy_tucker(dims, [max(1, d - 2) for d in dims], 0.05, seed)
    m = hosvd(t, ranks=ranks)
    err = np.linalg.norm(tucker_reconstruct(m).data - t.data)
    bound_sq = sum(np.sum(np.linalg.svd(unfold(t, n), compute_uv=False)
                          [ranks[n - 1]:] ** 2) for n in range(1, order + 1))
    assert err <= np.sqrt(bound_sq) + 1e-12 * frobenius_norm(t)


@pytest.mark.parametrize("identity_modes", [(), (2,), (1, 4)])
def test_hosvd_eps_bound_over_seeds(identity_modes):
    for seed in range(5):
        t = _noisy_tucker((7, 6, 5, 4), (3, 3, 2, 2), 0.1, 20 + seed)
        norm = frobenius_norm(t)
        for eps in (0.02, 0.1, 0.5):
            m = hosvd(t, eps=eps, identity_modes=identity_modes)
            assert m.identity_modes == identity_modes
            err = np.linalg.norm(tucker_reconstruct(m).data - t.data)
            assert err <= eps * norm * (1 + 1e-12)


@pytest.mark.parametrize("dims,identity_modes", [
    ((6, 5, 4), ()), ((3, 8, 5), (2,)), ((2, 2, 7), ()), ((4, 3, 2, 5), (1,)),
])
def test_hosvd_untruncated_factors_match_direct_svd(dims, identity_modes):
    t = rt(dims, 12)
    m = hosvd(t, identity_modes=identity_modes)
    for n in range(1, t.order + 1):
        f = m.factors[n - 1]
        if n in identity_modes:
            assert f is None
            continue
        u = np.linalg.svd(unfold(t, n), full_matrices=False)[0]
        assert f.shape == u.shape
        signs = np.sign(np.sum(f * u, axis=0))
        assert np.allclose(f, u * signs, rtol=0, atol=1e-10)
    err = np.linalg.norm(tucker_reconstruct(m).data - t.data)
    assert err <= 1e-12 * frobenius_norm(t)
