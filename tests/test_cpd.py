"""CP model reconstruction, matricized forms, and ALS fitting."""

import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import cp_factor_match, noisy_cp_cube, well_conditioned_cp
from tenkit.cpd import (CPModel, _kr_others, _mttkrp, _pinv_gram, cp_als,
                        cp_fit, cp_reconstruct, cp_unfolded, normalize)
from tenkit.dense import (BIG_ENDIAN, DenseTensor, UnfoldingSpec,
                          frobenius_norm, unfold, unfold_general)
from tenkit.ops import khatri_rao
from tenkit.ttrain import _left_factor
from tenkit.tucker import TuckerModel, tucker_reconstruct

_property = settings(max_examples=60, deadline=None, derandomize=True,
                     database=None)
_dims = st.lists(st.integers(1, 4), min_size=1, max_size=5)


def _random_model(dims, rank, seed):
    rng = np.random.default_rng(seed)
    return CPModel(rng.standard_normal(rank),
                   [rng.standard_normal((d, rank)) for d in dims])


def _einsum_reconstruct(m):
    # reference: the outer-product sum written out index by index
    letters = "abcde"[:m.order]
    subs = "z," + ",".join(f"{c}z" for c in letters) + "->" + letters
    return np.einsum(subs, m.weights, *m.factors).flatten(order="F")


def _rel(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


def test_reconstruct_rank1_unit_norm():
    a = np.array([[0.6], [0.8]])
    b = np.array([[1.0], [0.0], [0.0]])
    m = CPModel([1.0], [a, b])
    t = cp_reconstruct(m)
    assert np.isclose(frobenius_norm(t), 1.0, rtol=1e-15)


def test_reconstruct_zero_weights():
    rng = np.random.default_rng(0)
    m = CPModel(np.zeros(3), [rng.standard_normal((4, 3)) for _ in range(3)])
    assert np.array_equal(cp_reconstruct(m).data, np.zeros(4 ** 3))


def test_unfolding_matches_khatri_rao_forms():
    # little-endian unfold pairs with the reversed factor order; the printed
    # (big-endian) form pairs with ascending order
    rng = np.random.default_rng(1)
    m = normalize(CPModel(rng.standard_normal(3),
                          [rng.standard_normal((d, 3)) for d in (3, 4, 2)]))
    t = cp_reconstruct(m)
    lam = np.diag(m.weights)
    for n in range(1, 4):
        got = cp_unfolded(m, n)
        assert np.allclose(got, unfold(t, n), rtol=1e-12, atol=1e-12)
    # printed form for n = 1: X_(1) = B1 L (B2 kr B3)^T with big-endian columns
    printed = m.factors[0] @ lam @ khatri_rao(m.factors[1], m.factors[2]).T
    rest = UnfoldingSpec((1,), (2, 3), BIG_ENDIAN)
    assert np.allclose(printed, unfold_general(t, rest), rtol=1e-12, atol=1e-12)
    assert np.allclose(printed, cp_unfolded(m, 1, BIG_ENDIAN),
                       rtol=1e-12, atol=1e-12)


def test_vec_identity_big_endian():
    # vec(X) = [B1 kr B2 kr ... ] lambda in the big-endian vectorization
    from tenkit.dense import vectorize
    rng = np.random.default_rng(2)
    m = normalize(CPModel(rng.standard_normal(2),
                          [rng.standard_normal((d, 2)) for d in (2, 3, 2)]))
    t = cp_reconstruct(m)
    kr = khatri_rao(khatri_rao(m.factors[0], m.factors[1]), m.factors[2])
    assert np.allclose(vectorize(t, BIG_ENDIAN), kr @ m.weights,
                       rtol=1e-12, atol=1e-12)


def test_unfolded_trivial_cases():
    m = CPModel([2.0], [np.array([[1.0], [0.0]]), np.array([[0.5], [0.5]])])
    t = cp_reconstruct(m)
    assert np.allclose(cp_unfolded(m, 1), unfold(t, 1), rtol=1e-14)
    zero = CPModel(np.zeros(2), [np.ones((2, 2)), np.ones((3, 2))])
    assert np.array_equal(cp_unfolded(zero, 2), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        cp_unfolded(m, 3)


def test_fit_values():
    rng = np.random.default_rng(3)
    m = normalize(CPModel(rng.standard_normal(2),
                          [rng.standard_normal((d, 2)) for d in (3, 3, 3)]))
    t = cp_reconstruct(m)
    assert cp_fit(t, m) >= 1 - 1e-14
    zero = CPModel(np.zeros(2), m.factors)
    assert np.isclose(cp_fit(t, zero), 0.0, atol=1e-15)
    other = normalize(CPModel(rng.standard_normal(2),
                              [rng.standard_normal((3, 2)) for _ in range(3)]))
    direct = 1 - np.linalg.norm(t.data - cp_reconstruct(other).data) / \
        frobenius_norm(t)
    assert np.isclose(cp_fit(t, other), direct, rtol=1e-13)
    with pytest.raises(ValueError):
        cp_fit(DenseTensor((2, 2), np.zeros(4)), m)


def test_fit_holds_no_tensor_sized_reconstruction():
    # a 64^3 reconstruction would be 2 MB; the fit forms it in 2^16-entry
    # blocks of one buffer
    m = _random_model((64, 64, 64), 4, seed=5)
    t = cp_reconstruct(_random_model((64, 64, 64), 4, seed=6))
    tracemalloc.start()
    try:
        cp_fit(t, m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.parametrize("model_dims", [(6, 4), (4, 5), (4, 6, 1), (24,)])
def test_fit_rejects_a_model_of_other_dims(model_dims):
    t = DenseTensor.from_array(np.arange(24.0).reshape(4, 6))
    m = _random_model(model_dims, 2, seed=0)
    with pytest.raises(ValueError, match=r"\(4, 6\)") as err:
        cp_fit(t, m)
    assert str(model_dims) in str(err.value)


def test_reconstruct_invariant_under_column_permutation():
    rng = np.random.default_rng(4)
    m = normalize(CPModel(rng.standard_normal(3),
                          [rng.standard_normal((4, 3)) for _ in range(3)]))
    perm = [2, 0, 1]
    pm = CPModel(m.weights[perm], [f[:, perm] for f in m.factors])
    assert np.allclose(cp_reconstruct(m).data, cp_reconstruct(pm).data,
                       rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("k", [600, -600])
def test_normalize_exact_at_extreme_scales(k):
    # squares of entries near 2^+-600 leave the double range; the column
    # norms must not, and the power of two must land in the weights alone
    rng = np.random.default_rng(6)
    m = CPModel(rng.standard_normal(2),
                [rng.standard_normal((3, 2)) for _ in range(3)])
    scaled = CPModel(m.weights, [np.ldexp(m.factors[0], k)] + m.factors[1:])
    want, got = normalize(m), normalize(scaled)
    assert np.array_equal(got.weights, np.ldexp(want.weights, k))
    for f, g in zip(want.factors, got.factors):
        assert np.array_equal(f, g)
        assert np.allclose(np.linalg.norm(g, axis=0), 1.0, rtol=1e-15)


def test_normalize_idempotent_and_scale_invariant():
    rng = np.random.default_rng(5)
    m = CPModel(rng.standard_normal(3),
                [rng.standard_normal((4, 3)) for _ in range(3)])
    scaled = CPModel(m.weights / 2.5,
                     [m.factors[0] * 2.5] + [f.copy() for f in m.factors[1:]])
    assert np.allclose(cp_reconstruct(m).data, cp_reconstruct(scaled).data,
                       rtol=1e-13)
    n1 = normalize(m)
    n2 = normalize(n1)
    assert np.allclose(n1.weights, n2.weights, rtol=1e-12, atol=0)
    for f1, f2 in zip(n1.factors, n2.factors):
        assert np.allclose(f1, f2, rtol=0, atol=1e-12)
    assert np.all(n1.weights >= 0)
    for f in n1.factors:
        assert np.allclose(np.linalg.norm(f, axis=0), 1.0, rtol=1e-12)


def test_als_rank1_exact():
    rng = np.random.default_rng(6)
    vecs = [rng.standard_normal(d) for d in (5, 4, 3)]
    t = DenseTensor.from_array(np.einsum("i,j,k->ijk", *vecs))
    model, diag = cp_als(t, 1, max_iters=10, tol=1e-14, seed=0)
    assert diag.fit_history[-1] >= 1 - 1e-10
    assert diag.n_sweeps <= 10


def test_als_rank3_recovery_best_of_5():
    truth = well_conditioned_cp((10, 10, 10), 3, seed=7)
    t = cp_reconstruct(truth)
    model, diag = cp_als(t, 3, max_iters=200, tol=1e-11, seed=1, n_starts=5)
    assert diag.fit_history[-1] >= 0.9999
    assert cp_factor_match(truth, model) >= 0.99


def test_als_matches_diagonal_core_tucker():
    rng = np.random.default_rng(8)
    lam = np.array([3.0, 1.0])
    factors = [np.linalg.qr(rng.standard_normal((6, 2)))[0] for _ in range(3)]
    core = np.zeros((2, 2, 2))
    core[0, 0, 0], core[1, 1, 1] = lam
    tucker = TuckerModel(DenseTensor.from_array(core), factors)
    t = tucker_reconstruct(tucker)
    model, diag = cp_als(t, 2, max_iters=100, tol=1e-12, seed=2, n_starts=3)
    assert cp_fit(t, model) >= 1 - 1e-8


def test_als_fit_monotone():
    rng = np.random.default_rng(9)
    t = DenseTensor.from_array(rng.standard_normal((6, 6, 6)))
    _, diag = cp_als(t, 2, max_iters=40, tol=0.0, seed=3)
    hist = np.array(diag.fit_history)
    assert np.all(np.diff(hist) >= -1e-12)


def test_als_overfactoring_flag_and_zero_error():
    rng = np.random.default_rng(10)
    vecs = [rng.standard_normal(d) for d in (4, 4, 4)]
    t = DenseTensor.from_array(np.einsum("i,j,k->ijk", *vecs))
    _, diag = cp_als(t, 2, max_iters=20, seed=4)
    assert diag.overfactored
    with pytest.raises(ValueError):
        cp_als(DenseTensor((2, 2), np.zeros(4)), 1)
    with pytest.raises(ValueError):
        cp_als(t, 0)
    with pytest.raises(ValueError, match="max_iters"):
        cp_als(t, 1, max_iters=0)
    with pytest.raises(ValueError, match="n_starts"):
        cp_als(t, 1, n_starts=0)


def test_als_seed_reproducible():
    rng = np.random.default_rng(11)
    t = DenseTensor.from_array(rng.standard_normal((5, 5, 5)))
    m1, _ = cp_als(t, 2, max_iters=30, seed=42)
    m2, _ = cp_als(t, 2, max_iters=30, seed=42)
    assert np.array_equal(m1.weights, m2.weights)
    for f1, f2 in zip(m1.factors, m2.factors):
        assert np.array_equal(f1, f2)


def test_als_svd_init():
    rng = np.random.default_rng(12)
    vecs = [rng.standard_normal(d) for d in (6, 5, 4)]
    t = DenseTensor.from_array(np.einsum("i,j,k->ijk", *vecs))
    model, diag = cp_als(t, 1, max_iters=10, tol=1e-14, seed=0, init="svd")
    assert diag.fit_history[-1] >= 1 - 1e-10
    with pytest.raises(ValueError):
        cp_als(t, 1, init="nope")


@pytest.mark.parametrize("dims", [(3, 4, 5), (4, 2, 2), (2, 3, 6), (6, 2, 2),
                                  (3, 3, 9)])
def test_als_overfactored_matches_matrix_rank(dims):
    # wide, square and tall unfoldings of exact low-rank tensors
    rng = np.random.default_rng(sum(dims))
    for true_rank in (1, 2, 3, 4):
        factors = [rng.standard_normal((d, true_rank)) for d in dims]
        t = cp_reconstruct(CPModel(np.ones(true_rank), factors))
        mode_ranks = [np.linalg.matrix_rank(unfold(t, n))
                      for n in range(1, t.order + 1)]
        for rank in range(1, 6):
            _, diag = cp_als(t, rank, max_iters=1, seed=0)
            assert diag.overfactored == any(rank > r for r in mode_ranks)


@_property
@given(dims=_dims, rank=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1))
def test_reconstruct_matches_einsum_formula(dims, rank, seed):
    m = _random_model(dims, rank, seed)
    got = cp_reconstruct(m)
    assert got.dims == tuple(dims)
    assert _rel(got.data, _einsum_reconstruct(m)) <= 1e-13


def _reference_als(t, rank, max_iters, tol):
    # the textbook sweep: MTTKRP as unfolding times the Khatri-Rao chain,
    # fit from the einsum reconstruction; SVD start as in cp_als
    unfs = [unfold(t, n) for n in range(1, t.order + 1)]
    factors = []
    for x in unfs:
        f = _left_factor(x)[0][:, :rank]
        factors.append(f / np.linalg.norm(f, axis=0))
    norm_t = np.linalg.norm(t.data)
    history = []
    for _ in range(max_iters):
        for n in range(t.order):
            others = [k for k in reversed(range(t.order)) if k != n]
            kr = reduce(khatri_rao, [factors[k] for k in others])
            g = np.ones((rank, rank))
            for k in range(t.order):
                if k != n:
                    g *= factors[k].T @ factors[k]
            factors[n] = (unfs[n] @ kr) @ _pinv_gram(g)
        model = normalize(CPModel(np.ones(rank), factors))
        factors = model.factors
        resid = np.linalg.norm(t.data - _einsum_reconstruct(model))
        history.append(1.0 - resid / norm_t)
        if len(history) > 1 and abs(history[-1] - history[-2]) < tol:
            break
    return history


def test_als_matches_reference_sweeps():
    t, _ = noisy_cp_cube(20, seed=3)
    want = _reference_als(t, 4, max_iters=200, tol=1e-10)
    _, diag = cp_als(t, 4, max_iters=200, tol=1e-10, seed=0, init="svd")
    assert diag.converged
    assert diag.n_sweeps == len(want)
    assert np.allclose(diag.fit_history, want, rtol=0, atol=1e-12)


@_property
@given(dims=_dims, rank=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1))
def test_mttkrp_matches_unfolded_product(dims, rank, seed):
    m = _random_model(dims, rank, seed)
    t = DenseTensor.from_array(
        np.random.default_rng(seed + 1).standard_normal(dims))
    for n in range(1, len(dims) + 1):
        want = unfold(t, n) @ _kr_others(m.factors, n, descending=True)
        got = _mttkrp(t.to_array(), m.factors, n)
        assert got.shape == (dims[n - 1], rank)
        assert _rel(got, want) <= 1e-12


def test_als_default_start_is_svd():
    t, _ = noisy_cp_cube(8, seed=2, rank=2)
    m1, d1 = cp_als(t, 2, max_iters=5, tol=0.0, seed=7)
    m2, d2 = cp_als(t, 2, max_iters=5, tol=0.0, seed=7, init="svd")
    assert d1.fit_history == d2.fit_history
    assert np.array_equal(m1.weights, m2.weights)


def test_order1_model_and_fit():
    v = np.array([3.0, -1.0, 0.5, 2.0, 4.0])
    t = DenseTensor.from_array(v)
    m = CPModel([1.0, 2.0], [np.column_stack([v / 3, v / 3])])
    assert np.allclose(cp_reconstruct(m).data, v, rtol=1e-15)
    assert cp_unfolded(m, 1).shape == (5, 1)
    assert np.allclose(cp_unfolded(m, 1), unfold(t, 1), rtol=1e-15)
    model, diag = cp_als(t, 1, seed=0)
    assert diag.converged and not diag.overfactored
    assert model.dims == (5,)
    assert cp_fit(t, model) >= 1 - 1e-14
    assert np.allclose(cp_reconstruct(model).data, v, rtol=1e-14)
