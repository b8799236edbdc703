"""Index arithmetic, unfolding/folding, vectorization, subtensors, norms.

Derived expected values are frozen from independent enumeration oracles
implemented here with plain Python loops (no reshape tricks).
"""

import itertools
import tracemalloc
from math import prod

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tenkit.cpd import CPModel, cp_als, cp_fit
from tenkit.cur import fstd
from tenkit.dense import (BIG_ENDIAN, LITTLE_ENDIAN, _BLOCK, _SLICE,
                          DenseTensor, UnfoldingSpec, _norm, _product_error,
                          _rel_error, extract_subtensor,
                          fiber, fold, fold_general, frobenius_norm,
                          linear_index, multi_index, unfold, unfold_general,
                          vectorize)
from tenkit.ttrain import tt_als, tt_mals
from tenkit.tucker import hosvd_from_subtensors


def oracle_linear_index(idx, dims, convention):
    # direct evaluation of the positional formulas
    if convention == LITTLE_ENDIAN:
        off, stride = 0, 1
        for i, d in zip(idx, dims):
            off += (i - 1) * stride
            stride *= d
    else:
        off, stride = 0, 1
        for i, d in zip(reversed(idx), reversed(dims)):
            off += (i - 1) * stride
            stride *= d
    return off


def all_indices(dims):
    return itertools.product(*[range(1, d + 1) for d in dims])


def oracle_unfold(t, row_modes, col_modes, convention):
    # place every entry by combining each side's indices with the formula
    row_dims = [t.dims[m - 1] for m in row_modes]
    col_dims = [t.dims[m - 1] for m in col_modes]
    out = np.zeros((int(np.prod(row_dims)), max(int(np.prod(col_dims)), 1)))
    for idx in all_indices(t.dims):
        r = oracle_linear_index([idx[m - 1] for m in row_modes], row_dims,
                                convention) if row_modes else 0
        c = oracle_linear_index([idx[m - 1] for m in col_modes], col_dims,
                                convention) if col_modes else 0
        out[r, c] = t.element(*idx)
    return out


def iota(dims):
    return DenseTensor(dims, np.arange(1.0, np.prod(dims) + 1.0))


def test_linear_index_trivial_all_ones():
    for conv in (LITTLE_ENDIAN, BIG_ENDIAN):
        assert linear_index((1, 1, 1), (2, 3, 4), conv) == 0


def test_linear_index_little_endian_first_term():
    assert linear_index((2, 1, 1), (2, 3, 4), LITTLE_ENDIAN) == 1


def test_linear_index_big_endian_derived():
    # oracle: enumerate all 24 offsets by the big-endian formula, check the
    # map is a bijection, then freeze a probe value
    dims = (2, 3, 4)
    offsets = [oracle_linear_index(i, dims, BIG_ENDIAN) for i in all_indices(dims)]
    assert sorted(offsets) == list(range(24))
    assert oracle_linear_index((2, 1, 1), dims, BIG_ENDIAN) == 12
    assert linear_index((2, 1, 1), dims, BIG_ENDIAN) == 12


def test_linear_index_bijection_exhaustive():
    shapes = [(1,), (3,), (2, 3), (4, 1, 3), (2, 3, 4), (2, 2, 2, 2)]
    for dims in shapes:
        for conv in (LITTLE_ENDIAN, BIG_ENDIAN):
            got = [linear_index(i, dims, conv) for i in all_indices(dims)]
            want = [oracle_linear_index(i, dims, conv) for i in all_indices(dims)]
            assert got == want
            assert sorted(got) == list(range(int(np.prod(dims))))


def test_linear_index_out_of_range_names_mode():
    with pytest.raises(IndexError, match="i_2"):
        linear_index((1, 4, 1), (2, 3, 4))
    with pytest.raises(IndexError):
        linear_index((1, 1), (2, 3, 4))


def test_multi_index_inverts_linear_index():
    dims = (3, 2, 4)
    for conv in (LITTLE_ENDIAN, BIG_ENDIAN):
        for off in range(24):
            assert linear_index(multi_index(off, dims, conv), dims, conv) == off


def test_unfold_mode1_frozen():
    t = iota((2, 2, 2))
    assert np.array_equal(unfold(t, 1), [[1, 3, 5, 7], [2, 4, 6, 8]])


def test_unfold_mode3_frozen():
    t = iota((2, 2, 2))
    assert np.array_equal(unfold(t, 3), [[1, 2, 3, 4], [5, 6, 7, 8]])


def test_unfold_matches_enumeration_oracle():
    rng = np.random.default_rng(7)
    for dims in [(3, 4), (2, 3, 4), (3, 2, 2, 3)]:
        t = DenseTensor.from_array(rng.standard_normal(dims))
        for n in range(1, len(dims) + 1):
            rest = tuple(m for m in range(1, len(dims) + 1) if m != n)
            want = oracle_unfold(t, (n,), rest, LITTLE_ENDIAN)
            assert np.array_equal(unfold(t, n), want)


def test_fold_unfold_roundtrip_every_mode():
    rng = np.random.default_rng(8)
    for dims in [(5,), (3, 4), (2, 3, 4, 2)]:
        t = DenseTensor.from_array(rng.standard_normal(dims))
        for n in range(1, len(dims) + 1):
            back = fold(unfold(t, n), n, dims)
            assert np.array_equal(back.data, t.data)


def test_unfold_invalid_mode():
    t = iota((2, 2))
    with pytest.raises(ValueError, match="mode 3"):
        unfold(t, 3)


def test_unfold_general_frozen():
    t = iota((2, 2, 2))
    spec = UnfoldingSpec((1, 2), (3,))
    assert np.array_equal(unfold_general(t, spec),
                          [[1, 5], [2, 6], [3, 7], [4, 8]])


def test_unfold_general_degenerate_split_is_vectorize():
    t = iota((2, 3, 2))
    for conv in (LITTLE_ENDIAN, BIG_ENDIAN):
        spec = UnfoldingSpec((1, 2, 3), (), conv)
        col = unfold_general(t, spec)
        assert col.shape == (12, 1)
        assert np.array_equal(col[:, 0], vectorize(t, conv))


def test_unfold_general_mode_n_special_case():
    rng = np.random.default_rng(9)
    t = DenseTensor.from_array(rng.standard_normal((3, 4, 2)))
    for n in (1, 2, 3):
        rest = tuple(m for m in (1, 2, 3) if m != n)
        assert np.array_equal(unfold_general(t, UnfoldingSpec((n,), rest)),
                              unfold(t, n))


def test_unfold_general_oracle_and_roundtrip():
    rng = np.random.default_rng(10)
    t = DenseTensor.from_array(rng.standard_normal((2, 3, 2, 2)))
    specs = [
        UnfoldingSpec((1, 2), (3, 4), LITTLE_ENDIAN),
        UnfoldingSpec((1, 2), (3, 4), BIG_ENDIAN),
        UnfoldingSpec((3, 1), (4, 2), LITTLE_ENDIAN),
        UnfoldingSpec((4, 2, 1), (3,), BIG_ENDIAN),
        UnfoldingSpec((2,), (4, 1, 3), LITTLE_ENDIAN),
    ]
    for spec in specs:
        got = unfold_general(t, spec)
        want = oracle_unfold(t, spec.row_modes, spec.col_modes, spec.convention)
        assert np.array_equal(got, want)
        back = fold_general(got, spec, t.dims)
        assert np.array_equal(back.data, t.data)


def test_unfolding_spec_overlap_and_missing_modes():
    t = iota((2, 2, 2))
    with pytest.raises(ValueError):
        unfold_general(t, UnfoldingSpec((1, 2), (2, 3)))
    with pytest.raises(ValueError):
        unfold_general(t, UnfoldingSpec((1,), (3,)))


def test_vectorize_little_endian_is_canonical_order():
    t = DenseTensor((2, 2), [1, 2, 3, 4])
    assert np.array_equal(vectorize(t, LITTLE_ENDIAN), [1, 2, 3, 4])


def test_vectorize_big_endian_frozen():
    # oracle: big-endian offsets of (2, 2) enumerate to [1, 3, 2, 4]
    t = DenseTensor((2, 2), [1, 2, 3, 4])
    want = np.zeros(4)
    for idx in all_indices((2, 2)):
        want[oracle_linear_index(idx, (2, 2), BIG_ENDIAN)] = t.element(*idx)
    assert np.array_equal(want, [1, 3, 2, 4])
    assert np.array_equal(vectorize(t, BIG_ENDIAN), [1, 3, 2, 4])


def test_vectorize_rank1_kron_identity():
    a = np.array([1.0, -2.0, 0.5])
    b = np.array([3.0, 4.0])
    t = DenseTensor.from_array(np.outer(a, b))
    assert np.array_equal(vectorize(t, BIG_ENDIAN), np.kron(a, b))


def test_vectorize_mode_reversal_property():
    rng = np.random.default_rng(11)
    t = DenseTensor.from_array(rng.standard_normal((2, 3, 4)))
    reversed_t = DenseTensor.from_array(t.to_array().transpose(2, 1, 0))
    assert np.array_equal(vectorize(t, BIG_ENDIAN),
                          vectorize(reversed_t, LITTLE_ENDIAN))


def test_extract_subtensor_fiber_frozen():
    t = iota((2, 2, 2))
    f = extract_subtensor(t, {2: 1, 3: 1})
    assert f.dims == (2,)
    assert np.array_equal(f.data, [1, 2])


def test_extract_subtensor_slice_frozen():
    t = iota((2, 2, 2))
    s = extract_subtensor(t, {1: 1})
    assert s.dims == (2, 2)
    assert np.array_equal(s.to_array(), [[1, 5], [3, 7]])


def test_extract_subtensor_identity_and_errors():
    t = iota((2, 2, 2))
    same = extract_subtensor(t, {})
    assert np.array_equal(same.data, t.data)
    with pytest.raises(ValueError, match="element"):
        extract_subtensor(t, {1: 1, 2: 1, 3: 1})
    with pytest.raises(IndexError, match="i_2"):
        extract_subtensor(t, {2: 5})


def test_fiber_helper_matches_subtensor():
    t = iota((2, 3, 2))
    got = fiber(t, 2, (2, 1, 1))
    want = extract_subtensor(t, {1: 2, 3: 1})
    assert np.array_equal(got, want.data)


def test_frobenius_norm_basics():
    assert frobenius_norm(DenseTensor((2, 2), np.zeros(4))) == 0.0
    assert frobenius_norm(DenseTensor((2, 2), [3, 4, 0, 0])) == 5.0


def test_frobenius_norm_invariance():
    rng = np.random.default_rng(12)
    t = DenseTensor.from_array(rng.standard_normal((3, 4, 2)))
    ref = frobenius_norm(t)
    for n in (1, 2, 3):
        assert np.isclose(np.linalg.norm(unfold(t, n)), ref, rtol=1e-15)
    assert np.isclose(np.linalg.norm(vectorize(t, BIG_ENDIAN)), ref, rtol=1e-15)
    perm = DenseTensor.from_array(t.to_array().transpose(1, 2, 0))
    assert np.isclose(frobenius_norm(perm), ref, rtol=1e-15)


def test_frobenius_norm_is_numpy_norm_within_range():
    # the fast path is numpy's own sum of squares, so within range the
    # result is bitwise np.linalg.norm's in either memory order
    rng = np.random.default_rng(13)
    for shape in ((7,), (30, 17), (5, 6, 4), (3, 9, 2)):
        arr = rng.standard_normal(shape) * 10.0 ** rng.integers(-100, 100)
        for x in (arr, np.asfortranarray(arr)):
            assert _norm(x) == np.linalg.norm(x)
        t = DenseTensor.from_array(arr)
        assert frobenius_norm(t) == np.linalg.norm(t.data)


def test_frobenius_norm_fast_path_allocates_nothing():
    # one more tensor-sized array live at a job's peak shows in its RSS
    t = DenseTensor.from_array(
        np.random.default_rng(14).standard_normal((128, 128, 64)))
    tracemalloc.start()
    try:
        frobenius_norm(t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_dense_tensor_validation():
    with pytest.raises(ValueError, match="length"):
        DenseTensor((2, 2), [1, 2, 3])
    with pytest.raises(ValueError):
        DenseTensor((2, 0), [])
    with pytest.raises(ValueError):
        DenseTensor((), [])


def test_dense_tensor_immutable():
    t = iota((2, 2))
    with pytest.raises(AttributeError):
        t.dims = (4,)
    with pytest.raises(ValueError):
        t.data[0] = 99.0


def test_from_array_owns_its_data():
    base = np.arange(24.0).reshape(2, 3, 4)
    for arr in (base.copy(), np.asfortranarray(base)):
        t = DenseTensor.from_array(arr)
        assert not np.shares_memory(t.data, arr)
        assert arr.flags.writeable
        assert np.array_equal(t.to_array(), base)


def test_element_accessor():
    t = iota((2, 3, 4))
    for idx in all_indices(t.dims):
        assert t.element(*idx) == t.data[oracle_linear_index(idx, t.dims,
                                                             LITTLE_ENDIAN)]


def test_random_tensor_seeded():
    from tenkit.dense import random_tensor
    a = random_tensor((3, 4), 7)
    b = random_tensor((3, 4), 7)
    assert a.dims == (3, 4)
    assert np.array_equal(a.data, b.data)


_dims = st.lists(st.integers(1, 4), min_size=1, max_size=5)
_property = settings(max_examples=60, deadline=None, derandomize=True,
                     database=None)


def _seeded(dims, seed):
    return DenseTensor.from_array(
        np.random.default_rng(seed).standard_normal(dims))


@_property
@given(dims=_dims, seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_fold_unfold_roundtrip_property(dims, seed, data):
    t = _seeded(dims, seed)
    n = data.draw(st.integers(1, len(dims)))
    mat = unfold(t, n)
    assert mat.shape == (dims[n - 1], prod(dims) // dims[n - 1])
    back = fold(mat, n, dims)
    assert back.dims == t.dims
    assert np.array_equal(back.data, t.data)
    assert np.array_equal(unfold(back, n), mat)


@_property
@given(dims=_dims, seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_fold_general_unfold_general_roundtrip_property(dims, seed, data):
    t = _seeded(dims, seed)
    modes = data.draw(st.permutations(range(1, len(dims) + 1)))
    split = data.draw(st.integers(0, len(dims)))
    convention = data.draw(st.sampled_from([LITTLE_ENDIAN, BIG_ENDIAN]))
    spec = UnfoldingSpec(tuple(modes[:split]), tuple(modes[split:]), convention)
    mat = unfold_general(t, spec)
    assert mat.shape == (prod(dims[m - 1] for m in spec.row_modes),
                         prod(dims[m - 1] for m in spec.col_modes))
    back = fold_general(mat, spec, dims)
    assert back.dims == t.dims
    assert np.array_equal(back.data, t.data)
    assert np.array_equal(unfold_general(back, spec), mat)


@_property
@given(dims=_dims, seed=st.integers(0, 2 ** 32 - 1), k=st.integers(-900, 900))
def test_frobenius_norm_scales_by_powers_of_two_property(dims, seed, k):
    t = _seeded(dims, seed)
    want = np.ldexp(frobenius_norm(t), k)
    got = frobenius_norm(DenseTensor(t.dims, np.ldexp(t.data, k)))
    assert abs(got - want) <= 2 * np.spacing(want)


def _pair(size, seed, noise, k=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(size)
    y = x + noise * rng.standard_normal(size)
    return (DenseTensor((size,), np.ldexp(x, k)),
            DenseTensor((size,), np.ldexp(y, k)))


@_property
@given(size=st.sampled_from([1, _SLICE // 3, _SLICE, 3 * _SLICE + 17]),
       seed=st.integers(0, 2 ** 32 - 1), noise=st.sampled_from([1e-12, 1.0]),
       k=st.integers(-900, 900))
@example(size=3 * _SLICE + 17, seed=0, noise=1e-12, k=-900)
@example(size=3 * _SLICE + 17, seed=0, noise=1.0, k=900)
def test_rel_error_is_the_plain_ratio_at_any_scale_property(size, seed, noise,
                                                            k):
    # sizes: one entry, part of a slice, one slice, several plus a tail
    t, rec = _pair(size, seed, noise)
    err = _rel_error(t, rec)
    want = np.linalg.norm(t.data - rec.data) / np.linalg.norm(t.data)
    assert abs(err - want) <= 1e-14 * want
    assert abs(_rel_error(*_pair(size, seed, noise, k)) - err) <= 1e-14 * err


def test_rel_error_allocates_one_slice():
    t, rec = _pair(2 ** 18, 15, 1e-3)
    tracemalloc.start()
    try:
        _rel_error(t, rec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * _SLICE + 2 ** 12


def _product(shape, rank, seed, noise, k=0):
    # small-integer factors, so a @ b is exact however a GEMM blocks its
    # rows, and t - a @ b is the same difference in every block
    rng = np.random.default_rng(seed)
    a = rng.integers(-4, 5, (shape[0], rank)).astype(float)
    b = rng.integers(-4, 5, (rank, shape[1])).astype(float)
    x = a @ b + noise * rng.standard_normal(shape)
    return (DenseTensor((x.size,), np.ldexp(x, k).reshape(-1)),
            np.ldexp(a, k), b)


@_property
@given(shape=st.sampled_from([(1, 5000), (64, 1000), (300, 700),
                              (3, _BLOCK + 17)]),
       rank=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
       noise=st.sampled_from([1e-12, 1.0]), k=st.integers(-900, 900))
@example(shape=(300, 700), rank=3, seed=0, noise=1e-12, k=-900)
@example(shape=(300, 700), rank=3, seed=0, noise=1.0, k=900)
def test_product_error_is_the_plain_ratio_at_any_scale_property(shape, rank,
                                                                seed, noise,
                                                                k):
    # one row, one block, several blocks and a partial one, rows wider than
    # a block
    t, a, b = _product(shape, rank, seed, noise)
    err = _product_error(t, a, b, _norm(t.data))
    want = np.linalg.norm(t.data - (a @ b).ravel()) / np.linalg.norm(t.data)
    assert abs(err - want) <= 1e-14 * want
    t, a, b = _product(shape, rank, seed, noise, k)
    assert abs(_product_error(t, a, b, _norm(t.data)) - err) <= 1e-14 * err


_FITTERS = {
    "tt_als": lambda t: tt_als(t, 2),
    "tt_mals": lambda t: tt_mals(t, eps=1e-2),
    "cp_als": lambda t: cp_als(t, 2),
    "cp_fit": lambda t: cp_fit(t, CPModel(np.ones(2), [np.ones((4, 2))] * 3)),
    "fstd": lambda t: fstd(t, counts=(2, 2, 2)),
    "hosvd_from_subtensors":
        lambda t: hosvd_from_subtensors(t, counts=(2, 2, 2)),
}


@pytest.mark.parametrize("name", list(_FITTERS))
@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_fitters_reject_a_non_finite_entry(name, bad):
    x = np.random.default_rng(16).standard_normal((4, 4, 4))
    x[1, 2, 3] = bad
    with pytest.raises(ValueError, match=f"norm of the tensor is {bad}; "
                                         f"{name} needs a finite one"):
        _FITTERS[name](DenseTensor.from_array(x))
