"""Tensorization schemes, QTT compression round trips, storage formulas."""

from math import prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import geometric_vector
from tenkit.dense import DenseTensor, frobenius_norm
from tenkit.quantize import (QuantizationScheme, detensorize, factorize_dim,
                             qtt_compress, qtt_decompress, storage_complexity,
                             tensorize)
from tenkit.ttrain import tt_storage


def test_factorize_dim_power_of_two():
    assert factorize_dim(1024, 2) == [2] * 10


def test_factorize_dim_mixed_radix():
    assert factorize_dim(12, 2) == [2, 2, 3]
    assert factorize_dim(16, 4) == [4, 4]
    assert factorize_dim(1, 2) == [1]


def test_factorize_dim_prime_warns():
    with pytest.warns(UserWarning, match="prime"):
        assert factorize_dim(7, 2) == [7]
    with pytest.raises(ValueError):
        factorize_dim(0, 2)


def test_scheme_validation():
    with pytest.raises(ValueError):
        QuantizationScheme((8,), ((2, 2),))
    with pytest.raises(ValueError):
        QuantizationScheme((8, 9), ((2, 2, 2), (3, 3)), interleaved=True)
    s = QuantizationScheme((8, 8), ((2, 2, 2), (2, 2, 2)))
    assert s.base == 2
    assert s.fully_quantized
    assert s.virtual_dims == (2,) * 6


def test_tensorize_vector_is_storage_identity():
    x = DenseTensor((8,), np.arange(8.0))
    scheme = QuantizationScheme.uniform((8,), 2)
    y = tensorize(x, scheme)
    assert y.dims == (2, 2, 2)
    assert np.array_equal(y.data, x.data)
    back = detensorize(y, scheme)
    assert np.array_equal(back.data, x.data)


def test_tensorize_matrix_index_map_oracle():
    # digit mapping: i_n - 1 = sum_k (d_k - 1) * prod_{l<k} base_l per mode
    rng = np.random.default_rng(0)
    x = DenseTensor.from_array(rng.standard_normal((4, 4)))
    scheme = QuantizationScheme((4, 4), ((2, 2), (2, 2)))
    y = tensorize(x, scheme)
    assert y.dims == (2, 2, 2, 2)
    for i in range(1, 5):
        for j in range(1, 5):
            d = ((i - 1) % 2 + 1, (i - 1) // 2 + 1,
                 (j - 1) % 2 + 1, (j - 1) // 2 + 1)
            assert y.element(*d) == x.element(i, j)
    back = detensorize(y, scheme)
    assert np.array_equal(back.data, x.data)


def test_tensorize_third_order_to_ninth():
    rng = np.random.default_rng(1)
    x = DenseTensor.from_array(rng.standard_normal((8, 8, 8)))
    scheme = QuantizationScheme.uniform((8, 8, 8), 2)
    y = tensorize(x, scheme)
    assert y.dims == (2,) * 9
    assert np.array_equal(detensorize(y, scheme).data, x.data)


def test_tensorize_interleaved_roundtrip():
    rng = np.random.default_rng(2)
    x = DenseTensor.from_array(rng.standard_normal((4, 4)))
    scheme = QuantizationScheme((4, 4), ((2, 2), (2, 2)), interleaved=True)
    y = tensorize(x, scheme)
    assert y.dims == (2, 2, 2, 2)
    # digit 1 of each mode first: y[d_i1, d_j1, d_i2, d_j2]
    assert y.element(2, 1, 1, 1) == x.element(2, 1)
    assert y.element(1, 2, 1, 1) == x.element(1, 2)
    back = detensorize(y, scheme)
    assert np.array_equal(back.data, x.data)


def test_tensorize_random_schemes_bit_exact():
    rng = np.random.default_rng(3)
    sizes = [6, 8, 12, 16, 24, 30]
    for _ in range(100):
        dims = tuple(rng.choice(sizes) for _ in range(rng.integers(1, 4)))
        x = DenseTensor.from_array(rng.standard_normal(dims))
        scheme = QuantizationScheme.uniform(dims, 2)
        back = detensorize(tensorize(x, scheme), scheme)
        assert np.array_equal(back.data, x.data)


def test_tensorize_mismatch_errors():
    x = DenseTensor((8,), np.zeros(8))
    scheme = QuantizationScheme.uniform((16,), 2)
    with pytest.raises(ValueError):
        tensorize(x, scheme)
    y = DenseTensor((2, 2, 2), np.zeros(8))
    with pytest.raises(ValueError):
        detensorize(y, QuantizationScheme.uniform((16,), 2))


def test_qtt_geometric_vector_all_ranks_one():
    x = geometric_vector(2 ** 10)
    model, scheme = qtt_compress(x, q=2, eps=1e-12)
    assert model.ranks == (1,) * 9
    back = qtt_decompress(model, scheme)
    assert np.linalg.norm(back.data - x.data) <= 1e-12 * frobenius_norm(x)
    assert model.meta["compression_ratio"] == x.size / tt_storage(model)
    assert model.meta["compression_ratio"] > 1


def test_qtt_sum_of_geometrics_rank_bound():
    x2 = DenseTensor((2 ** 10,), geometric_vector(2 ** 10, 1.02).data +
                     geometric_vector(2 ** 10, 0.97).data)
    model, _ = qtt_compress(x2, q=2, eps=1e-12)
    assert max(model.ranks) <= 2
    three = DenseTensor((2 ** 10,),
                        x2.data + geometric_vector(2 ** 10, 1.01).data)
    model3, _ = qtt_compress(three, q=2, eps=1e-12)
    assert max(model3.ranks) <= 3


@pytest.mark.parametrize("signal,bound", [
    (lambda x: np.exp(-2.0 * x), 1),
    (lambda x: np.sin(30.0 * x + 1.0) + np.cos(17.0 * x), 4),
    (lambda x: 1.0 - 0.7 * x + 0.9 * x ** 2 - 0.8 * x ** 3, 4),
], ids=["exp", "sin+cos", "cubic"])
def test_qtt_long_signal_rank_bound(signal, bound):
    # 2^18 samples: the first split factors a 2^17 x 2 transpose by the
    # blocked tall-skinny QR, and on sin+cos and cubic so does the second
    x = DenseTensor((2 ** 18,), 1.3 * signal(np.arange(2 ** 18) / 2 ** 18))
    model, scheme = qtt_compress(x, q=2, eps=1e-12)
    assert max(model.ranks) <= bound
    back = qtt_decompress(model, scheme)
    assert np.linalg.norm(back.data - x.data) <= 1e-12 * frobenius_norm(x)


def test_qtt_random_vector_honest_report():
    rng = np.random.default_rng(4)
    x = DenseTensor((2 ** 8,), rng.standard_normal(2 ** 8))
    model, scheme = qtt_compress(x, q=2, eps=1e-12)
    # full-rank data: ranks hit the feasible maximum and the report says so
    assert max(model.ranks) == 16
    assert model.meta["compression_ratio"] < 1
    back = qtt_decompress(model, scheme)
    assert np.linalg.norm(back.data - x.data) <= 1e-12 * frobenius_norm(x)


def test_qtt_partial_quantization_warns():
    rng = np.random.default_rng(5)
    x = DenseTensor((7,), rng.standard_normal(7))
    with pytest.warns(UserWarning, match="prime"):
        model, scheme = qtt_compress(x, q=2, eps=1e-12)
    assert not scheme.fully_quantized
    back = qtt_decompress(model, scheme)
    assert np.allclose(back.data, x.data, rtol=0, atol=1e-12)


def test_qtt_decompress_scheme_mismatch():
    x = geometric_vector(16)
    model, scheme = qtt_compress(x, q=2, eps=0.0)
    other = QuantizationScheme.uniform((32,), 2)
    with pytest.raises(ValueError):
        qtt_decompress(model, other)


def test_storage_complexity_frozen_values():
    assert storage_complexity("cpd", 3, 10, 2) == 60
    assert storage_complexity("tucker", 3, 10, 2) == 68
    assert storage_complexity("qtt", 1, 2 ** 10, 1, 2) == 20
    assert storage_complexity("tt", 3, 10, 2) == 120
    assert storage_complexity("ttm", 2, 4, 3) == 2 * 16 * 9


def test_storage_complexity_errors():
    with pytest.raises(ValueError):
        storage_complexity("nope", 3, 10, 2)
    with pytest.raises(ValueError):
        storage_complexity("qtt", 1, 10, 1, 2)
    with pytest.raises(ValueError):
        storage_complexity("cpd", 0, 10, 2)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_tensorize_roundtrip_property(data, seed):
    order = data.draw(st.integers(1, 3))
    interleaved = data.draw(st.booleans())
    if interleaved:
        k = data.draw(st.integers(1, 3))
        digits = st.lists(st.integers(2, 3), min_size=k, max_size=k)
    else:
        # a mode of size 1 has the single factor 1
        digits = st.one_of(st.just([1]),
                           st.lists(st.integers(2, 4), min_size=1, max_size=2))
    factors = tuple(tuple(data.draw(digits)) for _ in range(order))
    scheme = QuantizationScheme(tuple(prod(fs) for fs in factors), factors,
                                interleaved)
    x = DenseTensor.from_array(
        np.random.default_rng(seed).standard_normal(scheme.dims))
    y = tensorize(x, scheme)
    assert y.dims == scheme.virtual_dims
    assert np.array_equal(np.sort(y.data), np.sort(x.data))
    back = detensorize(y, scheme)
    assert back.dims == x.dims
    assert np.array_equal(back.data, x.data)
    # the non-interleaved digit order relabels the buffer without a copy
    if not interleaved:
        assert np.shares_memory(y.data, x.data)
        assert np.shares_memory(back.data, x.data)
