"""KTD and HOPTA reconstruction plus storage accounting."""

import itertools

import numpy as np
import pytest

from helpers import model_zoo
from tenkit.blockmodels import (HOPTANode, KTDModel, hopta_reconstruct,
                                ktd_reconstruct, model_storage, reconstruct)
from tenkit.cpd import CPModel, cp_reconstruct
from tenkit.cur import FSTDModel
from tenkit.dense import DenseTensor
from tenkit.ops import outer_product
from tenkit.quantize import qtt_decompress
from tenkit.tucker import TuckerModel, tucker_reconstruct
from tenkit.ttrain import (TTMatrixModel, TTModel, tt_reconstruct,
                           ttm_reconstruct)


def rt(dims, seed):
    return DenseTensor.from_array(np.random.default_rng(seed).standard_normal(dims))


def test_ktd_scalar_term_scales():
    a = rt((2, 3), 0)
    b = DenseTensor((1,), [2.0])
    m = KTDModel([(a, b)])
    got = ktd_reconstruct(m)
    assert got.dims == (2, 3)
    assert np.allclose(got.data, 2.0 * a.data, rtol=0, atol=0)


def test_ktd_rank1_terms_express_cpd():
    rng = np.random.default_rng(1)
    vecs = [[rng.standard_normal(d) for d in (3, 4, 2)] for _ in range(2)]
    terms = []
    for v in vecs:
        rank1 = np.einsum("i,j,k->ijk", *v)
        terms.append((DenseTensor.from_array(rank1), DenseTensor((1,), [1.0])))
    m = KTDModel(terms)
    cp = CPModel(np.ones(2), [np.column_stack([vecs[0][n], vecs[1][n]])
                              for n in range(3)])
    got = ktd_reconstruct(m)
    assert got.dims == (3, 4, 2)
    want = cp_reconstruct(cp)
    assert np.allclose(got.data, want.data, rtol=1e-13, atol=1e-13)


def test_ktd_random_vs_loop_oracle():
    rng = np.random.default_rng(2)
    terms = [(rt((2, 3), 3 + k), rt((3, 2), 5 + k)) for k in range(2)]
    m = KTDModel(terms)
    got = ktd_reconstruct(m).to_array()
    want = np.zeros((6, 6))
    for a, b in terms:
        aa, bb = a.to_array(), b.to_array()
        for i1, i2 in itertools.product(range(2), range(3)):
            for j1, j2 in itertools.product(range(3), range(2)):
                want[i1 * 3 + j1, i2 * 2 + j2] += aa[i1, i2] * bb[j1, j2]
    assert np.allclose(got, want, rtol=1e-13, atol=1e-13)


def test_ktd_dim_mismatch():
    with pytest.raises(ValueError, match="term 2"):
        KTDModel([(rt((2, 2), 7), rt((2, 2), 8)),
                  (rt((2, 2), 9), rt((3, 3), 10))])


def test_hopta_depth1_cp_style():
    rng = np.random.default_rng(11)
    terms = []
    want = np.zeros((4, 3))
    for _ in range(3):
        a, b = rng.standard_normal(4), rng.standard_normal(3)
        terms.append((HOPTANode.leaf(DenseTensor.from_array(a)),
                      HOPTANode.leaf(DenseTensor.from_array(b))))
        want += np.outer(a, b)
    root = HOPTANode.sum_of_outer(terms)
    assert np.allclose(hopta_reconstruct(root).to_array(), want,
                       rtol=1e-14, atol=1e-14)


def test_hopta_btd_rank_l_l_1_pattern():
    # X = sum_r A_r o (b1 o b2 o b3) with 3rd-order A_r: the 6th-order block
    # term decomposition pattern
    rng = np.random.default_rng(12)
    want = None
    terms = []
    for _ in range(2):
        a = rt((2, 2, 2), rng.integers(1000))
        b1, b2, b3 = (rng.standard_normal(2) for _ in range(3))
        bcube = np.einsum("i,j,k->ijk", b1, b2, b3)
        piece = np.multiply.outer(a.to_array(), bcube)
        want = piece if want is None else want + piece
        vec_nodes = tuple(HOPTANode.leaf(DenseTensor.from_array(v))
                          for v in (b1, b2, b3))
        inner = HOPTANode.sum_of_outer([vec_nodes])
        terms.append((HOPTANode.leaf(a), inner))
    root = HOPTANode.sum_of_outer(terms)
    got = hopta_reconstruct(root)
    assert got.dims == (2,) * 6
    assert np.allclose(got.to_array(), want, rtol=1e-13, atol=1e-13)


def test_hopta_depth2_vs_flat_expansion():
    rng = np.random.default_rng(13)
    a1, a2 = rt((2, 2), 14), rt((2, 2), 15)
    b = rt((3,), 16)
    inner = HOPTANode.sum_of_outer([(HOPTANode.leaf(a1), HOPTANode.leaf(a2))])
    root = HOPTANode.sum_of_outer([(inner, HOPTANode.leaf(b))])
    got = hopta_reconstruct(root)
    want = outer_product(outer_product(a1, a2), b)
    assert np.allclose(got.data, want.data, rtol=1e-13, atol=1e-13)


def test_hopta_triple_factor_terms():
    rng = np.random.default_rng(17)
    nodes = [HOPTANode.leaf(rt((2,), 18 + k)) for k in range(3)]
    root = HOPTANode.sum_of_outer([tuple(nodes)])
    got = hopta_reconstruct(root)
    assert got.dims == (2, 2, 2)


def test_hopta_validation():
    leaf = HOPTANode.leaf(rt((2,), 20))
    with pytest.raises(ValueError):
        HOPTANode.sum_of_outer([(leaf,)])
    with pytest.raises(ValueError):
        HOPTANode.sum_of_outer([])
    with pytest.raises(ValueError, match="term 2"):
        HOPTANode.sum_of_outer([(leaf, HOPTANode.leaf(rt((3,), 21))),
                                (leaf, HOPTANode.leaf(rt((4,), 22)))])
    with pytest.raises(ValueError):
        HOPTANode(tensor=rt((2,), 23), terms=[(leaf, leaf)])


def test_model_storage_ktd_frozen():
    m = KTDModel([(rt((2, 2), 24), rt((3, 3), 25))])
    assert model_storage(m) == 13


def test_model_storage_leaf_only():
    leaf = HOPTANode.leaf(rt((4, 5), 26))
    assert model_storage(leaf) == 20


def test_model_storage_cpd_pattern_cross_count():
    # KTD storing R rank-1 terms as full tensors costs more than the CP
    # factor form unless the tensors are vectors; with order-1 A_r and scalar
    # B_r the counts line up with the CP factor column count
    rng = np.random.default_rng(27)
    vecs = [rng.standard_normal(5) for _ in range(2)]
    terms = [(HOPTANode.leaf(DenseTensor.from_array(v)),)
             for v in vecs]
    cp = CPModel(np.ones(2), [np.column_stack(vecs)])
    ktd = KTDModel([(DenseTensor.from_array(v), DenseTensor((1,), [1.0]))
                    for v in vecs])
    assert model_storage(ktd) == sum(v.size for v in vecs) + 2
    assert model_storage(cp) == sum(v.size for v in vecs) + 2


def test_model_storage_dispatch():
    with pytest.raises(TypeError):
        model_storage(object())
    assert model_storage(rt((2, 2), 28)) == 4


_MODELS = model_zoo()[1:]  # every kind but the dense tensor


@pytest.mark.parametrize("name, model, scheme", _MODELS,
                         ids=[z[0] for z in _MODELS])
def test_reconstruct_matches_family_function(name, model, scheme):
    family = {CPModel: cp_reconstruct, TuckerModel: tucker_reconstruct,
              FSTDModel: lambda m: tucker_reconstruct(m.tucker),
              TTModel: tt_reconstruct, TTMatrixModel: ttm_reconstruct,
              HOPTANode: hopta_reconstruct}
    want = qtt_decompress(model, scheme) if scheme is not None \
        else family[type(model)](model)
    got = reconstruct(model, scheme)
    assert got.dims == want.dims
    assert np.array_equal(got.data, want.data)
    if isinstance(model, (TTModel, TTMatrixModel)):
        with pytest.raises(ValueError, match="cap"):
            reconstruct(model, scheme, cap=1)


def test_reconstruct_rejects_non_models():
    with pytest.raises(TypeError):
        reconstruct(object())
