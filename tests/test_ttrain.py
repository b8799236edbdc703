"""Tensor trains: TT-SVD, MPO construction, representations, canonical forms,
rounding, ALS and MALS sweeps, strong-Kronecker chains, storage counts."""

import ast
import inspect
import textwrap
import tracemalloc
from math import prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import tenkit.cli as cli_module
import tenkit.cpd as cpd_module
import tenkit.ttrain as tt_module
import tenkit.tucker as tucker_module
from helpers import noisy_cp_cube, random_tt
from tenkit.cpd import cp_als
from tenkit.dense import (BIG_ENDIAN, _BLOCK, _SLICE, DenseTensor,
                          UnfoldingSpec, _rel_error, frobenius_norm, unfold,
                          unfold_general, vectorize)
from tenkit.quantize import QuantizationScheme, qtt_compress, qtt_decompress
from tenkit.ttrain import (TTMatrixModel, TTModel, _half_sweep, _left_factor,
                           _numerical_rank, _right_interfaces,
                           _truncated_split, _tsqr_r, tt_als,
                           tt_element, tt_mals, tt_norm, tt_orthogonalize,
                           tt_outer_sum, tt_reconstruct, tt_round, tt_storage,
                           tt_svd, tt_to_strong_kron, ttm_element,
                           ttm_reconstruct, ttm_storage, ttm_svd,
                           ttm_to_strong_kron)
from tenkit.tucker import hosvd, tucker_reconstruct


def fixture_tensor(seed=0, dims=(6, 6, 6, 6), ranks=(3, 4, 5)):
    return tt_reconstruct(random_tt(dims, ranks, seed))


def separable_tensor(seed=1, dims=(4, 3, 5)):
    rng = np.random.default_rng(seed)
    vecs = [rng.standard_normal(d) for d in dims]
    out = vecs[0]
    for v in vecs[1:]:
        out = np.multiply.outer(out, v)
    return DenseTensor.from_array(out)


def rel_err(t, m):
    return np.linalg.norm(t.data - tt_reconstruct(m).data) / frobenius_norm(t)


_property = settings(max_examples=60, deadline=None, derandomize=True,
                     database=None)


def test_tt_svd_exact_rank_recovery():
    t = fixture_tensor()
    m = tt_svd(t, eps=1e-12)
    assert m.ranks == (3, 4, 5)
    assert rel_err(t, m) <= 1e-12
    assert m.ortho_center == 4
    assert m.verify_orthogonality()


def test_tt_svd_separable_all_ranks_one():
    t = separable_tensor()
    m = tt_svd(t, eps=1e-12)
    assert m.ranks == (1, 1)
    assert rel_err(t, m) <= 1e-12


def test_tt_svd_eps_bound_and_rank_reduction():
    rng = np.random.default_rng(2)
    t = DenseTensor.from_array(rng.standard_normal((6, 6, 6, 6)))
    m = tt_svd(t, eps=0.1)
    assert rel_err(t, m) <= 0.1
    assert any(r < f for r, f in zip(m.ranks, (6, 36, 6)))
    for eps in (1e-2, 1e-6):
        m = tt_svd(t, eps=eps)
        assert rel_err(t, m) <= eps


def test_tt_svd_rank_caps_take_precedence():
    rng = np.random.default_rng(3)
    t = DenseTensor.from_array(rng.standard_normal((5, 5, 5)))
    m = tt_svd(t, eps=1e-12, max_ranks=2)
    assert all(r <= 2 for r in m.ranks)
    assert "cap" in m.meta["active_bounds"]
    with pytest.raises(ValueError):
        tt_svd(t)
    with pytest.raises(ValueError):
        tt_svd(t, eps=1.5)


@pytest.mark.parametrize("dims", [(7,), (1,), (1, 1, 1), (1, 5, 1),
                                  (4, 1, 3), (1, 3, 1, 2)])
def test_tt_svd_order_one_and_unit_dims(dims):
    t = DenseTensor.from_array(np.random.default_rng(list(dims))
                               .standard_normal(dims))
    m = tt_svd(t, eps=1e-12)
    assert m.dims == dims
    assert m.ranks == tuple(min(np.prod(dims[:k]), np.prod(dims[k:]))
                            for k in range(1, len(dims)))
    assert rel_err(t, m) <= 1e-12
    assert m.ortho_center == len(dims)
    assert m.verify_orthogonality()


def test_tt_element_matches_reconstruction():
    m = random_tt((3, 4, 2, 3), (2, 3, 2), seed=5)
    dense = tt_reconstruct(m)
    rng = np.random.default_rng(6)
    for _ in range(25):
        idx = [rng.integers(1, d + 1) for d in m.dims]
        assert np.isclose(tt_element(m, idx), dense.element(*idx),
                          rtol=1e-12, atol=1e-14)


def test_tt_element_rank_one_is_scalar_product():
    m = random_tt((3, 4, 5), (1, 1), seed=7)
    got = tt_element(m, (2, 3, 1))
    want = m.cores[0][0, 1, 0] * m.cores[1][0, 2, 0] * m.cores[2][0, 0, 0]
    assert np.isclose(got, want, rtol=1e-14)
    with pytest.raises(IndexError):
        tt_element(m, (2, 3, 9))


def test_tt_reconstruct_single_core():
    core = np.random.default_rng(8).standard_normal((1, 7, 1))
    m = TTModel([core])
    assert np.allclose(tt_reconstruct(m).data, core[0, :, 0], rtol=0, atol=0)


@_property
@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_tt_reconstruct_matches_einsum_chain(data, seed):
    # ranks up to 6 over dims up to 4: the bond where the two halves meet
    # can be wider than either half
    order = data.draw(st.integers(1, 8))
    dims = data.draw(st.lists(st.integers(1, 4), min_size=order,
                              max_size=order))
    ranks = data.draw(st.lists(st.integers(1, 6), min_size=order - 1,
                               max_size=order - 1))
    m = random_tt(dims, ranks, seed)
    # labels 0..N-1 are the modes, N..2N the bonds
    operands = []
    for n, c in enumerate(m.cores):
        operands += [c, [order + n, n, order + n + 1]]
    want = np.einsum(*operands, list(range(order)), optimize=True)
    scale = np.linalg.norm(want)
    got = tt_reconstruct(m)
    assert got.dims == tuple(dims)
    assert np.linalg.norm(got.to_array() - want) <= 1e-13 * scale
    # the same chain as a TT/MPO: sites 2k-1 and 2k fuse into core k, with
    # (row, col) = (2k-1, 2k) or swapped; an odd last site gets a unit column
    cores = list(m.cores) + ([np.ones((1, 1, 1))] if order % 2 else [])
    fused = [np.tensordot(a, b, axes=(2, 0))
             for a, b in zip(cores[::2], cores[1::2])]
    ttm_want = want.reshape(want.shape + (1,) * (order % 2))
    for swap in (False, True):
        mpo = TTMatrixModel(
            [c.transpose(0, 2, 1, 3) if swap else c for c in fused],
            [(2 * k + 2, 2 * k + 1) if swap else (2 * k + 1, 2 * k + 2)
             for k in range(len(fused))])
        rec = ttm_reconstruct(mpo)
        assert rec.dims == ttm_want.shape
        assert np.linalg.norm(rec.to_array() - ttm_want) <= 1e-13 * scale
    # the same chain as the QTT of a vector: the first virtual mode is the
    # fastest digit, so the vector is the tensor in first-index-fastest order;
    # a factor 1 is only allowed for a mode of size 1, so unit dims keep one
    # mode per site
    if 1 in dims and len(dims) > 1:
        scheme = QuantizationScheme(dims, [(d,) for d in dims])
    else:
        scheme = QuantizationScheme((prod(dims),), (tuple(dims),))
    vec = qtt_decompress(m, scheme)
    assert vec.dims == scheme.dims
    assert np.linalg.norm(vec.data - want.ravel(order="F")) <= 1e-13 * scale


def test_tt_reconstruct_allocates_little_beyond_its_output():
    # a rank-4 QTT of 2^16 entries: a chain from one end holds a 2^15 x 4
    # intermediate, twice the output; the halves are 2^8 x 4 each
    m = random_tt((2,) * 16, (4,) * 15, seed=41)
    out_bytes = 8 * 2 ** 16
    tracemalloc.start()
    try:
        tt_reconstruct(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= out_bytes + 2 ** 16


def test_tt_reconstruct_cap():
    m = random_tt((4, 4, 4), (2, 2), seed=9)
    with pytest.raises(ValueError, match="cap"):
        tt_reconstruct(m, cap=10)


def test_four_representations_agree():
    # scalar/slice products, chained contractions, outer-product sum, and the
    # strong-Kronecker vector must coincide entrywise
    m = random_tt((6, 6, 6, 6), (3, 4, 5), seed=10)
    dense = tt_reconstruct(m)
    outer = tt_outer_sum(m)
    scale = frobenius_norm(dense)
    assert np.linalg.norm(dense.data - outer.data) <= 1e-12 * scale
    _, vec = tt_to_strong_kron(m)
    assert np.linalg.norm(vec - vectorize(dense, BIG_ENDIAN)) <= 1e-12 * scale
    rng = np.random.default_rng(11)
    for _ in range(20):
        idx = [rng.integers(1, d + 1) for d in m.dims]
        assert np.isclose(tt_element(m, idx), dense.element(*idx),
                          rtol=1e-12, atol=1e-12 * scale)


def test_tt_orthogonalize_center_and_norm():
    m = random_tt((4, 3, 5, 3), (3, 4, 2), seed=12)
    dense = tt_reconstruct(m)
    norm = frobenius_norm(dense)
    for center in (1, 2, 4):
        w = tt_orthogonalize(m, center)
        assert w.ortho_center == center
        assert w.verify_orthogonality(tol=1e-12)
        assert np.isclose(np.linalg.norm(w.cores[center - 1]), norm, rtol=1e-12)
        err = np.linalg.norm(tt_reconstruct(w).data - dense.data)
        assert err <= 1e-12 * norm
    assert np.isclose(tt_norm(m), norm, rtol=1e-12)


def test_tt_orthogonalize_idempotent_on_canonical_input():
    m = tt_svd(fixture_tensor(seed=13), eps=1e-12)
    again = tt_orthogonalize(m, m.order)
    err = np.linalg.norm(tt_reconstruct(again).data -
                         tt_reconstruct(m).data)
    assert err <= 1e-12 * tt_norm(m)
    assert again.ranks == m.ranks


def _zero_pad(m: TTModel) -> TTModel:
    cores = []
    n = m.order
    chain = [1] + list(m.ranks) + [1]
    padded = [1] + [2 * r for r in m.ranks] + [1]
    for k, c in enumerate(m.cores):
        new = np.zeros((padded[k], c.shape[1], padded[k + 1]))
        new[:chain[k], :, :chain[k + 1]] = c
        cores.append(new)
    return TTModel(cores)


def test_tt_round_restores_padded_ranks():
    m = random_tt((5, 4, 5, 4), (2, 3, 2), seed=14)
    padded = _zero_pad(m)
    assert padded.ranks == (4, 6, 4)
    rounded = tt_round(padded, eps=1e-12)
    assert rounded.ranks == (2, 3, 2)
    err = np.linalg.norm(tt_reconstruct(rounded).data -
                         tt_reconstruct(m).data)
    assert err <= 1e-12 * tt_norm(m)


def test_tt_round_eps_zero_keeps_values():
    m = random_tt((4, 4, 4), (2, 3), seed=15)
    rounded = tt_round(m, eps=0.0)
    assert all(a <= b for a, b in zip(rounded.ranks, m.ranks))
    err = np.linalg.norm(tt_reconstruct(rounded).data -
                         tt_reconstruct(m).data)
    assert err <= 1e-12 * tt_norm(m)


def test_tt_round_residual_and_monotone_ranks():
    m = random_tt((6, 6, 6, 6), (4, 6, 4), seed=16)
    norm = tt_norm(m)
    rounded = tt_round(m, eps=1e-2)
    assert all(a <= b for a, b in zip(rounded.ranks, m.ranks))
    err = np.linalg.norm(tt_reconstruct(rounded).data -
                         tt_reconstruct(m).data)
    assert err <= 1e-2 * norm


def test_tt_round_idempotent():
    m = random_tt((5, 5, 5), (3, 3), seed=17)
    once = tt_round(m, eps=1e-3)
    twice = tt_round(once, eps=1e-3)
    assert twice.ranks == once.ranks
    err = np.linalg.norm(tt_reconstruct(twice).data -
                         tt_reconstruct(once).data)
    assert err <= 1e-12 * tt_norm(once)


def test_tt_round_rank_caps():
    m = random_tt((5, 5, 5), (4, 4), seed=18)
    rounded = tt_round(m, eps=0.0, max_ranks=[2, 3])
    assert rounded.ranks == (2, 3)


@pytest.mark.parametrize("eps", [-1e-3, float("nan"), float("inf")])
def test_tt_round_rejects_bad_eps(eps):
    m = random_tt((3, 3, 3), (2, 2), seed=18)
    with pytest.raises(ValueError, match="eps must be finite and >= 0"):
        tt_round(m, eps=eps)


def _textbook_round(m, eps, max_ranks):
    """TT rounding as first written, kept as the reference: right-
    orthogonalize site by site with QR, then take a full SVD of every bond
    and let the next core absorb s vt."""
    cores = [c.copy() for c in m.cores]
    for n in range(m.order - 1, 0, -1):
        c = cores[n]
        q, r = np.linalg.qr(c.reshape(c.shape[0], -1).T)
        cores[n] = q.T.reshape(q.shape[1], c.shape[1], c.shape[2])
        cores[n - 1] = np.tensordot(cores[n - 1], r.T, axes=(2, 0))
    budget = (eps * np.linalg.norm(cores[0])) ** 2 / max(m.order - 1, 1)
    caps = [max_ranks] * (m.order - 1) if np.isscalar(max_ranks) or \
        max_ranks is None else max_ranks
    for n in range(m.order - 1):
        c = cores[n]
        u, s, vt = np.linalg.svd(c.reshape(-1, c.shape[2]),
                                 full_matrices=False)
        tail = np.cumsum(s[::-1] ** 2)[::-1]
        r = s.size
        while r > 1 and tail[r - 1] <= budget:
            r -= 1
        r = r if caps[n] is None else min(r, caps[n])
        cores[n] = u[:, :r].reshape(c.shape[0], c.shape[1], r)
        cores[n + 1] = np.tensordot(s[:r, None] * vt[:r], cores[n + 1],
                                    axes=(1, 0))
    return TTModel(cores)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("eps,max_ranks", [
    (0.0, None), (1e-8, None), (0.05, None), (0.3, None),
    (0.0, 2), (0.05, [3, 1, 4, 2]),
])
def test_tt_round_matches_textbook_sweep(seed, eps, max_ranks):
    # over-ranked random chains, so every bond has something to truncate
    m = random_tt((3, 4, 2, 5, 3), (4, 6, 5, 3), seed=100 + seed)
    got, want = tt_round(m, eps, max_ranks), _textbook_round(m, eps, max_ranks)
    assert got.ranks == want.ranks
    diff = tt_reconstruct(got).data - tt_reconstruct(want).data
    assert np.linalg.norm(diff) <= 1e-12 * tt_norm(m)


def _left_cores_sign_fixed(cores):
    # the largest-magnitude entry of every column of each (R I, R') unfolding
    # is positive
    for c in cores:
        mat = c.reshape(-1, c.shape[2])
        assert np.all(mat[np.argmax(np.abs(mat), axis=0),
                          np.arange(mat.shape[1])] > 0)


def test_every_truncated_factor_has_one_sign_convention():
    t = tt_reconstruct(random_tt((4, 5, 3, 4), (3, 4, 3), seed=41))
    for kwargs in ({"eps": 1e-10}, {"ranks": (2, 3, 2, 3)}):
        _left_cores_sign_fixed(f[None] for f in hosvd(t, **kwargs).factors)
    _left_cores_sign_fixed(tt_svd(t, eps=1e-10).cores[:-1])
    _left_cores_sign_fixed(tt_svd(t, max_ranks=2).cores[:-1])
    _left_cores_sign_fixed(tt_round(random_tt((4, 5, 3, 4), (3, 4, 3),
                                              seed=42), eps=1e-3).cores[:-1])
    signal = DenseTensor.from_array(np.sin(np.linspace(0, 7, 64)) +
                                    np.linspace(-1, 1, 64) ** 3)
    _left_cores_sign_fixed(qtt_compress(signal, eps=1e-10)[0].cores[:-1])


def test_one_split_per_truncation(monkeypatch):
    calls = []

    def spy(mat, delta, cap):
        calls.append(mat.shape)
        return split(mat, delta, cap)

    split = tt_module._truncated_split
    monkeypatch.setattr(tt_module, "_truncated_split", spy)
    monkeypatch.setattr(tucker_module, "_truncated_split", spy)
    t = fixture_tensor(seed=43, dims=(4, 5, 3, 4, 3), ranks=(3, 4, 3, 2))
    tt_svd(t, eps=1e-6)
    assert len(calls) == 4
    calls.clear()
    tt_round(random_tt((4, 5, 3, 4, 3), (3, 4, 3, 2), seed=43), eps=1e-6)
    assert len(calls) == 4
    calls.clear()
    hosvd(t, eps=1e-6, identity_modes=(2, 5))
    assert [shape[0] for shape in calls] == [4, 3, 4]


def test_split_and_sweep_structure():
    # one truncation rule with one caller, one SVD site in ttrain, and no
    # loop of their own in tt_orthogonalize and tt_round (the chain sweep
    # holds it); one TSQR fold, which no Tucker or CP code bypasses, and no
    # unfolding copied whole for the CP start; one error rule, defined in
    # dense.py: the CLI's reports call it on two tensors, the sweeps and the
    # CP fit on the two factors of their last GEMM, and no difference of a
    # tensor and its reconstruction is formed anywhere else; one residual
    # path, with no cap, splitter or projection-identity fallback; one
    # layout path for the sweeps, with no copy of the input, no tensordot
    # and no interface of the whole chain
    def called_in(path, name, **keywords):
        # the functions that call ``name`` with at least these keywords
        tree = ast.parse(Path(path).read_text())
        want = {(key, repr(value)) for key, value in keywords.items()}
        return {fn.name for fn in ast.walk(tree)
                if isinstance(fn, ast.FunctionDef) and fn.name != name and
                any(isinstance(c, ast.Call) and ast.unparse(c.func) == name and
                    want <= {(k.arg, ast.unparse(k.value)) for k in c.keywords}
                    for c in ast.walk(fn))}

    src = Path(tt_module.__file__).parent
    callers = set().union(*(called_in(p, "_truncation_rank")
                            for p in src.glob("*.py")))
    assert callers == {"_truncated_split"}
    assert called_in(tt_module.__file__, "np.linalg.svd") == {"_left_factor"}
    assert called_in(tt_module.__file__, "np.linalg.qr", mode="r") == {"_tsqr_r"}
    for module in (tucker_module, cpd_module):
        assert called_in(module.__file__, "np.linalg.qr") == set()
    assert called_in(cpd_module.__file__, "unfold") == set()
    assert {p.name for p in src.glob("*.py")
            if called_in(p, "_tsqr_group")} == {"ttrain.py"}
    for rule in ("_rel_error", "_error_ratio", "_product_error"):
        defines = {p.name for p in src.glob("*.py")
                   if any(isinstance(fn, ast.FunctionDef) and fn.name == rule
                          for fn in ast.walk(ast.parse(p.read_text())))}
        assert defines == {"dense.py"}, rule
    assert set().union(*(called_in(p, "_product_error")
                         for p in src.glob("*.py"))) == {"_cp_fit", "_residual"}
    assert set().union(*(called_in(p, "_rel_error")
                         for p in src.glob("*.py"))) == {
        "cmd_decompose", "cmd_reconstruct", "cmd_bench"}
    residual = ast.parse(inspect.getsource(tt_module._residual))
    assert not any(isinstance(node, (ast.If, ast.IfExp))
                   for node in ast.walk(residual))
    for fn in (tt_als, tt_mals):
        params = inspect.signature(fn).parameters
        assert not {"cap", "splitter"} & set(params), fn.__name__
    assert not hasattr(tt_module, "_svd_splitter")
    for module in (cli_module, cpd_module, tt_module):
        assert called_in(module.__file__, "np.subtract") == set()
    for name in ("np.tensordot", "np.ascontiguousarray"):
        assert called_in(tt_module.__file__, name) == set(), name
    cores = tt_orthogonalize(random_tt((2, 3, 4, 3), (2, 3, 2), seed=7), 1).cores
    for layout in ("C", "F"):
        envs = _right_interfaces(cores, layout)
        assert envs[0] is None and envs[1].shape == (2, 36), layout
    assert not hasattr(tt_module, "_tt_buffer")
    assert not hasattr(cpd_module, "_cp_buffer")
    for fn in (tt_orthogonalize, tt_round):
        tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
        assert not any(isinstance(node, (ast.For, ast.While, ast.comprehension))
                       for node in ast.walk(tree)), fn.__name__


def test_tt_als_exact_rank_target():
    t = fixture_tensor(seed=19, dims=(5, 5, 5, 5), ranks=(2, 3, 2))
    m = tt_als(t, (2, 3, 2), max_sweeps=2, seed=0)
    hist = m.meta["residual_history"]
    assert hist[-1] <= 1e-10


def test_tt_als_separable_rank_one():
    t = separable_tensor(seed=20)
    m = tt_als(t, 1, max_sweeps=3, seed=1)
    assert m.meta["residual_history"][-1] <= 1e-10


def test_tt_als_residual_monotone():
    rng = np.random.default_rng(21)
    t = DenseTensor.from_array(rng.standard_normal((5, 5, 5, 5)))
    m = tt_als(t, (2, 2, 2), max_sweeps=8, tol=0.0, seed=2)
    hist = np.array(m.meta["residual_history"])
    assert np.all(np.diff(hist) <= 1e-12)


def test_residual_history_is_bitwise_the_plain_difference(monkeypatch):
    # the residual is the one error rule, dense._rel_error, on the
    # reconstruction's blocks; a tensor of one block gets it bit for bit.
    # Below one slice its sum of squares is numpy's own over the whole
    # difference, so every entry also equals |t - rec| / |t| bit for bit;
    # over several slices, or several blocks, it agrees within roundoff
    rng = np.random.default_rng(23)
    t = DenseTensor.from_array(rng.standard_normal((4, 5, 4, 3)))
    big = DenseTensor.from_array(rng.standard_normal((6, 7, 8, 9, 5)))
    blocks = DenseTensor.from_array(rng.standard_normal((4,) * 9))
    assert t.size < _SLICE < big.size // 3 and big.size < _BLOCK
    assert blocks.size >= 4 * _BLOCK
    residual, seen = tt_module._residual, []

    def checked(t, cores, norm_t):
        rec = tt_reconstruct(TTModel(list(cores)))
        seen.append((residual(t, cores, norm_t),
                     _rel_error(t, rec),
                     tt_module._norm(t.data - rec.data) / norm_t))
        return seen[-1][0]
    monkeypatch.setattr(tt_module, "_residual", checked)
    tt_als(t, (2, 3, 2), max_sweeps=3, tol=0.0, seed=3)
    tt_mals(t, eps=0.3, max_sweeps=2, seed=4)
    small = len(seen)
    tt_als(big, (2, 3, 3, 2), max_sweeps=2, tol=0.0, seed=5)
    one_block = len(seen)
    tt_als(blocks, 2, max_sweeps=1, tol=0.0, seed=6)
    assert small >= 8 and len(seen) == one_block + 2 == small + 6
    assert all(new == rule == old > 0 for new, rule, old in seen[:small])
    assert all(new == rule and abs(new - old) <= 1e-14 * old
               for new, rule, old in seen[small:one_block])
    assert all(abs(new - rule) <= 1e-14 * rule and
               abs(new - old) <= 1e-14 * old
               for new, rule, old in seen[one_block:])


def test_residual_holds_one_tensor_sized_temporary():
    # the reconstruction is formed one 2^16-entry block at a time in one
    # buffer, and each block's difference one 32 KB slice at a time beside
    # it, so a 2^16-entry tensor and a 2^20-entry one share one bound; the
    # chain's two halves add 16 R sqrt(size) bytes
    for sites, rank in ((16, 4), (20, 1)):
        shape, ranks = (2,) * sites, (rank,) * (sites - 1)
        m = random_tt(shape, ranks, seed=41)
        t = tt_reconstruct(random_tt(shape, ranks, seed=42))
        tracemalloc.start()
        try:
            tt_module._residual(t, m.cores, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2 ** 16 + 2 ** 16, sites


def test_sweeps_hold_no_copy_and_no_whole_chain_interface():
    # both half-sweeps read the canonical buffer and no interface of the
    # whole chain is built. On 4^8 with ranks 4, 6, ..., 6, 4 the right
    # interfaces sum to about 1.5 tensor sizes (the first, R_1 x size/I_1,
    # is one) and the first projection is one more, so a sweep peaks below
    # three; a C-order copy of the input and a (1, size) interface would add
    # one size each
    dims, ranks = (4,) * 8, (4, 6, 6, 6, 6, 6, 4)
    t = tt_reconstruct(random_tt(dims, ranks, seed=3))
    for fit in (lambda: tt_als(t, ranks, max_sweeps=1, tol=0.0, seed=0),
                lambda: tt_mals(t, eps=1e-2, max_sweeps=1, seed=0)):
        tracemalloc.start()
        try:
            fit()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * t.data.nbytes


def test_tt_als_needs_ranks():
    with pytest.raises(TypeError, match="tt_als needs ranks"):
        tt_als(separable_tensor(), None)


def test_tt_als_infeasible_ranks():
    t = separable_tensor(seed=22, dims=(3, 3, 3))
    with pytest.raises(ValueError, match="infeasible"):
        tt_als(t, (9, 2), max_sweeps=1)


@pytest.mark.parametrize("tol", [float("nan"), -1e-12, float("inf")])
def test_tt_als_rejects_a_tol_that_cannot_stop(tol):
    with pytest.raises(ValueError, match="tol must be finite"):
        tt_als(separable_tensor(), 1, tol=tol)


@pytest.mark.parametrize("fit", [
    lambda t, n: tt_als(t, 1, max_sweeps=n),
    lambda t, n: tt_mals(t, eps=1e-2, max_sweeps=n),
], ids=["als", "mals"])
def test_sweeps_reject_negative_max_sweeps(fit):
    with pytest.raises(ValueError, match="max_sweeps must be >= 0"):
        fit(separable_tensor(), -1)


@pytest.mark.parametrize("fit", [
    lambda t: tt_als(t, 1), lambda t: tt_mals(t, eps=1e-2),
], ids=["als", "mals"])
@pytest.mark.parametrize("bad", ["all-nan", "one-inf"])
def test_sweeps_reject_non_finite_input(fit, bad):
    x = separable_tensor().to_array().copy()
    if bad == "all-nan":
        x[...] = np.nan
    else:
        x[1, 2, 3] = np.inf
    with pytest.raises(ValueError, match="norm of the tensor is (nan|inf)"):
        fit(DenseTensor.from_array(x))


def _einsum_half_sweep(arr, cores, caps, width, split):
    """The half-sweep as first written, kept as the reference: every window
    contracts the whole tensor with explicit left and right interfaces."""
    n_modes = len(cores)
    dims = arr.shape
    renvs = {n_modes: np.ones((1, 1))}
    for k in range(n_modes - 1, 0, -1):
        renvs[k] = np.tensordot(cores[k], renvs[k + 1], axes=(2, 0)).reshape(
            cores[k].shape[0], -1)
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


@_property
@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_half_sweep_matches_einsum_formulation(data, seed):
    # width 1 with the QR split of ALS, width 2 with the truncated SVD split
    # of MALS under per-bond caps; dims include 1; the tensor is read in
    # either layout, as the two halves of a sweep read it
    order = data.draw(st.integers(2, 6))
    dims = data.draw(st.lists(st.integers(1, 4), min_size=order,
                              max_size=order))
    ranks = data.draw(st.lists(st.integers(1, 4), min_size=order - 1,
                               max_size=order - 1))
    width = data.draw(st.sampled_from([1, 2]))
    layout = data.draw(st.sampled_from(["C", "F"]))
    arr = np.asarray(np.random.default_rng(seed).standard_normal(dims),
                     order=layout)
    if width == 1:
        caps = [None] * (order - 1)

        def split(mat, _):
            return np.linalg.qr(mat)
    else:
        caps = data.draw(st.lists(st.one_of(st.none(), st.integers(1, 4)),
                                  min_size=order - 1, max_size=order - 1))
        delta = data.draw(st.sampled_from([0.0, 1e-3, 0.3])) * \
            np.linalg.norm(arr) / np.sqrt(order - 1)

        def split(mat, cap):
            return _truncated_split(mat, delta, cap)[:2]
    start = tt_orthogonalize(random_tt(dims, ranks, seed), 1).cores
    got, want = list(start), list(start)
    _half_sweep(arr, layout, got, caps, width, split)
    _einsum_half_sweep(arr, want, caps, width, split)
    assert [c.shape for c in got] == [c.shape for c in want]
    scale = np.linalg.norm(arr)
    for g, w in zip(got, want):
        assert np.allclose(g, w, rtol=0, atol=1e-11 * scale)
    diff = tt_reconstruct(TTModel(got)).data - tt_reconstruct(TTModel(want)).data
    assert np.linalg.norm(diff) <= 1e-12 * scale


def test_sweeps_make_no_einsum_calls(monkeypatch):
    calls = []
    einsum = np.einsum

    def spy(*args, **kwargs):
        calls.append(args[0])
        return einsum(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", spy)
    t = fixture_tensor(seed=19, dims=(5, 5, 5, 5), ranks=(2, 3, 2))
    tt_als(t, (2, 3, 2), max_sweeps=2, tol=0.0, seed=0)
    tt_mals(t, eps=1e-8, max_sweeps=2, seed=0)
    assert calls == []
    np.einsum("ii", np.eye(2))  # the spy sees calls through numpy
    assert calls == ["ii"]


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_tt_als_residual_monotone_on_bench_shaped_input(seed):
    # as in the benchmark's TT sweeps, at order 8: a rank-6 TT of mode 4
    # plus noise at 1e-3, fitted at its true ranks for three full sweeps
    sites = 8
    ranks = [min(6, 4 ** k, 4 ** (sites - k)) for k in range(1, sites)]
    clean = tt_reconstruct(random_tt((4,) * sites, ranks, seed)).to_array()
    noise = np.random.default_rng(seed + 100).standard_normal(clean.shape)
    noise *= 1e-3 * np.linalg.norm(clean) / np.linalg.norm(noise)
    t = DenseTensor.from_array(clean + noise)
    hist = tt_als(t, ranks, max_sweeps=3, tol=0.0, seed=seed) \
        .meta["residual_history"]
    assert len(hist) == 6
    assert all(b <= a * (1 + 1e-12) for a, b in zip(hist, hist[1:]))
    assert hist[-1] <= 2e-3


def test_tt_mals_rank_adaptation_recovers_fixture():
    t = fixture_tensor(seed=23)
    m = tt_mals(t, eps=1e-8, max_sweeps=6, seed=0)
    assert m.ranks == (3, 4, 5)
    assert m.meta["residual_history"][-1] <= 1e-8
    assert len(m.meta["residual_history"]) <= 12  # six sweeps, two halves each


def test_tt_mals_separable_stays_rank_one():
    t = separable_tensor(seed=24)
    m = tt_mals(t, eps=1e-10, max_sweeps=4, seed=1)
    assert m.ranks == (1, 1)
    assert m.meta["residual_history"][-1] <= 1e-10


def test_tt_mals_per_bond_caps_not_palindromic():
    rng = np.random.default_rng(40)
    t = DenseTensor.from_array(rng.standard_normal((4,) * 5))
    caps = (1, 3, 2, 3)
    for sweeps in (1, 2):  # both end on a right-to-left (mirrored) half
        m = tt_mals(t, eps=1e-6, max_sweeps=sweeps, seed=0, max_ranks=caps)
        assert len(m.meta["residual_history"]) == 2 * sweeps
        assert m.ranks == caps


@pytest.mark.parametrize("fit, halves", [
    (lambda t: tt_als(t, (2, 3, 2), seed=0), 3),  # stalls after an l-to-r half
    (lambda t: tt_als(t, (2, 3, 2), max_sweeps=2, tol=0.0, seed=1), 4),
    (lambda t: tt_mals(t, eps=1e-8, seed=0), 1),
    (lambda t: tt_mals(t, eps=1e-8, max_sweeps=1, seed=1, max_ranks=1), 2),
], ids=["als-stall", "als-full-sweeps", "mals-eps", "mals-full-sweep"])
def test_sweeps_declare_a_valid_ortho_center(fit, halves):
    t = fixture_tensor(seed=19, dims=(5, 5, 5, 5), ranks=(2, 3, 2))
    m = fit(t)
    assert len(m.meta["residual_history"]) == halves
    assert m.ortho_center == (t.order if halves % 2 else 1)
    assert m.verify_orthogonality()


def test_zero_sweeps_return_the_orthogonalized_start():
    t = fixture_tensor(seed=19, dims=(5, 5, 5, 5), ranks=(2, 3, 2))
    for m, ranks in ((tt_als(t, (2, 3, 2), max_sweeps=0, seed=0), (2, 3, 2)),
                     (tt_mals(t, eps=1e-8, max_sweeps=0, seed=0), (1, 1, 1))):
        assert m.meta["residual_history"] == []
        assert m.ranks == ranks
        assert m.ortho_center == 1
        assert m.verify_orthogonality()


def test_tt_mals_looser_eps_never_needs_larger_ranks():
    rng = np.random.default_rng(25)
    t = DenseTensor.from_array(rng.standard_normal((5, 5, 5)))
    tight = tt_mals(t, eps=1e-6, max_sweeps=6, seed=2)
    loose = tt_mals(t, eps=0.3, max_sweeps=6, seed=2)
    assert all(l <= t_ for l, t_ in zip(loose.ranks, tight.ranks))
    with pytest.raises(ValueError):
        tt_mals(t, eps=0.0)


def test_tt_to_strong_kron_single_core():
    core = np.random.default_rng(26).standard_normal((1, 6, 1))
    blocks, vec = tt_to_strong_kron(TTModel([core]))
    assert len(blocks) == 1
    assert np.array_equal(vec, core[0, :, 0])


def test_tt_to_strong_kron_fixture_equality():
    m = random_tt((6, 6, 6, 6), (3, 4, 5), seed=27)
    _, vec = tt_to_strong_kron(m)
    want = vectorize(tt_reconstruct(m), BIG_ENDIAN)
    assert np.linalg.norm(vec - want) <= 1e-12 * np.linalg.norm(want)


def test_ttm_svd_identity_tensorization():
    eye = np.eye(8).reshape(2, 2, 2, 2, 2, 2)
    # modes (i1, i2, i3; j1, j2, j3) of the 8x8 identity: pair (i_k, j_k)
    t = DenseTensor.from_array(eye.transpose(0, 3, 1, 4, 2, 5))
    m = ttm_svd(t, eps=1e-12)
    assert m.ranks == (1, 1)
    for c in m.cores:
        assert np.allclose(c[0, :, :, 0] / c[0, 0, 0, 0],
                           np.eye(2), rtol=0, atol=1e-12)


def test_ttm_svd_single_pair():
    rng = np.random.default_rng(28)
    t = DenseTensor.from_array(rng.standard_normal((3, 4)))
    m = ttm_svd(t, eps=0.0)
    assert m.order == 1
    assert np.allclose(ttm_reconstruct(m).data, t.data, rtol=0, atol=1e-14)


def test_ttm_svd_reconstruction_and_order():
    rng = np.random.default_rng(29)
    t = DenseTensor.from_array(rng.standard_normal((2, 3, 2, 2, 3, 2)))
    m = ttm_svd(t, eps=1e-10)
    rec = ttm_reconstruct(m)
    assert rec.dims == t.dims
    assert np.linalg.norm(rec.data - t.data) <= 1e-10 * frobenius_norm(t)
    for _ in range(10):
        idx = [rng.integers(1, d + 1) for d in t.dims]
        assert np.isclose(ttm_element(m, idx), rec.element(*idx),
                          rtol=1e-11, atol=1e-12)


def test_ttm_svd_explicit_pairing():
    rng = np.random.default_rng(30)
    t = DenseTensor.from_array(rng.standard_normal((2, 3, 4, 2)))
    m = ttm_svd(t, pairing=[(1, 3), (2, 4)], eps=1e-12)
    rec = ttm_reconstruct(m)
    assert rec.dims == t.dims
    assert np.linalg.norm(rec.data - t.data) <= 1e-12 * frobenius_norm(t)
    with pytest.raises(ValueError):
        ttm_svd(t, pairing=[(1, 2), (2, 4)])
    with pytest.raises(ValueError):
        ttm_svd(DenseTensor.from_array(rng.standard_normal((2, 2, 2))))


@_property
@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_ttm_round_trips_under_random_pairings(data, seed):
    n_pairs = data.draw(st.integers(1, 3))
    dims = tuple(data.draw(st.lists(st.integers(1, 3), min_size=2 * n_pairs,
                                    max_size=2 * n_pairs)))
    modes = data.draw(st.permutations(range(1, 2 * n_pairs + 1)))
    pairing = [(modes[2 * k], modes[2 * k + 1]) for k in range(n_pairs)]
    rng = np.random.default_rng(seed)
    # ttm_reconstruct against an einsum over the pairing's mode labels
    ranks = [1] + [int(r) for r in rng.integers(1, 4, n_pairs - 1)] + [1]
    cores = [rng.standard_normal((ranks[k], dims[i - 1], dims[j - 1],
                                  ranks[k + 1]))
             for k, (i, j) in enumerate(pairing)]
    operands = []
    for k, (c, (i, j)) in enumerate(zip(cores, pairing)):
        operands += [c, [2 * n_pairs + k, i - 1, j - 1, 2 * n_pairs + k + 1]]
    want = np.einsum(*operands, list(range(2 * n_pairs)))
    got = ttm_reconstruct(TTMatrixModel(cores, pairing))
    assert got.dims == dims
    assert np.linalg.norm(got.to_array() - want) <= \
        1e-13 * np.linalg.norm(want)
    # ttm_svd -> ttm_reconstruct reproduces the tensor; entries agree with
    # the slice products of the cores
    t = DenseTensor.from_array(rng.standard_normal(dims))
    m = ttm_svd(t, pairing=pairing, eps=0.0)
    assert m.pairing == pairing
    assert m.row_dims == tuple(dims[i - 1] for i, _ in pairing)
    assert m.col_dims == tuple(dims[j - 1] for _, j in pairing)
    rec = ttm_reconstruct(m)
    assert rec.dims == dims
    assert np.linalg.norm(rec.data - t.data) <= 1e-12 * frobenius_norm(t)
    idx = [int(rng.integers(1, d + 1)) for d in dims]
    assert np.isclose(ttm_element(m, idx), t.element(*idx), rtol=1e-12,
                      atol=1e-12)


def test_ttm_strong_kron_matches_grouped_unfolding():
    rng = np.random.default_rng(31)
    t = DenseTensor.from_array(rng.standard_normal((2, 3, 2, 2, 3, 2)))
    m = ttm_svd(t, eps=1e-12)
    _, mat = ttm_to_strong_kron(m)
    rows = tuple(p[0] for p in m.pairing)
    cols = tuple(p[1] for p in m.pairing)
    want = unfold_general(t, UnfoldingSpec(rows, cols, BIG_ENDIAN))
    assert np.linalg.norm(mat - want) <= 1e-12 * np.linalg.norm(want)


def test_tt_storage_frozen_example():
    m = random_tt((10, 10, 10, 10), (5, 5, 5), seed=32)
    assert tt_storage(m) == 10 * 5 + 5 * 10 * 5 + 5 * 10 * 5 + 5 * 10


def test_tt_storage_rank_one_chain():
    m = random_tt((4, 6, 3), (1, 1), seed=33)
    assert tt_storage(m) == 4 + 6 + 3


def test_ttm_storage_count():
    rng = np.random.default_rng(34)
    cores = [rng.standard_normal((1, 2, 3, 4)),
             rng.standard_normal((4, 2, 3, 1))]
    m = TTMatrixModel(cores)
    assert ttm_storage(m) == 1 * 2 * 3 * 4 + 4 * 2 * 3 * 1


def test_tt_model_validation():
    rng = np.random.default_rng(35)
    with pytest.raises(ValueError, match="boundary"):
        TTModel([rng.standard_normal((2, 3, 1))])
    with pytest.raises(ValueError, match="rank mismatch"):
        TTModel([rng.standard_normal((1, 3, 2)),
                 rng.standard_normal((3, 3, 1))])


def test_tt_svd_step_matrices_match_general_unfolding():
    # the matrix split at step k is the rank factorization of the generalized
    # unfolding with the first k modes as rows (big-endian index grouping)
    m = tt_svd(fixture_tensor(seed=36), eps=1e-13)
    t = fixture_tensor(seed=36)
    for k in range(1, 4):
        left = np.ones((1, 1))
        for c in m.cores[:k]:
            left = np.tensordot(left, c, axes=(1, 0))
            left = left.reshape(-1, c.shape[2])
        right = np.ones((1, 1))
        for c in reversed(m.cores[k:]):
            right = np.tensordot(c, right, axes=(2, 0))
            right = right.reshape(c.shape[0], -1)
        rows = tuple(range(1, k + 1))
        cols = tuple(range(k + 1, 5))
        want = unfold_general(t, UnfoldingSpec(rows, cols, BIG_ENDIAN))
        assert np.linalg.norm(left @ right - want) <= 1e-12 * \
            np.linalg.norm(want)


def test_tt_orthogonalize_explicit_gram_products():
    m = random_tt((4, 3, 4, 3), (2, 3, 2), seed=37)
    w = tt_orthogonalize(m, 3)
    for n, c in enumerate(w.cores, start=1):
        if n < 3:
            mat = c.reshape(-1, c.shape[2])
            gram = mat.T @ mat
            assert np.max(np.abs(gram - np.eye(c.shape[2]))) <= 1e-12
        elif n > 3:
            mat = c.reshape(c.shape[0], -1)
            gram = mat @ mat.T
            assert np.max(np.abs(gram - np.eye(c.shape[0]))) <= 1e-12


@pytest.mark.parametrize("shape,rank", [
    ((5, 40), None), ((40, 5), None), ((7, 7), None),      # wide, tall, square
    ((6, 50), 2), ((50, 6), 3), ((7, 7), 4),               # rank-deficient
    ((4, 9), 0), ((9, 4), 0),                              # all zero
    ((1, 30), None), ((30, 1), None),
    # transposes of two or more row blocks of the tall-skinny QR, with rows
    # left over that fill no block
    ((3, 100003), None), ((128, 2125), None),
    ((16, 20000), 3), ((8, 40000), 0),
    ((32, 20000), "graded"),                # singular values 1 .. 1e-15
])
def test_left_factor_matches_svd(shape, rank):
    rng = np.random.default_rng(list(shape))
    if rank is None:
        mat = rng.standard_normal(shape)
    elif rank == "graded":
        k = min(shape)
        left = np.linalg.qr(rng.standard_normal((shape[0], k)))[0]
        right = np.linalg.qr(rng.standard_normal((shape[1], k)))[0]
        mat = (left * np.logspace(0, -15, k)) @ right.T
    else:
        mat = (rng.standard_normal((shape[0], rank))
               @ rng.standard_normal((rank, shape[1])))
    u, s = _left_factor(mat)
    u0, s0, _ = np.linalg.svd(mat, full_matrices=False)
    k = min(shape)
    assert u.shape == (shape[0], k) and s.shape == (k,)
    smax = s0[0]
    assert np.all(np.abs(s - s0) <= 1e-12 * smax)
    assert np.allclose(u.T @ u, np.eye(k), rtol=0, atol=1e-12)
    # leading subspaces agree wherever a spectral gap separates them
    for j in range(1, k + 1):
        below = s0[j] if j < k else 0.0
        if s0[j - 1] - below > 1e-6 * smax:
            p, p0 = u[:, :j] @ u[:, :j].T, u0[:, :j] @ u0[:, :j].T
            assert np.allclose(p, p0, rtol=0, atol=1e-8)


@pytest.mark.parametrize("shape,calls", [
    # 5000 x 64 transpose: two blocks of 2048 rows, 904 left over
    ((64, 5000), [("qr", (2, 2048, 64)), ("qr", (2 * 64 + 904, 64)),
                  ("svd", (64, 64))]),
    # fewer than two blocks: one QR of the whole transpose
    ((64, 4000), [("qr", (4000, 64)), ("svd", (64, 64))]),
    ((40, 30), [("svd", (40, 30))]),        # not wide: direct SVD
])
def test_left_factor_calls(monkeypatch, shape, calls):
    # the blocks are factored by one stacked QR, their triangles and the
    # leftover rows by one more, and the SVD sees only the n x n triangle
    seen = []

    def spy(name, fn):
        def wrapped(a, *args, **kwargs):
            seen.append((name, a.shape))
            return fn(a, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(np.linalg, "qr", spy("qr", np.linalg.qr))
    monkeypatch.setattr(np.linalg, "svd", spy("svd", np.linalg.svd))
    _left_factor(np.random.default_rng(0).standard_normal(shape))
    assert seen == calls


@pytest.mark.parametrize("rtol", [0.0, 1e-12, 1e-3, 0.5])
def test_numerical_rank(rtol):
    assert _numerical_rank(np.zeros(0), rtol) == 0
    assert _numerical_rank(np.zeros(5), rtol) == 0
    graded = np.array([3.0, 1.0, 1e-2, 1e-6, 1e-13, 1e-15, 0.0])
    for s in (graded, graded[:1], graded[:5], np.zeros(5) + 2.0):
        want = np.linalg.matrix_rank(np.diag(s), tol=rtol * s[0])
        assert _numerical_rank(s, rtol) == want


@st.composite
def _fold_inputs(draw):
    # an m x n matrix as row blocks of random sizes: empty, one row, a few
    # rows (so m may be below n), and b to 3b rows, which are cut into
    # b-row blocks or kept whole and make the kept rows refold past 2b
    n = draw(st.sampled_from([1, 2, 3, 7, 64, 128, 150]))
    b = max(8 * n, 2 ** 17 // n)
    sizes = draw(st.lists(st.one_of(st.integers(0, 1), st.integers(2, 3 * n),
                                    st.integers(b, 3 * b)),
                          min_size=1, max_size=5).filter(any))
    return n, sizes, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_fold_inputs())
@example((1, [1, 0, 300000], 0))              # n = 1, m past 2b = 262144
@example((7, [2, 0, 3], 1))                   # m < n
@example((64, [3000, 1, 3000, 0, 5000], 2))   # refolds past 2b = 4096 rows
def test_tsqr_fold_of_any_row_blocks(inputs):
    n, sizes, seed = inputs
    m, cuts = sum(sizes), np.cumsum(sizes)[:-1]
    a = np.random.default_rng(seed).standard_normal((m, n))
    r = _tsqr_r(iter(np.split(a, cuts)))
    assert r.shape == (min(m, n), n)
    assert np.allclose(r.T @ r, a.T @ a, rtol=0,
                       atol=1e-13 * np.linalg.norm(a) ** 2)
    s, s0 = (np.linalg.svd(x, compute_uv=False) for x in (r, a))
    assert np.all(np.abs(s - s0) <= 1e-13 * s0[0])
    again = _tsqr_r(blk.copy() for blk in np.split(a, cuts))
    assert again.tobytes() == r.tobytes()
    # a source that reuses one buffer: nothing of a block is read after
    # the next one is pulled
    buf = np.empty((max(sizes), n))

    def reused():
        for blk in np.split(a, cuts):
            buf[:len(blk)] = blk
            yield buf[:len(blk)]
    assert _tsqr_r(reused()).tobytes() == r.tobytes()


@pytest.mark.parametrize("dims, n, bitwise", [
    ((4, 64, 2048), 1, True),    # I_<n = 1: groups of 2b = 65536 rows
    ((4, 64, 2048), 2, True),    # I_<n = 4 divides 2b = 4096
    ((4, 64, 2048), 3, True),    # tall: the direct SVD
    ((4096, 64, 3), 2, True),    # I_<n = 2b = 4096: one slab per block
    ((3, 64, 4000), 2, False),   # I_<n = 3: blocks of 4098 rows
    ((5, 7, 9, 11), 3, True),    # below 2b rows: one block, one QR
])
def test_unfolding_factor_reads_slabs(dims, n, bitwise):
    t = DenseTensor.from_array(
        np.random.default_rng(sum(dims)).standard_normal(dims))
    u, s = tt_module._unfolding_factor(t, n)
    u0, s0 = _left_factor(unfold(t, n))
    if bitwise:
        assert u.tobytes() == u0.tobytes() and s.tobytes() == s0.tobytes()
    assert np.all(np.abs(s - s0) <= 1e-13 * s0[0])
    assert np.allclose(np.abs(u.T @ u0), np.eye(len(s)), atol=1e-10)


def test_left_factor_blocked_is_deterministic():
    # model containers must be byte-identical whenever the input is
    mat = np.random.default_rng(7).standard_normal((6, 300001))
    u, s = _left_factor(mat)
    for again in (mat, mat.copy()):
        u2, s2 = _left_factor(again)
        assert u2.tobytes() == u.tobytes() and s2.tobytes() == s.tobytes()


@pytest.mark.parametrize("noise", [1e-4, 0.0])
def test_fitters_on_blocked_unfoldings(noise):
    # every 64 x 4096 unfolding of a 64^3 cube takes the blocked QR
    t, _ = noisy_cp_cube(64, seed=5, noise=noise)
    x = t.to_array()
    norm = np.linalg.norm(x)
    for eps in (1e-3, 1e-6):
        err = np.linalg.norm(tucker_reconstruct(hosvd(t, eps=eps)).to_array() - x)
        assert err <= eps * norm
        err = np.linalg.norm(tt_reconstruct(tt_svd(t, eps=eps)).to_array() - x)
        assert err <= eps * norm
    mode_ranks = [np.linalg.matrix_rank(unfold(t, n)) for n in (1, 2, 3)]
    assert mode_ranks == ([64] * 3 if noise else [4] * 3)
    for rank in (4, 5):
        _, diag = cp_als(t, rank, max_iters=1, seed=0)
        assert diag.overfactored == any(rank > r for r in mode_ranks)
