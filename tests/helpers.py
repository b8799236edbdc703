"""Shared test fixtures: seeded ground-truth models and alignment scoring."""

import itertools
import json
import struct
from pathlib import Path

import numpy as np

from tenkit.blockmodels import HOPTANode
from tenkit.cpd import CPModel, normalize
from tenkit.cur import fstd
from tenkit.dense import DenseTensor
from tenkit.ops import multilinear_product
from tenkit.quantize import qtt_compress
from tenkit.tucker import hosvd
from tenkit.ttrain import TTModel, ttm_svd


def well_conditioned_cp(dims, rank, seed, max_cond=5.0):
    """Random CP ground truth whose factors have bounded condition number."""
    rng = np.random.default_rng(seed)
    factors = []
    for d in dims:
        while True:
            f = rng.standard_normal((d, rank))
            if np.linalg.cond(f) <= max_cond:
                factors.append(f)
                break
    return normalize(CPModel(np.ones(rank), factors))


def noisy_cp_cube(dim, seed, rank=4, noise=1e-4):
    """dim^3 tensor of Gaussian CP-rank-``rank`` factors plus Gaussian noise
    at relative level ``noise``; returns the tensor and its noise ratio."""
    rng = np.random.default_rng(seed)
    factors = [rng.standard_normal((dim, rank)) for _ in range(3)]
    clean = np.einsum("ir,jr,kr->ijk", *factors)
    e = rng.standard_normal(clean.shape)
    e *= noise * np.linalg.norm(clean) / np.linalg.norm(e)
    x = clean + e
    return DenseTensor.from_array(x), float(np.linalg.norm(e) / np.linalg.norm(x))


def random_tucker_tensor(dims, ranks, seed):
    """Tensor of exact multilinear rank ``ranks`` from orthonormal factors."""
    rng = np.random.default_rng(seed)
    core = DenseTensor.from_array(rng.standard_normal(tuple(ranks)))
    factors = [np.linalg.qr(rng.standard_normal((d, r)))[0]
               for d, r in zip(dims, ranks)]
    return multilinear_product(core, factors), core, factors


def random_tt(dims, ranks, seed):
    """Random TT model with the given interior ranks."""
    rng = np.random.default_rng(seed)
    chain = [1] + list(ranks) + [1]
    cores = [rng.standard_normal((chain[n], dims[n], chain[n + 1]))
             for n in range(len(dims))]
    return TTModel(cores)


def model_zoo():
    """One small seeded object per container kind, as (file name, object,
    QTT scheme or None): a dense tensor, CP, Tucker with an identity mode,
    FSTD, TT/MPS, QTT, TT/MPO and a two-level HOPTA tree."""
    rng = np.random.default_rng(40)

    def dense(dims):
        return DenseTensor.from_array(rng.standard_normal(dims))

    t, _, _ = random_tucker_tensor((6, 5, 4), (2, 2, 2), seed=41)
    qtt, scheme = qtt_compress(geometric_vector(16), q=2, eps=1e-12)
    inner = HOPTANode.sum_of_outer([(HOPTANode.leaf(dense((2, 2))),
                                     HOPTANode.leaf(dense((3,))))])
    hop = HOPTANode.sum_of_outer([(inner, HOPTANode.leaf(dense((2,)))),
                                  (HOPTANode.leaf(dense((2, 2, 3))),
                                   HOPTANode.leaf(dense((2,))))])
    return [("t.dten", dense((3, 4, 2)), None),
            ("m.cpm", well_conditioned_cp((3, 4, 2), 2, seed=42), None),
            ("m.tkm", hosvd(t, identity_modes=(2,)), None),
            ("f.tkm", fstd(t, counts=(2, 2, 2)), None),
            ("s.ttm", random_tt((3, 4, 3), (2, 2), seed=43), None),
            ("q.ttm", qtt, scheme),
            ("o.ttm", ttm_svd(dense((2, 3, 2, 2)), eps=1e-12), None),
            ("m.hop", hop, None)]


def cp_factor_match(truth: CPModel, fitted: CPModel) -> float:
    """Best congruence over column permutations after normalization.

    Score of a pairing (r, s) is prod_n |<b_r^(n), bhat_s^(n)>| on unit
    columns; the returned value is the worst matched component under the best
    permutation (1.0 means perfect recovery up to permutation and scale).
    """
    a = normalize(truth)
    b = normalize(fitted)
    r = a.rank
    cong = np.ones((r, b.rank))
    for fa, fb in zip(a.factors, b.factors):
        cong *= np.abs(fa.T @ fb)
    best = -np.inf
    for perm in itertools.permutations(range(b.rank), r):
        score = min(cong[i, perm[i]] for i in range(r))
        best = max(best, score)
    return best


def geometric_vector(length, ratio=1.05):
    """x_i = ratio**(i-1); exactly separable across base-2 digits.

    The default ratio keeps squared norms finite in float64 up to length
    2**12 (a base-2 geometric vector already overflows at length 2**11).
    """
    return DenseTensor((length,), ratio ** np.arange(length))


def read_header(path) -> dict:
    """JSON header of a container file."""
    raw = Path(path).read_bytes()
    hlen = struct.unpack("<I", raw[8:12])[0]
    return json.loads(raw[12:12 + hlen])


def write_header(path, header: dict) -> None:
    """Rewrite a container in place with ``header`` in place of its own."""
    raw = Path(path).read_bytes()
    hlen = struct.unpack("<I", raw[8:12])[0]
    blob = json.dumps(header).encode("utf-8")
    Path(path).write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob +
                           raw[12 + hlen:])


def drop_header_key(path, key):
    """Rewrite a container in place with ``key`` removed from its header."""
    header = read_header(path)
    del header[key]
    write_header(path, header)


def set_header_value(path, key, value):
    """Rewrite a container in place with ``header[key] = value``."""
    header = read_header(path)
    header[key] = value
    write_header(path, header)
