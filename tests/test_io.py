"""Container formats: envelope layout and lossless round trips."""

import json
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (drop_header_key, model_zoo, random_tt, read_header,
                     set_header_value)
from tenkit import io as tio
from tenkit.blockmodels import HOPTANode, hopta_reconstruct, reconstruct
from tenkit.cpd import CPModel, cp_reconstruct, normalize
from tenkit.cur import FSTDModel, fstd
from tenkit.dense import DenseTensor
from tenkit.quantize import qtt_compress
from tenkit.tucker import hosvd, tucker_reconstruct
from tenkit.ttrain import ttm_svd


def rt(dims, seed):
    return DenseTensor.from_array(np.random.default_rng(seed).standard_normal(dims))


def test_dten_envelope_layout(tmp_path):
    t = DenseTensor((2, 3), np.arange(6.0))
    path = tmp_path / "t.dten"
    tio.write_dense(path, t)
    raw = path.read_bytes()
    assert raw[:4] == b"DTEN"
    version, hlen = struct.unpack("<II", raw[4:12])
    assert version == 1
    header = json.loads(raw[12:12 + hlen])
    assert header == {"convention": "little-endian", "dims": [2, 3],
                      "order": 2, "scalar": "f64"}
    payload = np.frombuffer(raw[12 + hlen:], dtype="<f8")
    assert np.array_equal(payload, t.data)


def test_dten_roundtrip_bit_exact(tmp_path):
    t = rt((3, 4, 5), 0)
    path = tmp_path / "t.dten"
    tio.write_dense(path, t)
    back = tio.read_dense(path)
    assert back.dims == t.dims
    assert np.array_equal(back.data, t.data)


def test_dten_malformed(tmp_path):
    path = tmp_path / "bad.dten"
    path.write_bytes(b"NOPE" + b"\0" * 20)
    with pytest.raises(tio.ContainerError, match="magic"):
        tio.read_dense(path)
    good = tmp_path / "short.dten"
    tio.write_dense(good, rt((2, 2), 1))
    good.write_bytes(good.read_bytes()[:-8])
    with pytest.raises(tio.ContainerError):
        tio.read_dense(good)


@pytest.mark.parametrize("name, write, key", [
    ("m.cpm", lambda p: tio.write_cp(p, CPModel(np.ones(2), [np.ones((3, 2))] * 3)),
     "rank"),
    ("m.ttm", lambda p: tio.write_tt(p, random_tt((3, 3, 3), (2, 2), 4)), "ranks"),
    ("m.tkm", lambda p: tio.write_tucker(p, hosvd(rt((3, 3), 5))), "dims"),
], ids=["cpm-rank", "ttm-ranks", "tkm-dims"])
def test_missing_header_key_names_file_and_key(tmp_path, name, write, key):
    path = tmp_path / name
    write(path)
    drop_header_key(path, key)
    with pytest.raises(tio.ContainerError, match=f"{name}.*'{key}'"):
        tio.read_model(path)


def test_cp_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    m = normalize(CPModel(rng.standard_normal(3),
                          [rng.standard_normal((d, 3)) for d in (4, 3, 5)]))
    path = tmp_path / "m.cpm"
    tio.write_cp(path, m)
    back = tio.read_cp(path)
    assert np.array_equal(back.weights, m.weights)
    for f1, f2 in zip(back.factors, m.factors):
        assert np.array_equal(f1, f2)
    assert np.array_equal(cp_reconstruct(back).data, cp_reconstruct(m).data)


def test_tucker_roundtrip_with_identity_modes(tmp_path):
    t = rt((4, 5, 3), 3)
    m = hosvd(t, identity_modes=(2,))
    path = tmp_path / "m.tkm"
    tio.write_tucker(path, m)
    back = tio.read_tucker(path)
    assert back.identity_modes == (2,)
    assert np.array_equal(tucker_reconstruct(back).data,
                          tucker_reconstruct(m).data)


def test_tt_mps_roundtrip(tmp_path):
    m = random_tt((3, 4, 3), (2, 2), seed=4)
    path = tmp_path / "m.ttm"
    tio.write_tt(path, m)
    back, scheme = tio.read_tt(path)
    assert scheme is None
    assert back.ranks == m.ranks
    for c1, c2 in zip(back.cores, m.cores):
        assert np.array_equal(c1, c2)


def test_tt_mpo_roundtrip(tmp_path):
    t = rt((2, 3, 2, 2), 5)
    m = ttm_svd(t, eps=1e-12)
    path = tmp_path / "m.ttm"
    tio.write_tt(path, m)
    back, _ = tio.read_tt(path)
    assert back.pairing == m.pairing
    for c1, c2 in zip(back.cores, m.cores):
        assert np.array_equal(c1, c2)


def test_tt_quantization_block(tmp_path):
    x = DenseTensor((16,), 1.1 ** np.arange(16.0))
    model, scheme = qtt_compress(x, q=2, eps=1e-12)
    path = tmp_path / "m.ttm"
    tio.write_tt(path, model, scheme=scheme)
    back, back_scheme = tio.read_tt(path)
    assert back_scheme == scheme
    for c1, c2 in zip(back.cores, model.cores):
        assert np.array_equal(c1, c2)


def test_hopta_roundtrip(tmp_path):
    inner = HOPTANode.sum_of_outer(
        [(HOPTANode.leaf(rt((2, 2), 6)), HOPTANode.leaf(rt((3,), 7)))])
    root = HOPTANode.sum_of_outer(
        [(inner, HOPTANode.leaf(rt((2,), 8))),
         (HOPTANode.leaf(rt((2, 2, 3), 9)), HOPTANode.leaf(rt((2,), 10)))])
    path = tmp_path / "m.hop"
    tio.write_hopta(path, root)
    back = tio.read_hopta(path)
    assert np.array_equal(hopta_reconstruct(back).data,
                          hopta_reconstruct(root).data)


def test_fstd_writes_tucker_and_sidecar(tmp_path):
    from helpers import random_tucker_tensor
    t, _, _ = random_tucker_tensor((10, 10, 10), (2, 2, 2), seed=11)
    m = fstd(t, counts=(2, 2, 2))
    path = tmp_path / "m.tkm"
    tio.write_fstd(path, m)
    back = tio.read_tucker(path)
    assert np.allclose(tucker_reconstruct(back).data, m.reconstruct().data,
                       rtol=0, atol=0)
    sidecar = json.loads((tmp_path / "m.tkm.indices.json").read_text())
    assert sidecar["indices"] == [list(ix) for ix in m.indices]


def test_sniff_and_read_model(tmp_path):
    t = rt((2, 2), 12)
    tio.write_dense(tmp_path / "a.dten", t)
    assert tio.sniff(tmp_path / "a.dten") == "dten"
    m = random_tt((2, 2), (2,), seed=13)
    tio.write_tt(tmp_path / "b.ttm", m)
    got, scheme = tio.read_model(tmp_path / "b.ttm")
    assert got.ranks == (2,)
    assert scheme is None
    (tmp_path / "junk").write_bytes(b"XXXXXXXX")
    with pytest.raises(tio.ContainerError):
        tio.sniff(tmp_path / "junk")


_ZOO = model_zoo()


@pytest.mark.parametrize("name, obj, scheme", _ZOO, ids=[z[0] for z in _ZOO])
def test_write_model_read_model_roundtrip(tmp_path, name, obj, scheme):
    path = tmp_path / name
    tio.write_model(path, obj, scheme)
    back, back_scheme = tio.read_model(path)
    assert back_scheme == scheme
    if isinstance(obj, FSTDModel):
        sidecar = json.loads(Path(f"{path}.indices.json").read_text())
        assert sidecar["indices"] == [list(ix) for ix in obj.indices]
        obj = obj.tucker
    assert type(back) is type(obj)
    if not isinstance(obj, DenseTensor):
        back, obj = reconstruct(back, back_scheme), reconstruct(obj, scheme)
    assert back.dims == obj.dims
    assert np.array_equal(back.data, obj.data)


def test_write_model_rejects_unknown_objects(tmp_path):
    with pytest.raises(TypeError):
        tio.write_model(tmp_path / "x", object())
    cp, scheme = _ZOO[1][1], _ZOO[5][2]
    with pytest.raises(TypeError):
        tio.write_model(tmp_path / "x.cpm", cp, scheme)


@pytest.mark.parametrize("name, key, value, match", [
    ("o.ttm", "pairing", [[1, 1], [2, 2]], "pairing"),
    ("q.ttm", "quantization", {"dims": [8], "mode_factors": [[2, 2, 2]]},
     "quantization"),
    ("s.ttm", "ranks", [2], "disagree"),
    ("m.tkm", "dims", [6, 4, 4], "dims"),
], ids=["mpo-pairing", "qtt-scheme", "tt-ranks", "tucker-identity-dims"])
def test_inconsistent_header_raises_container_error(tmp_path, name, key, value,
                                                    match):
    path = tmp_path / name
    obj, scheme = next((o, s) for n, o, s in _ZOO if n == name)
    tio.write_model(path, obj, scheme)
    set_header_value(path, key, value)
    with pytest.raises(tio.ContainerError, match=f"{name}.*{match}"):
        tio.read_model(path)


_TEXT = st.text("ab-", max_size=3)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _TEXT,
    lambda inner: st.lists(inner, max_size=4) |
    st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=8)


@pytest.fixture(scope="module")
def valid_containers(tmp_path_factory):
    """Names of one valid container per kind, and a function that restores
    the named container and returns its path."""
    root = tmp_path_factory.mktemp("fuzz")
    blobs = {}
    for name, obj, scheme in _ZOO:
        tio.write_model(root / name, obj, scheme)
        blobs[name] = (root / name).read_bytes()

    def fresh(name):
        (root / name).write_bytes(blobs[name])
        return root / name
    return sorted(blobs), fresh


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_any_header_value_reads_or_raises_container_error(valid_containers,
                                                           data):
    names, fresh = valid_containers
    path = fresh(data.draw(st.sampled_from(names)))
    key = data.draw(st.sampled_from(sorted(read_header(path))))
    set_header_value(path, key, data.draw(_JSON))
    try:
        tio.read_model(path)
    except tio.ContainerError:
        pass
