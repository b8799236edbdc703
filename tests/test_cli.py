"""CLI commands, exit codes, report lines, and reproducibility."""

import csv
import io as stdio
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import (drop_header_key, geometric_vector, noisy_cp_cube,
                     random_tt, set_header_value, well_conditioned_cp)
from tenkit import cli, io as tio
from tenkit.blockmodels import HOPTANode
from tenkit.cli import BENCH_HEADER, main
from tenkit.cpd import CPModel, cp_reconstruct
from tenkit.dense import DenseTensor
from tenkit.tucker import TuckerModel
from tenkit.ttrain import TTMatrixModel, TTModel, tt_reconstruct


def write_fixture(tmp_path, name, tensor):
    path = tmp_path / name
    tio.write_dense(path, tensor)
    return str(path)


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_report(line):
    return dict(kv.split("=", 1) for kv in line.strip().split())


def test_decompose_tt_fixture(tmp_path, capsys):
    t = tt_reconstruct(random_tt((6, 6, 6, 6), (3, 4, 5), seed=0))
    inp = write_fixture(tmp_path, "t.dten", t)
    out = str(tmp_path / "t.ttm")
    code, stdout, _ = run(["decompose", inp, "--format", "tt",
                           "--eps", "1e-12", "--output", out], capsys)
    assert code == 0
    report = parse_report(stdout.splitlines()[0])
    assert report["format"] == "tt"
    assert report["ranks"] == "3,4,5"
    assert float(report["rel_error"]) <= 1e-12
    assert report["params"] == str(tio.read_tt(out)[0].storage())


def test_decompose_then_reconstruct_against_reproduces_error(tmp_path, capsys):
    t = tt_reconstruct(random_tt((5, 5, 5), (2, 3), seed=1))
    inp = write_fixture(tmp_path, "t.dten", t)
    model = str(tmp_path / "t.ttm")
    code, stdout, _ = run(["decompose", inp, "--format", "tt", "--eps", "1e-10",
                           "--output", model], capsys)
    assert code == 0
    reported = parse_report(stdout.splitlines()[0])["rel_error"]
    recon = str(tmp_path / "back.dten")
    code, stdout, _ = run(["reconstruct", model, "--output", recon,
                           "--against", inp], capsys)
    assert code == 0
    again = stdout.splitlines()[0].split("=", 1)[1]
    assert again == reported  # byte-identical error report


def test_decompose_cpd_rank1(tmp_path, capsys):
    truth = well_conditioned_cp((6, 6, 6), 1, seed=2)
    inp = write_fixture(tmp_path, "t.dten", cp_reconstruct(truth))
    out = str(tmp_path / "m.cpm")
    code, stdout, _ = run(["decompose", inp, "--format", "cpd", "--rank", "1",
                           "--output", out, "--seed", "3"], capsys)
    assert code == 0
    assert float(parse_report(stdout.splitlines()[0])["rel_error"]) <= 1e-10


@pytest.mark.parametrize("seed", [5, 11, 19, 20])
def test_decompose_cpd_converges_from_the_default_start(tmp_path, capsys, seed):
    # a random start 0 stalls near relative error 0.4 on these inputs
    t, rho = noisy_cp_cube(20, seed)
    inp = write_fixture(tmp_path, "t.dten", t)
    code, stdout, err = run(["decompose", inp, "--format", "cpd", "--rank", "4",
                             "--seed", str(seed), "--output",
                             str(tmp_path / "m.cpm")], capsys)
    assert code == 0, err
    assert float(parse_report(stdout.splitlines()[0])["rel_error"]) <= 2 * rho


def test_decompose_cpd_order1(tmp_path, capsys):
    v = DenseTensor.from_array(np.array([3.0, -1.0, 0.5, 2.0, 4.0]))
    inp = write_fixture(tmp_path, "v.dten", v)
    out = str(tmp_path / "v.cpm")
    code, stdout, err = run(["decompose", inp, "--format", "cpd", "--rank",
                             "1", "--output", out], capsys)
    assert code == 0, err
    report = parse_report(stdout.splitlines()[0])
    assert report["dims"] == "5" and report["ranks"] == "1"
    assert float(report["rel_error"]) <= 1e-14
    rec = str(tmp_path / "back.dten")
    code, stdout, _ = run(["reconstruct", out, "--output", rec, "--against",
                           inp], capsys)
    assert code == 0
    assert np.allclose(tio.read_dense(rec).data, v.data, rtol=1e-14)


def test_decompose_usage_errors(tmp_path, capsys):
    t = DenseTensor((4, 4), np.arange(16.0))
    inp = write_fixture(tmp_path, "t.dten", t)
    out = str(tmp_path / "x.ttm")
    code, _, err = run(["decompose", inp, "--format", "tt", "--rank", "2",
                        "--eps", "0.1", "--output", out], capsys)
    assert code == 2
    code, _, _ = run(["decompose", inp, "--format", "tt", "--output", out],
                     capsys)
    assert code == 2
    code, _, _ = run(["decompose", inp, "--format", "qtt", "--rank", "2",
                      "--output", out], capsys)
    assert code == 2
    for flag in ("--max-iters", "--n-starts"):
        code, _, err = run(["decompose", inp, "--format", "cpd", "--rank", "1",
                            flag, "0", "--output", str(tmp_path / "x.cpm")],
                           capsys)
        assert code == 2 and "must be >= 1" in err
        assert not (tmp_path / "x.cpm").exists()
    for tol in ("nan", "-1e-10"):
        code, _, err = run(["decompose", inp, "--format", "cpd", "--rank", "1",
                            f"--tol={tol}", "--output",
                            str(tmp_path / "x.cpm")], capsys)
        assert code == 2 and "tol must be finite and >= 0" in err
        assert not (tmp_path / "x.cpm").exists()
    # --blocks is a block grid for tucker cores and no other format
    for fmt, flags in (("tt", ["--eps", "0.1", "--blocks", "2,2"]),
                       ("cpd", ["--rank", "1", "--blocks", "9"])):
        code, _, err = run(["decompose", inp, "--format", fmt, *flags,
                            "--output", out], capsys)
        assert code == 2 and "--blocks applies only to --format tucker" in err
        assert not (tmp_path / "x.ttm").exists()


@pytest.mark.parametrize("fmt,suffix", [("tt", "ttm"), ("tucker", "tkm"),
                                        ("qtt", "ttm")])
def test_decompose_all_zero_tensor_reports_zero_error(tmp_path, capsys, fmt,
                                                      suffix):
    inp = write_fixture(tmp_path, "z.dten", DenseTensor((4, 4, 4), np.zeros(64)))
    code, stdout, err = run(["decompose", inp, "--format", fmt, "--eps", "0.1",
                             "--output", str(tmp_path / f"z.{suffix}")],
                            capsys)
    assert code == 0, err
    assert parse_report(stdout.splitlines()[0])["rel_error"] == "0.0"


def test_decompose_fstd_all_zero_tensor_exit_2(tmp_path, capsys):
    inp = write_fixture(tmp_path, "z.dten", DenseTensor((4, 4, 4), np.zeros(64)))
    code, _, err = run(["decompose", inp, "--format", "fstd", "--rank",
                        "2,2,2", "--output", str(tmp_path / "z.tkm")], capsys)
    assert code == 2 and "cannot fit an all-zero tensor" in err


def test_reconstruct_against_zero_tensor_reports_inf(tmp_path, capsys):
    model = str(tmp_path / "m.ttm")
    tio.write_tt(model, random_tt((3, 3, 3), (2, 2), seed=3))
    zero = write_fixture(tmp_path, "z.dten", DenseTensor((3, 3, 3), np.zeros(27)))
    code, stdout, err = run(["reconstruct", model, "--output",
                             str(tmp_path / "r.dten"), "--against", zero],
                            capsys)
    assert code == 0, err
    assert stdout.strip() == "rel_error=inf"


def _scaled_fixtures(tmp_path, x):
    # the same tensor at 2^0 and at 2^-+600, where its squares leave the
    # double range
    return {k: write_fixture(tmp_path, f"x{k}.dten",
                             DenseTensor.from_array(np.ldexp(x, k)))
            for k in (0, -600, 600)}


@pytest.mark.parametrize("fmt, suffix, spec", [
    ("tucker", "tkm", ["--rank", "2,2,2"]),
    ("tt", "ttm", ["--eps", "0.5"]),
    ("cpd", "cpm", ["--rank", "2"]),
    ("fstd", "tkm", ["--rank", "2,3,2"]),
])
def test_decompose_and_reconstruct_are_scale_invariant(tmp_path, capsys, fmt,
                                                       suffix, spec):
    if fmt == "cpd":
        x = noisy_cp_cube(6, 9, rank=2, noise=1e-2)[0].to_array()
    else:
        x = np.random.default_rng(0).standard_normal((6, 7, 8))
    results = {}
    for k, inp in _scaled_fixtures(tmp_path, x).items():
        model = str(tmp_path / f"m{k}.{suffix}")
        code, stdout, err = run(["decompose", inp, "--format", fmt,
                                 "--output", model] + spec, capsys)
        report = parse_report(stdout.splitlines()[0])
        rcode, rout, rerr = run(["reconstruct", model, "--output",
                                 str(tmp_path / f"r{k}.dten"), "--against",
                                 inp], capsys)
        assert rcode == 0, rerr
        results[k] = (code, report, float(rout.strip().split("=", 1)[1]))
    base_code, base, base_again = results[0]
    assert base_code == 0
    for k in (-600, 600):
        code, report, again = results[k]
        assert code == base_code
        assert (report["ranks"], report["params"]) == \
            (base["ranks"], base["params"])
        assert float(report["rel_error"]) == pytest.approx(
            float(base["rel_error"]), rel=1e-12)
        assert again == pytest.approx(base_again, rel=1e-12)


def test_info_norm_scales_with_the_tensor(tmp_path, capsys):
    x = np.random.default_rng(1).standard_normal((6, 7, 8))
    norms = {}
    for k, inp in _scaled_fixtures(tmp_path, x).items():
        code, stdout, _ = run(["info", inp], capsys)
        assert code == 0
        norms[k] = float(parse_report(stdout)["norm"])
    for k in (-600, 600):
        assert norms[k] == np.ldexp(norms[0], k)


def test_missing_input_exit_1(tmp_path, capsys):
    code, _, err = run(["decompose", str(tmp_path / "nope.dten"), "--format",
                        "tt", "--eps", "0.1", "--output",
                        str(tmp_path / "x.ttm")], capsys)
    assert code == 1
    code, _, _ = run(["reconstruct", str(tmp_path / "nope.ttm"), "--output",
                      str(tmp_path / "y.dten")], capsys)
    assert code == 1


def test_decompose_tucker_with_blocks(tmp_path, capsys):
    rng = np.random.default_rng(4)
    t = DenseTensor.from_array(rng.standard_normal((6, 6, 6)))
    inp = write_fixture(tmp_path, "t.dten", t)
    out = str(tmp_path / "m.tkm")
    code, stdout, _ = run(["decompose", inp, "--format", "tucker", "--rank",
                           "3,3,3", "--blocks", "2,2,2", "--output", out],
                          capsys)
    assert code == 0
    plain = str(tmp_path / "p.tkm")
    code, stdout2, _ = run(["decompose", inp, "--format", "tucker", "--rank",
                            "3,3,3", "--output", plain], capsys)
    assert code == 0
    a = tio.read_tucker(out)
    b = tio.read_tucker(plain)
    assert np.allclose(a.core.data, b.core.data, rtol=1e-12, atol=1e-13)


def test_decompose_fstd_writes_sidecar(tmp_path, capsys):
    from helpers import random_tucker_tensor
    t, _, _ = random_tucker_tensor((10, 12, 10), (2, 2, 2), seed=5)
    inp = write_fixture(tmp_path, "t.dten", t)
    out = str(tmp_path / "m.tkm")
    code, stdout, _ = run(["decompose", inp, "--format", "fstd", "--rank",
                           "2,2,2", "--output", out], capsys)
    assert code == 0
    assert (tmp_path / "m.tkm.indices.json").exists()
    assert float(parse_report(stdout.splitlines()[0])["rel_error"]) <= 1e-8


def test_decompose_qtt(tmp_path, capsys):
    x = geometric_vector(2 ** 8)
    inp = write_fixture(tmp_path, "x.dten", x)
    out = str(tmp_path / "x.ttm")
    code, stdout, _ = run(["decompose", inp, "--format", "qtt", "--eps",
                           "1e-12", "--q", "2", "--output", out], capsys)
    assert code == 0
    report = parse_report(stdout.splitlines()[0])
    assert report["ranks"] == ",".join("1" * 7)
    recon = str(tmp_path / "back.dten")
    code, stdout, _ = run(["reconstruct", out, "--output", recon,
                           "--against", inp], capsys)
    assert code == 0
    assert float(stdout.splitlines()[0].split("=", 1)[1]) <= 1e-12


def test_round_command(tmp_path, capsys):
    m = random_tt((5, 4, 5), (2, 2), seed=6)
    padded_cores = []
    chain = [1, 4, 4, 1]
    for k, c in enumerate(m.cores):
        new = np.zeros((chain[k], c.shape[1], chain[k + 1]))
        new[:c.shape[0], :, :c.shape[2]] = c
        padded_cores.append(new)
    from tenkit.ttrain import TTModel
    padded = TTModel(padded_cores)
    model_path = str(tmp_path / "m.ttm")
    tio.write_tt(model_path, padded)
    out = str(tmp_path / "r.ttm")
    code, stdout, _ = run(["round", model_path, "--eps", "1e-12",
                           "--output", out], capsys)
    assert code == 0
    line = parse_report(stdout.splitlines()[0])
    assert line["ranks_before"] == "4,4"
    assert line["ranks_after"] == "2,2"
    # eps=0 keeps the already-minimal ranks
    code, stdout, _ = run(["round", out, "--eps", "0", "--output",
                           str(tmp_path / "r2.ttm")], capsys)
    assert parse_report(stdout.splitlines()[0])["ranks_after"] == "2,2"


@pytest.mark.parametrize("eps", ["nan", "inf", "-0.1"])
def test_round_bad_eps_exit_2(tmp_path, capsys, eps):
    model_path = str(tmp_path / "m.ttm")
    tio.write_tt(model_path, random_tt((3, 3, 3), (2, 2), seed=6))
    out = tmp_path / "r.ttm"
    code, _, err = run(["round", model_path, f"--eps={eps}", "--output",
                        str(out)], capsys)
    assert code == 2 and "eps must be finite and >= 0" in err
    assert not out.exists()


def test_round_non_tt_input_exit_2(tmp_path, capsys):
    t = DenseTensor((4, 4), np.arange(16.0))
    inp = write_fixture(tmp_path, "t.dten", t)
    code, _, _ = run(["round", inp, "--eps", "0.1", "--output",
                      str(tmp_path / "x.ttm")], capsys)
    assert code == 2


def test_bench_csv_schema_and_params(tmp_path, capsys):
    out = str(tmp_path / "bench.csv")
    code, _, _ = run(["bench", "--dims", "4,4,4", "--rank", "2", "--seed",
                      "0", "--deterministic", "--output", out], capsys)
    assert code == 0
    text = Path(out).read_text()
    assert text.splitlines()[0] == ",".join(BENCH_HEADER)
    rows = list(csv.DictReader(stdio.StringIO(text)))
    assert [r["format"] for r in rows] == ["cpd", "tucker", "tt", "ttm", "qtt"]
    for r in rows:
        assert float(r["rel_error"]) <= 1e-6
        assert int(r["exact_params"]) > 0
        assert r["seconds"] == "0.000"
    # exact params follow the closed-form counters
    tucker_row = rows[1]
    assert int(tucker_row["exact_params"]) == 3 * 4 * 2 + 2 ** 3


@pytest.mark.parametrize("dims", ["6,6,6", "3,3,3"])
def test_bench_rejects_dims_before_any_fit(capsys, monkeypatch, dims):
    monkeypatch.setattr(cli, "_bench_case",
                        lambda *args: pytest.fail("a bench fit ran"))
    code, _, err = run(["bench", "--dims", dims, "--q", "2"], capsys)
    assert code == 2 and "is not a power of q = 2" in err


def test_bench_tt_params_monotone_in_rank(tmp_path, capsys):
    params = []
    for rank in ("2", "3"):
        out = str(tmp_path / f"b{rank}.csv")
        code, _, _ = run(["bench", "--dims", "4,4,4", "--rank", rank,
                          "--seed", "0", "--deterministic", "--output", out],
                         capsys)
        assert code == 0
        rows = list(csv.DictReader(stdio.StringIO(Path(out).read_text())))
        params.append(int(rows[2]["exact_params"]))
    assert params[0] < params[1]


def test_deterministic_bit_reproducible(tmp_path, capsys):
    rng = np.random.default_rng(7)
    t = DenseTensor.from_array(rng.standard_normal((8, 8, 8)))
    inp = write_fixture(tmp_path, "t.dten", t)
    outputs = []
    reports = []
    for k in (1, 2):
        out = str(tmp_path / f"m{k}.cpm")
        code, stdout, _ = run(["decompose", inp, "--format", "cpd", "--rank",
                               "2", "--seed", "9", "--deterministic",
                               "--max-iters", "50", "--output", out], capsys)
        assert code in (0, 3)  # random tensor may hit the sweep cap
        outputs.append(Path(out).read_bytes())
        reports.append(stdout)
    assert outputs[0] == outputs[1]
    assert reports[0] == reports[1]


def test_info_command(tmp_path, capsys):
    t = DenseTensor((3, 3), np.arange(9.0))
    inp = write_fixture(tmp_path, "t.dten", t)
    code, stdout, _ = run(["info", inp], capsys)
    assert code == 0
    assert "type=dten" in stdout
    m = random_tt((3, 3), (2,), seed=8)
    tio.write_tt(tmp_path / "m.ttm", m)
    code, stdout, _ = run(["info", str(tmp_path / "m.ttm")], capsys)
    assert code == 0
    assert "ranks=2" in stdout


@pytest.mark.parametrize("name, write, line", [
    ("t.dten", lambda p: tio.write_dense(p, DenseTensor((2, 2), np.ones(4))),
     "type=dten order=2 dims=2,2 norm=2.0"),
    ("m.cpm", lambda p: tio.write_cp(
        p, CPModel(np.ones(2), [np.ones((d, 2)) for d in (3, 4, 5)])),
     "type=cpm dims=3,4,5 rank=2 params=26"),
    ("m.tkm", lambda p: tio.write_tucker(p, TuckerModel(
        DenseTensor.from_array(np.ones((2, 3, 1))),
        [np.ones((4, 2)), None, np.ones((5, 1))])),
     "type=tkm dims=4,3,5 ranks=2,3,1 params=19"),
    ("s.ttm", lambda p: tio.write_tt(p, random_tt((3, 4, 5), (2, 3), seed=8)),
     "type=ttm kind=mps dims=3,4,5 ranks=2,3 params=45"),
    ("o.ttm", lambda p: tio.write_tt(p, TTMatrixModel(
        [np.ones((1, 2, 3, 2)), np.ones((2, 4, 1, 1))])),
     "type=ttm kind=mpo dims=2x3,4x1 ranks=2 params=20"),
    ("m.hop", lambda p: tio.write_hopta(p, HOPTANode.sum_of_outer(
        [(HOPTANode.leaf(DenseTensor((2, 2), np.ones(4))),
          HOPTANode.leaf(DenseTensor((3,), np.ones(3))))])),
     "type=hop dims=2,2,3 params=7"),
], ids=["dten", "cpm", "tkm", "mps", "mpo", "hop"])
def test_info_line_per_container(tmp_path, capsys, name, write, line):
    path = tmp_path / name
    write(path)
    code, stdout, _ = run(["info", str(path)], capsys)
    assert code == 0
    assert stdout == line + "\n"


def test_reconstruct_rejects_dense_input(tmp_path, capsys):
    t = DenseTensor((2, 2), np.arange(4.0))
    inp = write_fixture(tmp_path, "t.dten", t)
    code, _, _ = run(["reconstruct", inp, "--output",
                      str(tmp_path / "o.dten")], capsys)
    assert code == 2


def test_decompose_cpd_nonconvergence_exit_3(tmp_path, capsys):
    rng = np.random.default_rng(30)
    t = DenseTensor.from_array(rng.standard_normal((6, 6, 6)))
    inp = write_fixture(tmp_path, "t.dten", t)
    out = str(tmp_path / "m.cpm")
    code, stdout, err = run(["decompose", inp, "--format", "cpd", "--rank",
                             "2", "--max-iters", "2", "--tol", "1e-14",
                             "--seed", "1", "--output", out], capsys)
    assert code == 3
    assert "numerical failure" in err
    assert "rel_error=" in stdout  # report still printed
    assert (tmp_path / "m.cpm").exists()


def test_decompose_nan_input_exit_3(tmp_path, capsys):
    # wide unfoldings (8 x 64), so the factor kernel's QR route would run
    arr = np.arange(512.0).reshape(8, 16, 4)
    arr[1, 1, 1] = np.nan
    arr[2, 3, 0] = np.inf
    inp = write_fixture(tmp_path, "t.dten", DenseTensor.from_array(arr))
    for fmt, flags, out in [("cpd", ["--rank", "2"], "m.cpm"),
                            ("tucker", ["--rank", "2,2,2"], "m.tkm"),
                            ("fstd", ["--rank", "2,2,2"], "f.tkm"),
                            ("tt", ["--rank", "2"], "m.ttm"),
                            ("qtt", ["--eps", "1e-6"], "q.ttm")]:
        code, stdout, err = run(["decompose", inp, "--format", fmt, *flags,
                                 "--output", str(tmp_path / out)], capsys)
        assert code == 3, fmt
        assert "numerical failure" in err and "2 non-finite entries" in err
        assert stdout == ""
        assert not (tmp_path / out).exists()


def test_reconstruct_non_finite_exit_3(tmp_path, capsys):
    # a NaN in the --against tensor, and a reconstruction that overflows
    model = str(tmp_path / "m.ttm")
    tio.write_tt(model, random_tt((3, 3, 3), (2, 2), seed=3))
    arr = np.ones((3, 3, 3))
    arr[1, 2, 0] = np.nan
    against = write_fixture(tmp_path, "x.dten", DenseTensor.from_array(arr))
    huge = str(tmp_path / "h.ttm")
    tio.write_tt(huge, TTModel([c * 1e120 for c in
                                random_tt((3, 3, 3), (2, 2), seed=4).cores]))
    out = tmp_path / "r.dten"
    for args, what in [([model, "--against", against], "1 non-finite entries"),
                       ([huge], "non-finite entries")]:
        code, stdout, err = run(["reconstruct", *args, "--output", str(out)],
                                capsys)
        assert code == 3, err
        assert "numerical failure" in err and what in err
        assert stdout == ""
        assert not out.exists()


def test_reconstruct_overflow_exit_3_under_warnings_as_errors(tmp_path):
    # numpy's overflow warning must not turn into a traceback and exit 1
    huge = str(tmp_path / "h.ttm")
    tio.write_tt(huge, TTModel([c * 1e120 for c in
                                random_tt((3, 3, 3), (2, 2), seed=4).cores]))
    out = tmp_path / "r.dten"
    env = dict(os.environ, PYTHONPATH=str(Path(tio.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "tenkit.cli",
                           "reconstruct", huge, "--output", str(out)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 3, proc.stderr
    assert "non-finite entries" in proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert not out.exists()


def test_reconstruct_rel_error_of_an_overflowing_difference(tmp_path, capsys):
    # 1.44e308 against -1.4e308: both finite, their difference is not; the
    # suite's warnings-as-errors filter turns numpy's overflow warning into a
    # traceback, so this also checks that none is emitted
    model = str(tmp_path / "m.cpm")
    tio.write_cp(model, CPModel(np.array([1.44e308]), [np.ones((1, 1))] * 2))
    against = write_fixture(tmp_path, "x.dten",
                            DenseTensor.from_array(np.full((1, 1), -1.4e308)))
    out = tmp_path / "r.dten"
    code, stdout, err = run(["reconstruct", model, "--against", against,
                             "--output", str(out)], capsys)
    assert code == 0, err
    rel = float(parse_report(stdout)["rel_error"])
    assert rel == pytest.approx((1.44 + 1.4) / 1.4, rel=1e-15)
    assert out.exists()


def test_model_header_without_rank_exit_1(tmp_path, capsys):
    model = str(tmp_path / "m.cpm")
    tio.write_cp(model, CPModel(np.ones(2), [np.ones((3, 2))] * 3))
    drop_header_key(model, "rank")
    for args in (["info", model],
                 ["reconstruct", model, "--output", str(tmp_path / "o.dten")]):
        code, _, err = run(args, capsys)
        assert code == 1
        assert err.startswith("error: ") and "'rank'" in err


@pytest.mark.parametrize("key, value", [
    ("rank", "two"), ("dims", 3), ("weights", [1.0, 1.0, 1.0])],
    ids=["rank-string", "dims-int", "weights-length"])
def test_malformed_model_header_exit_1(tmp_path, capsys, key, value):
    model = str(tmp_path / "m.cpm")
    tio.write_cp(model, CPModel(np.ones(2), [np.ones((3, 2))] * 3))
    set_header_value(model, key, value)
    for args in (["info", model],
                 ["reconstruct", model, "--output", str(tmp_path / "o.dten")]):
        code, _, err = run(args, capsys)
        assert code == 1
        assert err.startswith(f"error: {model}: ")
        if key != "weights":
            assert f"'{key}'" in err


def test_round_rejects_mpo(tmp_path, capsys):
    from tenkit.ttrain import ttm_svd
    rng = np.random.default_rng(31)
    t = DenseTensor.from_array(rng.standard_normal((2, 3, 2, 2)))
    m = ttm_svd(t, eps=1e-12)
    tio.write_tt(tmp_path / "m.ttm", m)
    code, _, _ = run(["round", str(tmp_path / "m.ttm"), "--eps", "0.1",
                      "--output", str(tmp_path / "r.ttm")], capsys)
    assert code == 2


def test_paths_must_be_distinct(tmp_path, capsys):
    t = DenseTensor((2, 2), np.arange(4.0))
    inp = write_fixture(tmp_path, "t.dten", t)
    code, _, err = run(["decompose", inp, "--format", "tt", "--eps", "0.1",
                        "--output", inp], capsys)
    assert code == 2
    assert "distinct" in err
