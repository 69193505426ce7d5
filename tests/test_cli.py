"""Command-line behavior: report formats, determinism, seed plumbing, exits."""

import contextlib
import io
import json
import os
import re
import struct
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ffgp
import ffgp.cli as cli
from ffgp.cli import main
from ffgp.data import load_csv, make_cosine, save_csv

FAST = ["--iters", "3", "--restarts", "2", "--restart-iters", "2"]


@pytest.fixture()
def cosine_csv(tmp_path):
    X, y = make_cosine(80, freq=1.0, noise_std=0.02, seed=0)
    p = tmp_path / "cos.csv"
    save_csv(p, X, y, feature_names=["x"])
    return p


@pytest.fixture()
def feature_csv(tmp_path, cosine_csv):
    ds = load_csv(cosine_csv)
    p = tmp_path / "feats.csv"
    with open(p, "w") as fh:
        fh.write("x\n")
        for v in ds.X[:, 0]:
            fh.write("%.17g\n" % v)
    return p


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_train_writes_model_and_report(tmp_path, capsys, cosine_csv):
    out = tmp_path / "model.bin"
    code, stdout, _ = run(
        capsys,
        ["train", "--data", str(cosine_csv), "--kernel", "gm", "--Q", "2", "--m", "8",
         "--seed", "1", "--out", str(out)] + FAST,
    )
    assert code == 0
    assert out.exists()
    assert stdout.startswith("kernel=gm\tQ=2\tm=8\t")
    assert "nlml=" in stdout and "hypers=" in stdout


def test_predict_recovers_training_targets(tmp_path, capsys, cosine_csv, feature_csv):
    model = tmp_path / "m.bin"
    code, _, _ = run(
        capsys,
        ["train", "--data", str(cosine_csv), "--kernel", "frbf", "--m", "64",
         "--seed", "0", "--iters", "40", "--restarts", "3", "--restart-iters", "10",
         "--out", str(model)],
    )
    assert code == 0
    code, stdout, _ = run(capsys, ["predict", "--model", str(model), "--data", str(feature_csv)])
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0] == "mean,variance"
    rows = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
    ds = load_csv(cosine_csv)
    assert rows.shape == (ds.n, 2)
    # near-noiseless training data: the posterior mean tracks the targets
    assert float(np.sqrt(np.mean((rows[:, 0] - ds.y) ** 2))) < 0.1
    assert np.all(rows[:, 1] > 0)


def test_predict_empty_features_is_empty_success(tmp_path, capsys, cosine_csv):
    model = tmp_path / "m.bin"
    run(capsys, ["train", "--data", str(cosine_csv), "--kernel", "frbf", "--m", "8",
                 "--seed", "0", "--out", str(model)] + FAST)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    code, stdout, _ = run(capsys, ["predict", "--model", str(model), "--data", str(empty)])
    assert code == 0 and stdout == ""


def test_predict_dimension_mismatch_names_both(tmp_path, capsys, cosine_csv):
    model = tmp_path / "m.bin"
    run(capsys, ["train", "--data", str(cosine_csv), "--kernel", "frbf", "--m", "8",
                 "--seed", "0", "--out", str(model)] + FAST)
    wide = tmp_path / "wide.csv"
    wide.write_text("a,b\n1,2\n")
    code, _, stderr = run(capsys, ["predict", "--model", str(model), "--data", str(wide)])
    assert code == 1
    assert "d_in=1" in stderr and "2" in stderr


def test_failed_predict_leaves_out_file_untouched(tmp_path, capsys, cosine_csv):
    model = tmp_path / "m.bin"
    run(capsys, ["train", "--data", str(cosine_csv), "--kernel", "frbf", "--m", "8",
                 "--seed", "0", "--out", str(model)] + FAST)
    out = tmp_path / "pred.csv"
    out.write_text("mean,variance\n1,2\n")
    wide = tmp_path / "wide.csv"
    wide.write_text("a,b\n1,2\n")
    code, _, _ = run(capsys, ["predict", "--model", str(model), "--data", str(wide),
                              "--out", str(out)])
    assert code == 1
    assert out.read_text() == "mean,variance\n1,2\n"
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    code, _, _ = run(capsys, ["predict", "--model", str(model), "--data", str(empty),
                              "--out", str(out)])
    assert code == 0 and out.read_text() == ""


def test_dropped_training_rows_are_reported_off_stdout(tmp_path, capsys, cosine_csv):
    # criterion 09: the notice goes to stderr, the report bytes do not move
    dirty = tmp_path / "dirty.csv"
    dirty.write_text(cosine_csv.read_text() + "nan,1.0\n2.0,inf\n")
    model = tmp_path / "m.bin"
    for argv in (
        ["train", "--kernel", "frbf", "--m", "8", "--out", str(model)],
        ["eval", "--kernel", "frbf", "--m", "8", "--folds", "2"],
        ["bench", "--combo", "frbf:1:8", "--folds", "2"],
    ):
        reports = []
        for data in (cosine_csv, dirty):
            code, stdout, stderr = run(capsys, argv + ["--data", str(data), "--seed", "1"] + FAST)
            assert code == 0
            assert ("rejected 2 non-finite row(s)" in stderr) == (data == dirty)
            if argv[0] == "bench":  # its train_s and predict_s columns are wall-clock times
                stdout = [ln.split("\t")[:5] + ln.split("\t")[7:] for ln in stdout.splitlines()]
            reports.append(stdout)
        assert reports[0] == reports[1]


def _set_tail_float(raw, floats_from_end, value):
    """Overwrite one payload float, counted from the end of the file."""
    at = len(raw) - 8 * floats_from_end
    return raw[:at] + struct.pack("<d", value) + raw[at + 8 :]


def _set_head_float(raw, index, value):
    """Overwrite payload float `index`, counted from the start of the payload."""
    at = raw.index(b"\n", raw.index(b"\n") + 1) + 1 + 8 * index
    return raw[:at] + struct.pack("<d", value) + raw[at + 8 :]


def _edit_header(raw, edit):
    magic, header, payload = raw.split(b"\n", 2)
    meta = json.loads(header)
    edit(meta)
    return b"\n".join([magic, json.dumps(meta).encode("ascii"), payload])


# d_in = 1 and D = 16, so the payload starts log a, log ell, beta (16), chol
# and ends noise_var, nlml, x_mean, x_std, y_mean, y_std
@pytest.mark.parametrize(
    "corrupt",
    [
        lambda raw: raw.replace(b"ffgp-model 1\n", b"ffgp-model one\n", 1),
        lambda raw: raw + b"\0\0\0",
        lambda raw: _edit_header(raw, lambda meta: meta.pop("seed")),
        lambda raw: _edit_header(raw, lambda meta: meta.update(d_in="1")),
        lambda raw: _edit_header(raw, lambda meta: meta.update(n_train=30)),
        lambda raw: _set_tail_float(raw, 6, float("inf")),
        lambda raw: _set_tail_float(raw, 3, float("nan")),
        lambda raw: _set_tail_float(raw, 1, float("nan")),
        # finite values whose predictions overflow, and a singular factor
        lambda raw: _set_head_float(raw, 0, 800.0),
        lambda raw: _set_tail_float(raw, 1, 1e200),
        lambda raw: _set_head_float(raw, 18, 0.0),
        # the header alone implies a 96 TB parameter vector
        lambda raw: _edit_header(raw, lambda meta: meta.update(family="fsgbard",
                                                                m_per_group=4_000_000_000_000)),
    ],
    ids=["version", "partial-float", "missing-key", "str-d_in", "int-n_train",
         "inf-noise_var", "nan-x_std", "nan-y_std", "overflowing-amplitude",
         "overflowing-y_std", "zero-chol-diagonal", "huge-m"],
)
def test_predict_rejects_corrupt_model(tmp_path, capsys, cosine_csv, feature_csv, corrupt):
    model = tmp_path / "m.bin"
    run(capsys, ["train", "--data", str(cosine_csv), "--kernel", "frbf", "--m", "8",
                 "--seed", "0", "--out", str(model)] + FAST)
    model.write_bytes(corrupt(model.read_bytes()))
    code, stdout, stderr = run(capsys, ["predict", "--model", str(model), "--data", str(feature_csv)])
    assert code == 1 and stdout == ""
    lines = stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """A small saved frbf model (d=1, m=8), a feature CSV and a scratch path."""
    root = tmp_path_factory.mktemp("fuzz")
    X, y = make_cosine(40, freq=1.0, noise_std=0.02, seed=0)
    save_csv(root / "cos.csv", X, y, feature_names=["x"])
    (root / "feats.csv").write_text("x\n" + "".join("%.17g\n" % v for v in X[:, 0]))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["train", "--data", str(root / "cos.csv"), "--kernel", "frbf", "--m", "8",
                     "--seed", "0", "--out", str(root / "m.bin")] + FAST) == 0
    return root / "m.bin", root / "feats.csv", root / "mutated.bin"


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_predict_survives_corrupted_model_files(fuzz_files, data):
    model, feats, mutated = fuzz_files
    raw = model.read_bytes()
    header_len = raw.index(b"\n", raw.index(b"\n") + 1) + 1
    kind = data.draw(st.sampled_from(["truncate", "header", "payload"]), label="kind")
    if kind == "truncate":
        raw = raw[: data.draw(st.integers(0, len(raw) - 1), label="cut")]
    else:
        lo, hi = (0, header_len) if kind == "header" else (header_len, len(raw))
        buf = bytearray(raw)
        for at in data.draw(st.lists(st.integers(lo, hi - 1), min_size=1, max_size=4), label="at"):
            buf[at] ^= data.draw(st.integers(1, 255), label="xor")
        raw = bytes(buf)
    mutated.write_bytes(raw)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["predict", "--model", str(mutated), "--data", str(feats)])
    assert code in (0, 1)
    if code == 1:
        lines = err.getvalue().splitlines()
        assert out.getvalue() == ""
        assert len(lines) == 1 and lines[0].startswith("error: ")
    else:
        assert "nan" not in out.getvalue() and "inf" not in out.getvalue()


def test_eval_report_shape_and_stats(tmp_path, capsys, cosine_csv):
    code, stdout, _ = run(
        capsys,
        ["eval", "--data", str(cosine_csv), "--kernel", "frbf", "--m", "8",
         "--folds", "4", "--seed", "0"] + FAST,
    )
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0] == "fold\trmse"
    assert len(lines) == 1 + 4 + 3
    scores = np.array([float(ln.split("\t")[1]) for ln in lines[1:5]])
    mean = float(lines[5].split("\t")[1])
    std = float(lines[6].split("\t")[1])
    assert mean == pytest.approx(scores.mean(), abs=5e-7)
    assert std == pytest.approx(scores.std(ddof=1), abs=5e-7)
    assert lines[7] == f"summary\t{scores.mean():.6f} ± {scores.std(ddof=1):.6f}"


def test_eval_deterministic_and_jobs_invariant(tmp_path, capsys, cosine_csv):
    argv = ["eval", "--data", str(cosine_csv), "--kernel", "gm", "--Q", "1", "--m", "8",
            "--folds", "3", "--seed", "2"] + FAST
    _, out1, _ = run(capsys, argv + ["--jobs", "1"])
    _, out2, _ = run(capsys, argv + ["--jobs", "2"])
    _, out3, _ = run(capsys, argv + ["--jobs", "1"])
    assert out1 == out2 == out3


def test_env_seed_fallback(tmp_path, capsys, cosine_csv, monkeypatch):
    argv = ["eval", "--data", str(cosine_csv), "--kernel", "frbf", "--m", "8",
            "--folds", "3"] + FAST
    _, out_flag, _ = run(capsys, argv + ["--seed", "7"])
    monkeypatch.setenv("ALACARTE_SEED", "7")
    _, out_env, _ = run(capsys, argv)
    assert out_env == out_flag
    monkeypatch.setenv("ALACARTE_SEED", "8")
    _, out_other, _ = run(capsys, argv)
    assert out_other != out_flag


def test_bad_seed_usage_errors(capsys, cosine_csv, monkeypatch):
    argv = ["eval", "--data", str(cosine_csv), "--kernel", "frbf", "--m", "8", "--folds", "2"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "-1"])
    assert exc.value.code == 2
    assert "error: --seed must be a non-negative integer" in capsys.readouterr().err
    monkeypatch.setenv("ALACARTE_SEED", "not-a-number")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    # the message names the source the bad value came from
    monkeypatch.setenv("ALACARTE_SEED", "-1")
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    errors = [ln for ln in capsys.readouterr().err.splitlines() if "error:" in ln]
    assert len(errors) == 1 and "ALACARTE_SEED must be a non-negative integer" in errors[0]
    assert "--seed" not in errors[0]


@pytest.mark.parametrize("argv,fits", [
    (["eval", "--kernel", "gm", "--Q", "1", "--m", "8"], 3),
    (["bench", "--combo", "gm:1:8", "--combo", "frbf:1:8"], 6),
])
def test_folds_run_on_the_calling_thread(capsys, cosine_csv, monkeypatch, argv, fits):
    on_main = []
    original = cli.fit

    def fit(*args, **kwargs):
        on_main.append(threading.current_thread() is threading.main_thread())
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "fit", fit)
    code, _, _ = run(capsys, argv + ["--data", str(cosine_csv), "--folds", "3", "--jobs", "2"] + FAST)
    assert code == 0 and on_main == [True] * fits


@pytest.mark.parametrize("exc,line", [
    (MemoryError("Unable to allocate 21.8 TiB for an array"), "error: Unable to allocate 21.8 TiB for an array"),
    (MemoryError(), "error: out of memory"),
])
def test_out_of_memory_is_one_error_line(tmp_path, capsys, cosine_csv, monkeypatch, exc, line):
    def fit(*args, **kwargs):  # raises as a too-large allocation would, without allocating
        raise exc

    monkeypatch.setattr(cli, "fit", fit)
    argv = ["train", "--data", str(cosine_csv), "--kernel", "frbf", "--m", "8", "--out", str(tmp_path / "m.bin")]
    assert run(capsys, argv + FAST) == (1, "", line + "\n")


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_usage_error(capsys, cosine_csv, jobs):
    for argv in (["eval", "--kernel", "frbf", "--m", "8"], ["bench", "--combo", "frbf:1:8"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--data", str(cosine_csv), "--folds", "2", "--jobs", jobs] + FAST)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        errors = [ln for ln in captured.err.splitlines() if "error:" in ln]
        assert len(errors) == 1 and errors[0].endswith("error: --jobs must be >= 1")
        assert captured.out == ""


@pytest.mark.parametrize(
    "flag,value,message",
    [("--iters", "-1", "--iters and --restart-iters must be >= 0"),
     ("--restart-iters", "-2", "--iters and --restart-iters must be >= 0"),
     ("--restarts", "0", "--restarts must be >= 1")],
)
def test_bad_fit_budget_is_usage_error(capsys, cosine_csv, tmp_path, flag, value, message):
    for argv in (["train", "--kernel", "frbf", "--m", "8", "--out", str(tmp_path / "x.bin")],
                 ["eval", "--kernel", "frbf", "--m", "8", "--folds", "2"],
                 ["bench", "--combo", "frbf:1:8", "--folds", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--data", str(cosine_csv)] + FAST + [flag, value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        errors = [ln for ln in captured.err.splitlines() if "error:" in ln]
        assert len(errors) == 1 and errors[0].endswith(f"error: {message}")
        assert captured.out == ""
    assert not (tmp_path / "x.bin").exists()


@pytest.mark.parametrize(
    "argv,message",
    [(["train", "--kernel", "gm", "--Q", "0", "--m", "4"], "--Q and --m must be >= 1"),
     (["train", "--kernel", "fard", "--m", "0"], "--Q and --m must be >= 1"),
     (["train", "--kernel", "frbf", "--Q", "2"], "frbf is a single-component kernel; use --Q 1"),
     (["eval", "--kernel", "gm", "--m", "-1", "--folds", "2"], "--Q and --m must be >= 1"),
     (["eval", "--kernel", "fard", "--Q", "3", "--folds", "2"],
      "fard is a single-component kernel; use --Q 1"),
     (["eval", "--kernel", "frbf", "--m", "8", "--folds", "1"], "--folds must be >= 2"),
     (["bench", "--combo", "frbf:2:4", "--folds", "2"], "frbf is a single-component kernel; use --Q 1"),
     (["bench", "--combo", "gm:1:0", "--folds", "2"], "--combo Q and m must be >= 1"),
     (["bench", "--combo", "gm:1:4", "--folds", "1"], "--folds must be >= 2")],
    ids=["train-Q0", "train-m0", "train-frbf-Q2", "eval-m-1", "eval-fard-Q3", "eval-folds1",
         "bench-frbf-Q2", "bench-m0", "bench-folds1"],
)
def test_bad_shape_or_folds_is_usage_error_before_the_data_is_read(capsys, tmp_path, argv, message):
    # a missing --data file would be exit 1; the usage error comes first
    out = ["--out", str(tmp_path / "x.bin")] if argv[0] == "train" else []
    with pytest.raises(SystemExit) as exc:
        main(argv + out + ["--data", str(tmp_path / "missing.csv")] + FAST)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    errors = [ln for ln in captured.err.splitlines() if "error:" in ln]
    assert len(errors) == 1 and errors[0].endswith(f"error: {message}")
    assert captured.out == ""
    assert not (tmp_path / "x.bin").exists()


def test_zero_fit_budgets_train(capsys, cosine_csv, tmp_path):
    # zero iterations keep the best initialization (the benchmark trains this way)
    out = tmp_path / "m.bin"
    code, stdout, _ = run(
        capsys,
        ["train", "--data", str(cosine_csv), "--kernel", "frbf", "--m", "8", "--out", str(out),
         "--iters", "0", "--restarts", "1", "--restart-iters", "0"],
    )
    assert code == 0 and out.exists() and stdout.startswith("kernel=frbf\t")


def test_train_has_no_jobs_flag(capsys, cosine_csv, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--data", str(cosine_csv), "--kernel", "frbf", "--m", "8",
              "--out", str(tmp_path / "x.bin"), "--jobs", "2"] + FAST)
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


def test_single_component_families_reject_q(capsys, cosine_csv, tmp_path):
    for fam in ("frbf", "fard"):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", str(cosine_csv), "--kernel", fam, "--Q", "3",
                  "--m", "8", "--out", str(tmp_path / "x.bin")])
        assert exc.value.code == 2


def test_unknown_kernel_and_missing_flags(capsys, cosine_csv, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--data", str(cosine_csv), "--kernel", "matern",
              "--out", str(tmp_path / "x.bin")])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["train", "--kernel", "frbf", "--out", str(tmp_path / "x.bin")])
    assert exc.value.code == 2


def test_only_a_fit_imports_the_optimizer(tmp_path, capsys, cosine_csv, feature_csv):
    # `import ffgp.cli` and `ffgp predict` leave scipy.optimize unloaded;
    # train loads it at its first fit.  A fresh interpreter, since this one
    # has long loaded it.
    model = tmp_path / "m.bin"
    assert run(capsys, ["train", "--data", str(cosine_csv), "--kernel", "frbf", "--m", "8",
                        "--out", str(model)] + FAST)[0] == 0
    script = f"""
import sys
import ffgp.cli
assert "scipy.optimize" not in sys.modules, "import"
assert ffgp.cli.main(["predict", "--model", {str(model)!r}, "--data", {str(feature_csv)!r},
                      "--out", {str(tmp_path / "p.csv")!r}]) == 0
assert "scipy.optimize" not in sys.modules, "predict"
assert ffgp.cli.main(["train", "--data", {str(cosine_csv)!r}, "--kernel", "frbf", "--m", "8",
                      "--out", {str(tmp_path / "m2.bin")!r}] + {FAST!r}) == 0
assert "scipy.optimize" in sys.modules, "train"
"""
    src = str(Path(ffgp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv", [
    ["train", "--kernel", "frbf", "--m", "4611686018427387904"],
    ["train", "--kernel", "frbf", "--m", "99999999999999999999999"],
    ["train", "--kernel", "frbf", "--m", "1" + "0" * 400],
    ["train", "--kernel", "gm", "--Q", "4611686018427387904"],
    ["bench", "--combo", "gm:1:9223372036854775807"],
    ["train", "--kernel", "frbf", "--m", "1125899906842624"],
], ids=["frbf-m2^62", "frbf-m1e23", "frbf-m1e400", "gm-Q2^62", "bench-m2^63", "frbf-m2^50"])
def test_oversized_shape_is_one_error_line(capsys, tmp_path, cosine_csv, argv):
    # shapes numpy cannot size fail in KernelSpec; 2^50 frequencies can be
    # sized, and fail at the allocation (MemoryError)
    out = ["--out", str(tmp_path / "x.bin")] if argv[0] == "train" else ["--folds", "2"]
    try:
        code = main(argv + out + ["--data", str(cosine_csv)] + FAST)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code in (1, 2)
    assert len([ln for ln in captured.err.splitlines() if "error:" in ln]) == 1
    assert "Traceback" not in captured.err and captured.out == ""
    assert not (tmp_path / "x.bin").exists()


def test_missing_file_is_runtime_error(capsys, tmp_path):
    code, _, stderr = run(capsys, ["predict", "--model", str(tmp_path / "no.bin"),
                                   "--data", str(tmp_path / "no.csv")])
    assert code == 1 and stderr.startswith("error:")


def test_bench_report_format(tmp_path, capsys, cosine_csv):
    code, stdout, _ = run(
        capsys,
        ["bench", "--data", str(cosine_csv), "--folds", "3", "--seed", "0",
         "--combo", "frbf:1:8", "--combo", "gm:1:8"] + FAST,
    )
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0] == "kernel\tQ\tm\trmse_mean\trmse_std\ttrain_s\tpredict_s\tmodel_bytes"
    assert len(lines) == 3
    for ln, fam in zip(lines[1:], ("frbf", "gm")):
        cells = ln.split("\t")
        assert cells[0] == fam
        # model_bytes is the size of the file `train` writes for the same combo
        model_path = tmp_path / f"{fam}.bin"
        code, _, _ = run(
            capsys,
            ["train", "--data", str(cosine_csv), "--kernel", fam, "--Q", "1", "--m", "8",
             "--seed", "0", "--out", str(model_path)] + FAST,
        )
        assert code == 0
        assert int(cells[7]) == model_path.stat().st_size


def test_bench_rejects_bad_combo(capsys, cosine_csv):
    for combo in ("frbf", "frbf:1", "matern:1:8", "frbf:a:8", "frbf:0:8"):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--data", str(cosine_csv), "--folds", "2", "--combo", combo])
        assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--data", str(cosine_csv), "--folds", "2"])  # no combos
    assert exc.value.code == 2


def test_eval_out_file_matches_stdout(tmp_path, capsys, cosine_csv):
    report = tmp_path / "report.txt"
    _, stdout, _ = run(
        capsys,
        ["eval", "--data", str(cosine_csv), "--kernel", "frbf", "--m", "8",
         "--folds", "3", "--seed", "1", "--out", str(report)] + FAST,
    )
    assert report.read_text() == stdout


def test_target_col_by_name(tmp_path, capsys):
    p = tmp_path / "named.csv"
    rng = np.random.default_rng(0)
    with open(p, "w") as fh:
        fh.write("y,x\n")
        for _ in range(40):
            x = rng.uniform(0, 5)
            fh.write(f"{np.sin(x):.9f},{x:.9f}\n")
    out = tmp_path / "m.bin"
    code, stdout, _ = run(
        capsys,
        ["train", "--data", str(p), "--target-col", "y", "--kernel", "frbf",
         "--m", "8", "--seed", "0", "--out", str(out)] + FAST,
    )
    assert code == 0 and out.exists()


@pytest.mark.parametrize("text,target", [
    ("a,b,c\n1,,3\n4,,6\n", ["--target-col", "c"]),  # empty cell
    ("a,b\n1,2,3\n4,5,6\n", []),  # header shorter than the rows
])
def test_train_rejects_malformed_csv(tmp_path, capsys, text, target):
    p = tmp_path / "bad.csv"
    p.write_text(text)
    code, stdout, stderr = run(
        capsys,
        ["train", "--data", str(p), "--kernel", "frbf", "--m", "8",
         "--out", str(tmp_path / "m.bin")] + target + FAST,
    )
    assert code == 1 and stdout == ""
    assert stderr.startswith("error:") and stderr.count("\n") == 1


@pytest.mark.parametrize("raw,offset", [
    (b"\xff\xfex,y\n1,2\n3,4\n", 0),  # a UTF-16 BOM
    (b"x,y\n1,2\n3,4\x80\n", 11),
    (b"x,y\n" + b"1,2\n" * 3000 + b"\x80\n", 12004),  # past the first read chunk
    (b"\xef\xbb\xbfx,y\n1,2\n3,4\x80\n", 14),  # offsets count a UTF-8 BOM
    (b"\xef\xbb\xbfx,y\n" + b"1,2\n" * 3000 + b"\x80\n", 12007),
])
def test_non_utf8_csv_is_one_error_line(tmp_path, capsys, cosine_csv, raw, offset):
    bad, model = tmp_path / "bad.csv", tmp_path / "m.bin"
    bad.write_bytes(raw)
    assert main(["train", "--data", str(cosine_csv), "--kernel", "frbf", "--m", "8",
                 "--out", str(model)] + FAST) == 0
    capsys.readouterr()
    for argv in (["train", "--kernel", "frbf", "--m", "8", "--out", str(tmp_path / "m2.bin")] + FAST,
                 ["predict", "--model", str(model)]):
        code, stdout, stderr = run(capsys, argv + ["--data", str(bad)])
        assert code == 1 and stdout == ""
        assert stderr == f"error: {bad}: byte {offset} (0x{raw[offset]:02x}) is not UTF-8\n"


def test_bench_validates_every_combo_before_the_first_fit(capsys, cosine_csv, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "fit", lambda *a, **k: calls.append(1))
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--data", str(cosine_csv), "--folds", "3",
              "--combo", "gm:1:8", "--combo", "frbf:2:8"] + FAST)
    assert exc.value.code == 2
    assert "error: frbf is a single-component kernel; use --Q 1" in capsys.readouterr().err
    assert calls == []


@pytest.fixture()
def cosine200_csv(tmp_path):
    X, y = make_cosine(200, seed=0)
    p = tmp_path / "cos200.csv"
    save_csv(p, X, y, feature_names=["x"])
    return p


def _bench_cells(capsys, csv, *extra):
    """Bench report rows without the train_s and predict_s timing columns."""
    code, stdout, _ = run(capsys, ["bench", "--data", str(csv), "--folds", "3", "--seed", "2",
                                   *extra] + FAST)
    assert code == 0
    return [ln.split("\t")[:5] + ln.split("\t")[7:] for ln in stdout.splitlines()]


def test_bench_row_matches_eval_summary(capsys, cosine200_csv):
    rows = _bench_cells(capsys, cosine200_csv, "--combo", "gm:1:8")
    code, stdout, _ = run(capsys, ["eval", "--data", str(cosine200_csv), "--kernel", "gm",
                                   "--Q", "1", "--m", "8", "--folds", "3", "--seed", "2"] + FAST)
    assert code == 0
    stats = dict(ln.split("\t") for ln in stdout.splitlines() if ln.split("\t")[0] in ("mean", "std"))
    assert len(rows) == 2 and rows[1][3:5] == [stats["mean"], stats["std"]]


def test_bench_jobs_invariant(capsys, cosine200_csv):
    combos = ["--combo", "gm:1:8", "--combo", "frbf:1:8"]
    serial = _bench_cells(capsys, cosine200_csv, *combos, "--jobs", "1")
    assert len(serial) == 3
    assert _bench_cells(capsys, cosine200_csv, *combos, "--jobs", "2") == serial


@pytest.fixture(params=["X", "y"])
def overflowing_csv(request, tmp_path):
    # 40 rows, d=2; one side near 1e300, whose variance overflows
    rng = np.random.default_rng(0)
    X = rng.uniform(0, 5, size=(40, 2))
    y = np.sin(X[:, 0]) + X[:, 1]
    if request.param == "X":
        X = X * 1e300
    else:
        y = y * 1e300
    p = tmp_path / f"huge_{request.param}.csv"
    save_csv(p, X, y, feature_names=["a", "b"])
    return p, request.param


@pytest.mark.parametrize("command", ["train", "eval"])
def test_overflowing_statistics_are_one_clean_error(capsys, tmp_path, overflowing_csv, command):
    path, side = overflowing_csv
    model = tmp_path / "m.bin"
    extra = ["--out", str(model)] if command == "train" else ["--folds", "3"]
    code, stdout, stderr = run(capsys, [command, "--data", str(path), "--kernel", "gm",
                                        "--Q", "1", "--m", "16", "--seed", "0"] + extra + FAST)
    assert code == 1 and stdout == ""
    assert stderr.startswith("error:") and stderr.count("\n") == 1
    assert f"{side} mean or scale is not finite" in stderr
    assert not model.exists()


@pytest.mark.parametrize("scaled", ["none", "x1 1e-200", "X 1e-300", "y 1e-300"])
def test_underflowing_scales_train_like_unit_scales(capsys, tmp_path, scaled):
    # np.std squares the deviations, and below about 1e-154 the squares
    # underflow; a column or target that still varies keeps its own scale
    rng = np.random.default_rng(0)
    X = rng.standard_normal((40, 2))
    y = np.sin(X[:, 0]) + 0.1 * rng.standard_normal(40)
    if scaled == "x1 1e-200":
        X[:, 0] *= 1e-200
    elif scaled == "X 1e-300":
        X = X * 1e-300
    elif scaled == "y 1e-300":
        y = y * 1e-300
    path, model = tmp_path / "t.csv", tmp_path / "m.bin"
    save_csv(path, X, y)
    code, stdout, _ = run(capsys, ["train", "--data", str(path), "--kernel", "gm", "--Q", "1",
                                   "--m", "16", "--out", str(model), "--iters", "5",
                                   "--restarts", "2", "--restart-iters", "2"])
    assert code == 0 and "\tnlml=-10.546889\t" in stdout


def _train_recording_warnings(capsys, argv):
    """run(capsys, ["train"] + argv), plus every warning it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # each would be a stderr line of the CLI
        code, stdout, stderr = run(capsys, ["train"] + argv)
    return code, stdout, stderr, [str(w.message) for w in caught]


def test_constant_column_trains_with_only_the_timing_on_stderr(capsys, tmp_path):
    # a constant input column takes lengthscale 1.0 without a word
    X = np.column_stack([np.linspace(-2.0, 2.0, 40), np.full(40, 3.0)])
    path = tmp_path / "t.csv"
    save_csv(path, X, np.sin(X[:, 0]))
    code, _, stderr, caught = _train_recording_warnings(
        capsys, ["--data", str(path), "--kernel", "fard", "--m", "8",
                 "--out", str(tmp_path / "m.bin")] + FAST)
    assert code == 0 and caught == []
    assert re.fullmatch(r"train_s=\d+\.\d\d\n", stderr), stderr


def test_identical_rows_are_one_error_line(capsys, tmp_path):
    path, model = tmp_path / "t.csv", tmp_path / "m.bin"
    save_csv(path, np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([0.5, 0.7]))
    code, stdout, stderr, caught = _train_recording_warnings(
        capsys, ["--data", str(path), "--kernel", "pwl", "--Q", "1", "--m", "8",
                 "--out", str(model)] + FAST)
    assert code == 1 and stdout == "" and caught == []
    assert stderr == "error: all input rows are identical\n"
    assert not model.exists()


def _cells(draw, n):
    """One CSV column of n cells: constant, at one scale, or at mixed scales,
    with scales from 1e-300 to 1e300."""
    exponent = draw(st.integers(-300, 300), label="exponent")
    mantissa = st.floats(-10.0, 10.0, allow_nan=False)
    kind = draw(st.sampled_from(["constant", "one scale", "mixed scales"]), label="kind")
    if kind == "constant":
        return [draw(mantissa, label="value") * 10.0**exponent] * n
    near = st.integers(max(exponent - 2, -300), min(exponent + 2, 300))
    spread = near if kind == "one scale" else st.integers(-300, 300)
    return [draw(mantissa) * 10.0 ** draw(spread) for _ in range(n)]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_train_on_hostile_csvs_fails_cleanly_or_predicts(tmp_path_factory, data):
    n = data.draw(st.integers(1, 12), label="n")
    d = data.draw(st.integers(1, 3), label="d")
    rows = [list(r) for r in zip(*(_cells(data.draw, n) for _ in range(d + 1)))]
    for i in data.draw(st.lists(st.integers(0, n - 1), max_size=n), label="duplicated"):
        rows.append(list(rows[i]))
    for _ in range(data.draw(st.integers(0, 2), label="non-finite")):
        row = data.draw(st.integers(0, len(rows) - 1))
        column = data.draw(st.integers(0, d))
        rows[row][column] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    root = tmp_path_factory.mktemp("hostile")
    table, feats, model = root / "t.csv", root / "f.csv", root / "m.bin"
    table.write_text("".join(",".join("%.17g" % v for v in r) + "\n" for r in rows))
    feats.write_text("".join(",".join("%.17g" % v for v in r[:d]) + "\n" for r in rows))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # each would be a stderr line of the CLI
        code = main(["train", "--data", str(table), "--kernel", "gm", "--Q", "1", "--m", "8",
                     "--seed", "0", "--out", str(model)])
    # DeprecationWarnings are hidden outside __main__; the CLI shows the rest
    shown = [str(w.message) for w in caught if not issubclass(w.category, DeprecationWarning)]
    lines = err.getvalue().splitlines() + shown
    notes = [ln for ln in lines if re.fullmatch(r"rejected \d+ non-finite row\(s\)", ln)]
    if code != 0:
        assert code in (1, 2)
        errors = [ln for ln in lines if ln.startswith("error:")]
        assert len(errors) == 1 and len(errors) + len(notes) == len(lines), lines
        return
    timings = [ln for ln in lines if re.fullmatch(r"train_s=\d+\.\d\d", ln)]
    assert len(timings) == 1 and len(timings) + len(notes) == len(lines), lines
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(["predict", "--model", str(model), "--data", str(feats)]) == 0
    predictions = np.loadtxt(io.StringIO(out.getvalue()), delimiter=",", skiprows=1, ndmin=2)
    assert predictions.shape[1] == 2 and np.all(np.isfinite(predictions))
