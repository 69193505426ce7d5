"""Command-line behavior: report formats, determinism, seed plumbing, exits."""

import json
import struct

import numpy as np
import pytest

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


def _set_tail_float(raw, floats_from_end, value):
    """Overwrite one payload float, counted from the end of the file."""
    at = len(raw) - 8 * floats_from_end
    return raw[:at] + struct.pack("<d", value) + raw[at + 8 :]


def _edit_header(raw, edit):
    magic, header, payload = raw.split(b"\n", 2)
    meta = json.loads(header)
    edit(meta)
    return b"\n".join([magic, json.dumps(meta).encode("ascii"), payload])


# d_in = 1, so the payload ends noise_var, nlml, x_mean, x_std, y_mean, y_std
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
    ],
    ids=["version", "partial-float", "missing-key", "str-d_in", "int-n_train",
         "inf-noise_var", "nan-x_std", "nan-y_std"],
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
    monkeypatch.setenv("ALACARTE_SEED", "not-a-number")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


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
