"""Smoke tests for the scripts under scripts/: each main() runs on small inputs."""

import importlib.util
import json
import re
import sys
from pathlib import Path

import numpy as np

from ffgp.data import load_csv
from ffgp.train import TrainConfig, fit

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"scripts_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digest_prints_one_stable_hash_per_family(capsys):
    digest = _load("digest")
    outputs = []
    for _ in range(2):
        digest.main()
        captured = capsys.readouterr()
        outputs.append(captured.out)
        # the BLAS thread count the bits depend on, on stderr only
        assert re.fullmatch(r"blas_threads=(\d+|unknown)\n", captured.err)
    lines = outputs[0].splitlines()
    families = [s[0] for s in digest.SHAPES]
    # the six training lines, then one prediction and one data-form line per family
    train, pred, data = lines[:6], lines[6:12], lines[12:]
    assert [ln.split("\t")[0] for ln in train] == families
    assert all(re.fullmatch(r"[a-z]+\t[0-9a-f]{64}", ln) for ln in train)
    assert [ln.split(" ")[1] for ln in pred] == families
    assert all(re.fullmatch(r"predict [a-z]+ [0-9a-f]{64}", ln) for ln in pred)
    assert [ln.split(" ")[1] for ln in data] == families
    assert all(re.fullmatch(r"data [a-z]+ [0-9a-f]{64}", ln) for ln in data)
    assert len(lines) == 18 and outputs[0] == outputs[1]


def test_eval_timing_starts_where_fit_starts():
    timing = _load("eval_timing")
    X, y = timing.surrogate()
    family, Q, m = next(shape for shape in timing.SHAPES if shape[0] == "fsgbard")
    spec, stacks, h = timing.restart0(family, Q, m, X, y)
    assert h.shape == (spec.n_hypers,) and len(stacks) == Q
    # a fit with one restart and no iterations keeps exactly that start
    config = TrainConfig(max_iters=0, restart_count=1, restart_iters=0, seed=0)
    model, _ = fit(spec, X, y, config)
    np.testing.assert_array_equal(model.spec.params, h[1:])


def test_run_scaling_prints_one_row_per_size(capsys, monkeypatch):
    scaling = _load("run_scaling")
    monkeypatch.setattr(sys, "argv", ["run_scaling.py", "--sizes", "200", "400"])
    scaling.main()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n\tseconds\tmodel_bytes" and len(lines) == 5
    rows = [ln.split("\t") for ln in lines[1:3]]
    assert [r[0] for r in rows] == ["200", "400"]
    assert all(re.fullmatch(r"\d+\.\d\d", r[1]) and int(r[2]) > 0 for r in rows)
    assert re.fullmatch(r"log-log slope = -?\d+\.\d{3}", lines[3])
    assert lines[4] == "file size constant across n: True"


def test_make_datasets_writes_the_bundled_tables(capsys, monkeypatch, tmp_path):
    make = _load("make_datasets")
    monkeypatch.setattr(sys, "argv", ["make_datasets.py", "--out-dir", str(tmp_path)])
    make.main()
    lines = capsys.readouterr().out.splitlines()
    shapes = {"surrogate.csv": (1503, 5), "cosine6.csv": (500, 1),
              "smooth_2000.csv": (2000, 4), "smooth_8000.csv": (8000, 4),
              "smooth_32000.csv": (32000, 4)}
    assert [ln.split(":")[0] for ln in lines] == list(shapes)
    for line, (name, (n, d)) in zip(lines, shapes.items()):
        assert line.startswith(f"{name}: n={n} d={d}")
        ds = load_csv(tmp_path / name)
        assert (ds.n, ds.d, ds.n_rejected) == (n, d, 0)


def test_eval_timing_prints_an_evaluation_and_a_co_matrix_time_per_shape(capsys, monkeypatch):
    timing = _load("eval_timing")
    monkeypatch.setattr(timing, "SHAPES", (("frbf", 1, 8), ("frbf", 1, 1280)))
    monkeypatch.setattr(timing, "PREDICT_BATCHES", (0.25, 2))
    monkeypatch.setattr(sys, "argv", ["eval_timing.py", "--repeats", "1"])
    timing.main()
    report = json.loads(capsys.readouterr().out)
    # both variance routes per batch of 0.25 D and 2 D rows, and the route
    # the rule picks for it
    assert list(report["predict_ms"]) == ["frbf 1x8", "frbf 1x1280"]
    for entry in report["predict_ms"].values():
        D = entry["D"]
        assert list(entry["rows"]) == [str(D // 4), str(2 * D)]
        assert [batch["rule"] for batch in entry["rows"].values()] == ["solve", "inverse"]
        for batch in entry["rows"].values():
            assert all(isinstance(batch[route], float) and batch[route] > 0 for route in ("solve", "inverse"))
    names = ["frbf 1x8", "frbf 1x1280"]
    layers = ("features_ms", "diagonals_ms", "operator_ms", "co_matrix_ms")
    assert list(report["eval_ms"]) == names and all(list(report[layer]) == names for layer in layers)
    assert [report["eval_ms"][name]["form"] for name in names] == ["feature", "data"]
    for name in names:
        assert report["eval_ms"][name]["ms"] > 0
        # per evaluation over the timed calls, from getrusage of the process
        assert isinstance(report["eval_ms"][name]["minor_faults"], int)
        assert report["eval_ms"][name]["minor_faults"] >= 0
        assert isinstance(report["eval_ms"][name]["kernel_ms"], float)
        assert report["eval_ms"][name]["kernel_ms"] >= 0
        for layer in layers:
            ms = report[layer][name]
            assert isinstance(ms, float) and ms > 0


def test_recover_spectrum_prints_its_eight_labelled_lines(capsys, monkeypatch):
    recover = _load("recover_spectrum")
    monkeypatch.setattr(sys, "argv", ["recover_spectrum.py", "--m", "4"])
    recover.main()
    lines = capsys.readouterr().out.splitlines()
    labels = ["target frequency", "learned |mu_1|", "learned sigma_1", "learned weight",
              "noise std", "test rmse", "nlml", "seconds"]
    assert [ln.split(":")[0].rstrip() for ln in lines] == labels
    assert lines[0] == "target frequency : 6.0"
    for line in lines[1:]:
        assert re.fullmatch(r"-?\d+\.\d+", line.split(": ", 1)[1])
