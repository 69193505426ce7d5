"""Fast self-test of the benchmark: schema, metric names, tracer and checks.

    python3 -m pytest -q perfbench
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import ffgp  # noqa: E402
import ffgp.cli  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC = run.SPEC
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_schema():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert BENCH["command"] == ["python3", "perfbench/run.py"]
    assert BENCH["paths"] == ["perfbench"]
    assert isinstance(BENCH["run_seconds"], int) and 1 <= BENCH["run_seconds"] <= 60
    assert 2 <= len(BENCH["workloads"]) <= 8
    for w in BENCH["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    assert 1 <= len(BENCH["end_to_end"]) <= 16
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and m["better"] in ("lower", "higher")
    setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": setup[0]["bound"]}]
    assert setup[0]["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    assert 1 <= len(BENCH["per_layer"]) <= 128
    for m in BENCH["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and m["better"] in ("lower", "higher")
    names = [m["name"] for m in BENCH["workloads"] + BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in BENCH["end_to_end"] + BENCH["per_layer"])
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_names_agree_across_files():
    kept = [w for w in SPEC["workloads"] if w not in SPEC["dropped_workloads"]]
    assert [w["name"] for w in BENCH["workloads"]] == kept
    for w in BENCH["workloads"]:
        assert w["why"] == SPEC["workloads"][w["name"]]["why"]
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == list(tracer.PER_LAYER)
    assert SPEC["default_seed"] != SPEC["alternate_seed"]


def test_every_layer_predicts_known_metrics_and_workloads():
    per_layer = {m["name"] for m in BENCH["per_layer"]}
    end_to_end = {m["name"] for m in BENCH["end_to_end"]}
    listed = []
    for layer, entry in SPEC["layers"].items():
        listed += entry["metrics"]
        for p in entry["moves"] + entry["no_change"]:
            assert p["metric"] in end_to_end, (layer, p)
            assert p["workload"] in SPEC["workloads"], (layer, p)
    assert sorted(listed) == sorted(per_layer)
    modules = {"hadamard", "fastfood", "spectra", "features", "gp", "train", "model", "data", "cli"}
    assert modules <= set(SPEC["layers"])


def test_union_length_merges_overlapping_children():
    assert tracer._union_length([(1, 3), (2, 4), (6, 7)], 0, 10) == 4
    assert tracer._union_length([(-1, 2), (8, 12)], 0, 10) == 4
    assert tracer._union_length([], 0, 10) == 0


def test_traced_fit_counts_and_uninstall():
    originals = {(id(o), a): getattr(o, a) for o, a, _, _ in tracer.wrap_points(ffgp)}
    X, y = ffgp.data.make_surrogate(n=80, seed=3)
    spec = ffgp.KernelSpec.template("gm", 5, 2, 8)
    config = ffgp.TrainConfig(max_iters=2, restart_count=2, restart_iters=1, seed=3)
    t = tracer.Tracer()
    t.install(ffgp)
    try:
        root = t.begin_op(0)
        ffgp.fit(spec, X, y, config)
        t.end_op(root)
    finally:
        t.uninstall()
    assert all(getattr(o, a) is originals[(id(o), a)] for o, a, _, _ in tracer.wrap_points(ffgp))
    m, evals = tracer.op_layer_metrics(t.spans, 0)
    assert m["train.evals"] == len(evals) == m["train.lbfgs.nfev"] > 0
    assert m["gp.form_feature_evals"] + m["gp.form_data_evals"] == m["train.evals"]
    # gm projects each group once per evaluation; the gradient uses the transpose
    assert m["features.project_per_eval"] == spec.Q
    assert m["gp.chol.calls"] == m["train.evals"] + 1  # plus the posterior
    assert m["hadamard.fwht.calls"] == 2 * m["fastfood.blocks"]
    assert 0 <= m["train.discarded_eval_share"] < 1
    assert set(m) | {"train.eval.p50_ms", "train.eval.p90_ms", "trace.overhead_share"} == {
        n for n, _, _ in tracer.PER_LAYER
    }


def test_fit_check_and_consistency(tmp_path):
    wl = run.FitWorkload(ffgp, "gm", 1, 4, {"restart_count": 1, "restart_iters": 1, "max_iters": 1})
    state = wl.setup(5, tmp_path)
    assert wl.setup_digest(state) == wl.setup_digest(wl.setup(5, tmp_path))
    model, nlml = wl.op(state)
    good = wl.check(state, (model, nlml))
    assert good.model_bytes == (tmp_path / "model.bin").stat().st_size
    with pytest.raises(run.CheckFailed):
        wl.check(state, (model, nlml + 1.0))
    records = [run.OpRecord(1.0, False, good), run.OpRecord(1.0, False, good),
               run.OpRecord(1.0, False, run.Outcome(good.nlml, good.test_rmse + 1e-12, 1, "x"))]
    run.mark_inconsistent(records)
    assert [r.error is None for r in records] == [True, True, False]


def test_cv_report_must_match_reference(tmp_path):
    wl = run.CvWorkload.__new__(run.CvWorkload)
    wl.fold_nlml = [1.0] * run.CvWorkload.FOLDS
    out = tmp_path / "report.tsv"
    out.write_bytes(b"fold\trmse\nmean\t0.5\n")
    state = {"out_path": out, "report_ref": b"fold\trmse\nmean\t0.6\n", "model_bytes": 1}
    with pytest.raises(run.CheckFailed):
        wl.check(state, (0, ""))
    state["report_ref"] = out.read_bytes()
    assert wl.check(state, (0, "")).test_rmse == 0.5
    with pytest.raises(run.CheckFailed):
        wl.check(state, (1, "error: x"))


def test_predict_output_must_match_in_memory_predict_bit_for_bit(tmp_path):
    X, y = ffgp.data.make_smooth(40, d=5, seed=4)
    config = ffgp.TrainConfig(max_iters=0, restart_count=1, restart_iters=0, seed=4)
    model, _ = ffgp.fit(ffgp.KernelSpec.template("frbf", 5, 1, 8), X[:30], y[:30], config)
    wl = run.PredictWorkload(ffgp)
    wl.N_TEST = 10
    mean, var = model.predict(X[30:])
    state = {"model": model, "y_test": y[30:], "mean_ref": mean, "var_ref": var,
             "model_path": tmp_path / "model.bin", "out_path": tmp_path / "out.csv"}
    ffgp.model.save_model(model, state["model_path"])

    def write(v):
        rows = "".join("%.17g,%.17g\n" % pair for pair in zip(mean, v))
        state["out_path"].write_text("mean,variance\n" + rows)

    write(var)
    assert wl.check(state, (0, "")).test_rmse == ffgp.rmse(mean, y[30:])
    bumped = var.copy()
    bumped[3] = np.nextafter(bumped[3], np.inf)
    write(bumped)
    with pytest.raises(run.CheckFailed):
        wl.check(state, (0, ""))


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit-feature", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not (tmp_path / ".perfbench").exists()
