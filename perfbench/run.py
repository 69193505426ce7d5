"""ffgp benchmark: fit, predict and cross-validation workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fit-feature --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all

Each workload is a closed loop: one process runs one timed op at a time
until --seconds have passed, and checks every op's output.  With --trace 0
the last stdout line carries the end-to-end metrics; with --trace 1 ops
alternate untraced and traced (see tracer.py) and it carries the per-layer
metrics, including the tracing overhead.  Earlier stdout lines print every
metric with its unit and sample count, then one JSON detail line.  Inputs
come from --seed alone; the code under test is imported from ./src.
Working files, span dumps and exact-count records go to ./.perfbench/.
"""

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from tracer import EXACT_COUNTS, PER_LAYER, Tracer, op_layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SPEC = json.loads((HERE / "workloads.json").read_text())

# each set-up is repeated and its median reported, so that set-up time is
# as steady as the op times
SETUP_REPEATS = 3
# a traced run alternates untraced and traced ops and needs two traced ops
# to compare exact counts
TRACED_MIN_OPS = 4

END_TO_END = (
    ("op_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("model_bytes", "bytes"),
)
# further user-facing metrics, printed on every run but left out of BENCHMARK.json:
# they vary with the seed (nlml, test_rmse) or are 0 on a healthy run
DETAIL_ONLY = (("nlml", "nats"), ("test_rmse", "y-units"), ("error_rate", "ratio"))


class CheckFailed(Exception):
    """An op's output is wrong."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Outcome:
    """What every op of a run must reproduce exactly."""

    nlml: float | None
    test_rmse: float
    model_bytes: int
    digest: str


def _sha(*arrays_or_bytes):
    h = hashlib.sha256()
    for a in arrays_or_bytes:
        h.update(a if isinstance(a, bytes) else a.tobytes())
    return h.hexdigest()


def _quiet_cli(ffgp, argv):
    """ffgp.cli.main in-process, its output kept off our stdout: (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = ffgp.cli.main(argv)
    return rc, err.getvalue()


# ---- workloads --------------------------------------------------------------


class FitWorkload:
    """One library ffgp.fit on fold 0 of 10 of the surrogate table."""

    def __init__(self, ffgp, family, Q, m, budget):
        self.ffgp = ffgp
        self.family, self.Q, self.m = family, Q, m
        self.budget = budget

    def setup(self, seed, work):
        ffgp = self.ffgp
        X, y = ffgp.data.make_surrogate(seed=seed)
        tr, te = ffgp.kfold_partitions(len(y), 10, seed)[0]
        std = ffgp.fit_standardization(X[tr], y[tr])
        return {
            "spec": ffgp.KernelSpec.template(self.family, X.shape[1], self.Q, self.m),
            "X": std.apply_x(X[tr]),
            "y": std.apply_y(y[tr]),
            "X_test": X[te],
            "y_test": y[te],
            "std": std,
            "config": ffgp.TrainConfig(seed=seed, **self.budget),
            "model_path": work / "model.bin",
        }

    def setup_digest(self, s):
        return _sha(s["X"], s["y"], s["X_test"], s["y_test"])

    def reference(self, s):
        pass

    def op(self, s):
        return self.ffgp.fit(s["spec"], s["X"], s["y"], s["config"], standardization=s["std"])

    def check(self, s, result):
        model, nlml = result
        require(np.isfinite(nlml) and nlml == model.nlml, f"nlml {nlml} not finite or not stored")
        mean, var = model.predict(s["X_test"])
        rmse = self.ffgp.rmse(mean, s["y_test"])
        require(np.isfinite(rmse), "test predictions not finite")
        require(rmse < np.std(s["y_test"]), f"test rmse {rmse:.4f} no better than the mean")
        require(np.all(var >= model.noise_var * model.standardization.y_std**2), "variance below noise")
        self.ffgp.model.save_model(model, s["model_path"])
        raw = s["model_path"].read_bytes()
        return Outcome(float(nlml), rmse, len(raw), _sha(raw))


class PredictWorkload:
    """save_model, then `ffgp predict` in-process on a 20,000-row CSV."""

    N_TRAIN, N_TEST, D = 1500, 20000, 5

    def __init__(self, ffgp):
        self.ffgp = ffgp

    def setup(self, seed, work):
        ffgp = self.ffgp
        X, y = ffgp.data.make_smooth(self.N_TRAIN + self.N_TEST, d=self.D, seed=seed)
        Xtr, ytr = X[: self.N_TRAIN], y[: self.N_TRAIN]
        std = ffgp.fit_standardization(Xtr, ytr)
        spec = ffgp.KernelSpec.template("frbf", self.D, 1, 1280)
        # minimal budget: one objective evaluation, then the posterior
        config = ffgp.TrainConfig(max_iters=0, restart_count=1, restart_iters=0, seed=seed)
        model, _ = ffgp.fit(spec, std.apply_x(Xtr), std.apply_y(ytr), config, standardization=std)
        data_path = work / "predict.csv"
        header = ",".join(f"x{j + 1}" for j in range(self.D))
        np.savetxt(data_path, X[self.N_TRAIN :], fmt="%.17g", delimiter=",", header=header, comments="")
        return {
            "model": model,
            "X_test": X[self.N_TRAIN :],
            "y_test": y[self.N_TRAIN :],
            "data_path": data_path,
            "model_path": work / "model.bin",
            "out_path": work / "predictions.csv",
        }

    def setup_digest(self, s):
        m = s["model"]
        return _sha(m.beta, m.chol_factor, m.spec.params, s["data_path"].read_bytes())

    def reference(self, s):
        s["mean_ref"], s["var_ref"] = s["model"].predict(s["X_test"])

    def op(self, s):
        self.ffgp.model.save_model(s["model"], s["model_path"])
        argv = ["predict", "--model", str(s["model_path"]), "--data", str(s["data_path"]),
                "--out", str(s["out_path"])]
        return _quiet_cli(self.ffgp, argv)

    def check(self, s, result):
        rc, err = result
        require(rc == 0, f"ffgp predict exited {rc}: {err.strip()}")
        lines = s["out_path"].read_text().splitlines()
        require(lines[:1] == ["mean,variance"], "missing mean,variance header")
        require(len(lines) == self.N_TEST + 1, f"{len(lines) - 1} rows, want {self.N_TEST}")
        table = np.array([ln.split(",") for ln in lines[1:]], dtype=float)
        mean, var = table[:, 0], table[:, 1]
        require(np.array_equal(mean, s["mean_ref"]), "means differ from in-memory predict")
        require(np.array_equal(var, s["var_ref"]), "variances differ from in-memory predict")
        model = s["model"]
        require(np.all(var >= model.noise_var * model.standardization.y_std**2), "variance below noise")
        raw = s["model_path"].read_bytes()
        # no likelihood is evaluated in this op, so it reports no nlml
        return Outcome(None, self.ffgp.rmse(mean, s["y_test"]), len(raw), _sha(raw))


class CvWorkload:
    """`ffgp eval --folds 4 --jobs 2` in-process on the surrogate CSV."""

    FOLDS, JOBS = 4, 2

    def __init__(self, ffgp, budget):
        self.ffgp = ffgp
        self.budget = budget
        self.fold_nlml = []
        original = ffgp.cli.fit

        # result tap for the rest of the process, not a timer: collects
        # each fold's final NLML, which the eval report does not print
        def fit(*args, **kwargs):
            result = original(*args, **kwargs)
            self.fold_nlml.append(result[1])
            return result

        ffgp.cli.fit = fit

    def _argv(self, s, command, out, budget, *extra):
        return [command, "--data", str(s["data_path"]), "--kernel", "gm", "--Q", "3", "--m", "64",
                "--seed", str(s["seed"]), "--iters", str(budget["max_iters"]),
                "--restarts", str(budget["restart_count"]),
                "--restart-iters", str(budget["restart_iters"]), "--out", str(out), *extra]

    def _eval_argv(self, s, jobs, out):
        return self._argv(s, "eval", out, self.budget, "--folds", str(self.FOLDS), "--jobs", str(jobs))

    def setup(self, seed, work):
        X, y = self.ffgp.data.make_surrogate(seed=seed)
        data_path = work / "surrogate.csv"
        self.ffgp.data.save_csv(data_path, X, y, feature_names=[f"x{j + 1}" for j in range(X.shape[1])])
        return {"seed": seed, "data_path": data_path, "work": work, "out_path": work / "report.tsv"}

    def setup_digest(self, s):
        return _sha(s["data_path"].read_bytes())

    def reference(self, s):
        ref = s["work"] / "report-jobs1.tsv"
        rc, err = _quiet_cli(self.ffgp, self._eval_argv(s, 1, ref))
        require(rc == 0, f"reference eval exited {rc}: {err.strip()}")
        s["report_ref"] = ref.read_bytes()
        # size of the model `ffgp train` writes for this kernel and table
        model_path = s["work"] / "model.bin"
        minimal = {"restart_count": 1, "restart_iters": 0, "max_iters": 0}
        rc, err = _quiet_cli(self.ffgp, self._argv(s, "train", model_path, minimal))
        require(rc == 0, f"reference train exited {rc}: {err.strip()}")
        s["model_bytes"] = model_path.stat().st_size

    def op(self, s):
        self.fold_nlml.clear()
        return _quiet_cli(self.ffgp, self._eval_argv(s, self.JOBS, s["out_path"]))

    def check(self, s, result):
        rc, err = result
        require(rc == 0, f"ffgp eval exited {rc}: {err.strip()}")
        report = s["out_path"].read_bytes()
        require(report == s["report_ref"], "--jobs report differs from the --jobs 1 reference")
        mean_line = [ln for ln in report.decode().splitlines() if ln.startswith("mean\t")]
        require(len(self.fold_nlml) == self.FOLDS, f"{len(self.fold_nlml)} fold fits, want {self.FOLDS}")
        nlml = float(np.mean(sorted(self.fold_nlml)))
        require(np.isfinite(nlml), "fold nlml not finite")
        return Outcome(nlml, float(mean_line[0].split("\t")[1]), s["model_bytes"], _sha(report))


def make_workload(ffgp, name):
    budget = SPEC["workloads"][name].get("budget")
    if name == "fit-feature":
        return FitWorkload(ffgp, "gm", 3, 64, budget)
    if name == "fit-data":
        return FitWorkload(ffgp, "pwl", 5, 256, budget)
    if name == "predict-cli":
        return PredictWorkload(ffgp)
    if name == "cv-jobs":
        return CvWorkload(ffgp, budget)
    raise ValueError(name)


# ---- environment ------------------------------------------------------------


def _read(path, default=""):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return default


def _llc():
    best = (0, "unknown")
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        level = _read(f"{index}/level", "0")
        if level.isdigit() and int(level) > best[0]:
            best = (int(level), f"L{level} {_read(f'{index}/size', 'unknown')}")
    return best[1]


def _blas_threads(module):
    """Thread count of the OpenBLAS bundled with numpy or scipy, as found."""
    base = Path(module.__file__).resolve().parent.parent / f"{module.__name__}.libs"
    for lib in sorted(glob.glob(str(base / "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    head = _read(ROOT / ".git" / "HEAD")
    if not head.startswith("ref: "):
        return head or None
    ref = head[5:]
    sha = _read(ROOT / ".git" / ref)
    if sha:
        return sha
    for line in _read(ROOT / ".git" / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def environment(seed):
    cpu = [ln.split(":", 1)[1].strip() for ln in _read("/proc/cpuinfo").splitlines()
           if ln.startswith("model name")]
    blas = {}
    for module in (np, scipy):
        dep = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas[module.__name__] = {"name": dep.get("name"), "version": dep.get("version"),
                                 "threads": _blas_threads(module)}
    sources = sorted((SRC / "ffgp").glob("*.py"))
    bench = sorted(HERE.glob("*.py")) + [HERE / "workloads.json", ROOT / "BENCHMARK.json"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu[0] if cpu else platform.processor(),
        "llc": _llc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "seed": seed,
        "git_commit": _git_commit(),
        "src_sha256": _sha(*(p.read_bytes() for p in sources)),
        "bench_sha256": _sha(*(p.read_bytes() for p in bench)),
    }


# ---- one run ----------------------------------------------------------------


@dataclass
class OpRecord:
    seconds: float
    traced: bool
    outcome: Outcome = None
    error: str = None


def _quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def run_ops(ffgp, workload, state, seconds, tracer):
    records = []
    start = time.perf_counter()
    while True:
        k = len(records)
        traced = tracer is not None and k % 2 == 1
        result, error = None, None
        if traced:
            tracer.install(ffgp)
            root = tracer.begin_op(k)
        t0 = time.perf_counter()
        try:
            result = workload.op(state)
        except Exception:
            error = traceback.format_exc()
        finally:
            elapsed = time.perf_counter() - t0
            if traced:
                tracer.end_op(root)
                tracer.uninstall()
        record = OpRecord(elapsed, traced)
        if error is None:
            try:
                record.outcome = workload.check(state, result)
            except CheckFailed as exc:
                error = str(exc)
            except Exception:
                error = traceback.format_exc()
        record.error = error
        records.append(record)
        done = time.perf_counter() - start >= seconds
        if done and (tracer is None or len(records) >= TRACED_MIN_OPS):
            return records


def mark_inconsistent(records):
    """Fail every op whose outcome differs from the first good op's."""
    good = [r for r in records if r.error is None]
    for r in good[1:]:
        if r.outcome != good[0].outcome:
            r.error = f"outcome {r.outcome} differs from first op {good[0].outcome}"


def layer_report(tracer, records, workload_name, seed, env):
    per_op, eval_s = [], []
    for k, r in enumerate(records):
        if r.traced:
            m, durations = op_layer_metrics(tracer.spans, k)
            per_op.append(m)
            eval_s += durations
    metrics = {name: statistics.median(m[name] for m in per_op) for name, _, _ in PER_LAYER
               if name in per_op[0]}
    ms = sorted(1000.0 * d for d in eval_s)
    metrics["train.eval.p50_ms"] = statistics.median(ms) if ms else 0.0
    metrics["train.eval.p90_ms"] = statistics.quantiles(ms, n=10)[-1] if len(ms) >= 2 else (ms or [0.0])[0]
    traced = statistics.median(r.seconds for r in records if r.traced)
    untraced = statistics.median(r.seconds for r in records if not r.traced)
    metrics["trace.overhead_share"] = traced / untraced - 1.0

    counts = {name: [m[name] for m in per_op] for name in EXACT_COUNTS}
    good = [r.outcome.model_bytes for r in records if r.outcome is not None]
    counts["model_bytes"] = good
    mismatch = sorted(name for name, values in counts.items() if len(set(values)) > 1)
    # compared only with an earlier traced run of the same program and benchmark
    record_path = OUT / f"counts-{workload_name}-seed{seed}.json"
    code = {k: env[k] for k in ("src_sha256", "bench_sha256")}
    this_run = {"code": code, "counts": {k: v[0] for k, v in counts.items() if v}}
    if record_path.exists():
        earlier = json.loads(record_path.read_text())
        if earlier.get("code") == code:
            mismatch += sorted(f"{k} (vs earlier traced run)" for k, v in this_run["counts"].items()
                               if earlier["counts"].get(k, v) != v)
    record_path.write_text(json.dumps(this_run, sort_keys=True))
    return metrics, mismatch


def import_seconds():
    """Wall time of a fresh interpreter that imports ffgp and its CLI."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import ffgp.cli"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - t0


def run_workload(name, seed, seconds, trace):
    if not (SRC / "ffgp" / "__init__.py").is_file():
        print(f"error: {SRC / 'ffgp'} not found; run from the root of an ffgp checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ffgp
    import ffgp.cli  # noqa: F401  (submodules the ops and the tracer reach)

    if Path(ffgp.__file__).resolve().parent != (SRC / "ffgp").resolve():
        print(f"error: imported ffgp from {ffgp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{name}-{seed}-{os.getpid()}"
    work.mkdir()
    try:
        workload = make_workload(ffgp, name)
        # one set-up is a fresh interpreter's import plus the workload's
        # inputs (and, for predict-cli, its training fit)
        setup_times, digests = [], []
        for _ in range(SETUP_REPEATS):
            import_s = import_seconds()
            t0 = time.perf_counter()
            state = workload.setup(seed, work)
            setup_times.append(import_s + time.perf_counter() - t0)
            digests.append(workload.setup_digest(state))
        t0 = time.perf_counter()
        workload.reference(state)
        reference_s = time.perf_counter() - t0
        tracer = Tracer() if trace else None
        records = run_ops(ffgp, workload, state, seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    mark_inconsistent(records)
    for k, r in enumerate(records):
        if r.error:
            print(f"op {k} failed: {r.error}", file=sys.stderr)
    failed = sum(1 for r in records if r.error)
    setup_ok = len(set(digests)) == 1
    times = [r.seconds for r in records]
    first = next((r.outcome for r in records if r.outcome is not None), None)
    env = environment(seed)
    e2e = {
        "op_s": statistics.median(times),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "model_bytes": first.model_bytes if first else 0,
        "nlml": first.nlml if first else None,
        "test_rmse": first.test_rmse if first else None,
        "error_rate": failed / len(records),
    }
    detail = {
        "workload": name,
        "trace": trace,
        "ops": len(records),
        "op_s_quartiles": _quartiles(times),
        "op_s_all": times,
        "setup_s_repeats": setup_times,
        "setup_deterministic": setup_ok,
        "reference_s": reference_s,
        "end_to_end": e2e,
        "env": env,
    }
    correct = failed == 0 and setup_ok
    units = dict(END_TO_END + DETAIL_ONLY)
    lines = [f"{name}  seed={seed}  ops={len(records)}  trace={trace}"]
    for key, value in e2e.items():
        n = len(records) if key == "op_s" else (SETUP_REPEATS if key == "setup_s" else 1)
        lines.append(f"  {key:<32} {'n/a' if value is None else f'{value:.6g}':>14} {units[key]:<8} n={n}")
    if trace:
        layers, mismatch = layer_report(tracer, records, name, seed, env)
        detail["per_layer"] = layers
        detail["count_mismatch"] = mismatch
        correct = correct and not mismatch
        traced_n = sum(1 for r in records if r.traced)
        for key, unit, _ in PER_LAYER:
            lines.append(f"  {key:<32} {layers[key]:>14.6g} {unit:<8} n={traced_n}")
        if mismatch:
            lines.append(f"  exact-count mismatch: {', '.join(mismatch)}")
        (OUT / f"spans-{name}-seed{seed}.json").write_text(json.dumps(tracer.spans))
        metrics = {key: {"value": layers[key], "unit": unit} for key, unit, _ in PER_LAYER}
    else:
        metrics = {key: {"value": e2e[key], "unit": unit} for key, unit in END_TO_END}
    print("\n".join(lines))
    print(json.dumps({"detail": detail}, default=str))
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed, "metrics": metrics}))
    return 0


def run_all(seed, seconds, trace):
    """Every workload in its own process (peak RSS is per process)."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for wl in SPEC["workloads"]:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", wl, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {wl} exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{wl}.{k}": v for k, v in result["metrics"].items()})
    for wl, reason in SPEC["dropped_workloads"].items():
        print(f"{wl}: dropped ({reason})")
    print(json.dumps(total))
    return 0


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(SPEC["workloads"]) + ["all"])
    parser.add_argument("--seed", type=int, default=SPEC["default_seed"])
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
