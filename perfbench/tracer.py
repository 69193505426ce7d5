"""Outside-in span tracer for the ffgp benchmark.

Nothing under src/ is touched.  The tracer replaces a public function at
the module attribute where its caller looks it up (ffgp modules bind names
with ``from ... import``, so ``ffgp.gp.compute_features`` and
``ffgp.model.compute_features`` are two places to wrap) and restores every
original on ``uninstall``.  Each call becomes a span: name, start, end,
parent span, op id and a small ``info`` dict filled from the arguments and
the return value after the clock has stopped.  Spans stay in memory until
the run ends.
"""

from __future__ import annotations

import functools
import math
import os
import threading
import time

import numpy as np

# span fields, kept as lists so that a span can be closed in place
NAME, START, END, PARENT, OP, INFO = range(6)


def _shape0(a):
    return int(np.shape(a)[0])


def _info_chol(args, kwargs, result):
    return {"dim": _shape0(args[0]), "jitter": float(result[1])}


def _info_solve(args, kwargs, result):
    factor, rhs = args[0], args[1]
    L = factor[0] if isinstance(factor, tuple) else factor
    nrhs = 1 if np.ndim(rhs) == 1 else int(np.shape(rhs)[1])
    return {"dim": _shape0(L), "nrhs": nrhs}


def _info_nlml(args, kwargs, result):
    f, g = result
    return {"finite": bool(np.isfinite(f) and np.all(np.isfinite(g)))}


def _info_features(args, kwargs, result):
    return {"rows": int(result.data.shape[0]), "n": int(result.data.shape[1])}


def _info_project(args, kwargs, result):
    geo = args[0].geometry
    return {"n": _shape0(args[1]), "blocks": geo.blocks, "d_pad": geo.d_pad, "m": geo.m_total}


def _info_fwht(args, kwargs, result):
    v = args[0]
    return {"size": int(v.size), "d": int(v.shape[-1])}


def _info_minimize(args, kwargs, result):
    ok = bool(np.isfinite(result.fun) and np.all(np.isfinite(result.x)))
    return {"nit": int(result.nit), "nfev": int(result.nfev), "value": float(result.fun) if ok else math.inf}


def _info_fit(args, kwargs, result):
    # restarts with a zero iteration budget never reach minimize
    config = args[3] if len(args) > 3 else kwargs["config"]
    return {"restarts": config.restart_count if config.restart_iters > 0 else 0}


def _info_posterior(args, kwargs, result):
    rows, n = np.shape(getattr(args[0], "data", args[0]))
    return {"rows": int(rows), "n": int(n)}


def _info_csv(args, kwargs, result):
    rows = result.n if hasattr(result, "n") else _shape0(result[0])
    return {"rows": int(rows)}


def _info_save(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def wrap_points(ffgp):
    """(owner, attribute, span name, info function) for every traced call.

    The owner is the module (or class) whose attribute the calling code
    reads, so the wrapper sees exactly the calls that module makes.
    """
    cli, fastfood, features, gp, model, spectra, train = (
        ffgp.cli, ffgp.fastfood, ffgp.features, ffgp.gp, ffgp.model, ffgp.spectra, ffgp.train,
    )
    return [
        # entry points the benchmark's own ops look up
        (ffgp, "fit", "train.fit", _info_fit),
        (model, "save_model", "model.save", _info_save),
        (cli, "main", "cli.main", None),
        # cli
        (cli, "fit", "train.fit", _info_fit),
        (cli, "load_model", "model.load", None),
        (cli, "save_model", "model.save", _info_save),
        (cli, "load_csv", "data.csv", _info_csv),
        (cli, "load_feature_csv", "data.csv", _info_csv),
        (model.TrainedModel, "predict", "model.predict", None),
        # train
        (train, "minimize", "train.minimize", _info_minimize),
        (train, "nlml_value_and_grad", "gp.nlml", _info_nlml),
        (train, "compute_features", "features.compute", _info_features),
        (train, "fit_posterior", "gp.fit_posterior", _info_posterior),
        # gp
        (gp, "compute_features", "features.compute", _info_features),
        (gp, "feature_param_gradients", "features.param_grad", None),
        (gp, "chol_with_jitter", "gp.chol", _info_chol),
        (gp, "cho_solve", "gp.cho_solve", _info_solve),
        (gp, "solve_triangular", "gp.solve_triangular", _info_solve),
        # model
        (model, "compute_features", "features.compute", _info_features),
        (model, "predict", "gp.predict", None),
        # features
        (features, "project", "fastfood.project", _info_project),
        (features, "project_transpose", "fastfood.project_transpose", _info_project),
        (features, "build_stack", "fastfood.build_stack", None),
        (features, "fwht_inplace", "hadamard.fwht", _info_fwht),
        (features, "hat_radii", "spectra", None),
        (features, "sample_chi_radii", "spectra", None),
        (spectra, "pwl_inverse_cdf", "spectra", None),
        # fastfood
        (fastfood, "fwht_inplace", "hadamard.fwht", _info_fwht),
    ]


class Tracer:
    """Records spans of wrapped calls; one instance per benchmark run."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name):
        stack = self._stack()
        # a pool thread's first span hangs under the span the main thread
        # is blocked in (for `ffgp eval --jobs`, the cli.main span)
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main else -1
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, self.op, None])
        stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][END] = time.perf_counter()
        self._stack().pop()

    def begin_op(self, op):
        self.op = op
        return self._open("op")

    def end_op(self, idx):
        self._close(idx)

    def wrap(self, owner, attr, name, info=None):
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                tracer._close(idx)
                tracer.spans[idx][INFO] = {"raised": type(exc).__name__}
                raise
            tracer._close(idx)
            if info is not None:
                tracer.spans[idx][INFO] = info(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def install(self, ffgp):
        for owner, attr, name, info in wrap_points(ffgp):
            self.wrap(owner, attr, name, info)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ---- per-layer metrics ------------------------------------------------------

# (name, unit, better); every name is reported on every workload, 0 where
# the layer does not run.  Times are self times unless the name says
# otherwise (gp.core.ms, train.eval.*).
PER_LAYER = (
    ("gp.core.ms", "ms", "lower"),
    ("gp.chol.ms", "ms", "lower"),
    ("gp.chol.calls", "count", "lower"),
    ("gp.chol.jitter_calls", "count", "lower"),
    ("gp.cho_solve.ms", "ms", "lower"),
    ("gp.solve_triangular.ms", "ms", "lower"),
    ("gp.fit_posterior.ms", "ms", "lower"),
    ("gp.predict.ms", "ms", "lower"),
    ("gp.form_feature_evals", "count", "lower"),
    ("gp.form_data_evals", "count", "lower"),
    ("gp.flops_computed", "flop", "lower"),
    ("fastfood.project.calls", "count", "lower"),
    ("fastfood.project.ms", "ms", "lower"),
    ("fastfood.project_transpose.calls", "count", "lower"),
    ("fastfood.project_transpose.ms", "ms", "lower"),
    ("fastfood.blocks", "count", "lower"),
    ("fastfood.build_stack.ms", "ms", "lower"),
    ("fastfood.bytes_computed", "bytes", "lower"),
    ("hadamard.fwht.calls", "count", "lower"),
    ("hadamard.fwht.ms", "ms", "lower"),
    ("hadamard.fwht.bytes_computed", "bytes", "lower"),
    ("features.compute.ms", "ms", "lower"),
    ("features.param_grad.ms", "ms", "lower"),
    ("features.project_per_eval", "count", "lower"),
    ("spectra.ms", "ms", "lower"),
    ("train.evals", "count", "lower"),
    ("train.eval.p50_ms", "ms", "lower"),
    ("train.eval.p90_ms", "ms", "lower"),
    ("train.inf_evals", "count", "lower"),
    ("train.lbfgs.nit", "count", "lower"),
    ("train.lbfgs.nfev", "count", "lower"),
    ("train.lbfgs.ms", "ms", "lower"),
    ("train.discarded_eval_share", "ratio", "lower"),
    ("train.post_ms", "ms", "lower"),
    ("model.save.ms", "ms", "lower"),
    ("model.save.bytes", "bytes", "lower"),
    ("model.load.ms", "ms", "lower"),
    ("data.csv.ms", "ms", "lower"),
    ("data.csv.rows", "count", "lower"),
    ("cli.self.ms", "ms", "lower"),
    ("cli.fold_overlap", "ratio", "higher"),
    ("trace.overhead_share", "ratio", "lower"),
)

# counts that must repeat exactly from op to op and run to run
EXACT_COUNTS = (
    "train.evals",
    "train.lbfgs.nit",
    "train.lbfgs.nfev",
    "fastfood.project.calls",
    "hadamard.fwht.calls",
    "gp.chol.jitter_calls",
)


def _union_length(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def op_layer_metrics(spans, op):
    """Per-layer metrics of one traced op, plus its objective-eval durations (s)."""
    idxs = [i for i, s in enumerate(spans) if s[OP] == op and s[END] is not None]
    children = {i: [] for i in idxs}
    by_name = {}
    for i in idxs:
        parent = spans[i][PARENT]
        if parent in children:
            children[parent].append(i)
        by_name.setdefault(spans[i][NAME], []).append(i)

    def dur(i):
        return spans[i][END] - spans[i][START]

    def info(i):
        return spans[i][INFO] or {}

    def named(name):
        return by_name.get(name, [])

    def kids(i, name):
        return [c for c in children[i] if spans[c][NAME] == name]

    def self_time(i):
        s = spans[i]
        return dur(i) - _union_length(
            [(spans[c][START], spans[c][END]) for c in children[i]], s[START], s[END]
        )

    def self_ms(name):
        return 1000.0 * sum(self_time(i) for i in named(name))

    def under(i, name):
        p = spans[i][PARENT]
        while p >= 0:
            if spans[p][NAME] == name:
                return True
            p = spans[p][PARENT]
        return False

    evals = named("gp.nlml")
    m = {}

    core = 0.0
    forms = {"feature": 0, "data": 0}
    flops = 0.0
    for i in evals:
        feats = kids(i, "features.compute")
        core += dur(i) - sum(dur(c) for c in feats + kids(i, "features.param_grad"))
        if feats and "rows" in info(feats[0]):
            D, n = info(feats[0])["rows"], info(feats[0])["n"]
            form = "feature" if D < n else "data"
            forms[form] += 1
            flops += 2.0 * D * D * n if form == "feature" else 2.0 * n * n * D
    for i in named("gp.fit_posterior"):
        if "rows" in info(i):
            flops += 2.0 * info(i)["rows"] ** 2 * info(i)["n"]
    for i in named("gp.chol"):
        flops += info(i).get("dim", 0) ** 3 / 3.0
    for i in named("gp.cho_solve"):
        flops += 2.0 * info(i).get("dim", 0) ** 2 * info(i).get("nrhs", 0)
    for i in named("gp.solve_triangular"):
        flops += float(info(i).get("dim", 0)) ** 2 * info(i).get("nrhs", 0)

    m["gp.core.ms"] = 1000.0 * core
    m["gp.chol.ms"] = self_ms("gp.chol")
    m["gp.chol.calls"] = len(named("gp.chol"))
    m["gp.chol.jitter_calls"] = sum(1 for i in named("gp.chol") if info(i).get("jitter", 0.0) > 0.0)
    m["gp.cho_solve.ms"] = self_ms("gp.cho_solve")
    m["gp.solve_triangular.ms"] = self_ms("gp.solve_triangular")
    m["gp.fit_posterior.ms"] = self_ms("gp.fit_posterior")
    m["gp.predict.ms"] = self_ms("gp.predict")
    m["gp.form_feature_evals"] = forms["feature"]
    m["gp.form_data_evals"] = forms["data"]
    m["gp.flops_computed"] = flops

    projections = named("fastfood.project") + named("fastfood.project_transpose")
    m["fastfood.project.calls"] = len(named("fastfood.project"))
    m["fastfood.project.ms"] = self_ms("fastfood.project")
    m["fastfood.project_transpose.calls"] = len(named("fastfood.project_transpose"))
    m["fastfood.project_transpose.ms"] = self_ms("fastfood.project_transpose")
    m["fastfood.blocks"] = sum(info(i).get("blocks", 0) for i in projections)
    m["fastfood.build_stack.ms"] = self_ms("fastfood.build_stack")
    # input read (padded) plus output written, 8 bytes a value
    m["fastfood.bytes_computed"] = sum(
        8 * info(i).get("n", 0) * (info(i).get("d_pad", 0) + info(i).get("m", 0)) for i in projections
    )
    m["hadamard.fwht.calls"] = len(named("hadamard.fwht"))
    m["hadamard.fwht.ms"] = self_ms("hadamard.fwht")
    # each butterfly stage reads and writes the whole array once
    m["hadamard.fwht.bytes_computed"] = sum(
        16 * info(i).get("size", 0) * (info(i).get("d", 1).bit_length() - 1)
        for i in named("hadamard.fwht")
    )

    m["features.compute.ms"] = self_ms("features.compute")
    m["features.param_grad.ms"] = self_ms("features.param_grad")
    in_eval = sum(1 for i in named("fastfood.project") if under(i, "gp.nlml"))
    m["features.project_per_eval"] = in_eval / len(evals) if evals else 0.0
    m["spectra.ms"] = self_ms("spectra")

    m["train.evals"] = len(evals)
    m["train.inf_evals"] = sum(
        1 for i in evals if "raised" in info(i) or not info(i).get("finite", True)
    )
    minimizes = named("train.minimize")
    m["train.lbfgs.nit"] = sum(info(i).get("nit", 0) for i in minimizes)
    m["train.lbfgs.nfev"] = sum(info(i).get("nfev", 0) for i in minimizes)
    m["train.lbfgs.ms"] = self_ms("train.minimize")
    discarded, post = 0, 0.0
    for i in named("train.fit"):
        runs = sorted(kids(i, "train.minimize"), key=lambda c: spans[c][START])
        restarts = runs[: info(i).get("restarts", 0)]
        if restarts:
            values = [info(c).get("value", math.inf) for c in restarts]
            best = int(np.argmin(values))
            discarded += sum(len(kids(c, "gp.nlml")) for k, c in enumerate(restarts) if k != best)
        if runs:
            post += spans[i][END] - max(spans[c][END] for c in runs)
    m["train.discarded_eval_share"] = discarded / len(evals) if evals else 0.0
    m["train.post_ms"] = 1000.0 * post

    saves = named("model.save")
    m["model.save.ms"] = self_ms("model.save")
    m["model.save.bytes"] = info(saves[-1]).get("bytes", 0) if saves else 0
    m["model.load.ms"] = self_ms("model.load")
    m["data.csv.ms"] = self_ms("data.csv")
    m["data.csv.rows"] = sum(info(i).get("rows", 0) for i in named("data.csv"))
    m["cli.self.ms"] = self_ms("cli.main")
    overlap = 0.0
    for i in named("cli.main"):
        if dur(i) > 0:
            overlap += sum(dur(c) for c in kids(i, "train.fit")) / dur(i)
    m["cli.fold_overlap"] = overlap
    return m, [dur(i) for i in evals]
