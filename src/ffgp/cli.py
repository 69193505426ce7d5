"""Command-line surface: train, predict, eval (k-fold), bench.

All randomness flows from --seed (env ALACARTE_SEED as fallback).  Reports
go to stdout (and --out), byte-identical across runs with equal flags and
seed; wall-clock timings go to stderr.  eval and bench share one k-fold
path: eval cross-validates one (kernel, Q, m), bench each --combo, and all
usage errors come before --data is read.  Folds are fitted one after another
on the calling thread; each BLAS call already uses every core.
"""

import argparse
import os
import sys
import time
from contextlib import nullcontext
from itertools import chain

import numpy as np

from .data import fit_standardization, kfold_partitions, load_csv, load_feature_csv, rmse
from .errors import DimensionError, FfgpError
from .features import FAMILIES, KernelSpec
from .model import load_model, model_nbytes, save_model
from .train import TrainConfig, fit

# (Q, m_per_group) used when the flags are left unset
FAMILY_DEFAULTS = {
    "frbf": (1, 1280),
    "fard": (1, 1280),
    "fsard": (1, 512),
    "fsgbard": (1, 512),
    "gm": (5, 256),
    "pwl": (5, 256),
}


def _resolve_seed(args, parser):
    if args.seed is not None:
        seed, source = args.seed, "--seed"
    elif os.environ.get("ALACARTE_SEED"):
        source = "ALACARTE_SEED"
        try:
            seed = int(os.environ["ALACARTE_SEED"])
        except ValueError:
            parser.error("ALACARTE_SEED must be an integer")
    else:
        return 0
    if seed < 0:
        parser.error(f"{source} must be a non-negative integer")
    return seed


def _resolve_target(value):
    if value is None:
        return None
    try:
        return int(value)
    except ValueError:
        return value


def _shape(parser, family, Q, m):
    """(family, Q, m) with the family's defaults for unset Q and m, checked
    before any data is read."""
    dq, dm = FAMILY_DEFAULTS[family]
    Q = dq if Q is None else Q
    m = dm if m is None else m
    if Q < 1 or m < 1:
        parser.error("--Q and --m must be >= 1")
    if family in ("frbf", "fard") and Q != 1:
        parser.error(f"{family} is a single-component kernel; use --Q 1")
    return family, Q, m


def _note_rejected(n_rejected):
    if n_rejected:
        print(f"rejected {n_rejected} non-finite row(s)", file=sys.stderr)


def _load_table(args):
    ds = load_csv(args.data, _resolve_target(args.target_col))
    _note_rejected(ds.n_rejected)
    return ds


def _train_config(args, seed, parser):
    # zero budgets are legal: they keep the best initialization as it is
    if args.iters < 0 or args.restart_iters < 0:
        parser.error("--iters and --restart-iters must be >= 0")
    if args.restarts < 1:
        parser.error("--restarts must be >= 1")
    return TrainConfig(max_iters=args.iters, restart_count=args.restarts,
                       restart_iters=args.restart_iters, seed=seed)


def _fit_timed(template, X, y, config):
    """Standardize on (X, y) and fit: (model, nlml, train_seconds)."""
    std = fit_standardization(X, y)
    t0 = time.perf_counter()
    model, nlml = fit(template, std.apply_x(X), std.apply_y(y), config, standardization=std)
    return model, nlml, time.perf_counter() - t0


def _run_folds(template, ds, k, config):
    """Each fold's (rmse, model file bytes, train_seconds, predict_seconds), in fold order."""
    results = []
    for tr, te in kfold_partitions(ds.n, k, config.seed):
        model, _, train_s = _fit_timed(template, ds.X[tr], ds.y[tr], config)
        t0 = time.perf_counter()
        mean, _ = model.predict(ds.X[te])
        results.append((rmse(mean, ds.y[te]), model_nbytes(model), train_s, time.perf_counter() - t0))
    return results


def _cross_validate(args, parser, combos):
    """[(combo, fold results)] per (kernel, Q, m); all usage errors precede reading
    --data, and a generator of combos is parsed after the --folds and --jobs checks."""
    seed = _resolve_seed(args, parser)
    if args.folds < 2:
        parser.error("--folds must be >= 2")
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    combos = [_shape(parser, *combo) for combo in combos]
    if not combos:
        parser.error("at least one --combo kernel:Q:m is required")
    config = _train_config(args, seed, parser)
    ds = _load_table(args)
    templates = [KernelSpec.template(family, ds.d, Q, m) for family, Q, m in combos]
    return [(c, _run_folds(t, ds, args.folds, config)) for c, t in zip(combos, templates)]


def _rmse_stats(results):
    scores = np.array([r[0] for r in results])
    return scores, scores.mean(), scores.std(ddof=1)  # --folds >= 2


def _write_report(lines, out):
    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    if out:
        with open(out, "w") as fh:
            fh.write(report)
    return 0


# ---- subcommands ------------------------------------------------------------


def cmd_train(args, parser):
    config = _train_config(args, _resolve_seed(args, parser), parser)
    family, Q, m = _shape(parser, args.kernel, args.Q, args.m)
    ds = _load_table(args)
    model, nlml, elapsed = _fit_timed(KernelSpec.template(family, ds.d, Q, m), ds.X, ds.y, config)
    save_model(model, args.out)
    spec = model.spec
    print(
        f"kernel={spec.family}\tQ={spec.Q}\tm={spec.m_per_group}\t"
        f"hypers={spec.n_hypers}\tnlml={nlml:.6f}\tout={args.out}"
    )
    print(f"train_s={elapsed:.2f}", file=sys.stderr)
    return 0


def cmd_predict(args, parser):
    model = load_model(args.model)
    X, n_rejected = load_feature_csv(args.data)
    _note_rejected(n_rejected)
    lines = []
    if X.shape[0]:
        if X.shape[1] != model.spec.d_in:
            raise DimensionError(
                f"model expects d_in={model.spec.d_in}, {args.data} has {X.shape[1]} columns"
            )
        t0 = time.perf_counter()
        mean, var = model.predict(X)
        print(f"predict_s={time.perf_counter() - t0:.2f}", file=sys.stderr)
        lines = chain(["mean,variance\n"], ("%.17g,%.17g\n" % mv for mv in zip(mean, var)))
    # --out opens only once the predictions exist: a failed predict leaves it as it was
    with open(args.out, "w") if args.out else nullcontext(sys.stdout) as out:
        out.writelines(lines)
    return 0


def cmd_eval(args, parser):
    [(_, results)] = _cross_validate(args, parser, [(args.kernel, args.Q, args.m)])
    for i, (_, _, ts, ps) in enumerate(results):
        print(f"fold {i + 1} train_s={ts:.2f} predict_s={ps:.2f}", file=sys.stderr)
    scores, mean, std = _rmse_stats(results)
    lines = ["fold\trmse"] + [f"{i + 1}\t{s:.6f}" for i, s in enumerate(scores)]
    lines += [f"mean\t{mean:.6f}", f"std\t{std:.6f}", f"summary\t{mean:.6f} ± {std:.6f}"]
    return _write_report(lines, args.out)


def _parse_combo(parser, text):
    parts = text.split(":")
    if len(parts) != 3 or parts[0] not in FAMILIES:
        parser.error(f"--combo must be kernel:Q:m with a known kernel, got {text!r}")
    try:
        Q, m = int(parts[1]), int(parts[2])
    except ValueError:
        parser.error(f"--combo Q and m must be integers, got {text!r}")
    if Q < 1 or m < 1:
        parser.error("--combo Q and m must be >= 1")
    return parts[0], Q, m


def cmd_bench(args, parser):
    rows = ["kernel\tQ\tm\trmse_mean\trmse_std\ttrain_s\tpredict_s\tmodel_bytes"]
    combos = (_parse_combo(parser, text) for text in args.combo)
    for (family, Q, m), results in _cross_validate(args, parser, combos):
        _, mean, std = _rmse_stats(results)
        train_s = sum(r[2] for r in results)
        predict_s = sum(r[3] for r in results)
        size = max(r[1] for r in results)
        rows.append(
            f"{family}\t{Q}\t{m}\t{mean:.6f}\t{std:.6f}\t{train_s:.2f}\t{predict_s:.2f}\t{size}"
        )
    return _write_report(rows, args.out)


# ---- parser -----------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(prog="ffgp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, kernel=True, jobs=True):
        p.add_argument("--data", required=True, help="CSV dataset path")
        p.add_argument("--target-col", default=None, help="target column index or name")
        if kernel:
            p.add_argument("--kernel", required=True, choices=FAMILIES)
            p.add_argument("--Q", type=int, default=None, help="number of components")
            p.add_argument("--m", type=int, default=None, help="frequencies per group")
        p.add_argument("--iters", type=int, default=150)
        p.add_argument("--restarts", type=int, default=10)
        p.add_argument("--restart-iters", type=int, default=20, dest="restart_iters")
        p.add_argument("--seed", type=int, default=None)
        if jobs:
            p.add_argument("--jobs", type=int, default=1,
                           help="ignored (folds run in order on the calling thread); "
                           "to be removed once the benchmark stops passing it")

    p_train = sub.add_parser("train", help="fit one model on the full dataset")
    common(p_train, jobs=False)
    p_train.add_argument("--out", required=True, help="model file path")
    p_train.set_defaults(func=cmd_train)

    p_pred = sub.add_parser("predict", help="predict from a saved model")
    p_pred.add_argument("--model", required=True, help="model file from train")
    p_pred.add_argument("--data", required=True, help="feature CSV (no target column)")
    p_pred.add_argument("--out", default=None, help="output CSV (default stdout)")
    p_pred.set_defaults(func=cmd_predict)

    p_eval = sub.add_parser("eval", help="k-fold cross-validated RMSE")
    common(p_eval)
    p_eval.add_argument("--folds", type=int, default=10)
    p_eval.add_argument("--out", default=None, help="also write the report here")
    p_eval.set_defaults(func=cmd_eval)

    p_bench = sub.add_parser("bench", help="sweep (kernel, Q, m) combinations")
    common(p_bench, kernel=False)
    p_bench.add_argument("--folds", type=int, default=10)
    p_bench.add_argument(
        "--combo", action="append", default=[], help="kernel:Q:m, repeatable"
    )
    p_bench.add_argument("--out", default=None, help="also write the report here")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (FfgpError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
