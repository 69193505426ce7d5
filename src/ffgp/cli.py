"""Command-line surface: train, predict, eval (k-fold), bench.

All randomness flows from --seed (env ALACARTE_SEED as fallback).  Reports
go to stdout and are byte-identical across runs with equal flags and seed;
wall-clock timings go to stderr so they never perturb the report bytes.
Fold and sweep cells may run concurrently (--jobs) but rows are always
emitted in deterministic order.
"""

import argparse
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

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
        seed = args.seed
    elif os.environ.get("ALACARTE_SEED"):
        try:
            seed = int(os.environ["ALACARTE_SEED"])
        except ValueError:
            parser.error("ALACARTE_SEED must be an integer")
    else:
        seed = 0
    if seed < 0:
        parser.error("--seed must be a non-negative integer")
    return seed


def _resolve_target(value):
    if value is None:
        return None
    try:
        return int(value)
    except ValueError:
        return value


def _spec_template(parser, family, d_in, Q, m):
    if family not in FAMILIES:
        parser.error(f"unknown kernel {family!r}")
    dq, dm = FAMILY_DEFAULTS[family]
    Q = dq if Q is None else Q
    m = dm if m is None else m
    if Q < 1 or m < 1:
        parser.error("--Q and --m must be >= 1")
    if family in ("frbf", "fard") and Q != 1:
        parser.error(f"{family} is a single-component kernel; use --Q 1")
    return KernelSpec.template(family, d_in, Q, m)


def _train_config(args, seed):
    return TrainConfig(
        max_iters=args.iters,
        restart_count=args.restarts,
        restart_iters=args.restart_iters,
        seed=seed,
    )


def _fit_fold(template, ds, tr_idx, te_idx, config):
    """Train on one fold (standardizing on its training split); returns
    (rmse, model file bytes, train_seconds, predict_seconds)."""
    Xtr, ytr = ds.X[tr_idx], ds.y[tr_idx]
    Xte, yte = ds.X[te_idx], ds.y[te_idx]
    std = fit_standardization(Xtr, ytr)
    t0 = time.perf_counter()
    model, _ = fit(template, std.apply_x(Xtr), std.apply_y(ytr), config, standardization=std)
    t1 = time.perf_counter()
    mean, _ = model.predict(Xte)
    t2 = time.perf_counter()
    return rmse(mean, yte), model_nbytes(model), t1 - t0, t2 - t1


def _run_folds(template, ds, k, config, jobs):
    folds = kfold_partitions(ds.n, k, config.seed)

    def run(i):
        return _fit_fold(template, ds, folds[i][0], folds[i][1], config)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(run, range(k)))
    return [run(i) for i in range(k)]


# ---- subcommands ------------------------------------------------------------


def cmd_train(args, parser):
    seed = _resolve_seed(args, parser)
    ds = load_csv(args.data, _resolve_target(args.target_col))
    template = _spec_template(parser, args.kernel, ds.d, args.Q, args.m)
    config = _train_config(args, seed)
    std = fit_standardization(ds.X, ds.y)
    t0 = time.perf_counter()
    model, nlml = fit(template, std.apply_x(ds.X), std.apply_y(ds.y), config, standardization=std)
    elapsed = time.perf_counter() - t0
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
    if n_rejected:
        print(f"rejected {n_rejected} non-finite row(s)", file=sys.stderr)
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        if X.shape[0] == 0:
            return 0
        if X.shape[1] != model.spec.d_in:
            raise DimensionError(
                f"model expects d_in={model.spec.d_in}, {args.data} has {X.shape[1]} columns"
            )
        t0 = time.perf_counter()
        mean, var = model.predict(X)
        print(f"predict_s={time.perf_counter() - t0:.2f}", file=sys.stderr)
        out.write("mean,variance\n")
        for mu, v in zip(mean, var):
            out.write("%.17g,%.17g\n" % (mu, v))
    finally:
        if args.out:
            out.close()
    return 0


def _eval_report(results):
    scores = np.array([r[0] for r in results])
    lines = ["fold\trmse"]
    lines += [f"{i + 1}\t{s:.6f}" for i, s in enumerate(scores)]
    mean = scores.mean()
    std = scores.std(ddof=1) if scores.size > 1 else 0.0
    lines.append(f"mean\t{mean:.6f}")
    lines.append(f"std\t{std:.6f}")
    lines.append(f"summary\t{mean:.6f} ± {std:.6f}")
    return "\n".join(lines) + "\n", mean, std


def cmd_eval(args, parser):
    seed = _resolve_seed(args, parser)
    if args.folds < 2:
        parser.error("--folds must be >= 2")
    ds = load_csv(args.data, _resolve_target(args.target_col))
    template = _spec_template(parser, args.kernel, ds.d, args.Q, args.m)
    config = _train_config(args, seed)
    results = _run_folds(template, ds, args.folds, config, args.jobs)
    for i, (_, _, ts, ps) in enumerate(results):
        print(f"fold {i + 1} train_s={ts:.2f} predict_s={ps:.2f}", file=sys.stderr)
    report, _, _ = _eval_report(results)
    sys.stdout.write(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report)
    return 0


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
    seed = _resolve_seed(args, parser)
    if args.folds < 2:
        parser.error("--folds must be >= 2")
    if not args.combo:
        parser.error("at least one --combo kernel:Q:m is required")
    combos = [_parse_combo(parser, c) for c in args.combo]
    ds = load_csv(args.data, _resolve_target(args.target_col))
    config = _train_config(args, seed)
    rows = ["kernel\tQ\tm\trmse_mean\trmse_std\ttrain_s\tpredict_s\tmodel_bytes"]
    for family, Q, m in combos:
        template = _spec_template(parser, family, ds.d, Q, m)
        results = _run_folds(template, ds, args.folds, config, args.jobs)
        scores = np.array([r[0] for r in results])
        train_s = sum(r[2] for r in results)
        predict_s = sum(r[3] for r in results)
        size = max(r[1] for r in results)
        std = scores.std(ddof=1) if scores.size > 1 else 0.0
        rows.append(
            f"{family}\t{Q}\t{m}\t{scores.mean():.6f}\t{std:.6f}"
            f"\t{train_s:.2f}\t{predict_s:.2f}\t{size}"
        )
    report = "\n".join(rows) + "\n"
    sys.stdout.write(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report)
    return 0


# ---- parser -----------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(prog="ffgp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, kernel=True):
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
        p.add_argument("--jobs", type=int, default=1)

    p_train = sub.add_parser("train", help="fit one model on the full dataset")
    common(p_train)
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
    except FfgpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
