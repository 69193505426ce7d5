"""Per-evaluation timings of the likelihood, as one JSON line.

Times one NLML-plus-gradient evaluation (median of --repeats, after one
warm-up) for the six baseline shapes of ROADMAP.md: the standardized
surrogate set, first 1350 rows, d=5, at the restart-0 initialization that
`ffgp.fit` starts from, with one workspace reused across the calls as a
fit's objective reuses it.  Per evaluation it also reports the minor page
faults and the kernel-mode ms (`minor_faults`, `kernel_ms`), from getrusage
of this process over the timed calls.  For the same shapes and point it
times four layers alone: the design matrix (`ffgp.features.compute_features`, as
`features_ms`), group 0's effective diagonals, radii included
(`ffgp.features._group_diagonals`, as `diagonals_ms`), one build of its
dense operator (`ffgp.fastfood._block_matrix` at those diagonals, as
`operator_ms`) and the co-matrix C = A^{-1} W = W K^{-1}
(`ffgp.gp._co_matrix`: one `dtrtri` and two `dtrmm`, as `co_matrix_ms`),
in the form the evaluation picks, from a fresh copy of the Cholesky factor
the evaluation uses.

Usage: PYTHONPATH=src python3 scripts/eval_timing.py [--repeats 7]
"""

import argparse
import json
import platform
import resource
import statistics
import time

import numpy as np
import scipy

import ffgp.features as ft
from ffgp.data import fit_standardization, make_surrogate
from ffgp.fastfood import _block_matrix
from ffgp.gp import _co_matrix, _form, _gram, chol_with_jitter, nlml_value_and_grad, weighted_features
from ffgp.train import TrainConfig, restart_starts

ROWS = 1350
# (family, Q, m per group), as in the ROADMAP baseline table
SHAPES = (("gm", 3, 64), ("frbf", 1, 192), ("fsgbard", 1, 512),
          ("frbf", 1, 1280), ("pwl", 5, 256), ("gm", 5, 256))


def surrogate():
    X, y = make_surrogate()
    X, y = X[:ROWS], y[:ROWS]
    std = fit_standardization(X, y)
    return std.apply_x(X), std.apply_y(y)


def restart0(family, Q, m, X, y, seed=0):
    """(spec, stacks, hyper) exactly as ffgp.fit builds them for restart 0."""
    spec = ft.KernelSpec.template(family, X.shape[1], Q, m)
    stacks, starts = restart_starts(spec, X, y, TrainConfig(restart_count=1, seed=seed))
    return spec, stacks, starts[0]


def _sig3(x):
    return float(f"{x:.3g}")


def median_ms(fn, repeats, before=None, usage=None):
    """Median ms of fn() to 3 significant digits; before() runs untimed ahead
    of each.  A usage dict receives the minor page faults and kernel-mode ms
    per call over the timed calls (before() included), from getrusage."""
    times = []
    for _ in range(repeats + 1):  # the first call warms up
        if before is not None:
            before()
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
        if len(times) == 1:
            start = resource.getrusage(resource.RUSAGE_SELF)
    end = resource.getrusage(resource.RUSAGE_SELF)
    if usage is not None:
        usage["minor_faults"] = round((end.ru_minflt - start.ru_minflt) / repeats)
        usage["kernel_ms"] = _sig3(1000.0 * (end.ru_stime - start.ru_stime) / repeats)
    return _sig3(1000.0 * statistics.median(times[1:]))


def weighted(spec, stacks, X, h):
    """(W, sigma^2) of an evaluation at h."""
    spec_h, log_noise = ft.unpack_hyper(spec, h)
    W = weighted_features(ft.compute_features(spec_h, stacks, X), ft.feature_weight_matrix(spec_h))
    return W, float(np.exp(2.0 * log_noise))


def co_matrix_ms(W, noise_var, repeats):
    """_co_matrix in the form the evaluation picks, from a fresh factor each call."""
    side = 0 if _form(*W.shape) == "feature" else 1
    L, _ = chol_with_jitter(_gram(W, noise_var, trans=side))
    fresh, work = [], {}  # _co_matrix consumes its factor, so each call gets an untimed copy

    def copy():
        fresh[:] = [L.copy(order="F")]

    return median_ms(lambda: _co_matrix(fresh[0], W, side, work), repeats, before=copy)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args()
    X, y = surrogate()

    evals, features, diagonals, operator, co = {}, {}, {}, {}, {}
    for family, Q, m in SHAPES:
        spec, stacks, h = restart0(family, Q, m, X, y)
        name = f"{family} {Q}x{m}"
        work, usage = {}, {}
        ms = median_ms(lambda: nlml_value_and_grad(spec, stacks, X, y, h, work=work), args.repeats, usage=usage)
        evals[name] = {"D": spec.n_rows, "form": _form(spec.n_rows, ROWS), "ms": ms, **usage}
        spec_h, _ = ft.unpack_hyper(spec, h)
        features[name] = median_ms(lambda: ft.compute_features(spec_h, stacks, X), args.repeats)
        diagonals[name] = median_ms(lambda: ft._group_diagonals(spec_h, stacks, 0), args.repeats)
        effective = ft._group_diagonals(spec_h, stacks, 0)[1:]
        operator[name] = median_ms(lambda: _block_matrix(stacks[0], *effective), args.repeats)
        co[name] = co_matrix_ms(*weighted(spec, stacks, X, h), args.repeats)

    print(json.dumps({
        "rows": ROWS,
        "repeats": args.repeats,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "eval_ms": evals,
        "features_ms": features,
        "diagonals_ms": diagonals,
        "operator_ms": operator,
        "co_matrix_ms": co,
    }))


if __name__ == "__main__":
    main()
