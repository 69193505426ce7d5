"""One sha256 per kernel family over the numbers a refactor must not move.

On a fixed small problem (the standardized surrogate set, first 200 rows,
d=5) each family's digest hashes: the `restart_starts` hyper vectors of
three restarts, the NLML and gradient at each, `param_info` for every
packed index, `weight_param_info`, and the bytes of a model saved after a
short `fit`.  A second line per family, `predict <family> <sha256>`, hashes
that model's `predict` (mean, then variance) on the next `HELD_OUT` rows
of the surrogate set, in raw units.  A third, `data <family> <sha256>`,
hashes the NLML and gradient at the same three starts in the data form
(`mode="data"`): at these shapes (D <= 128 < n) every other line runs the
feature form only.
Two source trees that print the same lines compute the same numbers bit for
bit, so a change meant to keep behaviour can show it by running this script
on both.

The bits depend on the BLAS thread count, so compare lines printed at the
same count: the script prints the count of scipy's OpenBLAS on stderr
(blas_threads=N, or unknown when none of the known symbols resolves), and
OPENBLAS_NUM_THREADS fixes it.

Usage: PYTHONPATH=src python3 scripts/digest.py
"""

import ctypes
import glob
import hashlib
import os
import sys
import tempfile
from dataclasses import replace

import numpy as np
import scipy

import ffgp.features as ft
from ffgp.data import fit_standardization, make_surrogate
from ffgp.gp import nlml_value_and_grad
from ffgp.model import save_model
from ffgp.train import TrainConfig, fit, restart_starts

ROWS = 200
HELD_OUT = 100
RESTARTS = 3
# (family, Q, m per group); d=5 pads to 8, so m=16 spans two Fastfood blocks
SHAPES = (("frbf", 1, 16), ("fard", 1, 16), ("fsard", 2, 16),
          ("fsgbard", 2, 16), ("gm", 2, 16), ("pwl", 2, 16))
CONFIG = TrainConfig(max_iters=3, restart_count=2, restart_iters=2, seed=0)


def family_digest(family, Q, m, X, y, std, X_held):
    """(training digest, prediction digest, data-form digest) of one family."""
    h, data = hashlib.sha256(), hashlib.sha256()
    spec = ft.KernelSpec.template(family, X.shape[1], Q, m)
    stacks, starts = restart_starts(spec, X, y, replace(CONFIG, restart_count=RESTARTS))
    for h0 in starts:
        f, g = nlml_value_and_grad(spec, stacks, X, y, h0)
        for arr in (h0, np.array([f]), g):
            h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        f, g = nlml_value_and_grad(spec, stacks, X, y, h0, mode="data")
        for arr in (np.array([f]), g):
            data.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    h.update(repr([ft.param_info(spec, i) for i in range(spec.n_params)]).encode())
    h.update(repr(spec.weight_param_info()).encode())
    model, _ = fit(spec, X, y, CONFIG, standardization=std)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.bin")
        save_model(model, path)
        with open(path, "rb") as fh:
            h.update(fh.read())
    mean, var = model.predict(X_held)
    pred = hashlib.sha256(np.concatenate([mean, var]).astype("<f8").tobytes())
    return h.hexdigest(), pred.hexdigest(), data.hexdigest()


def blas_threads() -> str:
    """The thread count of scipy's bundled OpenBLAS, whose symbol names
    depend on the wheel; "unknown" when no known one resolves."""
    libs = os.path.join(os.path.dirname(scipy.__file__), os.pardir, "scipy.libs", "*openblas*")
    for path in sorted(glob.glob(libs)):
        try:
            lib = ctypes.CDLL(path)  # already loaded by scipy.linalg: the same handle
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def main():
    print(f"blas_threads={blas_threads()}", file=sys.stderr)
    X_all, y_all = make_surrogate()
    X, y = X_all[:ROWS], y_all[:ROWS]
    std = fit_standardization(X, y)
    X, y = std.apply_x(X), std.apply_y(y)
    digests = [family_digest(family, Q, m, X, y, std, X_all[ROWS : ROWS + HELD_OUT])
               for family, Q, m in SHAPES]
    for (family, _, _), (train, _, _) in zip(SHAPES, digests):
        print(f"{family}\t{train}")
    for (family, _, _), (_, pred, _) in zip(SHAPES, digests):
        print(f"predict {family} {pred}")
    for (family, _, _), (_, _, data) in zip(SHAPES, digests):
        print(f"data {family} {data}")


if __name__ == "__main__":
    main()
