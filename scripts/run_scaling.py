"""Training-time scaling in n at fixed feature budget, plus file-size check.

The per-iteration cost is dominated by the n x D feature matrix, so with a
capped iteration budget wall time should grow close to linearly in n while
the model file stays byte-for-byte the same size.

Usage: python3 scripts/run_scaling.py [--sizes 2000 8000 32000]
"""

import argparse
import time

import numpy as np

import ffgp.features as ft
from ffgp.data import make_smooth
from ffgp.model import model_nbytes
from ffgp.train import TrainConfig, fit


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+", default=[2000, 8000, 32000])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    config = TrainConfig(
        max_iters=8, restart_count=2, restart_iters=4,
        gradient_tolerance=1e-12, seed=args.seed,
    )
    template = ft.KernelSpec.template("gm", 4, 1, 32)

    times, sizes = [], []
    print("n\tseconds\tmodel_bytes")
    for n in args.sizes:
        X, y = make_smooth(n, d=4, seed=2)
        t0 = time.perf_counter()
        model, _ = fit(template, X, y, config)
        times.append(time.perf_counter() - t0)
        sizes.append(model_nbytes(model))
        print(f"{n}\t{times[-1]:.2f}\t{sizes[-1]}")

    slope = float(np.polyfit(np.log(args.sizes), np.log(times), 1)[0])
    print(f"log-log slope = {slope:.3f}")
    print(f"file size constant across n: {len(set(sizes)) == 1}")


if __name__ == "__main__":
    main()
