"""Smoke tests for the scripts that build on the library's start protocol."""

import importlib.util
import re
from pathlib import Path

import numpy as np

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
        outputs.append(capsys.readouterr().out)
    lines = outputs[0].splitlines()
    assert [ln.split("\t")[0] for ln in lines] == [s[0] for s in digest.SHAPES]
    assert all(re.fullmatch(r"[a-z]+\t[0-9a-f]{64}", ln) for ln in lines)
    assert len(lines) == 6 and outputs[0] == outputs[1]


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
