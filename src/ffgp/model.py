"""Trained-model container and its versioned binary file format.

A model file carries everything prediction needs -- packed hyperparameters,
the posterior coefficients, and the Cholesky factor of the D x D system --
so its size is set by (family, Q, m, d) and never by the number of training
points.  Floats are stored as raw little-endian f8, which makes the
save -> load -> predict path bit-identical to in-memory prediction.
"""

import json

import numpy as np
from dataclasses import dataclass

from .data import Standardization
from .errors import DimensionError, FfgpError, ParseError
from .features import KernelSpec, build_stacks, compute_features, feature_weight_matrix
from .gp import PosteriorState, predict

MAGIC = "ffgp-model"
FORMAT_VERSION = 1
_POSITIVE = ("noise_var", "x_std", "y_std")  # scales; everything stored must be finite


@dataclass(frozen=True)
class TrainedModel:
    spec: KernelSpec
    seed: int
    noise_var: float
    nlml: float
    beta: np.ndarray
    chol_factor: np.ndarray
    standardization: Standardization
    n_train: int

    def posterior(self) -> PosteriorState:
        return PosteriorState(
            beta=self.beta,
            chol_factor=self.chol_factor,
            noise_var=self.noise_var,
            weight_diag=feature_weight_matrix(self.spec),
        )

    def predict(self, X_raw):
        """(mean, variance) in original target units for raw-unit inputs."""
        X_raw = np.asarray(X_raw, dtype=float)
        single = X_raw.ndim == 1
        if single:
            X_raw = X_raw[None, :]
        if X_raw.shape[1] != self.spec.d_in:
            raise DimensionError(
                f"model expects d_in={self.spec.d_in}, got {X_raw.shape[1]} columns"
            )
        stacks = build_stacks(self.spec, self.seed)
        phi = compute_features(self.spec, stacks, self.standardization.apply_x(X_raw))
        mean_s, var_s = predict(self.posterior(), phi)
        mean = self.standardization.undo_y(mean_s)
        var = self.standardization.undo_y_var(var_s)
        return (float(mean[0]), float(var[0])) if single else (mean, var)


# ---- file format ----------------------------------------------------------
#
# line 1: "ffgp-model 1\n"
# line 2: one JSON object with the structural metadata (n_train zero-padded
#         so the byte length never varies with dataset size)
# rest:   concatenated little-endian f8 arrays in the fixed order below;
#         every length is derivable from the header, so no length table.


def _array_order(spec: KernelSpec):
    d, D = spec.d_in, spec.n_rows
    return (
        ("params", spec.n_params),
        ("beta", D),
        ("chol", D * (D + 1) // 2),
        ("noise_var", 1),
        ("nlml", 1),
        ("x_mean", d),
        ("x_std", d),
        ("y_mean", 1),
        ("y_std", 1),
    )


def _header(model: TrainedModel) -> bytes:
    spec = model.spec
    meta = {
        "family": spec.family,
        "d_in": spec.d_in,
        "Q": spec.Q,
        "m_per_group": spec.m_per_group,
        "seed": model.seed,
        "n_train": "%012d" % model.n_train,
    }
    header = MAGIC + " " + str(FORMAT_VERSION) + "\n"
    header += json.dumps(meta, sort_keys=True, separators=(",", ":")) + "\n"
    return header.encode("ascii")


def model_nbytes(model: TrainedModel) -> int:
    """Size in bytes of the file save_model writes for this model."""
    return len(_header(model)) + 8 * sum(length for _, length in _array_order(model.spec))


def save_model(model: TrainedModel, path) -> None:
    spec = model.spec
    tril = np.tril_indices(spec.n_rows)
    std = model.standardization
    blocks = {
        "params": spec.params,
        "beta": model.beta,
        "chol": model.chol_factor[tril],
        "noise_var": [model.noise_var],
        "nlml": [model.nlml],
        "x_mean": std.x_mean,
        "x_std": std.x_std,
        "y_mean": [std.y_mean],
        "y_std": [std.y_std],
    }
    payload = b""
    for name, length in _array_order(spec):
        arr = np.ascontiguousarray(np.asarray(blocks[name], dtype="<f8").reshape(length))
        payload += arr.tobytes()
    with open(path, "wb") as fh:
        fh.write(_header(model))
        fh.write(payload)


def load_model(path) -> TrainedModel:
    with open(path, "rb") as fh:
        raw = fh.read()
    first = raw.find(b"\n")
    second = raw.find(b"\n", first + 1)
    if first < 0 or second < 0:
        raise ParseError(f"{path}: not a model file (missing header)")
    magic = raw[:first].decode("ascii", errors="replace").split()
    if len(magic) != 2 or magic[0] != MAGIC:
        raise ParseError(f"{path}: not a model file (bad magic)")
    if magic[1] != str(FORMAT_VERSION):
        raise ParseError(f"{path}: unsupported format version {magic[1]}")
    try:
        meta = json.loads(raw[first + 1 : second].decode("ascii"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: bad metadata header ({exc})") from exc
    ints = ("d_in", "Q", "m_per_group", "seed")
    n_train = meta.get("n_train") if isinstance(meta, dict) else None
    if not (
        isinstance(n_train, str) and n_train.isascii() and n_train.isdigit()
        and isinstance(meta.get("family"), str)
        and all(type(meta.get(k)) is int and meta[k] >= 0 for k in ints)
    ):
        raise ParseError(f"{path}: bad metadata header (missing or mistyped keys)")
    try:
        template = KernelSpec.template(meta["family"], meta["d_in"], meta["Q"], meta["m_per_group"])
    except FfgpError as exc:
        raise ParseError(f"{path}: bad metadata header ({exc})") from exc

    order = _array_order(template)
    total = sum(length for _, length in order)
    payload = raw[second + 1 :]
    if len(payload) % 8:
        raise ParseError(f"{path}: payload of {len(payload)} bytes is not whole floats")
    flat = np.frombuffer(payload, dtype="<f8")
    if flat.shape[0] != total:
        raise ParseError(
            f"{path}: payload has {flat.shape[0]} floats, header implies {total}"
        )
    parts, pos = {}, 0
    for name, length in order:
        part = parts[name] = flat[pos : pos + length].astype(float)
        pos += length
        if not np.all(np.isfinite(part)) or (name in _POSITIVE and np.any(part <= 0.0)):
            raise ParseError(f"{path}: bad {name} in payload (non-finite or out of range)")

    spec = template.with_params(parts["params"])
    D = spec.n_rows
    chol = np.zeros((D, D))
    chol[np.tril_indices(D)] = parts["chol"]
    std = Standardization(
        x_mean=parts["x_mean"],
        x_std=parts["x_std"],
        y_mean=float(parts["y_mean"][0]),
        y_std=float(parts["y_std"][0]),
    )
    return TrainedModel(
        spec=spec,
        seed=int(meta["seed"]),
        noise_var=float(parts["noise_var"][0]),
        nlml=float(parts["nlml"][0]),
        beta=parts["beta"],
        chol_factor=chol,
        standardization=std,
        n_train=int(meta["n_train"]),
    )
