"""Trained-model container and its versioned binary file format.

A model file carries everything prediction needs -- packed hyperparameters,
the posterior coefficients, and the Cholesky factor of the D x D system --
so its size is set by (family, Q, m, d) and never by the number of training
points.  Floats are stored as raw little-endian f8, which makes the
save -> load -> predict path bit-identical to in-memory prediction.
"""

import json
import math
import os

import numpy as np
from dataclasses import dataclass

from .data import Standardization
from .errors import DimensionError, DomainError, ParseError
from .features import (
    FAMILIES,
    KernelSpec,
    build_stacks,
    compute_features,
    feature_rows,
    feature_weight_matrix,
    hyper_count,
)
from .gp import PosteriorState, _mapped, predict
from .hadamard import pad_geometry

MAGIC = "ffgp-model"
FORMAT_VERSION = 1
_POSITIVE = ("noise_var", "x_std", "y_std")  # scales; everything stored must be finite
# Prediction runs in row blocks of at most this many design-matrix bytes
# (1,024 rows at D = 2560) in one mapped buffer per call, which each block's
# features fill and the triangular solve or product overwrites.  Below 2D
# rows (gp._variance_route) its memory is the factor L, resident as its
# triangle (about 0.6 of 8 D^2 bytes at D = 2560), plus one block; from 2D
# rows up it adds R = L^{-1} V^{1/2}, a second triangle of the same size,
# whatever the number of rows.  `dtrmm` runs at the same speed from 1,024
# columns up, so a smaller block only saves memory.  Power-of-two row
# counts keep the results within an ulp of a single-block prediction.
_PREDICT_BLOCK_BYTES = 1 << 25


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

    def predict(self, X_raw):
        """(mean, variance) in original target units for raw-unit inputs.

        Rows go through compute_features and gp.predict in blocks of the
        largest power of two <= _PREDICT_BLOCK_BYTES / (8 D) rows.  Every
        block's features go into one buffer (the last block into a leading
        column view of it), which the variance's triangular solve or product
        overwrites in place.  Each block passes the call's row count, so one
        rule (gp._variance_route) picks one route for the whole call: below
        2D rows each block is solved against the stored factor as it is,
        from 2D rows up R is computed once per call and each block is one
        product by it.  Stored values that are finite but extreme
        (a loaded file can hold any) can overflow on the way; that raises
        DomainError instead of returning inf or NaN.
        """
        X_raw = np.asarray(X_raw, dtype=float)
        single = X_raw.ndim == 1
        if single:
            X_raw = X_raw[None, :]
        if X_raw.ndim != 2 or X_raw.shape[1] != self.spec.d_in:
            raise DimensionError(
                f"model expects rows of d_in={self.spec.d_in} values, got shape {X_raw.shape}"
            )
        n = X_raw.shape[0]
        rows = 1 << max((_PREDICT_BLOCK_BYTES // (8 * self.spec.n_rows)).bit_length() - 1, 0)
        mean_s, var_s = np.empty(n), np.empty(n)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            stacks = build_stacks(self.spec, self.seed)
            state = PosteriorState(beta=self.beta, chol_factor=self.chol_factor,
                                   noise_var=self.noise_var, weight_diag=feature_weight_matrix(self.spec))
            X = self.standardization.apply_x(X_raw)
            block = _mapped((self.spec.n_rows, min(rows, n)))
            for lo in range(0, n, rows):
                hi = min(lo + rows, n)
                phi = compute_features(self.spec, stacks, X[lo:hi], out=block[:, : hi - lo])
                mean_s[lo:hi], var_s[lo:hi] = predict(state, phi, overwrite_phi=True, rows=n)
            mean = self.standardization.undo_y(mean_s)
            var = self.standardization.undo_y_var(var_s)
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(var))):
            raise DomainError("predictions are not finite (the model's values or the inputs overflow)")
        return (float(mean[0]), float(var[0])) if single else (mean, var)


# ---- file format ----------------------------------------------------------
#
# line 1: "ffgp-model 1\n"
# line 2: one JSON object with the structural metadata (n_train zero-padded
#         so the byte length never varies with dataset size)
# rest:   concatenated little-endian f8 arrays in the fixed order below;
#         every length is derivable from the header, so no length table.
#         The Cholesky factor is its lower triangle, row by row.
#
# The factor is written and read in chunks of 128 rows (_row_chunks), so
# neither direction holds a packed copy of the triangle: save_model packs
# one chunk at a time, and load_model reads the payload straight from the
# file, one chunk at a time into the lower half of a C-order _mapped
# factor, whose strict upper triangle is never written or made resident.


def _array_order(family: str, d: int, Q: int, m_per_group: int):
    """(name, float count) of each payload array in file order.

    Pure arithmetic on the header fields, so the loader can check a file's
    length before it allocates anything the header asks for.
    """
    m = pad_geometry(d, m_per_group).m_total
    D = feature_rows(family, Q, m)
    return (
        ("params", hyper_count(family, d, Q, m) - 1),
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


def _row_chunks(D: int):
    """(index, mask, count) per 128-row chunk of a D x D lower triangle: the
    chunk's rows over its leading columns, the mask of their lower-triangle
    entries and how many there are.  Masked entries in row-major order are
    the chunk's stretch of the packed triangle."""
    for i in range(0, D, 128):
        k = min(i + 128, D)
        yield (slice(i, k), slice(0, k)), np.tri(k - i, k, i, dtype=bool), (k * (k + 1) - i * (i + 1)) // 2


def model_nbytes(model: TrainedModel) -> int:
    """Size in bytes of the file save_model writes for this model."""
    spec = model.spec
    order = _array_order(spec.family, spec.d_in, spec.Q, spec.m_per_group)
    return len(_header(model)) + 8 * sum(length for _, length in order)


def save_model(model: TrainedModel, path) -> None:
    spec = model.spec
    std = model.standardization
    blocks = {
        "params": spec.params,
        "beta": model.beta,
        "noise_var": [model.noise_var],
        "nlml": [model.nlml],
        "x_mean": std.x_mean,
        "x_std": std.x_std,
        "y_mean": [std.y_mean],
        "y_std": [std.y_std],
    }
    with open(path, "wb") as fh:
        fh.write(_header(model))
        for name, length in _array_order(spec.family, spec.d_in, spec.Q, spec.m_per_group):
            if name == "chol":
                for index, mask, _ in _row_chunks(spec.n_rows):
                    fh.write(np.ascontiguousarray(model.chol_factor[index][mask], dtype="<f8"))
            else:
                fh.write(np.ascontiguousarray(np.asarray(blocks[name], dtype="<f8").reshape(length)))


def _read_floats(fh, count: int, name: str, path) -> np.ndarray:
    """The next count little-endian f8 values of fh, a read-only view of the
    bytes read, checked finite (and positive for _POSITIVE names)."""
    values = np.frombuffer(fh.read(8 * count), dtype="<f8")
    if values.size != count:  # the file shrank after its length was checked
        raise ParseError(f"{path}: payload ended before {name}'s {count} floats")
    # min and max propagate NaN, so this scans without a mask of the values
    if not (np.isfinite(values.min(initial=0.0)) and np.isfinite(values.max(initial=0.0))) or (
        name in _POSITIVE and np.any(values <= 0.0)
    ):
        raise ParseError(f"{path}: bad {name} in payload (non-finite or out of range)")
    return values


def load_model(path) -> TrainedModel:
    with open(path, "rb") as fh:
        first, second = fh.readline(), fh.readline()
        if not (first.endswith(b"\n") and second.endswith(b"\n")):
            raise ParseError(f"{path}: not a model file (missing header)")
        magic = first[:-1].decode("ascii", errors="replace").split()
        if len(magic) != 2 or magic[0] != MAGIC:
            raise ParseError(f"{path}: not a model file (bad magic)")
        if magic[1] != str(FORMAT_VERSION):
            raise ParseError(f"{path}: unsupported format version {magic[1]}")
        try:
            meta = json.loads(second[:-1].decode("ascii"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ParseError(f"{path}: bad metadata header ({exc})") from exc
        n_train = meta.get("n_train") if isinstance(meta, dict) else None
        if not (
            isinstance(n_train, str) and n_train.isascii() and n_train.isdigit()
            and meta.get("family") in FAMILIES
            and all(type(meta.get(k)) is int and meta[k] >= 1 for k in ("d_in", "Q", "m_per_group"))
            and type(meta.get("seed")) is int and meta["seed"] >= 0
        ):
            raise ParseError(f"{path}: bad metadata header (missing, mistyped or out-of-range keys)")

        fields = (meta["family"], meta["d_in"], meta["Q"], meta["m_per_group"])
        order = _array_order(*fields)
        total = sum(length for _, length in order)
        payload = os.fstat(fh.fileno()).st_size - fh.tell()
        if payload % 8:
            raise ParseError(f"{path}: payload of {payload} bytes is not whole floats")
        if payload // 8 != total:
            raise ParseError(f"{path}: payload has {payload // 8} floats, header implies {total}")
        parts = {}
        for name, length in order:
            if name == "chol":  # chunk by chunk: no packed copy of the triangle
                D = (math.isqrt(8 * length + 1) - 1) // 2
                chol = _mapped((D, D), order="C")
                for index, mask, count in _row_chunks(D):
                    chol[index][mask] = _read_floats(fh, count, name, path)
            else:  # a copy, so nothing the model keeps holds the bytes read
                parts[name] = _read_floats(fh, length, name, path).astype(float)

    spec = KernelSpec(*fields, params=parts["params"])
    if not np.all(np.diag(chol) > 0.0):
        raise ParseError(f"{path}: bad chol in payload (non-positive diagonal)")
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
