"""Matrix-vector products in scipy's OpenBLAS (ffgp.gp says why only scipy's)."""

import numpy as np
from scipy.linalg.blas import dgemv


def matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x by `dgemv`, reading a in place in either memory order.

    scipy's wrappers copy any array that is not Fortran-ordered, so a
    C-ordered a goes in as its Fortran-ordered transpose with trans=1.  Each
    order then runs the kernel numpy's a @ x runs, and the result matches it
    bit for bit when a has at least two rows and two columns.  An empty
    product is zeros, which dgemv itself rejects.
    """
    if 0 in a.shape:
        return np.zeros(a.shape[0])
    if a.flags.f_contiguous:
        return dgemv(1.0, a, x)
    return dgemv(1.0, a.T, x, trans=1)
