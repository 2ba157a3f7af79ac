"""Dense matrix kernels with explicit truncation accounting.

Thin wrappers around LAPACK (via numpy, with a scipy fallback driver)
that own the conventions the decomposition code relies on: tail-scan
truncation, a numerical-rank cutoff for ``delta == 0``, deterministic
singular-vector signs, and reported truncation errors.
"""

from __future__ import annotations

import ctypes
import functools
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg

__all__ = [
    "SVDResult",
    "QRResult",
    "svd_truncate_delta",
    "svd_truncate_rank",
    "qr_economic",
]


@dataclass(frozen=True, eq=False)
class SVDResult:
    """Truncated SVD ``m ~= u @ diag(s) @ vt``.

    ``trunc_error`` is the Frobenius norm of the discarded part, i.e.
    the square root of the sum of discarded squared singular values.
    """

    u: np.ndarray
    s: np.ndarray
    vt: np.ndarray
    rank: int
    trunc_error: float


@dataclass(frozen=True, eq=False)
class QRResult:
    """Economic QR ``m = q @ r`` with the diagonal of ``r`` nonnegative."""

    q: np.ndarray
    r: np.ndarray


def _full_svd(m: np.ndarray):
    try:
        return np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError:
        # gesdd occasionally fails to converge; gesvd is slower but robust.
        return scipy.linalg.svd(m, full_matrices=False, lapack_driver="gesvd")


def _fix_signs(u: np.ndarray, vt: np.ndarray) -> None:
    # Deterministic output: largest-magnitude entry of each left singular
    # vector is made nonnegative, flipping the matching right vector too.
    # That entry is the column's max or min, the first of them on a tie;
    # column reductions find it without a temporary the size of ``u``.
    if u.shape[1] == 0:
        return
    top, bottom = u.max(axis=0), u.min(axis=0)
    flip = -bottom > top
    tie = (-bottom == top) & (top > 0.0)
    if tie.any():
        sub = u[:, tie]
        flip[tie] = np.argmax(sub == bottom[tie], axis=0) < np.argmax(sub == top[tie], axis=0)
    signs = np.where(flip, -1.0, 1.0)
    u *= signs
    vt *= signs[:, None]


def _check_matrix(m) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def _truncated(u: np.ndarray, s: np.ndarray, vt: np.ndarray, rank: int) -> SVDResult:
    # Keep the leading ``rank`` triplets of a full SVD, with the norm of
    # the discarded tail and deterministic signs.
    trunc_error = float(np.sqrt(max(float(np.sum((s * s)[rank:])), 0.0)))
    u = np.ascontiguousarray(u[:, :rank])
    vt = np.ascontiguousarray(vt[:rank, :])
    _fix_signs(u, vt)
    return SVDResult(u=u, s=s[:rank].copy(), vt=vt, rank=rank, trunc_error=trunc_error)


def svd_truncate_delta(m, delta: float) -> SVDResult:
    """SVD truncated to the smallest rank whose tail is within ``delta``.

    The kept rank is the smallest ``r`` such that the discarded singular
    values satisfy ``sum(s[r:]**2) <= delta**2``; ties therefore resolve
    to the more aggressive truncation.  ``delta >= norm(m)`` may yield
    rank 0 with empty factors.  ``delta == 0`` requests the numerical
    rank: singular values below ``max(m.shape) * eps * s[0]`` are
    discarded.
    """
    m = _check_matrix(m)
    if not delta >= 0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    u, s, vt = _full_svd(m)
    if delta == 0.0:
        if s.size == 0 or s[0] == 0.0:
            rank = 0
        else:
            cut = max(m.shape) * np.finfo(np.float64).eps * s[0]
            rank = int(np.count_nonzero(s >= cut))
    else:
        # tails[r] = sum of squares of the singular values dropped at rank r
        sq = s * s
        tails = np.concatenate([np.cumsum(sq[::-1])[::-1], [0.0]])
        rank = int(np.argmax(tails <= delta * delta))
    return _truncated(u, s, vt, rank)


def svd_truncate_rank(m, r: int) -> SVDResult:
    """Best approximation of rank ``min(r, min(m.shape))``.

    Exactly that many singular triplets are kept, zeros included, so the
    requested rank is honored whenever it is feasible.
    """
    m = _check_matrix(m)
    if r < 0:
        raise ValueError(f"target rank must be nonnegative, got {r}")
    u, s, vt = _full_svd(m)
    rank = int(min(r, min(m.shape)))
    return _truncated(u, s, vt, rank)


def qr_economic(m) -> QRResult:
    """Reduced QR with ``min(m.shape)`` orthonormal columns.

    The factorization is made unique by forcing the diagonal of ``r``
    nonnegative.
    """
    m = _check_matrix(m)
    q, r = np.linalg.qr(m, mode="reduced")
    d = np.sign(np.diag(r))
    d[d == 0] = 1.0
    q = q * d
    r = d[:, None] * r
    return QRResult(q=q, r=r)


@functools.cache
def _openblas_threads():
    """``(get, set)`` thread-count functions of the OpenBLAS bundled with
    NumPy, or ``None`` when NumPy uses another BLAS."""
    root = Path(np.__file__).resolve().parent
    libs = [*root.parent.glob("numpy.libs/*openblas*"), *root.glob(".dylibs/*openblas*")]
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for name in ("scipy_openblas_{}64_", "openblas_{}64_", "openblas_{}"):
            get = getattr(lib, name.format("get_num_threads"), None)
            set_ = getattr(lib, name.format("set_num_threads"), None)
            if get is not None and set_ is not None:
                return get, set_
    return None


# Shared by overlapping ``one_blas_thread`` blocks.
_scope_lock = threading.Lock()
_scope = {"depth": 0, "saved": 0}


@contextmanager
def one_blas_thread():
    """Run the block with NumPy's OpenBLAS on one thread.

    After a threaded call, OpenBLAS workers spin for about 0.1 s, which
    costs a decomposition of a few milliseconds far more CPU than the
    second thread saves.  The count is process-wide, so BLAS calls from
    other threads inside the block also run on one thread; the last
    overlapping block to end restores it.  Does nothing when NumPy uses
    another BLAS.
    """
    get, set_ = _openblas_threads() or (lambda: 1, lambda n: None)
    with _scope_lock:
        if _scope["depth"] == 0:
            _scope["saved"] = get()
            set_(1)
        _scope["depth"] += 1
    try:
        yield
    finally:
        with _scope_lock:
            _scope["depth"] -= 1
            if _scope["depth"] == 0:
                set_(_scope["saved"])
