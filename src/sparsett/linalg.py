"""Dense matrix kernels with explicit truncation accounting.

Thin wrappers around LAPACK (via numpy, with a scipy fallback driver)
that own the conventions the decomposition code relies on: tail-scan
truncation, one noise floor, deterministic singular-vector signs, and
reported truncation errors.

Every kernel factors a tall matrix's nonzero rows, whenever at least as
many rows as columns are nonzero; the singular values, ``V`` and the
short side are those of the whole matrix.  Finiteness is checked once,
on the matrix the kernel factors: a NaN or an infinity makes its row
nonzero, so no such entry escapes the check.  One function assembles
every step's result.  The first largest-magnitude entry of each column
of ``U`` is made nonnegative, with the matching row of ``V^T`` flipped,
and ``U`` is written once, at full height and in the input's memory
order: a transposed view gets a Fortran-ordered ``U``, whose transpose
needs no copy.  No kept rank counts a singular value at or below the
floor ``min(m.shape) * eps * s[0]``, the scale of a dense SVD's
roundoff, whose noise depends on row order and on zero rows.  Over the
1,286 steps of acceptance criteria 1, 2, 5 and 6, every kept value is
above 7.6e9 floors and every discarded one below 0.65 of a floor.

Every SVD goes through one of four kernels, tried in this order:

- A step of :func:`svd_truncate_delta` with ``delta > 0`` on a matrix
  whose smaller side is at least 256 first tries a randomized range
  finder: a 16-column Gaussian sketch seeded from the shape, one power
  step, and the SVD of the projection ``B = Q^T M``.  It is accepted
  only when the exact residual ``||M - Q B||_F`` is within ``delta``,
  and that residual is part of the reported ``trunc_error``.  A step
  whose energy to capture, ``||M||^2 - delta^2``, exceeds 16 times
  ``||M||_1 ||M||_inf``, a bound on its squared singular values, goes
  to the Gram route below before a sketch is drawn; a sketch whose
  residual is above ``delta`` goes there after.
- A step the sketch hands over is factored from the eigendecomposition
  of its short-side Gram matrix, when ``delta**2`` is at least 100
  times a bound on that Gram's eigenvalue error,
  ``n * (m + n) * eps * ||M||_F**2`` for an ``m``-by-``n`` matrix with
  ``n`` the short side.  It keeps the smallest rank whose eigenvalue
  tail plus that bound is within ``delta**2``.  A wide matrix takes the
  eigenvectors as ``U``; a tall one takes ``M V_r`` made orthonormal by
  one Cholesky pass.  The factors are ``U`` and ``U^T M``, and the
  exact residual ``||M - U U^T M||_F`` is the reported ``trunc_error``.
  A step below the guard, or whose residual is above ``delta``, goes
  to the full SVD below.
- A matrix with ``rows >= 32 * cols`` and ``rows * cols >= 2**18`` is
  factored by CholeskyQR2, followed by a ``cols``-by-``cols`` SVD.  It
  goes to LAPACK when either Cholesky fails, when the diagonal of the
  first Cholesky factor ``R1`` spans more than 1e6, when the row sums
  of ``|R1^-1| |R1|`` exceed 1e4, or when the first-pass ``Q1^T Q1``
  differs from the identity by more than 0.1 in any entry.
- Every other matrix goes straight to LAPACK: ``gesdd``, then
  ``gesvd`` if ``gesdd`` does not converge.

Only the sketched and Gram steps differ from a full SVD: their factors
are not bit-identical to ``gesdd``'s, and their kept rank can come out
above the optimal one, never below it.
"""

from __future__ import annotations

import ctypes
import functools
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "SVDResult",
    "svd_truncate_delta",
    "svd_truncate_rank",
    "qr_economic",
]


@dataclass(frozen=True, eq=False)
class SVDResult:
    """Truncated SVD ``m ~= u @ diag(s) @ vt``.

    ``u`` has ``m``'s height and memory order (Fortran order for a
    Fortran-ordered ``m``, else C order), and the first largest-magnitude
    entry of each of its columns is nonnegative.  ``m`` was checked to
    be finite on the rows the kernel factored, which hold every nonzero.

    ``trunc_error`` is the Frobenius norm of the discarded part,
    ``m - u @ diag(s) @ vt``: the square root of the sum of discarded
    squared singular values, plus, for a sketched step, the squared
    norm of the part of ``m`` outside the sketch's range.  For a step
    of the Gram route it is that norm measured directly, ``s`` holds
    the square roots of the Gram's eigenvalues, and the rows of ``vt``
    are orthonormal only to the Gram's resolution; the columns of ``u``
    are orthonormal to machine precision on every route.
    """

    u: np.ndarray
    s: np.ndarray
    vt: np.ndarray
    rank: int
    trunc_error: float


def _lapack_svd(m: np.ndarray):
    try:
        return np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError:
        # gesdd occasionally fails to converge; gesvd is slower but robust.
        # Imported here, not at the top: scipy.linalg costs every process
        # about 0.1 s of import, and it loads SciPy's own OpenBLAS, whose
        # thread pool one_blas_thread does not control.
        import scipy.linalg

        return scipy.linalg.svd(m, full_matrices=False, lapack_driver="gesvd")


# Guards of the CholeskyQR2 path; a matrix that fails one goes to LAPACK.
# The spread of diag(R1) is a lower bound on the condition number.  The
# row sums of |R1^-1| |R1| bound the error of forming Q1 through the
# explicit inverse, which the diagonal does not: a 20000x60 matrix whose
# R1 has a unit diagonal and a condition number of 3e7 passes the other
# guards, and Q1 R1 then misses it by 3e-11 of its norm.  The last guard
# is the orthogonality of the first-pass Q1.
_MAX_DIAG_SPAN = 1e6
_MAX_INVERSE_GROWTH = 1e4
_MAX_ORTH_DEFECT = 0.1


def _upper_cholesky(g: np.ndarray):
    # The transpose of the lower factor; ``cholesky(g, upper=True)`` needs
    # NumPy 2.
    try:
        return np.linalg.cholesky(g).T
    except np.linalg.LinAlgError:
        return None


def _cholesky_qr2_svd(a: np.ndarray):
    # ``a = (Q1 R2^-1) (R2 R1)`` with ``R1 = chol(a^T a)``, ``Q1 = a R1^-1``
    # and ``R2 = chol(Q1^T Q1)``; the SVD of the small ``R2 R1`` then gives
    # that of ``a``.  One pass leaves Q1 orthonormal only to about
    # ``cond(a)**2 * eps``; the second brings it to ``eps``.  Returns None
    # when a guard fails, which all but the orthogonality guard do before
    # any m-by-n product other than ``a^T a``.  The triangular inverse and
    # solve use NumPy's LAPACK (LU on a triangular matrix does not pivot),
    # not scipy.linalg: the SciPy wheel bundles a second OpenBLAS, whose
    # threads then spin against NumPy's, and on a 79200x88 matrix that
    # took the whole kernel from 0.08 s to 0.20 s.
    n = a.shape[1]
    r1 = _upper_cholesky(a.T @ a)
    if r1 is None:
        return None
    d = np.diag(r1)
    if not d.max() <= _MAX_DIAG_SPAN * d.min():
        return None
    r1_inv = np.linalg.inv(r1)
    if not (np.abs(r1_inv) @ np.abs(r1)).sum(axis=1).max() <= _MAX_INVERSE_GROWTH:
        return None
    q1 = a @ r1_inv
    g = q1.T @ q1
    if not np.abs(g - np.eye(n)).max() <= _MAX_ORTH_DEFECT:
        return None
    r2 = _upper_cholesky(g)
    if r2 is None:
        return None
    ur, s, vt = _lapack_svd(r2 @ r1)
    return q1 @ np.linalg.solve(r2, ur), s, vt


def _nonzero_rows(m: np.ndarray):
    # The rows every kernel factors: a mask of a tall ``m``'s nonzero rows
    # when at least ``cols`` of them but not all are nonzero, else None
    # for the whole of ``m``.  A zero row adds nothing to the singular
    # values or to ``V`` and gives a zero row of ``U``, and the short side
    # stays ``cols``.  A NaN or an infinity makes its row nonzero, so the
    # finiteness check on the factored rows sees every such entry.
    rows, cols = m.shape
    if rows > cols:
        keep = m.any(axis=1)
        if cols <= np.count_nonzero(keep) < rows:
            return keep
    return None


def _full_svd(a: np.ndarray):
    # CholeskyQR2 does four products with the m-by-n matrix, and a^T a
    # squares its condition number, so its edge over gesdd shrinks as the
    # matrix nears square; it is never used there.  The cutoffs are
    # conservative: on random matrices (2-vCPU VM, min of 5) the kernel
    # also beats gesdd below them, 0.8 against 1.5 ms at 960x30, 2.4
    # against 8.6 ms at 7680x30, 37 against 42 ms at 957x300 and 255
    # against 298 ms at 2800x639, though tiny matrices lose to its fixed
    # cost (44 against 9 us at 64x2).  They stay because lowering them
    # moves benchmark steps onto this path with no measurement of that.
    rows, cols = a.shape
    if rows >= 32 * cols and rows * cols >= 2**18:
        usv = _cholesky_qr2_svd(a)
        if usv is not None:
            return usv
    return _lapack_svd(a)


# Where the sketch and the Gram route run, and the sketch's width.
# Measured on a 2-vCPU VM (min of 5): the 1008x1264 pivot step of the
# QTT 32^3 Laplacian (numerical rank 4, delta 2.2e-8) took 10 ms
# against 450 ms for gesdd, with a residual of 1.4e-12.  The
# image-shaped steps of the benchmark's ``pixels`` workload keep over
# 90% of their rank; at 300x957 the sketch's residual is above delta
# and it hands over to the Gram route, 4 ms before 20 ms (gesdd:
# 66 ms).  At 2800x639 (Gram 219 ms, gesdd 319 ms) the norm bound
# refuses the sketch before it is drawn and saves its 11 ms.  No
# benchmark step certified at a wider sketch, so none is tried.
_SKETCH_MIN_DIM = 256
_SKETCH_WIDTH = 16


def _residual_sq(q: np.ndarray, b: np.ndarray, m: np.ndarray) -> float:
    # ``||m - q b||_F**2``, formed explicitly: ``||m||^2 - ||b||^2`` would
    # cancel to far above delta.
    r = q @ b
    r -= m
    return float(np.vdot(r, r))


def _sketched_svd(m: np.ndarray, delta: float):
    # ``m ~= Q B`` with ``Q`` orthonormal, so ``m - Q B`` is orthogonal to
    # ``Q`` and the error of any truncation of ``B``'s SVD is exact:
    # ``sum(s[r:]**2) + ||m - Q B||^2``, with the residual formed by
    # ``_residual_sq``.  A passing certificate implies
    # ``||B||^2 >= ||m||^2 - delta^2``, while ``||B||^2`` is at most
    # ``_SKETCH_WIDTH * s[0]**2 <= _SKETCH_WIDTH * ||m||_1 ||m||_inf``:
    # that bound refuses a sketch before it is drawn, the residual after.
    # Returns ``(u, s, vt, residual**2)``, or None to take the full SVD.
    energy = float(np.linalg.norm(m)) ** 2 - delta * delta
    a = np.abs(m)
    if energy > _SKETCH_WIDTH * float(a.sum(axis=0).max()) * float(a.sum(axis=1).max()):
        return None
    del a
    rows, cols = m.shape
    rng = np.random.default_rng([rows, cols])
    q = np.linalg.qr(m @ rng.standard_normal((cols, _SKETCH_WIDTH)))[0]
    q = np.linalg.qr(m @ np.linalg.qr(m.T @ q)[0])[0]
    b = q.T @ m
    ub, s, vt = _lapack_svd(b)
    residual_sq = _residual_sq(q, b, m)
    if residual_sq > delta * delta:
        return None
    return q @ ub, s, vt, residual_sq


# Guard of the Gram route.  The computed Gram matrix of an m-by-n
# matrix M, n its short side, is within ``m * eps * ||M||_F**2`` of the
# exact one in Frobenius norm (each entry is a dot product of length m),
# and ``eigh`` is backward stable, adding a perturbation of order
# ``n * eps * ||M||_F**2``.  A sum of eigenvalues, such as a discarded
# tail, moves by at most the nuclear norm of the perturbation, at most
# sqrt(n) times its Frobenius norm; ``n * (m + n) * eps * ||M||_F**2``
# bounds that with a further sqrt(n) for eigh's constant.  The route
# runs only where delta**2 is 100 times the bound, so adding the bound
# to the tail takes at most 1% of the step's budget.
_GRAM_MARGIN = 100.0


def _gram_svd(m: np.ndarray, delta: float):
    # The Gram's eigenvalues are the squared singular values to within
    # ``bound``, so the smallest rank whose computed tail plus ``bound``
    # is within delta**2 is never below the exact rule's rank.  A wide
    # M takes the eigenvectors as U; a tall one forms ``M V_r``, whose
    # columns are orthogonal only to the Gram's resolution, and makes
    # them orthonormal with one Cholesky pass.  ``B = U^T M``, and the
    # residual ``m - U B`` is formed as for the sketch.
    # Returns ``(u, s, vt, residual**2)`` with only the kept triplets,
    # or None to take the full SVD.
    rows, cols = m.shape
    short, long = min(rows, cols), max(rows, cols)
    bound = short * (short + long) * np.finfo(np.float64).eps * float(np.vdot(m, m))
    if not delta * delta >= _GRAM_MARGIN * bound:
        return None
    wide = rows <= cols
    lam, w = np.linalg.eigh(m @ m.T if wide else m.T @ m)
    lam, w = lam[::-1], w[:, ::-1]
    tails = np.concatenate([np.cumsum(lam[::-1])[::-1], [0.0]])
    rank = int(np.argmax(tails + bound <= delta * delta))
    if wide:
        u = np.ascontiguousarray(w[:, :rank])
    else:
        y = m @ w[:, :rank]
        c = _upper_cholesky(y.T @ y)
        if c is None:
            return None
        u = y @ np.linalg.inv(c)
    b = u.T @ m
    residual_sq = _residual_sq(u, b, m)
    if residual_sq > delta * delta:
        return None
    s = np.sqrt(lam[:rank])
    return u, s, b / s[:, None], residual_sq


def _check_matrix(m) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    return m


def _check_finite(m: np.ndarray) -> np.ndarray:
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def _truncated(m: np.ndarray, keep, u, s, vt, rank: int, residual_sq: float = 0.0) -> SVDResult:
    # The one assembly of a step's result: the leading ``rank`` triplets
    # of the factors of ``m``'s rows ``keep`` (all of them when None), and
    # the norm of the discarded tail and of a residual.  The first
    # largest-magnitude entry of each column of ``u`` is made nonnegative,
    # and ``vt`` flips with it; the zero rows ``keep`` leaves out never
    # hold that entry.  ``u`` is then written once, at ``m``'s height and
    # in its memory order, so a transposed view's ``u`` transposes back
    # without a copy.
    trunc_error = float(np.sqrt(max(float(np.sum((s * s)[rank:])) + residual_sq, 0.0)))
    # ``argmax`` down a C-ordered array's columns copies it transposed;
    # on the mask of each column's largest magnitudes that copy is an
    # eighth of the size (3 against 16 ms on a 2800x586 U, 2-vCPU VM).
    u = u[:, :rank]
    a = np.abs(u)
    top = (a == a.max(axis=0)).argmax(axis=0) if rank else np.zeros(0, dtype=np.intp)
    signs = np.where(u[top, np.arange(rank)] < 0.0, -1.0, 1.0)
    order = "F" if m.flags.f_contiguous else "C"
    if keep is None:
        full = np.multiply(u, signs, order=order)
    else:
        full = np.zeros((m.shape[0], rank), order=order)
        full[keep] = u * signs
    vt = vt[:rank] * signs[:, None]
    return SVDResult(u=full, s=s[:rank].copy(), vt=vt, rank=rank, trunc_error=trunc_error)


def svd_truncate_delta(m, delta: float) -> SVDResult:
    """SVD truncated to the smallest rank whose tail is within ``delta``.

    The kept rank is the smallest ``r`` such that the discarded singular
    values satisfy ``sum(s[r:]**2) <= delta**2``; ties therefore resolve
    to the more aggressive truncation.  ``delta >= norm(m)`` may yield
    rank 0 with empty factors.  The rank is capped at the count of
    singular values above the noise floor ``min(m.shape) * eps * s[0]``,
    whatever ``delta``, and the values below it count in
    ``trunc_error``; ``delta == 0`` keeps exactly those above it.

    A matrix whose smaller side is at least 256 may be factored by a
    certified sketch or by the Gram route (see the module docstring).
    Its singular values are then those of the sketch, or the square
    roots of the Gram's eigenvalues; ``trunc_error`` is still the error
    of the returned factors, and the kept rank is at least the rank the
    rule above gives on the exact singular values.
    """
    m = _check_matrix(m)
    if not delta >= 0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    keep = _nonzero_rows(m)
    a = _check_finite(m if keep is None else m[keep])
    sketch = None
    if delta > 0.0 and min(a.shape) >= _SKETCH_MIN_DIM:
        sketch = _sketched_svd(a, delta)
        gram = _gram_svd(a, delta) if sketch is None else None
        if gram is not None:
            u, s, vt, residual_sq = gram
            return _truncated(m, keep, u, s, vt, s.size, residual_sq)
    u, s, vt, residual_sq = sketch if sketch is not None else (*_full_svd(a), 0.0)
    # tails[r] = squared error of keeping rank r
    sq = s * s
    tails = np.concatenate([np.cumsum(sq[::-1])[::-1], [0.0]]) + residual_sq
    floor = min(a.shape) * np.finfo(np.float64).eps * s.max(initial=0.0)
    rank = min(int(np.argmax(tails <= delta * delta)), int(np.count_nonzero(s > floor)))
    return _truncated(m, keep, u, s, vt, rank, residual_sq)


def svd_truncate_rank(m, r: int) -> SVDResult:
    """Best approximation of rank ``min(r, min(m.shape))``.

    Exactly that many singular triplets are kept, zeros included, so the
    requested rank is honored whenever it is feasible.
    """
    m = _check_matrix(m)
    if r < 0:
        raise ValueError(f"target rank must be nonnegative, got {r}")
    keep = _nonzero_rows(m)
    a = _check_finite(m if keep is None else m[keep])
    return _truncated(m, keep, *_full_svd(a), int(min(r, min(m.shape))))


def qr_economic(m) -> tuple[np.ndarray, np.ndarray]:
    """Reduced QR ``m = q @ r`` with ``min(m.shape)`` orthonormal columns.

    The factorization is made unique by forcing the diagonal of ``r``
    nonnegative.  Returns ``(q, r)``.
    """
    m = _check_finite(_check_matrix(m))
    q, r = np.linalg.qr(m, mode="reduced")
    d = np.sign(np.diag(r))
    d[d == 0] = 1.0
    q = q * d
    r = d[:, None] * r
    return q, r


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
    another BLAS.  SciPy's wheel bundles its own OpenBLAS, which this
    leaves alone: ``_lapack_svd``'s ``gesvd`` fallback keeps that
    library's thread pool even inside the block.
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
