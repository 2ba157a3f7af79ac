"""Classical dense train construction, and the one rounding sweep.

:func:`tt_svd` is the reference construction: sequential truncated SVDs
over the unfoldings, with a result within ``eps`` of the input in
relative Frobenius norm.  :func:`round_from_pivot` is the one rounding
sweep.  It takes the exact train in index form (:class:`IndexTrain`,
whose cores off the pivot are :class:`QuasiPermMatrix` index maps) and
starts at that train's pivot, with the step rules of
:mod:`sparsett.fasttt`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractViolationError
from .linalg import svd_truncate_delta
from .tensor import _frozen, _integral, check_shape
from .ttformat import TTTensor, _qr_sweep, tt_zero

__all__ = [
    "tt_svd", "QuasiPermMatrix", "IndexTrain", "round_from_pivot", "flops_ttsvd", "full_ranks"
]


def tt_svd(a: np.ndarray, eps: float) -> TTTensor:
    """Decompose a dense tensor with per-step tolerance
    ``eps / sqrt(d-1) * norm(a)``, which keeps the total relative error
    within ``eps``.  Raises ``ValueError`` when ``norm(a)`` overflows."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    _check_eps(eps)
    dims = a.shape
    d = a.ndim
    if d == 0:
        raise ValueError("input must have at least one mode")
    norm = _input_norm(a.ravel())
    if d == 1:
        return TTTensor([a.reshape(1, -1, 1)])
    delta = eps / math.sqrt(d - 1) * norm
    cores = []
    c = a
    r = 1
    for k in range(d - 1):
        m = c.reshape(r * dims[k], -1)
        res = svd_truncate_delta(m, delta)
        if res.rank == 0:
            return tt_zero(dims)
        cores.append(res.u.reshape(r, dims[k], res.rank))
        c = res.s[:, None] * res.vt
        r = res.rank
    cores.append(c.reshape(r, dims[-1], 1))
    return TTTensor(cores)


def _check_eps(eps: float) -> None:
    if not 0 <= eps < math.inf:
        raise ValueError(f"eps must be finite and nonnegative, got {eps}")


def _input_norm(values: np.ndarray) -> float:
    """Frobenius norm of the input's entries; ``ValueError`` when it is not
    finite, since the squares of the entries then overflow float64."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(values))
    if not math.isfinite(norm):
        raise ValueError(
            f"the input's norm is {norm}: its squared entries overflow float64"
        )
    return norm


def _check_pivot(pivot: int, d: int) -> None:
    if not 0 <= pivot < d:
        raise ValueError(f"pivot {pivot} out of range for {d} modes")


class QuasiPermMatrix:
    """A zero-one matrix with exactly one 1 per column.

    Stored as the map from column to the row holding its 1, so products
    and factorizations reduce to integer index arithmetic.
    """

    __slots__ = ("n_rows", "n_cols", "col_to_row")

    def __init__(self, n_rows: int, n_cols: int, col_to_row):
        n_rows = int(n_rows)
        n_cols = int(n_cols)
        col_to_row = _frozen(_integral(col_to_row, "row index"), np.int64)
        if n_rows < 0 or n_cols < 0:
            raise ValueError("matrix extents must be nonnegative")
        if col_to_row.shape != (n_cols,):
            raise ValueError(f"col_to_row must have shape ({n_cols},)")
        if n_cols and (col_to_row.min() < 0 or col_to_row.max() >= n_rows):
            raise ValueError("column map points outside the row range")
        object.__setattr__(self, "n_rows", n_rows)
        object.__setattr__(self, "n_cols", n_cols)
        object.__setattr__(self, "col_to_row", col_to_row)

    def __setattr__(self, name, value):
        raise AttributeError("QuasiPermMatrix is immutable")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    def to_dense(self) -> np.ndarray:
        m = np.zeros((self.n_rows, self.n_cols))
        m[self.col_to_row, np.arange(self.n_cols)] = 1.0
        return m

    def __repr__(self) -> str:
        return f"QuasiPermMatrix(shape={self.shape})"


class IndexTrain:
    """A train orthogonalized around ``pivot`` whose other cores are
    index maps: the sparse pipeline's exact train, as
    :func:`~sparsett.fasttt.build_structured_tt` builds it.

    ``cores[pivot]`` is dense.  Core ``k`` off the pivot is a
    :class:`QuasiPermMatrix` with one row per (bond, index) pair on the
    side away from the pivot, ``r_k * n_k`` left of it and
    ``n_k * r_{k+1}`` right of it, and one column per index of the bond
    that faces the pivot.  Written densely, left core ``k`` unfolds to
    that ``(r_k n_k) x r_{k+1}`` matrix and right core ``k`` to its
    ``r_k x (n_k r_{k+1})`` transpose.  The kept rows of every map must
    strictly increase, the canonical order the build produces: the map's
    columns are then distinct standard basis vectors, so the train is
    orthogonalized around ``pivot``.  A map that breaks this, even one
    whose rows are distinct and so still orthonormal, raises
    :class:`ContractViolationError`, so every ``IndexTrain`` can be
    rounded.  ``num_fibers`` is the number ``R`` of
    nonzero mode-``pivot`` fibers the train was grouped from; no bond
    exceeds it.
    """

    __slots__ = ("dims", "pivot", "cores", "num_fibers")

    def __init__(self, dims, pivot: int, cores, num_fibers: int):
        dims = check_shape(dims)
        _check_pivot(pivot, len(dims))
        cores = list(cores)
        if len(cores) != len(dims):
            raise ValueError(f"{len(dims)} modes need {len(dims)} cores, got {len(cores)}")
        for k, c in enumerate(cores):
            if k != pivot and not isinstance(c, QuasiPermMatrix):
                raise TypeError(
                    f"core {k} is off pivot {pivot}, so it must be a QuasiPermMatrix, "
                    f"not {type(c).__name__}"
                )
        cores[pivot] = _frozen(cores[pivot], np.float64)
        num_fibers = int(num_fibers)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "pivot", int(pivot))
        object.__setattr__(self, "cores", tuple(cores))
        object.__setattr__(self, "num_fibers", num_fibers)
        r = self.ranks
        for k, c in enumerate(cores):
            if k == pivot:
                fits = c.shape == (r[k], dims[k], r[k + 1])
            else:
                fits = c.n_rows == (r[k] * dims[k] if k < pivot else dims[k] * r[k + 1])
            if not fits:
                raise ValueError(
                    f"core {k} does not fit bonds {r[k]}, {r[k + 1]} and extent {dims[k]}"
                )
            if k != pivot and not (np.diff(c.col_to_row) > 0).all():
                raise ContractViolationError(
                    f"the kept rows of core {k}, {'left' if k < pivot else 'right'} "
                    f"of pivot {pivot}, do not strictly increase"
                )
        if num_fibers < 0 or any(b > num_fibers for b in r[1:-1]):
            raise ValueError(f"fiber count {num_fibers} is negative or below a bond of {r}")

    def __setattr__(self, name, value):
        raise AttributeError("IndexTrain is immutable")

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def ranks(self) -> tuple[int, ...]:
        maps = self.cores[: self.pivot] + self.cores[self.pivot + 1 :]
        return (1, *(q.n_cols for q in maps), 1)

    @property
    def num_params(self) -> int:
        """Parameters of the train written with dense cores."""
        r = self.ranks
        return sum(r[k] * n * r[k + 1] for k, n in enumerate(self.dims))


def _carry_into(core: QuasiPermMatrix, carry: np.ndarray, left: bool, n: int) -> np.ndarray:
    """Multiply ``carry`` into the bond of the index map ``core`` that
    faces the pivot.

    Left of the pivot that is the core's right bond, ``core @ carry``;
    right of it the left bond, ``carry.T @ core``.  The product places
    the carry's rows (left) or columns (right) at the kept rows and
    writes a dense core of mode extent ``n``.
    """
    # A product with the 0/1 core turns -0.0 into +0.0; so does this
    # sum.  LAPACK reads the sign of a zero, so without it the SVDs
    # downstream would differ from the dense route's in the last bits.
    carry = carry + 0.0
    rank = carry.shape[1]
    if left:
        out = np.zeros((core.n_rows, rank))
        out[core.col_to_row] = carry
        return out.reshape(-1, n, rank)
    out = np.zeros((rank, core.n_rows))
    out[:, core.col_to_row] = carry.T
    return out.reshape(rank, n, -1)


def round_from_pivot(t: IndexTrain, right_step, left_step) -> TTTensor:
    """Round the exact train ``t`` from its pivot outward.

    ``t`` is an :class:`IndexTrain`, whose constructor checked that it
    is orthogonalized around ``t.pivot``: the cores left of the pivot
    are left-orthonormal and those right of it right-orthonormal, so the
    pivot core carries the norm.  The rounding is a left-to-right sweep
    of truncated SVDs from the pivot to the last core, a right-to-left
    QR sweep back to the pivot, and a right-to-left sweep of truncated
    SVDs from the pivot to the first core.  At pivot 0 no left sweep
    follows, so the QR sweep is skipped and the last core carries the
    norm.  An index-map core becomes dense at the carry into it, before
    its own step.

    ``right_step(k, m)`` truncates the ``(r_k n_k) x r_{k+1}`` unfolding
    of core ``k`` in the first sweep, ``left_step(k, m)`` the transposed
    ``(n_k r_{k+1}) x r_k`` unfolding in the last; both return an
    :class:`SVDResult`.  A step that keeps rank 0 yields the zero train.
    """
    if not isinstance(t, IndexTrain):
        raise TypeError("round_from_pivot expects an IndexTrain")
    d, pivot, dims = t.ndim, t.pivot, t.dims
    cores = list(t.cores)
    for k in range(pivot, d - 1):
        r0, n, r1 = cores[k].shape
        res = right_step(k, cores[k].reshape(r0 * n, r1))
        if res.rank == 0:
            return tt_zero(dims)
        cores[k] = res.u.reshape(r0, n, res.rank)
        carry = res.vt.T * res.s  # (r1, rank)
        cores[k + 1] = _carry_into(cores[k + 1], carry, False, dims[k + 1])
    if pivot == 0:
        return TTTensor(cores)
    _qr_sweep(cores, pivot)
    for k in range(pivot, 0, -1):
        r0, n, r1 = cores[k].shape
        res = left_step(k, cores[k].reshape(r0, n * r1).T)
        if res.rank == 0:
            return tt_zero(dims)
        cores[k] = res.u.T.reshape(res.rank, n, r1)
        carry = res.vt.T * res.s  # (r0, rank)
        cores[k - 1] = _carry_into(cores[k - 1], carry, True, dims[k - 1])
    return TTTensor(cores)


def full_ranks(shape, ranks) -> tuple[int, ...]:
    """Normalize a rank vector to full length ``d+1`` with unit edges.

    Accepts one int for every interior bond, the interior ranks (length
    ``d-1``) or the full vector.
    """
    dims = check_shape(shape)
    d = len(dims)
    if isinstance(ranks, (int, np.integer)):
        ranks = (ranks,) * (d - 1)
    ranks = tuple(int(r) for r in ranks)
    if len(ranks) == d - 1:
        ranks = (1,) + ranks + (1,)
    if len(ranks) != d + 1:
        raise ValueError(
            f"rank vector must have length {d - 1} or {d + 1}, got {len(ranks)}"
        )
    if ranks[0] != 1 or ranks[-1] != 1:
        raise ValueError("edge ranks must be 1")
    if any(r < 0 for r in ranks):
        raise ValueError("ranks must be nonnegative")
    return ranks


def flops_ttsvd(shape, ranks) -> float:
    """Cost model for :func:`tt_svd`.

    One truncated SVD of an ``m x n`` matrix is charged
    ``m * n * min(m, n)``; step ``k`` factorizes the
    ``(r_{k-1} n_k) x (n_{k+1} ... n_d)`` unfolding.
    """
    dims = check_shape(shape)
    d = len(dims)
    r = full_ranks(dims, ranks)
    total = 0
    for k in range(1, d):  # unfolding after modes 1..d-1 (1-based)
        rows = r[k - 1] * dims[k - 1]
        cols = math.prod(dims[k:])
        total += rows * cols * min(rows, cols)
    return float(total)
