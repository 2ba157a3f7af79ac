"""Tensor-train values with dense cores, the classical dense
construction, and the matrix tensorization that turns a sparse matrix
into a tensor.

A train with cores ``G[0] .. G[d-1]`` (each ``(r_prev, n_k, r_next)``,
edge ranks 1) represents

    a[i_0, .., i_{d-1}] = G[0][:, i_0, :] @ ... @ G[d-1][:, i_{d-1}, :]

Mode extents and bond ranks follow the same 0-based, last-index-fastest
conventions as :mod:`sparsett.tensor`.

:func:`tt_svd` is the reference construction: sequential truncated SVDs
over the unfoldings, with a result within ``eps`` of the input in
relative Frobenius norm.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse

from .linalg import qr_economic, svd_truncate_delta
from .tensor import DENSE_CAP, SparseTensor, _frozen, _integral, check_shape

__all__ = [
    "TTTensor",
    "tt_zero",
    "tt_entries",
    "tt_add",
    "tt_to_full",
    "tt_norm",
    "tt_right_orthogonalize",
    "tt_svd",
    "flops_ttsvd",
    "full_ranks",
    "tensorize_matrix",
]


class TTTensor:
    """Tensor in train format: a list of 3-way cores with matching bonds.

    The train is immutable.  It holds read-only views of the cores it is
    given: C-contiguous float64 cores are not copied, and the caller's
    arrays keep their flags.
    """

    __slots__ = ("cores",)

    def __init__(self, cores):
        cores = [_frozen(c, np.float64) for c in cores]
        if not cores:
            raise ValueError("a train needs at least one core")
        for k, c in enumerate(cores):
            if c.ndim != 3:
                raise ValueError(f"core {k} must be 3-way, got shape {c.shape}")
        if cores[0].shape[0] != 1 or cores[-1].shape[2] != 1:
            raise ValueError("edge ranks must be 1")
        for k in range(len(cores) - 1):
            if cores[k].shape[2] != cores[k + 1].shape[0]:
                raise ValueError(
                    f"bond mismatch between cores {k} and {k + 1}: "
                    f"{cores[k].shape[2]} vs {cores[k + 1].shape[0]}"
                )
        object.__setattr__(self, "cores", tuple(cores))

    def __setattr__(self, name, value):
        raise AttributeError("TTTensor is immutable")

    @property
    def ndim(self) -> int:
        return len(self.cores)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(c.shape[1] for c in self.cores)

    @property
    def ranks(self) -> tuple[int, ...]:
        return (1,) + tuple(c.shape[2] for c in self.cores)

    @property
    def num_params(self) -> int:
        return sum(c.size for c in self.cores)

    def __repr__(self) -> str:
        return f"TTTensor(dims={self.dims}, ranks={self.ranks})"


def tt_zero(dims) -> TTTensor:
    """The zero tensor as a train of rank-1 zero cores."""
    dims = check_shape(dims)
    return TTTensor([np.zeros((1, n, 1)) for n in dims])


_ENTRIES_FLOATS = 1 << 22


def tt_entries(t: TTTensor, coords) -> np.ndarray:
    """Evaluate many entries; ``coords`` is ``(n, d)``, 0-based.

    Consecutive coordinates that agree on modes ``0..k`` share one
    partial product ``G[0][:, i_0, :] @ ... @ G[k][:, i_k, :]``.  Each
    distinct prefix's row is computed once, from its parent prefix's row
    times ``G[k][:, i_k, :]``; the new rows of a mode are grouped by
    ``i_k``, and each group is one GEMM.  Only neighbouring rows are
    compared, so the saving comes from sorted input: in lexicographic
    order (the order :class:`SparseTensor` stores) every distinct prefix
    is one run, and the rows at bond ``k`` are the distinct prefixes.
    Unsorted or repeated coordinates give the same values and cost no
    more than one product per coordinate and mode.

    The coordinates go in contiguous chunks of
    ``_ENTRIES_FLOATS // max(r_k)`` rows, so the working memory is a few
    ``(rows, max r_k)`` blocks of at most ``_ENTRIES_FLOATS`` floats
    each, and every flop is BLAS-3.  A coordinate outside ``[0, n_k)`` or
    not a whole number raises ``ValueError``.
    """
    coords = np.asarray(_integral(coords), dtype=np.int64)
    if coords.ndim != 2 or coords.shape[1] != t.ndim:
        raise ValueError(f"coords must be (n, {t.ndim})")
    if ((coords < 0) | (coords >= np.asarray(t.dims))).any():
        raise ValueError(f"coords out of range for mode extents {t.dims}")
    out = np.empty(coords.shape[0])
    chunk = max(1, _ENTRIES_FLOATS // max(t.ranks))
    for lo in range(0, coords.shape[0], chunk):
        c = coords[lo : lo + chunk]
        # ``new[j]``: row j's prefix differs from row j-1's.  Row p of
        # ``v`` is the partial product of the p-th distinct prefix.
        new = np.ones(c.shape[0], dtype=bool)
        new[1:] = c[1:, 0] != c[:-1, 0]
        v = t.cores[0][0, c[new, 0], :]
        for k in range(1, t.ndim):
            core = t.cores[k]
            pid = new.cumsum() - 1
            new[1:] |= c[1:, k] != c[:-1, k]
            idx = c[new, k]
            order = idx.argsort(kind="stable")
            idx = idx[order]
            parent = pid[new][order]
            cuts = ((idx[1:] != idx[:-1]).nonzero()[0] + 1).tolist()
            bounds = [0, *cuts, idx.size]
            prod = np.empty((idx.size, core.shape[2]))
            for s, e in zip(bounds[:-1], bounds[1:]):
                np.matmul(v.take(parent[s:e], axis=0), core[:, idx[s], :], out=prod[s:e])
            del v  # the parents' rows go before the next block is made
            v = np.empty_like(prod)
            v[order] = prod
        out[lo : lo + c.shape[0]] = v[new.cumsum() - 1, 0]
    return out


def tt_add(a: TTTensor, b: TTTensor) -> TTTensor:
    """Entrywise sum via block-diagonal cores.

    Interior bond ranks add; no compression is attempted, so adding the
    zero train still grows every interior rank by 1.
    """
    if a.dims != b.dims:
        raise ValueError(f"dims differ: {a.dims} vs {b.dims}")
    d = a.ndim
    if d == 1:
        return TTTensor([a.cores[0] + b.cores[0]])
    cores = []
    for k in range(d):
        ca, cb = a.cores[k], b.cores[k]
        ra0, n, ra1 = ca.shape
        rb0, _, rb1 = cb.shape
        if k == 0:
            cores.append(np.concatenate([ca, cb], axis=2))
        elif k == d - 1:
            cores.append(np.concatenate([ca, cb], axis=0))
        else:
            c = np.zeros((ra0 + rb0, n, ra1 + rb1))
            c[:ra0, :, :ra1] = ca
            c[ra0:, :, ra1:] = cb
            cores.append(c)
    return TTTensor(cores)


def tt_to_full(t: TTTensor, cap: int | None = DENSE_CAP) -> np.ndarray:
    """Contract the train into a dense tensor (size-guarded)."""
    size = math.prod(t.dims)
    if cap is not None and size > cap:
        raise ValueError(f"dense size {size} exceeds cap {cap}; raise cap explicitly")
    res = t.cores[0].reshape(t.dims[0], -1)
    for k in range(1, t.ndim):
        r, n, r1 = t.cores[k].shape
        res = res @ t.cores[k].reshape(r, n * r1)
        res = res.reshape(-1, r1)
    return res.reshape(t.dims)


def tt_norm(t: TTTensor) -> float:
    """Frobenius norm by contracting the train with itself."""
    w = np.ones((1, 1))
    for c in t.cores:
        r0, n, r1 = c.shape
        part = (w.T @ c.reshape(r0, n * r1)).reshape(r0 * n, r1)
        w = part.T @ c.reshape(r0 * n, r1)
    return float(np.sqrt(max(w[0, 0], 0.0)))


def _qr_sweep(cores: list[np.ndarray], stop: int) -> None:
    """Make cores ``stop+1..d-1`` right-orthonormal in place by QR factors
    swept right to left; core ``stop`` absorbs the R factors."""
    for k in range(len(cores) - 1, stop, -1):
        r0, n, r1 = cores[k].shape
        q, r = qr_economic(cores[k].reshape(r0, n * r1).T)
        cores[k] = np.ascontiguousarray(q.T).reshape(q.shape[1], n, r1)
        a, b, _ = cores[k - 1].shape
        cores[k - 1] = (cores[k - 1].reshape(a * b, r0) @ r.T).reshape(a, b, -1)


def tt_right_orthogonalize(t: TTTensor) -> TTTensor:
    """Sweep QR factors right-to-left so cores ``1..d-1`` become
    right-orthonormal; the first core then carries the whole norm."""
    cores = list(t.cores)
    _qr_sweep(cores, 0)
    return TTTensor(cores)


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


def _check_factors(dims, total: int, what: str) -> tuple[int, ...]:
    dims = check_shape(dims)
    if math.prod(dims) != total:
        raise ValueError(
            f"{what} {dims} do not factor the matrix extent {total}"
        )
    return dims


def tensorize_matrix(m, row_dims, col_dims) -> SparseTensor:
    """Fuse a sparse matrix into a ``d``-way tensor, pairing the ``i``-th
    row factor with the ``i``-th column factor.

    Fused coordinates are row-major within each pair:
    ``f_i = x_i * col_dims[i] + y_i``, matching the vectorization
    convention, so the inverse mapping is exact.  Zero entries are
    dropped and a repeated nonzero (row, col) raises :class:`FormatError`;
    sum assembled duplicates first with ``m.sum_duplicates()``.
    """
    m = scipy.sparse.coo_matrix(m)
    row_dims = _check_factors(row_dims, m.shape[0], "row factors")
    col_dims = _check_factors(col_dims, m.shape[1], "column factors")
    if len(row_dims) != len(col_dims):
        raise ValueError("row and column factorizations need equal length")
    dims = tuple(a * b for a, b in zip(row_dims, col_dims))
    return SparseTensor(dims, _fused_digits(m, row_dims, col_dims), m.data)


def _fused_digits(m, row_dims, col_dims) -> np.ndarray:
    """The fused coordinates of ``m``'s entries, one column per pair.

    Row and column digits by div/mod from the last pair, fused straight
    into the columns of one array.  Fortran order keeps each column
    write contiguous; the constructor reads any layout in place and its
    sorting gather writes C order.  The digit scratch is freed on return,
    before that sort runs.
    """
    rows = m.row.astype(np.int64)
    cols = m.col.astype(np.int64)
    x, y = np.empty_like(rows), np.empty_like(cols)
    fused = np.empty((m.nnz, len(row_dims)), dtype=np.int64, order="F")
    for k in range(len(row_dims) - 1, -1, -1):
        np.divmod(rows, row_dims[k], out=(rows, x))
        np.divmod(cols, col_dims[k], out=(cols, y))
        x *= col_dims[k]
        np.add(x, y, out=fused[:, k])
    return fused
