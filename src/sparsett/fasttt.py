"""Sparse-to-train conversion pipeline.

The pipeline converts a sparse tensor exactly into train format without
touching a dense unfolding, then compresses:

1.  Build the exact train by index arithmetic alone
    (:func:`build_structured_tt`).  Grouped into ``R`` fibers along a
    pivot mode, the nonzeros form a train whose interior bonds are all
    ``R`` and whose non-pivot cores are quasi-permutations
    (:class:`QuasiPermMatrix`), so integer index maps describe them
    completely.  Two inward sweeps deparallelise those cores
    (:func:`depar_quasi_perm`), still exact, shrinking every interior
    bond to at most ``min(R, prod of extents on the side away from the
    pivot)``.  The result is the exact train's one form, an
    :class:`IndexTrain`: only the pivot core is written, every other
    core is the index map the sweep kept.  Its constructor checks that
    every map's kept rows strictly increase, so the train is
    orthogonalized around its pivot.  :func:`parallel_vector_round`
    writes it out with dense 0/1 cores, which only the difference
    measure needs, and the measure makes that call itself.
2.  Round with truncated SVD sweeps that start at the train's pivot and
    move outward.  :func:`round_from_pivot` takes only an
    ``IndexTrain``, reads its pivot and runs the sweeps; an index-map
    core becomes dense at the carry into it.
    :func:`efficient_tt_rounding` (static per-step tolerance),
    :func:`dynamic_tt_rounding` (tolerance re-absorbs unspent budget) and
    :func:`fixed_rank_rounding` (prescribed bond ranks) only supply the
    truncation rule of each step.

:func:`fasttt` drives both stages and reports what happened;
:func:`select_p` picks the pivot by the SVD cost model.  The error is
measured by :func:`tt_relative_error`, which, like the rounding, takes
the exact ``IndexTrain`` and reads its pivot.  Past the size cap that
:func:`fasttt` checks before it calls that measure, the error is
measured by :func:`sparse_inner_error`; ``_RESOLUTION`` states each
one's resolution.
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError
from .linalg import SVDResult, one_blas_thread, qr_economic, svd_truncate_delta, svd_truncate_rank
from .tensor import SparseTensor, _frozen, _integral, check_shape, linearize
from .ttformat import (
    TTTensor,
    _check_eps,
    _input_norm,
    _qr_sweep,
    flops_ttsvd,
    full_ranks,
    tt_add,
    tt_entries,
    tt_norm,
    tt_right_orthogonalize,
    tt_zero,
)

__all__ = [
    "QuasiPermMatrix",
    "IndexTrain",
    "round_from_pivot",
    "float_ops",
    "DecompositionReport",
    "depar_general",
    "depar_quasi_perm",
    "build_structured_tt",
    "parallel_vector_round",
    "efficient_tt_rounding",
    "dynamic_tt_rounding",
    "fixed_rank_rounding",
    "fasttt",
    "flops_fasttt",
    "select_p",
    "sparse_inner_error",
]

_MODES = ("static", "dynamic", "fixed_rank")

# Largest total core count of the difference train for which the exact
# difference measure runs; past it the inner identity is used, and the
# exact train is never written with dense cores.  The measure forms the
# difference of the cores up to the pivot only, but the cap keeps it off
# inputs where that dwarfs the job.  Lifted, on a 2-vCPU VM (three fresh
# processes each, timing the second of two decompositions), it took
# 0.54-0.55 s and 530 MB more peak RSS on the benchmark's ``fdm30`` input
# (seed 1), whose decomposition takes 0.18-0.23 s and 368 MB, and
# 1.09-1.20 s and 680 MB more on ``pixels`` (0.25-0.30 s and 160 MB),
# whose pivot is the last mode, so the whole difference is orthogonalized.
_ERROR_MEASURE_CAP = 20_000_000

# Each error measure's resolution: how far its reading may stray from the
# true error.  The train and dense differences err by roundoff; the
# inner-product identity's cancellation leaves readings up to 8.5e-8 on
# exact trains (the QTT Laplacian), so within 1e-6 of eps a reading tells
# a met contract from a broken one no better than noise.
_RESOLUTION = {"tt_difference": 1e-12, "inner_identity": 1e-6, "dense": 1e-12}

# Exact trains up to this many parameters are rounded and measured on one
# BLAS thread.  perfbench on a 2-vCPU VM (15 s runs, seeds 1-3): without
# the scope `small` read cpu_s p50 4.3-5.5 ms against 1.7-2.0 ms; one
# thread for every train raised decompose_s p50 on fdm30 from 0.78-0.84 s
# to 0.96-1.06 s and on pixels from 0.79-0.85 s to 0.96-1.03 s.
_ONE_THREAD_PARAMS = 1 << 20


class _FlopCounter:
    """Tally of floating-point operations issued by the deparallelisation
    routines.  Integer index arithmetic is never counted."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0.0

    def add(self, n: float) -> None:
        self.count += float(n)

    def reset(self) -> None:
        self.count = 0.0


float_ops = _FlopCounter()


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
    :func:`build_structured_tt` builds it.

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


def depar_general(m):
    """Split the dense matrix ``m`` into ``n @ t`` where ``n`` keeps one
    representative per parallel class of columns, in first-occurrence
    order.

    Column ``u`` counts as parallel to a kept column ``v`` when
    ``norm(u - (u . v_hat) v_hat) <= 1e-12 * norm(u)``.  Zero columns
    are parallel to everything and are dropped (their ``t`` column is
    zero).  Returns dense ``(n, t)``.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("deparallelisation expects a matrix")
    rows, cols = m.shape
    basis = np.empty((rows, cols))
    bnorm2 = np.empty(cols)
    width = 0
    t_row = np.full(cols, -1, dtype=np.int64)
    t_coeff = np.zeros(cols)
    for j in range(cols):
        u = m[:, j]
        unorm2 = float(u @ u)
        float_ops.add(2 * rows)
        if unorm2 == 0.0:
            continue
        if width:
            b = basis[:, :width]
            coeff = (b.T @ u) / bnorm2[:width]
            resid = u[:, None] - b * coeff
            rnorm2 = np.einsum("ij,ij->j", resid, resid)
            float_ops.add(6 * rows * width)
            hit = rnorm2 <= 1e-24 * unorm2  # the 1e-12 relative bound, squared
            if hit.any():
                i = int(np.argmax(hit))
                t_row[j] = i
                t_coeff[j] = coeff[i]
                continue
        basis[:, width] = u
        bnorm2[width] = unorm2
        t_row[j] = width
        t_coeff[j] = 1.0
        width += 1
    n = basis[:, :width].copy()
    t = np.zeros((width, cols))
    keep = t_row >= 0
    t[t_row[keep], np.flatnonzero(keep)] = t_coeff[keep]
    return n, t


def depar_quasi_perm(q: QuasiPermMatrix):
    """Deparallelise a quasi-permutation matrix by index arithmetic alone.

    The kept columns are the standard basis vectors of the rows that
    occur, scanned in ascending row order, so the result is again a pair
    of quasi-permutations with ``n @ t == q`` exactly.  Runs in
    ``O(n_rows + n_cols)`` integer operations and performs no
    floating-point work.
    """
    if not isinstance(q, QuasiPermMatrix):
        raise TypeError("depar_quasi_perm expects a QuasiPermMatrix")
    present = np.zeros(q.n_rows, dtype=bool)
    present[q.col_to_row] = True
    kept = np.flatnonzero(present).astype(np.int64)
    inv = np.zeros(q.n_rows, dtype=np.int64)
    inv[kept] = np.arange(kept.size, dtype=np.int64)
    t_map = inv[q.col_to_row]
    n = QuasiPermMatrix(q.n_rows, kept.size, kept)
    t = QuasiPermMatrix(kept.size, q.n_cols, t_map)
    return n, t


def _fiber_keys(shape, lin: np.ndarray, pivot: int) -> np.ndarray:
    """Each nonzero's mode-``pivot`` fiber key: the C-order linear index
    of its fixed (non-pivot) coordinates, from its linear index ``lin``.

    Sorting by this key orders fibers by their fixed tuples
    lexicographically.
    """
    inner = math.prod(shape[pivot + 1 :])
    return lin // (shape[pivot] * inner) * inner + lin % inner


def build_structured_tt(a: SparseTensor, pivot: int) -> IndexTrain:
    """The exact train of ``a`` around mode ``pivot``, in index form.

    One stable sort by fiber key groups the nonzeros into their ``R``
    mode-``pivot`` fibers.  The tensor is stored in linear order, so the
    fixed tuples come out in lexicographic order and the pivot
    coordinates ascend within each fiber.  Read as a train, every
    interior bond is then ``R``, and core ``k`` off the pivot is the
    quasi-permutation that sends fiber ``i`` to its fixed coordinate in
    mode ``k``.  Sweeps inward from both edges toward the pivot replace
    each such core by its deparallelised factor and push the index map
    into the neighbor.  Only the pivot core is written: the fiber values
    are placed, no floating-point arithmetic happens.  Every kept map
    strictly increases, so the train is orthogonalized around the pivot.
    An empty tensor yields ``R = 0`` and zero bonds, which round to the
    zero train downstream rather than raising.
    """
    if not isinstance(a, SparseTensor):
        raise TypeError("build_structured_tt expects a SparseTensor")
    dims, d = a.shape, a.ndim
    _check_pivot(pivot, d)
    keys = _fiber_keys(dims, linearize(dims, a.coords), pivot)
    order = np.argsort(keys, kind="stable")
    starts = np.flatnonzero(np.diff(keys[order], prepend=-1))
    del keys
    # Each fiber's first nonzero, whose coordinates off the pivot are the
    # fiber's; each nonzero's pivot coordinate and value in fiber order.
    first = order[starts]
    pivot_index, values = a.coords[order, pivot], a.values[order]
    del order  # the sort's arrays go before the sweeps
    r_total = starts.size
    cores: list = [None] * d
    # t_map / s_map send each fiber to its row of the bond left / right
    # of the pivot core after the modes swept so far.
    t_map = np.zeros(r_total, dtype=np.int64)
    r_prev = 1
    for k in range(pivot):
        n = dims[k]
        cores[k], t_fac = depar_quasi_perm(
            QuasiPermMatrix(r_prev * n, r_total, t_map * n + a.coords[first, k])
        )
        t_map, r_prev = t_fac.col_to_row, t_fac.n_rows
    s_map = np.zeros(r_total, dtype=np.int64)
    r_next = 1
    for k in range(d - 1, pivot, -1):
        n = dims[k]
        cores[k], t_fac = depar_quasi_perm(
            QuasiPermMatrix(n * r_next, r_total, a.coords[first, k] * r_next + s_map)
        )
        s_map, r_next = t_fac.col_to_row, t_fac.n_rows
    pivot_core = np.zeros((r_prev, dims[pivot], r_next))
    per_entry = np.repeat(np.arange(r_total), np.diff(starts, append=a.nnz))
    pivot_core[t_map[per_entry], pivot_index, s_map[per_entry]] = values
    cores[pivot] = pivot_core
    return IndexTrain(dims, pivot, cores, r_total)


def parallel_vector_round(s: IndexTrain) -> TTTensor:
    """The exact train ``s``, written out with dense cores.

    The result is an ordinary train with the same entries, whose cores
    left of the pivot are left-orthonormal and right of it
    right-orthonormal: each index map becomes its 0/1 core.  A train of
    zero fibers is written as the zero train.
    """
    if not isinstance(s, IndexTrain):
        raise TypeError("parallel_vector_round expects an IndexTrain")
    if s.num_fibers == 0:
        return tt_zero(s.dims)
    cores = list(s.cores)
    for k, q in enumerate(cores):
        if k < s.pivot:
            cores[k] = q.to_dense().reshape(-1, s.dims[k], q.n_cols)
        elif k > s.pivot:
            core = np.zeros((q.n_cols, q.n_rows))  # to_dense() transposed, written in place
            core[np.arange(q.n_cols), q.col_to_row] = 1.0
            cores[k] = core.reshape(q.n_cols, s.dims[k], -1)
    return TTTensor(cores)


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


def _unit_allowance(t: IndexTrain, eps: float) -> float:
    """``eps * norm / (sqrt(p) + sqrt(d - 1 - p))`` for the 0-based pivot
    ``p`` of ``t``.

    With orthonormal cores on both sides the pivot core carries the
    norm.  Spending this much on each of the ``d - 1`` steps keeps the
    accumulated error within ``eps * norm``.
    """
    if not isinstance(t, IndexTrain):
        raise TypeError("the rounding expects an IndexTrain")
    _check_eps(eps)
    d, pivot = t.ndim, t.pivot
    if d == 1:
        return 0.0
    norm = float(np.linalg.norm(t.cores[pivot].ravel()))
    return eps * norm / (math.sqrt(pivot) + math.sqrt(d - 1 - pivot))


def efficient_tt_rounding(t: IndexTrain, eps: float) -> TTTensor:
    """Round an exact train with a static per-step tolerance.

    Every SVD step uses ``eps * norm / (sqrt(p - 1) + sqrt(d - p))``
    (1-based pivot ``p`` of ``t``), which keeps the accumulated error
    within ``eps * norm``.
    """
    delta = _unit_allowance(t, eps)
    step = lambda k, m: svd_truncate_delta(m, delta)
    return round_from_pivot(t, step, step)


def dynamic_tt_rounding(t: IndexTrain, eps: float) -> TTTensor:
    """Round with per-step tolerances that re-absorb unspent budget.

    The total allowance ``eps * norm`` is split between the two sweeps
    in proportion to ``sqrt`` of their step counts; inside a sweep each
    step takes ``remaining / sqrt(steps left)`` and the remainder is
    recomputed from what the truncation actually discarded.
    """
    unit = _unit_allowance(t, eps)
    d, pivot = t.ndim, t.pivot
    left = [math.sqrt(pivot) * unit]
    right = [math.sqrt(d - 1 - pivot) * unit]

    def spend(remaining: list[float], steps_left: int, m: np.ndarray) -> SVDResult:
        res = svd_truncate_delta(m, remaining[0] / math.sqrt(steps_left))
        remaining[0] = math.sqrt(max(remaining[0] ** 2 - res.trunc_error**2, 0.0))
        return res

    return round_from_pivot(
        t, lambda k, m: spend(right, d - 1 - k, m), lambda k, m: spend(left, k, m)
    )


def _rank_targets(shape, ranks) -> tuple[int, ...]:
    # Full-length bond targets; every interior one must be positive.
    targets = full_ranks(shape, ranks)
    if any(r < 1 for r in targets[1:-1]):
        raise ValueError("interior rank targets must be positive")
    return targets


def fixed_rank_rounding(t: IndexTrain, ranks) -> TTTensor:
    """Round to prescribed interior bond ranks.

    ``ranks`` is one target for every bond, the interior targets or the
    full vector with unit edges; each bond is truncated to
    ``min(target, achievable)`` and no error budget is involved.
    """
    targets = _rank_targets(t.dims, ranks)
    return round_from_pivot(
        t,
        lambda k, m: svd_truncate_rank(m, targets[k + 1]),
        lambda k, m: svd_truncate_rank(m, targets[k]),
    )


def flops_fasttt(shape, pivot: int, ranks_lossless, ranks_final) -> float:
    """Cost model for the pipeline's SVD work at a given pivot.

    ``ranks_lossless`` are the bond ranks after lossless
    deparallelisation, ``ranks_final`` the bond ranks after rounding
    (both interior or full vectors).  An ``m x n`` SVD is charged
    ``m * n * min(m, n)``.
    """
    dims = check_shape(shape)
    d = len(dims)
    _check_pivot(pivot, d)
    if d == 1:
        return 0.0
    rt = full_ranks(dims, ranks_lossless)
    r = full_ranks(dims, ranks_final)
    p = pivot + 1  # 1-based in the sums below

    def f(m: int, n: int) -> int:
        return m * n * min(m, n)

    total = f(rt[p - 1] * dims[p - 1], rt[p])
    for i in range(p + 1, d):
        total += f(r[i - 1] * dims[i - 1], rt[i])
    for i in range(2, p + 1):
        total += f(rt[i - 1], dims[i - 1] * r[i])
    return float(total)


def select_p(a: SparseTensor, target_ranks=None) -> int:
    """Pick the pivot mode that minimizes the modeled SVD cost.

    For every candidate pivot the fiber count is computed from the data
    and the lossless bond ranks are estimated by their upper bound: the
    fiber count capped by the dense extent of the side of the bond that
    faces the pivot.  Final ranks are estimated as ``min(target,
    lossless, feasible)``; ``target_ranks`` takes whatever
    :func:`~sparsett.ttformat.full_ranks` does.  Ties go to the smaller
    mode index.
    """
    if not isinstance(a, SparseTensor):
        raise TypeError("select_p expects a SparseTensor")
    dims = a.shape
    d = len(dims)
    targets = None if target_ranks is None else full_ranks(dims, target_ranks)
    left = [math.prod(dims[:k]) for k in range(d + 1)]  # extent of the first k modes
    size = left[d]
    lin = linearize(dims, a.coords)
    best_pivot, best_cost = 0, math.inf
    for pivot in range(d):
        keys = np.sort(_fiber_keys(dims, lin, pivot))
        num_fibers = int(np.count_nonzero(np.diff(keys, prepend=-1)))
        rt, r_est = [], []
        for k in range(1, d):  # bond k sits after the first k modes
            bound = min(num_fibers, left[k] if k <= pivot else size // left[k])
            rt.append(bound)
            feas = min(bound, left[k], size // left[k])
            r_est.append(feas if targets is None else min(feas, targets[k]))
        cost = flops_fasttt(dims, pivot, rt, r_est)
        if cost < best_cost:
            best_pivot, best_cost = pivot, cost
    return best_pivot


def _difference_size(dims, ranks_a, ranks_b) -> int:
    """Total core entries of the difference of two trains with these
    mode extents and bond ranks."""
    return sum(
        (ranks_a[k] + ranks_b[k]) * n * (ranks_a[k + 1] + ranks_b[k + 1])
        for k, n in enumerate(dims)
    )


def tt_relative_error(exact: IndexTrain, approx: TTTensor) -> float:
    """``norm(exact - approx) / norm(exact)``, evaluated stably:
    :func:`fasttt`'s own measure.

    ``exact`` is the exact train in index form.  A sweep from the last
    core to the pivot writes the right interface of ``approx`` in the
    basis of the exact train's interface plus an orthonormal residual,
    and reads only the exact train's index maps: the projection gathers
    the entries at each map's kept rows, and the residual is what is
    left once those entries are zeroed, both exact because the kept rows
    are distinct unit vectors.  One QR of the residual, whose width is
    at most the bond rank of ``approx``, ends the step; no product with
    a 0/1 core is formed.  Folded into both pivot cores (the
    approximant's negated), the coefficients leave a difference train of
    the cores up to the pivot, the exact train's written dense by
    :func:`parallel_vector_round`; its norm is that of the end core a QR
    sweep orthogonalizes it toward.  When the pivot core's transposed
    unfolding is tall its QR could not shrink the bond, so the train is
    swept reversed: the cores left of the pivot are factored and the
    pivot core only absorbs one ``R``.  Otherwise, as at the last pivot,
    that QR shrinks the bond and the sweep factors every core but the
    first.  Either way the reading resolves errors down to machine
    precision instead of the ``~1e-8`` floor of the expanded
    inner-product form.  The measure has no size cap of its own:
    :func:`fasttt` decides from the ranks whether to call it.

    The denominator is the norm of ``exact``'s pivot core, which holds
    the input's values: the train is orthogonalized around its pivot, so
    that core carries its whole norm.
    """
    if not isinstance(exact, IndexTrain):
        raise TypeError("tt_relative_error expects an IndexTrain")
    if exact.dims != approx.dims:
        raise ValueError("trains must share mode extents")
    d, pivot, dims = exact.ndim, exact.pivot, exact.dims
    reference = parallel_vector_round(exact)
    # y = [x, s]: approx's right interface is x times the exact train's
    # plus s times rows orthonormal to it; at the last pivot both
    # interfaces are the scalar 1.
    y = np.ones((1, 1))
    for k in range(d - 1, pivot, -1):
        q, n, rb0 = exact.cores[k], dims[k], approx.cores[k].shape[0]
        c = (approx.cores[k].reshape(rb0 * n, -1) @ y).reshape(rb0, n, -1)
        i, j = np.divmod(q.col_to_row, q.n_rows // n)
        x = c[:, i, j]
        c[:, i, j] = 0.0
        _, r = qr_economic(c.reshape(rb0, -1).T)
        y = np.concatenate([x, r.T], axis=1)
    r0, n, ra1 = reference.cores[pivot].shape
    ref_core = np.zeros((r0, n, y.shape[1]))
    ref_core[:, :, :ra1] = reference.cores[pivot]
    rb0, _, rb1 = approx.cores[pivot].shape
    approx_core = approx.cores[pivot].reshape(-1, rb1) @ -y
    diff = tt_add(
        TTTensor([*reference.cores[:pivot], ref_core.reshape(r0, -1, 1)]),
        TTTensor([*approx.cores[:pivot], approx_core.reshape(rb0, -1, 1)]),
    )
    w, h, _ = diff.cores[-1].shape
    if h > w:  # a QR of the tall pivot unfolding cannot shrink its bond
        diff = TTTensor([c.transpose(2, 1, 0) for c in reversed(diff.cores)])
    num = float(np.linalg.norm(tt_right_orthogonalize(diff).cores[0].ravel()))
    norm = float(np.linalg.norm(exact.cores[pivot]))
    return num / norm if norm > 0 else (0.0 if num == 0.0 else math.inf)


def sparse_inner_error(a: SparseTensor, approx: TTTensor) -> float:
    """Relative error via ``norm(a)^2 - 2 <a, b> + norm(b)^2``.

    Cheap at any scale because ``<a, b>`` only touches the nonzeros of
    ``a``, but the cancellation limits the resolution; :func:`fasttt`
    states it as ``_RESOLUTION["inner_identity"]`` when this reading is
    the one it reports.
    """
    if a.shape != approx.dims:
        raise ValueError("tensor and train must share mode extents")
    na2 = float(a.values @ a.values)
    if na2 == 0.0:
        return 0.0 if tt_norm(approx) == 0.0 else math.inf
    dot = float(a.values @ tt_entries(approx, a.coords))
    nb = tt_norm(approx)
    err2 = max(na2 - 2.0 * dot + nb * nb, 0.0)
    return math.sqrt(err2 / na2)


@dataclass(frozen=True, kw_only=True)
class DecompositionReport:
    """What a decomposition run did and how well it went.

    ``ranks`` are the final interior bond ranks.  ``eps_actual`` is the
    measured relative error, always a number; ``eps_actual_method`` names
    the measure, and the property ``eps_actual_resolution`` reads that
    measure's resolution from ``_RESOLUTION``.
    Flop numbers are model estimates, not hardware counts.  The fields
    that default to ``None`` are known only to the sparse pipeline:
    ``ranks_lossless`` are the interior bond ranks after its exact
    stage, and ``eps_actual_inner`` is the inner-product-identity value
    kept for reference.
    """

    shape: tuple[int, ...]
    nnz: int
    pivot: int | None = None
    mode: str
    eps: float
    num_fibers: int | None = None
    ranks_lossless: tuple[int, ...] | None = None
    ranks: tuple[int, ...]
    eps_actual: float
    eps_actual_method: str
    eps_actual_inner: float | None = None
    flops_fasttt_model: float | None = None
    flops_ttsvd_model: float
    wall_time_s: float
    cpu_time_s: float
    warnings: tuple[str, ...] = ()

    @property
    def eps_actual_resolution(self) -> float:
        return _RESOLUTION[self.eps_actual_method]


def fasttt(
    a: SparseTensor,
    eps: float | None = 1e-14,
    pivot: int | None = None,
    mode: str = "static",
    fixed_ranks=None,
):
    """Convert a sparse tensor to train format and round it.

    Parameters
    ----------
    a:
        Input tensor.
    eps:
        Relative error budget.  ``None`` or ``0`` mean "lossless
        intent" and are mapped to ``1e-14``.
    pivot:
        Pivot mode; ``None`` lets :func:`select_p` choose.
    mode:
        ``"static"``, ``"dynamic"`` or ``"fixed_rank"``.
    fixed_ranks:
        Bond targets, for fixed-rank mode only: one int for every bond,
        the interior targets or the full vector with unit edges.

    Returns ``(train, report)``; the exact train's constructor checks
    its orthonormality on its index maps, and the rounding starts at its
    pivot.  Raises ``ValueError`` when the norm of ``a`` overflows
    float64.
    """
    if not isinstance(a, SparseTensor):
        raise TypeError("fasttt expects a SparseTensor")
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    if eps is None or eps == 0.0:
        eps = 1e-14
    _check_eps(eps)
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    if mode == "fixed_rank":
        if fixed_ranks is None:
            raise ValueError("fixed_rank mode needs fixed_ranks")
        fixed_ranks = _rank_targets(a.shape, fixed_ranks)
    elif fixed_ranks is not None:
        raise ValueError(f"fixed_ranks apply only in fixed_rank mode, not {mode!r}")
    _input_norm(a.values)  # refuses a norm that overflows float64
    notes: list[str] = []
    if pivot is None:
        pivot = select_p(a, target_ranks=fixed_ranks)

    if a.nnz == 0:
        notes.append("input has no nonzeros; returning the zero train")
    exact = build_structured_tt(a, pivot)
    num_fibers = exact.num_fibers
    ranks_lossless = exact.ranks[1:-1]
    small = exact.num_params <= _ONE_THREAD_PARAMS
    with one_blas_thread() if small else nullcontext():
        if mode == "static":
            tt = efficient_tt_rounding(exact, eps)
        elif mode == "dynamic":
            tt = dynamic_tt_rounding(exact, eps)
        else:
            tt = fixed_rank_rounding(exact, fixed_ranks)

        inner = sparse_inner_error(a, tt)
        if _difference_size(a.shape, exact.ranks, tt.ranks) <= _ERROR_MEASURE_CAP:
            eps_actual, method = tt_relative_error(exact, tt), "tt_difference"
        else:
            eps_actual, method = inner, "inner_identity"
            notes.append(
                f"difference train over the {_ERROR_MEASURE_CAP:,}-entry measure cap; "
                f"eps_actual is the inner-product identity, resolution {_RESOLUTION[method]:.0e}"
            )
    flops_model = flops_fasttt(a.shape, pivot, ranks_lossless, tt.ranks)
    flops_ttsvd_model = flops_ttsvd(a.shape, tt.ranks)
    report = DecompositionReport(
        shape=a.shape,
        nnz=a.nnz,
        pivot=pivot,
        mode=mode,
        eps=eps,
        num_fibers=num_fibers,
        ranks_lossless=ranks_lossless,
        ranks=tt.ranks[1:-1],
        eps_actual=eps_actual,
        eps_actual_method=method,
        eps_actual_inner=inner,
        flops_fasttt_model=flops_model,
        flops_ttsvd_model=flops_ttsvd_model,
        wall_time_s=time.perf_counter() - wall0,
        cpu_time_s=time.process_time() - cpu0,
        warnings=tuple(notes),
    )
    return tt, report
