"""Sparse-to-train conversion pipeline.

The pipeline converts a sparse tensor exactly into train format without
touching a dense unfolding, then compresses:

1.  Group the nonzeros into fibers along a pivot mode
    (:func:`build_structured_tt`).  The result is an exact train whose
    non-pivot cores are quasi-permutations.
2.  Deparallelise those cores by pure index arithmetic
    (:func:`parallel_vector_round` via :func:`depar_quasi_perm`), still
    exact, shrinking every interior bond from the fiber count to at
    most ``min(R, prod of extents on the short side)``.
3.  Round with truncated SVD sweeps that start at the pivot and move
    outward.  :func:`~sparsett.ttsvd.round_from_pivot` runs the sweeps;
    :func:`efficient_tt_rounding` (static per-step tolerance),
    :func:`dynamic_tt_rounding` (tolerance re-absorbs unspent budget) and
    :func:`fixed_rank_rounding` (prescribed bond ranks) only supply the
    truncation rule of each step.

:func:`fasttt` drives all three stages and reports what happened;
:func:`select_p` picks the pivot by the SVD cost model.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .linalg import SVDResult, svd_truncate_delta, svd_truncate_rank
from .tensor import (
    SparseTensor,
    check_shape,
    extract_nonzero_fibers,
    frobenius_norm,
    linearize,
)
from .ttformat import (
    QuasiPermMatrix,
    StructuredTT,
    TTTensor,
    tt_add,
    tt_entries,
    tt_norm,
    tt_right_orthogonalize,
    tt_scale,
    tt_zero,
)
from .ttsvd import _check_pivot, flops_ttsvd, full_ranks, round_from_pivot

__all__ = [
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
    "tt_relative_error",
    "sparse_inner_error",
]

_MODES = ("static", "dynamic", "fixed_rank")

# Largest total core count for which the exact-difference error measure
# is materialized; beyond it the inner-product identity is used instead.
_ERROR_MEASURE_CAP = 20_000_000


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


def depar_general(m, tol: float = 1e-12):
    """Split ``m`` into ``n @ t`` where ``n`` keeps one representative per
    parallel class of columns, in first-occurrence order.

    Column ``u`` counts as parallel to a kept column ``v`` when
    ``norm(u - (u . v_hat) v_hat) <= tol * norm(u)``.  Zero columns are
    parallel to everything and are dropped (their ``t`` column is zero).
    Returns dense ``(n, t)``.
    """
    if isinstance(m, QuasiPermMatrix):
        m = m.to_dense()
    elif scipy.sparse.issparse(m):
        m = m.toarray()
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
            hit = rnorm2 <= (tol * tol) * unorm2
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


def build_structured_tt(a: SparseTensor, pivot: int) -> StructuredTT:
    """Exact structured train of ``a`` along the given pivot mode.

    An empty tensor yields a structure with zero fibers, which rounds to
    the zero train downstream rather than raising.
    """
    if not isinstance(a, SparseTensor):
        raise TypeError("build_structured_tt expects a SparseTensor")
    return StructuredTT(extract_nonzero_fibers(a, pivot))


def _index_sweeps(s: StructuredTT):
    """Run the deparallelisation recursions on both sides of the pivot.

    Returns the kept-row arrays per mode and the final fiber-to-rank
    maps; everything is integer index data.
    """
    d = s.ndim
    r_total = s.num_fibers
    t_map = np.zeros(r_total, dtype=np.int64)
    r_prev = 1
    left: list[tuple[np.ndarray, int]] = []
    for k in range(s.pivot):
        key = t_map * s.shape[k] + s.mode_index(k)
        n_fac, t_fac = depar_quasi_perm(
            QuasiPermMatrix(r_prev * s.shape[k], r_total, key)
        )
        left.append((n_fac.col_to_row, r_prev))
        t_map = t_fac.col_to_row
        r_prev = n_fac.n_cols
    s_map = np.zeros(r_total, dtype=np.int64)
    r_next = 1
    right: list[tuple[np.ndarray, int]] = []  # modes d-1 .. pivot+1
    for k in range(d - 1, s.pivot, -1):
        key = s.mode_index(k) * r_next + s_map
        n_fac, t_fac = depar_quasi_perm(
            QuasiPermMatrix(s.shape[k] * r_next, r_total, key)
        )
        right.append((n_fac.col_to_row, r_next))
        s_map = t_fac.col_to_row
        r_next = n_fac.n_cols
    return left, t_map, r_prev, right, s_map, r_next


def parallel_vector_round(s: StructuredTT) -> TTTensor:
    """Losslessly compress the structured train by deparallelisation.

    Sweeps inward from both edges toward the pivot, replacing each
    quasi-permutation core by its deparallelised factor and pushing the
    index map into the neighbor.  The result is an ordinary train with
    the same entries (no floating-point arithmetic happens, values are
    only placed), whose cores left of the pivot are left-orthonormal and
    right of it right-orthonormal.
    """
    if not isinstance(s, StructuredTT):
        raise TypeError("parallel_vector_round expects a StructuredTT")
    dims = s.shape
    d = s.ndim
    if s.num_fibers == 0:
        return tt_zero(dims)
    left, t_map, r_prev, right, s_map, r_next = _index_sweeps(s)
    cores: list[np.ndarray | None] = [None] * d
    for k, (kept, rp) in enumerate(left):
        n = dims[k]
        core = np.zeros((rp, n, kept.size))
        core[kept // n, kept % n, np.arange(kept.size)] = 1.0
        cores[k] = core
    for step, (kept, rn) in enumerate(right):
        k = d - 1 - step
        core = np.zeros((kept.size, dims[k], rn))
        core[np.arange(kept.size), kept // rn, kept % rn] = 1.0
        cores[k] = core
    f = s.fibers
    pivot_core = np.zeros((r_prev, dims[s.pivot], r_next))
    per_entry = np.repeat(np.arange(s.num_fibers), np.diff(f.indptr))
    pivot_core[t_map[per_entry], f.pivot_index, s_map[per_entry]] = f.values
    cores[s.pivot] = pivot_core
    return TTTensor(cores, copy=False)


def _unit_allowance(t: TTTensor, pivot: int, eps: float) -> float:
    """``eps * norm / (sqrt(p) + sqrt(d - 1 - p))`` for 0-based pivot ``p``.

    With orthonormal cores on both sides the pivot core carries the
    norm.  Spending this much on each of the ``d - 1`` steps keeps the
    accumulated error within ``eps * norm``.
    """
    if not eps >= 0:
        raise ValueError(f"eps must be nonnegative, got {eps}")
    d = t.ndim
    _check_pivot(pivot, d)
    if d == 1:
        return 0.0
    norm = float(np.linalg.norm(t.cores[pivot].ravel()))
    return eps * norm / (math.sqrt(pivot) + math.sqrt(d - 1 - pivot))


def efficient_tt_rounding(t: TTTensor, pivot: int, eps: float) -> TTTensor:
    """Round an exact train with a static per-step tolerance.

    Every SVD step uses ``eps * norm / (sqrt(p - 1) + sqrt(d - p))``
    (1-based pivot ``p``), which keeps the accumulated error within
    ``eps * norm``.
    """
    delta = _unit_allowance(t, pivot, eps)
    step = lambda k, m: svd_truncate_delta(m, delta)
    return round_from_pivot(t, pivot, step, step)


def dynamic_tt_rounding(t: TTTensor, pivot: int, eps: float) -> TTTensor:
    """Round with per-step tolerances that re-absorb unspent budget.

    The total allowance ``eps * norm`` is split between the two sweeps
    in proportion to ``sqrt`` of their step counts; inside a sweep each
    step takes ``remaining / sqrt(steps left)`` and the remainder is
    recomputed from what the truncation actually discarded.
    """
    unit = _unit_allowance(t, pivot, eps)
    d = t.ndim
    left = [math.sqrt(pivot) * unit]
    right = [math.sqrt(d - 1 - pivot) * unit]

    def spend(remaining: list[float], steps_left: int, m: np.ndarray) -> SVDResult:
        res = svd_truncate_delta(m, remaining[0] / math.sqrt(steps_left))
        remaining[0] = math.sqrt(max(remaining[0] ** 2 - res.trunc_error**2, 0.0))
        return res

    return round_from_pivot(
        t, pivot, lambda k, m: spend(right, d - 1 - k, m), lambda k, m: spend(left, k, m)
    )


def fixed_rank_rounding(t: TTTensor, pivot: int, ranks) -> TTTensor:
    """Round to prescribed interior bond ranks.

    ``ranks`` is one target for every bond or a vector of them; each
    bond is truncated to ``min(target, achievable)`` and no error budget
    is involved.
    """
    if isinstance(ranks, (int, np.integer)):
        ranks = (int(ranks),) * (t.ndim - 1)
    targets = full_ranks(t.dims, ranks)
    if any(r < 1 for r in targets[1:-1]):
        raise ValueError("interior rank targets must be positive")
    return round_from_pivot(
        t,
        pivot,
        lambda k, m: svd_truncate_rank(m, targets[k + 1]),
        lambda k, m: svd_truncate_rank(m, targets[k]),
    )


def flops_fasttt(shape, pivot: int, ranks_lossless, ranks_final, c_svd: float = 1.0) -> float:
    """Cost model for the pipeline's SVD work at a given pivot.

    ``ranks_lossless`` are the bond ranks after lossless
    deparallelisation, ``ranks_final`` the bond ranks after rounding
    (both interior or full vectors).  An ``m x n`` SVD is charged
    ``c_svd * m * n * min(m, n)``.
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
    return c_svd * float(total)


def _upper_bond_bounds(dims, pivot: int, num_fibers: int) -> tuple[int, ...]:
    # Bound on the lossless bond ranks: fiber count capped by the dense
    # extent of whichever side of the bond faces the pivot.
    d = len(dims)
    left = [1] * (d + 1)
    for k in range(1, d + 1):
        left[k] = left[k - 1] * dims[k - 1]
    size = left[d]
    bounds = []
    for k in range(1, d):  # bond k sits after the first k modes
        if k < pivot + 1:
            bounds.append(min(num_fibers, left[k]))
        else:
            bounds.append(min(num_fibers, size // left[k]))
    return tuple(bounds)


def select_p(a: SparseTensor, target_ranks=None, c_svd: float = 1.0) -> int:
    """Pick the pivot mode that minimizes the modeled SVD cost.

    For every candidate pivot the fiber count is computed from the data
    and the lossless bond ranks are estimated by their upper bound.
    Final ranks are estimated as ``min(target, lossless, feasible)``.
    Ties go to the smaller mode index.
    """
    if not isinstance(a, SparseTensor):
        raise TypeError("select_p expects a SparseTensor")
    d = a.ndim
    if d == 1:
        return 0
    dims = a.shape
    left = [1] * (d + 1)
    for k in range(1, d + 1):
        left[k] = left[k - 1] * dims[k - 1]
    size = left[d]
    if target_ranks is None:
        targets = None
    elif isinstance(target_ranks, (int, np.integer)):
        targets = (int(target_ranks),) * (d - 1)
    else:
        targets = tuple(int(r) for r in target_ranks)
        if len(targets) != d - 1:
            raise ValueError(f"need {d - 1} interior rank targets")
    best_pivot = 0
    best_cost = math.inf
    for pivot in range(d):
        rest = [k for k in range(d) if k != pivot]
        rest_dims = tuple(dims[k] for k in rest)
        if a.nnz:
            keys = linearize(rest_dims, a.coords[:, rest])
            num_fibers = int(np.unique(keys).size)
        else:
            num_fibers = 0
        rt = _upper_bond_bounds(dims, pivot, num_fibers)
        r_est = []
        for k in range(1, d):
            feas = min(rt[k - 1], left[k], size // left[k])
            if targets is not None:
                feas = min(feas, targets[k - 1])
            r_est.append(feas)
        cost = flops_fasttt(dims, pivot, rt, tuple(r_est), c_svd)
        if cost < best_cost:
            best_cost = cost
            best_pivot = pivot
    return best_pivot


def tt_relative_error(reference: TTTensor, approx: TTTensor, norm: float | None = None) -> float:
    """``norm(reference - approx) / norm(reference)`` evaluated stably.

    The difference train is orthogonalized before taking its norm, so
    the result resolves errors down to machine precision instead of the
    ``~1e-8`` floor of the expanded inner-product form.  Raises
    ``ValueError`` when the difference train would be too large to
    materialize.
    """
    if reference.dims != approx.dims:
        raise ValueError("trains must share mode extents")
    total = sum(
        (ra0 + rb0) * n * (ra1 + rb1)
        for (ra0, n, ra1), (rb0, _, rb1) in zip(
            (c.shape for c in reference.cores), (c.shape for c in approx.cores)
        )
    )
    if total > _ERROR_MEASURE_CAP:
        raise ValueError(f"difference train size {total} exceeds measurement cap")
    diff = tt_add(reference, tt_scale(approx, -1.0))
    num = float(np.linalg.norm(tt_right_orthogonalize(diff).cores[0].ravel()))
    if norm is None:
        norm = tt_norm(reference)
    return num / norm if norm > 0 else (0.0 if num == 0.0 else math.inf)


def sparse_inner_error(a: SparseTensor, approx: TTTensor) -> float:
    """Relative error via ``norm(a)^2 - 2 <a, b> + norm(b)^2``.

    Cheap at any scale because ``<a, b>`` only touches the nonzeros of
    ``a``, but the cancellation limits the resolution to roughly
    ``1e-8`` in relative terms; below that the result is noise.
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
    measured relative error (method recorded in ``eps_actual_method``).
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
        ``"static"``, ``"dynamic"``, or ``"fixed_rank"`` (``"fixed"``
        is accepted as an alias).
    fixed_ranks:
        Interior bond targets for fixed-rank mode.

    Returns ``(train, report)``.
    """
    if not isinstance(a, SparseTensor):
        raise TypeError("fasttt expects a SparseTensor")
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    if eps is None or eps == 0.0:
        eps = 1e-14
    if not eps >= 0:
        raise ValueError(f"eps must be nonnegative, got {eps}")
    if mode == "fixed":
        mode = "fixed_rank"
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    if mode == "fixed_rank" and fixed_ranks is None:
        raise ValueError("fixed_rank mode needs fixed_ranks")
    d = a.ndim
    notes: list[str] = []
    if pivot is None:
        pivot = select_p(a, target_ranks=fixed_ranks if mode == "fixed_rank" else None)
    _check_pivot(pivot, d)

    if a.nnz == 0:
        notes.append("input has no nonzeros; returning the zero train")
        tt = tt_zero(a.shape)
        num_fibers, ranks_lossless = 0, (0,) * (d - 1)
        eps_actual, method, inner = 0.0, "exact", 0.0
        flops_model, flops_ttsvd_model = 0.0, 0.0
    else:
        structured = build_structured_tt(a, pivot)
        exact = parallel_vector_round(structured)
        num_fibers = structured.num_fibers
        ranks_lossless = exact.ranks[1:-1]
        if mode == "static":
            tt = efficient_tt_rounding(exact, pivot, eps)
        elif mode == "dynamic":
            tt = dynamic_tt_rounding(exact, pivot, eps)
        else:
            tt = fixed_rank_rounding(exact, pivot, fixed_ranks)

        norm_a = frobenius_norm(a)
        inner = sparse_inner_error(a, tt)
        try:
            eps_actual = tt_relative_error(exact, tt, norm=norm_a)
            method = "tt_difference"
        except ValueError:
            eps_actual = inner
            method = "inner_identity"
            notes.append(
                "exact-difference error measure too large; reported value is the "
                "inner-product identity (resolution ~1e-8)"
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
