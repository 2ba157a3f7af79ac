"""Seeded problem generators.

All randomness comes from ``numpy.random.Generator`` over the PCG64
bit generator seeded with the caller's integer, so every generator is
bit-exactly reproducible from ``(arguments, seed)``.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse

from .tensor import SparseTensor, check_shape, delinearize

__all__ = ["gen_fdm", "gen_random_sparse"]


def gen_fdm(n: int, m: int, k: int, coeffs: str = "laplacian", seed: int | None = None):
    """System matrix of a 7-point finite-difference stencil on an
    ``n x m x k`` grid, as a sparse COO matrix of extent ``n*m*k``.

    Grid points are numbered row-major (last axis fastest).  With
    ``coeffs="laplacian"`` the diagonal is 6 and every in-grid neighbor
    entry is -1 (boundary rows simply have fewer neighbors).  With
    ``coeffs="random"`` the sparsity pattern is identical but every
    entry is drawn uniformly from (-1, 1); entries are drawn in a fixed
    block order (diagonal, then the six neighbor offsets), so the matrix
    is reproducible from the seed.
    """
    dims = check_shape((n, m, k))
    n, m, k = dims
    if coeffs not in ("laplacian", "random"):
        raise ValueError(f"coeffs must be 'laplacian' or 'random', got {coeffs!r}")
    grid = np.arange(n * m * k, dtype=np.int64).reshape(n, m, k)
    rows = [grid.ravel()]
    cols = [grid.ravel()]
    sizes = [grid.size]
    for axis in range(3):
        src = [slice(None)] * 3
        dst = [slice(None)] * 3
        src[axis] = slice(None, -1)
        dst[axis] = slice(1, None)
        fwd_src = grid[tuple(src)].ravel()
        fwd_dst = grid[tuple(dst)].ravel()
        rows += [fwd_src, fwd_dst]
        cols += [fwd_dst, fwd_src]
        sizes += [fwd_src.size, fwd_dst.size]
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    if coeffs == "laplacian":
        vals = np.concatenate(
            [np.full(sizes[0], 6.0)] + [np.full(s, -1.0) for s in sizes[1:]]
        )
    else:
        rng = np.random.default_rng(seed)
        vals = rng.uniform(-1.0, 1.0, rows.size)
    total = n * m * k
    return scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(total, total))


def _sample_distinct(rng: np.random.Generator, space: int, count: int) -> np.ndarray:
    """``count <= space`` distinct integers from ``range(space)``, sorted.

    Small spaces are permuted outright; large ones use batched rejection
    sampling with a uniformly random subset of the collected pool, so
    the draw stays (approximately) uniform without materializing the
    space.  Deterministic for a given generator state.
    """
    if count == space:
        return np.arange(space, dtype=np.int64)
    if space <= 4 * count or space <= 1 << 22:
        return np.sort(rng.permutation(space)[:count].astype(np.int64))
    pool = np.empty(0, dtype=np.int64)
    while pool.size < count:
        draw = rng.integers(0, space, size=count + count // 4 + 16, dtype=np.int64)
        pool = np.unique(np.concatenate([pool, draw]))
    return np.sort(rng.permutation(pool)[:count])


def gen_random_sparse(
    shape,
    density: float,
    seed: int | None = None,
    fill_last_mode: bool = False,
) -> SparseTensor:
    """Random sparse tensor with ``floor(density * size)`` nonzeros at
    distinct uniform coordinates, values uniform on (0, 1).

    Values are assigned in ascending linearized-coordinate order after
    the coordinates are drawn.  With ``fill_last_mode=True`` the
    coordinates instead come in complete last-mode columns: distinct
    uniform prefixes over the leading ``d-1`` modes, each carrying all
    ``shape[-1]`` entries (the way per-pixel observations arrive); the
    nonzero count is rounded down to a multiple of ``shape[-1]``.
    """
    dims = check_shape(shape)
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density}")
    size = math.prod(dims)
    rng = np.random.default_rng(seed)
    if fill_last_mode:
        last = dims[-1]
        groups = int(density * size) // last
        prefixes = _sample_distinct(rng, size // last, groups)
        lin = (prefixes[:, None] * last + np.arange(last, dtype=np.int64)).ravel()
    else:
        count = int(density * size)
        lin = _sample_distinct(rng, size, count)
    values = rng.uniform(0.0, 1.0, lin.size)
    return SparseTensor(dims, delinearize(dims, lin), values)
