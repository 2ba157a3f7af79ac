import math

import numpy as np
import pytest

from sparsett import SparseTensor, linalg
from sparsett.tensor import delinearize


def rand_sparse(rng: np.random.Generator, shape, density: float) -> SparseTensor:
    """Random test tensor with distinct coordinates and nonzero values."""
    size = math.prod(shape)
    nnz = int(density * size)
    lin = np.sort(rng.permutation(size)[:nnz].astype(np.int64))
    vals = rng.uniform(-1.0, 1.0, nnz)
    vals[vals == 0.0] = 0.5
    return SparseTensor(shape, delinearize(shape, lin), vals)


def rand_tt(rng: np.random.Generator, dims, ranks):
    """Random dense-core train with the given interior ranks."""
    from sparsett import TTTensor

    full = (1,) + tuple(ranks) + (1,)
    cores = [
        rng.standard_normal((full[k], n, full[k + 1]))
        for k, n in enumerate(dims)
    ]
    return TTTensor(cores)


def rand_index_train(rng: np.random.Generator, dims, ranks, pivot):
    """Random train in index form around ``pivot`` with the given
    interior ranks: each map keeps a random increasing set of rows, and
    the pivot core is Gaussian."""
    from sparsett import IndexTrain, QuasiPermMatrix

    r = (1, *ranks, 1)
    cores = []
    for k, n in enumerate(dims):
        if k == pivot:
            cores.append(rng.standard_normal((r[k], n, r[k + 1])))
        else:
            rows, cols = (r[k] * n, r[k + 1]) if k < pivot else (n * r[k + 1], r[k])
            cores.append(QuasiPermMatrix(rows, cols, np.sort(rng.choice(rows, cols, replace=False))))
    return IndexTrain(dims, pivot, cores, max(r))


def einsum_qr_sweep(cores, stop):
    """Reference right-to-left QR sweep: cores ``stop+1..d-1`` become
    right-orthonormal in place, and einsum absorbs each R factor."""
    from sparsett.linalg import qr_economic

    for k in range(len(cores) - 1, stop, -1):
        r0, n, r1 = cores[k].shape
        q, r = qr_economic(cores[k].reshape(r0, n * r1).T)
        cores[k] = q.T.reshape(-1, n, r1)
        cores[k - 1] = np.einsum("abc,dc->abd", cores[k - 1], r)


def dense_round_from_pivot(cores, pivot, right_step, left_step):
    """Reference rounding: the sweeps of ``round_from_pivot`` on dense
    cores orthogonalized around ``pivot``, with every carry a
    ``tensordot`` into the neighbouring core.  Run on the cores that
    ``parallel_vector_round`` writes, it is the dense route the
    index-form carries must match bit for bit."""
    from sparsett import TTTensor, tt_zero
    from sparsett.ttformat import _qr_sweep

    cores = list(cores)
    d = len(cores)
    dims = tuple(c.shape[1] for c in cores)
    for k in range(pivot, d - 1):
        r0, n, r1 = cores[k].shape
        res = right_step(k, cores[k].reshape(r0 * n, r1))
        if res.rank == 0:
            return tt_zero(dims)
        cores[k] = res.u.reshape(r0, n, res.rank)
        cores[k + 1] = np.tensordot(res.vt.T * res.s, cores[k + 1], axes=(0, 0))
    if pivot == 0:
        return TTTensor(cores)
    _qr_sweep(cores, pivot)
    for k in range(pivot, 0, -1):
        r0, n, r1 = cores[k].shape
        res = left_step(k, cores[k].reshape(r0, n * r1).T)
        if res.rank == 0:
            return tt_zero(dims)
        cores[k] = res.u.T.reshape(res.rank, n, r1)
        cores[k - 1] = np.tensordot(cores[k - 1], res.vt.T * res.s, axes=(2, 0))
    return TTTensor(cores)


def structured_to_tt(a, pivot):
    """The exact train of ``a`` at ``pivot`` with its undeparallelised
    dense cores, one bond index per nonzero mode-``pivot`` fiber: every
    interior bond is the fiber count, so only for small cases.  The
    fibers are grouped here, with ``np.unique`` over the coordinates off
    the pivot, not by the package."""
    from sparsett import TTTensor, tt_zero

    dims, d = a.shape, a.ndim
    if a.nnz == 0:
        return tt_zero(dims)
    fixed, fiber = np.unique(np.delete(a.coords, pivot, axis=1), axis=0, return_inverse=True)
    fiber = fiber.reshape(-1)
    r = fixed.shape[0]
    beta = np.arange(r)
    cores = []
    for k in range(d):
        r0 = r if k > 0 else 1
        r1 = r if k < d - 1 else 1
        core = np.zeros((r0, dims[k], r1))
        if k == pivot:
            left = fiber if k > 0 else 0
            right = fiber if k < d - 1 else 0
            core[left, a.coords[:, pivot], right] = a.values
        else:
            ik = fixed[:, k if k < pivot else k - 1]
            left = beta if k > 0 else 0
            right = beta if k < d - 1 else 0
            core[left, ik, right] = 1.0
        cores.append(core)
    return TTTensor(cores)


def full_sweep_relative_error(reference, approx, norm):
    """Reference difference measure: build the whole difference train,
    right-orthogonalize every core and read the norm off the first."""
    from sparsett import TTTensor
    from sparsett.ttformat import tt_add, tt_right_orthogonalize

    negated = TTTensor([-approx.cores[0], *approx.cores[1:]])
    diff = tt_add(reference, negated)
    num = float(np.linalg.norm(tt_right_orthogonalize(diff).cores[0].ravel()))
    return num / norm


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1729)


@pytest.fixture
def lapack_shapes(monkeypatch):
    """Shapes of the matrices that reach ``np.linalg.svd``."""
    shapes, svd = [], np.linalg.svd

    def recording(m, *args, **kwargs):
        shapes.append(m.shape)
        return svd(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    return shapes


@pytest.fixture
def cholqr2_shapes(monkeypatch):
    """Shapes of the matrices that reach the CholeskyQR2 kernel."""
    shapes, kernel = [], linalg._cholesky_qr2_svd

    def recording(a):
        shapes.append(a.shape)
        return kernel(a)

    monkeypatch.setattr(linalg, "_cholesky_qr2_svd", recording)
    return shapes
