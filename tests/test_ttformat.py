import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse

import sparsett.ttformat as ttformat

from sparsett import (
    FormatError,
    QuasiPermMatrix,
    SparseTensor,
    TTTensor,
    build_structured_tt,
    fasttt,
    load_tt,
    parallel_vector_round,
    round_from_pivot,
    save_tt,
    tensorize_matrix,
    tt_add,
    tt_entries,
    tt_norm,
    tt_right_orthogonalize,
    tt_to_full,
    tt_svd,
    tt_zero,
)
from sparsett.linalg import svd_truncate_rank
from sparsett.tensor import linearize
from conftest import einsum_qr_sweep, rand_sparse, rand_tt, structured_to_tt


class TestTTTensor:
    def test_props(self, rng):
        t = rand_tt(rng, (3, 4, 5), (2, 3))
        assert t.ndim == 3
        assert t.dims == (3, 4, 5)
        assert t.ranks == (1, 2, 3, 1)
        assert t.num_params == 1 * 3 * 2 + 2 * 4 * 3 + 3 * 5 * 1

    def test_bond_mismatch_rejected(self, rng):
        cores = [rng.standard_normal((1, 3, 2)), rng.standard_normal((3, 4, 1))]
        with pytest.raises(ValueError):
            TTTensor(cores)

    def test_edge_rank_rejected(self, rng):
        cores = [rng.standard_normal((2, 3, 1))]
        with pytest.raises(ValueError):
            TTTensor(cores)

    def test_immutable(self, rng, tmp_path):
        cores = [rng.standard_normal(shape) for shape in ((1, 3, 2), (2, 4, 3), (3, 5, 1))]
        t = TTTensor(cores)
        with pytest.raises(AttributeError):
            t.cores = []
        for c, g in zip(cores, t.cores):
            assert c.flags.writeable and np.shares_memory(c, g)

        # Every producer of trains hands out read-only cores.
        a = rand_sparse(rng, (4, 3, 5), 0.4)
        index_form = build_structured_tt(a, 1)
        exact = parallel_vector_round(index_form)
        save_tt(exact, tmp_path / "t.npz")
        step = lambda k, m: svd_truncate_rank(m, 2)
        trains = [
            t,
            fasttt(a)[0],
            tt_svd(a.to_dense(), 0.1),
            exact,
            round_from_pivot(index_form, step, step),
            tt_right_orthogonalize(t),
            load_tt(tmp_path / "t.npz"),
        ]
        for train in trains:
            for g in train.cores:
                with pytest.raises(ValueError, match="read-only"):
                    g[...] = 7.0


def _chunk_rows(monkeypatch, t, rows):
    """Make ``tt_entries`` take ``rows`` coordinates per chunk on ``t``."""
    monkeypatch.setattr(ttformat, "_ENTRIES_FLOATS", rows * max(t.ranks))


def _tensordot_norm(t):
    """The norm as two ``tensordot`` contractions per core: the formula
    ``tt_norm`` used before it spelt the same GEMMs with ``@``."""
    w = np.ones((1, 1))
    for c in t.cores:
        w = np.tensordot(np.tensordot(w, c, axes=(0, 0)), c, axes=((0, 1), (0, 1)))
    return float(np.sqrt(max(w[0, 0], 0.0)))


class TestEntriesAndFull:
    def test_entries_batched(self, rng, monkeypatch):
        t = rand_tt(rng, (4, 4, 4), (3, 3))
        _chunk_rows(monkeypatch, t, 64)
        coords = np.stack([rng.integers(0, 4, 300) for _ in range(3)], axis=1)
        got = tt_entries(t, coords)
        want = tt_to_full(t)[tuple(coords.T)]
        assert np.allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("rows", [1, 7, 64, 4096])
    def test_entries_unsorted_repeated_mixed_ranks(self, rng, monkeypatch, rows):
        # Bond ranks 1, 5, 2, 7 around modes of different extents; the
        # coordinates are unsorted and repeat, and 7 does not divide 250.
        t = rand_tt(rng, (3, 5, 4, 6, 2), (1, 5, 2, 7))
        _chunk_rows(monkeypatch, t, rows)
        coords = np.stack([rng.integers(0, n, 125) for n in t.dims], axis=1)
        coords = np.concatenate([coords, coords[::-1]])
        got = tt_entries(t, coords)
        want = tt_to_full(t)[tuple(coords.T)]
        assert np.allclose(got, want, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("rows", [1, 7, 64])
    def test_entries_sorted_runs_cut_by_chunks(self, rng, monkeypatch, rows):
        # Lexicographic order with long shared prefixes: a random 70% of
        # the coordinates of a (2, 3, 4, 5) grid, with one of them given
        # ten times in a row; chunks of 7 and 64 rows end inside runs.
        t = rand_tt(rng, (2, 3, 4, 5), (4, 6, 3))
        _chunk_rows(monkeypatch, t, rows)
        grid = np.argwhere(np.ones(t.dims, dtype=bool))
        coords = grid[rng.random(len(grid)) < 0.7]
        coords = np.insert(coords, 20, np.repeat(coords[20:21], 9, axis=0), axis=0)
        assert (np.diff(linearize(t.dims, coords)) >= 0).all()
        got = tt_entries(t, coords)
        want = tt_to_full(t)[tuple(coords.T)]
        assert np.allclose(got, want, rtol=1e-13, atol=1e-13)

    def test_entries_independent_of_order_and_repeats(self, rng):
        t = rand_tt(rng, (4, 3, 5, 2, 3), (3, 5, 4, 2))
        lin = np.sort(rng.choice(math.prod(t.dims), 200, replace=False))
        ordered = np.stack(np.unravel_index(lin, t.dims), axis=1)
        want = tt_entries(t, ordered)
        perm = rng.permutation(len(ordered))
        shuffled = np.empty_like(want)
        shuffled[perm] = tt_entries(t, ordered[perm])
        repeated = tt_entries(t, np.repeat(ordered, 3, axis=0)).reshape(-1, 3)
        scale = np.abs(want).max()
        assert np.allclose(shuffled, want, rtol=1e-13, atol=1e-13 * scale)
        for j in range(3):
            assert np.allclose(repeated[:, j], want, rtol=1e-13, atol=1e-13 * scale)

    def test_entries_one_mode(self, rng, monkeypatch):
        t = rand_tt(rng, (9,), ())
        _chunk_rows(monkeypatch, t, 3)
        coords = np.array([[4], [0], [8], [4]])
        assert np.array_equal(tt_entries(t, coords), t.cores[0][0, [4, 0, 8, 4], 0])

    def test_entries_empty_coords(self, rng):
        t = rand_tt(rng, (3, 4), (2,))
        got = tt_entries(t, np.zeros((0, 2), dtype=np.int64))
        assert got.shape == (0,)

    @pytest.mark.parametrize("bad", [[[-1, 0]], [[3, 0]], [[0, 4]], [[0, 0], [0, -4]]])
    def test_entries_reject_out_of_range(self, rng, bad):
        t = rand_tt(rng, (3, 4), (2,))
        with pytest.raises(ValueError, match="out of range"):
            tt_entries(t, bad)

    def test_entries_reject_non_integral_coords(self, rng):
        t = rand_tt(rng, (3, 4), (2,))
        with pytest.raises(ValueError, match=r"coordinate \(1\.9, 2\.7\) is not integral"):
            tt_entries(t, [[1.9, 2.7]])
        whole = tt_entries(t, np.array([[1.0, 2.0]]))
        assert np.array_equal(whole, tt_entries(t, [[1, 2]]))

    def test_entries_reject_bad_shape(self, rng):
        t = rand_tt(rng, (3, 4), (2,))
        with pytest.raises(ValueError, match="coords must be"):
            tt_entries(t, [[0, 0, 0]])

    def test_entries_memory_is_batch_times_rank(self, rng, monkeypatch):
        # Bonds of 300: a gather of r * rows * r slices would take
        # 300 * 64 * 300 * 8 bytes = 46 MB, while the grouped products
        # need a few (rows, r) blocks of 154 kB each, in chunks of 64
        # rows.  Shuffled coordinates share no prefix; sorted ones share
        # most of theirs.
        r, rows = 300, 64
        t = rand_tt(rng, (6, 6, 6), (r, r))
        _chunk_rows(monkeypatch, t, rows)
        shuffled = np.stack([rng.integers(0, 6, 1000) for _ in range(3)], axis=1)
        ordered = shuffled[np.argsort(linearize(t.dims, shuffled), kind="stable")]
        tt_entries(t, shuffled[:rows])
        for coords in (shuffled, ordered):
            tracemalloc.start()
            try:
                got = tt_entries(t, coords)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 4 * rows * r * 8
            want = tt_to_full(t)[tuple(coords.T)]
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    def test_full_cap(self, rng):
        t = rand_tt(rng, (10, 10, 10), (1, 1))
        with pytest.raises(ValueError):
            tt_to_full(t, cap=500)


class TestAlgebra:
    def test_zero(self):
        z = tt_zero((3, 4))
        assert np.array_equal(tt_to_full(z), np.zeros((3, 4)))

    def test_add(self, rng):
        a = rand_tt(rng, (3, 4, 5), (2, 3))
        b = rand_tt(rng, (3, 4, 5), (4, 2))
        s = tt_add(a, b)
        assert s.ranks == (1, 6, 5, 1)
        assert np.allclose(
            tt_to_full(s), tt_to_full(a) + tt_to_full(b), atol=1e-12
        )

    def test_add_single_mode(self, rng):
        a = rand_tt(rng, (5,), ())
        b = rand_tt(rng, (5,), ())
        assert np.allclose(
            tt_to_full(tt_add(a, b)), tt_to_full(a) + tt_to_full(b), atol=1e-13
        )

    def test_add_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            tt_add(rand_tt(rng, (3, 4), (2,)), rand_tt(rng, (4, 3), (2,)))

    def test_norm(self, rng):
        t = rand_tt(rng, (3, 4, 2, 3), (2, 3, 2))
        assert tt_norm(t) == pytest.approx(
            np.linalg.norm(tt_to_full(t)), rel=1e-12
        )

    @pytest.mark.parametrize(
        "dims, ranks",
        [((7,), ()), ((3, 4), (1,)), ((3, 4, 2, 3), (2, 3, 2)), ((5, 2, 6, 3, 4), (4, 1, 9, 3))],
    )
    def test_norm_matches_tensordot_bit_for_bit(self, rng, dims, ranks):
        for _ in range(5):
            t = rand_tt(rng, dims, ranks)
            assert tt_norm(t) == _tensordot_norm(t)


class TestOrthogonalize:
    def test_value_preserved_and_cores_orthonormal(self, rng):
        t = rand_tt(rng, (3, 4, 5, 2), (2, 4, 3))
        q = tt_right_orthogonalize(t)
        assert np.allclose(tt_to_full(q), tt_to_full(t), atol=1e-11)
        for core in q.cores[1:]:
            r0, n, r1 = core.shape
            m = core.reshape(r0, n * r1)
            assert np.allclose(m @ m.T, np.eye(r0), atol=1e-12)
        assert np.linalg.norm(q.cores[0]) == pytest.approx(tt_norm(t), rel=1e-11)

    def test_matches_einsum_sweep(self, rng):
        t = rand_tt(rng, (3, 4, 5, 2, 3), (2, 6, 5, 3))
        want = [c.copy() for c in t.cores]
        einsum_qr_sweep(want, 0)
        got = tt_right_orthogonalize(t)
        for g, w in zip(got.cores, want):
            assert g.shape == w.shape
            assert np.linalg.norm(g - w) <= 1e-12 * np.linalg.norm(w)


class TestQuasiPerm:
    def test_dense_and_sparse(self):
        q = QuasiPermMatrix(4, 3, np.array([2, 0, 2]))
        d = q.to_dense()
        assert d.shape == (4, 3)
        assert d.sum() == 3.0
        assert d[2, 0] == d[0, 1] == d[2, 2] == 1.0

    def test_immutable(self):
        col_to_row = np.array([2, 0, 2])
        q = QuasiPermMatrix(4, 3, col_to_row)
        assert col_to_row.flags.writeable and np.shares_memory(col_to_row, q.col_to_row)
        with pytest.raises(ValueError, match="read-only"):
            q.col_to_row[0] = 1
        with pytest.raises(AttributeError):
            q.n_rows = 5

    def test_validation(self):
        with pytest.raises(ValueError):
            QuasiPermMatrix(2, 2, np.array([0, 2]))
        with pytest.raises(ValueError):
            QuasiPermMatrix(2, 2, np.array([-1, 0]))
        with pytest.raises(ValueError, match="row index 0.9 is not integral"):
            QuasiPermMatrix(3, 2, [0.9, 2.5])
        assert QuasiPermMatrix(3, 2, [0.0, 2.0]).col_to_row.tolist() == [0, 2]

class TestStructuredTT:
    def test_reconstruction_and_ranks(self, rng):
        t = rand_sparse(rng, (4, 3, 5), 0.3)
        for pivot in range(3):
            oracle = structured_to_tt(t, pivot)
            assert np.array_equal(tt_to_full(oracle), t.to_dense())
            assert oracle.ranks[1] == build_structured_tt(t, pivot).num_fibers


class TestTensorize:
    def test_round_trip(self, rng):
        m = scipy.sparse.random(12, 30, density=0.2, random_state=7, format="coo")
        t = tensorize_matrix(m, (3, 4), (5, 6))
        assert t.shape == (15, 24)
        # Unfuse f_i = x_i * col_dims[i] + y_i, then relinearize rows and columns.
        x, y = np.divmod(t.coords, np.array([5, 6]))
        back = scipy.sparse.coo_matrix(
            (t.values, (linearize((3, 4), x), linearize((5, 6), y))), shape=m.shape
        )
        assert np.array_equal(back.toarray(), m.toarray())

    def test_entry_mapping(self):
        m = scipy.sparse.coo_matrix(
            (np.array([7.0]), (np.array([5]), (np.array([3])))), shape=(6, 4)
        )
        t = tensorize_matrix(m, (2, 3), (2, 2))
        assert t.shape == (2 * 2, 3 * 2)
        x1, x2 = divmod(5, 3)
        y1, y2 = divmod(3, 2)
        dense = t.to_dense()
        assert dense[x1 * 2 + y1, x2 * 2 + y2] == 7.0
        assert t.nnz == 1

    def test_duplicates_refused(self):
        # A repeated nonzero (row, col) is refused like a repeated
        # coordinate, never summed; the caller sums assembled duplicates.
        rows = np.array([0, 0])
        cols = np.array([1, 1])
        m = scipy.sparse.coo_matrix((np.array([2.0, 3.0]), (rows, cols)), shape=(4, 4))
        with pytest.raises(FormatError, match="duplicate coordinate"):
            tensorize_matrix(m, (2, 2), (2, 2))
        m.sum_duplicates()
        t = tensorize_matrix(m, (2, 2), (2, 2))
        assert t.to_dense().ravel()[1] == 5.0

    def test_cancelling_twin_refused(self):
        # 1.0 and -1.0 at one entry are two nonzeros, not a dropped zero.
        m = scipy.sparse.coo_matrix(([1.0, 2.0, -1.0], ([0, 1, 0], [1, 0, 1])), shape=(2, 2))
        with pytest.raises(FormatError, match="duplicate coordinate"):
            tensorize_matrix(m, (2,), (2,))

    def test_zero_valued_twin_accepted(self):
        # Zeros are dropped before the duplicate check, either side of the twin.
        m = scipy.sparse.coo_matrix(
            ([0.0, 2.0, 3.0, 0.0], ([0, 1, 0, 1], [1, 0, 1, 0])), shape=(2, 2)
        )
        t = tensorize_matrix(m, (2,), (2,))
        assert t.to_dense().tolist() == [0.0, 3.0, 2.0, 0.0]

    def test_dense_input(self):
        t = tensorize_matrix([[0, 3], [2, 0]], (2,), (2,))
        assert t.values.dtype == np.float64
        assert t.to_dense().tolist() == [0.0, 3.0, 2.0, 0.0]

    @pytest.mark.parametrize(
        "row_dims, col_dims, density",
        [((3, 4), (5, 6), 0.2), ((1, 4, 1), (2, 1, 3), 0.5), ((2,) * 6, (2,) * 6, 0.05),
         ((3, 2), (2, 3), 0.0)],
    )
    def test_matches_unravel_index(self, row_dims, col_dims, density):
        # Oracle: per-mode digits from np.unravel_index, fused pair by pair.
        shape = (math.prod(row_dims), math.prod(col_dims))
        m = scipy.sparse.random(*shape, density=density, random_state=3, format="coo")
        t = tensorize_matrix(m, row_dims, col_dims)
        c = m.tocsr().tocoo()
        x = np.stack(np.unravel_index(c.row.astype(np.int64), row_dims), axis=1)
        y = np.stack(np.unravel_index(c.col.astype(np.int64), col_dims), axis=1)
        want = SparseTensor(t.shape, x * np.array(col_dims) + y, c.data)
        assert t.coords.tobytes() == want.coords.tobytes()
        assert t.values.tobytes() == want.values.tobytes()
        assert t.coords.shape == (c.nnz, len(row_dims))

    def test_bad_factorization(self):
        m = scipy.sparse.eye(6, format="coo")
        with pytest.raises(ValueError):
            tensorize_matrix(m, (4, 2), (2, 3))

