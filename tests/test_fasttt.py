import dataclasses
import importlib
import math
import tracemalloc

import numpy as np
import pytest

import sparsett
from sparsett import (
    ContractViolationError,
    DecompositionReport,
    IndexTrain,
    QuasiPermMatrix,
    SparseTensor,
    TTTensor,
    build_structured_tt,
    depar_general,
    depar_quasi_perm,
    dynamic_tt_rounding,
    efficient_tt_rounding,
    fasttt,
    fixed_rank_rounding,
    flops_fasttt,
    flops_ttsvd,
    float_ops,
    gen_fdm,
    gen_random_sparse,
    parallel_vector_round,
    round_from_pivot,
    select_p,
    sparse_inner_error,
    tensorize_matrix,
    tt_add,
    tt_entries,
    tt_norm,
    tt_svd,
    tt_to_full,
    tt_zero,
)
from sparsett import ttformat
from sparsett.fasttt import tt_relative_error
from sparsett.linalg import qr_economic, svd_truncate_delta, svd_truncate_rank
from conftest import (
    dense_round_from_pivot,
    full_sweep_relative_error,
    rand_sparse,
    rand_tt,
    structured_to_tt,
)


def fiber_cases(rng):
    """Tensors of the shapes fiber grouping must handle: one and two
    modes, extent-1 modes, empty, full and six modes."""
    yield rand_sparse(rng, (4, 3, 5, 2), 0.25)
    yield rand_sparse(rng, (5, 4, 3), 0.3)
    yield rand_sparse(rng, (7,), 0.5)
    yield rand_sparse(rng, (6, 5), 0.3)
    yield rand_sparse(rng, (1, 4, 1, 3), 0.5)
    yield rand_sparse(rng, (3, 4, 2), 0.0)
    yield rand_sparse(rng, (3, 2, 4), 1.0)
    yield rand_sparse(rng, (3, 2, 3, 2, 2, 3), 0.2)


class TestFiberExtraction:
    def test_fiber_count_matches_set_oracle(self, rng):
        # The oracle groups the nonzeros into a dict of fibers; the train
        # must have that many, no bond above it or above the dense extent
        # of its side away from the pivot, and every entry of the input.
        for t in fiber_cases(rng):
            for pivot in range(t.ndim):
                fibers = {}
                for c, v in zip(t.coords.tolist(), t.values.tolist()):
                    fibers.setdefault(tuple(np.delete(c, pivot)), []).append((c[pivot], v))
                want = np.zeros(t.shape)
                for fixed, entries in fibers.items():
                    for i, v in entries:
                        want[(*fixed[:pivot], i, *fixed[pivot:])] = v
                s = build_structured_tt(t, pivot)
                assert s.num_fibers == len(fibers)
                for k in range(1, t.ndim):
                    outer = math.prod(t.shape[:k] if k <= pivot else t.shape[k:])
                    assert s.ranks[k] <= min(len(fibers), outer)
                assert np.array_equal(tt_to_full(parallel_vector_round(s)), want)

    def test_fixed_tuples_sorted_and_distinct(self, rng):
        # Fibers sorted by distinct fixed tuples leave every kept map
        # strictly increasing: the train is orthogonalized around the pivot.
        for t in fiber_cases(rng):
            for pivot in range(t.ndim):
                s = build_structured_tt(t, pivot)
                for k, q in enumerate(s.cores):
                    if k != pivot:
                        assert np.all(np.diff(q.col_to_row) > 0)

    def test_each_fiber_nonempty(self, rng):
        # Every kept bond index carries a fiber that holds a nonzero.
        t = rand_sparse(rng, (6, 6), 0.2)
        for pivot in (0, 1):
            core = build_structured_tt(t, pivot).cores[pivot]
            assert np.all(np.count_nonzero(core, axis=(1, 2)) >= 1)
            assert np.all(np.count_nonzero(core, axis=(0, 1)) >= 1)

    def test_bounds(self, rng):
        t = rand_sparse(rng, (4, 5, 6), 0.1)
        fs = build_structured_tt(t, 2)
        assert fs.num_fibers <= t.nnz
        assert fs.num_fibers <= 4 * 5

    def test_empty_tensor(self):
        t = SparseTensor((3, 4), np.zeros((0, 2), dtype=np.int64), np.zeros(0))
        fs = build_structured_tt(t, 0)
        assert fs.num_fibers == 0
        assert fs.ranks == (1, 0, 1)

    def test_full_mode_grouping(self):
        coords = np.array([[i, j] for i in range(3) for j in range(4)])
        t = SparseTensor((3, 4), coords, np.arange(1.0, 13.0))
        fs = build_structured_tt(t, 1)
        assert fs.num_fibers == 3
        assert np.all(np.count_nonzero(fs.cores[1], axis=(1, 2)) == 4)


class TestFiberSetValidation:
    def test_immutable(self, rng):
        # The exact train of the fibers is immutable, and holds its pivot
        # core as a read-only view that leaves the caller's array writable.
        s = build_structured_tt(rand_sparse(rng, (3, 4, 2), 0.5), 1)
        for name in ("pivot", "cores", "num_fibers"):
            with pytest.raises(AttributeError):
                setattr(s, name, 0)
        with pytest.raises(ValueError, match="read-only"):
            s.cores[1][0, 0, 0] = 1.0
        core = np.array(s.cores[1])
        t = IndexTrain(s.dims, 1, [s.cores[0], core, s.cores[2]], s.num_fibers)
        assert core.flags.writeable and np.shares_memory(core, t.cores[1])

    def test_build_rejects_non_sparse_input(self):
        with pytest.raises(TypeError):
            build_structured_tt(np.ones((2, 3)), 0)

    def test_build_rejects_pivot_out_of_range(self, rng):
        # fasttt leaves the check to the build.
        t = rand_sparse(rng, (3, 4, 2), 0.5)
        for pivot in (-1, 3):
            for build in (build_structured_tt, lambda t, p: fasttt(t, pivot=p)):
                with pytest.raises(ValueError, match=f"pivot {pivot} out of range for 3 modes"):
                    build(t, pivot)


class TestDeparGeneral:
    def test_planted_parallel_classes(self, rng):
        u = rng.standard_normal(6)
        v = rng.standard_normal(6)
        w = rng.standard_normal(6)
        m = np.column_stack([u, 2.0 * u, v, np.zeros(6), -3.0 * v, w])
        n, t = depar_general(m)
        assert n.shape == (6, 3)
        assert np.array_equal(n[:, 0], u)
        assert np.array_equal(n[:, 1], v)
        assert np.array_equal(n[:, 2], w)
        assert np.allclose(n @ t, m, atol=1e-12)
        assert np.array_equal(t[:, 3], np.zeros(3))

    def test_zero_matrix(self):
        n, t = depar_general(np.zeros((4, 3)))
        assert n.shape == (4, 0)
        assert t.shape == (0, 3)

    def test_no_parallel_columns(self, rng):
        m = rng.standard_normal((8, 5))
        n, t = depar_general(m)
        assert n.shape == (8, 5)
        assert np.allclose(n @ t, m, atol=1e-12)

    def test_scaling_within_tolerance(self, rng):
        u = rng.standard_normal(50)
        m = np.column_stack([u, u * (1.0 + 1e-14)])
        n, _ = depar_general(m)
        assert n.shape[1] == 1

    def test_counts_float_work(self, rng):
        float_ops.reset()
        depar_general(rng.standard_normal((10, 6)))
        assert float_ops.count > 0

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError, match="deparallelisation expects a matrix"):
            depar_general(np.ones(3))


class TestDeparQuasiPerm:
    def test_exact_factorization(self, rng):
        q = QuasiPermMatrix(9, 14, rng.integers(0, 9, 14))
        n, t = depar_quasi_perm(q)
        assert isinstance(n, QuasiPermMatrix)
        assert isinstance(t, QuasiPermMatrix)
        assert np.array_equal(n.to_dense() @ t.to_dense(), q.to_dense())

    def test_kept_rows_ascending_and_bounded(self, rng):
        q = QuasiPermMatrix(7, 30, rng.integers(0, 7, 30))
        n, _ = depar_quasi_perm(q)
        assert np.all(np.diff(n.col_to_row) > 0)
        assert n.n_cols <= q.n_rows
        assert n.n_cols == np.unique(q.col_to_row).size

    def test_no_float_work(self, rng):
        q = QuasiPermMatrix(40, 200, rng.integers(0, 40, 200))
        float_ops.reset()
        depar_quasi_perm(q)
        assert float_ops.count == 0.0

    def test_agrees_with_general_route(self, rng):
        for _ in range(10):
            rows = int(rng.integers(2, 25))
            cols = int(rng.integers(1, 60))
            q = QuasiPermMatrix(rows, cols, rng.integers(0, rows, cols))
            nq, tq = depar_quasi_perm(q)
            ng, tg = depar_general(q.to_dense())
            assert nq.n_cols == ng.shape[1]
            assert np.allclose(ng @ tg, q.to_dense(), atol=1e-13)

    def test_rejects_plain_matrix(self):
        with pytest.raises(TypeError):
            depar_quasi_perm(np.eye(3))

    @pytest.mark.parametrize("rows, cols, col_to_row, message", [
        (-1, 0, [], "matrix extents must be nonnegative"),
        (3, 2, [0], r"col_to_row must have shape \(2,\)"),
    ], ids=["negative", "misfit"])
    def test_quasi_perm_matrix_refuses_bad_extents(self, rows, cols, col_to_row, message):
        with pytest.raises(ValueError, match=message):
            QuasiPermMatrix(rows, cols, col_to_row)


def dense_parallel_round(a, pivot):
    """Reference rounding that runs the general deparallelisation on the
    materialized cores of ``a``'s fibers at ``pivot``, checking the
    quasi-permutation property of every matrix it hands over."""
    tt = structured_to_tt(a, pivot)
    cores = [c.copy() for c in tt.cores]
    d, pv = tt.ndim, pivot
    for k in range(pv):
        r0, n, r1 = cores[k].shape
        m = cores[k].reshape(r0 * n, r1)
        assert (np.count_nonzero(m, axis=0) == 1).all() and (m[m != 0.0] == 1.0).all()
        n_fac, t_fac = depar_general(m)
        cores[k] = n_fac.reshape(r0, n, n_fac.shape[1])
        cores[k + 1] = np.tensordot(t_fac, cores[k + 1], axes=(1, 0))
    for k in range(d - 1, pv, -1):
        r0, n, r1 = cores[k].shape
        m = cores[k].reshape(r0, n * r1).T
        assert (np.count_nonzero(m, axis=0) == 1).all() and (m[m != 0.0] == 1.0).all()
        n_fac, t_fac = depar_general(m)
        cores[k] = np.ascontiguousarray(n_fac.T).reshape(n_fac.shape[1], n, r1)
        cores[k - 1] = np.einsum("abc,jc->abj", cores[k - 1], t_fac)
    return TTTensor(cores)


class TestParallelVectorRound:
    def test_lossless_every_pivot(self, rng):
        shapes = [(4, 5, 6), (3, 3, 3, 3), (2, 6, 3, 4), (8, 9)]
        for shape in shapes:
            t = rand_sparse(rng, shape, 0.15)
            dense = t.to_dense()
            for pivot in range(len(shape)):
                tt = parallel_vector_round(build_structured_tt(t, pivot))
                assert np.array_equal(tt_to_full(tt), dense)

    def test_rank_bounds(self, rng):
        # deparallelisation caps each bond by the fiber count and by the
        # dense extent of the side away from the pivot (it is not rank
        # revealing, so the minimal-TT bound does not apply here)
        t = rand_sparse(rng, (4, 3, 5, 2), 0.2)
        d = t.ndim
        for pivot in range(d):
            s = build_structured_tt(t, pivot)
            tt = parallel_vector_round(s)
            r = s.num_fibers
            for k in range(1, d):
                if k <= pivot:
                    outer = math.prod(t.shape[:k])
                else:
                    outer = math.prod(t.shape[k:])
                assert tt.ranks[k] <= min(r, outer)

    def test_side_cores_orthonormal(self, rng):
        t = rand_sparse(rng, (4, 4, 4), 0.2)
        for pivot in range(3):
            tt = parallel_vector_round(build_structured_tt(t, pivot))
            for k in range(pivot):
                r0, n, r1 = tt.cores[k].shape
                m = tt.cores[k].reshape(r0 * n, r1)
                assert np.array_equal(m.T @ m, np.eye(r1))
            for k in range(pivot + 1, 3):
                r0, n, r1 = tt.cores[k].shape
                m = tt.cores[k].reshape(r0, n * r1)
                assert np.array_equal(m @ m.T, np.eye(r0))

    def test_matches_general_route_ranks(self, rng):
        t = rand_sparse(rng, (4, 3, 4), 0.25)
        for pivot in range(3):
            fast = parallel_vector_round(build_structured_tt(t, pivot))
            ref = dense_parallel_round(t, pivot)
            assert fast.ranks == ref.ranks
            assert np.allclose(tt_to_full(ref), t.to_dense(), atol=1e-13)

    def test_empty_tensor(self):
        t = SparseTensor((3, 4, 2), np.zeros((0, 3), dtype=np.int64), np.zeros(0))
        tt = parallel_vector_round(build_structured_tt(t, 1))
        assert np.array_equal(tt_to_full(tt), np.zeros((3, 4, 2)))

    def test_single_entry(self):
        t = SparseTensor((3, 4, 2), np.array([[1, 2, 0]]), np.array([5.0]))
        tt = parallel_vector_round(build_structured_tt(t, 0))
        assert tt.ranks == (1, 1, 1, 1)
        full = tt_to_full(tt)
        assert full[1, 2, 0] == 5.0
        assert np.count_nonzero(full) == 1

    def test_no_float_work(self, rng):
        t = rand_sparse(rng, (5, 5, 5), 0.2)
        s = build_structured_tt(t, 1)
        float_ops.reset()
        parallel_vector_round(s)
        assert float_ops.count == 0.0

    def test_index_train_writes_the_same_cores(self, rng, monkeypatch):
        # Writing the index form out does no deparallelisation: only the
        # pivot core is dense, and each map becomes its 0/1 core.
        module = importlib.import_module("sparsett.fasttt")
        t = rand_sparse(rng, (3, 4, 2, 5), 0.3)
        for pivot in range(t.ndim):
            exact = build_structured_tt(t, pivot)
            for k, core in enumerate(exact.cores):
                assert isinstance(core, np.ndarray) == (k == pivot)
            with monkeypatch.context() as m:
                m.setattr(module, "depar_quasi_perm", None)
                written = parallel_vector_round(exact)
            assert written.ranks == exact.ranks
            assert sum(c.size for c in written.cores) == exact.num_params
            assert np.array_equal(tt_to_full(written), t.to_dense())
            with pytest.raises(TypeError, match="parallel_vector_round expects an IndexTrain"):
                parallel_vector_round(written)

    def test_index_train_refuses_misfit_cores(self, rng):
        exact = build_structured_tt(rand_sparse(rng, (3, 4, 5), 0.3), 1)
        r = exact.num_fibers
        with pytest.raises(ValueError, match="3 modes need 3 cores"):
            IndexTrain(exact.dims, 1, exact.cores[:2], r)
        with pytest.raises(ValueError, match="core 1 does not fit"):
            IndexTrain(exact.dims, 1, [exact.cores[0], exact.cores[1][:, :-1], exact.cores[2]], r)
        q = exact.cores[0]
        with pytest.raises(ValueError, match="core 0 does not fit"):
            IndexTrain(exact.dims, 1, [QuasiPermMatrix(q.n_rows + 1, q.n_cols, q.col_to_row),
                                       *exact.cores[1:]], r)
        # A dense core off the pivot is named, not read as a map.
        dense = parallel_vector_round(exact).cores
        with pytest.raises(TypeError, match="core 2 is off pivot 1, so it must be a QuasiPermMatrix"):
            IndexTrain(exact.dims, 1, [*exact.cores[:2], dense[2]], r)
        # Zero bonds leave the maps' row counts to check.
        with pytest.raises(ValueError, match="core 0 does not fit bonds 1, 0 and extent 3"):
            IndexTrain((3, 4, 5), 1, [QuasiPermMatrix(7, 0, []), np.zeros((0, 4, 0)),
                                      QuasiPermMatrix(11, 0, [])], 0)
        with pytest.raises(ValueError, match="core 2 does not fit bonds 0, 1 and extent 5"):
            IndexTrain((3, 4, 5), 1, [QuasiPermMatrix(3, 0, []), np.zeros((0, 4, 0)),
                                      QuasiPermMatrix(11, 0, [])], 0)
        assert IndexTrain((3, 4, 5), 1, [QuasiPermMatrix(3, 0, []), np.zeros((0, 4, 0)),
                                         QuasiPermMatrix(5, 0, [])], 0).ranks == (1, 0, 0, 1)
        # The fiber count bounds every bond.
        for bad in (-1, max(exact.ranks[1:-1]) - 1):
            with pytest.raises(ValueError, match=f"fiber count {bad} is negative or below a bond"):
                IndexTrain(exact.dims, 1, exact.cores, bad)


class TestRoundingModes:
    @pytest.fixture
    def exact_train(self, rng):
        t = rand_sparse(rng, (5, 4, 6, 3), 0.2)
        return t, build_structured_tt(t, 1)

    def test_static_error_contract(self, exact_train):
        t, exact = exact_train
        dense = t.to_dense()
        norm = np.linalg.norm(dense)
        for eps in (0.5, 0.1, 0.01, 1e-14):
            out = efficient_tt_rounding(exact, eps)
            rel = np.linalg.norm(tt_to_full(out) - dense) / norm
            assert rel <= eps + 1e-12

    def test_dynamic_error_contract(self, exact_train):
        t, exact = exact_train
        dense = t.to_dense()
        norm = np.linalg.norm(dense)
        for eps in (0.5, 0.1, 0.01, 1e-14):
            out = dynamic_tt_rounding(exact, eps)
            rel = np.linalg.norm(tt_to_full(out) - dense) / norm
            assert rel <= eps + 1e-12

    def test_near_lossless_matches_oracle_ranks(self, exact_train):
        t, exact = exact_train
        out = efficient_tt_rounding(exact, 1e-14)
        oracle = tt_svd(t.to_dense(), 1e-14)
        assert out.ranks == oracle.ranks

    def test_huge_budget_gives_zero_train(self, exact_train):
        t, exact = exact_train
        out = efficient_tt_rounding(exact, 1.5)
        assert np.array_equal(tt_to_full(out), np.zeros(t.shape))

    def test_fixed_rank_targets(self, exact_train):
        t, exact = exact_train
        lossless = exact.ranks[1:-1]
        out = fixed_rank_rounding(exact, lossless)
        assert np.allclose(
            tt_to_full(out), t.to_dense(), atol=1e-12 * np.linalg.norm(t.values)
        )
        out = fixed_rank_rounding(exact, 1)
        assert all(r == 1 for r in out.ranks[1:-1])

    def test_fixed_rank_clamps(self, exact_train):
        _, exact = exact_train
        out = fixed_rank_rounding(exact, 999)
        assert all(
            r <= rt for r, rt in zip(out.ranks, exact.ranks)
        )

    def test_fixed_rank_error_above_unfolding_tail(self, exact_train):
        # no rank-r train can beat the best rank-r approximation of any
        # unfolding, so the achieved error must dominate that tail
        t, exact = exact_train
        dense = t.to_dense()
        out = fixed_rank_rounding(exact, 2)
        err = np.linalg.norm(tt_to_full(out) - dense)
        for k in range(1, t.ndim):
            m = dense.reshape(math.prod(t.shape[:k]), -1)
            sigma = np.linalg.svd(m, compute_uv=False)
            r_k = out.ranks[k]
            tail = np.sqrt((sigma[r_k:] ** 2).sum())
            assert err >= tail - 1e-10

    def test_negative_eps_rejected(self, exact_train):
        t, exact = exact_train
        for eps in (-1.0, float("nan"), math.inf):
            with pytest.raises(ValueError):
                efficient_tt_rounding(exact, eps)
            with pytest.raises(ValueError):
                dynamic_tt_rounding(exact, eps)
            with pytest.raises(ValueError):
                fasttt(t, eps=eps)

    def test_dense_train_refused(self, exact_train):
        # The rounding reads the pivot off the exact train in index form;
        # the same train written with dense cores carries no pivot.
        _, exact = exact_train
        dense = parallel_vector_round(exact)
        step = lambda k, m: svd_truncate_rank(m, 2)
        with pytest.raises(TypeError, match="round_from_pivot expects an IndexTrain"):
            round_from_pivot(dense, step, step)
        for rounding, arg in [
            (efficient_tt_rounding, 0.1), (dynamic_tt_rounding, 0.1), (fixed_rank_rounding, 2)
        ]:
            with pytest.raises(TypeError, match="expects an IndexTrain"):
                rounding(dense, arg)

    @pytest.mark.parametrize("shape", [(5,), (3, 4), (3, 4, 2, 5)], ids=lambda s: f"d{len(s)}")
    def test_empty_tensor_rounds_to_the_zero_train(self, shape):
        # Each rounding, called directly, on a train of zero fibers.
        t = SparseTensor(shape, np.zeros((0, len(shape)), dtype=np.int64), np.zeros(0))
        zero = tt_zero(shape)
        for pivot in range(len(shape)):
            exact = build_structured_tt(t, pivot)
            assert exact.num_fibers == 0
            assert exact.ranks[1:-1] == (0,) * (len(shape) - 1)
            for out in (
                efficient_tt_rounding(exact, 0.1),
                efficient_tt_rounding(exact, 1e-14),
                dynamic_tt_rounding(exact, 0.1),
                fixed_rank_rounding(exact, 2),
            ):
                assert out.ranks == zero.ranks
                assert all(map(np.array_equal, out.cores, zero.cores))

    @pytest.mark.parametrize(
        "shape, density",
        [
            ((7,), 0.5),
            ((6, 5), 0.3),
            ((5, 4, 3), 0.3),
            ((1, 4, 1, 3), 0.5),
            ((3, 4, 2), 0.0),
            ((3, 2, 4), 1.0),
            ((4, 3, 5, 2), 0.25),
            ((3, 4, 1, 3, 2), 0.3),
            ((3, 2, 3, 2, 2, 3), 0.2),
        ],
    )
    def test_index_form_matches_dense_route(self, rng, shape, density, monkeypatch):
        # The oracle: each policy's own steps, run by the dense-route
        # sweep of conftest on the 0/1 exact train.  The SVDs see the same
        # matrices, so the trains are equal, not close
        # (TestCarryIntoIndexMap checks the signs of zeros).
        module = importlib.import_module("sparsett.fasttt")
        settings = [
            ("static", {"eps": 0.2}, lambda e: efficient_tt_rounding(e, 0.2)),
            ("static", {"eps": 1e-14}, lambda e: efficient_tt_rounding(e, 1e-14)),
            ("dynamic", {"eps": 0.2}, lambda e: dynamic_tt_rounding(e, 0.2)),
            ("fixed_rank", {"fixed_ranks": 2}, lambda e: fixed_rank_rounding(e, 2)),
        ]
        for t in (rand_sparse(rng, shape, density) for _ in range(6)):
            for pivot in range(t.ndim):
                exact = build_structured_tt(t, pivot)
                dense = parallel_vector_round(exact)
                for mode, kwargs, rounding in settings:
                    got, _ = fasttt(t, pivot=pivot, mode=mode, **kwargs)
                    if t.nnz:
                        with monkeypatch.context() as m:
                            m.setattr(module, "round_from_pivot", lambda e, right, left: (
                                dense_round_from_pivot(dense.cores, e.pivot, right, left)
                            ))
                            want = rounding(exact)
                    else:
                        want = dense
                    assert got.ranks == want.ranks, (pivot, mode)
                    assert all(map(np.array_equal, got.cores, want.cores)), (pivot, mode)


class TestFastTTDriver:
    def test_peak_memory_below_the_dense_exact_train(self):
        # Only the pivot core is dense before the rounding; each other
        # core becomes dense at the carry into it.  Written densely, this
        # exact train is 124 MiB (the dense route peaked at 142 MiB).
        a = gen_random_sparse((10,) * 5 + (3,), 0.01, seed=1, fill_last_mode=True)
        tracemalloc.start()
        try:
            _, rep = fasttt(a, 0.1, mode="dynamic")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        r = (1, *rep.ranks_lossless, 1)
        dense = 8 * sum(r[k] * n * r[k + 1] for k, n in enumerate(a.shape))
        assert peak < dense / 4, (peak, dense)

    def test_norm_that_overflows_refused(self):
        # 1e160 squared overflows float64: rounding against an inf norm
        # would return ranks (1, 1) with a nan error.
        t = gen_random_sparse((6, 7, 8), 0.3, seed=3)
        values = t.values.copy()
        values[0] = 1e160
        with pytest.raises(ValueError, match="overflow"):
            fasttt(SparseTensor(t.shape, t.coords, values), eps=0.1)
        values[0] = 1e150
        big = SparseTensor(t.shape, t.coords, values)
        tt, rep = fasttt(big, eps=0.1)
        dense = big.to_dense()
        assert np.linalg.norm(tt_to_full(tt) - dense) <= 0.1 * np.linalg.norm(dense)
        assert rep.eps_actual <= 0.1

    def test_qtt_laplacian_pivot_step_is_sketched(self, lapack_shapes):
        # The paper's sparse-matrix case: the 32^3 Laplacian in quantized
        # form, whose 1008x1264 pivot unfolding has numerical rank 4.
        digits = (2,) * 15
        a = tensorize_matrix(gen_fdm(32, 32, 32), digits, digits)
        tt, rep = fasttt(a, eps=1e-10)
        assert tt.ranks == (1, 3, 3, 3, 3, 2, 4, 4, 4, 4, 2, 4, 4, 4, 3, 1)
        assert rep.eps_actual_method == "tt_difference"
        assert rep.eps_actual <= 1e-10
        assert (16, 1264) in lapack_shapes
        assert max(min(shape) for shape in lapack_shapes) < 256

    def test_stencil_steps_factor_only_their_nonzero_rows(self, lapack_shapes, cholqr2_shapes):
        # Criterion 6's input at pivot 1: both 23200x58 steps factor only
        # their nonzero rows, 1920 (the fibers) on the right step and
        # 58 * 58 on the left.  Both are below CholeskyQR2's 2**18 entries,
        # so gesdd takes them, and they keep the lossless ranks.
        dims = (20, 20, 20)
        a = tensorize_matrix(gen_fdm(20, 20, 20, coeffs="random", seed=1234), dims, dims)
        _, rep = fasttt(a, eps=1e-14, pivot=1)
        assert rep.num_fibers == 1920
        assert cholqr2_shapes == []
        assert lapack_shapes == [(1920, 58), (58 * 58, 58)]
        assert rep.ranks == rep.ranks_lossless == (58, 58)
        assert rep.eps_actual <= 5e-14

    def test_laplacian_rank_does_not_depend_on_row_order(self, lapack_shapes, monkeypatch):
        # Criterion 5's right step at eps 1e-14, 3364x58 on the 58 indices
        # of the pivot mode that occur: its budget is below gesdd's noise
        # on the 1920 nonzero rows, so the noise floor decides the rank.
        # It is 2 in every row order and memory order.
        pipeline = importlib.import_module("sparsett.fasttt")
        steps, step = [], pipeline.svd_truncate_delta

        def recording(m, delta):
            steps.append((m.copy(), delta))
            return step(m, delta)

        monkeypatch.setattr(pipeline, "svd_truncate_delta", recording)
        dims = (20, 20, 20)
        _, rep = fasttt(tensorize_matrix(gen_fdm(20, 20, 20), dims, dims), eps=1e-14, pivot=1)
        assert rep.ranks == (2, 2)
        m, delta = steps[0]
        assert m.shape == (3364, 58) and np.count_nonzero(m.any(axis=1)) == 1920
        lapack_shapes.clear()
        rng = np.random.default_rng(31)
        for _ in range(20):
            shuffled = m[rng.permutation(m.shape[0])]
            for layout in (np.ascontiguousarray, np.asfortranarray):
                assert svd_truncate_delta(layout(shuffled), delta).rank == 2
        assert lapack_shapes == [(1920, 58)] * 40

    def test_near_lossless_and_report(self, rng):
        t = rand_sparse(rng, (5, 6, 4), 0.2)
        tt, rep = fasttt(t)
        dense = t.to_dense()
        rel = np.linalg.norm(tt_to_full(tt) - dense) / np.linalg.norm(dense)
        assert rel <= 1e-11
        assert rep.eps_actual <= 1e-11
        assert rep.eps_actual_method == "tt_difference"
        assert rep.shape == t.shape
        assert rep.nnz == t.nnz
        assert rep.ranks == tt.ranks[1:-1]
        assert len(rep.ranks_lossless) == t.ndim - 1
        assert rep.flops_fasttt_model >= 0.0
        assert rep.flops_ttsvd_model > 0.0

    def test_inner_identity_fallback_states_its_resolution(self, rng, monkeypatch):
        # Past the cap the inner identity measures, at any eps: its reading
        # is the error, and its resolution is stated next to it.
        t = rand_sparse(rng, (5, 6, 4), 0.3)
        monkeypatch.setattr(importlib.import_module("sparsett.fasttt"), "_ERROR_MEASURE_CAP", 0)
        for eps in (1e-14, 0.01):
            _, rep = fasttt(t, eps=eps)
            assert isinstance(rep.eps_actual, float)
            assert rep.eps_actual == rep.eps_actual_inner
            assert rep.eps_actual_method == "inner_identity"
            assert rep.eps_actual_resolution == 1e-6
            assert rep.warnings == (
                "difference train over the 0-entry measure cap; "
                "eps_actual is the inner-product identity, resolution 1e-06",
            )

    def test_small_trains_round_on_one_blas_thread(self, rng, monkeypatch):
        ctl = importlib.import_module("sparsett.linalg")._openblas_threads()
        if ctl is None:
            pytest.skip("NumPy does not use a bundled OpenBLAS")
        get, set_ = ctl
        module = importlib.import_module("sparsett.fasttt")
        real = module.efficient_tt_rounding
        seen = []

        def spy(*args):
            seen.append(get())
            return real(*args)

        monkeypatch.setattr(module, "efficient_tt_rounding", spy)
        before = get()
        set_(2)
        try:
            t = rand_sparse(rng, (5, 6, 4), 0.2)
            fasttt(t)
            monkeypatch.setattr(module, "_ONE_THREAD_PARAMS", 0)
            fasttt(t)
            assert seen == [1, 2]
            assert get() == 2
        finally:
            set_(before)

    def test_eps_none_and_zero_mean_lossless_intent(self, rng):
        t = rand_sparse(rng, (4, 4, 4), 0.25)
        for eps in (None, 0.0):
            _, rep = fasttt(t, eps=eps)
            assert rep.eps == 1e-14
            assert rep.eps_actual <= 1e-11

    def test_pivot_invariance(self, rng):
        t = rand_sparse(rng, (4, 3, 2, 5), 0.2)
        dense = t.to_dense()
        norm = np.linalg.norm(dense)
        fulls = []
        for pivot in range(4):
            tt, rep = fasttt(t, pivot=pivot)
            assert rep.pivot == pivot
            fulls.append(tt_to_full(tt))
        for full in fulls:
            assert np.linalg.norm(full - dense) / norm <= 1e-11
        for a in fulls:
            for b in fulls:
                assert np.linalg.norm(a - b) / norm <= 1e-11

    def test_rank_equality_with_classical_oracle(self, rng):
        for shape, density in [((5, 4, 6), 0.15), ((3, 5, 3, 4), 0.1)]:
            t = rand_sparse(rng, shape, density)
            tt, _ = fasttt(t)
            oracle = tt_svd(t.to_dense(), 1e-14)
            assert tt.ranks == oracle.ranks

    def test_moderate_eps_contract(self, rng):
        t = rand_sparse(rng, (6, 5, 4), 0.3)
        dense = t.to_dense()
        norm = np.linalg.norm(dense)
        for mode in ("static", "dynamic"):
            for eps in (0.3, 0.05):
                tt, rep = fasttt(t, eps=eps, mode=mode)
                rel = np.linalg.norm(tt_to_full(tt) - dense) / norm
                assert rel <= eps + 1e-12
                assert rep.eps_actual <= eps + 1e-12
                assert rep.mode == mode

    def test_fixed_mode_has_one_spelling(self, rng):
        t = rand_sparse(rng, (4, 5, 4), 0.2)
        with pytest.raises(ValueError, match="mode must be one of"):
            fasttt(t, eps=None, mode="fixed", fixed_ranks=(2, 2))

    def test_empty_input(self):
        # No branch of its own: the exact train has zero bonds, every
        # rounding gives the zero train, and the difference measure reads 0.
        t = SparseTensor((3, 4, 5), np.zeros((0, 3), dtype=np.int64), np.zeros(0))
        for pivot in (None, 0, 1, 2):
            for mode, ranks in (("static", None), ("dynamic", None), ("fixed_rank", 2)):
                tt, rep = fasttt(t, pivot=pivot, mode=mode, fixed_ranks=ranks)
                assert tt.ranks == (1, 1, 1, 1)
                assert np.array_equal(tt_to_full(tt), np.zeros((3, 4, 5)))
                assert rep.pivot == (0 if pivot is None else pivot)
                assert rep.num_fibers == 0 and rep.ranks_lossless == (0, 0)
                assert rep.eps_actual == rep.eps_actual_inner == 0.0
                assert rep.eps_actual_method == "tt_difference"
                assert rep.warnings == ("input has no nonzeros; returning the zero train",)

    def test_fixed_rank_needs_ranks_even_when_empty(self, rng):
        empty = SparseTensor((3, 4, 5), np.zeros((0, 3), dtype=np.int64), np.zeros(0))
        for t in (empty, rand_sparse(rng, (3, 4, 5), 0.2)):
            with pytest.raises(ValueError):
                fasttt(t, mode="fixed_rank")

    def test_rank_target_forms_agree_at_auto_pivot(self, rng):
        t = rand_sparse(rng, (4, 5, 4), 0.2)
        pivot = select_p(t, target_ranks=2)
        want, _ = fasttt(t, eps=None, pivot=pivot, mode="fixed_rank", fixed_ranks=2)
        for ranks in (2, (2, 2), (1, 2, 2, 1)):
            for p in (None, pivot):
                tt, rep = fasttt(t, eps=None, pivot=p, mode="fixed_rank", fixed_ranks=ranks)
                assert rep.pivot == pivot
                assert all(np.array_equal(a, b) for a, b in zip(tt.cores, want.cores))

    def test_rank_targets_outside_fixed_mode_rejected(self, rng):
        t = rand_sparse(rng, (4, 5, 4), 0.2)
        for mode in ("static", "dynamic"):
            with pytest.raises(ValueError, match="fixed_rank mode"):
                fasttt(t, eps=0.3, mode=mode, fixed_ranks=(2, 2))

    def test_rank_targets_checked_even_when_empty(self, rng):
        empty = SparseTensor((3, 4, 5), np.zeros((0, 3), dtype=np.int64), np.zeros(0))
        for t in (empty, rand_sparse(rng, (3, 4, 5), 0.2)):
            with pytest.raises(ValueError, match="positive"):
                fasttt(t, mode="fixed_rank", fixed_ranks=(0, 2))

    def test_single_mode_round_trip(self):
        t = SparseTensor((7,), np.array([[1], [4], [6]]), np.array([2.0, -1.0, 0.5]))
        for mode, ranks in (("static", None), ("dynamic", None), ("fixed_rank", ())):
            tt, rep = fasttt(t, mode=mode, fixed_ranks=ranks)
            assert tt.dims == (7,)
            assert np.array_equal(tt_to_full(tt), t.to_dense())
            assert rep.num_fibers == 1
            assert rep.ranks == () and rep.eps_actual == 0.0

    def test_rejects_dense_array(self, rng):
        with pytest.raises(TypeError):
            fasttt(rng.standard_normal((3, 3)))


def unused_index_tensor(rng, nnz=400) -> SparseTensor:
    """A tensor of 1,152,000 dense entries, above the compaction gate,
    that leaves indices unused in an edge mode (0 uses the even ones),
    an interior mode (1 uses every third), a mode where one index occurs
    (2 uses only 5) and none in the other edge mode (3)."""
    coords = np.stack(
        [2 * rng.integers(0, 20, nnz), 3 * rng.integers(0, 10, nnz),
         np.full(nnz, 5), np.arange(nnz) % 60],
        axis=1,
    )
    coords = np.unique(coords, axis=0)
    return SparseTensor((40, 30, 16, 60), coords, rng.standard_normal(len(coords)))


class TestModeCompaction:
    @staticmethod
    def built_shapes(monkeypatch):
        """Shapes of the tensors the pipeline builds its exact train from."""
        module = importlib.import_module("sparsett.fasttt")
        shapes, build = [], module.build_structured_tt
        monkeypatch.setattr(module, "build_structured_tt", lambda t, p: shapes.append(t.shape) or build(t, p))
        return shapes

    def test_decomposes_the_occurring_indices(self, rng, monkeypatch):
        a = unused_index_tensor(rng)
        unused = [np.setdiff1d(np.arange(n), a.coords[:, k]) for k, n in enumerate(a.shape)]
        assert [u.size for u in unused] == [20, 20, 15, 0]
        zeros = np.stack([rng.integers(0, n, 500) for n in a.shape], axis=1)
        lin = np.ravel_multi_index(zeros.T, a.shape)
        zeros = zeros[~np.isin(lin, np.ravel_multi_index(a.coords.T, a.shape))]
        tol = 1e-13 * np.abs(a.values).max()
        shapes = self.built_shapes(monkeypatch)
        for pivot in range(a.ndim):
            for mode, eps in (("static", 1e-14), ("static", 0.3), ("dynamic", 0.3)):
                shapes.clear()
                tt, rep = fasttt(a, eps=eps, pivot=pivot, mode=mode)
                assert shapes == [(20, 10, 1, 60)]
                assert tt.dims == rep.shape == a.shape
                for k, u in enumerate(unused):
                    assert not tt.cores[k][:, u].any(), (pivot, k)
                if eps < 1e-13:
                    assert np.abs(tt_entries(tt, a.coords) - a.values).max() <= tol
                    assert np.abs(tt_entries(tt, zeros)).max() <= tol
                # Lossless, both routes keep the unfolding ranks.  At a
                # loose eps a kept bond can exceed what the far side's
                # occurring indices allow; compacted, the QR sweep then
                # shrinks it, so no bond is above the uncompacted route's.
                exact = build_structured_tt(a, pivot)
                rounding = efficient_tt_rounding if mode == "static" else dynamic_tt_rounding
                whole = rounding(exact, eps).ranks
                if eps < 1e-13:
                    assert tt.ranks == whole, pivot
                else:
                    assert all(map(int.__le__, tt.ranks, whole)), (pivot, mode, tt.ranks, whole)
                assert rep.num_fibers == exact.num_fibers
                assert rep.ranks_lossless == exact.ranks[1:-1]
                assert rep.flops_fasttt_model == flops_fasttt(a.shape, pivot, exact.ranks, tt.ranks)
                assert rep.flops_ttsvd_model == flops_ttsvd(a.shape, tt.ranks)
                assert rep.eps_actual_method == "tt_difference"
                assert rep.eps_actual <= eps + 1e-12

    def test_runs_at_or_under_the_gate_are_not_compacted(self, rng, monkeypatch):
        # At or under the 2**20-entry gate the exact train is built from
        # the input as given, in every mode; one entry past the gate
        # compacts.
        module = importlib.import_module("sparsett.fasttt")
        shapes = self.built_shapes(monkeypatch)
        at_gate = SparseTensor((1024, 1024), [[0, 3], [2, 5], [2, 9], [7, 3]], [1.0, 2.0, -1.0, 0.5])
        above = SparseTensor((1025, 1024), at_gate.coords, at_gate.values)
        modes = [{}, {"mode": "dynamic", "eps": 0.2}, {"mode": "fixed_rank", "fixed_ranks": 2}]
        runs = [(t, kwargs) for t in (at_gate, rand_sparse(rng, (9, 8, 7), 0.05)) for kwargs in modes]
        with monkeypatch.context() as m:
            m.setattr(module, "_compact", lambda x: pytest.fail("compacted"))
            for t, kwargs in runs:
                shapes.clear()
                fasttt(t, **kwargs)
                assert shapes == [t.shape]
        for kwargs in modes:
            shapes.clear()
            fasttt(above, **kwargs)
            assert shapes == [(3, 3)]

    @pytest.mark.parametrize("target", [2, 40])
    def test_fixed_rank_runs_past_the_gate_are_compacted(self, rng, monkeypatch, target):
        # The mode picks only the step rule: the train is built on the
        # compacted tensor, so the rank rule sees the compacted
        # unfoldings and no bond holds only zero singular values.
        a = unused_index_tensor(rng)
        unused = [np.setdiff1d(np.arange(n), a.coords[:, k]) for k, n in enumerate(a.shape)]
        shapes = self.built_shapes(monkeypatch)
        ranks = set()
        for pivot in range(a.ndim):
            shapes.clear()
            tt, rep = fasttt(a, pivot=pivot, mode="fixed_rank", fixed_ranks=target)
            assert shapes == [(20, 10, 1, 60)]
            assert tt.dims == rep.shape == a.shape
            for k, u in enumerate(unused):
                assert not tt.cores[k][:, u].any(), (pivot, k)
            exact = build_structured_tt(a, pivot)
            whole = fixed_rank_rounding(exact, target)
            assert all(map(int.__le__, tt.ranks, whole.ranks)), (pivot, tt.ranks, whole.ranks)
            assert abs(rep.eps_actual - tt_relative_error(exact, whole)) <= 1e-12
            assert rep.eps_actual_method == "tt_difference"
            assert rep.num_fibers == exact.num_fibers
            assert rep.ranks_lossless == exact.ranks[1:-1]
            assert rep.flops_fasttt_model == flops_fasttt(a.shape, pivot, exact.ranks, tt.ranks)
            assert rep.flops_ttsvd_model == flops_ttsvd(a.shape, tt.ranks)
            ranks.add(tt.ranks)
        assert len(ranks) == 1, ranks

    def test_every_index_occurring_is_not_compacted(self, rng):
        # Past the gate with every index in use, row 1099 in the last of
        # about 51,000 entries only: the rows sampled first need not show
        # it, and the pass over all rows then finds nothing to drop.
        lin = rng.choice(1099 * 1000, 50_000, replace=False)
        coords = [*np.stack(np.divmod(lin, 1000), axis=1), *([i, i % 1000] for i in range(1100))]
        coords = np.unique(coords, axis=0)
        t = SparseTensor((1100, 1000), coords, rng.standard_normal(len(coords)))
        assert np.count_nonzero(t.coords[:, 0] == 1099) == 1
        compacted, occurring = importlib.import_module("sparsett.fasttt")._compact(t)
        assert compacted is t and occurring is None

    def test_empty_input_above_the_gate(self):
        t = SparseTensor((2000, 3, 1000), np.zeros((0, 3), dtype=np.int64), np.zeros(0))
        tt, rep = fasttt(t)
        assert tt.dims == rep.shape == t.shape
        assert tt.ranks == (1, 1, 1, 1)
        assert not any(c.any() for c in tt.cores)
        assert rep.eps_actual == 0.0

    def test_repeated_calls_give_byte_identical_trains(self, rng):
        a = unused_index_tensor(rng)
        for kwargs in ({"eps": 1e-14}, {"eps": 0.3, "mode": "dynamic"}):
            first, _ = fasttt(a, **kwargs)
            second, _ = fasttt(a, **kwargs)
            assert all(x.tobytes() == y.tobytes() for x, y in zip(first.cores, second.cores))


def modeled_cost(shape, pivot0, rt, r, c=1.0):
    d = len(shape)
    p = pivot0 + 1
    n = [None] + list(shape)
    frt = [1] + list(rt) + [1]
    fr = [1] + list(r) + [1]

    def f(m, nn):
        return m * nn * min(m, nn)

    total = f(frt[p - 1] * n[p], frt[p])
    for i in range(p + 1, d):
        total += f(fr[i - 1] * n[i], frt[i])
    for i in range(2, p + 1):
        total += f(frt[i - 1], n[i] * fr[i])
    return c * total


def brute_select(a: SparseTensor, target=None) -> int:
    d = a.ndim
    if d == 1:
        return 0
    size = math.prod(a.shape)
    best, best_p = math.inf, 0
    for pivot in range(d):
        fixed = {tuple(np.delete(c, pivot)) for c in a.coords}
        fibers = len(fixed)
        rt, r = [], []
        for k in range(1, d):
            left = math.prod(a.shape[:k])
            right = size // left
            bound = min(fibers, left if k <= pivot else right)
            rt.append(bound)
            feas = min(bound, left, right)
            if target is not None:
                feas = min(feas, target[k - 1])
            r.append(feas)
        cost = modeled_cost(a.shape, pivot, rt, r)
        if cost < best:
            best, best_p = cost, pivot
    return best_p


class TestSelectP:
    def test_single_mode(self):
        t = SparseTensor((5,), np.array([[2]]), np.array([1.0]))
        assert select_p(t) == 0

    def test_matches_independent_model(self, rng):
        shapes = [(4, 9, 3), (2, 12, 2, 6), (7, 3, 5), (3, 4, 5, 2, 3)]
        tensors = [
            rand_sparse(np.random.default_rng(100 + i), shape, 0.08)
            for i, shape in enumerate(shapes)
        ]
        for t in tensors + list(fiber_cases(rng)):
            interior = tuple(1 + k % 3 for k in range(t.ndim - 1))
            assert select_p(t) == brute_select(t)
            assert select_p(t, target_ranks=2) == brute_select(t, (2,) * (t.ndim - 1))
            assert select_p(t, target_ranks=interior) == brute_select(t, interior)
            full = (1,) + interior + (1,)
            assert select_p(t, target_ranks=full) == brute_select(t, interior)

    def test_target_ranks_respected(self, rng):
        t = rand_sparse(rng, (4, 8, 3, 5), 0.1)
        assert select_p(t, target_ranks=(2, 2, 2)) == brute_select(t, (2, 2, 2))

    def test_tie_goes_to_smaller_index(self):
        coords = np.array(
            [[i, j, k] for i in range(3) for j in range(3) for k in range(3)]
        )
        t = SparseTensor((3, 3, 3), coords, np.arange(1.0, 28.0))
        assert select_p(t) == 0

    def test_rejects_dense_array(self, rng):
        with pytest.raises(TypeError, match="select_p expects a SparseTensor"):
            select_p(rng.standard_normal((3, 3)))

class TestFlopsModel:
    def test_two_mode_hand_count(self):
        # single SVD of the (rt0 * n1) x rt1 spine with rt0 = 1
        got = flops_fasttt((6, 8), pivot=0, ranks_lossless=(5,), ranks_final=(2,))
        assert got == 6 * 5 * 5

    def test_last_pivot_hand_count(self):
        # pivot at the last of two modes: spine SVD plus one left-side step
        got = flops_fasttt((6, 8), pivot=1, ranks_lossless=(5,), ranks_final=(2,))
        want = (5 * 8) * 1 * 1 + 5 * (8 * 1) * 5
        assert got == want

    def test_single_mode_is_free(self):
        assert flops_fasttt((9,), 0, (), ()) == 0.0


def approximants(reference, rng):
    """Trains to measure against ``reference``: TT-SVDs of its dense
    form at three budgets, one of them near-lossless, the zero train,
    and a perturbed copy whose ranks exceed the reference's."""
    full = tt_to_full(reference)
    for eps in (0.3, 0.05, 1e-14):
        yield tt_svd(full, eps)
    yield tt_zero(reference.dims)
    noise = rand_tt(rng, reference.dims, [r + 2 for r in reference.ranks[1:-1]])
    scale = 1e-3 * tt_norm(reference) / tt_norm(noise)
    yield tt_add(reference, TTTensor([noise.cores[0] * scale, *noise.cores[1:]]))


MEASURE_SHAPES = [(7,), (6, 5), (5, 4, 3), (4, 3, 5, 2), (3, 2, 3, 2, 3), (3, 2, 3, 2, 2, 3)]


def traced_measure(monkeypatch, exact, approx):
    """Run the difference measure, recording every QR input in call
    order.  Returns the reading, the transposed unfolding of the pivot
    core of the difference train (a view of that core) and the inputs."""
    module = importlib.import_module("sparsett.fasttt")
    formed, inputs = [], []

    def add(a, b):
        formed.append(tt_add(a, b))
        return formed[-1]

    def qr(m):
        inputs.append(m)
        return qr_economic(m)

    with monkeypatch.context() as m:
        m.setattr(module, "tt_add", add)
        m.setattr(module, "qr_economic", qr)
        m.setattr(ttformat, "qr_economic", qr)
        got = tt_relative_error(exact, approx)
    (diff,) = formed
    w, h, _ = diff.cores[-1].shape
    return got, diff.cores[-1].reshape(w, h).T, inputs


class TestErrorMeasures:
    def test_tt_relative_error_matches_dense(self, rng):
        t = rand_sparse(rng, (5, 5, 5), 0.2)
        exact = build_structured_tt(t, 0)
        rounded, _ = fasttt(t, eps=0.3)
        got = tt_relative_error(exact, rounded)
        dense = t.to_dense()
        want = np.linalg.norm(tt_to_full(rounded) - dense) / np.linalg.norm(dense)
        assert got == pytest.approx(want, rel=1e-8, abs=1e-12)

    def test_inner_identity_agrees(self, rng):
        t = rand_sparse(rng, (6, 5, 4), 0.3)
        rounded, _ = fasttt(t, eps=0.2)
        dense = t.to_dense()
        want = np.linalg.norm(tt_to_full(rounded) - dense) / np.linalg.norm(dense)
        got = sparse_inner_error(t, rounded)
        assert got == pytest.approx(want, abs=1e-6)

    def test_inner_identity_refuses_mismatched_extents(self, rng):
        t = rand_sparse(rng, (6, 5, 4), 0.3)
        with pytest.raises(ValueError, match="tensor and train must share mode extents"):
            sparse_inner_error(t, rand_tt(rng, (6, 5, 3), (2, 2)))

    def test_exact_train_measures_zero(self, rng):
        t = rand_sparse(rng, (4, 4, 4), 0.3)
        exact = build_structured_tt(t, 1)
        rounded, _ = fasttt(t)
        assert tt_relative_error(exact, rounded) <= 1e-12

    @pytest.mark.parametrize("shape", MEASURE_SHAPES, ids=lambda s: f"d{len(s)}")
    def test_exact_reference_matches_full_sweep(self, rng, shape):
        t = rand_sparse(rng, shape, 0.3)
        for pivot in range(len(shape)):
            exact = build_structured_tt(t, pivot)
            dense = parallel_vector_round(exact)
            norm = tt_norm(dense)
            for approx in approximants(dense, rng):
                got = tt_relative_error(exact, approx)
                want = full_sweep_relative_error(dense, approx, norm)
                assert abs(got - want) <= 1e-14

    @pytest.mark.parametrize(
        "grid, dims, pivot", [(20, (20, 20, 20), 1), (8, (2,) * 9, None)], ids=["fdm20", "qtt8"]
    )
    def test_tall_pivot_core_is_never_factored(self, monkeypatch, grid, dims, pivot):
        # Criterion 5's 20^3 Laplacian at pivot 1, and the 8^3 Laplacian in
        # quantized form (9 modes of 4) at select_p's pivot: the sweep runs
        # toward the pivot core, so no QR is as tall as its unfolding.
        a = tensorize_matrix(gen_fdm(grid, grid, grid), dims, dims)
        pivot = select_p(a) if pivot is None else pivot
        approx, _ = fasttt(a, eps=1e-14, pivot=pivot)
        exact = build_structured_tt(a, pivot)
        got, unfolding, inputs = traced_measure(monkeypatch, exact, approx)
        h, w = unfolding.shape
        assert h > w
        assert max(m.shape[0] for m in inputs) < h
        assert got <= 1e-12

    def test_last_pivot_keeps_the_orientation(self, rng, monkeypatch):
        # There y is one column wide, so the pivot unfolding is wide and
        # its QR, the sweep's first, shrinks the bond.
        t = rand_sparse(rng, (8, 3, 5, 9, 4), 0.1)
        exact = build_structured_tt(t, 4)
        approx, _ = fasttt(t, eps=0.1, pivot=4)
        _, unfolding, inputs = traced_measure(monkeypatch, exact, approx)
        h, w = unfolding.shape
        assert h == 4 < w
        assert np.shares_memory(inputs[0], unfolding)

    def test_orientation_follows_the_pivot_unfolding(self, rng, monkeypatch):
        # A tall pivot unfolding is never factored; a wide one is.  Both
        # arise over the measure's shapes and pivots.
        seen = set()
        for shape in MEASURE_SHAPES:
            t = rand_sparse(rng, shape, 0.3)
            for pivot in range(1, len(shape)):
                exact = build_structured_tt(t, pivot)
                dense = parallel_vector_round(exact)
                for approx in approximants(dense, rng):
                    _, unfolding, inputs = traced_measure(monkeypatch, exact, approx)
                    tall = unfolding.shape[0] > unfolding.shape[1]
                    assert any(np.shares_memory(m, unfolding) for m in inputs) != tall
                    seen.add(tall)
        assert seen == {True, False}

    def test_measure_is_the_pipelines_own(self):
        # Not exported: fasttt is its one caller, and it decides the cap.
        module = importlib.import_module("sparsett.fasttt")
        assert "tt_relative_error" not in sparsett.__all__
        assert "tt_relative_error" not in module.__all__

    def test_measure_refuses_a_dense_reference(self, rng):
        # The measure reads its pivot off the exact train in index form;
        # the same train written with dense cores carries no pivot.
        exact = build_structured_tt(rand_sparse(rng, (4, 5, 4), 0.3), 1)
        dense = parallel_vector_round(exact)
        with pytest.raises(TypeError, match="tt_relative_error expects an IndexTrain"):
            tt_relative_error(dense, dense)

    def test_measure_refuses_mismatched_extents(self, rng):
        exact = build_structured_tt(rand_sparse(rng, (4, 5, 4), 0.3), 1)
        with pytest.raises(ValueError, match="trains must share mode extents"):
            tt_relative_error(exact, rand_tt(rng, (4, 5, 3), (2, 2)))

    def test_exact_train_checked_by_its_index_maps(self):
        # The exact train is checked where it is made: a map whose kept
        # rows do not increase is refused by the IndexTrain constructor,
        # which names the core and its side, so no train that reaches the
        # rounding or the measure's reference is unchecked.
        t = gen_random_sparse((4, 5, 4, 3), 0.3, seed=1)
        exact = build_structured_tt(t, 2)
        for k, side in [(0, "left"), (3, "right")]:
            q = exact.cores[k]
            assert q.n_cols > 1
            cores = list(exact.cores)
            cores[k] = QuasiPermMatrix(q.n_rows, q.n_cols, q.col_to_row[::-1])
            with pytest.raises(ContractViolationError) as info:
                IndexTrain(exact.dims, 2, cores, exact.num_fibers)
            assert str(info.value) == (
                f"the kept rows of core {k}, {side} of pivot 2, do not strictly increase"
            )

    def test_resolution_follows_the_method(self):
        # Read from the method, never passed, so no report can state a
        # resolution its method does not have (the values: test_cli.py).
        assert "eps_actual_resolution" not in {f.name for f in dataclasses.fields(DecompositionReport)}
