import numpy as np
import pytest

from sparsett import (
    ContractViolationError,
    IndexTrain,
    QuasiPermMatrix,
    flops_ttsvd,
    full_ranks,
    parallel_vector_round,
    round_from_pivot,
    tt_svd,
    tt_to_full,
)
from sparsett.linalg import svd_truncate_rank
from sparsett.fasttt import _carry_into
from conftest import einsum_qr_sweep, rand_index_train


class TestTTSVD:
    def test_rank_one_input(self, rng):
        vecs = [rng.standard_normal(n) for n in (4, 5, 3)]
        a = np.einsum("i,j,k->ijk", *vecs)
        t = tt_svd(a, 1e-13)
        assert t.ranks == (1, 1, 1, 1)
        assert np.allclose(tt_to_full(t), a, atol=1e-12 * np.linalg.norm(a))

    def test_near_lossless(self, rng):
        a = rng.standard_normal((5, 6, 4, 3))
        t = tt_svd(a, 1e-13)
        rel = np.linalg.norm(tt_to_full(t) - a) / np.linalg.norm(a)
        assert rel <= 1e-12

    def test_error_within_budget(self, rng):
        a = rng.standard_normal((6, 7, 5))
        for eps in (0.5, 0.2, 0.05):
            t = tt_svd(a, eps)
            rel = np.linalg.norm(tt_to_full(t) - a) / np.linalg.norm(a)
            assert rel <= eps + 1e-12

    def test_ranks_monotone_in_eps(self, rng):
        a = rng.standard_normal((5, 5, 5))
        prev = None
        for eps in (0.4, 0.1, 0.01, 1e-10):
            ranks = tt_svd(a, eps).ranks
            if prev is not None:
                assert all(r >= p for r, p in zip(ranks, prev))
            prev = ranks

    def test_matrix_budget_allows_zero(self, rng):
        a = rng.standard_normal((6, 6))
        t = tt_svd(a, 1.01)
        assert tt_norm_is_zero(t)
        rel = np.linalg.norm(tt_to_full(t) - a) / np.linalg.norm(a)
        assert rel <= 1.01

    def test_single_mode(self, rng):
        a = rng.standard_normal(7)
        t = tt_svd(a, 0.5)
        assert np.allclose(tt_to_full(t), a, atol=1e-14)

    def test_rejects_bad_eps(self, rng):
        a = rng.standard_normal((3, 3))
        for eps in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                tt_svd(a, eps)

    def test_norm_that_overflows_refused(self, rng):
        # 1e160 squared overflows float64: the norm reads inf, every step
        # would truncate to rank 0, and the result would be the zero train.
        a = rng.standard_normal((6, 7, 8))
        a[0, 0, 0] = 1e160
        with pytest.raises(ValueError, match="overflow"):
            tt_svd(a, 0.1)
        a[0, 0, 0] = 1e150
        t = tt_svd(a, 0.1)
        assert np.linalg.norm(tt_to_full(t) - a) <= 0.1 * np.linalg.norm(a)

    def test_gram_step_within_eps(self, rng, lapack_shapes):
        # The 256x256 second step keeps far too much energy for the sketch
        # and is factored by the Gram route: no full SVD of that shape.
        a = rng.standard_normal((16, 16, 16, 16))
        t = tt_svd(a, 0.1)
        assert (256, 256) not in lapack_shapes
        assert t.ranks[2] < 256
        rel = np.linalg.norm(tt_to_full(t) - a) / np.linalg.norm(a)
        assert rel <= 0.1


def tt_norm_is_zero(t) -> bool:
    return all(np.all(c == 0.0) for c in t.cores)


class TestRoundFromPivot:
    @pytest.mark.parametrize("pivot", [0, 2, 4])
    def test_matches_einsum_carries(self, rng, pivot):
        # Reference: the same sweeps on the 0/1 cores written out, with
        # every carry and every R factor absorbed by einsum.  Fixed target
        # ranks keep both truncations at the same rank.
        t = rand_index_train(rng, (3, 4, 5, 4, 3), (3, 9, 8, 3), pivot)

        targets = (2, 5, 4, 2)
        right = lambda k, m: svd_truncate_rank(m, targets[k])
        left = lambda k, m: svd_truncate_rank(m, targets[k - 1])
        got = round_from_pivot(t, right, left)

        want = list(parallel_vector_round(t).cores)
        for k in range(pivot, len(want) - 1):
            r0, n, r1 = want[k].shape
            res = svd_truncate_rank(want[k].reshape(r0 * n, r1), targets[k])
            want[k] = res.u.reshape(r0, n, res.rank)
            want[k + 1] = np.einsum("ba,bcd->acd", res.vt.T * res.s, want[k + 1])
        if pivot > 0:
            einsum_qr_sweep(want, pivot)
        for k in range(pivot, 0, -1):
            r0, n, r1 = want[k].shape
            res = svd_truncate_rank(want[k].reshape(r0, n * r1).T, targets[k - 1])
            want[k] = res.u.T.reshape(res.rank, n, r1)
            want[k - 1] = np.einsum("abc,cd->abd", want[k - 1], res.vt.T * res.s)

        assert got.ranks == (1, 2, 5, 4, 2, 1)
        for g, w in zip(got.cores, want):
            assert g.shape == w.shape
            assert np.linalg.norm(g - w) <= 1e-12 * np.linalg.norm(w)

    @pytest.mark.parametrize("dims, ranks", [((6,), ()), ((3, 4, 5, 4, 3), (3, 9, 8, 3))])
    def test_writable_input_cores_unchanged(self, rng, dims, ranks):
        # The train holds a read-only view of the caller's writable pivot
        # core; neither the sweeps nor the QR sweep back to the pivot may
        # write into it.
        d = len(dims)
        step = lambda k, m: svd_truncate_rank(m, 2)
        for pivot in sorted({0, d // 2, d - 1}):
            base = rand_index_train(rng, dims, ranks, pivot)
            core = np.array(base.cores[pivot])
            cores = [*base.cores[:pivot], core, *base.cores[pivot + 1 :]]
            t = IndexTrain(dims, pivot, cores, base.num_fibers)
            assert np.shares_memory(core, t.cores[pivot])
            assert core.flags.writeable and not t.cores[pivot].flags.writeable
            before = core.copy()
            round_from_pivot(t, step, step)
            assert np.array_equal(core, before)


@pytest.mark.parametrize("k, side", [(0, "left"), (3, "right")])
def test_index_train_refuses_kept_rows_out_of_order(rng, k, side):
    # Distinct kept rows in decreasing order still give an orthonormal
    # 0/1 core; the constructor refuses the order, and says so.
    base = rand_index_train(rng, (3, 4, 5, 4), (3, 6, 4), 2)
    q = base.cores[k]
    flipped = QuasiPermMatrix(q.n_rows, q.n_cols, q.col_to_row[::-1])
    dense = flipped.to_dense()
    assert np.array_equal(dense.T @ dense, np.eye(q.n_cols))
    cores = list(base.cores)
    cores[k] = flipped
    with pytest.raises(ContractViolationError) as info:
        IndexTrain(base.dims, 2, cores, base.num_fibers)
    assert str(info.value) == f"the kept rows of core {k}, {side} of pivot 2, do not strictly increase"


class TestCarryIntoIndexMap:
    # The carry into an index map is placed, not multiplied, yet it must
    # give the bits of the product with the 0/1 core: LAPACK reads the
    # sign of a zero, and the product turns every -0.0 into +0.0.
    q = QuasiPermMatrix(6, 3, [0, 2, 5])
    carry = np.array([[1.5, -0.0], [-0.0, 0.0], [-2.0, -0.0]])

    def test_left_of_the_pivot(self):
        dense = self.q.to_dense().reshape(2, 3, 3)
        want = np.tensordot(dense, self.carry, axes=(2, 0))
        got = _carry_into(self.q, self.carry, True, 3)
        assert got.shape == want.shape == (2, 3, 2)
        assert got.tobytes() == want.tobytes()
        assert not np.signbit(got[got == 0]).any()

    def test_right_of_the_pivot(self):
        dense = np.ascontiguousarray(self.q.to_dense().T).reshape(3, 3, 2)
        want = np.tensordot(self.carry, dense, axes=(0, 0))
        got = _carry_into(self.q, self.carry, False, 3)
        assert got.shape == want.shape == (2, 3, 2)
        assert got.tobytes() == want.tobytes()
        assert not np.signbit(got[got == 0]).any()


class TestFullRanks:
    def test_interior(self):
        assert full_ranks((3, 4, 5), (2, 6)) == (1, 2, 6, 1)

    def test_one_int_for_every_bond(self):
        assert full_ranks((3, 4, 5), 2) == (1, 2, 2, 1)
        assert full_ranks((7,), np.int64(3)) == (1, 1)

    def test_already_full(self):
        assert full_ranks((3, 4, 5), (1, 2, 6, 1)) == (1, 2, 6, 1)

    def test_bad_edges(self):
        with pytest.raises(ValueError):
            full_ranks((3, 4), (2, 2, 2))

    def test_bad_length(self):
        with pytest.raises(ValueError):
            full_ranks((3, 4, 5), (2,))


class TestFlopsTTSVD:
    def test_two_mode_single_term(self):
        # one SVD of the 6 x 7 unfolding at full precision
        got = flops_ttsvd((6, 7), (4,))
        assert got == 6 * 7 * 6

    def test_three_mode_hand_count(self):
        # first unfolding 3 x 20 then (r1*4) x 5
        r1, r2 = 2, 3
        want = 3 * 20 * 3 + (r1 * 4) * 5 * min(r1 * 4, 5)
        assert flops_ttsvd((3, 4, 5), (r1, r2)) == want

    def test_single_mode(self):
        assert flops_ttsvd((9,), ()) == 0.0
