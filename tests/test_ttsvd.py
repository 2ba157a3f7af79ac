import numpy as np
import pytest

from sparsett import (
    ContractViolationError,
    QuasiPermMatrix,
    TTTensor,
    efficient_tt_rounding,
    flops_ttsvd,
    full_ranks,
    round_from_pivot,
    tt_add,
    tt_right_orthogonalize,
    tt_svd,
    tt_to_full,
)
from sparsett.linalg import qr_economic, svd_truncate_rank
from sparsett.ttsvd import _carry_into, _rows_orthonormal
from conftest import einsum_qr_sweep, rand_tt, rank1_tt


def classical_rounding(t, eps):
    """Orthogonalize right to left, then round from pivot 0 with the
    per-step tolerance ``eps * norm / sqrt(d - 1)``."""
    return efficient_tt_rounding(tt_right_orthogonalize(t), 0, eps)


def orthogonalized_cores(t, pivot):
    """Cores of ``t`` orthogonalized around ``pivot``: QR sweeps from both
    ends, with every R factor absorbed by einsum."""
    cores = [c.copy() for c in t.cores]
    for k in range(pivot):
        r0, n, r1 = cores[k].shape
        q, r = qr_economic(cores[k].reshape(r0 * n, r1))
        cores[k] = q.reshape(r0, n, -1)
        cores[k + 1] = np.einsum("ab,bcd->acd", r, cores[k + 1])
    einsum_qr_sweep(cores, pivot)
    return cores


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


def tt_norm_is_zero(t) -> bool:
    return all(np.all(c == 0.0) for c in t.cores)


class TestTTRounding:
    def test_doubled_train_recompresses(self, rng):
        a = rng.standard_normal((4, 5, 6))
        x = tt_svd(a, 1e-13)
        doubled = tt_add(x, x)
        r = classical_rounding(doubled, 1e-13)
        assert r.ranks == x.ranks
        assert np.allclose(tt_to_full(r), 2.0 * a, atol=1e-11 * np.linalg.norm(a))

    def test_minimal_ranks_stable(self, rng):
        a = rng.standard_normal((4, 4, 4))
        x = tt_svd(a, 0.3)
        r = classical_rounding(x, 1e-13)
        assert r.ranks == x.ranks
        assert np.allclose(tt_to_full(r), tt_to_full(x), atol=1e-12)

    def test_error_within_budget(self, rng):
        t = rand_tt(rng, (5, 6, 4), (4, 4))
        full = tt_to_full(t)
        for eps in (0.5, 0.1, 0.01):
            r = classical_rounding(t, eps)
            rel = np.linalg.norm(tt_to_full(r) - full) / np.linalg.norm(full)
            assert rel <= eps + 1e-12

    def test_rank_one_pad(self, rng):
        vecs = [rng.standard_normal(n) for n in (3, 4, 5)]
        x = rank1_tt(vecs)
        padded = tt_add(x, TTTensor([x.cores[0] * 0.0, *x.cores[1:]]))
        r = classical_rounding(padded, 1e-13)
        assert r.ranks == (1, 1, 1, 1)


class TestRoundFromPivot:
    @pytest.mark.parametrize("pivot", [0, 2, 4])
    def test_matches_einsum_carries(self, rng, pivot):
        # Reference: the same sweeps with every carry and every R factor
        # absorbed by einsum.  Fixed target ranks keep both truncations
        # at the same rank.
        t = rand_tt(rng, (3, 4, 5, 4, 3), (3, 9, 8, 3))
        cores = orthogonalized_cores(t, pivot)
        orth = TTTensor(cores)

        targets = (2, 5, 4, 2)
        right = lambda k, m: svd_truncate_rank(m, targets[k])
        left = lambda k, m: svd_truncate_rank(m, targets[k - 1])
        got = round_from_pivot(orth, pivot, right, left)

        want = [c.copy() for c in cores]
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
        # The train holds read-only views of the caller's writable cores;
        # neither the sweeps nor the right-to-left orthogonalization may
        # write into those cores.
        d = len(dims)
        step = lambda k, m: svd_truncate_rank(m, 2)
        for pivot in sorted({0, d // 2, d - 1}):
            cores = orthogonalized_cores(rand_tt(rng, dims, ranks), pivot)
            cores = [np.ascontiguousarray(c) for c in cores]
            t = TTTensor(cores)
            for c, g in zip(cores, t.cores):
                assert np.shares_memory(c, g)
                assert c.flags.writeable and not g.flags.writeable
            before = [c.copy() for c in cores]
            round_from_pivot(t, pivot, step, step)
            tt_right_orthogonalize(t)
            for c, b in zip(cores, before):
                assert np.array_equal(c, b)

    def test_wrong_pivot_names_the_core_and_its_side(self, rng):
        # One loop checks the cores on both sides of the pivot; each side
        # keeps its own message.
        orth = TTTensor(orthogonalized_cores(rand_tt(rng, (3, 4, 5, 3), (3, 6, 3)), 2))
        step = lambda k, m: svd_truncate_rank(m, 2)
        for pivot, message in [
            (3, "core 2 is not left-orthonormal; the train is not orthogonalized around pivot 3"),
            (1, "core 2 is not right-orthonormal; the train is not orthogonalized around pivot 1"),
        ]:
            with pytest.raises(ContractViolationError) as info:
                round_from_pivot(orth, pivot, step, step)
            assert str(info.value) == message


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


class TestOrthonormalRows:
    @pytest.mark.parametrize(
        "m, want",
        [
            ([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]], True),  # one-hot rows
            ([[0, 1, 0], [0, 1, 0]], False),  # a shared column
            ([[1, 0, 0], [0, 0, 0]], False),  # a zero row
            ([[1, 1, 0], [0, 0, 1]], False),  # a row with two ones
            ([[1]], True),
            ([[0]], False),
            ([[-1]], True),
            ([[0.6, 0.8], [-0.8, 0.6]], True),
            ([[0.6, 0.8], [0.8, 0.6]], False),
        ],
    )
    def test_zero_one_rule_matches_gram_rule(self, m, want):
        # 0/1 matrices have integral Gram matrices, so the 1e-8 test
        # decides them exactly.
        m = np.array(m, dtype=np.float64)
        gram = np.abs(m @ m.T - np.eye(m.shape[0])).max() <= 1e-8
        assert _rows_orthonormal(m) == gram == want
        assert _rows_orthonormal(np.ascontiguousarray(m.T).T) == gram

    def test_nan_core_refused(self):
        # A NaN Gram entry compares false both ways; it must not pass.
        assert not _rows_orthonormal(np.full((2, 2), np.nan))
        t = TTTensor([np.full((1, 2, 2), np.nan), np.eye(2).reshape(2, 2, 1)])
        with pytest.raises(ContractViolationError):
            efficient_tt_rounding(t, 1, 0.1)


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
