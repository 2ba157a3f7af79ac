import threading

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsett import linalg
from sparsett.linalg import (
    _openblas_threads,
    one_blas_thread,
    qr_economic,
    svd_truncate_delta,
    svd_truncate_rank,
)


def oracle_rank(sigma: np.ndarray, delta: float) -> int:
    """Smallest kept rank whose discarded tail satisfies the budget."""
    sq = sigma**2
    for r in range(len(sigma) + 1):
        if sq[r:].sum() <= delta * delta:
            return r
    return len(sigma)


class TestSVDTruncateDelta:
    def test_diag_example(self):
        m = np.diag([3.0, 2.0, 1.0])
        res = svd_truncate_delta(m, 1.0)
        assert res.rank == 2
        assert res.trunc_error == pytest.approx(1.0, rel=1e-12)

        res = svd_truncate_delta(m, np.sqrt(5.0) + 1e-12)
        assert res.rank == 1
        assert res.trunc_error == pytest.approx(np.sqrt(5.0), rel=1e-12)

    def test_full_rank_at_zero_delta(self, rng):
        m = rng.standard_normal((6, 4))
        res = svd_truncate_delta(m, 0.0)
        assert res.rank == 4
        assert res.trunc_error == 0.0

    def test_zero_delta_detects_numerical_rank(self, rng):
        u = rng.standard_normal((8, 1))
        v = rng.standard_normal((1, 5))
        res = svd_truncate_delta(u @ v, 0.0)
        assert res.rank == 1

    @pytest.mark.parametrize("shape", [(200, 50), (50, 200), (2000, 50)])
    def test_noise_below_the_floor_is_dropped(self, rng, shape):
        # Rank 3 plus noise at 0.1 of the floor min(shape) * eps * s[0]:
        # rank 3 at delta 0 and at a delta below the noise, whose tail
        # alone would keep it, and the dropped noise counts in trunc_error.
        floor = min(shape) * np.finfo(np.float64).eps
        noise = rng.standard_normal(shape)
        noise *= 0.1 * floor / np.linalg.norm(noise, 2)
        m = low_rank(rng, *shape, [1.0, 0.5, 0.25], 0.0) + noise
        s0 = scipy.linalg.svd(m, compute_uv=False)
        delta = 0.01 * floor
        assert oracle_rank(s0, delta) > 3
        for d in (0.0, delta):
            res = svd_truncate_delta(m, d)
            assert res.rank == 3
            assert d < res.trunc_error < floor * s0[0]

    def test_rank_zero_above_norm(self, rng):
        m = rng.standard_normal((5, 5))
        res = svd_truncate_delta(m, np.linalg.norm(m) * 1.001)
        assert res.rank == 0
        assert res.u.shape == (5, 0)
        assert res.vt.shape == (0, 5)
        assert res.trunc_error == pytest.approx(np.linalg.norm(m), rel=1e-12)

    def test_zero_matrix(self):
        res = svd_truncate_delta(np.zeros((4, 3)), 0.0)
        assert res.rank == 0

    def test_reconstruction_error_matches_report(self, rng):
        m = rng.standard_normal((12, 9))
        for delta in (0.5, 1.5, 3.0):
            res = svd_truncate_delta(m, delta)
            approx = (res.u * res.s) @ res.vt
            err = np.linalg.norm(m - approx)
            assert err == pytest.approx(res.trunc_error, abs=1e-10)
            assert err <= delta + 1e-10

    def test_rank_monotone_in_delta(self, rng):
        m = rng.standard_normal((10, 10))
        deltas = np.linspace(0.0, np.linalg.norm(m), 25)
        ranks = [svd_truncate_delta(m, d).rank for d in deltas]
        assert all(a >= b for a, b in zip(ranks, ranks[1:]))

    @given(st.integers(2, 8), st.integers(2, 8), st.floats(0.0, 4.0), st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_tail_oracle(self, rows, cols, delta, seed):
        m = np.random.default_rng(seed).standard_normal((rows, cols))
        sigma = np.linalg.svd(m, compute_uv=False)
        res = svd_truncate_delta(m, delta)
        if delta > 0.0:
            assert res.rank == oracle_rank(sigma, delta)

    def test_deterministic_signs(self, rng):
        m = rng.standard_normal((7, 5))
        a = svd_truncate_delta(m, 0.1)
        b = svd_truncate_delta(m.copy(), 0.1)
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.vt, b.vt)
        for j in range(a.rank):
            k = np.argmax(np.abs(a.u[:, j]))
            assert a.u[k, j] >= 0.0

    def test_sign_rule_matches_column_loop(self, rng):
        # Reference: per column, the first largest-magnitude entry of u is
        # made nonnegative.  Small integers make ties in magnitude common.
        # Each case goes through the one result path twice: with every
        # row factored, and with u's rows scattered among zero rows.
        keep = np.array([False, True, True, False, True, True, True])
        for _ in range(300):
            u = rng.integers(-2, 3, (5, 4)).astype(float)
            s = np.array([4.0, 3.0, 2.0, 1.0])
            vt = rng.standard_normal((4, 3))
            want_u, want_vt = u.copy(), vt.copy()
            for j in range(4):
                if want_u[np.argmax(np.abs(want_u[:, j])), j] < 0.0:
                    want_u[:, j] = -want_u[:, j]
                    want_vt[j] = -want_vt[j]
            res = linalg._truncated(np.zeros((5, 3)), None, u, s, vt, 4)
            assert res.u.tobytes() == want_u.tobytes()
            assert res.vt.tobytes() == want_vt.tobytes()
            res = linalg._truncated(np.zeros((7, 3)), keep, u, s, vt, 4)
            assert res.u[keep].tobytes() == want_u.tobytes()
            assert not res.u[~keep].any() and not np.signbit(res.u[~keep]).any()
            assert res.vt.tobytes() == want_vt.tobytes()

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            svd_truncate_delta(np.array([1.0, 2.0]), 0.0)
        with pytest.raises(ValueError):
            svd_truncate_delta(np.array([[np.nan, 1.0]]), 0.0)
        for delta in (-0.5, float("nan")):
            with pytest.raises(ValueError):
                svd_truncate_delta(np.ones((2, 2)), delta)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("alone", [False, True], ids=["in-a-nonzero-row", "alone-in-a-row"])
    def test_nonfinite_entries_of_a_compacted_matrix_are_refused(self, rng, bad, alone):
        # Most rows are zero, so only the nonzero rows are factored; a
        # non-finite entry makes its row nonzero and the check on the
        # factored rows refuses it, even alone in an otherwise-zero row.
        m = np.zeros((200, 4))
        m[::10] = rng.standard_normal((20, 4))
        m[5 if alone else 10, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            svd_truncate_delta(m, 0.1)
        with pytest.raises(ValueError, match="finite"):
            svd_truncate_rank(m, 2)

    def test_u_takes_the_memory_order_of_the_input(self, rng):
        # A transposed view with no zero row, as most of the rounding's
        # left steps pass, gets u in its own memory order, as a step whose
        # zero rows are dropped does; transposing u back needs no copy.
        m = rng.standard_normal((40, 6))
        want = svd_truncate_delta(m, 0.1)
        assert want.u.flags.c_contiguous
        f = np.asfortranarray(m)
        for res in (svd_truncate_delta(f, 0.1), svd_truncate_rank(f, want.rank)):
            assert res.u.flags.f_contiguous
            assert res.u.tobytes("A") == np.asfortranarray(want.u).tobytes("A")
            assert res.vt.tobytes() == want.vt.tobytes()


class TestSVDTruncateRank:
    def test_keeps_requested(self, rng):
        m = rng.standard_normal((8, 6))
        res = svd_truncate_rank(m, 3)
        assert res.rank == 3
        assert res.u.shape == (8, 3)
        assert res.vt.shape == (3, 6)

    def test_clamps_to_min_dim(self, rng):
        m = rng.standard_normal((4, 6))
        res = svd_truncate_rank(m, 10)
        assert res.rank == 4

    def test_eckart_young(self, rng):
        m = rng.standard_normal((9, 7))
        sigma = np.linalg.svd(m, compute_uv=False)
        res = svd_truncate_rank(m, 2)
        want = np.sqrt((sigma[2:] ** 2).sum())
        assert res.trunc_error == pytest.approx(want, rel=1e-12)
        approx = (res.u * res.s) @ res.vt
        assert np.linalg.norm(m - approx) == pytest.approx(want, rel=1e-10)

    def test_negative_rank_refused(self, rng):
        with pytest.raises(ValueError, match="target rank must be nonnegative, got -1"):
            svd_truncate_rank(rng.standard_normal((3, 3)), -1)

    def test_rank_zero(self, rng):
        m = rng.standard_normal((3, 3))
        res = svd_truncate_rank(m, 0)
        assert res.rank == 0
        assert res.trunc_error == pytest.approx(np.linalg.norm(m), rel=1e-12)


def conditioned(rng, rows: int, cols: int, cond: float, rank: int | None = None) -> np.ndarray:
    """Random singular vectors, singular values log-spaced from 1 down to
    ``1 / cond`` and zero from index ``rank`` on."""
    u, _ = np.linalg.qr(rng.standard_normal((rows, cols)))
    v, _ = np.linalg.qr(rng.standard_normal((cols, cols)))
    s = np.logspace(0.0, -np.log10(cond), cols)
    if rank is not None:
        s[rank:] = 0.0
    return (u * s) @ v.T


def gesdd_result(m: np.ndarray, rank: int):
    """What the LAPACK path returns: ``_truncated`` of NumPy's gesdd."""
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    return linalg._truncated(m, None, u, s, vt, rank)


def assert_matches_oracle(m: np.ndarray, res, tol: float = 1e-13):
    s0 = scipy.linalg.svd(m, compute_uv=False)
    norm = np.linalg.norm(m)
    assert np.abs(res.s - s0[: res.rank]).max(initial=0.0) <= tol * s0[0]
    assert abs(res.trunc_error - np.sqrt(np.sum(s0[res.rank:] ** 2))) <= tol * norm
    assert np.linalg.norm(res.u.T @ res.u - np.eye(res.rank), 2) <= tol
    assert abs(np.linalg.norm(m - (res.u * res.s) @ res.vt) - res.trunc_error) <= tol * norm
    # sign rule: the first largest-magnitude entry of each column of u is >= 0
    top = np.argmax(np.abs(res.u), axis=0)
    assert np.all(res.u[top, np.arange(res.rank)] >= 0.0)


def assert_same_result(a, b):
    assert a.rank == b.rank
    for name in ("u", "s", "vt"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
    assert a.trunc_error == b.trunc_error


def failing_cholesky(monkeypatch, call: int) -> list:
    """Make the ``call``-th ``_upper_cholesky`` (1-based) report failure;
    returns the list of calls made, True where the factor was returned."""
    calls, cholesky = [], linalg._upper_cholesky

    def failing(g):
        calls.append(len(calls) + 1 != call)
        return cholesky(g) if calls[-1] else None

    monkeypatch.setattr(linalg, "_upper_cholesky", failing)
    return calls


class TestTallSkinnyPath:
    """Matrices with rows >= 32 * cols and at least 2**18 entries take
    CholeskyQR2 and a small SVD unless a guard sends them to LAPACK."""

    def test_well_conditioned_matches_oracle(self, rng, lapack_shapes):
        m = conditioned(rng, 20000, 40, 1e3)
        s0 = scipy.linalg.svd(m, compute_uv=False)
        tails = np.sqrt(np.cumsum((s0**2)[::-1])[::-1])
        # deltas halfway (geometrically) between the tails of ranks r and r - 1
        deltas = [0.0] + [float(np.sqrt(tails[r] * tails[r - 1])) for r in (1, 5, 20, 39)]
        for delta in deltas:
            res = svd_truncate_delta(m, delta)
            assert res.rank == (40 if delta == 0.0 else oracle_rank(s0, delta))
            assert_matches_oracle(m, res)
        for r in (0, 7, 40, 50):
            res = svd_truncate_rank(m, r)
            assert res.rank == min(r, 40)
            assert_matches_oracle(m, res)
        assert (40, 40) in lapack_shapes
        assert m.shape not in lapack_shapes

    def test_second_pass_restores_orthogonality(self, rng, lapack_shapes):
        m = conditioned(rng, 20000, 60, 1e7)
        d = np.diag(np.linalg.cholesky(m.T @ m).T)
        assert d.max() <= 1e6 * d.min()  # passes the diagonal guard
        res = svd_truncate_rank(m, 60)
        assert m.shape not in lapack_shapes
        assert np.linalg.norm(res.u.T @ res.u - np.eye(60), 2) <= 1e-13
        assert_matches_oracle(m, res)

    @pytest.mark.parametrize("rank, cond", [(5, 1.0), (None, 1e9)])
    def test_singular_or_ill_conditioned_falls_back(self, rng, lapack_shapes, rank, cond):
        m = conditioned(rng, 20000, 60, cond, rank)
        res = svd_truncate_delta(m, 0.0)
        assert m.shape in lapack_shapes
        if rank is not None:
            assert res.rank == rank
        assert_same_result(res, gesdd_result(m, res.rank))

    def test_column_scaling_trips_diagonal_guard(self, rng, lapack_shapes):
        q, _ = np.linalg.qr(rng.standard_normal((20000, 60)))
        m = q * np.logspace(0.0, -7.0, 60)
        res = svd_truncate_rank(m, 60)
        assert m.shape in lapack_shapes
        assert_same_result(res, gesdd_result(m, 60))

    def test_inverse_growth_guard(self, rng, lapack_shapes):
        # R1 has a unit diagonal and a condition number near 3e7: Cholesky,
        # the diagonal guard and the orthogonality guard all pass, but
        # forming Q1 with R1's inverse would lose about 1e-11 of the norm.
        q, _ = np.linalg.qr(rng.standard_normal((20000, 60)))
        m = q @ (np.eye(60) - 0.3 * np.triu(np.ones((60, 60)), 1))
        r1 = np.linalg.cholesky(m.T @ m).T
        assert np.abs(np.diag(r1) - 1.0).max() < 1e-3
        q1 = m @ scipy.linalg.solve_triangular(r1, np.eye(60))
        assert np.abs(q1.T @ q1 - np.eye(60)).max() < 0.1
        res = svd_truncate_rank(m, 60)
        assert m.shape in lapack_shapes
        assert_same_result(res, gesdd_result(m, 60))
        assert_matches_oracle(m, res)

    @pytest.mark.parametrize(
        "guard, value",
        [("_MAX_DIAG_SPAN", 1.0), ("_MAX_INVERSE_GROWTH", 1.0), ("_MAX_ORTH_DEFECT", 1e-6)],
    )
    def test_each_guard_gives_the_lapack_result(
        self, rng, lapack_shapes, monkeypatch, guard, value
    ):
        m = conditioned(rng, 20000, 60, 1e7)
        monkeypatch.setattr(linalg, guard, value)
        res = svd_truncate_delta(m, 1e-5)
        assert m.shape in lapack_shapes
        assert_same_result(res, gesdd_result(m, res.rank))

    def test_failed_second_cholesky_gives_the_lapack_result(self, rng, lapack_shapes, monkeypatch):
        # The first pass and every guard succeed; Q1's Gram then fails its
        # Cholesky, and the step is handed on to LAPACK.
        m = conditioned(rng, 20000, 40, 1e3)
        calls = failing_cholesky(monkeypatch, 2)
        res = svd_truncate_rank(m, 40)
        assert calls == [True, False]
        assert lapack_shapes == [m.shape]
        s0 = np.linalg.svd(m, compute_uv=False)
        assert np.abs(res.s - s0).max() <= 1e-12 * s0[0]
        assert_same_result(res, gesdd_result(m, 40))

    @pytest.mark.parametrize("shape", [(20000, 626), (20000, 12), (8000, 32)])
    def test_shape_rule(self, rng, lapack_shapes, shape):
        # Too square, or too few entries: straight to LAPACK.
        m = rng.standard_normal(shape)
        svd_truncate_rank(m, 3)
        assert lapack_shapes == [shape]

    def test_zero_rows_are_left_out(self, rng, lapack_shapes, cholqr2_shapes):
        # Only the ~1000 nonzero rows are factored: too few for the shape
        # rule, so gesdd takes them, and U's zero rows are exactly +0.0.
        m = conditioned(rng, 20000, 40, 1e3)
        zero = rng.random(20000) < 0.95
        m[zero] = 0.0
        kept = 20000 - int(zero.sum())
        assert kept < 32 * 40
        s0 = scipy.linalg.svd(m, compute_uv=False)
        tails = np.sqrt(np.cumsum((s0**2)[::-1])[::-1])
        deltas = [0.0] + [float(np.sqrt(tails[r] * tails[r - 1])) for r in (1, 5, 20, 39)]
        results = [svd_truncate_delta(m, delta) for delta in deltas]
        results += [svd_truncate_rank(m, r) for r in (0, 7, 40, 50)]
        # svd_truncate_rank clamps to the short side, which is unchanged.
        want = [40] + [oracle_rank(s0, d) for d in deltas[1:]] + [0, 7, 40, 40]
        assert [res.rank for res in results] == want
        for res in results:
            assert res.u.shape == (20000, res.rank)
            assert_matches_oracle(m, res)
            assert np.linalg.norm(res.u.T @ res.u - np.eye(res.rank), 2) <= 1e-13
            assert not res.u[zero].any() and not np.signbit(res.u[zero]).any()
        assert cholqr2_shapes == []
        assert lapack_shapes == [(kept, 40)] * len(results)
        # A transposed view, as the rounding's left steps pass, gets U in
        # its own memory order, so transposing U back needs no copy.
        res = svd_truncate_rank(np.asfortranarray(m), 40)
        assert res.u.flags.f_contiguous
        assert_same_result(res, results[-1])

    def test_zero_rows_are_left_out_of_cholqr2(self, rng, lapack_shapes, cholqr2_shapes):
        # About 8000 of 20000 rows are nonzero: the compacted matrix still
        # passes the shape rule, so CholeskyQR2 factors exactly those rows.
        m = conditioned(rng, 20000, 40, 1e3)
        zero = rng.random(20000) < 0.6
        m[zero] = 0.0
        res = svd_truncate_rank(m, 40)
        assert cholqr2_shapes == [(20000 - int(zero.sum()), 40)]
        assert lapack_shapes == [(40, 40)]
        assert not res.u[zero].any() and not np.signbit(res.u[zero]).any()
        assert_matches_oracle(m, res)

    def test_fewer_nonzero_rows_than_columns_is_gesdd(
        self, rng, lapack_shapes, cholqr2_shapes
    ):
        # Too few nonzero rows to drop the rest: the whole matrix passes
        # the shape rule, CholeskyQR2 refuses it and gesdd factors it.
        m = np.zeros((20000, 40))
        m[rng.choice(20000, 30, replace=False)] = rng.standard_normal((30, 40))
        results = [svd_truncate_delta(m, 0.0), svd_truncate_rank(m, 35)]
        assert [res.rank for res in results] == [30, 35]
        assert cholqr2_shapes == [m.shape] * 2
        assert lapack_shapes == [m.shape] * 2
        for res in results:
            assert_same_result(res, gesdd_result(m, res.rank))

    def test_rank_deficient_with_zero_rows_is_gesdd_on_the_nonzero_rows(
        self, rng, lapack_shapes, cholqr2_shapes
    ):
        # Shaped like the 20^3 Laplacian's 23200x58 step at pivot 1: 1920
        # nonzero rows, numerical rank 2.  They are too few for the shape
        # rule, so gesdd factors them and U is scattered back.
        m = np.zeros((23200, 58))
        keep = np.zeros(23200, dtype=bool)
        keep[rng.choice(23200, 1920, replace=False)] = True
        m[keep] = conditioned(rng, 1920, 58, 4.0, 2)
        results = [svd_truncate_delta(m, delta) for delta in (0.0, 1e-14 * np.linalg.norm(m))]
        assert cholqr2_shapes == []
        assert lapack_shapes == [(1920, 58)] * 2
        want = gesdd_result(m[keep], 2)
        for res in results:
            assert res.rank == 2
            assert res.u[keep].tobytes() == want.u.tobytes() and not res.u[~keep].any()
            assert res.s.tobytes() == want.s.tobytes()
            assert res.vt.tobytes() == want.vt.tobytes()
            assert res.trunc_error == want.trunc_error

    def test_numpy_1_cholesky_signature(self, rng, lapack_shapes, monkeypatch):
        # NumPy 1.x's cholesky takes no ``upper`` keyword; the path must
        # not need it, or every tall matrix would raise TypeError there.
        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: cholesky(a))
        m = conditioned(rng, 20000, 40, 1e3)
        res = svd_truncate_rank(m, 40)
        assert m.shape not in lapack_shapes
        assert_matches_oracle(m, res)


def low_rank(rng, rows: int, cols: int, s, noise: float) -> np.ndarray:
    """Singular values ``s`` on random orthonormal vectors, plus iid
    Gaussian noise of standard deviation ``noise``."""
    u, _ = np.linalg.qr(rng.standard_normal((rows, len(s))))
    v, _ = np.linalg.qr(rng.standard_normal((cols, len(s))))
    return (u * np.asarray(s)) @ v.T + noise * rng.standard_normal((rows, cols))


def assert_certified(m: np.ndarray, res, delta: float):
    # The reported error is that of the returned factors and within delta.
    err = np.linalg.norm(m - (res.u * res.s) @ res.vt)
    assert err * (1 - 1e-12) <= res.trunc_error <= delta
    assert np.linalg.norm(res.u.T @ res.u - np.eye(res.rank), 2) <= 1e-13
    top = np.argmax(np.abs(res.u), axis=0)
    assert np.all(res.u[top, np.arange(res.rank)] >= 0.0)


def gram_bound(m: np.ndarray) -> float:
    """The Gram route's stated bound on its eigenvalue error; the route
    runs where ``delta**2`` is at least 100 times it."""
    short, long = sorted(m.shape)
    return short * (short + long) * np.finfo(np.float64).eps * float(np.vdot(m, m))


class TestLowRankPath:
    """``svd_truncate_delta`` with ``delta > 0`` on a matrix whose smaller
    side is at least 256 tries a certified sketch before a full SVD."""

    SIGNAL = [10.0, 5.0, 2.0, 1.0, 0.5, 0.2]

    def test_noisy_rank_six_matches_oracle(self, rng, lapack_shapes):
        m = low_rank(rng, 600, 900, self.SIGNAL, 1e-6)
        s0 = scipy.linalg.svd(m, compute_uv=False)
        tails = np.sqrt(np.cumsum((s0**2)[::-1])[::-1])
        # Geometric midpoints across the wide gaps of ranks 1..6, just
        # above the noise floor, and a budget that needs one noise value.
        wide = [float(np.sqrt(tails[r] * tails[r - 1])) for r in range(1, 7)]
        for delta in wide + [1.01 * tails[6], 0.9999 * tails[6]]:
            res = svd_truncate_delta(m, delta)
            want = oracle_rank(s0, delta)
            assert res.rank >= want
            if delta in wide or delta > tails[6]:
                assert res.rank == want
            assert_certified(m, res, delta)
            # A projection's singular values never exceed the matrix's own.
            assert np.all(res.s <= s0[: res.rank] + 1e-12 * s0[0])
            signal = min(res.rank, 6)
            assert np.abs(res.s[:signal] - s0[:signal]).max() <= 1e-12 * s0[0]
            assert_same_result(res, svd_truncate_delta(m, delta))
        assert m.shape not in lapack_shapes
        assert set(lapack_shapes) == {(16, 900)}

    @pytest.mark.parametrize(
        "make",
        [
            # Energy far above what 16 columns can hold.
            lambda rng: rng.standard_normal((300, 400)),
            # A flat rank-70 spectrum: wider than the sketch.
            lambda rng: low_rank(rng, 600, 900, [1.0] * 70, 1e-6),
            # Rank 10 passes the energy test, but the noise left outside
            # the sketch fails the residual certificate.
            lambda rng: low_rank(rng, 600, 900, [1.0] * 10, 1e-3),
        ],
        ids=["high-rank", "width-limit", "residual"],
    )
    def test_fallback_is_the_full_svd(self, rng, lapack_shapes, make):
        # A budget below the Gram route's guard: the sketch hands over,
        # and the step is the full SVD.
        m = make(rng)
        delta = 0.5 * np.sqrt(100 * gram_bound(m))
        res = svd_truncate_delta(m, delta)
        # One sketch, then LAPACK on the whole matrix.
        assert lapack_shapes == [(16, m.shape[1]), m.shape]
        assert_same_result(res, gesdd_result(m, res.rank))
        assert res.rank == oracle_rank(scipy.linalg.svd(m, compute_uv=False), delta)

    @pytest.mark.parametrize(
        "make, delta",
        [
            (lambda rng: rng.standard_normal((300, 400)), None),
            # Within delta of rank 10 plus part of the noise, which is more
            # than the sketch leaves outside its range.
            (lambda rng: low_rank(rng, 600, 900, [1.0] * 10, 1e-3), 0.5),
        ],
        ids=["high-rank", "residual"],
    )
    def test_one_sketch_then_gram(self, rng, lapack_shapes, make, delta):
        m = make(rng)
        delta = 0.5 * np.linalg.norm(m) if delta is None else delta
        assert delta * delta >= 100 * gram_bound(m)
        res = svd_truncate_delta(m, delta)
        # The sketch's small SVD, and no SVD of the whole matrix.
        assert lapack_shapes == [(16, m.shape[1])]
        assert_certified(m, res, delta)
        assert res.rank == oracle_rank(scipy.linalg.svd(m, compute_uv=False), delta)

    def test_never_sketched(self, rng, lapack_shapes):
        m = low_rank(rng, 600, 900, self.SIGNAL, 1e-6)
        assert_same_result(svd_truncate_delta(m, 0.0), gesdd_result(m, 600))
        assert_same_result(svd_truncate_rank(m, 6), gesdd_result(m, 6))
        narrow = m[:255]
        res = svd_truncate_delta(narrow, 1e-3)
        assert_same_result(res, gesdd_result(narrow, res.rank))
        assert lapack_shapes == [(600, 900)] * 4 + [(255, 900)] * 2


def geometric(rng, shape) -> np.ndarray:
    """Singular values spread geometrically from 1 down to 1e-8."""
    rows, cols = shape
    m = conditioned(rng, max(shape), min(shape), 1e8)
    return m if rows >= cols else m.T


class TestGramPath:
    """A step the sketch hands over is factored from its short-side Gram
    matrix where ``delta**2`` is at least 100 times the Gram's bound."""

    SHAPES = [(1200, 300), (300, 1200)]

    @pytest.mark.parametrize("shape", SHAPES, ids=["tall", "wide"])
    def test_matches_oracle(self, rng, lapack_shapes, shape):
        m = geometric(rng, shape)
        s0 = scipy.linalg.svd(m, compute_uv=False)
        tails = np.sqrt(np.cumsum((s0**2)[::-1])[::-1])
        bound = gram_bound(m)
        # Geometric midpoints between the tails of ranks r and r - 1, each
        # out of the sketch's reach, and a budget just above the guard.
        deltas = [float(np.sqrt(tails[r] * tails[r - 1])) for r in (30, 80, 130)]
        for delta in deltas + [(1 + 1e-6) * np.sqrt(100 * bound)]:
            res = svd_truncate_delta(m, delta)
            want = oracle_rank(s0, delta)
            assert res.rank >= want
            if delta in deltas:
                assert res.rank == want
            assert_certified(m, res, delta)
            assert np.abs(res.s**2 - s0[: res.rank] ** 2).max() <= bound
        assert lapack_shapes == [(16, shape[1])] * 4

    def test_norm_bound_skips_the_sketch(self, rng, lapack_shapes):
        # One nonzero per row, as in an image-shaped step: the energy to
        # capture exceeds 16 * ||M||_1 ||M||_inf >= 16 * sigma_1**2, so the
        # sketch's energy test would fail and no sketch is drawn.
        m = np.zeros((2400, 300))
        m[np.arange(2400), rng.integers(0, 300, 2400)] = rng.uniform(1.0, 2.0, 2400)
        delta = 0.5 * np.linalg.norm(m)
        a = np.abs(m)
        assert 0.75 * np.vdot(m, m) > 16 * a.sum(axis=0).max() * a.sum(axis=1).max()
        assert linalg._sketched_svd(m, delta) is None
        res = svd_truncate_delta(m, delta)
        assert lapack_shapes == []
        u, s, vt, residual_sq = linalg._gram_svd(m, delta)
        assert_same_result(res, linalg._truncated(m, None, u, s, vt, s.size, residual_sq))
        assert_certified(m, res, delta)
        assert res.rank == oracle_rank(scipy.linalg.svd(m, compute_uv=False), delta)

    @pytest.mark.parametrize("shape", SHAPES, ids=["tall", "wide"])
    def test_just_below_the_guard_is_gesdd(self, rng, lapack_shapes, shape):
        m = geometric(rng, shape)
        floor = np.sqrt(100 * gram_bound(m))
        res = svd_truncate_delta(m, (1 - 1e-6) * floor)
        assert lapack_shapes == [(16, shape[1]), shape]
        assert_same_result(res, gesdd_result(m, res.rank))

    @pytest.mark.parametrize("shape", SHAPES, ids=["tall", "wide"])
    def test_failed_certificate_is_the_full_svd(self, rng, lapack_shapes, monkeypatch, shape):
        # An eigh that understates the spectrum keeps too small a rank,
        # so the measured residual exceeds delta and the step is redone.
        eigh = np.linalg.eigh

        def understated(g):
            lam, w = eigh(g)
            return 0.25 * lam, w

        monkeypatch.setattr(np.linalg, "eigh", understated)
        m = geometric(rng, shape)
        s0 = scipy.linalg.svd(m, compute_uv=False)
        tails = np.sqrt(np.cumsum((s0**2)[::-1])[::-1])
        delta = float(np.sqrt(tails[80] * tails[79]))
        assert linalg._gram_svd(m, delta) is None
        lapack_shapes.clear()
        res = svd_truncate_delta(m, delta)
        assert lapack_shapes == [(16, shape[1]), shape]
        assert_same_result(res, gesdd_result(m, res.rank))

    def test_failed_cholesky_of_a_tall_step_is_the_full_svd(self, rng, lapack_shapes, monkeypatch):
        # A tall M's kept columns M V_r are made orthonormal by one
        # Cholesky; when it fails, the step is handed on to LAPACK.
        m = geometric(rng, (1200, 300))
        s0 = np.linalg.svd(m, compute_uv=False)
        tails = np.sqrt(np.cumsum((s0**2)[::-1])[::-1])
        delta = float(np.sqrt(tails[80] * tails[79]))
        calls = failing_cholesky(monkeypatch, 1)
        lapack_shapes.clear()
        res = svd_truncate_delta(m, delta)
        assert calls == [False]
        assert lapack_shapes == [(16, 300), m.shape]
        assert res.rank == oracle_rank(s0, delta)
        assert np.abs(res.s - s0[: res.rank]).max() <= 1e-12 * s0[0]
        assert res.trunc_error <= delta
        assert_same_result(res, gesdd_result(m, res.rank))

    @pytest.mark.parametrize("shape", SHAPES, ids=["tall", "wide"])
    def test_zero_matrix(self, shape):
        u, s, vt, residual_sq = linalg._gram_svd(np.zeros(shape), 1.0)
        assert (u.shape, s.shape, vt.shape, residual_sq) == ((shape[0], 0), (0,), (0, shape[1]), 0.0)
        res = svd_truncate_delta(np.zeros(shape), 1.0)
        assert res.rank == 0 and res.trunc_error == 0.0


class TestGesvdFallback:
    """When gesdd does not converge, gesvd gives the same decomposition."""

    @pytest.fixture(autouse=True)
    def gesdd_fails(self, monkeypatch):
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing)

    @pytest.mark.parametrize(
        "make",
        [
            lambda rng: rng.standard_normal((12, 9)),
            lambda rng: conditioned(rng, 20000, 40, 1e3),
            lambda rng: conditioned(rng, 20000, 60, 1.0, rank=5),
        ],
        ids=["small", "tall", "tall-rank-5"],
    )
    def test_matches_oracle(self, rng, make):
        m = make(rng)
        s0 = scipy.linalg.svd(m, compute_uv=False)
        delta = 0.5 * np.linalg.norm(m)
        res = svd_truncate_delta(m, delta)
        assert res.rank == oracle_rank(s0, delta)
        assert_matches_oracle(m, res)
        res = svd_truncate_delta(m, 0.0)
        assert res.rank == np.linalg.matrix_rank(m)
        assert_matches_oracle(m, res)
        res = svd_truncate_rank(m, 3)
        assert res.rank == 3
        assert_matches_oracle(m, res)


class TestQR:
    @pytest.mark.parametrize("shape", [(8, 5), (5, 8), (6, 6), (7, 1)])
    def test_factorization(self, rng, shape):
        m = rng.standard_normal(shape)
        q, r = qr_economic(m)
        k = min(shape)
        assert q.shape == (shape[0], k)
        assert r.shape == (k, shape[1])
        assert np.allclose(q.T @ q, np.eye(k), atol=1e-12)
        assert np.allclose(q @ r, m, atol=1e-12)
        assert np.all(np.diag(r) >= 0.0)

    def test_deterministic(self, rng):
        m = rng.standard_normal((6, 4))
        qa, ra = qr_economic(m)
        qb, rb = qr_economic(m.copy())
        assert np.array_equal(qa, qb)
        assert np.array_equal(ra, rb)


class TestOneBlasThread:
    @pytest.fixture
    def blas(self):
        ctl = _openblas_threads()
        if ctl is None:
            pytest.skip("NumPy does not use a bundled OpenBLAS")
        get, set_ = ctl
        before = get()
        set_(2)
        yield get
        set_(before)

    def test_one_thread_inside_and_restored_after(self, blas):
        with one_blas_thread():
            assert blas() == 1
        assert blas() == 2
        with pytest.raises(RuntimeError), one_blas_thread():
            raise RuntimeError("boom")
        assert blas() == 2

    def test_overlapping_scopes_restore_once_both_end(self, blas):
        entered, release = threading.Event(), threading.Event()

        def other():
            with one_blas_thread():
                entered.set()
                release.wait(10)

        worker = threading.Thread(target=other)
        worker.start()
        try:
            assert entered.wait(10)
            with one_blas_thread():
                assert blas() == 1
            assert blas() == 1  # the other thread's scope is still open
        finally:
            release.set()
            worker.join(10)
        assert blas() == 2
