import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsett.linalg import (
    _fix_signs,
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
        for _ in range(300):
            u = rng.integers(-2, 3, (5, 4)).astype(float)
            vt = rng.standard_normal((4, 3))
            want_u, want_vt = u.copy(), vt.copy()
            for j in range(4):
                if want_u[np.argmax(np.abs(want_u[:, j])), j] < 0.0:
                    want_u[:, j] = -want_u[:, j]
                    want_vt[j] = -want_vt[j]
            _fix_signs(u, vt)
            assert u.tobytes() == want_u.tobytes()
            assert vt.tobytes() == want_vt.tobytes()

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            svd_truncate_delta(np.array([1.0, 2.0]), 0.0)
        with pytest.raises(ValueError):
            svd_truncate_delta(np.array([[np.nan, 1.0]]), 0.0)
        for delta in (-0.5, float("nan")):
            with pytest.raises(ValueError):
                svd_truncate_delta(np.ones((2, 2)), delta)


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

    def test_rank_zero(self, rng):
        m = rng.standard_normal((3, 3))
        res = svd_truncate_rank(m, 0)
        assert res.rank == 0
        assert res.trunc_error == pytest.approx(np.linalg.norm(m), rel=1e-12)


class TestQR:
    @pytest.mark.parametrize("shape", [(8, 5), (5, 8), (6, 6), (7, 1)])
    def test_factorization(self, rng, shape):
        m = rng.standard_normal(shape)
        res = qr_economic(m)
        k = min(shape)
        assert res.q.shape == (shape[0], k)
        assert res.r.shape == (k, shape[1])
        assert np.allclose(res.q.T @ res.q, np.eye(k), atol=1e-12)
        assert np.allclose(res.q @ res.r, m, atol=1e-12)
        assert np.all(np.diag(res.r) >= 0.0)

    def test_deterministic(self, rng):
        m = rng.standard_normal((6, 4))
        a = qr_economic(m)
        b = qr_economic(m.copy())
        assert np.array_equal(a.q, b.q)
        assert np.array_equal(a.r, b.r)


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
