import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsett import FormatError, SparseTensor, gen_fdm, ingest_coo, tensorize_matrix, write_coo
from sparsett.tensor import check_shape, delinearize, linearize
from conftest import rand_sparse


class TestShape:
    def test_valid(self):
        check_shape((3, 4, 5))
        check_shape((1,))

    @pytest.mark.parametrize("bad", [(), (0, 2), (-1, 3), (2.5, 3), (2, 2**62)])
    def test_invalid(self, bad):
        with pytest.raises((ValueError, TypeError)):
            check_shape(bad)


class TestLinearize:
    def test_c_order(self):
        shape = (2, 3, 4)
        coords = np.array([[0, 0, 0], [0, 0, 1], [1, 2, 3]])
        lin = linearize(shape, coords)
        assert lin.tolist() == [0, 1, 23]

    def test_matches_ravel_multi_index(self, rng):
        shape = (3, 5, 2, 4)
        coords = np.stack(
            [rng.integers(0, n, 50) for n in shape], axis=1
        ).astype(np.int64)
        lin = linearize(shape, coords)
        ref = np.ravel_multi_index(tuple(coords.T), shape)
        assert np.array_equal(lin, ref)

    @given(st.lists(st.integers(1, 6), min_size=1, max_size=5), st.data())
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, dims, data):
        shape = tuple(dims)
        size = math.prod(shape)
        lin = np.array(
            data.draw(
                st.lists(st.integers(0, size - 1), min_size=1, max_size=10)
            ),
            dtype=np.int64,
        )
        coords = delinearize(shape, lin)
        assert np.array_equal(linearize(shape, coords), lin)

    @pytest.mark.parametrize(
        "shape, count",
        [((3, 5, 2, 4), 60), ((1, 7, 1), 7), ((1,), 1), ((4, 1, 1, 3), 0), ((2,) * 20, 500)],
    )
    def test_matches_unravel_index(self, rng, shape, count):
        size = math.prod(shape)
        lin = rng.integers(0, size, count)
        before = lin.copy()
        coords = delinearize(shape, lin)
        ref = np.stack(np.unravel_index(lin.astype(np.int64), shape), axis=1)
        assert coords.dtype == np.int64 and coords.flags.c_contiguous
        assert coords.shape == (count, len(shape))
        assert np.array_equal(coords, ref)
        assert np.array_equal(lin, before)

    @pytest.mark.parametrize("lin", [[-1], [24], [0, 3, 24]])
    def test_out_of_bounds_refused(self, lin):
        with pytest.raises(ValueError):
            delinearize((2, 3, 4), np.array(lin))


class TestSparseTensor:
    def test_basic(self, rng):
        t = rand_sparse(rng, (4, 5, 6), 0.2)
        assert t.ndim == 3
        assert t.size == 120
        assert t.nnz == 24

    def test_canonical_order(self):
        coords = np.array([[1, 1], [0, 0], [0, 1]])
        vals = np.array([3.0, 1.0, 2.0])
        t = SparseTensor((2, 2), coords, vals)
        lin = linearize(t.shape, t.coords)
        assert np.all(np.diff(lin) > 0)
        assert t.values.tolist() == [1.0, 2.0, 3.0]

    def test_duplicate_rejected(self):
        coords = np.array([[0, 1], [0, 1]])
        with pytest.raises(FormatError, match="duplicate"):
            SparseTensor((2, 2), coords, np.array([1.0, 2.0]))
        with pytest.raises(FormatError, match=re.escape("duplicate coordinate (1, 1)")):
            SparseTensor((2, 2), [[1, 1], [0, 1], [1, 1]], [1.0, 2.0, 3.0])
        # A zero entry is dropped before the check, so its twin is no duplicate.
        t = SparseTensor((2, 2), [[0, 1], [1, 0], [0, 1]], [0.0, 2.0, 3.0])
        assert t.coords.tolist() == [[0, 1], [1, 0]] and t.values.tolist() == [3.0, 2.0]
        # (0, 1) sorts first, but (1, 0) repeats first in input order.
        with pytest.raises(FormatError) as info:
            SparseTensor((2, 2), [[1, 0], [0, 1], [1, 0], [0, 1]], [1.0, 2.0, 3.0, 4.0])
        assert str(info.value) == "duplicate coordinate (1, 0)"
        assert info.value.positions == (0, 2)

    @given(lin=st.lists(st.integers(0, 5), min_size=2, max_size=12),
           zeros=st.lists(st.booleans(), min_size=12, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_repeat_positions_match_a_scan(self, lin, zeros):
        # Against a scan in input order that skips zero values.
        values = [0.0 if z else 1.0 + i for i, z in enumerate(zeros[:len(lin)])]
        seen, want = {}, None
        for i, (k, v) in enumerate(zip(lin, values)):
            if v and seen.setdefault(k, i) != i:
                want = (seen[k], i)
                break
        coords = delinearize((2, 3), lin)
        if want is None:
            assert SparseTensor((2, 3), coords, values).nnz == len(seen)
            return
        with pytest.raises(FormatError) as info:
            SparseTensor((2, 3), coords, values)
        assert info.value.positions == want
        assert str(info.value) == f"duplicate coordinate {tuple(coords[want[1]].tolist())}"

    def test_out_of_range_rejected(self):
        cases = [
            ([[0, 2]], [1.0], "(0, 2)"),
            ([[-1, 0]], [1.0], "(-1, 0)"),
            # The first bad row in input order, too large or negative.
            ([[0, 0], [1, 5], [-1, 0]], [1.0, 2.0, 3.0], "(1, 5)"),
            ([[0, 0], [-1, 0], [1, 5]], [1.0, 2.0, 3.0], "(-1, 0)"),
            ([[1, 1], [0, -3], [0, 0]], [1.0, 2.0, 3.0], "(0, -3)"),
            # A zero value does not excuse its coordinate.
            ([[0, 0], [2, 0]], [1.0, 0.0], "(2, 0)"),
        ]
        for coords, values, where in cases:
            # Plain integers, as in the "not integral" message.
            msg = re.escape(f"coordinate {where} out of range for shape (2, 2)")
            with pytest.raises(FormatError, match=msg):
                SparseTensor((2, 2), np.array(coords), np.array(values))

    def test_non_integral_coordinate_rejected(self):
        with pytest.raises(FormatError, match=r"\(1\.7, 0\.2\) is not integral"):
            SparseTensor((3, 3), [[1.7, 0.2]], [1.0])
        with pytest.raises(FormatError, match=r"\(1\.5, 0\.0\) is not integral"):
            SparseTensor((3, 3), [[1.5, 0], [1.2, 0]], [1.0, 2.0])
        t = SparseTensor((3, 3), np.array([[2.0, 1.0], [0.0, 2.0]]), [1.0, 2.0])
        assert t.coords.tolist() == [[0, 2], [2, 1]]
        assert SparseTensor((3, 3), np.zeros((0, 2)), np.zeros(0)).nnz == 0

    @pytest.mark.parametrize("coords, values, message", [
        (np.zeros((2, 3)), np.ones(2), "coords must be (nnz, 2), got (2, 3)"),
        (np.zeros((2, 2)), np.ones(3), "values must be (2,), got (3,)"),
    ], ids=["coords", "values"])
    def test_misshapen_input_rejected(self, coords, values, message):
        with pytest.raises(FormatError, match=re.escape(message)):
            SparseTensor((3, 4), coords, values)

    def test_non_finite_rejected(self):
        with pytest.raises(FormatError):
            SparseTensor((2,), np.array([[0]]), np.array([np.nan]))
        with pytest.raises(FormatError):
            SparseTensor((2,), np.array([[1]]), np.array([np.inf]))

    def test_explicit_zero_dropped(self):
        coords = np.array([[0, 0], [1, 1]])
        t = SparseTensor((2, 2), coords, np.array([0.0, 5.0]))
        assert t.nnz == 1
        assert t.values.tolist() == [5.0]

    def test_immutable(self, rng):
        t = rand_sparse(rng, (3, 3), 0.5)
        with pytest.raises(AttributeError):
            t.shape = (9,)
        with pytest.raises((ValueError, RuntimeError)):
            t.values[0] = 99.0

    def test_dense_round_trip(self, rng):
        a = rng.standard_normal((3, 4, 2))
        a[a < 0.3] = 0.0
        coords = np.argwhere(a)
        t = SparseTensor(a.shape, coords, a[tuple(coords.T)])
        assert np.array_equal(t.to_dense(), a)

    def test_to_dense_cap(self, rng):
        t = rand_sparse(rng, (10, 10), 0.1)
        with pytest.raises(ValueError):
            t.to_dense(cap=50)


class TestConstructorInput:
    """The constructor reads coordinates in any layout without writing
    them, and sorts them by one gather."""

    def test_any_layout_builds_the_same_tensor(self, rng):
        t = rand_sparse(rng, (4, 5, 6), 0.3)
        perm = rng.permutation(t.nnz)
        coords, values = t.coords[perm], t.values[perm]
        wide = np.zeros((2 * t.nnz, 6), np.int64)
        wide[::2, ::2] = coords
        layouts = [coords.copy(), np.asfortranarray(coords), wide[::2, ::2]]
        assert not layouts[2].flags.c_contiguous and not layouts[2].flags.f_contiguous
        for given in layouts:
            before = given.copy()
            given.setflags(write=False)  # a write would raise
            u = SparseTensor(t.shape, given, values)
            assert np.array_equal(given, before)
            assert np.array_equal(u.coords, t.coords) and u.coords.flags.c_contiguous
            assert np.array_equal(u.values, t.values)

    @staticmethod
    def traced_peak(build):
        tracemalloc.start()
        try:
            t = build()
            return tracemalloc.get_traced_memory()[1], t
        finally:
            tracemalloc.stop()

    def test_front_end_peak_memory(self, tmp_path):
        # QTT 16^3: 12 modes of extent 4.  Against the coordinates it
        # keeps, the front end peaked at 3.85x (tensorize_matrix) and 4.43x
        # (ingest_coo) with a layout copy, a filtering copy and a sorting
        # copy; one gather takes it under 3x.  tensorize_matrix reads
        # 2.33x; its digit scratch kept through the sort (2.67x) or a
        # coalescing CSR round trip (2.84x) would fail its bound.
        m = gen_fdm(16, 16, 16)
        peak, t = self.traced_peak(lambda: tensorize_matrix(m, (2,) * 12, (2,) * 12))
        assert peak <= 2.5 * t.coords.nbytes
        path = tmp_path / "qtt16.coo"
        write_coo(t, path)
        peak, u = self.traced_peak(lambda: ingest_coo(path))
        assert peak <= 3.2 * u.coords.nbytes
        assert np.array_equal(u.coords, t.coords) and np.array_equal(u.values, t.values)
