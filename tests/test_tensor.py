import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsett import FormatError, SparseTensor
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

    def test_out_of_range_rejected(self):
        with pytest.raises(FormatError):
            SparseTensor((2, 2), np.array([[0, 2]]), np.array([1.0]))
        with pytest.raises(FormatError):
            SparseTensor((2, 2), np.array([[-1, 0]]), np.array([1.0]))

    def test_non_integral_coordinate_rejected(self):
        with pytest.raises(FormatError, match=r"\(1\.7, 0\.2\) is not integral"):
            SparseTensor((3, 3), [[1.7, 0.2]], [1.0])
        with pytest.raises(FormatError, match=r"\(1\.5, 0\.0\) is not integral"):
            SparseTensor((3, 3), [[1.5, 0], [1.2, 0]], [1.0, 2.0])
        t = SparseTensor((3, 3), np.array([[2.0, 1.0], [0.0, 2.0]]), [1.0, 2.0])
        assert t.coords.tolist() == [[0, 2], [2, 1]]
        assert SparseTensor((3, 3), np.zeros((0, 2)), np.zeros(0)).nnz == 0

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
