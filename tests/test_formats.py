import json
import math

import numpy as np
import pytest
import scipy.io
import scipy.sparse

from sparsett import (
    FormatError,
    SparseTensor,
    fasttt,
    gen_fdm,
    gen_random_sparse,
    ingest_coo,
    ingest_matrix_market,
    load_tt,
    report_document,
    save_tt,
    tt_to_full,
    write_coo,
    write_report,
)
from conftest import rand_sparse, rand_tt


class TestCOORoundTrip:
    def test_bit_exact(self, rng, tmp_path):
        t = rand_sparse(rng, (5, 7, 3), 0.2)
        path = tmp_path / "t.coo"
        write_coo(t, path)
        back = ingest_coo(path)
        assert back.shape == t.shape
        assert np.array_equal(back.coords, t.coords)
        assert np.array_equal(back.values, t.values)

    def test_extreme_values(self, tmp_path):
        coords = np.array([[0, 0], [1, 2], [3, 1]])
        vals = np.array([1e-300, -1.2345678901234567e30, 7.0])
        t = SparseTensor((4, 3), coords, vals)
        path = tmp_path / "x.coo"
        write_coo(t, path)
        assert np.array_equal(ingest_coo(path).values, t.values)

    def test_golden_bytes(self, tmp_path):
        coords = [[0, 0, 0], [1, 2, 3], [0, 1, 2]]
        t = SparseTensor((2, 3, 4), coords, [0.1, -1.2345678901234567e30, 5e-324])
        path = tmp_path / "g.coo"
        write_coo(t, path)
        assert path.read_bytes() == (
            b"# shape 2 3 4\n"
            b"1 1 1 0.10000000000000001\n"
            b"1 2 3 4.9406564584124654e-324\n"
            b"2 3 4 -1.2345678901234567e+30\n"
        )

    def test_header_is_one_based_friendly(self, tmp_path):
        path = tmp_path / "m.coo"
        path.write_text("# shape 2 3\n1 1 5.0\n2 3 -1.0\n")
        t = ingest_coo(path)
        dense = t.to_dense()
        assert dense[0, 0] == 5.0
        assert dense[1, 2] == -1.0


class TestCOOErrors:
    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.coo"
        path.write_text("1 1 5.0\n")
        with pytest.raises(FormatError, match=":1:"):
            ingest_coo(path)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "bad.coo"
        path.write_text("# shape 2 2\n1 1 1 5.0\n")
        with pytest.raises(FormatError, match=":2:"):
            ingest_coo(path)

    def test_index_out_of_range(self, tmp_path):
        path = tmp_path / "bad.coo"
        path.write_text("# shape 2 2\n1 1 5.0\n3 1 2.0\n")
        with pytest.raises(FormatError, match=":3:.*out of range"):
            ingest_coo(path)

    def test_zero_index_rejected(self, tmp_path):
        path = tmp_path / "bad.coo"
        path.write_text("# shape 2 2\n0 1 5.0\n")
        with pytest.raises(FormatError, match=":2:"):
            ingest_coo(path)

    def test_unparsable(self, tmp_path):
        path = tmp_path / "bad.coo"
        path.write_text("# shape 2 2\n1 x 5.0\n")
        with pytest.raises(FormatError, match="unparsable"):
            ingest_coo(path)

    def test_non_finite(self, tmp_path):
        path = tmp_path / "bad.coo"
        path.write_text("# shape 2 2\n1 1 nan\n")
        with pytest.raises(FormatError, match="non-finite"):
            ingest_coo(path)

    def test_duplicate(self, tmp_path):
        path = tmp_path / "bad.coo"
        path.write_text("# shape 2 2\n1 1 5.0\n1 1 2.0\n")
        with pytest.raises(FormatError, match="duplicate"):
            ingest_coo(path)

    def test_empty_body_warns(self, tmp_path):
        path = tmp_path / "zero.coo"
        path.write_text("# shape 3 4\n")
        with pytest.warns(UserWarning, match="zero tensor"):
            t = ingest_coo(path)
        assert t.nnz == 0
        assert t.shape == (3, 4)


class TestMatrixMarket:
    def test_general_round_trip(self, tmp_path):
        m = scipy.sparse.random(9, 7, density=0.3, random_state=11, format="coo")
        path = tmp_path / "m.mtx"
        scipy.io.mmwrite(path, m, precision=17)
        back = ingest_matrix_market(path)
        assert np.allclose(back.toarray(), m.toarray(), atol=0)

    def test_symmetric_expanded(self, tmp_path):
        path = tmp_path / "s.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "3 3 3\n"
            "1 1 2.0\n"
            "2 1 -1.0\n"
            "3 2 4.0\n"
        )
        m = ingest_matrix_market(path).toarray()
        want = np.array(
            [[2.0, -1.0, 0.0], [-1.0, 0.0, 4.0], [0.0, 4.0, 0.0]]
        )
        assert np.array_equal(m, want)

    @pytest.mark.parametrize(
        "banner, named",
        [
            ("%%MatrixMarket matrix coordinate complex general", "complex"),
            ("%%MatrixMarket matrix coordinate pattern general", "pattern"),
            ("%%MatrixMarket matrix coordinate integer general", "integer"),
            ("%%MatrixMarket matrix array real general", "array"),
            ("%%MatrixMarket matrix coordinate real hermitian", "hermitian"),
            ("%%MatrixMarket matrix coordinate real skew-symmetric", "skew-symmetric"),
        ],
    )
    def test_variants_rejected_by_name(self, tmp_path, banner, named):
        path = tmp_path / "v.mtx"
        path.write_text(banner + "\n2 2 1\n1 1 1.0\n")
        with pytest.raises(FormatError, match=named):
            ingest_matrix_market(path)

    def test_not_matrix_market(self, tmp_path):
        path = tmp_path / "v.mtx"
        path.write_text("hello\n")
        with pytest.raises(FormatError):
            ingest_matrix_market(path)


class TestReportDocument:
    def test_fields_and_pivot_mapping(self, rng, tmp_path):
        t = rand_sparse(rng, (4, 5, 3), 0.25)
        _, rep = fasttt(t, pivot=1)
        doc = report_document(rep, method="fasttt", source="mem")
        assert doc["schema_version"] == 2
        assert doc["generator"] == "sparsett"
        assert doc["method"] == "fasttt"
        assert doc["shape"] == [4, 5, 3]
        assert doc["nnz"] == t.nnz
        assert doc["sigma"] == pytest.approx(t.nnz / t.size)
        assert doc["p"] == 2
        assert doc["R"] == rep.num_fibers
        assert doc["r_tilde"] == list(rep.ranks_lossless)
        assert doc["r"] == list(rep.ranks)
        assert doc["eps_actual"] == rep.eps_actual
        assert "threads" not in doc
        out = tmp_path / "rep.json"
        write_report(doc, out)
        parsed = json.loads(out.read_text())
        assert parsed == doc

    def test_non_finite_rejected_on_write(self, rng, tmp_path):
        t = rand_sparse(rng, (3, 3), 0.3)
        _, rep = fasttt(t)
        doc = report_document(rep, method="fasttt", source="mem")
        doc["eps_actual"] = float("inf")
        with pytest.raises(ValueError):
            write_report(doc, tmp_path / "bad.json")


class TestSaveLoadTT:
    def test_round_trip(self, rng, tmp_path):
        t = rand_tt(rng, (4, 3, 5), (2, 3))
        path = tmp_path / "t.npz"
        save_tt(t, path, row_dims=(2, 2), note="x")
        back = load_tt(path)
        assert back.dims == t.dims
        assert back.ranks == t.ranks
        for a, b in zip(back.cores, t.cores):
            assert np.array_equal(a, b)


def stencil_nnz(n: int, m: int, k: int) -> int:
    count = 0
    for x in range(n):
        for y in range(m):
            for z in range(k):
                count += 1
                for dx, dy, dz in (
                    (1, 0, 0), (-1, 0, 0), (0, 1, 0),
                    (0, -1, 0), (0, 0, 1), (0, 0, -1),
                ):
                    if 0 <= x + dx < n and 0 <= y + dy < m and 0 <= z + dz < k:
                        count += 1
    return count


def stencil_dense(n: int, m: int, k: int) -> np.ndarray:
    size = n * m * k
    a = np.zeros((size, size))
    def lin(x, y, z):
        return (x * m + y) * k + z
    for x in range(n):
        for y in range(m):
            for z in range(k):
                i = lin(x, y, z)
                a[i, i] = 6.0
                for dx, dy, dz in (
                    (1, 0, 0), (-1, 0, 0), (0, 1, 0),
                    (0, -1, 0), (0, 0, 1), (0, 0, -1),
                ):
                    xx, yy, zz = x + dx, y + dy, z + dz
                    if 0 <= xx < n and 0 <= yy < m and 0 <= zz < k:
                        a[i, lin(xx, yy, zz)] = -1.0
    return a


class TestGenFDM:
    @pytest.mark.parametrize(
        "grid, nnz", [((2, 2, 2), 32), ((2, 3, 4), 116), ((3, 4, 5), 326)]
    )
    def test_nnz_matches_stencil_count(self, grid, nnz):
        assert stencil_nnz(*grid) == nnz
        m = gen_fdm(*grid)
        assert m.nnz == nnz

    def test_laplacian_matches_dense_reference(self):
        m = gen_fdm(2, 3, 4).toarray()
        assert np.array_equal(m, stencil_dense(2, 3, 4))

    def test_random_same_pattern(self):
        a = gen_fdm(3, 3, 3).tocsr()
        b = gen_fdm(3, 3, 3, coeffs="random", seed=5).tocsr()
        a.sort_indices()
        b.sort_indices()
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        assert np.all(np.abs(b.data) < 1.0)

    def test_random_deterministic(self):
        a = gen_fdm(2, 2, 3, coeffs="random", seed=9)
        b = gen_fdm(2, 2, 3, coeffs="random", seed=9)
        assert np.array_equal(a.toarray(), b.toarray())
        c = gen_fdm(2, 2, 3, coeffs="random", seed=10)
        assert not np.array_equal(a.toarray(), c.toarray())

    def test_bad_coeffs(self):
        with pytest.raises(ValueError):
            gen_fdm(2, 2, 2, coeffs="cubic")


class TestGenRandomSparse:
    def test_count_and_range(self):
        t = gen_random_sparse((6, 7, 8), 0.1, seed=3)
        assert t.nnz == int(0.1 * 6 * 7 * 8)
        assert np.all((t.values > 0.0) & (t.values < 1.0))

    def test_distinct_and_deterministic(self):
        a = gen_random_sparse((10, 10, 10), 0.05, seed=12)
        b = gen_random_sparse((10, 10, 10), 0.05, seed=12)
        assert np.array_equal(a.coords, b.coords)
        assert np.array_equal(a.values, b.values)

    def test_full_density(self):
        t = gen_random_sparse((3, 4), 1.0, seed=1)
        assert t.nnz == 12

    def test_fill_last_mode(self):
        t = gen_random_sparse((5, 6, 4), 0.3, seed=7, fill_last_mode=True)
        assert t.nnz == (int(0.3 * 120) // 4) * 4
        prefixes = {tuple(c[:-1]) for c in t.coords}
        assert t.nnz == len(prefixes) * 4
        last = {}
        for c in t.coords:
            last.setdefault(tuple(c[:-1]), set()).add(c[-1])
        assert all(v == {0, 1, 2, 3} for v in last.values())

    def test_bad_density(self):
        with pytest.raises(ValueError):
            gen_random_sparse((3, 3), 1.5)
