import json
import math
import warnings

import numpy as np
import pytest
import scipy.io
import scipy.sparse
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sparsett import formats
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

    @pytest.mark.parametrize("array_pass", [True, False])
    def test_duplicate_names_both_lines(self, tmp_path, monkeypatch, array_pass):
        path = tmp_path / "dup.coo"
        path.write_text("# shape 2 2\n1 2 1.0\n2 1 2.0\n1 2 3.0\n")
        if not array_pass:
            monkeypatch.setattr(formats, "_coo_arrays", lambda path: None)
        with pytest.raises(FormatError) as info:
            ingest_coo(path)
        assert str(info.value) == f"{path}:4: duplicate coordinate (1, 2), first on line 2"

    @pytest.mark.parametrize("body, message", [
        # The first repeat in file order; blank lines count as lines only.
        ("\n2 1 1.0\n \t\n1 2 2.0\n2 1 3.0\n1 2 4.0\n",
         ":6: duplicate coordinate (2, 1), first on line 3"),
        # A line's own fault outranks a repeat on an earlier line.
        ("1 2 1.0\n1 2 3.0\n3 1 2.0\n", ":4: index 3 out of range 1..2 in mode 1"),
    ])
    @pytest.mark.parametrize("array_pass", [True, False])
    def test_which_fault_is_named(self, tmp_path, monkeypatch, array_pass, body, message):
        path = tmp_path / "bad.coo"
        path.write_text("# shape 2 2\n" + body)
        if not array_pass:
            monkeypatch.setattr(formats, "_coo_arrays", lambda path: None)
        with pytest.raises(FormatError) as info:
            ingest_coo(path)
        assert str(info.value) == f"{path}{message}"

    @pytest.mark.parametrize("array_pass", [True, False])
    def test_zero_valued_twin_is_no_duplicate(self, tmp_path, monkeypatch, array_pass):
        # Zeros are dropped before the check, whichever side of the twin.
        path = tmp_path / "z.coo"
        path.write_text("# shape 2 2\n1 2 0.0\n2 1 2.0\n1 2 3.0\n2 1 0.0\n")
        if not array_pass:
            monkeypatch.setattr(formats, "_coo_arrays", lambda path: None)
        t = ingest_coo(path)
        assert t.coords.tolist() == [[0, 1], [1, 0]] and t.values.tolist() == [3.0, 2.0]

    def test_valid_file_skips_line_loop(self, tmp_path, monkeypatch):
        calls, lines = [], formats._coo_lines
        monkeypatch.setattr(formats, "_coo_lines", lambda path: calls.append(path) or lines(path))
        path = tmp_path / "ok.coo"
        path.write_text("# shape 2 2\n1 2 1.0\n2 1 2.0\n")
        assert ingest_coo(path).nnz == 2
        assert calls == []

    def test_empty_body_warns(self, tmp_path):
        path = tmp_path / "zero.coo"
        path.write_text("# shape 3 4\n")
        with pytest.warns(UserWarning, match="zero tensor"):
            t = ingest_coo(path)
        assert t.nnz == 0
        assert t.shape == (3, 4)


# Finite floats, with the edges of the format named so they come up often.
_VALUES = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -2.2250738585072009e-308, 1.7e308, -1.7e308]
)
_BLANK = st.sampled_from(["", " ", "\t", " \t  "])


@st.composite
def coo_texts(draw):
    """A valid ``.coo`` file in any spelling the line parser accepts."""
    dims = tuple(draw(st.lists(st.integers(1, 12), min_size=1, max_size=4)))
    size = math.prod(dims)
    lin = draw(st.lists(st.integers(0, size - 1), unique=True, min_size=1, max_size=12))
    coords = np.stack(np.unravel_index(lin, dims), axis=1) + 1
    lines = ["# shape " + " ".join(map(str, dims))]
    for c in coords.tolist():
        lines += draw(st.lists(_BLANK, max_size=2))
        fields = [draw(st.sampled_from(["%d", "+%d", "%03d"])) % i for i in c]
        value = draw(_VALUES)
        fields.append(draw(st.sampled_from(["%r", "%.17g", "%+.17e", "%.17E"])) % value)
        sep = draw(st.sampled_from([" ", "\t", "  ", " \t"]))
        lines.append(draw(_BLANK) + sep.join(fields) + draw(_BLANK))
    lines += draw(st.lists(_BLANK, max_size=2))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


class TestCOOArrayParse:
    """The one-pass NumPy parse against the line parser."""

    @given(text=coo_texts())
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_matches_line_parse(self, tmp_path, text):
        path = tmp_path / "h.coo"
        path.write_bytes(text.encode("ascii"))
        fast = formats._coo_arrays(path)
        assert fast is not None  # every spelling drawn takes the array path
        # The reference is the line loop, the parser that names bad lines.
        dims, coords, values, linenos = formats._coo_lines(path)
        assert len(linenos) == len(values)
        assert fast[0] == dims
        assert np.array_equal(fast[1], coords)
        assert np.array_equal(fast[2].view(np.int64), np.asarray(values).view(np.int64))
        got, want = ingest_coo(path), SparseTensor(dims, coords, values)
        assert got.shape == want.shape
        assert np.array_equal(got.coords, want.coords)
        assert np.array_equal(got.values.view(np.int64), want.values.view(np.int64))

    @pytest.mark.parametrize("line", ["1 2 1_0.5", "1_0 2 0.5"], ids=["value", "index"])
    def test_underscored_numbers_refused(self, tmp_path, line):
        # Python's int and float read '1_0' as 10; NumPy refuses it, and so
        # does the line loop, so both parsers accept the same files.
        path = tmp_path / "u.coo"
        path.write_text(f"# shape 12 2\n{line}\n")
        assert formats._coo_arrays(path) is None
        with pytest.raises(FormatError) as info:
            ingest_coo(path)
        assert str(info.value) == f"{path}:2: unparsable entry '{line}'"

    @pytest.mark.parametrize("header", ["# shape 1_2 2", "# shape 12 2_0"])
    def test_underscored_extent_refused(self, tmp_path, header):
        # The header follows the body lines' grammar: int() alone would
        # read '1_2' as extent 12 in both parsers.
        path = tmp_path / "u.coo"
        path.write_text(f"{header}\n1 2 0.5\n")
        want = f"{path}:1: bad shape header: digit separator '_' in '{header}'"
        assert formats._coo_arrays(path) is None
        for parse in (formats._coo_lines, ingest_coo):
            with pytest.raises(FormatError) as info:
                parse(path)
            assert str(info.value) == want

    @pytest.mark.parametrize(
        "body, msg",
        [
            # comments=None: a '#' line is a parse error, not a skipped line.
            ("1 1 5.0\n# a b\n", ":3: unparsable entry '# a b'"),
            ("1 1 5.0\n#\n", ":3: expected 2 indices and a value, got 1 fields"),
            ("1.0 1 5.0\n", ":2: unparsable entry '1.0 1 5.0'"),
            ("1 1 5.0\n1e0 2 5.0\n", ":3: unparsable entry '1e0 2 5.0'"),
            (
                "1 1 5.0\n12345678901234567890 1 2.0\n",
                ":3: index 12345678901234567890 out of range 1..2 in mode 1",
            ),
            ("1 1 5.0\n\n2 2 nan\n", ":4: non-finite value nan"),
            ("1 1 -inf\n", ":2: non-finite value -inf"),
            ("1 1 1e400\n", ":2: non-finite value 1e400"),
            ("1 1 5.0\r\n1 2 1 5.0\r\n", ":3: expected 2 indices and a value, got 4 fields"),
            ("1 5.0\n", ":2: expected 2 indices and a value, got 2 fields"),
        ],
    )
    def test_refused_with_line_number(self, tmp_path, body, msg):
        path = tmp_path / "bad.coo"
        path.write_bytes(("# shape 2 2\n" + body).encode("ascii"))
        with pytest.raises(FormatError) as info:
            ingest_coo(path)
        assert str(info.value) == f"{path}{msg}"

    @pytest.mark.parametrize("body", ["", "\n", " \t\n\n"])
    def test_empty_body_warns_once_at_caller(self, tmp_path, body):
        path = tmp_path / "zero.coo"
        path.write_text("# shape 3 4\n" + body)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t = ingest_coo(path)
        assert t.nnz == 0 and t.shape == (3, 4)
        assert [w.category for w in caught] == [UserWarning]
        assert "zero tensor" in str(caught[0].message)
        assert caught[0].filename == __file__


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
            ("%%MatrixMarket vector coordinate real general", "object 'vector'"),
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
        assert doc["schema_version"] == 4
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
        assert doc["eps_actual_method"] == rep.eps_actual_method == "tt_difference"
        assert doc["eps_actual_resolution"] == rep.eps_actual_resolution == 1e-12
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
