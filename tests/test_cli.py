import importlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.io

from sparsett import (
    SparseTensor, gen_fdm, gen_random_sparse, ingest_coo, load_tt, tt_to_full, write_coo
)
from sparsett import cli
from sparsett.cli import main
from conftest import rand_sparse


@pytest.fixture
def coo_file(tmp_path, rng):
    t = rand_sparse(rng, (5, 4, 6), 0.2)
    path = tmp_path / "input.coo"
    write_coo(t, path)
    return path


class TestDecompose:
    def test_success_with_report_and_train(self, coo_file, tmp_path, capsys):
        report = tmp_path / "report.json"
        train = tmp_path / "train.npz"
        rc = main([
            "decompose", "--in", str(coo_file),
            "--report", str(report), "--save-tt", str(train),
        ])
        assert rc == 0
        doc = json.loads(report.read_text())
        assert doc["method"] == "fasttt"
        assert doc["shape"] == [5, 4, 6]
        assert doc["eps_actual"] <= 1e-11
        assert doc["p"] >= 1
        assert len(doc["r"]) == 2
        tt = load_tt(train)
        assert tt.dims == (5, 4, 6)
        out = capsys.readouterr().out
        assert "eps_actual" in out

    def test_save_tt_writes_the_path_given(self, coo_file, tmp_path):
        train = tmp_path / "model.tt"
        assert main(["decompose", "--in", str(coo_file), "--save-tt", str(train)]) == 0
        assert train.exists()
        assert not (tmp_path / "model.tt.npz").exists()
        assert load_tt(train).dims == (5, 4, 6)

    def test_unwritable_train_leaves_no_report(self, coo_file, tmp_path, capsys):
        # The train is saved before the report is written, so a run that
        # cannot save its train leaves no report that reads as finished.
        report = tmp_path / "report.json"
        missing = tmp_path / "nodir"
        rc = main([
            "decompose", "--in", str(coo_file),
            "--save-tt", str(missing / "t.npz"), "--report", str(report),
        ])
        assert rc == 2
        assert str(missing) in capsys.readouterr().err
        assert not report.exists()

    def test_explicit_pivot_recorded(self, coo_file, tmp_path):
        report = tmp_path / "report.json"
        rc = main([
            "decompose", "--in", str(coo_file), "--p", "2",
            "--report", str(report),
        ])
        assert rc == 0
        assert json.loads(report.read_text())["p"] == 2

    def test_ttsvd_method_agrees_on_ranks(self, coo_file, tmp_path):
        rep_f = tmp_path / "f.json"
        rep_t = tmp_path / "t.json"
        assert main(["decompose", "--in", str(coo_file), "--report", str(rep_f)]) == 0
        assert main([
            "decompose", "--in", str(coo_file), "--method", "ttsvd",
            "--report", str(rep_t),
        ]) == 0
        df = json.loads(rep_f.read_text())
        dt = json.loads(rep_t.read_text())
        assert df["r"] == dt["r"]
        assert dt["method"] == "ttsvd"
        pipeline_only = {"p", "R", "r_tilde", "eps_actual_inner_identity", "flops_fasttt_model"}
        assert list(dt) == [k for k in df if k not in pipeline_only]

    def test_matrix_input(self, tmp_path):
        rc = main([
            "gen-fdm", "--grid", "2,2,2", "--out", str(tmp_path / "m.mtx"),
        ])
        assert rc == 0
        report = tmp_path / "m.json"
        rc = main([
            "decompose", "--in", str(tmp_path / "m.mtx"),
            "--row-dims", "2,2,2", "--col-dims", "2,2,2",
            "--p", "1", "--report", str(report),
        ])
        assert rc == 0
        doc = json.loads(report.read_text())
        assert doc["shape"] == [4, 4, 4]
        assert doc["eps_actual"] <= 1e-11

    def test_contract_violation_exits_one(self, tmp_path, rng):
        t = rand_sparse(rng, (4, 4, 4), 0.8)
        path = tmp_path / "dense.coo"
        write_coo(t, path)
        rc = main([
            "decompose", "--in", str(path),
            "--mode", "fixed", "--ranks", "1", "--eps", "1e-14",
        ])
        assert rc == 1

    def test_inner_identity_reading_held_to_its_resolution(
        self, coo_file, tmp_path, capsys, monkeypatch
    ):
        # Force the inner-identity fallback and plant its reading.
        pipeline = importlib.import_module("sparsett.fasttt")
        monkeypatch.setattr(pipeline, "_ERROR_MEASURE_CAP", 0)
        monkeypatch.setattr(pipeline, "sparse_inner_error", lambda a, tt: 2.2e-8)
        report = tmp_path / "report.json"
        argv = ["decompose", "--in", str(coo_file), "--eps", "1e-14", "--report", str(report)]
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert "measure cap" in err and "resolution 1e-06" in err
        line = next(ln for ln in out.splitlines() if "eps_actual" in ln)
        assert line.endswith("eps_actual 2.200e-08 (resolution 1e-06)")
        doc = json.loads(report.read_text())
        assert doc["eps_actual"] == doc["eps_actual_inner_identity"] == 2.2e-8
        assert doc["eps_actual_method"] == "inner_identity"
        assert doc["eps_actual_resolution"] == 1e-6
        # A reading past eps by more than the resolution breaks the contract.
        monkeypatch.setattr(pipeline, "sparse_inner_error", lambda a, tt: 0.5)
        assert main(["decompose", "--in", str(coo_file), "--eps", "0.01"]) == 1
        out, err = capsys.readouterr()
        assert "eps_actual 5.000e-01 (resolution 1e-06)" in out
        assert "eps_actual 5.000e-01 exceeds eps 1.000e-02 by more than its resolution 1e-06" in err

    @pytest.mark.parametrize(
        "method, resolution",
        [("tt_difference", 1e-12), ("inner_identity", 1e-6), ("dense", 1e-12)],
    )
    def test_each_measure_states_its_resolution(
        self, coo_file, tmp_path, capsys, monkeypatch, method, resolution
    ):
        argv = ["decompose", "--in", str(coo_file)]
        if method == "inner_identity":
            monkeypatch.setattr(importlib.import_module("sparsett.fasttt"), "_ERROR_MEASURE_CAP", 0)
        elif method == "dense":
            argv.extend(["--method", "ttsvd"])
        report = tmp_path / "report.json"
        assert main([*argv, "--report", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["eps_actual_method"] == method
        assert doc["eps_actual_resolution"] == resolution
        assert isinstance(doc["eps_actual"], float)
        assert f"(resolution {resolution:.0e})" in capsys.readouterr().out

    def test_empty_input_is_measured_by_the_difference(self, tmp_path, capsys):
        empty, report = tmp_path / "empty.coo", tmp_path / "report.json"
        empty.write_text("# shape 5 4 6\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the empty file's "no entries"
            assert main(["decompose", "--in", str(empty), "--report", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["eps_actual"] == 0.0
        assert doc["eps_actual_method"] == "tt_difference"
        assert doc["eps_actual_resolution"] == 1e-12
        assert "input has no nonzeros; returning the zero train" in capsys.readouterr().err

    def test_fixed_mode_without_eps_skips_gate(self, tmp_path, rng):
        t = rand_sparse(rng, (4, 4, 4), 0.8)
        path = tmp_path / "dense.coo"
        write_coo(t, path)
        rc = main([
            "decompose", "--in", str(path), "--mode", "fixed", "--ranks", "1",
        ])
        assert rc == 0

    def test_single_mode_input(self, tmp_path):
        t = rand_sparse(np.random.default_rng(5), (9,), 0.5)
        path = tmp_path / "vec.coo"
        write_coo(t, path)
        train = tmp_path / "vec.npz"
        assert main(["decompose", "--in", str(path), "--save-tt", str(train)]) == 0
        tt = load_tt(train)
        assert tt.dims == (9,)
        assert np.array_equal(tt_to_full(tt), t.to_dense())

    def test_out_of_memory_exits_two(self, coo_file, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 10.1 GiB")

        monkeypatch.setattr(cli, "fasttt", exhausted)
        assert main(["decompose", "--in", str(coo_file)]) == 2
        err = capsys.readouterr().err
        assert err == "error: out of memory: Unable to allocate 10.1 GiB\n"

    def test_missing_file_exits_two(self, tmp_path):
        assert main(["decompose", "--in", str(tmp_path / "nope.coo")]) == 2

    def test_malformed_input_exits_two(self, tmp_path):
        path = tmp_path / "bad.coo"
        path.write_text("not a header\n")
        assert main(["decompose", "--in", str(path)]) == 2

    def test_matrix_without_dims_exits_two(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 2.0\n")
        assert main(["decompose", "--in", str(path)]) == 2

    @staticmethod
    def write_mtx(path, *entries):
        path.write_text(
            f"%%MatrixMarket matrix coordinate real general\n2 2 {len(entries)}\n"
            + "".join(e + "\n" for e in entries)
        )

    @pytest.mark.parametrize("entries, message", [
        (("1 2 1.0", "2 1 2.0", "1 2 3.0"), "duplicate entry (1, 2)"),
        # Cancelling twins are two nonzeros, not a dropped zero.
        (("1 2 1.0", "2 1 2.0", "1 2 -1.0"), "duplicate entry (1, 2)"),
        # The first repeat in file order is named.
        (("2 1 1.0", "1 2 2.0", "2 1 3.0", "1 2 4.0"), "duplicate entry (2, 1)"),
        (("1 2 1.0", "2 1 2.0", "2 2 nan"), "tensor values must be finite"),
    ])
    def test_refused_matrix_names_file(self, tmp_path, capsys, entries, message):
        # Repeated entries are refused, never summed, and named 1-based.
        path = tmp_path / "dup.mtx"
        self.write_mtx(path, *entries)
        rc = main(["decompose", "--in", str(path), "--row-dims", "2", "--col-dims", "2"])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("name, flags, message", [
        ("m.mtx", ("--row-dims", "3,x", "--col-dims", "2"),
         "expected comma-separated integers, got '3,x'"),
        ("m.mtx", ("--row-dims", "2", "--col-dims", "1,2"),
         "row and column factorizations need equal length"),
        ("e.coo", (), "{path}: empty file, missing shape header"),
        ("t.coo", ("--mode", "fixed", "--ranks", "2,-1"), "ranks must be nonnegative"),
        ("t.coo", ("--row-dims", "2,2"), "{path}: tensor input does not take --row-dims"),
        ("t.coo", ("--col-dims", "2,2"), "{path}: tensor input does not take --col-dims"),
    ], ids=["bad-integer", "factor-counts", "empty-coo", "negative-rank", "row-dims", "col-dims"])
    def test_refusal_exits_two_and_names_its_cause(self, tmp_path, rng, capsys, name, flags, message):
        path, report = tmp_path / name, tmp_path / "report.json"
        if name == "m.mtx":
            self.write_mtx(path, "1 2 1.0", "2 1 2.0")
        elif name == "e.coo":
            path.write_text("")
        else:
            write_coo(rand_sparse(rng, (5, 4, 6), 0.2), path)
        assert main(["decompose", "--in", str(path), *flags, "--report", str(report)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message.format(path=path)}\n"
        assert not report.exists()

    def test_matrix_body_the_reader_refuses_names_file(self, tmp_path, capsys):
        # The reader's own wording follows the file name.
        path = tmp_path / "bad.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 x 1.0\n")
        rc = main(["decompose", "--in", str(path), "--row-dims", "1", "--col-dims", "1"])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {path}: ")

    def test_symmetric_matrix_listing_both_halves_refused(self, tmp_path, capsys):
        # The expanded half repeats the listed one; which of the two is
        # named first depends on the reader's expansion order.
        path = tmp_path / "sym.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n2 1 2.0\n1 2 3.0\n")
        assert main(["decompose", "--in", str(path), "--row-dims", "2", "--col-dims", "2"]) == 2
        err = capsys.readouterr().err
        assert err in (f"error: {path}: duplicate entry ({e})\n" for e in ("1, 2", "2, 1"))

    def test_matrix_zero_valued_twin_accepted(self, tmp_path):
        path = tmp_path / "z.mtx"
        self.write_mtx(path, "1 2 0.0", "2 1 2.0", "1 2 1.0")
        train = tmp_path / "z.npz"
        rc = main([
            "decompose", "--in", str(path), "--row-dims", "2", "--col-dims", "2",
            "--save-tt", str(train),
        ])
        assert rc == 0
        assert tt_to_full(load_tt(train)).tolist() == [0.0, 1.0, 2.0, 0.0]

    def test_fixed_without_ranks_exits_two(self, coo_file):
        assert main(["decompose", "--in", str(coo_file), "--mode", "fixed"]) == 2

    def test_pivot_out_of_range_exits_two(self, coo_file, capsys):
        # Pivots are 1-based on the command line; the message says so.
        for p in ("0", "4", "9"):
            assert main(["decompose", "--in", str(coo_file), "--p", p]) == 2
            assert capsys.readouterr().err == f"error: --p must be in 1..3, got {p}\n"
        assert main(["decompose", "--in", str(coo_file), "--p", "3"]) == 0

    def test_nan_eps_exits_two(self, coo_file, tmp_path, capsys):
        report = tmp_path / "report.json"
        for method in ("fasttt", "ttsvd"):
            for eps in ("nan", "inf"):
                rc = main([
                    "decompose", "--in", str(coo_file), "--method", method,
                    "--eps", eps, "--report", str(report),
                ])
                assert rc == 2
                out, err = capsys.readouterr()
                assert out == "" and "--eps" in err
                assert not report.exists()

    def test_eps_zero_means_lossless_intent_for_both_methods(self, tmp_path, capsys):
        # One rule: --eps 0 runs and reports as --eps 1e-14 under either
        # method (TT-SVD used to run at 0 and cut at the numerical rank).
        path = tmp_path / "t.coo"
        write_coo(gen_random_sparse((6, 7, 8), 0.3, seed=3), path)
        for method in ("fasttt", "ttsvd"):
            docs = []
            for eps in ("0", "1e-14"):
                report = tmp_path / f"{method}-{eps}.json"
                argv = ["decompose", "--in", str(path), "--method", method, "--eps", eps]
                assert main([*argv, "--report", str(report)]) == 0
                docs.append(json.loads(report.read_text()))
            assert docs[0]["eps"] == docs[1]["eps"] == 1e-14
            assert docs[0]["r"] == docs[1]["r"]
            assert "eps          1.000e-14" in capsys.readouterr().out

    def test_bad_eps_rejected_before_densifying(self, tmp_path, capsys):
        shape = (1000, 1000, 151)
        assert np.prod(shape) > cli._TTSVD_DENSE_CAP
        path = tmp_path / "huge.coo"
        write_coo(SparseTensor(shape, [[0, 0, 0]], [1.0]), path)
        for eps in ("nan", "inf", "-0.5"):
            rc = main(["decompose", "--in", str(path), "--method", "ttsvd", f"--eps={eps}"])
            assert rc == 2
            err = capsys.readouterr().err
            assert "eps" in err and "cap" not in err

    @pytest.mark.parametrize("flag", [
        ("--p", "2"), ("--mode", "dynamic"), ("--mode", "fixed", "--ranks", "2"), ("--ranks", "2"),
    ], ids=["p", "mode-dynamic", "mode-fixed", "ranks"])
    def test_ttsvd_rejects_pipeline_flags(self, coo_file, tmp_path, capsys, flag):
        report = tmp_path / "report.json"
        rc = main([
            "decompose", "--in", str(coo_file), "--method", "ttsvd", *flag,
            "--report", str(report),
        ])
        assert rc == 2
        assert flag[0] in capsys.readouterr().err
        assert not report.exists()

    def test_norm_that_overflows_exits_two(self, tmp_path, capsys):
        # 1e160 squared overflows float64; both methods refuse the input
        # before anything is printed or written.
        t = gen_random_sparse((6, 7, 8), 0.3, seed=3)
        values = t.values.copy()
        values[0] = 1e160
        path = tmp_path / "big.coo"
        write_coo(SparseTensor(t.shape, t.coords, values), path)
        report = tmp_path / "report.json"
        for method in ("fasttt", "ttsvd"):
            rc = main([
                "decompose", "--in", str(path), "--method", method, "--eps", "0.1",
                "--report", str(report),
            ])
            assert rc == 2
            out, err = capsys.readouterr()
            assert out == "" and "overflow" in err
            assert not report.exists()

    def test_ranks_without_fixed_mode_exits_two(self, coo_file, tmp_path, capsys):
        report = tmp_path / "report.json"
        for mode in ([], ["--mode", "dynamic"]):
            rc = main([
                "decompose", "--in", str(coo_file), "--ranks", "2", "--eps", "0.3",
                *mode, "--report", str(report),
            ])
            assert rc == 2
            assert "--ranks" in capsys.readouterr().err
            assert not report.exists()


class TestBench:
    def write_inputs(self, tmp_path, rng):
        files = []
        for i in range(2):
            t = rand_sparse(np.random.default_rng(50 + i), (4, 5, 3), 0.2)
            path = tmp_path / f"case{i}.coo"
            write_coo(t, path)
            files.append(str(path))
        return files

    def test_all_cases_ok(self, tmp_path, rng, capsys):
        files = self.write_inputs(tmp_path, rng)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "cases": [
                {"name": "a", "file": files[0], "eps": 1e-10},
                {"name": "b", "file": files[1], "eps": 0.1, "mode": "dynamic"},
            ]
        }))
        out_dir = tmp_path / "out"
        rc = main(["bench", "--manifest", str(manifest), "--out", str(out_dir)])
        assert rc == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert [c["ok"] for c in summary["cases"]] == [True, True]
        assert (out_dir / "a.json").exists()
        assert (out_dir / "b.json").exists()
        table = capsys.readouterr().out
        assert "a" in table and "b" in table

    def test_summary_is_written_as_every_report(self, tmp_path, rng, monkeypatch, capsys):
        # Indented JSON with a closing newline; a non-finite number is
        # refused, exit 2, as in every report.
        files = self.write_inputs(tmp_path, rng)
        manifest = {"cases": [{"name": "a", "file": files[0], "compare_ttsvd": False}]}
        rc, out_dir = self.run_manifest(tmp_path, manifest)
        assert rc == 0
        text = (out_dir / "summary.json").read_text(encoding="ascii")
        assert text == json.dumps(json.loads(text), indent=2) + "\n"
        run_case = cli._run_case
        monkeypatch.setattr(cli, "_run_case", lambda args: {**run_case(args), "speedup": float("nan")})
        capsys.readouterr()
        rc, _ = self.run_manifest(tmp_path, manifest)
        assert rc == 2
        assert "Out of range float values are not JSON compliant" in capsys.readouterr().err

    def test_ranks_without_fixed_mode_fail_their_case(self, tmp_path, rng):
        files = self.write_inputs(tmp_path, rng)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "cases": [
                {"name": "fixed", "file": files[0], "mode": "fixed", "ranks": [2, 2]},
                {"name": "static", "file": files[0], "eps": 0.3, "ranks": [2, 2]},
            ]
        }))
        out_dir = tmp_path / "out"
        rc = main(["bench", "--manifest", str(manifest), "--out", str(out_dir)])
        assert rc == 1
        summary = json.loads((out_dir / "summary.json").read_text())
        by_name = {c["name"]: c for c in summary["cases"]}
        assert by_name["fixed"]["ok"] is True
        assert by_name["static"]["ok"] is False
        assert "--ranks" in by_name["static"]["error"]

    def test_matrix_dims_on_a_tensor_fail_their_case(self, tmp_path, rng):
        files = self.write_inputs(tmp_path, rng)
        rc, out_dir = self.run_manifest(tmp_path, {"cases": [
            {"name": "plain", "file": files[0], "compare_ttsvd": False},
            {"name": "dims", "file": files[0], "row_dims": [2, 2], "compare_ttsvd": False},
        ]})
        assert rc == 1
        by_name = {c["name"]: c for c in json.loads((out_dir / "summary.json").read_text())["cases"]}
        assert by_name["plain"]["ok"] is True
        assert by_name["dims"]["ok"] is False
        assert by_name["dims"]["error"] == (
            f"FormatError: {files[0]}: tensor input does not take --row-dims"
        )

    def test_failed_case_recorded(self, tmp_path, rng):
        files = self.write_inputs(tmp_path, rng)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "cases": [
                {"name": "good", "file": files[0]},
                {"name": "bad", "file": str(tmp_path / "missing.coo")},
            ]
        }))
        out_dir = tmp_path / "out"
        rc = main(["bench", "--manifest", str(manifest), "--out", str(out_dir)])
        assert rc == 1
        summary = json.loads((out_dir / "summary.json").read_text())
        by_name = {c["name"]: c for c in summary["cases"]}
        assert by_name["good"]["ok"] is True
        assert by_name["bad"]["ok"] is False
        assert "error" in by_name["bad"]

    def test_repeated_matrix_entry_fails_its_case(self, tmp_path):
        # Cases read through decompose's loader, so the message is its own.
        path = tmp_path / "dup.mtx"
        TestDecompose.write_mtx(path, "1 2 1.0", "2 1 2.0", "1 2 3.0")
        case = {"file": str(path), "row_dims": [2], "col_dims": [2], "compare_ttsvd": False}
        rc, out_dir = self.run_manifest(tmp_path, {"cases": [case]})
        assert rc == 1
        (result,) = json.loads((out_dir / "summary.json").read_text())["cases"]
        assert result["error"] == f"FormatError: {path}: duplicate entry (1, 2)"

    def run_manifest(self, tmp_path, manifest):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        out_dir = tmp_path / "out"
        return main(["bench", "--manifest", str(path), "--out", str(out_dir)]), out_dir

    def test_duplicate_names_refused_before_running(self, tmp_path, rng, capsys):
        # Both cases would be named after the file and share one report.
        files = self.write_inputs(tmp_path, rng)
        rc, out_dir = self.run_manifest(tmp_path, {"cases": [
            {"file": files[0], "compare_ttsvd": False},
            {"file": files[0], "eps": 0.1, "compare_ttsvd": False},
        ]})
        assert rc == 2
        assert not out_dir.exists()
        assert "cases 1 and 2 share the name 'case0'" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["sub/b", "..", "summary"])
    def test_name_that_is_no_plain_file_name_refused(self, tmp_path, rng, capsys, name):
        files = self.write_inputs(tmp_path, rng)
        rc, out_dir = self.run_manifest(tmp_path, {"cases": [
            {"name": "a", "file": files[0], "compare_ttsvd": False},
            {"name": name, "file": files[1], "compare_ttsvd": False},
        ]})
        assert rc == 2
        assert not out_dir.exists()
        assert f"case 2 has a bad name {name!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("manifest", [{"cases": ["t.coo"]}, {"cases": [{"eps": 0.1}]}, ["t.coo"]])
    def test_malformed_case_refused(self, tmp_path, capsys, manifest):
        rc, out_dir = self.run_manifest(tmp_path, manifest)
        assert rc == 2
        assert not out_dir.exists()
        assert capsys.readouterr().err.startswith("error: ")

    def test_readme_manifest_parses(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        example = readme.split("### Bench manifest", 1)[1].split("```json", 1)[1]
        manifest = json.loads(example.split("```", 1)[0])
        fdm, tensor = cli._named_cases(manifest["cases"], "README.md")
        assert (fdm.name, fdm.input, fdm.eps, fdm.p) == ("fdm20", "fdm.mtx", 1e-14, 2)
        assert (fdm.row_dims, fdm.col_dims, fdm.compare_ttsvd) == ("20,20,20", "20,20,20", True)
        assert (tensor.name, tensor.mode, tensor.compare_ttsvd) == ("tensor", "dynamic", False)

    @pytest.mark.parametrize("fields, flags", [
        ({}, []),
        ({"eps": 1e-10, "p": 2}, ["--eps", "1e-10", "--p", "2"]),
        ({"eps": "0.1", "p": "2"}, ["--eps", "0.1", "--p", "2"]),
        ({"eps": -0.5, "mode": "dynamic"}, ["--eps", "-0.5", "--mode", "dynamic"]),
        ({"mode": "fixed", "ranks": 2}, ["--mode", "fixed", "--ranks", "2"]),
        ({"mode": "fixed", "ranks": [2, 3]}, ["--mode", "fixed", "--ranks", "2,3"]),
        ({"mode": "fixed", "ranks": "2,3"}, ["--mode", "fixed", "--ranks", "2,3"]),
        ({"row_dims": [2, 2], "col_dims": "4,1"}, ["--row-dims", "2,2", "--col-dims", "4,1"]),
    ])
    def test_case_fields_parse_as_their_flags(self, fields, flags):
        (case,) = cli._named_cases([{"file": "t.coo", **fields}], "m.json")
        want = cli._build_parser().parse_args(["decompose", "--in", "t.coo", *flags])
        got = vars(case)
        assert (got.pop("name"), got.pop("compare_ttsvd")) == ("t", True)
        assert got == {k: v for k, v in vars(want).items() if k not in ("command", "func")}

    @pytest.mark.parametrize("field, value, names", [
        ("p", True, "argument --p: invalid int value: 'True'"),
        ("p", "x", "argument --p: invalid int value: 'x'"),
        ("eps", "abc", "argument --eps: invalid float value: 'abc'"),
        ("mode", "bogus", "argument --mode: invalid choice: 'bogus'"),
        ("compare_ttsvd", "no", "'compare_ttsvd' must be true or false"),
        ("rank", 3, "unknown field 'rank'"),
    ])
    def test_ill_typed_field_refused_before_running(self, tmp_path, rng, capsys, field, value, names):
        files = self.write_inputs(tmp_path, rng)
        rc, out_dir = self.run_manifest(tmp_path, {"cases": [
            {"name": "a", "file": files[0], "compare_ttsvd": False},
            {"name": "b", "file": files[1], field: value},
        ]})
        assert rc == 2
        assert not out_dir.exists()
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {tmp_path / 'manifest.json'}: case 2: {names}")

    def test_threads_option_is_gone(self, tmp_path, rng):
        files = self.write_inputs(tmp_path, rng)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"cases": [{"file": files[0]}]}))
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--manifest", str(manifest), "--threads", "2"])
        assert exc.value.code == 2

    def test_contract_breach_fails_its_case(self, tmp_path, capsys):
        # Rank 1 cannot meet eps 1e-3 here: decompose exits 1, and so must
        # the bench case, with the reading and the budget in its error.
        path = tmp_path / "t.coo"
        write_coo(gen_random_sparse((6, 7, 8), 0.3, seed=3), path)
        fixed = ["--mode", "fixed", "--ranks", "1", "--eps", "1e-3"]
        assert main(["decompose", "--in", str(path), *fixed]) == 1
        assert "eps_actual 8.63" in capsys.readouterr().err
        rc, out_dir = self.run_manifest(tmp_path, {"cases": [
            {"name": "breach", "file": str(path), "mode": "fixed", "ranks": [1], "eps": 1e-3},
        ]})
        assert rc == 1
        (case,) = json.loads((out_dir / "summary.json").read_text())["cases"]
        assert case["ok"] is False
        assert "eps_actual 8.63" in case["error"] and "eps 1.000e-03" in case["error"]
        doc = json.loads((out_dir / "breach.json").read_text())
        assert doc["r"] == [1, 1] and doc["eps_actual"] > 0.8
        assert "breach" in capsys.readouterr().out

    def test_inner_identity_breach_fails_its_case(self, coo_file, tmp_path, capsys, monkeypatch):
        # A rounding that leaves a 1% error, measured past the cap by the
        # inner identity: the reading is far beyond eps plus its resolution.
        pipeline = importlib.import_module("sparsett.fasttt")
        round_static = pipeline.efficient_tt_rounding

        def scaled(t, eps):
            cores = list(round_static(t, eps).cores)
            cores[0] = cores[0] * 1.01
            return pipeline.TTTensor(cores)

        monkeypatch.setattr(pipeline, "_ERROR_MEASURE_CAP", 0)
        monkeypatch.setattr(pipeline, "efficient_tt_rounding", scaled)
        assert main(["decompose", "--in", str(coo_file), "--eps", "1e-10"]) == 1
        err = capsys.readouterr().err
        assert "contract violation: eps_actual 1.000e-02 exceeds eps 1.000e-10" in err
        assert "by more than its resolution 1e-06" in err
        rc, out_dir = self.run_manifest(tmp_path, {"cases": [
            {"name": "scaled", "file": str(coo_file), "eps": 1e-10, "compare_ttsvd": False},
        ]})
        assert rc == 1
        (case,) = json.loads((out_dir / "summary.json").read_text())["cases"]
        assert case["ok"] is False and "resolution 1e-06" in case["error"]
        doc = json.loads((out_dir / "scaled.json").read_text())
        assert doc["eps_actual_method"] == "inner_identity"
        assert doc["eps_actual"] == pytest.approx(0.01, rel=1e-6)

    def test_ttsvd_reference_matches_decompose(self, tmp_path, rng):
        files = self.write_inputs(tmp_path, rng)
        report = tmp_path / "t.json"
        assert main([
            "decompose", "--in", files[0], "--method", "ttsvd", "--eps", "0.1",
            "--report", str(report),
        ]) == 0
        rc, out_dir = self.run_manifest(tmp_path, {"cases": [
            {"name": "a", "file": files[0], "eps": 0.1},
        ]})
        assert rc == 0
        (case,) = json.loads((out_dir / "summary.json").read_text())["cases"]
        assert case["ttsvd_r"] == json.loads(report.read_text())["r"]
        assert case["ttsvd_cpu_s"] > 0

    def test_reference_past_its_limit_keeps_the_verdict(self, tmp_path, rng, monkeypatch, capsys):
        # A case is ok exactly when decompose exits 0; a refused TT-SVD
        # comparison is recorded beside it.
        files = self.write_inputs(tmp_path, rng)
        monkeypatch.setattr(cli, "_TTSVD_DENSE_CAP", 59)
        assert main(["decompose", "--in", files[0], "--eps", "0.1"]) == 0
        assert main(["decompose", "--in", files[0], "--method", "ttsvd", "--eps", "0.1"]) == 2
        assert capsys.readouterr().err == (
            "error: the TT-SVD reference densifies its input: 60 entries exceed its limit of 59\n"
        )
        rc, out_dir = self.run_manifest(tmp_path, {"cases": [
            {"name": "a", "file": files[0], "eps": 0.1},
        ]})
        assert rc == 0
        (case,) = json.loads((out_dir / "summary.json").read_text())["cases"]
        assert case["ok"] is True and "error" not in case and "ttsvd_r" not in case
        assert case["ttsvd_error"] == (
            "ValueError: the TT-SVD reference densifies its input: 60 entries exceed its limit of 59"
        )
        assert json.loads((out_dir / "a.json").read_text())["eps"] == 0.1

    def test_row_without_comparison_shows_dashes(self, tmp_path, rng, monkeypatch, capsys):
        # No comparison, skipped or refused, prints '-' for speedup and flop
        # ratio, never nan; a refusal is named on the row.
        files = self.write_inputs(tmp_path, rng)
        monkeypatch.setattr(cli, "_TTSVD_DENSE_CAP", 59)
        rc, _ = self.run_manifest(tmp_path, {"cases": [
            {"name": "refused", "file": files[0], "eps": 0.1},
            {"name": "skipped", "file": files[0], "eps": 0.1, "compare_ttsvd": False},
        ]})
        assert rc == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        assert "nan" not in "\n".join(rows)
        refused, skipped = (row.split(None, 5) for row in rows)
        assert refused[:2] == ["refused", "yes"] and refused[3:5] == ["-", "-"]
        assert refused[5] == (
            "ValueError: the TT-SVD reference densifies its input: 60 entries exceed its limit of 59"
        )
        assert skipped[:2] == ["skipped", "yes"] and skipped[3:] == ["-", "-"]

    def test_pivot_out_of_range_fails_its_case(self, tmp_path, rng):
        files = self.write_inputs(tmp_path, rng)
        rc, out_dir = self.run_manifest(tmp_path, {"cases": [
            {"name": f"p{p}", "file": files[0], "p": p, "compare_ttsvd": False}
            for p in (0, 1, 3, 4)
        ]})
        assert rc == 1
        cases = json.loads((out_dir / "summary.json").read_text())["cases"]
        assert [c["ok"] for c in cases] == [False, True, True, False]
        assert cases[0]["error"] == "FormatError: --p must be in 1..3, got 0"
        assert cases[3]["error"] == "FormatError: --p must be in 1..3, got 4"

    def test_bad_manifest_exits_two(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"cases": []}))
        assert main(["bench", "--manifest", str(manifest), "--out", str(tmp_path / "o")]) == 2

    def test_manifest_that_is_not_json_exits_two(self, tmp_path, capsys):
        manifest, out_dir = tmp_path / "bad.json", tmp_path / "o"
        manifest.write_text("cases: []\n")
        assert main(["bench", "--manifest", str(manifest), "--out", str(out_dir)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {manifest}: Expecting value: ")
        assert not out_dir.exists()


class TestGenerators:
    def test_gen_random_round_trip(self, tmp_path):
        out = tmp_path / "r.coo"
        rc = main([
            "gen-random", "--shape", "6,7,8", "--density", "0.05",
            "--seed", "3", "--out", str(out),
        ])
        assert rc == 0
        t = ingest_coo(out)
        ref = gen_random_sparse((6, 7, 8), 0.05, seed=3)
        assert np.array_equal(t.coords, ref.coords)
        assert np.array_equal(t.values, ref.values)

    def test_gen_fdm_writes_the_path_given(self, tmp_path):
        # .mm is read as MatrixMarket, and no .mtx is appended to it.
        out = tmp_path / "f.mm"
        assert main(["gen-fdm", "--grid", "2,2,2", "--out", str(out)]) == 0
        assert not (tmp_path / "f.mm.mtx").exists()
        assert main(["decompose", "--in", str(out), "--row-dims", "2,2,2",
                     "--col-dims", "2,2,2"]) == 0

    def test_gen_fdm_mtx_bytes_unchanged(self, tmp_path):
        out, ref = tmp_path / "f.mtx", tmp_path / "ref.mtx"
        argv = ["gen-fdm", "--grid", "3,2,2", "--coeffs", "random", "--seed", "4", "--out", str(out)]
        assert main(argv) == 0
        scipy.io.mmwrite(str(ref), gen_fdm(3, 2, 2, coeffs="random", seed=4), precision=17)
        assert out.read_bytes() == ref.read_bytes()

    def test_gen_fdm_bad_grid_exits_two(self, tmp_path):
        assert main(["gen-fdm", "--grid", "2,2", "--out", str(tmp_path / "m.mtx")]) == 2


def test_decompose_does_not_import_scipy_linalg(coo_file, tmp_path):
    # scipy.linalg serves only the gesvd fallback; loading it costs every
    # process its import and a second OpenBLAS thread pool.
    script = "\n".join([
        "import sys",
        "from sparsett.cli import main",
        f"assert main(['decompose', '--in', {str(coo_file)!r}]) == 0",
        f"mtx = {str(tmp_path / 'fdm.mtx')!r}",
        "assert main(['gen-fdm', '--grid', '4,4,4', '--out', mtx]) == 0",
        "assert main(['decompose', '--in', mtx, '--row-dims', '2,2,2,2,2,2',"
        " '--col-dims', '2,2,2,2,2,2', '--eps', '1e-12']) == 0",
        "assert 'scipy.linalg' not in sys.modules, 'scipy.linalg was imported'",
    ])
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
