"""Command-line interface.

Subcommands: ``decompose`` (one input, one report), ``bench`` (a
manifest of cases, each run as ``decompose`` runs it, one after
another), and the generators ``gen-fdm`` / ``gen-random``.

Exit codes: 0 on success, 1 when the decomposition violates its error
contract (the measured error exceeds eps by more than the measure's
stated resolution), 2 on input problems or when memory runs out.
User-facing indices (``--p``, report field ``p``, file formats) are
1-based; the Python API underneath is 0-based.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np
import scipy.io

from .errors import ContractViolationError, FormatError
from .fasttt import DecompositionReport, fasttt
from .formats import (
    REPORT_SCHEMA_VERSION,
    ingest_coo,
    ingest_matrix_market,
    report_document,
    save_tt,
    write_coo,
    write_report,
)
from .generators import gen_fdm, gen_random_sparse
from .tensor import SparseTensor
from .ttformat import TTTensor, flops_ttsvd, tensorize_matrix, tt_svd, tt_to_full

__all__ = ["main"]

# Densification guard for --method ttsvd (entries, not bytes).
_TTSVD_DENSE_CAP = 150_000_000


def _int_tuple(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.replace(",", " ").split())
    except ValueError:
        raise FormatError(f"expected comma-separated integers, got {text!r}") from None


def _load_input(path: str, row_dims, col_dims):
    """Read a tensor from ``.coo`` text or a MatrixMarket file.

    Matrix inputs (``.mtx`` or ``.mm``) are fused into a tensor and need
    ``--row-dims`` and ``--col-dims``, which any other input refuses; a
    refused matrix is named by file, a repeated entry by its 1-based
    (row, col).  Returns ``(tensor, matrix_dims_or_None)``.
    """
    suffix = Path(path).suffix.lower()
    if suffix in (".mtx", ".mm"):
        if row_dims is None or col_dims is None:
            raise FormatError(
                f"{path}: matrix input needs --row-dims and --col-dims"
            )
        rd = _int_tuple(row_dims)
        cd = _int_tuple(col_dims)
        matrix = ingest_matrix_market(path)
        try:
            return tensorize_matrix(matrix, rd, cd), (rd, cd)
        except FormatError as exc:
            if exc.positions:  # name the repeat by its 1-based (row, col)
                k = exc.positions[1]
                exc = f"duplicate entry ({matrix.row[k] + 1}, {matrix.col[k] + 1})"
            raise FormatError(f"{path}: {exc}") from None
    for flag, given in (("--row-dims", row_dims), ("--col-dims", col_dims)):
        if given is not None:
            raise FormatError(f"{path}: tensor input does not take {flag}")
    return ingest_coo(path), None


def _reference_run(tensor: SparseTensor, eps: float) -> tuple[TTTensor, DecompositionReport]:
    """TT-SVD of the densified input, timed with its dense error measure."""
    if tensor.size > _TTSVD_DENSE_CAP:
        raise ValueError(
            f"the TT-SVD reference densifies its input: {tensor.size:,} entries"
            f" exceed its limit of {_TTSVD_DENSE_CAP:,}"
        )
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    dense = tensor.to_dense(cap=None)
    tt = tt_svd(dense, eps)
    norm = float(np.linalg.norm(dense.ravel()))
    err = float(np.linalg.norm((dense - tt_to_full(tt, cap=None)).ravel()))
    report = DecompositionReport(
        shape=tensor.shape,
        nnz=tensor.nnz,
        mode="static",
        eps=eps,
        ranks=tt.ranks[1:-1],
        eps_actual=err / norm if norm else 0.0,
        eps_actual_method="dense",
        flops_ttsvd_model=flops_ttsvd(tensor.shape, tt.ranks),
        wall_time_s=time.perf_counter() - wall0,
        cpu_time_s=time.process_time() - cpu0,
    )
    return tt, report


def _decompose_once(tensor: SparseTensor, args) -> tuple[TTTensor, DecompositionReport]:
    """Check the options against ``tensor`` and run one decomposition."""
    eps = args.eps or 1e-14  # unset or 0: lossless intent, for either method
    if not 0 <= eps < np.inf:
        raise FormatError(f"--eps must be finite and nonnegative, got {eps}")
    mode = "fixed_rank" if args.mode == "fixed" else args.mode
    if args.method == "ttsvd":
        # The reference method has no pivot, rounding mode or rank targets.
        for flag, given in (
            ("--p", args.p is not None),
            ("--mode", args.mode != "static"),
            ("--ranks", args.ranks is not None),
        ):
            if given:
                raise FormatError(f"--method ttsvd does not take {flag}")
        return _reference_run(tensor, eps)
    if mode != "fixed_rank" and args.ranks is not None:
        raise FormatError("--ranks needs --mode fixed")
    if args.p is not None and not 1 <= args.p <= tensor.ndim:
        raise FormatError(f"--p must be in 1..{tensor.ndim}, got {args.p}")
    ranks = _int_tuple(args.ranks) if args.ranks else None
    if mode == "fixed_rank" and ranks is None:
        raise FormatError("--mode fixed needs --ranks")
    if ranks is not None and len(ranks) == 1:
        ranks = ranks[0]
    pivot = args.p - 1 if args.p is not None else None
    return fasttt(tensor, eps=eps, pivot=pivot, mode=mode, fixed_ranks=ranks)


def _contract_breach(report: DecompositionReport, args) -> str | None:
    """Why the run breaks its error contract, or ``None`` if it keeps it.

    Fixed mode without ``--eps`` asks for no contract.  Otherwise the
    reading breaks it when it exceeds ``eps`` by more than the
    resolution its measure states.
    """
    if args.mode == "fixed" and args.eps is None:
        return None
    if report.eps_actual <= report.eps + report.eps_actual_resolution:
        return None
    return (
        f"eps_actual {report.eps_actual:.3e} exceeds eps {report.eps:.3e}"
        f" by more than its resolution {report.eps_actual_resolution:.0e}"
    )


def cmd_decompose(args) -> int:
    tensor, matrix_dims = _load_input(args.input, args.row_dims, args.col_dims)
    tt, report = _decompose_once(tensor, args)
    doc = report_document(report, method=args.method, source=args.input)
    for note in doc["warnings"]:
        print(f"warning: {note}", file=sys.stderr)
    print(f"method       {doc['method']}")
    print(f"shape        {tuple(doc['shape'])}  nnz {doc['nnz']}  sigma {doc['sigma']:.3e}")
    if "p" in doc:
        print(f"pivot p      {doc['p']}   fibers R {doc['R']}")
        print(f"r_tilde      {doc['r_tilde']}")
    print(f"r            {doc['r']}")
    actual = f"{doc['eps_actual']:.3e} (resolution {doc['eps_actual_resolution']:.0e})"
    print(f"eps          {doc['eps']:.3e}   eps_actual {actual}")
    print(f"cpu_time_s   {doc['cpu_time_s']:.3f}")
    # The train first: a report is left only beside the train it describes.
    if args.save_tt:
        meta = {}
        if matrix_dims:
            meta = {"row_dims": list(matrix_dims[0]), "col_dims": list(matrix_dims[1])}
        save_tt(tt, args.save_tt, **meta)
    if args.report:
        write_report(doc, args.report)
    breach = _contract_breach(report, args)
    if breach:
        raise ContractViolationError(breach)  # exit 1
    return 0


# Bench-case field -> the ``decompose`` flag it stands for.
_CASE_FLAGS = {
    "file": "--in",
    "eps": "--eps",
    "p": "--p",
    "mode": "--mode",
    "ranks": "--ranks",
    "row_dims": "--row-dims",
    "col_dims": "--col-dims",
}


class _CaseParser(argparse.ArgumentParser):
    """The ``decompose`` options, raising where the CLI would exit."""

    def error(self, message):
        raise FormatError(message)


def _named_cases(cases: list, manifest) -> list[argparse.Namespace]:
    """Parse every case as ``decompose`` parses its flags, before any runs.

    A case is an object whose fields stand for ``decompose`` flags
    (``_CASE_FLAGS``; a list is joined by commas), plus ``name`` and the
    JSON boolean ``compare_ttsvd``.  Its name, ``name`` or else the
    file's stem, names its report file, so it must be a plain file name,
    unique in the manifest and not ``summary``.  Returns the parsed
    flags with ``name`` and ``compare_ttsvd`` set.
    """
    parser = _CaseParser(add_help=False)
    _add_decompose_options(parser)
    parsed = []
    seen: dict[str, int] = {}
    for i, case in enumerate(cases, 1):
        if not isinstance(case, dict):
            raise FormatError(f"{manifest}: case {i} is not an object: {case!r}")
        fields = dict(case)
        name = fields.pop("name", None)
        compare = fields.pop("compare_ttsvd", True)
        if not isinstance(compare, bool):
            raise FormatError(
                f"{manifest}: case {i}: 'compare_ttsvd' must be true or false, got {compare!r}"
            )
        argv = []
        for field, value in fields.items():
            if field not in _CASE_FLAGS:
                raise FormatError(f"{manifest}: case {i}: unknown field {field!r}")
            if isinstance(value, list):
                value = ",".join(map(str, value))
            argv.append(f"{_CASE_FLAGS[field]}={value}")
        try:
            args = parser.parse_args(argv)
        except FormatError as exc:
            raise FormatError(f"{manifest}: case {i}: {exc}") from None
        name = name or Path(args.input).stem
        if not isinstance(name, str) or Path(name).name != name or name in ("", "..", "summary"):
            raise FormatError(f"{manifest}: case {i} has a bad name {name!r}")
        if name in seen:
            raise FormatError(
                f"{manifest}: cases {seen[name]} and {i} share the name {name!r}"
            )
        seen[name] = i
        args.name, args.compare_ttsvd = name, compare
        parsed.append(args)
    return parsed


def _run_case(args: argparse.Namespace) -> dict:
    """One benchmark case; never raises, failures are recorded.

    The case is ``ok`` exactly when ``decompose`` would exit 0 on it.
    The TT-SVD comparison runs after that verdict, and its failure is
    recorded as ``ttsvd_error`` without changing it.
    """
    result: dict = {"name": args.name, "ok": False}
    try:
        tensor, _ = _load_input(args.input, args.row_dims, args.col_dims)
        _, report = _decompose_once(tensor, args)
    except Exception as exc:  # recorded, the run continues
        result["error"] = f"{type(exc).__name__}: {exc}"
        return result
    result["report"] = report_document(report, source=args.input)
    result["fasttt_cpu_s"] = report.cpu_time_s
    breach = _contract_breach(report, args)
    if breach:
        result["error"] = f"ContractViolationError: {breach}"
    else:
        result["ok"] = True
    if args.compare_ttsvd:
        try:
            _, ref = _reference_run(tensor, report.eps)
        except Exception as exc:  # recorded, the verdict stands
            result["ttsvd_error"] = f"{type(exc).__name__}: {exc}"
            return result
        result["ttsvd_cpu_s"] = ref.cpu_time_s
        result["ttsvd_r"] = list(ref.ranks)
        if report.cpu_time_s > 0:
            result["speedup"] = ref.cpu_time_s / report.cpu_time_s
        fasttt_flops = report.flops_fasttt_model
        result["flop_ratio"] = ref.flops_ttsvd_model / fasttt_flops if fasttt_flops else None
    return result


def cmd_bench(args) -> int:
    with open(args.manifest, "r", encoding="ascii") as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{args.manifest}: {exc}") from None
    cases = manifest.get("cases") if isinstance(manifest, dict) else None
    if not isinstance(cases, list) or not cases:
        raise FormatError(f"{args.manifest}: manifest needs a nonempty 'cases' list")
    cases = _named_cases(cases, args.manifest)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = [_run_case(c) for c in cases]
    header = f"{'case':<20} {'ok':<4} {'cpu_s':>9} {'speedup':>9} {'flops x':>9}"
    print(header)
    print("-" * len(header))
    for res in results:
        if "report" in res:
            write_report(res["report"], out_dir / f"{res['name']}.json")
        if res["ok"]:
            speed, ratio = (
                f"{'-':>9}" if x is None else f"{x:>9.2f}"
                for x in (res.get("speedup"), res.get("flop_ratio"))
            )
            refused = f"  {res['ttsvd_error']}" if "ttsvd_error" in res else ""
            print(f"{res['name']:<20} {'yes':<4} {res['fasttt_cpu_s']:>9.3f} {speed} {ratio}{refused}")
        else:
            print(f"{res['name']:<20} {'no':<4}  {res['error']}")
    summary = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "cases": [
            {k: v for k, v in res.items() if k != "report"} for res in results
        ],
    }
    with open(out_dir / "summary.json", "w", encoding="ascii") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    return 0 if all(res["ok"] for res in results) else 1


def cmd_gen_fdm(args) -> int:
    grid = _int_tuple(args.grid)
    if len(grid) != 3:
        raise FormatError(f"--grid needs three extents, got {args.grid!r}")
    matrix = gen_fdm(*grid, coeffs=args.coeffs, seed=args.seed)
    # Through a handle: given a name, mmwrite appends .mtx to any other.
    with open(args.out, "wb") as fh:
        scipy.io.mmwrite(fh, matrix, precision=17)
    print(f"wrote {args.out}: {matrix.shape[0]} x {matrix.shape[1]}, nnz {matrix.nnz}")
    return 0


def cmd_gen_random(args) -> int:
    shape = _int_tuple(args.shape)
    tensor = gen_random_sparse(
        shape, args.density, seed=args.seed, fill_last_mode=args.fill_last_mode
    )
    write_coo(tensor, args.out)
    print(f"wrote {args.out}: shape {tensor.shape}, nnz {tensor.nnz}")
    return 0


def _add_decompose_options(parser: argparse.ArgumentParser) -> None:
    """The ``decompose`` flags, which bench cases take as fields too."""
    parser.add_argument("--in", dest="input", required=True, help=".coo tensor, or .mtx/.mm matrix input")
    parser.add_argument("--method", choices=("fasttt", "ttsvd"), default="fasttt")
    parser.add_argument("--eps", type=float, default=None, help="relative error budget (default 1e-14)")
    parser.add_argument("--p", type=int, default=None, help="pivot mode, 1-based (default: auto)")
    parser.add_argument("--mode", choices=("static", "dynamic", "fixed"), default="static")
    parser.add_argument("--ranks", default=None, help="interior rank targets for --mode fixed")
    parser.add_argument("--row-dims", default=None, help="row factorization for matrix input")
    parser.add_argument("--col-dims", default=None, help="column factorization for matrix input")
    parser.add_argument("--report", default=None, help="write a JSON report here")
    parser.add_argument("--save-tt", default=None, help="write the train as .npz here")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsett",
        description="Tensor-train decomposition of sparse tensors and matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dec = sub.add_parser("decompose", help="decompose one tensor or matrix")
    _add_decompose_options(dec)
    dec.set_defaults(func=cmd_decompose)

    ben = sub.add_parser("bench", help="run a manifest of benchmark cases")
    ben.add_argument("--manifest", required=True, help="JSON manifest with a 'cases' list")
    ben.add_argument("--out", default="bench-out", help="directory for reports")
    ben.set_defaults(func=cmd_bench)

    gfd = sub.add_parser("gen-fdm", help="generate a finite-difference matrix (.mtx)")
    gfd.add_argument("--grid", required=True, help="n,m,k grid extents")
    gfd.add_argument("--coeffs", choices=("laplacian", "random"), default="laplacian")
    gfd.add_argument("--seed", type=int, default=None)
    gfd.add_argument("--out", required=True)
    gfd.set_defaults(func=cmd_gen_fdm)

    grd = sub.add_parser("gen-random", help="generate a random sparse tensor (.coo)")
    grd.add_argument("--shape", required=True, help="comma-separated extents")
    grd.add_argument("--density", type=float, required=True)
    grd.add_argument("--seed", type=int, default=None)
    grd.add_argument("--fill-last-mode", action="store_true",
                     help="sample whole last-mode columns instead of scattered entries")
    grd.add_argument("--out", required=True)
    grd.set_defaults(func=cmd_gen_random)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, TypeError) as exc:  # FormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except ContractViolationError as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
