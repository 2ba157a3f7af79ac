"""File formats: COO text tensors, MatrixMarket matrices, JSON run
reports, and train archives.

Text formats are 1-based on disk; everything is converted to the
package's 0-based convention on ingestion.  The COO writer prints 17
significant digits so write/read round-trips are bit-exact for float64.
"""

from __future__ import annotations

import json
import math
import warnings
from typing import Any

import numpy as np
import scipy.io
import scipy.sparse

from .errors import FormatError
from .fasttt import DecompositionReport
from .tensor import SparseTensor, check_shape
from .ttformat import TTTensor

__all__ = [
    "write_coo",
    "ingest_coo",
    "ingest_matrix_market",
    "report_document",
    "write_report",
    "save_tt",
    "load_tt",
]

REPORT_SCHEMA_VERSION = 4

# Document keys whose report fields only the sparse pipeline fills in.
_PIPELINE_ONLY = ("p", "R", "r_tilde", "eps_actual_inner_identity", "flops_fasttt_model")


def write_coo(t: SparseTensor, path) -> None:
    """Write a sparse tensor as text: a shape header, then one line per
    nonzero with 1-based coordinates."""
    line = "%d " * t.ndim + "%.17g\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write("# shape " + " ".join(str(n) for n in t.shape) + "\n")
        for c, v in zip((t.coords + 1).tolist(), t.values.tolist()):
            fh.write(line % (*c, v))


def ingest_coo(path) -> SparseTensor:
    """Read the COO text format written by :func:`write_coo`.

    The first line must be ``# shape n1 n2 ... nd``; each following
    nonempty line holds ``d`` 1-based coordinates and a value.  Parse
    problems raise :class:`FormatError` naming the line; failing those,
    the first nonzero entry to repeat a coordinate names both lines.  A
    file with no entries yields the zero tensor with a warning.
    """
    dims, coords, values = _coo_arrays(path) or _coo_lines(path)[:3]
    if not len(values):
        warnings.warn(f"{path}: no entries, reading the zero tensor", stacklevel=2)
    try:
        return SparseTensor(dims, coords, values)
    except FormatError as exc:
        # A line's own fault outranks a repeat: _coo_lines raises every
        # fault SparseTensor finds but a repeat, which names its positions.
        *_, linenos = _coo_lines(path)
        first, again = exc.positions
        at = tuple((coords[again] + 1).tolist())
        raise FormatError(
            f"{path}:{linenos[again]}: duplicate coordinate {at}, first on line {linenos[first]}"
        ) from None


def _coo_header(path, line: str) -> tuple[int, ...]:
    head = line.split()
    if len(head) < 3 or head[0] != "#" or head[1] != "shape":
        raise FormatError(f"{path}:1: expected header '# shape n1 ... nd'")
    try:
        if "_" in line:  # int() reads 1_2 as 12; the body lines refuse it too
            raise ValueError(f"digit separator '_' in {line.strip()!r}")
        return check_shape(int(tok) for tok in head[2:])
    except ValueError as exc:
        raise FormatError(f"{path}:1: bad shape header: {exc}") from None


def _coo_arrays(path):
    """Parse a COO file with one NumPy pass over its body.

    Returns the shape, 0-based coordinates and values, or None when the
    body does not parse; :class:`SparseTensor` judges the entries.
    ``comments=None`` makes a ``#`` line a parse error rather than a
    skipped line.  Warnings count as failures: loadtxt warns on an empty
    body, and NumPy 1.x warns where it reads an integer through a float
    (``1.0``), which the line loop refuses.
    """
    try:
        with open(path, "r", encoding="ascii") as fh, warnings.catch_warnings():
            warnings.simplefilter("error")
            dims = _coo_header(path, fh.readline())
            rows = np.loadtxt(
                fh,
                dtype=[("c", np.int64, (len(dims),)), ("v", np.float64)],
                comments=None,
                ndmin=1,
            )
    except (ValueError, OverflowError, Warning):
        return None
    coords, values = rows["c"], rows["v"]
    coords -= 1  # 0-based, in place: the parsed rows are ours
    return dims, coords, values


def _coo_lines(path):
    """Parse a COO file line by line: the accepted grammar, every fault
    of a line's own, and the line number of each entry."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.readlines()
    if not lines:
        raise FormatError(f"{path}: empty file, missing shape header")
    dims = _coo_header(path, lines[0])
    d = len(dims)
    coords: list[list[int]] = []
    values: list[float] = []
    linenos: list[int] = []
    for lineno, line in enumerate(lines[1:], start=2):
        tok = line.split()
        if not tok:
            continue
        if len(tok) != d + 1:
            raise FormatError(
                f"{path}:{lineno}: expected {d} indices and a value, "
                f"got {len(tok)} fields"
            )
        try:
            if "_" in line:  # int() and float() read 1_0 as 10; the NumPy pass does not
                raise ValueError
            idx = [int(s) for s in tok[:d]]
            val = float(tok[d])
        except ValueError:
            raise FormatError(f"{path}:{lineno}: unparsable entry {line.strip()!r}") from None
        for k, i in enumerate(idx):
            if not 1 <= i <= dims[k]:
                raise FormatError(
                    f"{path}:{lineno}: index {i} out of range 1..{dims[k]} in mode {k + 1}"
                )
        if not np.isfinite(val):
            raise FormatError(f"{path}:{lineno}: non-finite value {tok[d]}")
        coords.append([i - 1 for i in idx])
        values.append(val)
        linenos.append(lineno)
    return dims, np.asarray(coords, np.int64).reshape(len(values), d), values, linenos


def ingest_matrix_market(path) -> scipy.sparse.coo_matrix:
    """Read a coordinate-format real MatrixMarket file.

    ``general`` and ``symmetric`` storage are supported (the symmetric
    half is expanded); any other variant is rejected by name.
    """
    with open(path, "r", encoding="ascii") as fh:
        banner = fh.readline().split()
    if len(banner) != 5 or banner[0] != "%%MatrixMarket":
        raise FormatError(f"{path}:1: not a MatrixMarket file")
    obj, fmt, field, symmetry = (s.lower() for s in banner[1:])
    if obj != "matrix":
        raise FormatError(f"{path}: unsupported MatrixMarket object {obj!r}")
    if fmt != "coordinate":
        raise FormatError(f"{path}: unsupported MatrixMarket format {fmt!r} (need coordinate)")
    if field != "real":
        raise FormatError(f"{path}: unsupported MatrixMarket field {field!r} (need real)")
    if symmetry not in ("general", "symmetric"):
        raise FormatError(
            f"{path}: unsupported MatrixMarket symmetry {symmetry!r} "
            "(need general or symmetric)"
        )
    try:
        m = scipy.io.mmread(path)
    except Exception as exc:
        raise FormatError(f"{path}: {exc}") from None
    return scipy.sparse.coo_matrix(m, dtype=np.float64)


def report_document(
    report: DecompositionReport,
    method: str = "fasttt",
    source: str | None = None,
) -> dict[str, Any]:
    """Flatten a run report into the versioned JSON document schema.

    The pivot is recorded 1-based (``p``) to match the 1-based text
    formats; rank vectors use the short keys ``r_tilde`` and ``r``.
    Report fields left at ``None`` (those only the sparse pipeline
    knows) are left out of the document.
    """
    doc: dict[str, Any] = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "generator": "sparsett",
        "method": method,
        "source": source,
        "shape": list(report.shape),
        "nnz": report.nnz,
        "sigma": report.nnz / math.prod(report.shape),
        "eps": report.eps,
        "mode": report.mode,
        "p": None if report.pivot is None else report.pivot + 1,
        "R": report.num_fibers,
        "r_tilde": None if report.ranks_lossless is None else list(report.ranks_lossless),
        "r": list(report.ranks),
        "eps_actual": report.eps_actual,
        "eps_actual_method": report.eps_actual_method,
        "eps_actual_resolution": report.eps_actual_resolution,
        "eps_actual_inner_identity": report.eps_actual_inner,
        "flops_fasttt_model": report.flops_fasttt_model,
        "flops_ttsvd_model": report.flops_ttsvd_model,
        "wall_time_s": report.wall_time_s,
        "cpu_time_s": report.cpu_time_s,
        "warnings": list(report.warnings),
    }
    for key in _PIPELINE_ONLY:
        if doc[key] is None:
            del doc[key]
    return doc


def write_report(doc: dict[str, Any], path) -> None:
    """Write a report document as JSON; non-finite numbers are rejected."""
    with open(path, "w", encoding="ascii") as fh:
        json.dump(doc, fh, indent=2, allow_nan=False)
        fh.write("\n")


def save_tt(t: TTTensor, path, **metadata) -> None:
    """Archive a train in ``.npz`` format (one array per core) at
    ``path`` itself: ``np.savez`` would append ``.npz`` to another name."""
    arrays = {f"core_{k}": c for k, c in enumerate(t.cores)}
    meta = {f"meta_{k}": np.asarray(v) for k, v in metadata.items()}
    with open(path, "wb") as fh:
        np.savez(fh, num_cores=np.asarray(t.ndim), **arrays, **meta)


def load_tt(path) -> TTTensor:
    """Load a train archived by :func:`save_tt`."""
    with np.load(path) as data:
        d = int(data["num_cores"])
        return TTTensor([data[f"core_{k}"] for k in range(d)])
