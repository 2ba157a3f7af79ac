"""Sparse tensors in coordinate form and their linear indexing.

Conventions used throughout the package:

* Dense tensors are C-ordered ``numpy.ndarray`` objects, so linear
  indices make the *last* index vary fastest.
* Coordinates and mode numbers in the Python API are 0-based.  The text
  file formats are 1-based; :mod:`sparsett.formats` converts at that
  boundary.
* Values are float64.  Explicit zeros are dropped on construction and
  duplicate coordinates are rejected, never summed.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import FormatError

__all__ = [
    "DENSE_CAP",
    "SparseTensor",
]

# Guard for any operation that materializes a dense array.
DENSE_CAP = 10_000_000

_INT63 = 2**63


def check_shape(shape) -> tuple[int, ...]:
    """Validate a shape and return it as a tuple of Python ints.

    Every extent must be a positive integer and the total size must fit
    in signed 64-bit index arithmetic.
    """
    items = tuple(shape)
    try:
        dims = tuple(operator.index(n) for n in items)
    except TypeError:
        raise TypeError(f"shape extents must be integers, got {items}") from None
    if len(dims) == 0:
        raise ValueError("shape needs at least one mode")
    if any(n < 1 for n in dims):
        raise ValueError(f"shape extents must be positive, got {dims}")
    if math.prod(dims) >= _INT63:
        raise ValueError(f"shape {dims} overflows 64-bit indexing")
    return dims


def _frozen(a, dtype) -> np.ndarray:
    """A read-only, C-contiguous view of ``a`` as ``dtype``.

    The array is copied only when its dtype or layout differs; the
    caller's own array keeps its flags.
    """
    view = np.ascontiguousarray(a, dtype=dtype).view()
    view.setflags(write=False)
    return view


def _integral(a, what: str = "coordinate") -> np.ndarray:
    """``a`` as an array, refusing a float array that holds anything but
    whole numbers.

    The :class:`FormatError` names the first offending row, or element
    of a 1-d ``a``.  Integer input is returned as is, uncopied.
    """
    raw = np.asarray(a)
    if raw.dtype.kind == "f":
        frac = ~(np.isfinite(raw) & (raw == np.round(raw)))
        if frac.any():
            first = np.atleast_1d(raw)[np.argwhere(np.atleast_1d(frac))[0][0]]
            shown = tuple(first.tolist()) if first.ndim else first.item()
            raise FormatError(f"{what} {shown} is not integral")
    return raw


def linearize(shape, coords: np.ndarray) -> np.ndarray:
    """Map multi-indices (rows of ``coords``) to C-order linear indices."""
    dims = check_shape(shape)
    coords = np.asarray(coords, dtype=np.int64)
    return np.ravel_multi_index(tuple(coords.T), dims)


def delinearize(shape, lin: np.ndarray) -> np.ndarray:
    """Inverse of :func:`linearize`; returns an ``(n, d)`` coordinate array."""
    dims = check_shape(shape)
    rest = np.array(lin, dtype=np.int64).reshape(-1)
    if rest.size and not (rest.min() >= 0 and rest.max() < math.prod(dims)):
        raise ValueError(f"linear index out of bounds for shape {dims}")
    # Digits by div/mod from the last mode, straight into the columns of
    # one array; stacking per-mode arrays cost a second copy of them all.
    coords = np.empty((rest.size, len(dims)), dtype=np.int64)
    for k in range(len(dims) - 1, 0, -1):
        np.divmod(rest, dims[k], out=(rest, coords[:, k]))
    coords[:, 0] = rest
    return coords


class SparseTensor:
    """Immutable COO tensor.

    Entries are kept sorted by linearized coordinate, which makes the
    representation canonical: two tensors with the same entries compare
    equal array-wise regardless of input order.

    Parameters
    ----------
    shape:
        Mode extents.
    coords:
        Integer array of shape ``(nnz, d)``, 0-based.
    values:
        Float array of shape ``(nnz,)``.  Entries equal to zero are
        dropped; the first repeat raises :class:`FormatError` with ``positions``.
    """

    __slots__ = ("shape", "coords", "values")

    def __init__(self, shape, coords, values):
        dims = check_shape(shape)
        # No layout copy: the single gather below writes C order, so int64
        # input in any layout is only read.
        coords = np.asarray(_integral(coords), dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if coords.size == 0:
            coords = coords.reshape(0, len(dims))
        if coords.ndim != 2 or coords.shape[1] != len(dims):
            raise FormatError(
                f"coords must be (nnz, {len(dims)}), got {coords.shape}"
            )
        if values.shape != (coords.shape[0],):
            raise FormatError(
                f"values must be ({coords.shape[0]},), got {values.shape}"
            )
        try:
            lin = linearize(dims, coords)
        except ValueError:
            # Only a refused input pays for finding its first bad row.
            bad = np.argmax(((coords < 0) | (coords >= np.asarray(dims))).any(axis=1))
            raise FormatError(
                f"coordinate {tuple(coords[bad].tolist())} out of range for shape {dims}"
            ) from None
        if not np.isfinite(values).all():
            raise FormatError("tensor values must be finite")

        keep = np.flatnonzero(values)
        order = keep[np.argsort(lin[keep], kind="stable")]
        lin = lin[order]
        dup = np.flatnonzero(lin[1:] == lin[:-1])
        if dup.size:
            # The stable sort keeps each run's positions ascending: the least
            # later member is the first repeat, its run's head what it repeats.
            j = dup[np.argmin(order[dup + 1])] + 1
            exc = FormatError(f"duplicate coordinate {tuple(coords[order[j]].tolist())}")
            exc.positions = (int(order[np.searchsorted(lin, lin[j])]), int(order[j]))
            raise exc
        object.__setattr__(self, "shape", dims)
        object.__setattr__(self, "coords", _frozen(coords[order], np.int64))
        object.__setattr__(self, "values", _frozen(values[order], np.float64))

    def __setattr__(self, name, value):
        raise AttributeError("SparseTensor is immutable")

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def nnz(self) -> int:
        return self.values.shape[0]

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    def __repr__(self) -> str:
        return f"SparseTensor(shape={self.shape}, nnz={self.nnz})"

    def to_dense(self, cap: int | None = DENSE_CAP) -> np.ndarray:
        if cap is not None and self.size > cap:
            raise ValueError(
                f"dense size {self.size} exceeds cap {cap}; raise cap explicitly"
            )
        out = np.zeros(self.size)
        out[linearize(self.shape, self.coords)] = self.values
        return out.reshape(self.shape)
