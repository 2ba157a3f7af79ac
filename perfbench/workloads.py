"""The four seeded workloads: input generation, one job, output checks.

Every input comes from the seed alone and reaches the program only as a
file (or, for ``small``, as in-memory tensors).  The checks do not read
``eps_actual`` from the run report: they reload each saved train (for
``small``, take the returned one) and measure it against the generated
input with the helpers below, which use plain NumPy rather than the
package's own train arithmetic.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.io

from spans import package_module


# ---------------------------------------------------------------- train math


def load_cores(path) -> list[np.ndarray]:
    """Cores of a train archive written by ``decompose --save-tt``."""
    with np.load(path) as data:
        return [data[f"core_{k}"] for k in range(int(data["num_cores"]))]


def train_values(cores, coords) -> np.ndarray:
    """Entries of a train at ``(n, d)`` 0-based coordinates.

    Rows are grouped by mode index, so memory stays at ``n * rank``.
    """
    v = np.ones((coords.shape[0], 1))
    for k, core in enumerate(cores):
        out = np.empty((coords.shape[0], core.shape[2]))
        idx = coords[:, k]
        for i in np.unique(idx):
            rows = idx == i
            out[rows] = v[rows] @ core[:, i, :]
        v = out
    return v[:, 0]


def train_norm2(cores) -> float:
    """Squared Frobenius norm by contracting the train with itself."""
    w = np.ones((1, 1))
    for c in cores:
        r0, n, r1 = c.shape
        t = (w.T @ c.reshape(r0, n * r1)).reshape(r0 * n, r1)
        w = c.reshape(r0 * n, r1).T @ t
    return float(w[0, 0])


def difference_norm(a, b) -> float:
    """``norm(a - b)`` of two trains, from the orthogonalized difference
    train, so the result resolves errors far below ``1e-8``."""
    d = len(a)
    cores = []
    for k, (ca, cb) in enumerate(zip(a, b)):
        cb = -cb if k == 0 else cb
        if d == 1:
            cores.append(ca + cb)
        elif k == 0:
            cores.append(np.concatenate([ca, cb], axis=2))
        elif k == d - 1:
            cores.append(np.concatenate([ca, cb], axis=0))
        else:
            c = np.zeros((ca.shape[0] + cb.shape[0], ca.shape[1], ca.shape[2] + cb.shape[2]))
            c[: ca.shape[0], :, : ca.shape[2]] = ca
            c[ca.shape[0] :, :, ca.shape[2] :] = cb
            cores.append(c)
    for k in range(d - 1, 0, -1):
        r0, n, r1 = cores[k].shape
        r = np.linalg.qr(cores[k].reshape(r0, n * r1).T, mode="r")
        prev = cores[k - 1]
        cores[k - 1] = (prev.reshape(-1, r0) @ r.T).reshape(prev.shape[0], prev.shape[1], -1)
    return float(np.linalg.norm(cores[0]))


def train_dense(cores) -> np.ndarray:
    res = np.ones((1, 1))
    for c in cores:
        r0, n, r1 = c.shape
        res = (res @ c.reshape(r0, n * r1)).reshape(-1, r1)
    return res.reshape([c.shape[1] for c in cores])


def sample_zeros(rng, shape, nonzero_lin, count) -> np.ndarray:
    """Up to ``count`` coordinates, drawn uniformly, that hold no nonzero."""
    size = math.prod(shape)
    lin = rng.integers(0, size, count)
    lin = lin[~np.isin(lin, nonzero_lin)]
    return np.stack(np.unravel_index(lin, shape), axis=1)


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


# ------------------------------------------------------------------ workloads


@dataclass
class Output:
    """What a job left behind for its check."""

    value: object
    nnz: int
    bytes_written: int = 0
    params: int = 0  # size of the output train, set by the check
    exit_code: int = 0


class CliWorkload:
    """A workload whose job is one in-process ``sparsett decompose``.

    ``cli.main`` is called in this process rather than through
    ``sparsett bench`` (whose default ``compare_ttsvd`` densifies every
    case) and without ``--threads`` (which only labels the report).
    """

    suffix = ".coo"
    cases = 1  # distinct jobs; every job repeats the same one
    check_inline = False  # outputs are files, checked after the loop

    def generate(self, seed: int):
        raise NotImplementedError

    def write(self, data, path) -> None:
        package_module("formats").write_coo(data, path)

    def argv(self, path, report, train) -> list[str]:
        raise NotImplementedError

    def setup(self, seed: int, work: Path) -> dict:
        data = self.generate(seed)
        path = work / f"input{self.suffix}"
        self.write(data, path)
        return {"data": data, "path": path, "work": work}

    def input_hashes(self, state) -> dict:
        return {state["path"].name: sha256_file(state["path"])}

    def job(self, state, i: int) -> Output:
        work = state["work"]
        report, train = work / f"report_{i}.json", work / f"train_{i}.npz"
        for p in (report, train):
            p.unlink(missing_ok=True)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                code = package_module("cli").main(self.argv(state["path"], report, train))
            except SystemExit as exc:
                code = exc.code
        # Exit 1 is the CLI's own verdict that eps_actual exceeds eps.  The
        # check below measures the saved train instead of trusting that
        # number, so exit 1 is recorded but not counted as a failure: at
        # eps = 1e-14 the fallback measure's ~1e-8 noise decides it.
        if code not in (0, 1, None):
            raise RuntimeError(f"decompose exited {code}: {sink.getvalue().strip()[-300:]}")
        size = report.stat().st_size + train.stat().st_size
        return Output((report, train), state["data"].nnz, size, exit_code=code or 0)

    def check_train(self, state, cores, report: dict) -> str | None:
        raise NotImplementedError

    def verify(self, state, out: Output) -> str | None:
        """A failure note for one job's output, or ``None``; sets
        ``out.params``.  A train identical to one already measured shares
        its verdict, so repeated jobs cost a comparison."""
        report_path, train_path = out.value
        cores = load_cores(train_path)
        out.params = sum(c.size for c in cores)
        verdicts = state.setdefault("verdicts", [])
        for seen, verdict in verdicts:
            if len(seen) == len(cores) and all(map(np.array_equal, seen, cores)):
                return verdict
        with open(report_path, encoding="ascii") as fh:
            report = json.load(fh)
        verdict = self.check_train(state, cores, report)
        verdicts.append((cores, verdict))
        return verdict


def _sampled_match(cores, coords, values, zeros, tol) -> str | None:
    got = train_values(cores, coords)
    bad = np.abs(got - values).max(initial=0.0)
    if bad > tol:
        return f"sampled nonzeros off by {bad:.3e} (tolerance {tol:.1e})"
    got0 = np.abs(train_values(cores, zeros)).max(initial=0.0)
    if got0 > tol:
        return f"sampled zeros read {got0:.3e} (tolerance {tol:.1e})"
    return None


class Fdm(CliWorkload):
    """Random-coefficient 7-point stencil on an ``n^3`` grid, as ``.mtx``,
    decomposed as a matrix with pivot 2 at ``eps = 1e-14``."""

    suffix = ".mtx"
    samples = 2000

    def __init__(self, n: int = 30):
        self.n = n

    def generate(self, seed):
        return package_module("generators").gen_fdm(self.n, self.n, self.n, coeffs="random", seed=seed)

    def write(self, data, path):
        scipy.io.mmwrite(path, data, precision=17)

    def argv(self, path, report, train):
        dims = ",".join([str(self.n)] * 3)
        return ["decompose", "--in", str(path), "--row-dims", dims, "--col-dims", dims,
                "--eps", "1e-14", "--p", "2", "--report", str(report), "--save-tt", str(train)]

    def check_train(self, state, cores, report):
        n = self.n
        # Fused mode k pairs row digit k with column digit k; a stencil
        # couples digits at distance at most 1, so 3n - 2 pairs occur at
        # each bond and the lossless ranks are (3n - 2, 3n - 2).
        ranks = tuple(c.shape[2] for c in cores[:-1])
        if ranks != (3 * n - 2, 3 * n - 2):
            return f"ranks {ranks}, expected {(3 * n - 2,) * 2}"
        m = state["data"].tocoo()
        rng = np.random.default_rng(0)
        pick = rng.choice(m.nnz, min(self.samples, m.nnz), replace=False)

        def fused(rows, cols):
            x = np.stack(np.unravel_index(rows, (n, n, n)), axis=1)
            y = np.stack(np.unravel_index(cols, (n, n, n)), axis=1)
            return x * n + y

        coords = fused(m.row[pick].astype(np.int64), m.col[pick].astype(np.int64))
        lin = m.row.astype(np.int64) * m.shape[1] + m.col
        zero_lin = rng.integers(0, m.shape[0] * m.shape[1], self.samples)
        zero_lin = zero_lin[~np.isin(zero_lin, lin)]
        zeros = fused(zero_lin // m.shape[1], zero_lin % m.shape[1])
        tol = 1e-12 * np.abs(m.data).max()
        return _sampled_match(cores, coords, m.data[pick], zeros, tol)


class Qtt(CliWorkload):
    """Laplacian of a ``2^bits`` cube in quantized form: ``3 * bits``
    fused digit pairs, shape ``(4,) * 3 * bits``.  Seed-independent."""

    def __init__(self, bits: int = 5, eps: float = 1e-10):
        self.bits = bits
        self.eps = eps

    def generate(self, seed):
        n = 2**self.bits
        lap = package_module("generators").gen_fdm(n, n, n)
        digits = (2,) * (3 * self.bits)
        return package_module("ttformat").tensorize_matrix(lap, digits, digits)

    def argv(self, path, report, train):
        return ["decompose", "--in", str(path), "--eps", repr(self.eps),
                "--report", str(report), "--save-tt", str(train)]

    def check_train(self, state, cores, report):
        a = state["data"]
        pivot = int(report["p"]) - 1
        if not 0 <= pivot < a.ndim:
            return f"report pivot {pivot + 1} out of range"
        # The reference is the lossless train at the run's pivot, itself
        # checked entry by entry against the input.
        fasttt_mod = package_module("fasttt")
        exact = fasttt_mod.parallel_vector_round(fasttt_mod.build_structured_tt(a, pivot)).cores
        rng = np.random.default_rng(0)
        pick = rng.choice(a.nnz, min(2000, a.nnz), replace=False)
        lin = np.ravel_multi_index(tuple(a.coords.T), a.shape)
        zeros = sample_zeros(rng, a.shape, lin, 2000)
        bad = _sampled_match(exact, a.coords[pick], a.values[pick], zeros, 0.0)
        if bad is not None:
            return f"reference train: {bad}"
        err = difference_norm(exact, cores) / float(np.linalg.norm(a.values))
        if not err <= self.eps:
            return f"relative error {err:.3e} exceeds eps {self.eps:.1e}"
        return None


class Pixels(CliWorkload):
    """Image-shaped tensor with whole-pixel groups at density ``sigma``,
    rounded dynamically to ``eps = 0.1`` from the automatic pivot."""

    def __init__(self, shape=(10, 10, 10, 10, 10, 10, 3), sigma: float = 0.001, eps: float = 0.1):
        self.shape = shape
        self.sigma = sigma
        self.eps = eps

    def generate(self, seed):
        return package_module("generators").gen_random_sparse(
            self.shape, self.sigma, seed=seed, fill_last_mode=True
        )

    def argv(self, path, report, train):
        return ["decompose", "--in", str(path), "--eps", repr(self.eps), "--mode", "dynamic",
                "--report", str(report), "--save-tt", str(train)]

    def check_train(self, state, cores, report):
        # At eps = 0.1 the inner-product identity (resolution ~1e-8) is
        # ample, and it needs no exact train.
        a = state["data"]
        vals = train_values(cores, a.coords)
        na2 = float(a.values @ a.values)
        err2 = float(((a.values - vals) ** 2).sum()) + train_norm2(cores) - float(vals @ vals)
        err = math.sqrt(max(err2, 0.0) / na2)
        if not err <= self.eps:
            return f"relative error {err:.3e} exceeds eps {self.eps:.1e}"
        return None


class Small:
    """Seeded suite of small random tensors (dense size at most ``cap``),
    each run in memory under four settings, in a seeded shuffled order.

    The shapes come from a fixed plan, so a seed changes the entries but
    not the mix of sizes that sets the timing percentiles.
    """

    settings = (
        {"eps": 1e-14},
        {"eps": 0.1},
        {"eps": 0.1, "mode": "dynamic"},
        {"mode": "fixed_rank", "fixed_ranks": 4},
    )
    shape_seed = 20260816
    # Outputs live in memory; checking each one at once keeps them from
    # piling up in the peak RSS.
    check_inline = True

    def __init__(self, count: int = 1000, cap: int = 5000):
        self.count = count
        self.cap = cap
        self.cases = count * len(self.settings)

    def generate(self, seed):
        """Drawn like the acceptance suite: d in 3..6, extents 2..10,
        density cycling over {0.005, 0.05, 0.3}; low densities on small
        shapes give empty tensors."""
        SparseTensor = package_module("tensor").SparseTensor
        plan = np.random.default_rng(self.shape_seed)
        rng = np.random.default_rng(seed)
        sigmas = (0.005, 0.05, 0.3)
        suite = []
        for i in range(self.count):
            while True:
                d = int(plan.integers(3, 7))
                dims = tuple(int(x) for x in plan.integers(2, 11, d))
                if math.prod(dims) <= self.cap:
                    break
            size = math.prod(dims)
            nnz = int(sigmas[i % 3] * size)
            lin = np.sort(rng.permutation(size)[:nnz])
            vals = rng.uniform(0.0, 1.0, nnz)
            vals[vals == 0.0] = 0.5
            coords = np.stack(np.unravel_index(lin, dims), axis=1)
            suite.append(SparseTensor(dims, coords, vals))
        return suite, rng.permutation(self.cases)

    def setup(self, seed, work):
        return {"data": self.generate(seed)}

    def input_hashes(self, state):
        h = hashlib.sha256()
        for t in state["data"][0]:
            h.update(repr(t.shape).encode())
            h.update(t.coords.tobytes())
            h.update(t.values.tobytes())
        return {"suite": h.hexdigest()}

    def _case(self, state, i):
        suite, order = state["data"]
        k = int(order[i % self.cases])
        return suite[k // len(self.settings)], self.settings[k % len(self.settings)]

    def job(self, state, i):
        t, setting = self._case(state, i)
        # Reached through the module so a traced run sees the call.
        tt, _ = package_module("fasttt").fasttt(t, **setting)
        return Output((t, setting, tt), t.nnz)

    def verify(self, state, out):
        t, setting, tt = out.value
        cores = tt.cores
        out.params = sum(c.size for c in cores)
        if setting.get("mode") == "fixed_rank":
            ranks = [c.shape[2] for c in cores[:-1]]
            if max(ranks, default=0) > setting["fixed_ranks"]:
                return f"fixed-rank run has ranks {ranks}"
            return None
        a = np.zeros(t.shape)
        a[tuple(t.coords.T)] = t.values
        norm = float(np.linalg.norm(a))
        diff = float(np.linalg.norm(a - train_dense(cores)))
        err = diff / norm if norm else diff
        if not err <= setting["eps"] + 1e-12:
            return f"{t!r} {setting}: error {err:.3e}"
        return None


WORKLOADS = {
    "fdm30": Fdm(),
    "qtt": Qtt(),
    "pixels": Pixels(),
    "small": Small(),
}
