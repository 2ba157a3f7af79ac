"""Benchmark of the sparse-to-train pipeline.

One workload per call, measured as a closed loop: one client in this
fresh process sends one job at a time for ``--seconds`` seconds (and at
least three jobs), with BLAS on its default thread pool.  From the root
of a checkout::

    python3 perfbench/run.py --workload fdm30 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 0

``--trace 1`` alternates traced and untraced jobs and reports the
per-layer metrics instead of the end-to-end ones.  The last line of
standard output is one JSON object; a human-readable summary, the
provenance, and the result file's path come before it.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
NAMES = ("fdm30", "qtt", "pixels", "small")
SETUPS = 3  # set-ups per run; setup_s reports their median
MIN_JOBS = 3
MIN_JOBS_TRACED = 4  # two untraced, two traced
# No job starts after this many seconds of the loop, whatever MIN_JOBS
# says, so that a much slower program still ends the run in time.
LOOP_CAP_S = 100.0


@dataclasses.dataclass
class Job:
    index: int
    wall_s: float
    cpu_s: float
    traced: bool
    nnz: int = 0
    bytes_written: int = 0
    params: int = 0
    exit_code: int = 0
    error: str | None = None


def import_package() -> float:
    """Import the checkout's ``sparsett`` (and its CLI); returns seconds."""
    src = ROOT / "src"
    if not (src / "sparsett" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {src / 'sparsett'}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import sparsett.cli  # noqa: F401  (the CLI imports every layer)

    elapsed = time.perf_counter() - t0
    if Path(sparsett.__file__).resolve().parent != (src / "sparsett").resolve():
        raise SystemExit(f"error: imported sparsett from {sparsett.__file__}, not {src}")
    return elapsed


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with NumPy, if it says."""
    import numpy as np

    libs = sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="ascii").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="ascii").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_sha256() -> str:
    """One hash over the package sources, for checkouts without git."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(seed: int, hashes: dict) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "input_sha256": hashes,
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q / 100.0 * len(ordered)) - 1, 0)]


def run_loop(wl, state, seconds: float, tracer, min_jobs: int):
    """Closed loop: the next job starts when the previous one returns.

    A job that raises (``MemoryError`` included) or exits non-zero is
    recorded as failed and the loop goes on.  With a tracer, even jobs
    are traced and odd ones are not; job 0 is traced because in a fresh
    process it is the job that raises ``ru_maxrss``.  Checks run outside
    the timed region: right after the job for workloads that keep
    outputs in memory, otherwise after the loop (see :func:`run_workload`).
    """
    jobs: list[Job] = []
    pending = {}
    begin = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - begin
        if i and (elapsed >= LOOP_CAP_S or (i >= min_jobs and elapsed >= seconds)):
            break
        traced = tracer is not None and i % 2 == 0
        if traced:
            tracer.job = i
            tracer.install()
        c0 = time.process_time()
        w0 = time.perf_counter()
        try:
            out = wl.job(state, i)
            error = None
        except Exception as exc:  # counted in failed, the run goes on
            out = None
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - w0
        cpu = time.process_time() - c0
        if traced:
            tracer.uninstall()
        job = Job(i, wall, cpu, traced, error=error)
        if out is not None:
            job.nnz, job.bytes_written, job.exit_code = out.nnz, out.bytes_written, out.exit_code
            if wl.check_inline:
                _check(wl, state, job, out)
            else:
                pending[i] = out
        jobs.append(job)
        i += 1
    return jobs, pending


def _check(wl, state, job: Job, out) -> None:
    note = wl.verify(state, out)
    job.params = out.params
    if note is not None:
        job.error = f"check: {note}"


def run_workload(wl, seed: int, seconds: float, trace: bool, work: Path, import_s: float) -> dict:
    """Set up, loop, check; returns the result and its details."""
    tracer = Tracer() if trace else None
    setup_times = []
    for _ in range(SETUPS):
        if tracer:
            tracer.install()
        t0 = time.perf_counter()
        state = wl.setup(seed, work)
        setup_times.append(time.perf_counter() - t0)
        if tracer:
            tracer.uninstall()
    hashes = wl.input_hashes(state)

    min_jobs = max(MIN_JOBS_TRACED if trace else MIN_JOBS, wl.cases)
    jobs, pending = run_loop(wl, state, seconds, tracer, min_jobs)
    # Read before the deferred checks, which may allocate more than a job.
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for i, out in pending.items():
        _check(wl, state, jobs[i], out)

    failed = sum(1 for j in jobs if j.error is not None)
    good = [j for j in jobs if j.error is None]
    plain = [j for j in good if not j.traced]
    # One pass over the distinct jobs, so the size does not depend on
    # how many jobs fitted in the run.
    first_pass = [j.params for j in good if j.index < wl.cases]

    def med(values):
        return statistics.median(values) if values else 0.0

    if trace:
        traced = [j for j in good if j.traced]
        metrics = layer_metrics(
            tracer.spans, len(traced), SETUPS, sum(j.bytes_written for j in traced)
        )
        metrics["cli.exit1_frac"] = {
            "value": sum(1 for j in jobs if j.exit_code == 1) / len(jobs), "unit": "ratio"
        }
        metrics["trace.overhead_s"] = {
            "value": med([j.wall_s for j in traced]) - med([j.wall_s for j in plain]),
            "unit": "s",
        }
    else:
        walls = [j.wall_s for j in plain]
        metrics = {
            "decompose_s.p50": (med(walls), "s"),
            "decompose_s.p99": (percentile(walls, 99) if walls else 0.0, "s"),
            "nnz_per_s": (sum(j.nnz for j in plain) / sum(walls) if walls else 0.0, "1/s"),
            "cpu_s.p50": (med([j.cpu_s for j in plain]), "s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
            "setup_s": (import_s + statistics.median(setup_times), "s"),
            "ok_frac": ((len(jobs) - failed) / len(jobs), "ratio"),
            "train_params": (statistics.fmean(first_pass) if first_pass else 0.0, "count"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result = {"correct": failed == 0, "attempted": len(jobs), "failed": failed, "metrics": metrics}
    details = {
        "provenance": provenance(seed, hashes),
        "samples": {"untraced": len(plain), "traced": len(good) - len(plain)},
        "import_s": import_s,
        "setup_times_s": setup_times,
        "peak_stage": tracer.peak_stage() if tracer else None,
        "jobs": [dataclasses.asdict(j) for j in jobs],
    }
    return {"result": result, "details": details, "tracer": tracer}


def summary_lines(name: str, run: dict) -> list[str]:
    result, details = run["result"], run["details"]
    lines = [f"workload {name}: attempted {result['attempted']}, failed {result['failed']} "
             f"(failed_frac {result['failed'] / result['attempted']:.4f}), "
             f"samples {details['samples']}"]
    for key, m in result["metrics"].items():
        lines.append(f"  {key:<36} {m['value']:>14.6g} {m['unit']}")
    if details["peak_stage"]:
        lines.append(f"  ru_maxrss rose most in span {details['peak_stage']} (own code)")
    exit1 = sum(1 for j in details["jobs"] if j["exit_code"] == 1)
    if exit1:
        lines.append(f"  {exit1} job(s) exited 1 (the CLI's eps_actual gate); "
                     "their trains were judged by the benchmark's own check")
    for j in details["jobs"]:
        if j["error"]:
            lines.append(f"  job {j['index']} failed: {j['error']}")
    return lines


def run_one(args) -> int:
    import_s = import_package()
    from workloads import WORKLOADS  # loads NumPy, so only after the timed import

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir()
    try:
        run = run_workload(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work, import_s
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w", encoding="ascii") as fh:
        json.dump({"result": run["result"], **run["details"]}, fh, indent=1)
    if run["tracer"] is not None:
        run["tracer"].write(f"{stem}-spans.jsonl")
    print("\n".join(summary_lines(args.workload, run)))
    print("provenance " + json.dumps(run["details"]["provenance"]))
    print(f"details in {stem.relative_to(ROOT)}.json")
    print(json.dumps(run["result"]))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own fresh process."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            merged["correct"] = False
            continue
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for key, m in res["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = m
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
