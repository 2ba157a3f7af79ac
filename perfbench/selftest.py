"""Quick self-test of the benchmark on tiny instances of each workload.

    python3 perfbench/selftest.py

Checks that:

* each workload's run is correct and reports exactly the metric names
  that ``BENCHMARK.json`` lists, traced and untraced;
* every traced layer span fires where the workload table in README.md
  expects it, and stays silent where it should not fire;
* ``sparsett.fasttt`` is reached as a module through ``importlib``,
  since ``import sparsett.fasttt as m`` yields the re-exported function;
* a job that raises ``MemoryError`` or exits non-zero counts as failed
  and the run goes on.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import inspect
import json
import os
import shutil
import sys

from run import OUT, ROOT, import_package, run_workload

import_package()

from spans import TRACED, package_module  # noqa: E402
from workloads import Fdm, Pixels, Qtt, Small  # noqa: E402

TINY = {
    "fdm30": Fdm(n=4),
    "qtt": Qtt(bits=2),
    "pixels": Pixels(shape=(5, 5, 5, 5, 3), sigma=0.05),
    "small": Small(count=12, cap=500),
}

# Spans every nonempty decomposition passes through.  At full size the
# cap refuses tt_relative_error's difference train on fdm30 and pixels,
# so tt_right_orthogonalize is absent there; tiny trains stay under it.
PIPELINE = {
    "fasttt.fasttt", "fasttt.build_structured_tt", "fasttt.parallel_vector_round",
    "fasttt.depar_quasi_perm", "fasttt.sparse_inner_error", "fasttt.tt_relative_error",
    "ttformat.tt_entries", "ttformat.tt_right_orthogonalize",
    "linalg.svd_truncate_delta", "linalg.qr_economic", "tensor.linearize",
}
CLI = {"cli.main", "formats.save_tt", "formats.write_report"}
COO = {"formats.ingest_coo", "fasttt.select_p"}
MTX = {"formats.ingest_matrix_market", "ttformat.tensorize_matrix"}

# workload: (must fire in jobs, must not fire in jobs, must fire at set-up)
EXPECT = {
    "fdm30": (PIPELINE | CLI | MTX | {"fasttt.efficient_tt_rounding"},
              COO | {"fasttt.dynamic_tt_rounding"}, set()),
    "qtt": (PIPELINE | CLI | COO | {"fasttt.efficient_tt_rounding"},
            MTX | {"fasttt.dynamic_tt_rounding"}, {"formats.write_coo"}),
    "pixels": (PIPELINE | CLI | COO | {"fasttt.dynamic_tt_rounding"},
               MTX | {"fasttt.efficient_tt_rounding"}, {"formats.write_coo"}),
    "small": (PIPELINE | {"fasttt.select_p", "fasttt.efficient_tt_rounding",
                          "fasttt.dynamic_tt_rounding", "fasttt.fixed_rank_rounding",
                          "linalg.svd_truncate_rank"},
              CLI | MTX | {"formats.ingest_coo"}, set()),
}


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="ascii") as fh:
        bench = json.load(fh)
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    per_layer = {m["name"] for m in bench["per_layer"]}
    traced_names = {f"{m}.{f}" for m, f in TRACED}

    import sparsett.fasttt as shadowed

    check(not inspect.ismodule(shadowed), "sparsett.fasttt no longer shadows its module")
    mod = package_module("fasttt")
    check(inspect.ismodule(mod) and mod is sys.modules["sparsett.fasttt"],
          "import_module('sparsett.fasttt') is not the module")

    OUT.mkdir(exist_ok=True)
    work = OUT / f"selftest-{os.getpid()}"
    work.mkdir()
    try:
        fired_anywhere = set()
        for name, wl in TINY.items():
            plain = run_workload(wl, 3, 0.0, False, work, 0.0)["result"]
            check(plain["correct"] and plain["failed"] == 0, f"{name}: untraced run {plain}")
            check(set(plain["metrics"]) == end_to_end, f"{name}: end-to-end metric names")

            run = run_workload(wl, 3, 0.0, True, work, 0.0)
            result = run["result"]
            check(result["correct"] and result["failed"] == 0, f"{name}: traced run {result}")
            check(set(result["metrics"]) == per_layer, f"{name}: per-layer metric names "
                  f"{sorted(set(result['metrics']) ^ per_layer)}")
            spans = run["tracer"].spans
            in_jobs = {s.name for s in spans if s.job >= 0}
            at_setup = {s.name for s in spans if s.job < 0}
            must, must_not, setup = EXPECT[name]
            check(must <= in_jobs, f"{name}: spans never fired: {sorted(must - in_jobs)}")
            check(not (must_not & in_jobs), f"{name}: unexpected spans {sorted(must_not & in_jobs)}")
            check(setup <= at_setup, f"{name}: set-up spans missing {sorted(setup - at_setup)}")
            check(all(s.job % 2 == 0 for s in spans if s.job >= 0), f"{name}: untraced job traced")
            fired_anywhere |= in_jobs | at_setup
            print(f"selftest {name}: ok, {len(spans)} spans")
        check(fired_anywhere == traced_names,
              f"traced names that never fired: {sorted(traced_names - fired_anywhere)}")

        # Job 0 raises MemoryError, job 1 exits 2, job 2 runs for real but
        # exits 1 (the CLI's own eps_actual gate), which the benchmark's
        # check overrides; the run must carry on through all three.
        cli = package_module("cli")
        real = cli.main
        script = [MemoryError("injected"), 2, 1]

        def flaky(argv):
            step = script.pop(0) if script else None
            if isinstance(step, BaseException):
                raise step
            if step == 2:
                return 2
            code = real(argv)
            return 1 if step == 1 else code

        cli.main = flaky
        try:
            result = run_workload(TINY["pixels"], 3, 0.0, False, work, 0.0)["result"]
        finally:
            cli.main = real
        ok_frac = result["metrics"]["ok_frac"]["value"]
        check(result["attempted"] >= 3 and result["failed"] == 2 and not result["correct"],
              f"injected failures not counted: {result}")
        check(ok_frac == (result["attempted"] - 2) / result["attempted"], f"ok_frac {ok_frac}")
        print(f"selftest failures: ok, {result['failed']} of {result['attempted']} counted")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
