"""Layer spans recorded from outside the package.

The package looks up every function named in :data:`TRACED` as a module
global at call time, so rebinding those globals to timing wrappers traces
each layer boundary without editing a line of ``src/``.  A function is
rebound in every ``sparsett`` module that holds it, because callers reach
it through their own module's import: the rounding sweep calls
``sparsett.fasttt.qr_economic`` and ``tt_right_orthogonalize`` calls
``sparsett.ttformat.qr_economic``.

Spans stay in memory while the run goes on; :meth:`Tracer.write` puts them
out once, after the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import sys
import time
from dataclasses import dataclass, field

# (module, function) pairs wrapped in a traced run; the span name is
# "<module>.<function>".  The generators module runs only at set-up and
# ttsvd is the reference oracle, so neither is here.
TRACED = (
    ("cli", "main"),
    ("formats", "ingest_coo"),
    ("formats", "ingest_matrix_market"),
    ("formats", "write_coo"),
    ("formats", "save_tt"),
    ("formats", "write_report"),
    ("ttformat", "tensorize_matrix"),
    ("ttformat", "tt_entries"),
    ("ttformat", "tt_right_orthogonalize"),
    ("fasttt", "fasttt"),
    ("fasttt", "select_p"),
    ("fasttt", "build_structured_tt"),
    ("fasttt", "parallel_vector_round"),
    ("fasttt", "depar_quasi_perm"),
    ("fasttt", "efficient_tt_rounding"),
    ("fasttt", "dynamic_tt_rounding"),
    ("fasttt", "fixed_rank_rounding"),
    ("fasttt", "sparse_inner_error"),
    ("fasttt", "tt_relative_error"),
    ("linalg", "svd_truncate_delta"),
    ("linalg", "svd_truncate_rank"),
    ("linalg", "qr_economic"),
    ("tensor", "linearize"),
)

_ROUNDING = (
    "fasttt.efficient_tt_rounding",
    "fasttt.dynamic_tt_rounding",
    "fasttt.fixed_rank_rounding",
)
_SVD = ("linalg.svd_truncate_delta", "linalg.svd_truncate_rank")


def package_module(name: str):
    """``sparsett.<name>`` as a module.

    ``import sparsett.fasttt as m`` yields the ``fasttt`` function, which
    the package re-exports under the module's name; ``import_module``
    reads ``sys.modules`` and returns the module itself.
    """
    return importlib.import_module(f"sparsett.{name}")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at the top
    job: int  # -1 during set-up
    cpu_s: float  # process CPU time over the span, all threads
    maxrss_kb: int  # ru_maxrss when the span ended
    rss_rise_kb: int = 0  # how far ru_maxrss rose during the span
    error: str | None = None
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _probe(name: str, args, kwargs, result) -> dict:
    """Work counts read off a call's arguments and result."""
    if name in _SVD:
        m, n = (args[0] if args else kwargs["m"]).shape
        return {"m": m, "n": n, "rank": result.rank}
    if name == "fasttt.parallel_vector_round":
        return {"exact_bytes": 8 * sum(c.size for c in result.cores)}
    if name == "fasttt.build_structured_tt":
        return {"num_fibers": result.num_fibers}
    return {}


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job = -1
        self._stack: list[int] = []
        # (module, attribute, original, wrapper), found once so that
        # installing per job costs a few dozen setattr calls.
        self._patches: list[tuple[object, str, object, object]] = []
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "sparsett" or key.startswith("sparsett."))
        ]
        for mod_name, fn_name in TRACED:
            orig = getattr(package_module(mod_name), fn_name)
            wrapper = self._wrapper(f"{mod_name}.{fn_name}", orig)
            for mod in modules:
                for attr, value in vars(mod).items():
                    if value is orig:
                        self._patches.append((mod, attr, orig, wrapper))

    def _call(self, name, fn, args, kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, 0.0, 0.0, parent, self.job, 0.0, 0)
        self.spans.append(span)
        self._stack.append(idx)
        rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        c0 = time.process_time()
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            span.cpu_s = time.process_time() - c0
            span.maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            span.rss_rise_kb = span.maxrss_kb - rss0
            self._stack.pop()
        span.info = _probe(name, args, kwargs, result)
        return result

    def _wrapper(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)

        return traced

    def install(self) -> None:
        """Rebind every traced function in every module that holds it."""
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig, _ in self._patches:
            setattr(mod, attr, orig)

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for s in self.spans:
                json.dump(
                    {
                        "name": s.name, "start": s.start, "end": s.end,
                        "parent": s.parent, "job": s.job, "cpu_s": s.cpu_s,
                        "maxrss_kb": s.maxrss_kb, "rss_rise_kb": s.rss_rise_kb,
                        "error": s.error, **s.info,
                    },
                    fh,
                )
                fh.write("\n")

    def peak_stage(self) -> str | None:
        """The span whose own code, outside its traced children, raised
        ``ru_maxrss`` the most."""
        if not self.spans:
            return None
        own = [s.rss_rise_kb for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.rss_rise_kb
        return self.spans[max(range(len(own)), key=own.__getitem__)].name


def _children_seconds(spans: list[Span]) -> list[float]:
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.seconds
    return covered


def fit_c_svd(steps: list[tuple[int, float, float]]) -> tuple[float, float]:
    """Fit ``seconds ~= c * flops`` over ``(job, flops, seconds)`` steps.

    Returns the least-squares ``c`` and the worst relative deviation
    ``|seconds / (c * flops) - 1|`` among the steps that carry at least
    1% of their job's modelled flops; smaller steps cost their fixed
    per-call overhead, which the model leaves out on purpose.
    """
    steps = [(job, f, t) for job, f, t in steps if f > 0]
    if not steps:
        return 0.0, 0.0
    c = sum(f * t for _, f, t in steps) / sum(f * f for _, f, _ in steps)
    per_job: dict[int, float] = {}
    for job, f, _ in steps:
        per_job[job] = per_job.get(job, 0.0) + f
    worst = max(abs(t / (c * f) - 1.0) for job, f, t in steps if f >= 0.01 * per_job[job])
    return c, worst


def layer_metrics(spans: list[Span], jobs: int, setups: int, output_bytes: float) -> dict:
    """Per-layer metrics: times and counts per traced job, set-up spans
    per set-up, SVD figures over all traced steps."""
    covered = _children_seconds(spans)
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    setup_total: dict[str, float] = {}
    for i, s in enumerate(spans):
        if s.job < 0:
            setup_total[s.name] = setup_total.get(s.name, 0.0) + s.seconds
            continue
        total[s.name] = total.get(s.name, 0.0) + s.seconds
        self_s[s.name] = self_s.get(s.name, 0.0) + s.seconds - covered[i]
        calls[s.name] = calls.get(s.name, 0) + 1
    job_spans = [s for s in spans if s.job >= 0]
    svd = [s for s in job_spans if s.name in _SVD]
    flops = [s.info["m"] * s.info["n"] * min(s.info["m"], s.info["n"]) for s in svd]
    kept = sum(s.info["rank"] for s in svd)
    possible = sum(min(s.info["m"], s.info["n"]) for s in svd)
    c_svd, worst = fit_c_svd([(s.job, f, s.seconds) for f, s in zip(flops, svd)])

    per_job = lambda v: v / jobs if jobs else 0.0
    t = lambda name: per_job(total.get(name, 0.0))
    n = lambda name: per_job(calls.get(name, 0))

    def info_sum(name, key):
        return per_job(sum(s.info.get(key, 0) for s in job_spans if s.name == name))

    values = {
        "formats.ingest_coo_s": (t("formats.ingest_coo"), "s"),
        "formats.ingest_mtx_s": (t("formats.ingest_matrix_market"), "s"),
        "formats.write_coo_s": (
            setup_total.get("formats.write_coo", 0.0) / setups if setups else 0.0, "s"
        ),
        "formats.save_tt_s": (t("formats.save_tt"), "s"),
        "formats.write_report_s": (t("formats.write_report"), "s"),
        "formats.output_bytes": (per_job(output_bytes), "bytes"),
        "ttformat.tensorize_matrix_s": (t("ttformat.tensorize_matrix"), "s"),
        "ttformat.tt_entries_s": (t("ttformat.tt_entries"), "s"),
        "ttformat.tt_entries_calls": (n("ttformat.tt_entries"), "count"),
        "ttformat.tt_right_orthogonalize_s": (t("ttformat.tt_right_orthogonalize"), "s"),
        "cli.self_s": (per_job(self_s.get("cli.main", 0.0)), "s"),
        "fasttt.driver_self_s": (per_job(self_s.get("fasttt.fasttt", 0.0)), "s"),
        "fasttt.select_p_s": (t("fasttt.select_p"), "s"),
        "fasttt.fibers_s": (t("fasttt.build_structured_tt"), "s"),
        "fasttt.num_fibers": (info_sum("fasttt.build_structured_tt", "num_fibers"), "count"),
        "fasttt.index_sweeps_s": (t("fasttt.depar_quasi_perm"), "s"),
        "fasttt.assemble_s": (per_job(self_s.get("fasttt.parallel_vector_round", 0.0)), "s"),
        "fasttt.exact_train_bytes": (
            info_sum("fasttt.parallel_vector_round", "exact_bytes"), "bytes"
        ),
        "fasttt.round_s": (sum(t(r) for r in _ROUNDING), "s"),
        "fasttt.round_self_s": (per_job(sum(self_s.get(r, 0.0) for r in _ROUNDING)), "s"),
        "fasttt.verify_s": (
            t("fasttt.sparse_inner_error") + t("fasttt.tt_relative_error"), "s"
        ),
        "fasttt.verify_fallbacks": (
            per_job(sum(1 for s in job_spans
                        if s.name == "fasttt.tt_relative_error" and s.error == "ValueError")),
            "count",
        ),
        "linalg.svd_calls": (per_job(len(svd)), "count"),
        "linalg.svd_s": (per_job(sum(s.seconds for s in svd)), "s"),
        "linalg.svd_max_s": (max((s.seconds for s in svd), default=0.0), "s"),
        "linalg.svd_flops_model": (per_job(float(sum(flops))), "flop"),
        "linalg.svd_kept_ratio": (kept / possible if possible else 0.0, "ratio"),
        "linalg.c_svd_fit": (c_svd, "s/flop"),
        "linalg.svd_model_worst_dev": (worst, "ratio"),
        "linalg.qr_calls": (n("linalg.qr_economic"), "count"),
        "linalg.qr_s": (t("linalg.qr_economic"), "s"),
        "tensor.linearize_s": (t("tensor.linearize"), "s"),
        "tensor.linearize_calls": (n("tensor.linearize"), "count"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
