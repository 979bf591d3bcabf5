"""Spans around the calls into each etafloor module, installed from outside.

`install` replaces the module attributes that callers look up at call time
(for example `etafloor.scanner.eta_eval`) with wrappers that record a span:
name, start, end and the span that was open when the call began.  No program
file changes, and an attribute a later version no longer has is skipped, so
the layer metrics it feeds read 0.

Spans are kept in memory and written out by `Tracer.write` at the end.  They
are recorded only in the process that installed them: grid work the scanner
hands to pool workers never reaches it, so for a pooled scan the eta and
decomposition numbers cover the parent's refinement only (PARENT_SIDE_ONLY).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from collections import Counter

from workloads import grid_count

# (caller module, attribute): the span is named <callee module>.<attribute>.
ETA_CALLS = (
    ("etafloor.scanner", "eta_eval"),
    ("etafloor.scanner", "eta_euler"),
    ("etafloor.scanner", "eta_accel"),
    ("etafloor.scanner", "accel_stages_for"),
    ("etafloor.decomposition", "eta_eval"),
    ("etafloor.cli", "eta_eval"),
    ("etafloor.propositions", "crvz_reference_sum"),
)
DECOMPOSITION_CALLS = (
    ("etafloor.scanner", "decompose_from_eta"),
    ("etafloor.scanner", "second_term"),
    ("etafloor.cli", "classify_leading"),
)
SCANNER_CALLS = (
    ("etafloor.cli", "scan_line"),
    ("etafloor.scanner", "scan_line"),       # scan_grid's calls
    ("etafloor.cli", "scan_grid"),
    ("etafloor.cli", "survey_zeros"),
    ("etafloor.scanner", "golden_section_min"),
    ("etafloor.cli", "zero_geometry"),
)
REPORTING_CALLS = (
    ("etafloor.cli", "serialize_report"),
    ("etafloor.cli", "write_report_bytes"),
)
PROPOSITION_CALLS = tuple(("etafloor.propositions", f"run_prop{k}_suite") for k in range(1, 6))

ETA_FAILURES = ("CrossCheckError", "NonConvergenceError")

# Per-layer metrics and their units, in the order BENCHMARK.json lists them.
LAYER_UNITS = {
    "eta.calls": "count",
    "eta.busy_s": "s",
    "eta.call_us_p50": "us",
    "eta.call_us_p99": "us",
    "eta.terms": "count",
    **{f"eta.fail.{name}": "count" for name in ETA_FAILURES},
    "eta.fail.other": "count",
    "decomposition.calls": "count",
    "decomposition.busy_s": "s",
    "scanner.grid_points": "count",
    "scanner.basins": "count",
    "scanner.refine_probes": "count",
    "scanner.refine_self_s": "s",
    "scanner.refine_yield": "ratio",
    "scanner.pool_starts": "count",
    "scanner.pool_s": "s",
    "scanner.geometry_s": "s",
    "reporting.serialize_s": "s",
    "reporting.write_s": "s",
    "reporting.bytes": "bytes",
    **{f"propositions.prop{k}_s": "s" for k in range(1, 6)},
    "setup.numpy_s": "s",
    "setup.scipy_s": "s",
    "setup.etafloor_s": "s",
    "trace.overhead_s": "s",
}

# Metrics that miss pool-worker spans when the scanner runs a process pool.
PARENT_SIDE_ONLY = ("eta.calls", "eta.busy_s", "eta.call_us_p50", "eta.call_us_p99",
                    "eta.terms", "eta.fail.*", "decomposition.calls", "decomposition.busy_s")


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list; 0 when it is empty."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Tracer:
    """Spans and counts of one traced run, held in memory until `write`."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []   # [name, start_ns, end_ns, parent index or -1]
        self.counts: Counter = Counter()
        self.failures: Counter = Counter()  # (span name, exception type) -> count
        self.installed: list[str] = []
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        self.spans.append([name, time.perf_counter_ns(), 0, self._open[-1] if self._open else -1])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._open.remove(index)

    def wrap(self, name: str, fn, hook=None):
        """`fn` recording a span per call; `hook(args, kwargs, result)` adds counts."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.failures[name, type(exc).__name__] += 1
                raise
            finally:
                self.end(index)
            if hook is not None:
                hook(args, kwargs, result)
            return result
        return traced

    # -- installation -------------------------------------------------------

    def _patch(self, module_name: str, attr: str, hook=None) -> None:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            return
        callee = getattr(fn, "__module__", module_name).rsplit(".", 1)[-1]
        setattr(module, attr, self.wrap(f"{callee}.{attr}", fn, hook))
        self.installed.append(f"{module_name}.{attr}")

    def install(self) -> None:
        """Wrap every entry point in the tables above that the program has."""
        for module_name, attr in ETA_CALLS:
            self._patch(module_name, attr, self._count_terms)
        for module_name, attr in DECOMPOSITION_CALLS + REPORTING_CALLS + PROPOSITION_CALLS:
            hook = self._count_bytes if attr == "serialize_report" else None
            self._patch(module_name, attr, hook)
        for module_name, attr in SCANNER_CALLS:
            hook = {"scan_line": self._count_line, "survey_zeros": self._count_survey}.get(attr)
            if hook is not None:
                fn = getattr(importlib.import_module(module_name), attr, None)
                hook = functools.partial(hook, inspect.signature(fn)) if fn else None
            self._patch(module_name, attr, hook)
        self._install_pool()

    def _install_pool(self) -> None:
        scanner = importlib.import_module("etafloor.scanner")
        base = getattr(scanner, "ProcessPoolExecutor", None)
        if base is None:
            return
        tracer = self

        class TracedPool(base):
            """Times a pool from construction to shutdown, parent side."""

            def __init__(self, *args, **kwargs):
                self._span = tracer.begin("scanner.ProcessPoolExecutor")
                super().__init__(*args, **kwargs)

            def shutdown(self, *args, **kwargs):
                try:
                    super().shutdown(*args, **kwargs)
                finally:
                    if self._span is not None:
                        tracer.end(self._span)
                        self._span = None

        scanner.ProcessPoolExecutor = TracedPool
        self.installed.append("etafloor.scanner.ProcessPoolExecutor")

    # -- hooks ----------------------------------------------------------------

    def _count_terms(self, args, kwargs, result) -> None:
        terms = getattr(result, "terms_used", None)
        if terms is not None:
            self.counts["eta.terms"] += terms

    def _count_bytes(self, args, kwargs, result) -> None:
        self.counts["reporting.bytes"] += len(result)

    def _count_grid(self, sig, names, args, kwargs) -> tuple[float, float, float]:
        """Adds the grid a scanner call asked for, from its bound arguments `names`."""
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        lo, hi, step = (bound.arguments[k] for k in names)
        self.counts["scanner.grid_points"] += grid_count(lo, hi, step)
        return lo, hi, step

    def _count_line(self, sig, args, kwargs, result) -> None:
        lo, _, step = self._count_grid(sig, ("beta_min", "beta_max", "step"), args, kwargs)
        # refined rows are the ones off the grid lo + i*step
        self.counts["scanner.refined_kept"] += sum(
            1 for smp in result.samples
            if lo + round((smp.s.beta - lo) / step) * step != smp.s.beta
        )

    def _count_survey(self, sig, args, kwargs, result) -> None:
        self._count_grid(sig, ("t_lo", "t_hi", "grid_step"), args, kwargs)
        self.counts["scanner.refined_kept"] += len(result)

    # -- results ----------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of this run (everything in LAYER_UNITS but setup.* and trace.*)."""
        if self._open:
            raise RuntimeError(f"{len(self._open)} spans still open")
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        by_name: dict[str, list[int]] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            by_name.setdefault(name, []).append(i)

        def indices(prefix: str) -> list[int]:
            return [i for name, ids in by_name.items() if name.startswith(prefix) for i in ids]

        def total_s(ids) -> float:
            return sum(self.spans[i][2] - self.spans[i][1] for i in ids) / 1e9

        def self_s(ids) -> float:
            return sum(self.spans[i][2] - self.spans[i][1] - child_ns[i] for i in ids) / 1e9

        eta = indices("eta.")
        durations_us = sorted((self.spans[i][2] - self.spans[i][1]) / 1e3 for i in eta)
        refine = indices("scanner.golden_section_min")
        refine_set = set(refine)
        out = {
            "eta.calls": len(eta),
            "eta.busy_s": self_s(eta),
            "eta.call_us_p50": _percentile(durations_us, 0.50),
            "eta.call_us_p99": _percentile(durations_us, 0.99),
            "eta.terms": self.counts["eta.terms"],
        }
        eta_failures = Counter()
        for (name, exc_type), count in self.failures.items():
            if name.startswith("eta."):
                eta_failures[exc_type if exc_type in ETA_FAILURES else "other"] += count
        for exc_type in ETA_FAILURES + ("other",):
            out[f"eta.fail.{exc_type}"] = eta_failures[exc_type]
        decomposition = indices("decomposition.")
        pools = indices("scanner.ProcessPoolExecutor")
        out.update({
            "decomposition.calls": len(decomposition),
            "decomposition.busy_s": self_s(decomposition),
            "scanner.grid_points": self.counts["scanner.grid_points"],
            "scanner.basins": len(refine),
            "scanner.refine_probes": sum(1 for i in eta if self.spans[i][3] in refine_set),
            "scanner.refine_self_s": self_s(refine),
            "scanner.refine_yield": (self.counts["scanner.refined_kept"] / len(refine)
                                     if refine else 0.0),
            "scanner.pool_starts": len(pools),
            "scanner.pool_s": total_s(pools),
            "scanner.geometry_s": total_s(indices("scanner.zero_geometry")),
            "reporting.serialize_s": total_s(indices("reporting.serialize_report")),
            "reporting.write_s": total_s(indices("reporting.write_report_bytes")),
            "reporting.bytes": self.counts["reporting.bytes"],
        })
        for k in range(1, 6):
            out[f"propositions.prop{k}_s"] = total_s(indices(f"propositions.run_prop{k}_suite"))
        return out

    def write(self, path: str) -> None:
        """All spans as CSV: run_id,span,name,start_ns,end_ns,parent."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("run_id,span,name,start_ns,end_ns,parent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                handle.write(f"{self.run_id},{i},{name},{start},{end},{parent}\n")


def parse_importtime(stderr: str) -> dict[str, float]:
    """setup.* from `python -X importtime -c "import etafloor.cli"` output.

    numpy and scipy are charged with the cumulative time of their outermost
    import lines; etafloor with the rest of its own import, so the three add
    up to the time of importing the CLI as if imported one after the other.
    """
    rows = []  # (depth, module, cumulative seconds)
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, name.strip(), int(cumulative) / 1e6))
    # lines come children first, so a line's parent is the next shallower one
    parents = []
    for i, (depth, _, _) in enumerate(rows):
        parents.append(next((j for j in range(i + 1, len(rows)) if rows[j][0] < depth), -1))

    def root(i: int) -> str:
        return rows[i][1].split(".")[0]

    def outermost(package: str, blockers: tuple[str, ...]) -> float:
        """Cumulative time of `package` lines with no ancestor from `blockers`."""
        total = 0.0
        for i in range(len(rows)):
            if root(i) != package:
                continue
            j = parents[i]
            while j >= 0 and root(j) not in blockers:
                j = parents[j]
            if j < 0:
                total += rows[i][2]
        return total

    numpy_s = outermost("numpy", ("numpy", "scipy"))
    scipy_s = outermost("scipy", ("numpy", "scipy"))
    return {
        "setup.numpy_s": numpy_s,
        "setup.scipy_s": scipy_s,
        "setup.etafloor_s": outermost("etafloor", ("etafloor",)) - numpy_s - scipy_s,
    }
