"""One op in a fresh interpreter: import the checkout's package, run, gate.

Reads a job from stdin (JSON: root, workload, inputs, trace, spawned,
workdir) and prints one JSON line with the op's timings and outcome; with
workload null it only imports, as a set-up probe.  A fresh
process per op charges every op the cold costs a user of the batch verifier
pays on each run: the series lru_caches, the eta-product table, the operator
caches and mpmath's cached constants.

    setup_s  child spawn (the runner's monotonic clock) to package imported
    wall_s   package imported to outputs checked
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main() -> int:
    job = json.loads(sys.stdin.read())
    root = Path(job["root"])
    sys.path[:0] = [str(root / "src"), str(Path(__file__).resolve().parent)]

    import mirrorperiods
    from mirrorperiods import cli, periods  # noqa: F401  (the package does not import cli)
    import tracer as tracing
    import workloads

    t_ready = time.monotonic()
    result = {"setup_s": t_ready - job["spawned"], "errors": [],
              "module_file": mirrorperiods.__file__}
    if job["workload"] is None:  # a set-up probe: import and exit
        print(json.dumps(result))
        return 0
    if not Path(mirrorperiods.__file__).resolve().is_relative_to(root / "src"):
        result["errors"].append(f"measured {mirrorperiods.__file__}, not the checkout at {root}")

    tracer = tracing.Tracer() if job["trace"] else None
    workdir = Path(job["workdir"])
    start = time.perf_counter()
    try:
        if tracer:
            tracer.install(mirrorperiods)
        try:
            outcome = workloads.RUNNERS[job["workload"]](mirrorperiods, job["inputs"], workdir)
        finally:
            if tracer:
                tracer.uninstall()
    except Exception:  # the op failed; the runner counts it and carries on
        outcome = {"errors": [traceback.format_exc(limit=4)]}
    result["wall_s"] = time.perf_counter() - start
    result["errors"] += outcome.pop("errors")
    result.update(outcome)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        caches = [getattr(periods, n) for n in tracing.series_cache_names(periods)]
        result["layers"] = layer_metrics(tracer, caches, result)
        result["spans"] = tracer.spans
    print(json.dumps(result))
    return 0


def layer_metrics(tracer, caches, result: dict) -> dict:
    """Per-layer metrics of one traced op, named as in BENCHMARK.json."""
    calls, self_s = tracer.self_times()
    out = {}
    for name in ("qseries.compose", "qseries.mul", "hyperfun.theta_const",
                 "hyperfun.eta_value", "periods.check_identity", "periods.legendre_jet",
                 "periods.dwork_periods", "pfode.continue_legendre",
                 "deligne.deligne_periods", "deligne.lvalue", "arith.ap_legendre",
                 "arith.fermat_quartic_count"):
        out[f"{name}.calls"] = calls.get(name, 0)
    for name in ("qseries.compose", "qseries.revert", "qseries.reciprocal", "qseries.mul",
                 "qseries.eta_product", "qseries.exp_log", "hyperfun.theta_const",
                 "hyperfun.eta_value", "hyperfun.hyp2f1_series", "periods.check_identity",
                 "periods.legendre_jet", "periods.dwork_periods", "pfode.continue_legendre",
                 "deligne.report", "deligne.lvalue", "deligne.fricke_residual",
                 "arith.eta6_coefficients", "arith.ap_legendre",
                 "arith.fermat_quartic_count", "cli.main"):
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    for layer in ("qseries", "hyperfun", "periods", "pfode", "deligne", "arith"):
        out[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
    infos = [cache.cache_info() for cache in caches]
    hits, misses = sum(i.hits for i in infos), sum(i.misses for i in infos)
    out["periods.series_cache.hits"] = hits
    out["periods.series_cache.misses"] = misses
    out["periods.series_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["pfode.tail_estimate"] = tracer.gauges.get("pfode.tail_estimate", 0.0)
    out["arith.eta6_coefficients.limit"] = tracer.gauges.get("arith.eta6_coefficients.limit", 0.0)
    out["cli.report_bytes"] = result.get("report_bytes", 0)
    out["trace.wall_s"] = result["wall_s"]
    out["trace.unattributed_s"] = result["wall_s"] - sum(self_s.values())
    return out


if __name__ == "__main__":
    sys.exit(main())
