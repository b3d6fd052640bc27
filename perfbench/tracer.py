"""In-memory span tracer that wraps mirrorperiods' public functions from outside.

Modules import each other's functions by name (``periods`` holds its own
``theta_const``, ``deligne`` its own ``eta_value``), so patching only the
defining module would miss most calls.  ``Tracer.install`` therefore rebinds
every name, in every ``mirrorperiods`` module namespace, that refers to a
wrapped object, patches ``RationalSeries`` methods on the class (which also
catches ``__rmul__``, an alias of ``__mul__``), and ``Tracer.uninstall`` puts
every original back.

A span is (name, start, end, parent index).  A span's self time is its
duration minus the durations of its direct children, so the self times of
all spans add up to the duration of the root spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


def _modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "mirrorperiods" or name.startswith("mirrorperiods."))]


def _targets(mp_pkg):
    """(owner, attribute, span name) for every wrapped entry point.

    Span names are the metric prefixes: one name may cover several functions
    (``qseries.exp_log`` covers exp, log and pow_rational).
    """
    qseries, hyperfun, periods = mp_pkg.qseries, mp_pkg.hyperfun, mp_pkg.periods
    pfode, deligne, arith, cli = mp_pkg.pfode, mp_pkg.deligne, mp_pkg.arith, mp_pkg.cli
    series = qseries.RationalSeries
    out = [
        (series, "compose", "qseries.compose"),
        (series, "revert", "qseries.revert"),
        (series, "reciprocal", "qseries.reciprocal"),
        (series, "__mul__", "qseries.mul"),
        (series, "exp", "qseries.exp_log"),
        (series, "log", "qseries.exp_log"),
        (series, "pow_rational", "qseries.exp_log"),
        (qseries, "eta_product", "qseries.eta_product"),
        (hyperfun, "theta_const", "hyperfun.theta_const"),
        (hyperfun, "eta_value", "hyperfun.eta_value"),
        (hyperfun, "hyp2f1_series", "hyperfun.hyp2f1_series"),
        (periods, "check_identity", "periods.check_identity"),
        (periods, "legendre_jet", "periods.legendre_jet"),
        (periods, "dwork_periods", "periods.dwork_periods"),
        (periods, "mirror_map_residuals", "periods.mirror_map_residuals"),
        (pfode, "tau_at", "pfode.tau_at"),
        (pfode, "continue_legendre", "pfode.continue_legendre"),
        (deligne, "report", "deligne.report"),
        (deligne, "deligne_periods", "deligne.deligne_periods"),
        (deligne, "verify_ratios", "deligne.verify_ratios"),
        (deligne, "lvalue", "deligne.lvalue"),
        (deligne, "fricke_residual", "deligne.fricke_residual"),
        (deligne, "theta_quartic_point", "deligne.theta_quartic_point"),
        (deligne, "rationalize", "deligne.rationalize"),
        (arith, "eta6_coefficients", "arith.eta6_coefficients"),
        (arith, "ap_legendre", "arith.ap_legendre"),
        (arith, "fermat_quartic_count", "arith.fermat_quartic_count"),
        (arith, "zeta_table", "arith.zeta_table"),
        (arith, "fermat_decomposition_check", "arith.fermat_decomposition_check"),
        (cli, "main", "cli.main"),
    ]
    out += [(periods, name, "periods.series_cache") for name in series_cache_names(periods)]
    return out


def series_cache_names(periods) -> list[str]:
    """The lru_cache series tables defined in ``periods``."""
    return sorted(name for name, obj in vars(periods).items()
                  if hasattr(obj, "cache_info") and getattr(obj, "__module__", "") == periods.__name__)


class Tracer:
    """Records spans and gauges while installed; single-threaded by design."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent]
        self.gauges: dict[str, float] = {}
        self._stack: list[int] = []
        self._saved: list[tuple] = []  # (owner, attribute, original)

    # -- recording ----------------------------------------------------------

    def _wrap(self, name, fn, gauge=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if gauge is not None:
                key, value = gauge(args, kwargs, result)
                self.gauges[key] = max(self.gauges.get(key, float("-inf")), value)
            return result

        return wrapper

    # -- patching -----------------------------------------------------------

    def install(self, mp_pkg):
        """Wrap every target and rebind each name that refers to it."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        gauges = {
            "pfode.continue_legendre": lambda a, k, r: ("pfode.tail_estimate",
                                                        float(r.error_estimate)),
            "arith.eta6_coefficients": lambda a, k, r: ("arith.eta6_coefficients.limit",
                                                        float(len(r) - 1)),
        }
        modules = _modules()
        for owner, attr, name in _targets(mp_pkg):
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                wrapper = self._wrap(name, original, gauges.get(name))
                for key, value in list(owner.__dict__.items()):
                    if value is original:
                        self._saved.append((owner, key, original))
                        setattr(owner, key, wrapper)
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, gauges.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self):
        """Restore every rebound name to its original object."""
        while self._saved:
            owner, key, original = self._saved.pop()
            setattr(owner, key, original)

    # -- aggregation --------------------------------------------------------

    def self_times(self) -> tuple[dict, dict]:
        """(calls by span name, self seconds by span name)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
        return dict(calls), dict(self_s)
