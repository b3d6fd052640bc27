"""Command-line front end: deterministic JSON/TSV verification reports.

Every command recomputes from scratch and emits a machine-readable report;
identical configuration and version produce byte-identical output (timing
data is only included behind --timings, which deliberately breaks that).
Exit code 0 means every non-informational entry passed, 1 means some check
failed, 2 means a usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import isqrt

from mpmath import mp, mpf

from . import __version__, arith, deligne, periods, pfode
from .hyperfun import PrecisionError, working_precision
from .qseries import SeriesError

TABULAR_COMMANDS = {"zeta", "fermat-count"}


@dataclass
class RunConfig:
    """The options of one run, and the expensive objects its stages share."""
    digits: int = 120
    order: int = 40
    pmax: int = 500
    quartic_bound: int = 101
    fmt: str = "json"
    output: str | None = None
    timings: bool = False

    def validate(self, parser: argparse.ArgumentParser, command: str,
                 primes: Sequence[int] = ()):
        if self.digits < 30:
            parser.error("--digits must be >= 30")
        if self.order < 4:
            parser.error("--order must be >= 4")
        if self.pmax <= 0 or self.quartic_bound <= 0:
            parser.error("prime bounds must be positive")
        if self.fmt == "tsv" and command not in TABULAR_COMMANDS:
            parser.error(f"tsv output is only available for {sorted(TABULAR_COMMANDS)}")
        if command in ("deligne", "all") and not 40 <= self.digits <= deligne.MAX_DIGITS:
            parser.error(f"{command} needs 40 <= --digits <= {deligne.MAX_DIGITS}")
        beyond = [str(p) for p in primes if p > self.quartic_bound]
        if beyond:
            parser.error(f"--primes: p = {', '.join(beyond)} beyond "
                         f"--quartic-bound {self.quartic_bound}")

    def to_dict(self) -> dict:
        return {"digits": self.digits, "order": self.order, "pmax": self.pmax,
                "quartic_bound": self.quartic_bound, "format": self.fmt}

    @cached_property
    def frame_at_two(self) -> pfode.SolutionFrame:
        """The Legendre frame transported to lambda = 2 along the canonical
        path, computed on first use and shared by every stage of the run."""
        return pfode.continue_legendre(pfode.CANONICAL_PATH_TO_TWO, self.digits)


def _entry(name: str, passed: bool, informational: bool = False, **data) -> dict:
    out = {"name": name, "passed": bool(passed), "informational": informational}
    out.update(data)
    return out


def _report_extras(rep) -> dict:
    return {k: v for k, v in rep.to_dict().items()
            if k not in ("identity", "passed", "informational")}


# ---------------------------------------------------------------------------
# command handlers: each returns a list of entries
# ---------------------------------------------------------------------------


def _run_identities(cfg: RunConfig, ids=None) -> list[dict]:
    entries = []
    for name in (ids or periods.identity_ids()):
        t0 = time.perf_counter()
        order = periods.identity_order(name, cfg.order)
        rep = periods.check_identity(name, order, digits=cfg.digits)
        e = _entry(name, rep.passed, rep.informational, **_report_extras(rep))
        if cfg.timings:
            e["seconds"] = round(time.perf_counter() - t0, 3)
        entries.append(e)
    return entries


def _run_lambda_series(cfg: RunConfig, terms: int) -> list[dict]:
    series = periods.lambda_q_series(terms + 1)
    coeffs = [series.coefficient(k) for k in range(1, terms + 1)]
    all_divisible = all(c.denominator == 1 and int(c) % 16 == 0 for c in coeffs)
    return [
        _entry("lambda-q-coefficients", True, informational=True,
               coefficients=[str(c) for c in coeffs]),
        _entry("coefficients-divisible-by-16", all_divisible,
               statement="every lambda(tau) coefficient is an integer multiple of 16"),
    ]


def _run_mirror_map(cfg: RunConfig) -> list[dict]:
    entries = []
    with working_precision(cfg.digits):
        tol = mpf(10) ** (-(cfg.digits - 15))
        for lam, res in periods.mirror_map_residuals(cfg.digits):
            entries.append(_entry(
                "mirror-vs-period", bool(res < tol), informational=False,
                point=str(lam), residual=mp.nstr(res, 6), tolerance=mp.nstr(tol, 3)))
    return entries


def _run_continue(cfg: RunConfig, target: str, path_json: str | None) -> list[dict]:
    path = pfode.ContinuationPath.from_json(path_json) if path_json else None
    with working_precision(cfg.digits):
        tol = mpf(10) ** -30
        if target == "2sqrt2-2":
            lam = 2 * mp.sqrt(2) - 2
            expected = mp.mpc(0, 1) / mp.sqrt(2)
            label = "tau(2*sqrt(2)-2)"
        else:
            lam = Fraction(target)
            expected = mp.mpc(-1, 1) / 2 if lam == 2 else None
            label = f"tau({target})"
    if path is None and lam == 2:
        tau = pfode.frame_tau(cfg.frame_at_two, cfg.digits)
    else:
        tau = pfode.tau_at(lam, path=path, digits=cfg.digits)
    with working_precision(cfg.digits):
        used = path if path is not None else pfode.default_path(lam, cfg.digits)
        e = {
            "tau": mp.nstr(tau, cfg.digits),
            "path": used.to_json(),
            "im_positive": bool(tau.imag > 0),
        }
        if expected is not None:
            res = abs(tau - expected)
            return [_entry(label, bool(res < tol and tau.imag > 0),
                           expected=mp.nstr(expected, 30),
                           residual=mp.nstr(res, 6), tolerance=mp.nstr(tol, 3), **e)]
        return [_entry(label, bool(tau.imag > 0), informational=False, **e)]


def _run_zeta(cfg: RunConfig, lam: Fraction, with_counts: bool = False) -> list[dict]:
    entries = []
    for rec in arith.zeta_table(lam, cfg.pmax):
        ok = rec.weil_ok and (rec.sym2_match is not False or rec.p % 4 == 3)
        extra = rec.to_dict()
        if with_counts and lam == 2 and rec.p <= cfg.quartic_bound:
            extra["n_p_fermat"] = arith.fermat_quartic_count(rec.p, cfg.quartic_bound)
        entries.append(_entry(f"p={rec.p}", ok,
                              informational=(rec.p % 4 == 3 and lam == 2),
                              **extra))
    if not entries:
        # every prime below pmax is bad for this fiber: nothing was checked
        return [_entry("no-good-primes", False, **{"lambda": str(lam), "pmax": cfg.pmax})]
    return entries


def _run_fermat_count(cfg: RunConfig, primes: list[int]) -> list[dict]:
    entries = []
    for p in primes:
        chk = arith.fermat_decomposition_check(p, cfg.quartic_bound)
        passed = chk["match"] is not False
        entries.append(_entry(f"p={p}", passed, informational=chk["match"] is None, **chk))
    return entries


def _run_deligne(cfg: RunConfig) -> list[dict]:
    # The digit range is validated up front, so these errors (the transport
    # to lambda = 2 included) are failed computations, not bad input.
    try:
        rep = deligne.report(cfg.frame_at_two, cfg.digits)
    except (PrecisionError, pfode.PathError, deligne.ReconstructionError) as exc:
        return [_entry("deligne", False, error=f"{type(exc).__name__}: {exc}")]
    entries = [_entry("deligne-summary", True, informational=True,
                      **{k: v for k, v in rep.items() if k != "checks"})]
    for chk in rep["checks"]:
        entries.append(_entry(chk["name"], chk["passed"],
                              residual=chk["residual"], tolerance=chk["tolerance"]))
    entries.append(_entry("ratio1-is-16", rep["ratio1"] == "16", value=rep["ratio1"]))
    entries.append(_entry("ratio2-is-minus-64", rep["ratio2"] == "-64", value=rep["ratio2"]))
    return entries


def _run_bps(cfg: RunConfig, terms: int) -> list[dict]:
    series = periods.bps_series(terms)
    coeffs = [str(c) for c in series.coeffs]
    rep = periods.check_identity("BPS", min(terms, 16), digits=cfg.digits)
    return [
        _entry("bps-coefficients", True, informational=True,
               offset=str(series.offset), coefficients=coeffs),
        _entry("BPS", rep.passed, **_report_extras(rep)),
    ]


def _run_all(cfg: RunConfig) -> list[dict]:
    entries = []
    entries += _run_identities(cfg)
    entries += _run_lambda_series(cfg, 6)
    entries += _run_mirror_map(cfg)
    entries += _run_continue(cfg, "2", None)
    entries += _run_continue(cfg, "2sqrt2-2", None)
    entries += _run_zeta(cfg, Fraction(2))
    entries += _run_fermat_count(cfg, [17, 41, 73, 89, 97])
    entries += _run_deligne(cfg)
    entries += _run_bps(cfg, 10)
    return entries


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _to_tsv(command: str, entries: list[dict]) -> str:
    if command == "zeta":
        cols = ["p", "a_p", "b_p", "sym2_match", "weil_ok"]
        if any("n_p_fermat" in e for e in entries):
            cols.append("n_p_fermat")
    else:
        cols = ["p", "count", "predicted", "match"]
    lines = ["\t".join(cols)]
    for e in entries:
        lines.append("\t".join("" if e.get(c) is None else str(e.get(c)) for c in cols))
    return "\n".join(lines) + "\n"


def _to_text(report: dict) -> str:
    lines = [f"{report['tool']} {report['version']} — {report['command']}"]
    for e in report["entries"]:
        flag = "info" if e.get("informational") else ("PASS" if e["passed"] else "FAIL")
        detail = e.get("residual", e.get("tau", e.get("value", "")))
        lines.append(f"  [{flag}] {e['name']} {detail}")
    lines.append(f"overall: {'PASS' if report['overall_pass'] else 'FAIL'}")
    return "\n".join(lines) + "\n"


def _nonsingular_lambda(text: str) -> Fraction:
    """--lambda: a rational at which the Legendre curve is smooth."""
    try:
        lam = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None
    if lam in (0, 1):
        raise argparse.ArgumentTypeError(f"the Legendre curve is singular at lambda = {lam}")
    return lam


def _prime_list(text: str) -> list[int]:
    """--primes: a comma-separated list of primes."""
    try:
        primes = [int(p) for p in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a list of integers: {text!r}") from None
    composite = [str(p) for p in primes
                 if p < 2 or any(p % d == 0 for d in range(2, isqrt(p) + 1))]
    if composite:
        raise argparse.ArgumentTypeError(f"not prime: {', '.join(composite)}")
    if 2 in primes:
        raise argparse.ArgumentTypeError("p = 2 is a bad prime for the quartic surface")
    return primes


def _positive_int(text: str) -> int:
    """--terms: an integer >= 1."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mirrorperiods",
        description="verification reports for the quartic-K3 / Legendre period identities")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--digits", type=int, default=120)
        p.add_argument("--order", type=int, default=40)
        p.add_argument("--pmax", type=int, default=500)
        p.add_argument("--quartic-bound", type=int, default=101)
        p.add_argument("--format", dest="fmt", default="json",
                       choices=["json", "tsv", "text"])
        p.add_argument("--output", default=None, help="write the report here instead of stdout")
        p.add_argument("--timings", action="store_true",
                       help="include wall-clock data (breaks byte-stability)")

    p = sub.add_parser("identities", help="run the exact/numeric identity registry")
    p.add_argument("--ids", default=None, help="comma-separated identity ids")
    common(p)
    p = sub.add_parser("lambda-series", help="lambda(tau) q-expansion coefficients")
    p.add_argument("--terms", type=_positive_int, default=6)
    common(p)
    p = sub.add_parser("mirror-map", help="W1/W0 vs varpi1/varpi0 on the grid")
    common(p)
    p = sub.add_parser("continue", help="analytic continuation of tau to a target")
    p.add_argument("--target", default="2",
                   help="decimal lambda target, or the literal 2sqrt2-2")
    p.add_argument("--path", default=None,
                   help='JSON waypoints [["re","im"],...] (decimal strings)')
    common(p)
    p = sub.add_parser("zeta", help="per-prime zeta records for a Legendre fiber")
    p.add_argument("--lambda", dest="lam", default="2", type=_nonsingular_lambda,
                   help="rational lambda other than 0 and 1 (e.g. 2 or 3/5)")
    p.add_argument("--with-quartic-counts", action="store_true",
                   help="append N_p of the quartic surface for p within the count bound")
    common(p)
    p = sub.add_parser("fermat-count", help="exhaustive quartic-surface point counts")
    p.add_argument("--primes", default="17,41,73,89,97", type=_prime_list,
                   help="comma-separated primes")
    common(p)
    p = sub.add_parser("deligne", help="L-values, periods and the rational ratios")
    common(p)
    p = sub.add_parser("bps", help="1/Delta expansion and its lambda-side identity")
    p.add_argument("--terms", type=_positive_int, default=10)
    common(p)
    p = sub.add_parser("all", help="the full verification battery")
    common(p)
    return parser


def run_command(command: str, cfg: RunConfig, args) -> list[dict]:
    if command == "identities":
        ids = args.ids.split(",") if args.ids else None
        return _run_identities(cfg, ids)
    if command == "lambda-series":
        return _run_lambda_series(cfg, args.terms)
    if command == "mirror-map":
        return _run_mirror_map(cfg)
    if command == "continue":
        return _run_continue(cfg, args.target, args.path)
    if command == "zeta":
        return _run_zeta(cfg, args.lam, args.with_quartic_counts)
    if command == "fermat-count":
        return _run_fermat_count(cfg, args.primes)
    if command == "deligne":
        return _run_deligne(cfg)
    if command == "bps":
        return _run_bps(cfg, args.terms)
    if command == "all":
        return _run_all(cfg)
    raise ValueError(f"unhandled command {command}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = RunConfig(digits=args.digits, order=args.order, pmax=args.pmax,
                    quartic_bound=args.quartic_bound, fmt=args.fmt,
                    output=args.output, timings=args.timings)
    cfg.validate(parser, args.command, getattr(args, "primes", ()))
    t0 = time.perf_counter()
    try:
        entries = run_command(args.command, cfg, args)
    except (KeyError, SeriesError, ValueError, ZeroDivisionError) as exc:
        parser.exit(2, f"error: {exc}\n")
    overall = all(e["passed"] for e in entries if not e.get("informational"))
    report = {
        "tool": "mirrorperiods",
        "version": __version__,
        "command": args.command,
        "config": cfg.to_dict(),
        "entries": entries,
        "overall_pass": overall,
    }
    if cfg.timings:
        report["total_seconds"] = round(time.perf_counter() - t0, 3)
    if cfg.fmt == "json":
        text = json.dumps(report, indent=2) + "\n"
    elif cfg.fmt == "tsv":
        text = _to_tsv(args.command, entries)
    else:
        text = _to_text(report)
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if overall else 1


if __name__ == "__main__":
    sys.exit(main())
