"""Command-line front end: deterministic JSON/TSV verification reports.

One runner produces every report.  COMMANDS maps each subcommand to
run(args, frame_at_two) -> list of periods.Entry: `args` is the parsed
selection, its own options and the shared ones, and frame_at_two() the
Legendre frame at lambda = 2, transported once per run on first use.
Numeric checks pass by the one rule periods.judged applies.  `all` is ALL,
a tuple of subcommand argv selections, each parsed by the same parser and
then given the run's shared options, so the battery gets every
subcommand's own defaults and validation.  main serializes the collected
entries once, through Entry.to_dict.

Exit codes: 0 every non-informational entry passed, 1 some check failed,
2 bad input.  Input is checked before anything runs (argparse and
_validate, with the typed command's usage line).  After that, a
computation error in a selection is one FAIL entry named after it.
Identical configuration and version produce byte-identical output;
--timings adds wall-clock data and deliberately breaks that: seconds on
each identity entry, and the report's total_seconds and selection_seconds
(one wall time per selection).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from fractions import Fraction
from functools import cache, partial
from math import isqrt

from mpmath import mp, mpf

from . import __version__, arith, deligne, periods, pfode
from .hyperfun import DEFAULT_DIGITS, PrecisionError, waypoint_strings, working_precision
from .periods import Entry, judged
from .qseries import SeriesError

TABULAR_COMMANDS = {"zeta", "fermat-count"}
# the `all` battery, in report order
ALL = (("identities",), ("lambda-series",), ("mirror-map",), ("continue",),
       ("continue", "--target", "2sqrt2-2"), ("zeta",), ("fermat-count",),
       ("deligne",), ("bps",))
# failed computations: each ends its selection as one FAIL entry
COMPUTATION_ERRORS = (PrecisionError, pfode.PathError, SeriesError, ArithmeticError)
# options whose value may be a negative rational, and a word that starts
# like a negative number (-1/3, -.5, -1e3)
RATIONAL_OPTIONS = ("--target", "--lambda")
NEGATIVE_NUMBER = re.compile(r"-\.?\d")


def _validate(parser: argparse.ArgumentParser, args: argparse.Namespace):
    """Reject, through parser.error, a run of the selection `args`."""
    if args.digits < 30:
        parser.error("--digits must be >= 30")
    if args.order < 4:
        parser.error("--order must be >= 4")
    if args.pmax <= 0 or args.quartic_bound <= 0:
        parser.error("prime bounds must be positive")
    if args.fmt == "tsv" and args.command not in TABULAR_COMMANDS:
        parser.error(f"tsv output is only available for {sorted(TABULAR_COMMANDS)}")
    if args.command == "deligne" and not 40 <= args.digits <= deligne.MAX_DIGITS:
        parser.error(f"deligne needs 40 <= --digits <= {deligne.MAX_DIGITS}")
    if getattr(args, "with_quartic_counts", False) and args.lam != 2:
        parser.error(f"--with-quartic-counts needs --lambda 2, got --lambda {args.lam}")
    primes = getattr(args, "primes", ())
    beyond = [str(p) for p in primes if p > args.quartic_bound]
    if beyond:
        parser.error(f"--primes: p = {', '.join(beyond)} beyond "
                     f"--quartic-bound {args.quartic_bound}")
    # after the bound check, so trial division stops at sqrt(--quartic-bound)
    composite = [str(p) for p in primes
                 if p < 2 or any(p % d == 0 for d in range(2, isqrt(p) + 1))]
    if composite:
        parser.error(f"--primes: not prime: {', '.join(composite)}")
    if 2 in primes:
        parser.error("--primes: p = 2 is a bad prime for the quartic surface")
    path, target = getattr(args, "path", None), getattr(args, "target", None)
    if path is not None and not pfode.ends_at(path, _target_lambda(target, args.digits),
                                              args.digits):
        end = path.waypoints[-1]
        parser.error(f"--path ends at [{end[0]}, {end[1]}], not at --target {target}")


# ---------------------------------------------------------------------------
# command handlers: run(args, frame_at_two) -> list of Entry
# ---------------------------------------------------------------------------


def _run_identities(args, frame_at_two) -> list[Entry]:
    entries = []
    for name in args.ids or periods.identity_ids():
        t0 = time.perf_counter()
        order = periods.identity_order(name, args.order)
        e = periods.check_identity(name, order, digits=args.digits)
        if args.timings:
            e = e._replace(data={**e.data, "seconds": round(time.perf_counter() - t0, 3)})
        entries.append(e)
    return entries


def _run_lambda_series(args, frame_at_two) -> list[Entry]:
    series = periods.lambda_q_series(args.terms + 1)
    coeffs = [series.coefficient(k) for k in range(1, args.terms + 1)]
    all_divisible = all(c.denominator == 1 and int(c) % 16 == 0 for c in coeffs)
    return [
        Entry("lambda-q-coefficients", True, True, data={"coefficients": [str(c) for c in coeffs]}),
        Entry("coefficients-divisible-by-16", all_divisible, data={
            "statement": "every lambda(tau) coefficient is an integer multiple of 16"}),
    ]


def _run_mirror_map(args, frame_at_two) -> list[Entry]:
    with working_precision(args.digits):
        tol = mpf(10) ** (-(args.digits - 15))
    return [judged("mirror-vs-period", res, tol, data={"point": waypoint_strings(lam)})
            for lam, res in periods.mirror_map_residuals(args.digits)]


def _target_lambda(target: str, digits: int):
    """--target's lambda: its exact value, or the mpf 2 sqrt 2 - 2."""
    if target != "2sqrt2-2":
        return Fraction(target)
    with working_precision(digits):
        return 2 * mp.sqrt(2) - 2


def _run_continue(args, frame_at_two) -> list[Entry]:
    target, path = args.target, args.path
    lam = _target_lambda(target, args.digits)
    with working_precision(args.digits):
        if target == "2sqrt2-2":
            expected = mp.mpc(0, 1) / mp.sqrt(2)
            label = "tau(2*sqrt(2)-2)"
        else:
            expected = mp.mpc(-1, 1) / 2 if lam == 2 else None
            label = f"tau({target})"
    if path is None:
        path = pfode.default_path(lam)  # None: the jet at lam
    if path is pfode.CANONICAL_PATH_TO_TWO:
        tau = pfode.frame_tau(frame_at_two(), args.digits)
    else:
        tau = pfode.tau_at(lam, path=path, digits=args.digits)
    with working_precision(args.digits):
        im_positive = bool(tau.imag > 0)
        e = {"tau": mp.nstr(tau, args.digits),
             "path": None if path is None else [waypoint_strings(w) for w in path.waypoints],
             "im_positive": im_positive}
        if expected is None:
            return [Entry(label, im_positive, data=e)]
        # the working precision's tolerance, never looser than 10^-30
        tol = mpf(10) ** -max(30, args.digits - 15)
        entry = judged(label, abs(tau - expected), tol,
                       data={"expected": mp.nstr(expected, 30), **e})
        return [entry._replace(passed=entry.passed and im_positive)]


def _run_zeta(args, frame_at_two) -> list[Entry]:
    lam = args.lam
    entries = []
    for rec in arith.zeta_table(lam, args.pmax):
        ok = rec.weil_ok and rec.sym2_match is not False
        extra = rec.to_dict()
        if args.with_quartic_counts and rec.p <= args.quartic_bound:
            extra["n_p_fermat"] = arith.fermat_quartic_count(rec.p, args.quartic_bound)
        entries.append(Entry(f"p={rec.p}", ok, data=extra))
    if not entries:
        # every prime below pmax is bad for this fiber: nothing was checked
        return [Entry("no-good-primes", False, data={"lambda": str(lam), "pmax": args.pmax})]
    return entries


def _run_fermat_count(args, frame_at_two) -> list[Entry]:
    entries = []
    for p in args.primes:
        chk = arith.fermat_decomposition_check(p, args.quartic_bound)
        entries.append(Entry(f"fermat-p={p}", chk["match"] is not False, chk["match"] is None,
                             data=chk))
    return entries


def _run_deligne(args, frame_at_two) -> list[Entry]:
    return deligne.report(frame_at_two(), args.digits)


def _run_bps(args, frame_at_two) -> list[Entry]:
    series = periods.bps_series(args.terms)
    return [
        Entry("bps-coefficients", True, True, data={
            "offset": str(series.offset), "coefficients": [str(c) for c in series.coeffs]}),
        periods.check_identity("BPS", min(args.terms, periods.IDENTITIES["BPS"][1]),
                               digits=args.digits)._replace(identity="bps-identity"),
    ]


COMMANDS = {"identities": _run_identities, "lambda-series": _run_lambda_series,
            "mirror-map": _run_mirror_map, "continue": _run_continue, "zeta": _run_zeta,
            "fermat-count": _run_fermat_count, "deligne": _run_deligne, "bps": _run_bps}


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _reason(entry: dict) -> str:
    """Why an entry without a residual failed: its error, else its data."""
    if "error" in entry:
        return entry["error"]
    return " ".join(f"{k}={v}" for k, v in entry.items()
                    if k not in ("name", "passed", "informational"))


def _to_tsv(command: str, entries: list[dict]) -> str:
    if command == "zeta":
        cols = ["p", "a_p", "b_p", "sym2_match", "weil_ok"]
        if any("n_p_fermat" in e for e in entries):
            cols.append("n_p_fermat")
    else:
        cols = ["p", "count", "predicted", "match"]
    lines = ["\t".join(cols)]
    for e in entries:
        if "p" not in e:  # no row to fill: one comment line with the reason
            lines.append(f"# {e['name']}: {_reason(e)}")
            continue
        lines.append("\t".join("" if e.get(c) is None else str(e.get(c)) for c in cols))
    return "\n".join(lines) + "\n"


def _to_text(report: dict) -> str:
    lines = [f"{report['tool']} {report['version']} — {report['command']}"]
    for e in report["entries"]:
        flag = "info" if e.get("informational") else ("PASS" if e["passed"] else "FAIL")
        detail = e.get("residual", e.get("tau", e.get("value")))
        if detail is None:
            detail = "" if e["passed"] else _reason(e)
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


def _target(text: str) -> str:
    """--target: a --lambda value, or the literal 2sqrt2-2."""
    if text != "2sqrt2-2":
        _nonsingular_lambda(text)
    return text


def _path(text: str) -> pfode.ContinuationPath:
    """--path: a JSON list of at least two [re, im] waypoints."""
    try:
        return pfode.ContinuationPath.from_json(text)
    except (TypeError, ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"not a JSON list of at least two [re, im] pairs: {text!r}") from None


def _identity_list(text: str) -> list[str]:
    """--ids: comma-separated registered identity ids."""
    ids = text.split(",")
    unknown = [repr(i) for i in ids if i not in periods.IDENTITIES]
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown identity id: {', '.join(unknown)}")
    return ids


def _prime_list(text: str) -> list[int]:
    """--primes: a comma-separated list of integers; _validate checks them
    against --quartic-bound, then for primality."""
    try:
        return [int(p) for p in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a list of integers: {text!r}") from None


def _positive_int(text: str) -> int:
    """--terms: an integer >= 1."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _attach_negative_values(argv) -> list[str]:
    """argv with a negative number after --target or --lambda attached to
    it (--target=-1/3): argparse takes -3 and -0.25 as values but reads a
    separate word like -1/3 as an unknown option."""
    out = []
    for word in argv:
        if out and out[-1] in RATIONAL_OPTIONS and NEGATIVE_NUMBER.match(word):
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mirrorperiods",
        description="verification reports for the quartic-K3 / Legendre period identities")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("identities", help="run the exact/numeric identity registry")
    p.add_argument("--ids", type=_identity_list, default=None,
                   help="comma-separated identity ids")
    p = sub.add_parser("lambda-series", help="lambda(tau) q-expansion coefficients")
    p.add_argument("--terms", type=_positive_int, default=6)
    sub.add_parser("mirror-map", help="W1/W0 vs varpi1/varpi0 on the grid")
    p = sub.add_parser("continue", help="analytic continuation of tau to a target")
    p.add_argument("--target", type=_target, default="2",
                   help="decimal lambda target, or the literal 2sqrt2-2")
    p.add_argument("--path", type=_path, default=None,
                   help='JSON waypoints [["re","im"],...] (decimal strings)')
    p = sub.add_parser("zeta", help="per-prime zeta records for a Legendre fiber")
    p.add_argument("--lambda", dest="lam", default="2", type=_nonsingular_lambda,
                   help="rational lambda other than 0 and 1 (e.g. 2 or 3/5)")
    p.add_argument("--with-quartic-counts", action="store_true",
                   help="append N_p of the quartic surface for p within the count bound")
    p = sub.add_parser("fermat-count", help="exhaustive quartic-surface point counts")
    p.add_argument("--primes", default="17,41,73,89,97", type=_prime_list,
                   help="comma-separated primes")
    sub.add_parser("deligne", help="L-values, periods and the rational ratios")
    p = sub.add_parser("bps", help="1/Delta expansion and its lambda-side identity")
    p.add_argument("--terms", type=_positive_int, default=10)
    sub.add_parser("all", help="the full verification battery")

    for p in sub.choices.values():
        p.set_defaults(subparser=p)  # validation errors show this usage line
        p.add_argument("--digits", type=int, default=DEFAULT_DIGITS)
        p.add_argument("--order", type=int, default=40)
        p.add_argument("--pmax", type=int, default=500)
        p.add_argument("--quartic-bound", type=int, default=101)
        p.add_argument("--format", dest="fmt", default="json",
                       choices=["json", "tsv", "text"])
        p.add_argument("--output", default=None, help="write the report here instead of stdout")
        p.add_argument("--timings", action="store_true",
                       help="include wall-clock data (breaks byte-stability)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    selections = [(args.command, args)]
    if args.command == "all":
        # `all` takes only the shared options, and every selection runs with them
        shared = {k: v for k, v in vars(args).items() if k not in ("command", "subparser")}
        selections = [(" ".join(sel), parser.parse_args(sel)) for sel in ALL]
        for _, sel in selections:
            vars(sel).update(shared)
    for _, sel in selections:
        _validate(args.subparser, sel)
    # the Legendre frame at lambda = 2, transported on first use and shared
    # by every selection of this run
    frame_at_two = cache(partial(pfode.continue_legendre, pfode.CANONICAL_PATH_TO_TWO,
                                 args.digits))
    t0 = time.perf_counter()
    entries = []
    seconds = {}
    for name, sel in selections:
        start = time.perf_counter()
        try:
            entries += COMMANDS[sel.command](sel, frame_at_two)
        except COMPUTATION_ERRORS as exc:
            entries.append(Entry(name, False, data={"error": f"{type(exc).__name__}: {exc}"}))
        seconds[name] = round(time.perf_counter() - start, 3)
    overall = all(e.passed for e in entries if not e.informational)
    entries = [e.to_dict() for e in entries]
    report = {
        "tool": "mirrorperiods",
        "version": __version__,
        "command": args.command,
        "config": {"digits": args.digits, "order": args.order, "pmax": args.pmax,
                   "quartic_bound": args.quartic_bound, "format": args.fmt},
        "entries": entries,
        "overall_pass": overall,
    }
    if args.timings:
        report["total_seconds"] = round(time.perf_counter() - t0, 3)
        report["selection_seconds"] = seconds
    if args.fmt == "json":
        text = json.dumps(report, indent=2) + "\n"
    elif args.fmt == "tsv":
        text = _to_tsv(args.command, entries)
    else:
        text = _to_text(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if overall else 1


if __name__ == "__main__":
    sys.exit(main())
