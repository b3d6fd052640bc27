"""Workload definitions: seeded input generation, the op body, and its gate.

Input generation runs in the runner and never imports mirrorperiods; the op
bodies run in a fresh child process and receive only the generated inputs.
Every gate returns a list of error strings (empty when the op is correct)
and the op's margin in digits: the minimum over its numeric checks of
log10(tolerance / residual).  Exact checks (literal zero residual over Q, or
an integer identity) have no rounding error and count as EXACT_MARGIN_DIGITS,
so the metric is defined on every workload and a numeric check that replaces
an exact one pulls it down.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

EXACT_MARGIN_DIGITS = 1000.0

EXACT_IDS = ["QT1", "QT2", "QT3", "THETA-V", "THETA-24", "DLDTAU", "DELTA-LAMBDA", "BPS"]
EXACT_ORDERS = (59, 60, 61)
HP_DIGITS = 200
ARITH_PMAX = 5000
FERMAT_PRIMES = (113, 137, 193, 233, 241)  # the primes p = 1 (mod 8) in (100, 250)
BATTERY_ARGS = ["all"]  # the paper's defaults: digits 120, order 40, pmax 500, bound 101


def _rat(x: float) -> str:
    """A float rounded to three decimal places, as an exact decimal string."""
    return f"{x:.3f}"


def _clear_of_singularities(points, clearance=0.1) -> bool:
    """Every segment of the polygon keeps pfode's default clearance from the
    singular points 0 and 1 (the path starts on that boundary, at 1/10)."""
    for a, b in zip(points, points[1:]):
        ab = b - a
        for s in (0, 1):
            t = max(0.0, min(1.0, ((s - a) * ab.conjugate()).real / abs(ab) ** 2))
            if abs(a + t * ab - s) < clearance * (1 - 1e-9):
                return False
    return True


def make_inputs(workload: str, seed: int) -> dict:
    """The inputs of one run; the same seed gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "battery":
        return {"argv": BATTERY_ARGS}
    if workload == "exact-series":
        # the run order only decides which check first pays for a cached table
        return {"ids": rng.sample(EXACT_IDS, len(EXACT_IDS)), "order": rng.choice(EXACT_ORDERS)}
    if workload == "high-precision":
        while True:
            w = rng.uniform(0.95, 1.05) * cmath.exp(-1j * rng.uniform(1.0, 1.2))
            b = rng.uniform(0.2, 0.45) * cmath.exp(-1j * rng.uniform(0.3, 1.0))
            w = complex(float(_rat(w.real)), float(_rat(w.imag)))
            b = complex(float(_rat(b.real)), float(_rat(b.imag)))
            if abs(w) > 0.9 and 0.1 <= abs(b) <= 0.5 and _clear_of_singularities([0.1, w, b]):
                break
        grid = []
        while len(grid) < 20:
            z = rng.uniform(0.05, 0.3) * cmath.exp(1j * rng.uniform(-0.85, 0.85) * math.pi)
            pt = (_rat(z.real), _rat(z.imag))
            zz = complex(float(pt[0]), float(pt[1]))
            if 0.05 <= abs(zz) <= 0.3 and abs(cmath.phase(zz)) <= 0.85 * math.pi:
                grid.append(pt)
        return {"digits": HP_DIGITS,
                "detour": [["0.1", "0"], [_rat(w.real), _rat(w.imag)],
                           [_rat(b.real), _rat(b.imag)]],
                "grid": grid}
    if workload == "arith":
        while True:
            lam = Fraction(rng.randint(-40, 40), rng.randint(1, 40))
            if lam not in (0, 1, 2):
                break
        return {"pmax": ARITH_PMAX, "lambda": str(lam),
                "primes": sorted(rng.sample(FERMAT_PRIMES, 3))}
    raise KeyError(f"unknown workload {workload!r}")


def _margin(tolerance, residual) -> float:
    """log10(tolerance / residual); an exactly zero residual does not bind."""
    from mpmath import log10  # exact for mpf residuals far below float range

    if residual == 0:
        return EXACT_MARGIN_DIGITS
    return float(log10(tolerance) - log10(residual))


# ---------------------------------------------------------------------------
# battery: `mirrorperiods all`
# ---------------------------------------------------------------------------


def gate_battery(code: int, report: dict) -> tuple[list[str], float]:
    errors = []
    if code != 0:
        errors.append(f"exit code {code}")
    if report.get("overall_pass") is not True:
        errors.append("overall_pass is not true")
    margin = EXACT_MARGIN_DIGITS
    summary = None
    for e in report.get("entries", []):
        if e["name"] == "deligne-summary":
            summary = e
        if e.get("informational"):
            continue
        if e.get("passed") is not True:
            errors.append(f"entry {e['name']} failed")
        if "residual" in e and e.get("tolerance", "0") not in ("0", "0.0"):
            margin = min(margin, _margin(float(e["tolerance"]), float(e["residual"])))
    if summary is None:
        errors.append("no deligne-summary entry")
    elif (summary.get("ratio1"), summary.get("ratio2")) != ("16", "-64"):
        errors.append(f"ratios {summary.get('ratio1')}, {summary.get('ratio2')} != 16, -64")
    return errors, margin


def run_battery(pkg, inputs: dict, workdir: Path) -> dict:
    out = workdir / "report.json"
    try:
        code = pkg.cli.main([*inputs["argv"], "--output", str(out)])
    except SystemExit as exc:  # argparse and cli.main report usage errors this way
        code = exc.code if isinstance(exc.code, int) else 2
    data = out.read_bytes() if out.exists() else b"{}"
    errors, margin = gate_battery(code, json.loads(data))
    return {"errors": errors, "margin_digits": margin, "report_bytes": len(data),
            "report_sha256": hashlib.sha256(data).hexdigest()}


# ---------------------------------------------------------------------------
# exact-series: the exact identity registry at a seeded order
# ---------------------------------------------------------------------------


def gate_exact(reports, order: int) -> tuple[list[str], float]:
    errors = []
    for rep in reports:
        if not (rep.residual == "0" and rep.exact and rep.passed):
            errors.append(f"{rep.identity}: residual {rep.residual}, exact={rep.exact}")
        if rep.where != f"series order {order}":
            errors.append(f"{rep.identity}: checked at {rep.where!r}, asked {order}")
    return errors, EXACT_MARGIN_DIGITS


def run_exact_series(pkg, inputs: dict, workdir: Path) -> dict:
    order = inputs["order"]
    reports = [pkg.periods.check_identity(i, order) for i in inputs["ids"]]
    errors, margin = gate_exact(reports, order)
    return {"errors": errors, "margin_digits": margin}


# ---------------------------------------------------------------------------
# high-precision: continuation, mirror map, theta identities, Deligne ratios
# ---------------------------------------------------------------------------


def run_high_precision(pkg, inputs: dict, workdir: Path) -> dict:
    from mpmath import mp, mpf

    pfode, periods, deligne = pkg.pfode, pkg.periods, pkg.deligne
    wp = pkg.hyperfun.working_precision
    digits = inputs["digits"]
    errors = []
    margins = []

    def check(label, residual, tol):
        margins.append(_margin(tol, residual))
        if not residual < tol:
            errors.append(f"{label}: residual {mp.nstr(residual, 5)} >= {mp.nstr(tol, 3)}")

    tau2 = pfode.tau_at(2, digits=digits)
    with wp(digits):
        lam_s = 2 * mp.sqrt(2) - 2
    tau_s = pfode.tau_at(lam_s, digits=digits)
    detour = pfode.ContinuationPath.from_json(json.dumps(inputs["detour"]))
    target = detour.waypoints[-1]
    tau_b_path = pfode.tau_at(target, path=detour, digits=digits)
    tau_b_series = pfode.tau_at(target, digits=digits)
    grid = [(Fraction(re), Fraction(im)) for re, im in inputs["grid"]]
    residuals = periods.mirror_map_residuals(digits, points=grid)
    identities = [periods.check_identity(i, None, digits=digits)
                  for i in ("DELTA-THETA", "W-PI")]
    th4 = deligne.theta_quartic_point(digits)
    l1 = deligne.lvalue(1, digits)
    l2 = deligne.lvalue(2, digits)

    with wp(digits):
        tol30 = mpf(10) ** -30
        check("tau(2)", abs(tau2 - mp.mpc(-1, 1) / 2), tol30)
        check("tau(2sqrt2-2)", abs(tau_s - mp.mpc(0, 1) / mp.sqrt(2)), tol30)
        tol = mpf(10) ** (-(digits - 15))
        check("detour vs series tau(b)", abs(tau_b_path - tau_b_series), tol)
        for lam, res in residuals:
            check(f"mirror-vs-period at {lam}", res, tol)
        for rep in identities:
            if not rep.passed:
                errors.append(f"{rep.identity}: residual {rep.residual} > {rep.tolerance}")
            margins.append(_margin(float(rep.tolerance), float(rep.residual)))
        rtol = mpf(10) ** (-(digits - 10))
        twopii = 2 * mp.pi * mp.mpc(0, 1)
        for label, ratio, want in (("ratio1", twopii * th4 / l1.value, 16),
                                   ("ratio2", twopii ** 2 * mp.mpc(0, 1) * th4 / l2.value, -64)):
            got = deligne.rationalize(ratio.real, tol=rtol)
            if got != want or abs(ratio.imag) > rtol:
                errors.append(f"{label} reconstructs as {got}, want {want}")
            check(f"{label} - {want}", abs(ratio - want), rtol)
    return {"errors": errors, "margin_digits": min(margins)}


# ---------------------------------------------------------------------------
# arith: zeta tables at pmax ~ 5000 and Fermat-quartic counts
# ---------------------------------------------------------------------------


def cm_bp(p: int) -> int:
    """b_p of eta(4 tau)^6 from the CM form: p = x^2 + 4y^2 with x odd gives
    b_p = 2(x^2 - 4y^2); zero unless p = 1 (mod 4)."""
    if p % 4 != 1:
        return 0
    y = 1
    while 4 * y * y < p:
        x2 = p - 4 * y * y
        x = math.isqrt(x2)
        if x * x == x2:
            return 2 * (x2 - 4 * y * y)
        y += 1
    raise ArithmeticError(f"{p} is not x^2 + 4y^2")


def gate_arith(table2, table_lam, fermat) -> tuple[list[str], float]:
    errors = []
    for rec in table2:
        if not rec.weil_ok:
            errors.append(f"lambda=2 p={rec.p}: Weil bound fails")
        if rec.p % 4 == 1:
            if rec.sym2_match is not True:
                errors.append(f"lambda=2 p={rec.p}: b_p != a_p^2 - 2p")
            if rec.b_p != cm_bp(rec.p):
                errors.append(f"lambda=2 p={rec.p}: b_p {rec.b_p} != CM {cm_bp(rec.p)}")
    for rec in table_lam:
        if not rec.weil_ok:
            errors.append(f"p={rec.p}: Weil bound fails")
    for chk in fermat:
        p = chk["p"]
        if chk["match"] is not True or chk["count"] != 1 + 20 * p + cm_bp(p) + p * p:
            errors.append(f"N_{p} = {chk['count']} != 1 + 20p + b_p + p^2")
    return errors, EXACT_MARGIN_DIGITS


def run_arith(pkg, inputs: dict, workdir: Path) -> dict:
    arith = pkg.arith
    table2 = arith.zeta_table(2, inputs["pmax"])
    table_lam = arith.zeta_table(Fraction(inputs["lambda"]), inputs["pmax"])
    fermat = [arith.fermat_decomposition_check(p, max(inputs["primes"]))
              for p in inputs["primes"]]
    errors, margin = gate_arith(table2, table_lam, fermat)
    if not table2 or not table_lam:
        errors.append("empty zeta table")
    return {"errors": errors, "margin_digits": margin}


RUNNERS = {
    "battery": run_battery,
    "exact-series": run_exact_series,
    "high-precision": run_high_precision,
    "arith": run_arith,
}
