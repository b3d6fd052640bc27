"""L-values of the weight-3 newform and the period ratios they should hit.

The L-function attached to the quartic surface's transcendental motive is
L(s) = sum b_n / n^s with b_n the coefficients of Q prod(1-Q^(4n))^6.  Its
Mellin integral

    Lambda(s) = integral_0^inf eta(4iz)^6 z^(s-1) dz

is split at the fixed point z = 1/4 of z -> 1/(16z); the lower half maps to
the upper half by the eta relation eta(i/(4y))^6 = 64 y^3 eta(4iy)^6 (derived
from eta(-1/tau) = sqrt(-i tau) eta(tau) and verified numerically, not
cited), after which both halves integrate termwise with elementary incomplete
gamma factors: Gamma(1,x) = e^-x and Gamma(2,x) = (1+x) e^-x.  The critical
values are L1 = 2 pi Lambda(1) and L2 = (2 pi)^2 Lambda(2).

The matching periods come from the theta value at the quartic point:
with v = theta3^4(0, -i e^(-pi/2)) (purely imaginary, = varpi0(2)^2),

    c_minus = v,  c_plus = i v,
    c_tate1 = 2 pi i c_minus,  c_tate2 = (2 pi i)^2 c_plus,

and the ratios c_tate1/L1, c_tate2/L2 reconstruct to small rationals
(16 and -64) by continued fractions with a hard denominator bound.

The theta value is cross-checked against varpi0(2)^2 from the Legendre frame
transported to lambda = 2.  This module never transports: callers run
pfode.continue_legendre(pfode.CANONICAL_PATH_TO_TWO, digits) once and pass
the frame to deligne_periods() or report().  report() returns the stage's
report entries as periods.Entry records, its self-checks judged by
periods.judged like every other numeric check.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from mpmath import mp, mpc, mpf

from . import arith
from .hyperfun import (DEFAULT_DIGITS, PrecisionError, as_mpc, eta_value,
                       theta_const, working_precision)
from .periods import Entry, judged

# Largest working precision lvalue (and so the deligne stage) accepts; its
# termwise sum takes about 500 eta-product coefficients there.
MAX_DIGITS = 300
# Largest denominator rationalize tries before it gives up.
MAX_DENOMINATOR = 10 ** 6


class ReconstructionError(ArithmeticError):
    """No small rational within tolerance; indicates a computation bug."""


class LValueResult(NamedTuple):
    s: int
    value: mpf
    error_estimate: mpf


class DelignePeriodSet(NamedTuple):
    """c^+ and c^- of the base motive and the two critical Tate twists.

    c_plus is real, c_minus purely imaginary; theta4_value is the underlying
    theta3^4(0, -i e^(-pi/2)) and crosscheck_residual the disagreement
    between that value and varpi0(2)^2 from ODE continuation, which passes
    when it is at most crosscheck_tolerance.
    """
    c_plus: mpc
    c_minus: mpc
    c_plus_tate1: mpc
    c_plus_tate2: mpc
    theta4_value: mpc
    crosscheck_residual: mpf
    crosscheck_tolerance: mpf


def _lambda_termwise(s: int, digits: int):
    """Lambda(s) by termwise incomplete-gamma integration of both halves:
    Gamma(1, x) = e^-x and Gamma(2, x) = (1+x) e^-x, one exp per term."""
    nmax = int(mpf(2) * (digits + 20) * mp.log(10) / mp.pi) + 30
    coeffs = arith.eta6_coefficients(nmax)
    total = mpf(0)
    twopi = 2 * mp.pi
    for n in range(1, nmax + 1, 4):
        b = coeffs[n]
        if not b:
            continue
        x = mp.pi * n / 2  # = 2 pi n * (1/4)
        e = mp.exp(-x)
        gamma = {1: e, 2: (1 + x) * e}  # Gamma(s, x) for s in {1, 2}
        upper = gamma[s] / (twopi * n) ** s
        lower = 64 * mpf(16) ** (-s) * gamma[3 - s] / (twopi * n) ** (3 - s)
        total += b * (upper + lower)
    # first omitted term bounds the tail up to a geometric factor
    tail = mpf(nmax + 1) * mp.exp(-mp.pi * (nmax + 1) / 2)
    return total, tail


def lvalue(s: int, digits: int = DEFAULT_DIGITS) -> LValueResult:
    """L of the critical Tate twists: s=1 gives 2 pi Lambda(1), s=2 gives
    (2 pi)^2 Lambda(2), by the termwise sum."""
    if s not in (1, 2):
        raise ValueError("critical twists are s = 1 and s = 2 only")
    if digits > MAX_DIGITS:
        raise PrecisionError(f"digits capped at {MAX_DIGITS}")
    with working_precision(digits):
        lam, err = _lambda_termwise(s, digits)
        scale = (2 * mp.pi) ** s
        return LValueResult(s, scale * lam.real, scale * err)


def theta_quartic_point(digits: int = DEFAULT_DIGITS) -> mpc:
    """theta3^4(0, -i e^(-pi/2)), the purely imaginary period constant."""
    with working_precision(digits):
        q0 = -mp.mpc(0, 1) * mp.exp(-mp.pi / 2)
        return theta_const(3, q0, digits) ** 4


def deligne_periods(frame, digits: int = DEFAULT_DIGITS) -> DelignePeriodSet:
    """Periods of the base motive and its two critical twists.

    The underlying varpi0(2)^2 is computed both as the theta value and from
    `frame`, the Legendre frame (varpi0, varpi1) transported to lambda = 2
    along the canonical lower-detour path; their disagreement is returned
    with its tolerance 10^-(digits-15), and the caller decides what a failed
    cross-check means.
    """
    th4 = theta_quartic_point(digits)
    with working_precision(digits):
        w0sq = frame.columns[0][0] ** 2
        mismatch = abs(w0sq - th4)
        c_minus = th4
        c_plus = mp.mpc(0, 1) * th4
        twopii = 2 * mp.pi * mp.mpc(0, 1)
        return DelignePeriodSet(
            c_plus=c_plus,
            c_minus=c_minus,
            c_plus_tate1=twopii * c_minus,
            c_plus_tate2=twopii ** 2 * c_plus,
            theta4_value=th4,
            crosscheck_residual=mismatch,
            crosscheck_tolerance=mpf(10) ** (-(digits - 15)),
        )


def rationalize(x, tol) -> Fraction:
    """Continued-fraction reconstruction of a small rational from an mpf.

    Fails loudly if no convergent with denominator <= MAX_DENOMINATOR lands
    within tol; a period ratio that is not a small rational is a computation
    bug, not a refutation.
    """
    x = mpf(x)
    h2, h1 = 0, 1
    k2, k1 = 1, 0
    y = x
    for _ in range(200):
        a = int(mp.floor(y))
        h2, h1 = h1, a * h1 + h2
        k2, k1 = k1, a * k1 + k2
        if k1 > MAX_DENOMINATOR:
            raise ReconstructionError(
                f"no rational with denominator <= {MAX_DENOMINATOR} within {mp.nstr(tol, 3)}")
        if abs(x - mpf(h1) / k1) < tol:
            return Fraction(h1, k1)
        frac = y - a
        if frac == 0:
            return Fraction(h1, k1)
        y = 1 / frac
    raise ReconstructionError("continued fraction did not terminate")


def fricke_residual(y, digits: int = DEFAULT_DIGITS):
    """|eta(i/(4y))^6 - 64 y^3 eta(4iy)^6| at real y > 0."""
    with working_precision(digits):
        y = as_mpc(y).real
        lhs = eta_value(mp.mpc(0, 1) / (4 * y), digits) ** 6
        rhs = 64 * y ** 3 * eta_value(4 * mp.mpc(0, 1) * y, digits) ** 6
        return abs(lhs - rhs)


def _ratios(periods: DelignePeriodSet, digits: int):
    """(ratio1, ratio2, L1, L2): the two Deligne ratios c^+(twist s) / L(twist s)
    as complex numbers, and the two L-values they divide."""
    if digits < 40:
        raise PrecisionError("ratio verification needs digits >= 40")
    l1 = lvalue(1, digits)
    l2 = lvalue(2, digits)
    with working_precision(digits):
        return (periods.c_plus_tate1 / l1.value, periods.c_plus_tate2 / l2.value,
                l1.value, l2.value)


def _reconstruct(ratio, tol) -> Fraction:
    """The small rational a real ratio is, within tol (rationalize)."""
    if abs(ratio.imag) > tol:
        raise ReconstructionError("period ratio failed to be real")
    return rationalize(ratio.real, tol=tol)


def verify_ratios(periods: DelignePeriodSet, digits: int = DEFAULT_DIGITS):
    """(r1, r2, L1, L2): the two Deligne ratios as exact rationals, and the
    two L-values they divide.

    r1 = c^+(twist 1) / L(twist 1) and r2 = c^+(twist 2) / L(twist 2), with
    the twisted periods taken from `periods`, reconstructed by continued
    fractions with denominator bound MAX_DENOMINATOR and residual tolerance
    10^-(digits-10).
    """
    ratio1, ratio2, l1, l2 = _ratios(periods, digits)
    with working_precision(digits):
        tol = mpf(10) ** (-(digits - 10))
        return _reconstruct(ratio1, tol), _reconstruct(ratio2, tol), l1, l2


def _ratio_entry(name: str, ratio, expected: int, tol, digits: int) -> Entry:
    """The check that `ratio` reconstructs to `expected`.  A ratio that is
    not real or has no small rational fails it, with its decimal value and
    the error."""
    try:
        r = _reconstruct(ratio, tol)
    except ReconstructionError as exc:
        value = ratio.real if abs(ratio.imag) <= tol else ratio
        return Entry(name, False, data={"value": mp.nstr(value, digits),
                                        "error": f"ReconstructionError: {exc}"})
    return Entry(name, r == expected, data={"value": str(r)})


def report(frame, digits: int = DEFAULT_DIGITS) -> list[Entry]:
    """The Deligne stage's seven entries: `deligne-summary` (informational:
    theta value, L-values, twisted periods and ratios as decimal strings),
    the Fricke and theta-vs-continuation self-checks that gate them, and
    the two ratio checks; `frame` is the Legendre frame transported to
    lambda = 2 (see deligne_periods).  The self-checks are built before the
    ratios are reconstructed, and a ratio that does not reconstruct fails
    its own check, so a fault in one layer leaves the others' entries."""
    with working_precision(digits):
        tol = mpf(10) ** (-(digits - 10))
        fricke = [judged(f"fricke-eta6-y={y}", fricke_residual(y, digits), tol)
                  for y in (Fraction(3, 10), Fraction(7, 10), Fraction(3, 2))]
    periods = deligne_periods(frame, digits)
    crosscheck = judged("theta-vs-continuation", periods.crosscheck_residual,
                        periods.crosscheck_tolerance)
    ratio1, ratio2, l1, l2 = _ratios(periods, digits)
    with working_precision(digits):
        ratios = [_ratio_entry("ratio1-is-16", ratio1, 16, tol, digits),
                  _ratio_entry("ratio2-is-minus-64", ratio2, -64, tol, digits)]
        summary = {
            "digits": digits,
            "theta4_value": mp.nstr(periods.theta4_value, digits),
            "L1": mp.nstr(l1, digits),
            "L2": mp.nstr(l2, digits),
            "c_plus_tate1": mp.nstr(periods.c_plus_tate1, digits),
            "c_plus_tate2": mp.nstr(periods.c_plus_tate2, digits),
            "ratio1": ratios[0].data["value"],
            "ratio2": ratios[1].data["value"],
        }
    return [Entry("deligne-summary", True, True, data=summary), *fricke, crosscheck, *ratios]
