"""Taylor-method continuation of the Legendre periods.

One equation is solved: the Legendre operator
lam(1-lam) D^2 + (1-2 lam) D - 1/4, which annihilates varpi0 and varpi1
and is singular at 0, 1 and infinity (SINGULAR_POINTS holds the finite
two, exactly).  At an expansion point z its Taylor coefficients obey
one three-term recurrence, written out in _recurrence.  A fundamental
solution system is transported along polygonal complex paths by repeated
local Taylor expansion with step size at most half the distance to the
nearest singularity.  Each step runs the Taylor recurrence once for all
columns on Python integers (the scheme of mpmath's hypsum; van der Hoeven,
"Fast evaluation of holonomic functions", TCS 210, 1999); mpmath only
converts the frame in and reads off the result.  A new term is the two
Gaussian-integer coefficients u (2m+1)^2 and v (m+1)^2 times the last two
terms, floored by divisor (m+1)(m+2), and the derivative is read off
suffix sums of the terms by additions only.  A step takes as many terms
as its own ratio rho = |h| / (distance to the nearest singular point)
asks for: a full step (rho = 1/2) as many as ever,
a segment's shorter last step fewer.  Every decision around the steps is
made on exact rationals and Python ints, with no mpmath call: the step
sizes and rho^2 from squared distances to the exact singular points and
isqrt (_steps), the term counts from integer power comparisons
(_step_terms), the clearance from squared distances to each segment
(_check_clearance), and the recurrence coefficients from Gaussian-integer
numerators over one denominator (_recurrence), and so are a frame's
anchor, a path's end and default_path's choice: every waypoint, frame
point and target is its exact (re, im) Fraction pair, an mpf or float
coordinate its exact binary value (hyperfun.exact_point).  So every
expansion point and step is an exact Gaussian rational (the step in the
segment's parameter is rounded down to STEP_BITS significant binary
digits), and the recurrence coefficients are Gaussian integers over one
positive divisor: small at short rational points, where a term costs O(P)
bit operations instead of a P-bit product -- the rational-parameter case
of hypsum (Mezzarobba, arXiv:1607.01967).  The conversions
`_to_fixed`/`_from_fixed` and GUARD_BITS live in hyperfun, shared with the
period series of `periods`.

The Legendre frame is not transported through the disk
|lambda| <= SERIES_RADIUS (1/2), where periods.legendre_jet gives it
directly by two AGMs, which cost less than one Taylor step.
continue_legendre seeds the transport at the last step point its path
reaches in that disk from the start without meeting the cut (-inf, 0] of
the principal log (an exact test on exact steps), takes the jet's frame
there and runs the Taylor steps (_transport) on the rest of the path.
The canonical path to lambda = 2 takes 9 Taylor steps, the default path
to 2 sqrt 2 - 2 three: two to its waypoint, the target cut to 2^-20, and
a short hop on to the exact binary target.

Paths can be given as JSON lists of complex waypoints (pairs of decimal
strings), which is the only external data format of this module.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import accumulate
from math import gcd, isqrt
from typing import NamedTuple

from mpmath import mp, mpf

from . import periods
from .hyperfun import (DEFAULT_DIGITS, GUARD_BITS, GUARD_DIGITS, PrecisionError, _from_fixed,
                       _gaussian, _gmul, _to_fixed, as_mpc, decay_terms, exact_pair,
                       exact_point, working_precision)

# Significant binary digits kept in the parameter step dt of a segment
# between exact waypoints (see _steps): few enough that the exact expansion
# points and steps keep small denominators.
STEP_BITS = 5
# A Taylor step goes at most this fraction of the distance to the nearest
# singular point.
STEP_FACTOR = 0.5
# The finite singular points 0 and 1 of the Legendre operator, as exact
# (re, im) pairs like waypoints; continuation measures its distances to
# them exactly.
SINGULAR_POINTS = ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)))
# Least distance a continuation path keeps from every singular point.
CLEARANCE = 0.1
# Radius of the disk |lambda| <= SERIES_RADIUS in which periods.legendre_jet
# gives the Legendre frame directly (by two AGMs; it accepts |lambda| <= 0.9):
# default_path reads tau off the jet there, and continue_legendre seeds its
# transport at the last step point its path reaches inside it.
SERIES_RADIUS = Fraction(1, 2)


class PathError(ValueError):
    """Raised when a continuation path violates clearance or fails to converge."""


# ---------------------------------------------------------------------------
# Continuation
# ---------------------------------------------------------------------------


class _PathFields(NamedTuple):
    waypoints: tuple


class ContinuationPath(_PathFields):
    """Polygonal path in the complex plane through waypoints stored as
    their exact points (hyperfun.exact_point; a non-finite one raises
    PathError); continuation requires it to keep CLEARANCE from every
    singular point."""
    __slots__ = ()

    def __new__(cls, waypoints):
        if len(waypoints) < 2:
            raise PathError("a path needs at least two waypoints")
        try:
            waypoints = tuple(exact_point(w) for w in waypoints)
        except PrecisionError as exc:
            raise PathError(str(exc)) from None
        return super().__new__(cls, waypoints)

    @classmethod
    def from_json(cls, text: str) -> "ContinuationPath":
        """Waypoints as a JSON list of [re, im] pairs of decimal strings,
        parsed exactly."""
        data = json.loads(text)
        pts = [(Fraction(str(re)), Fraction(str(im))) for re, im in data]
        return cls(tuple(pts))


class SolutionFrame(NamedTuple):
    """Values and derivatives of a fundamental system of the Legendre
    operator at an exact point.

    columns[i] = (y_i, y_i'); the 2x2 frame matrix must stay nonsingular
    along any continuation.
    """

    point: tuple
    columns: tuple
    error_estimate: mpf = mpf(0)


def _distance2(p, s) -> Fraction:
    """Squared distance between exact points p and s."""
    return (p[0] - s[0]) ** 2 + (p[1] - s[1]) ** 2


def _segment_distance2(a, b, p) -> Fraction:
    """Squared distance from the exact point p to the segment [a, b]."""
    ab = (b[0] - a[0], b[1] - a[1])
    denom = ab[0] ** 2 + ab[1] ** 2
    t = 0
    if denom:
        t = min(1, max(0, ((p[0] - a[0]) * ab[0] + (p[1] - a[1]) * ab[1]) / denom))
    return _distance2((a[0] + t * ab[0], a[1] + t * ab[1]), p)


def _step_precision(h) -> int:
    """Working bits P of a Taylor step: the working precision plus
    GUARD_BITS, and log2(1/|h|) more for a short step, whose derivative is
    divided by h."""
    return mp.prec + GUARD_BITS + max(0, -mp.mag(h))


def _recurrence(z, h):
    """The Legendre recurrence for one Taylor step from the exact point z
    by the exact step h (Fraction pairs), as _taylor_transport takes it:
    (u, v, divisor), two Gaussian integers as (re, im) int pairs and one
    positive int.

    At z the Taylor coefficients c_n of a solution obey
    z(1-z)(n+1)(n+2) c_(n+2) = -(1-2z)(n+1)^2 c_(n+1) + (n+1/2)^2 c_n, so
    with L = z(1-z) the scaled terms b_n = c_n h^n obey

        (m+1)(m+2) b_(m+2) = (u (2m+1)^2 b_m + v (m+1)^2 b_(m+1)) / divisor,
        u / divisor = h^2 / (4 L),  v / divisor = -(1-2z) h / L.

    Everything runs on Python ints.  With z = Z / zd, h = H / hd (Gaussian
    integers over positive ints) and M = Z (zd - Z), L = M / zd^2, so over
    the common denominator 4 hd^2 |M|^2 the numerators are
    zd^2 H^2 conj(M) for u and -4 hd zd (zd - 2Z) H conj(M) for v, which
    vanishes at z = 1/2.  Divided by their gcd with it, that denominator is
    the divisor.
    """
    zre, zim, zd = _gaussian(z)
    hre, him, hd = _gaussian(h)
    conj_m = _gmul((zre, -zim), (zd - zre, zim))
    ure, uim = _gmul(_gmul((hre, him), (hre, him)), conj_m)
    vre, vim = _gmul(_gmul((zd - 2 * zre, -2 * zim), (hre, him)), conj_m)
    u = (zd * zd * ure, zd * zd * uim)
    v = (-4 * hd * zd * vre, -4 * hd * zd * vim)
    den = 4 * hd * hd * (conj_m[0] ** 2 + conj_m[1] ** 2)
    common = gcd(den, *u, *v)
    return ((u[0] // common, u[1] // common), (v[0] // common, v[1] // common),
            den // common)


def _taylor_transport(recurrence, columns, h, nterms):
    """One Taylor step for every column at once, on Python integers.

    columns[i] = (y_i, y_i') at the expansion point z.  The scaled terms
    b_n = c_n h^n of y(z + x) = sum c_n x^n, b_0 = y and b_1 = h y', obey
    the three-term recurrence of _recurrence: `recurrence` is
    (u, v, divisor), and each new term

        b_(m+2) = floor((u (2m+1)^2 b_m + v (m+1)^2 b_(m+1)) / (divisor (m+1)(m+2)))

    is one Gaussian-integer product sum floored by one int, its real and
    imaginary parts apart, with the coefficients shared by all columns.  At
    a short rational point the divisor is a small integer, so a term costs
    O(P) bit operations rather than a P-bit product.  h is the step as an
    exact Fraction pair.  Every b_n is an int pair scaled by 2^(P-E), where
    P is the step's working bits (_step_precision) and 2^E bounds the
    largest entry of the input frame.  The value is sum b_n, and h times
    the derivative is sum n b_n: the sum of the suffix sums of the b_n from
    n = 1 on, formed by additions.  Returns (columns at offset h, tail),
    where tail is max |b_n| over the last 6 terms of every column.
    """
    if not all(mp.isfinite(v) for col in columns for v in col):
        raise PathError("non-finite value in the frame")
    (ure, uim), (vre, vim), divisor = recurrence
    h = as_mpc(h)
    prec = _step_precision(h)
    frame_mag = max((mp.mag(v) for col in columns for v in col if v), default=0)
    scale = prec - frame_mag
    cols = []
    for y, dy in columns:
        y, hdy = +y, dy * h  # both rounded to the working precision
        cols.append(([_to_fixed(y.real, scale), _to_fixed(hdy.real, scale)],
                     [_to_fixed(y.imag, scale), _to_fixed(hdy.imag, scale)]))
    for m in range(nterms - 2):
        a, c = (2 * m + 1) ** 2, (m + 1) ** 2
        are, aim, cre, cim = ure * a, uim * a, vre * c, vim * c
        div = divisor * (m + 1) * (m + 2)
        for bre, bim in cols:
            xre, xim, yre, yim = bre[m], bim[m], bre[m + 1], bim[m + 1]
            bre.append((are * xre - aim * xim + cre * yre - cim * yim) // div)
            bim.append((are * xim + aim * xre + cre * yim + cim * yre) // div)
    unit = frame_mag - prec
    out = []
    for bre, bim in cols:
        # bre[:0:-1] runs from the last term down to b_1
        out.append((_from_fixed(sum(bre), sum(bim), -unit),
                    _from_fixed(sum(accumulate(bre[:0:-1])), sum(accumulate(bim[:0:-1])),
                                -unit) / h))
    worst = max(bre[i] ** 2 + bim[i] ** 2 for bre, bim in cols for i in range(-6, 0))
    return out, mp.ldexp(mp.sqrt(worst), unit)


def _sqrt_bits(x: Fraction, bits: int) -> Fraction:
    """sqrt(x) for a Fraction x >= 0, cut toward zero to its leading `bits`
    significant binary digits, exactly:
    floor(sqrt(x) 2^k) = isqrt(floor(x 4^k))."""
    p, q = x.numerator, x.denominator
    if not p:
        return Fraction(0)
    k = bits + 1 - (p.bit_length() - q.bit_length()) // 2  # sqrt(x) 2^k >= 2^bits
    m = isqrt((p << 2 * k) // q if k >= 0 else p // (q << -2 * k))
    cut = m.bit_length() - bits
    m, k = m >> cut, k - cut
    return Fraction(m, 1 << k) if k >= 0 else Fraction(m << -k)


def _steps(waypoints, digits: int):
    """The Taylor steps (z, h, rho2) along a polygon of exact waypoints,
    segment by segment.

    A step from z goes STEP_FACTOR times the distance d from z to the
    nearest singular point, or to the segment's end if that is nearer.  On
    a segment [a, w], z = a + t (w - a) and h = dt (w - a) with t and dt
    exact: dt is that reach in units of |w - a|, cut down to its leading
    STEP_BITS binary digits, or the rest 1 - t of the segment, so z and h
    are exact Gaussian rationals and no step is longer than the full reach.
    Every decision is exact, on squares: the rest is compared with the
    reach by rest^2 > d^2 STEP_FACTOR^2 / |w - a|^2, the reach's leading
    bits come from isqrt (_sqrt_bits), and a step with
    |h|^2 < 10^(-2 digits) raises PathError.  rho2 = |h|^2 / d^2, at most
    STEP_FACTOR^2, is the squared ratio by which the step's terms fall
    (_step_terms).
    """
    factor2 = Fraction(STEP_FACTOR) ** 2
    least2 = Fraction(1, 10 ** (2 * digits))
    for a, w in zip(waypoints, waypoints[1:]):
        delta = (w[0] - a[0], w[1] - a[1])
        if delta == (0, 0):
            continue
        length2 = delta[0] ** 2 + delta[1] ** 2
        t = Fraction(0)
        while t < 1:
            z = (a[0] + t * delta[0], a[1] + t * delta[1])
            rest = 1 - t
            d2 = min(_distance2(z, s) for s in SINGULAR_POINTS)
            if rest * rest * length2 > d2 * factor2:
                rest = _sqrt_bits(d2 * factor2 / length2, STEP_BITS)
            h2 = rest * rest * length2
            if h2 < least2:
                raise PathError("step size underflow near a singular point")
            yield z, (rest * delta[0], rest * delta[1]), min(factor2, h2 / d2)
            t += rest


def _step_terms(rho2: Fraction, digits: int) -> int:
    """Taylor terms of a step whose terms fall by the ratio
    rho = |h| / (distance from z to the nearest singular point)
    <= STEP_FACTOR, given as the exact rho2 = rho^2 that _steps yields:
    the least n with rho^n <= 10^-(digits + GUARD_DIGITS + 10), that is
    ceil((digits + GUARD_DIGITS + 10) ln 10 / ln(1/rho)), plus 16, decided
    on integers (hyperfun.decay_terms).  A full step (rho = STEP_FACTOR)
    gets the most terms; a shorter one, such as the last step of a
    segment, fewer."""
    return decay_terms(rho2, digits + GUARD_DIGITS + 10) + 16


def _show(p) -> str:
    """An exact point as a complex number for messages; one with a
    coordinate beyond a float's range exactly, as (re+imj) with each part
    p or p/q."""
    try:
        return str(complex(float(p[0]), float(p[1])))
    except OverflowError:
        return f"({p[0]}{'' if p[1] < 0 else '+'}{p[1]}j)"


def _check_clearance(waypoints):
    """Raise PathError if a segment of the polygon comes nearer than
    CLEARANCE (1 - 10^-12) to a singular point, decided exactly on squared
    distances."""
    bound2 = (Fraction(CLEARANCE) * (1 - Fraction(1, 10 ** 12))) ** 2
    for a, b in zip(waypoints, waypoints[1:]):
        for s in SINGULAR_POINTS:
            if _segment_distance2(a, b, s) < bound2:
                raise PathError(
                    f"path segment [{_show(a)}, {_show(b)}] passes within "
                    f"clearance {CLEARANCE} of singular point {_show(s)}")


def continue_solution(path: ContinuationPath, initial: SolutionFrame,
                      digits: int = DEFAULT_DIGITS) -> SolutionFrame:
    """Transport a fundamental system of the Legendre operator
    lam(1-lam) D^2 + (1-2 lam) D - 1/4 along the path by local Taylor steps.

    Step size is at most STEP_FACTOR (one half) times the distance to the
    nearest singular point, 0 or 1, and each step's term count targets a
    truncation below 10^-(digits+10) at its own ratio rho = |h| / (that
    distance) (_step_terms): ceil((digits + GUARD_DIGITS + 10) ln 10 /
    ln(1/rho)) + 16, the count of a full step at rho = 1/2 and fewer for a
    shorter one, such as a segment's last.  _steps yields the exact rho^2
    with each step; the step sizes, term counts and clearance are decided
    on exact rationals and ints, never on rounded values.  The waypoints
    are exact points (ContinuationPath), so every expansion point
    z = a + t (w - a) and step h = dt (w - a) is an exact Gaussian
    rational: dt is that step in units of |w - a| rounded down to STEP_BITS
    significant binary digits (see _steps), so no step is longer.  Each
    step advances all columns (y, y') together through the Legendre
    three-term recurrence at z on Python integers (`_taylor_transport`):
    the step is rescaled to end at t = 1, the scaled terms c_n h^n are ints
    carrying GUARD_BITS (80) bits beyond the working precision, relative to
    the largest entry of the frame, and each new term is
    (u (2m+1)^2 b_m + v (m+1)^2 b_(m+1)) floored by divisor (m+1)(m+2),
    with u and v exact Gaussian integers over one int divisor
    (_recurrence).  Only the final sums and the division by h run in
    mpmath.

    The tail of a step is the largest |c_n h^n| among its last 6 terms.
    That is a heuristic, not a bound: a step whose tail exceeds
    10^-(digits+10) times the frame's scale is redone with 1.5 times the
    terms, and the accepted tails are summed into the returned frame's
    error estimate.  Precision doubling is the intended cross-check.

    The transport runs from the first waypoint, which must be the exact
    point of `initial.point`.  continue_legendre runs the same transport
    from a later seed point, with the Legendre frame there from the jet.
    """
    _check_clearance(path.waypoints)
    return _transport(path, initial, digits)


def _transport(path: ContinuationPath, initial: SolutionFrame, digits: int) -> SolutionFrame:
    """continue_solution's Taylor steps on a path whose clearance the caller
    has checked."""
    if exact_point(initial.point) != path.waypoints[0]:
        raise PathError("initial frame is not anchored at the first waypoint")
    with working_precision(digits):
        eps = mpf(10) ** (-(digits + 10))
        cols = [tuple(col) for col in initial.columns]
        err = mpf(initial.error_estimate)
        for z, h, rho2 in _steps(path.waypoints, digits):
            recurrence = _recurrence(z, h)
            nterms = _step_terms(rho2, digits)
            for attempt in range(6):
                new_cols, tail_worst = _taylor_transport(recurrence, cols, h, nterms)
                scale = max(max(abs(v) for v in col) for col in new_cols)
                if tail_worst <= eps * max(mpf(1), scale):
                    break
                nterms = int(nterms * 1.5)
            else:
                raise PathError("Taylor step failed to reach target accuracy")
            cols = new_cols
            err += tail_worst
        return SolutionFrame(path.waypoints[-1], tuple(cols), err)


def legendre_frame(base, digits: int = DEFAULT_DIGITS) -> SolutionFrame:
    """Fundamental frame (varpi0, varpi1) of the Legendre operator at a base
    point inside the series disk, at the base's exact point."""
    jet = periods.legendre_jet(base, digits)
    return SolutionFrame(exact_point(base), ((jet.varpi0, jet.dvarpi0),
                                             (jet.varpi1, jet.dvarpi1)))


# The homotopy class matters at lambda = 2: the detour through Im(lambda) < 0
# reproduces the printed special values tau(2) = (-1+i)/2 and
# varpi0(2) = theta3^2(0, -i e^(-pi/2)); the mirror-image detour through
# Im(lambda) > 0 lands on (1+i)/2 instead.  The lower path is canonical here.
CANONICAL_BASE = Fraction(1, 10)
CANONICAL_PATH_TO_TWO = ContinuationPath((
    (Fraction(1, 10), Fraction(0)),
    (Fraction(1, 10), Fraction(-6, 5)),
    (Fraction(2), Fraction(0)),
))


# Binary digits after the point kept of a rounded target in default_path's
# waypoint before it.
WAYPOINT_BITS = 20


def default_path(target) -> ContinuationPath | None:
    """The route tau_at takes to `target` when given no path: None inside
    the series disk 0 < |target| <= 1/2, where legendre_jet evaluates at
    the target itself; the canonical lower detour for lambda = 2; else the
    straight path from the canonical base.  A rounded target (not an
    exact_pair, such as the mpf 2 sqrt 2 - 2) is reached through a
    waypoint, the target cut toward zero to a multiple of 2^-WAYPOINT_BITS:
    the seed and every step but the last, short hop then carry short
    coefficients, where the exact binary target's denominator is about the
    working precision.  The choice is exact, made on exact_point(target)."""
    point = exact_point(target)
    if 0 < point[0] ** 2 + point[1] ** 2 <= SERIES_RADIUS ** 2:
        return None
    if point == (2, 0):
        return CANONICAL_PATH_TO_TWO
    near = tuple(Fraction(int(c * 2 ** WAYPOINT_BITS), 2 ** WAYPOINT_BITS) for c in point)
    if exact_pair(target) is None and near != point:
        return ContinuationPath((CANONICAL_BASE, near, point))
    return ContinuationPath((CANONICAL_BASE, point))


def _in_slit_disk(z) -> bool:
    """Whether an exact point lies in |z| <= SERIES_RADIUS off the cut
    (-inf, 0] of the principal log."""
    re, im = z
    return re * re + im * im <= SERIES_RADIUS ** 2 and (im != 0 or re > 0)


def _crosses_cut(a, b) -> bool:
    """Whether the segment between exact points a and b, both off the cut,
    meets (-inf, 0]: its ends lie on opposite sides of the real axis and it
    crosses that axis at x <= 0."""
    if a[1] * b[1] >= 0:
        return False
    return (a[0] * b[1] - b[0] * a[1]) / (b[1] - a[1]) <= 0


def _seed(waypoints, digits: int):
    """(seed, rest): the last Taylor step point (as _steps takes them) that
    the path reaches from its start without leaving the slit disk
    |lambda| <= SERIES_RADIUS, and the waypoints after it.

    Every test is exact: each step's end must lie in the closed disk, off
    (-inf, 0], and the step must not cross (-inf, 0].  A path that starts
    outside that slit disk is its own seed."""
    seed, rest = waypoints[0], waypoints[1:]
    if not _in_slit_disk(seed):
        return seed, rest
    for j, w in enumerate(waypoints[1:]):
        for z, h, _ in _steps((waypoints[j], w), digits):
            end = (z[0] + h[0], z[1] + h[1])
            if not _in_slit_disk(end) or _crosses_cut(z, end):
                return seed, rest
            seed, rest = end, waypoints[j + 1:]
        seed, rest = w, waypoints[j + 2:]
    return seed, rest


def continue_legendre(path: ContinuationPath, digits: int = DEFAULT_DIGITS) -> SolutionFrame:
    """The Legendre frame (varpi0, varpi1) of legendre_frame at the path's
    start, transported to its end.

    The transport starts at the seed of _seed, the last Taylor step point
    the path reaches inside |lambda| <= SERIES_RADIUS without meeting the
    cut (-inf, 0], and the frame there comes from the jet
    (legendre_frame).  The slit disk is simply connected and legendre_jet
    takes the principal log's branch on it, so that frame is the one the steps
    before the seed would have carried there; they are skipped, and
    continue_solution's transport runs on (seed, *remaining waypoints).
    Its segments lie on the path's, so the one clearance check of the whole
    path covers them.  A path that ends inside the slit disk is the jet's
    frame at its end; one that starts outside it is transported from its
    first waypoint."""
    _check_clearance(path.waypoints)
    seed, rest = _seed(path.waypoints, digits)
    frame = legendre_frame(seed, digits)
    if not rest:
        return frame
    return _transport(ContinuationPath((seed, *rest)), frame, digits)


def frame_tau(frame: SolutionFrame, digits: int = DEFAULT_DIGITS):
    """tau = varpi1/varpi0 read off a transported Legendre frame."""
    with working_precision(digits):
        return frame.columns[1][0] / frame.columns[0][0]


def ends_at(path: ContinuationPath, target, digits: int = DEFAULT_DIGITS) -> bool:
    """Whether the path ends at `target`: an exact target (see exact_pair)
    is its last waypoint, a rounded one such as the mpf 2 sqrt 2 - 2 lies
    within 10^(5 - digits) max(1, |target|) of it, decided exactly on
    squared distances."""
    end, exact = path.waypoints[-1], exact_pair(target)
    if exact is not None:
        return end == exact
    point = exact_point(target)
    return _distance2(end, point) * 10 ** (2 * digits - 10) <= max(1, _distance2(point, (0, 0)))


def tau_at(lambda_target, path: ContinuationPath | None = None,
           digits: int = DEFAULT_DIGITS):
    """tau = varpi1/varpi0 at the target after continuation along the path,
    by default along default_path(lambda_target), or from the jet there
    when that is None.  A given path must end at the target (ends_at)."""
    if path is None:
        path = default_path(lambda_target)
    if path is None:
        jet = periods.legendre_jet(lambda_target, digits)
        with working_precision(digits):
            return jet.varpi1 / jet.varpi0
    if not ends_at(path, lambda_target, digits):
        raise PathError("path does not end at the requested target")
    return frame_tau(continue_legendre(path, digits), digits)
