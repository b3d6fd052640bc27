"""Period objects and the identity registry.

Exact q- and lambda-expansions live on RationalSeries, int numerators over
one denominator; the theta q-series are built in that form and
w_series_t's S and T are scalar multiples of Frobenius eps-slices, so no
Fraction is made per coefficient.  Numeric values are mpmath complex
numbers at a requested precision.  The two Legendre periods are

    varpi0(lam) = 2F1(1/2, 1/2; 1; lam),
    varpi1(lam) = (varpi0*log(lam) + h(lam))/(pi*i) - (log 16/(pi*i))*varpi0,

with h the log-companion series; the quartic-family periods W0, W1, W2 are
the classical series in 1/(4*psi)^4.  Their exact series (varpi0, h and the
t-series of w_series_t) are eps-slices of hyperfun.frobenius_series.  The
quadratic change of variables

    t = lam^2 (1-lam) (1-lam/2)^(-4),    psi = lam^(-1/2) (1-lam)^(-1/4) (1-lam/2)

identifies the two worlds: W0 = (1-lam/2) varpi0^2, W1 = (1-lam/2) varpi0
varpi1, so the quotient W1/W0 is the Legendre period ratio tau (checked
exactly over Q[[lam]] as MIRROR-EXACT, numerically on a grid).  Everything
checkable is registered behind check_identity().  Every check of the
package, here and in cli and deligne, reports through one record, Entry,
and every numeric one through one pass rule and residual format, judged().

Both numeric series (legendre_jet, dwork_periods) run their term
recurrences on fixed-point Python integers carrying hyperfun.GUARD_BITS
(80) bits beyond the working precision, in the style of mpmath's hypsum;
mpmath only converts the argument in and combines the sums with log and pi.
legendre_jet multiplies by the Gaussian-integer numerator of lambda's
exact point (hyperfun.exact_point) and divides by its denominator along
with the term ratio's, and takes the weighted sums sum m x_m of its
derivatives from running sums of partial sums, by additions.  dwork_periods
takes its harmonic brackets, which do not depend on psi, from one table per
fixed-point scale that every call shares (_harmonic_terms).  The term
counts are those of `_series_terms` (plus 10 for the Dwork side), decided
exactly on |x|^2 from the exact point of lambda or of the mpf |t|.
"""

from __future__ import annotations

from fractions import Fraction
from functools import wraps
from typing import NamedTuple, Optional

from mpmath import mp, mpc, mpf

from . import hyperfun
from .hyperfun import (DEFAULT_DIGITS, GUARD_BITS, PrecisionError, _from_fixed, _gaussian,
                       _to_fixed, as_mpc, decay_terms, eta_value, exact_point, frobenius_series,
                       half_nome, hyp2f1_series, theta_const, waypoint_strings,
                       working_precision)
from .qseries import RationalSeries, SeriesError, eta_product

_PAD = 8  # extra exact-series slots so residuals stay provable at the asked order


# ---------------------------------------------------------------------------
# Exact series
# ---------------------------------------------------------------------------


LEGENDRE = (Fraction(1, 2), Fraction(1, 2))  # varpi0 = 2F1(1/2, 1/2; 1; lam)


def varpi0_series(order: int) -> RationalSeries:
    """2F1(1/2,1/2;1;lam) = 1 + lam/4 + 9 lam^2/64 + ..."""
    return hyp2f1_series(*LEGENDRE, order)


class CacheInfo(NamedTuple):
    hits: int
    misses: int
    maxsize: int
    currsize: int


def _largest_table(build):
    """Cache for an exact series whose entries at a lower order are the
    truncations of those at a higher one: it keeps only the largest table
    built and answers a lower order by truncating it, so a run builds each
    such series once if it asks for its largest order first.  `order` must
    be >= 1; `cache_info()` and `cache_clear()` work as for lru_cache.
    """
    built, table = 0, None  # the largest order asked so far and its series
    hits = misses = 0

    @wraps(build)
    def cached(order: int) -> RationalSeries:
        nonlocal built, table, hits, misses
        if order < 1:
            raise SeriesError(f"{build.__name__} requires order >= 1")
        if order <= built:
            hits += 1
            return table.truncate(table.order - (built - order))
        misses += 1
        built, table = order, build(order)
        return table

    def cache_clear():
        nonlocal built, table, hits, misses
        built, table, hits, misses = 0, None, 0, 0

    cached.cache_info = lambda: CacheInfo(hits, misses, 1, int(table is not None))
    cached.cache_clear = cache_clear
    return cached


def q_of_lambda_series(order: int) -> RationalSeries:
    """q(lam) = (lam/16) * exp(h(lam)/varpi0(lam)), exactly in rationals;
    known to lam^order."""
    w0, h = frobenius_series(LEGENDRE, order, 2)
    e = (h * w0.reciprocal()).exp()
    return (e * Fraction(1, 16)).shifted(1)


@_largest_table
def lambda_q_series(order: int) -> RationalSeries:
    """lambda(tau) as a series in q = exp(pi*i*tau): 16q - 128q^2 + 704q^3 - ...,
    known to q^order."""
    return q_of_lambda_series(order + 1).revert().truncate(order + 1)


@_largest_table
def varpi0_q_series(order: int) -> RationalSeries:
    """varpi0(lambda(q)) = 1 + 4q + 4q^2 + 4q^4 + 8q^5 + ... as an exact q-series.

    The one composition with lambda(q) per run: a lower order is the
    truncation of the largest one built.  THETA-V, THETA-24, DLDTAU,
    DELTA-LAMBDA and BPS build every q-side period from it: varpi0^2 as its
    square and Pi0 = (1 - lambda/2) varpi0^2 as that times 1 - lambda(q)/2.
    Composition with a valuation-1 series is a ring map that keeps the
    truncation order, so these equal the compositions of varpi0^2 and Pi0
    coefficient for coefficient.
    """
    return varpi0_series(order).compose(lambda_q_series(order))


def bps_series(order: int) -> RationalSeries:
    """Q^(-1) sum chi(Hilb^n) Q^n = 1/eta^24 as a series in Q = exp(2*pi*i*tau)."""
    if order < 1:
        raise SeriesError("bps_series requires order >= 1")
    return eta_product(1, 24, order).reciprocal()


def theta3_qseries(order: int) -> RationalSeries:
    """theta3(0,q) = 1 + 2q + 2q^4 + 2q^9 + ... as an exact q-series."""
    coeffs = [0] * order
    coeffs[0] = 1
    n = 1
    while n * n < order:
        coeffs[n * n] = 2
        n += 1
    return RationalSeries.from_numerators(coeffs)


def theta4_qseries(order: int) -> RationalSeries:
    """theta4(0,q) = 1 - 2q + 2q^4 - 2q^9 + ... as an exact q-series."""
    coeffs = [0] * order
    coeffs[0] = 1
    n = 1
    while n * n < order:
        coeffs[n * n] = 2 if n % 2 == 0 else -2
        n += 1
    return RationalSeries.from_numerators(coeffs)


def theta2_pow4_qseries(order: int) -> RationalSeries:
    """theta2(0,q)^4 = 16 q (sum_n q^(n(n+1)))^4; offset 1, exact."""
    coeffs = [0] * order
    n = 0
    while n * (n + 1) < order:
        coeffs[n * (n + 1)] = 1
        n += 1
    s = RationalSeries.from_numerators(coeffs)
    return (s ** 4 * 16).shifted(1)


def delta_qseries(order: int) -> RationalSeries:
    """Delta = eta(tau)^24 written in the half nome: q^2 prod(1-q^(2n))^24."""
    return eta_product(2, 24, order)


# ---------------------------------------------------------------------------
# Numeric period evaluations
# ---------------------------------------------------------------------------


class LegendreJet(NamedTuple):
    varpi0: mpc
    dvarpi0: mpc
    varpi1: mpc
    dvarpi1: mpc


class DworkPeriods(NamedTuple):
    psi: mpc
    t: mpc
    w0: mpc
    w1: mpc
    w2: mpc
    tau: mpc


class QuadMapResult(NamedTuple):
    t: mpc
    psi: mpc


def _series_terms(abs2: Fraction, digits: int) -> int:
    """Terms needed for a tail ~ |x|^N to drop below the guarded target,
    from the exact abs2 = |x|^2 of hyperfun.exact_point: the least N with
    |x|^N <= 10^-(digits + GUARD_DIGITS + 5), decided on integers
    (hyperfun.decay_terms), plus 10, and at least 12."""
    if abs2 == 0:
        return 2
    return max(decay_terms(abs2, digits + hyperfun.GUARD_DIGITS + 5) + 10, 12)


def legendre_jet(lam, digits: int = DEFAULT_DIGITS) -> LegendreJet:
    """(varpi0, varpi0', varpi1, varpi1') at lam, for seeding continuation.

    Sums the varpi0 and h series over the first `_series_terms` coefficients
    on Python integers: every term and sum is an (re, im) int pair scaled by
    2^P, P = mp.prec + GUARD_BITS.  The terms carried are
    d_m = c_m lam^(m-1) and e_m = h_m lam^(m-1), m >= 1, with c and h the
    varpi0 and h coefficients; since R_m = c_m (2m+1)/(2(m+1)) in the
    recurrence of h,

        d_(m+1) = lam d_m (2m+1)^2 / (4(m+1)^2),
        e_(m+1) = lam (2m+1) ((2m+1)(m+1) e_m + 2 d_m) / (4(m+1)^3),

    so the derivatives are sum m d_m and sum m e_m, and the values
    1 + lam sum d_m and lam sum e_m need no division by lam (which would
    cost |log2 lam| bits of the fixed-point sums).  With S_m the partial
    sums and T the sum of S_1, ..., S_N, sum_(m<=N) m d_m = (N+1) S_N - T,
    so the weighted sums cost one addition per term.  lam enters as its
    exact point (hyperfun.exact_point), a Gaussian integer over its
    denominator, which joins the small divisor 4(m+1)^2, so each term costs
    O(P) bit operations at a short rational lam, and the sums are rounded
    only by the floors of the divisions.  mpmath converts lam in and
    applies the log/pi combination to the four sums.
    """
    re, im = exact_point(lam)
    with working_precision(digits):
        lam = as_mpc((re, im))
        if lam == 0:
            raise PrecisionError("legendre periods are singular at lambda = 0")
        if abs(lam) > mpf("0.9"):
            raise PrecisionError("|lambda| > 0.9: evaluate via pfode continuation")
        n = _series_terms(re ** 2 + im ** 2, digits)
        prec = mp.prec + GUARD_BITS
        lre, lim, ldiv = _gaussian((re, im))
        dre, dim = 1 << (prec - 2), 0  # c_1 = 1/4
        ere, eim = 1 << (prec - 1), 0  # h_1 = 1/2
        # the partial sums S_m of d and e, and the running sums T of the S_m
        sdre = sdim = tdre = tdim = sere = seim = tere = teim = 0
        for m in range(1, n):
            sdre += dre
            sdim += dim
            tdre += sdre
            tdim += sdim
            sere += ere
            seim += eim
            tere += sere
            teim += seim
            k, m1 = 2 * m + 1, m + 1
            den = 4 * m1 * m1 * ldiv
            xre = lre * dre - lim * dim
            xim = lre * dim + lim * dre
            yre = lre * ere - lim * eim
            yim = lre * eim + lim * ere
            kmk, k2 = k * m1 * k, 2 * k
            ere = (kmk * yre + k2 * xre) // (den * m1)
            eim = (kmk * yim + k2 * xim) // (den * m1)
            kk = k * k
            dre = xre * kk // den
            dim = xim * kk // den
        w0 = 1 + lam * _from_fixed(sdre, sdim, prec)
        dw0 = _from_fixed(n * sdre - tdre, n * sdim - tdim, prec)
        hval = lam * _from_fixed(sere, seim, prec)
        dh = _from_fixed(n * sere - tere, n * seim - teim, prec)
        pii = mp.pi * mp.mpc(0, 1)
        lg = mp.log(lam) - mp.log(mpf(16))
        w1 = (w0 * lg + hval) / pii
        dw1 = (dw0 * lg + w0 / lam + dh) / pii
        return LegendreJet(w0, dw0, w1, dw1)


def quad_map(lam, digits: int = DEFAULT_DIGITS) -> QuadMapResult:
    """(t, psi) from lam: t = lam^2(1-lam)(1-lam/2)^-4, psi = t^(-1/4) branch.

    psi = lam^(-1/2) (1-lam)^(-1/4) (1-lam/2) with principal powers,
    computed as (1-lam/2) / (sqrt(lam) sqrt(sqrt(1-lam))): Im(Log(z)/2) lies
    in (-pi/2, pi/2], so sqrt(sqrt(z)) is exactly the principal z^(1/4) for
    every lam other than 0 and 1, and no complex log is taken.
    t*psi^4 = 1 identically.  lam = 2 is the pole of t and the zero of psi
    and is returned tagged as (inf, 0) rather than raising.
    """
    with working_precision(digits):
        lam = as_mpc(lam)
        if lam == 2:
            return QuadMapResult(mp.inf, mpc(0))
        if lam == 0:
            return QuadMapResult(mpc(0), mp.inf)
        one = mpf(1)
        t = lam ** 2 * (one - lam) / (one - lam / 2) ** 4
        psi = (one - lam / 2) / (mp.sqrt(lam) * mp.sqrt(mp.sqrt(one - lam)))
        return QuadMapResult(t, psi)


# P -> (b, c, [H_4n, H_n, H2_4n, H2_n] at the last n) for _harmonic_terms
_HARMONIC = {}


def _harmonic_terms(prec: int, nterms: int):
    """(b, c): at least nterms of the brackets b_n = H_4n - H_n and
    c_n = b_n^2 - H2_4n + H2_n/4 of dwork_periods, as ints scaled by
    2^prec.  They do not depend on psi, so one table per prec serves every
    call; it is extended in place, each 1/j and 1/j^2 floored once, and
    never rebuilt."""
    b, c, sums = _HARMONIC.setdefault(prec, ([], [], [0, 0, 0, 0]))
    if len(b) < nterms:
        one = 1 << prec
        h4, h1, h4_2, h1_2 = sums  # H_4n, H_n, H2_4n, H2_n
        for n in range(len(b), nterms):
            if n:
                for j in range(4 * n - 3, 4 * n + 1):
                    h4 += one // j
                    h4_2 += one // (j * j)
                h1 += one // n
                h1_2 += one // (n * n)
            bn = h4 - h1
            b.append(bn)
            c.append(((bn * bn) >> prec) - h4_2 + (h1_2 >> 2))
        sums[:] = h4, h1, h4_2, h1_2
    return b, c


def dwork_periods(psi, digits: int = DEFAULT_DIGITS) -> DworkPeriods:
    """W0, W1, W2 from their series near psi = infinity; tau = W1/W0.

    Polygamma brackets enter as harmonic sums: Psi(4n+1)-Psi(n+1) = H_4n-H_n
    and Psi'(4n+1) - Psi'(n+1)/4 = pi^2/8 - H2_4n + H2_n/4.  Convergence is
    governed by |t| = |psi|^-4; we require |t| <= 1/1.2.

    The `_series_terms` + 10 terms are summed on fixed-point Python
    integers scaled by 2^P, P = mp.prec + GUARD_BITS: the terms
    T_n = a_n u^n, u = t/256 = (4 psi)^-4, as (re, im) int pairs advanced by
    T_(n+1) = T_n u (4n+1)(4n+2)(4n+3)(4n+4)/(n+1)^4, times the brackets
    b_n = H_4n - H_n and c_n = b_n^2 - H2_4n + H2_n/4 as real ints, and
    pi^2/8 as one fixed-point constant times sum T_n.  The brackets come
    from the table of _harmonic_terms, shared by every psi at this P and
    extended in place when a call needs more terms, so a run's calls at
    one precision floor each 1/j and 1/j^2 once.  mpmath converts u in and
    applies the log(4 psi) combination.
    """
    with working_precision(digits):
        psi = as_mpc(psi)
        t = psi ** -4
        at = abs(t)
        if at > 1 / mpf("1.2"):
            raise PrecisionError("dwork series requires |psi^4| >= 1.2")
        u = t / 256
        log4psi = mp.log(4 * psi)
        nterms = _series_terms(exact_point(at)[0] ** 2, digits) + 10
        prec = mp.prec + GUARD_BITS
        one = 1 << prec
        with mp.workprec(prec):
            pi2_8 = _to_fixed(mp.pi ** 2 / 8, prec)
        ure, uim = _to_fixed(u.real, prec), _to_fixed(u.imag, prec)
        tre, tim = one, 0
        w0re = w0im = s1re = s1im = s2re = s2im = 0
        for n, b, c in zip(range(nterms), *_harmonic_terms(prec, nterms)):
            w0re += tre
            w0im += tim
            s1re += (tre * b) >> prec
            s1im += (tim * b) >> prec
            s2re += (tre * c) >> prec
            s2im += (tim * c) >> prec
            f = (4 * n + 1) * (4 * n + 2) * (4 * n + 3) * (4 * n + 4)
            g = (n + 1) ** 4
            tre, tim = (((ure * tre - uim * tim) >> prec) * f // g,
                        ((ure * tim + uim * tre) >> prec) * f // g)
        s2re += (pi2_8 * w0re) >> prec
        s2im += (pi2_8 * w0im) >> prec
        w0 = _from_fixed(w0re, w0im, prec)
        s1 = _from_fixed(s1re, s1im, prec)
        s2 = _from_fixed(s2re, s2im, prec)
        twopii = 2 * mp.pi * mp.mpc(0, 1)
        w1 = (-4 * w0 * log4psi + 4 * s1) / twopii
        w2 = (16 * w0 * log4psi ** 2 - 32 * s1 * log4psi + 16 * s2) / twopii ** 2
        return DworkPeriods(psi, t, w0, w1, w2, w1 / w0)


def w_series_t(order: int):
    """Exact t-series data for the quartic-family periods.

    Returns (W0, S, T) where, with L = log t and a_n = (4n)!/(n!)^4/256^n:
    W0 = sum a_n t^n, S = sum a_n (H_4n - H_n) t^n, and
    T = sum a_n ((H_4n-H_n)^2 - H2_4n + H2_n/4) t^n, H2 the sums of 1/k^2.
    The actual periods are constant-coefficient combinations of W0,
    W0*L + 4S and W0*L^2 + 8*S*L + 16*T.  W0, 4S and 8T are the eps^0, eps^1
    and eps^2 series of the Frobenius series of (1/4, 1/2, 3/4).
    T*W0 = S^2 exactly, which makes W0*W2 - W1^2 = -W0^2/2.
    """
    w0, s, t = frobenius_series((Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)), order, 3)
    return w0, s * Fraction(1, 4), t * Fraction(1, 8)


# ---------------------------------------------------------------------------
# Mirror map == period map
# ---------------------------------------------------------------------------

# 20 points with |lam| <= 0.3 on the small-lambda branch, kept off the
# negative real axis where the principal fractional powers have their cut.
# Stored as exact rational pairs so they realize at any working precision.
MIRROR_GRID = [(Fraction(re), Fraction(im)) for re, im in [
    ("0.05", "0"), ("0.15", "0"), ("0.25", "0"), ("0.3", "0"),
    ("0.2", "0.1"), ("0.1", "0.2"), ("0", "0.25"), ("-0.1", "0.2"), ("-0.2", "0.1"),
    ("0.2", "-0.1"), ("0.1", "-0.2"), ("0", "-0.25"), ("-0.1", "-0.2"), ("-0.2", "-0.1"),
    ("0.15", "0.15"), ("-0.15", "0.15"), ("0.15", "-0.15"), ("-0.15", "-0.15"),
    ("0.05", "0.28"), ("0.05", "-0.28"),
]]


def mirror_map_residuals(digits: int = DEFAULT_DIGITS, points=None):
    """(lam, |W1/W0 - varpi1/varpi0|) for lam in `points` (MIRROR_GRID by
    default), the two sides computed independently."""
    out = []
    for lam in MIRROR_GRID if points is None else points:
        dw = dwork_periods(quad_map(lam, digits).psi, digits)
        jet = legendre_jet(lam, digits)
        with working_precision(digits):
            out.append((lam, abs(dw.tau - jet.varpi1 / jet.varpi0)))
    return out


# ---------------------------------------------------------------------------
# Identity registry
# ---------------------------------------------------------------------------


class _EntryFields(NamedTuple):
    identity: str
    passed: bool
    informational: bool = False
    where: Optional[str] = None
    residual: Optional[str] = None
    tolerance: Optional[str] = None
    exact: Optional[bool] = None
    data: Optional[dict] = None


class Entry(_EntryFields):
    """One report entry: the record every check of the package returns.

    `identity` is printed as "name".  An informational entry records data
    without asserting anything.  `residual` and `tolerance` are decimal
    strings (exact checks use "0" and demand literal zero), `where` says
    where the check ran and `exact` whether it ran over Q; the fields left
    None are not printed.  `data` holds the rest, printed after them; an
    entry built without it gets a dict of its own.
    """
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        entry = super().__new__(cls, *args, **kwargs)
        return entry if entry.data is not None else entry._replace(data={})

    def to_dict(self) -> dict:
        d = {"name": self.identity, "passed": self.passed, "informational": self.informational}
        for key in ("where", "residual", "tolerance", "exact"):
            if getattr(self, key) is not None:
                d[key] = getattr(self, key)
        d.update(self.data)
        return d


def judged(identity: str, residual, tolerance, **fields) -> Entry:
    """The one numeric pass rule, residual <= tolerance, as an Entry with
    the residual printed to 6 significant digits and the tolerance to 3."""
    return Entry(identity, bool(residual <= tolerance), residual=mp.nstr(residual, 6),
                 tolerance=mp.nstr(tolerance, 3), **fields)


def _exact_report(name: str, order: int, *residuals: RationalSeries) -> Entry:
    worst = Fraction(0)
    for r in residuals:
        if r.order <= order:
            raise SeriesError(
                f"{name}: residual provable only to order {r.order}, need {order}")
        worst = max(worst, r.truncate(order + 1).max_abs_coefficient())
    passed = worst == 0
    return Entry(name, passed, where=f"series order {order}",
                 residual="0" if passed else str(worst), tolerance="0", exact=True)


def _z_pieces(n: int):
    z = RationalSeries.identity(n)
    one = RationalSeries.one(n)
    return z, one


def _qt1_residual(n: int):
    z, one = _z_pieces(n)
    lhs = hyp2f1_series(Fraction(1, 2), Fraction(1, 2), n)
    w = (z ** 2) * RationalSeries([-4, 4], 0, n).reciprocal()  # z^2/(4z-4)
    rhs = (one - z).pow_rational(Fraction(-1, 4)) * \
        hyp2f1_series(Fraction(1, 4), Fraction(1, 4), n).compose(w)
    return (lhs - rhs,)


def _qt2_residual(n: int):
    z, one = _z_pieces(n)
    w = z * RationalSeries([Fraction(-1, 4)], 0, n) * ((one - z) ** 2).reciprocal() * 16
    # w = -4z/(1-z)^2
    rhs = (one - z).pow_rational(Fraction(-1, 4)) * \
        hyp2f1_series(Fraction(1, 8), Fraction(3, 8), n).compose(w)
    return (hyp2f1_series(Fraction(1, 4), Fraction(1, 4), n) - rhs,)


def quad_transform_series(n: int) -> RationalSeries:
    """t(z) = z^2 (1-z) (1-z/2)^(-4) as an exact series (= -16(z-1)z^2/(z-2)^4)."""
    z, one = _z_pieces(n)
    half = RationalSeries([Fraction(1), Fraction(-1, 2)], 0, n)
    return z ** 2 * (one - z) * (half ** 4).reciprocal()


def _qt3_residual(n: int, exponent: Fraction = Fraction(-1, 2)):
    half = RationalSeries([Fraction(1), Fraction(-1, 2)], 0, n)
    lhs = hyp2f1_series(Fraction(1, 2), Fraction(1, 2), n)
    rhs = half.pow_rational(exponent) * \
        hyp2f1_series(Fraction(1, 8), Fraction(3, 8), n).compose(
            quad_transform_series(n))
    return (lhs - rhs,)


def _mirror_exact_residuals(n: int):
    # mirror map = period map over Q[[lam]].  With t = t(lam), 2 pi i W1/W0 =
    # log(t/256) + 4 S/W0 and 2 pi i tau = log(lam^2/256) + 2 h/varpi0, so
    # equal periods leave log((1-lam)(1-lam/2)^-4) + 4 S/W0 = 2 h/varpi0;
    # the second residual is W0 = (1 - lam/2) varpi0^2 itself.
    w0, s, _ = w_series_t(n)
    t = quad_transform_series(n)
    w0_t = w0.compose(t)
    half = RationalSeries([Fraction(1), Fraction(-1, 2)], 0, n)
    varpi0, h = frobenius_series(LEGENDRE, n, 2)
    log_part = ((1 - RationalSeries.identity(n)) * (half ** 4).reciprocal()).log()
    r1 = log_part + s.compose(t) * w0_t.reciprocal() * 4 \
        - h * varpi0.reciprocal() * 2
    return r1, w0_t - half * varpi0 ** 2


def _theta_v_residual(n: int):
    return (varpi0_q_series(n) - theta3_qseries(n) ** 2,)


def _theta24_residuals(n: int):
    lam = lambda_q_series(n)
    w0sq = varpi0_q_series(n) ** 2
    one = RationalSeries.one(n)
    r2 = lam * w0sq - theta2_pow4_qseries(n)
    r4 = (one - lam) * w0sq - theta4_qseries(n) ** 4
    return r2, r4


def _dldtau_residual(n: int):
    # (1/pi i) d lambda/d tau = q d lambda/dq since q = exp(pi i tau)
    lam = lambda_q_series(n)
    one = RationalSeries.one(n)
    w0sq = varpi0_q_series(n) ** 2
    return (lam.theta_derivative() - lam * (one - lam) * w0sq,)


def _pi0_q(n: int) -> RationalSeries:
    """Pi0(lambda(q)) = (1 - lambda/2) varpi0(lambda(q))^2."""
    return (1 - lambda_q_series(n) * Fraction(1, 2)) * varpi0_q_series(n) ** 2


def _delta_lambda_residual(n: int):
    lam = lambda_q_series(n)
    one = RationalSeries.one(n)
    pi0 = _pi0_q(n)
    lam_minus_2 = lam - 2
    rhs = (lam ** 2) * (one - lam) ** 2 * (lam_minus_2 ** 6).reciprocal() \
        * pi0 ** 6 * Fraction(1, 4)
    return (delta_qseries(n) - rhs,)


def _bps_residual(n: int):
    # both sides as series in q; the counting function lives in Q = q^2
    nq = n // 2 + 2
    lhs = bps_series(nq).substitute_power(2)
    lam = lambda_q_series(n)
    one = RationalSeries.one(n)
    pi0 = _pi0_q(n)
    den = ((lam ** 2) * (one - lam) ** 2 * pi0 ** 6).normalize()
    rhs = (lam - 2) ** 6 * den.reciprocal() * 4
    return (lhs - rhs,)


def _label(point) -> str:
    """An exact point as "[re, im]", printed as a --path waypoint."""
    return "[{}, {}]".format(*waypoint_strings(point))


DELTA_THETA_POINTS = [(Fraction(0), Fraction(1)), (Fraction(1, 2), Fraction(3, 2))]


def _delta_theta_check(digits) -> Entry:
    worst = mpf(0)
    with working_precision(digits):
        for tau in map(as_mpc, DELTA_THETA_POINTS):
            q = half_nome(tau, digits)
            eta3 = eta_value(tau, digits) ** 3
            lhs = ((eta3 * eta3) ** 2) ** 2  # eta^24 without mpc_pow_int's exp(24 log)
            rhs = mpf(2) ** -8 * (theta_const(2, q, digits) * theta_const(3, q, digits)
                                  * theta_const(4, q, digits)) ** 8
            worst = max(worst, abs(lhs - rhs))
        tol = mpf(10) ** -(digits - 20)
    where = "tau in {" + ", ".join(map(_label, DELTA_THETA_POINTS)) + "}"
    return judged("DELTA-THETA", worst, tol, where=where, exact=False)


W_PI_GRID = [(Fraction("0.05"), Fraction(0)), (Fraction(0), Fraction("0.1")),
             (Fraction("0.2"), Fraction("-0.1"))]
W_PI_WHERE = "lambda in {" + ", ".join(map(_label, W_PI_GRID)) + "}"


def _w_pi_check(digits) -> Entry:
    # W0 = Pi0, W1 = Pi1 and W2 = Pi2 - Pi0/2, Pi_i = (1 - lam/2) varpi0^(2-i)
    # varpi1^i: W0*W2 - W1^2 = -W0^2/2 (see w_series_t) and Pi0*Pi2 = Pi1^2.
    worst = mpf(0)
    with working_precision(digits):
        for lam in W_PI_GRID:
            dw = dwork_periods(quad_map(lam, digits).psi, digits)
            jet = legendre_jet(lam, digits)
            fac = 1 - as_mpc(lam) / 2
            pi0, pi1, pi2 = (fac * jet.varpi0 ** (2 - i) * jet.varpi1 ** i for i in range(3))
            worst = max(worst, abs(dw.w0 - pi0), abs(dw.w1 - pi1), abs(dw.w2 - pi2 + pi0 / 2))
        tol = mpf(10) ** -(digits - 15)
    return judged("W-PI", worst, tol, where=W_PI_WHERE, exact=False)


def _selftest_fail_residual(n: int):
    # deliberately corrupted QT3 (wrong prefactor exponent); exists so the
    # CLI exit-code contract can be exercised end to end
    return _qt3_residual(n, Fraction(-1, 4))


# id -> (check, default order, whether `identities --order` sets the order),
# in report order.  An exact id's check maps a padded order to the residual
# series that must vanish; a numeric id (default order None) maps the
# working digits straight to an Entry.
IDENTITIES = {
    "QT1": (_qt1_residual, 40, True),
    "QT2": (_qt2_residual, 40, True),
    "QT3": (_qt3_residual, 40, True),
    "MIRROR-EXACT": (_mirror_exact_residuals, 40, True),
    "THETA-V": (_theta_v_residual, 30, False),
    "THETA-24": (_theta24_residuals, 30, False),
    "DLDTAU": (_dldtau_residual, 30, False),
    "DELTA-THETA": (_delta_theta_check, None, False),
    "DELTA-LAMBDA": (_delta_lambda_residual, 30, False),
    "BPS": (_bps_residual, 16, False),
    "W-PI": (_w_pi_check, None, False),
    "SELFTEST-FAIL": (_selftest_fail_residual, 12, True),  # not in a full run
}


def _registered(identity: str) -> tuple:
    try:
        return IDENTITIES[identity]
    except KeyError:
        raise KeyError(f"unknown identity id: {identity!r}") from None


def identity_ids() -> list[str]:
    """The ids a full run checks, in report order."""
    return [name for name in IDENTITIES if name != "SELFTEST-FAIL"]


def identity_order(identity: str, run_order: int) -> Optional[int]:
    """The order check_identity gets in a run at `run_order`: that order for
    the ids registered to follow it, None (the id's own default) otherwise."""
    _, _, follows = _registered(identity)
    return run_order if follows else None


def check_identity(identity: str, order=None, digits: int = DEFAULT_DIGITS) -> Entry:
    """Run one registered identity check and report the residual as an Entry.

    Exact rational-series identities take an integer truncation order (None
    for the id's own) and report literal zero residuals; numeric identities
    ignore `order` and report the max absolute residual on their fixed
    points against the identity's tolerance at the working precision.
    """
    check, default_order, _ = _registered(identity)
    if default_order is None:
        return check(digits)
    order = default_order if order is None else int(order)
    if order < 1:
        raise SeriesError("identity order must be >= 1")
    return _exact_report(identity, order, *check(order + _PAD))
