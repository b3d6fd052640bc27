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

The mirror-map kernels (quad_map, legendre_jet, dwork_periods) run end to
end on fixed-point Python integers carrying hyperfun.GUARD_BITS (80) bits
beyond the working precision, with hyperfun's fixed-point complex
product, quotient and isqrt square root, at the exact point of lambda
(hyperfun.exact_point), a Gaussian integer over one int.  legendre_jet
takes the AGM forms varpi0 = 1/M(1, sqrt(1-lam)), varpi1 = i/M(1, sqrt(lam))
(hyperfun._agm) and its derivatives from Legendre's E/K relation, with
no series and no log.  quad_map returns the exact t(lambda) beside psi,
and dwork_periods sums its series on it in the style of mpmath's hypsum,
so u = t/256 is a Gaussian integer over one int; it takes its harmonic
brackets, which do not depend on psi, from one table per fixed-point
scale that every call shares (_harmonic_terms), and mpmath takes its one
complex log, log(4 psi).  mpmath converts each returned value out.
|lambda| <= 0.9 and |t| <= 1/1.2 and the Dwork term count are decided on
the exact |lambda|^2 and |t|^2.
"""

from __future__ import annotations

from fractions import Fraction
from functools import wraps
from typing import NamedTuple, Optional

from mpmath import mp, mpc, mpf

from . import hyperfun
from .hyperfun import (DEFAULT_DIGITS, GUARD_BITS, PrecisionError, _agm, _fdiv, _fmul, _from_fixed,
                       _fsqrt, _gaussian, _gmul, _to_fixed, as_mpc, decay_terms, eta_value,
                       exact_point, frobenius_series, half_nome, hyp2f1_series, theta_const,
                       waypoint_strings, working_precision)
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
    (hyperfun.decay_terms), plus 10, and at least 12.  dwork_periods sums
    this many terms plus 10, with x = t."""
    if abs2 == 0:
        return 2
    return max(decay_terms(abs2, digits + hyperfun.GUARD_DIGITS + 5) + 10, 12)


def _over_pi_i(x, pi: int, shift: int) -> tuple:
    """x / (pi i) for x scaled by 2^shift, pi the fixed-point pi at that
    scale: (Im x, -Re x) / pi, floored."""
    return (x[1] << shift) // pi, (-x[0] << shift) // pi


def legendre_jet(lam, digits: int = DEFAULT_DIGITS) -> LegendreJet:
    """(varpi0, varpi0', varpi1, varpi1') at lam, for seeding continuation.

    Gauss's arithmetic-geometric means (Borwein & Borwein, Pi and the AGM,
    1987), with principal roots:

        varpi0 = 1 / M(1, sqrt(1 - lam)),    varpi1 = i / M(1, sqrt(lam)),

    the periods 2K/pi and 2iK'/pi of the modulus k^2 = lam.  Legendre's
    relation gives E/K = 1 - lam/2 - S0 and E'/K' = 1 - (1 - lam)/2 - S1,
    with S0, S1 the sums of hyperfun._agm, and dK/dm = (E - (1-m) K) /
    (2 m (1-m)) gives the derivatives

        varpi0' = varpi0 (lam/2 - S0) / (2 lam (1 - lam)),
        varpi1' = -varpi1 ((1 - lam)/2 - S1) / (2 lam (1 - lam)).

    Both AGMs run on Python integers: every value is an (re, im) int pair
    scaled by 2^P, P = mp.prec + GUARD_BITS + ceil(log2(1/|lam|)) + 2,
    the last bits covering the division by lam, which multiplies the
    fixed-point error of lam/2 - S0 by 1/|lam| (and the small first roots
    of M(1, sqrt(lam)), which cost log2(1/|lam|)/4 bits).  Each AGM stops
    within a few units, in 7 or 8 steps at 120 digits on the mirror grid,
    so the jet has no truncation tail.  lam enters as its exact point
    (hyperfun.exact_point), a Gaussian integer L over its denominator d:
    the roots are sqrt((d - L) d)/d and sqrt(L d)/d, and 2 lam (1 - lam)
    is the exact 2 L (d - L)/d^2.  mpmath only converts the four values
    out.  |lam| <= 0.9 and the extra bits are decided on the exact |lam|^2.
    """
    re, im = exact_point(lam)
    abs2 = re ** 2 + im ** 2
    if abs2 == 0:
        raise PrecisionError("legendre periods are singular at lambda = 0")
    if abs2 > Fraction(81, 100):
        raise PrecisionError("|lambda| > 0.9: evaluate via pfode continuation")
    with working_precision(digits):
        inv = 0  # ceil(log2(1/|lam|)): the least inv with 4^inv |lam|^2 >= 1
        while abs2.numerator << 2 * inv < abs2.denominator:
            inv += 1
        prec = mp.prec + GUARD_BITS + inv + 2
        lre, lim, d = _gaussian((re, im))
        den = _gmul((2 * lre, 2 * lim), (d - lre, -lim))  # 2 lam (1 - lam) d^2
        jet = []
        # x = 1 - lam for varpi0 and x = lam for varpi1, each x = X/d
        for (xre, xim), unit, sign in (((d - lre, -lim), (1 << prec, 0), 1),
                                       ((lre, lim), (0, 1 << prec), -1)):
            root = _fsqrt((xre * d << 2 * prec, xim * d << 2 * prec))
            m, s = _agm(tuple(v // d for v in root), prec)
            w = _fdiv(unit, m, prec)
            # (1 - x)/2 - S, 1 - x = (d - X)/d
            y = _fmul(w, (((d - xre) << prec) // (2 * d) - s[0], (-xim << prec) // (2 * d) - s[1]),
                      prec)
            jet += [w, _fdiv((sign * y[0] * d * d, sign * y[1] * d * d), den, 0)]
        return LegendreJet(*(_from_fixed(*x, prec) for x in jet))


def quad_map(lam, digits: int = DEFAULT_DIGITS) -> QuadMapResult:
    """(t, psi) from lam: t = lam^2(1-lam)(1-lam/2)^-4, psi = t^(-1/4) branch.

    t is exact, a Fraction pair: with lam = L/d, L a Gaussian integer and
    d > 0, t = 16 d L^2 (d - L) / (2d - L)^4.  psi = lam^(-1/2)
    (1-lam)^(-1/4) (1-lam/2) with principal powers is
    d (2d - L) / (2 sqrt(L d) sqrt(sqrt((d - L) d^3))), computed on ints
    scaled by 2^P, P = mp.prec + GUARD_BITS (hyperfun._fsqrt, _fmul,
    _fdiv) and converted out once: a factor d > 0 leaves an argument's Arg
    unchanged, and Im(Log(z)/2) lies in (-pi/2, pi/2], so sqrt(sqrt(z)) is
    exactly the principal z^(1/4) for every lam other than 0 and 1.  No
    mpmath complex function is called.  t psi^4 = 1 identically.  lam = 2
    is the pole of t and the zero of psi and is returned tagged as
    (inf, 0) rather than raising; lam = 0 gives (exact 0, inf).
    """
    a, b, d = _gaussian(exact_point(lam))
    if (a, b) == (2 * d, 0):
        return QuadMapResult(mp.inf, mpc(0))
    if (a, b) == (0, 0):
        return QuadMapResult((Fraction(0), Fraction(0)), mp.inf)
    num = _gmul((16 * d * (a * a - b * b), 32 * d * a * b), (d - a, -b))
    den = (2 * d - a, -b)
    den = _gmul(den, den)
    den = _gmul(den, den)
    den2 = den[0] ** 2 + den[1] ** 2  # t = num conj(den) / |den|^2
    t = (Fraction(num[0] * den[0] + num[1] * den[1], den2),
         Fraction(num[1] * den[0] - num[0] * den[1], den2))
    with working_precision(digits):
        prec = mp.prec + GUARD_BITS
        root = _fsqrt((a * d << 2 * prec, b * d << 2 * prec))
        quart = _fsqrt(_fsqrt(((d - a) * d ** 3 << 4 * prec, -b * d ** 3 << 4 * prec)))
        psi = _fdiv((d * (2 * d - a) << (prec - 1), -d * b << (prec - 1)),
                    _fmul(root, quart, prec), prec)
        return QuadMapResult(t, _from_fixed(*psi, prec))


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


def dwork_periods(t, psi, digits: int = DEFAULT_DIGITS) -> DworkPeriods:
    """W0, W1, W2 from their series near psi = infinity; tau = W1/W0.

    t = psi^-4 is given as its exact point (the exact t of quad_map), and
    psi, which picks the branch of t^(-1/4), serves only log(4 psi).
    Polygamma brackets enter as harmonic sums: Psi(4n+1)-Psi(n+1) = H_4n-H_n
    and Psi'(4n+1) - Psi'(n+1)/4 = pi^2/8 - H2_4n + H2_n/4.  Convergence is
    governed by |t|; we require |t| <= 1/1.2, decided on the exact |t|^2,
    which also sets the term count.

    The `_series_terms` + 10 terms are summed on fixed-point Python
    integers scaled by 2^P, P = mp.prec + GUARD_BITS: the terms
    T_n = a_n u^n, u = t/256 = (4 psi)^-4, as (re, im) int pairs advanced by
    T_(n+1) = T_n u (4n+1)(4n+2)(4n+3)(4n+4)/(n+1)^4, with u the Gaussian
    integer numerator of t over 256 times its denominator, so a term costs
    short-by-P products and one floor per part; times the brackets
    b_n = H_4n - H_n and c_n = b_n^2 - H2_4n + H2_n/4 as real ints, and
    pi^2/8 as one fixed-point constant times sum T_n.  The brackets come
    from the table of _harmonic_terms, shared by every psi at this P and
    extended in place when a call needs more terms, so a run's calls at
    one precision floor each 1/j and 1/j^2 once.  With l = log(4 psi),
    W1 = 2 (S1 - W0 l) / (pi i) and W2 = 4 (l (W0 l - 2 S1) + S2) / (pi i)^2
    run on the same ints; mpmath takes only the log and converts each
    returned field out.
    """
    point = exact_point(t)
    ure, uim, tden = _gaussian(point)
    abs2 = Fraction(ure * ure + uim * uim, tden * tden)
    if abs2 > Fraction(25, 36):
        raise PrecisionError("dwork series requires |psi^4| >= 1.2")
    with working_precision(digits):
        psi = as_mpc(psi)
        nterms = _series_terms(abs2, digits) + 10
        prec = mp.prec + GUARD_BITS
        udiv = 256 * tden
        tre, tim = 1 << prec, 0
        w0re = w0im = s1re = s1im = s2re = s2im = 0
        for n, b, c in zip(range(nterms), *_harmonic_terms(prec, nterms)):
            w0re += tre
            w0im += tim
            s1re += (tre * b) >> prec
            s1im += (tim * b) >> prec
            s2re += (tre * c) >> prec
            s2im += (tim * c) >> prec
            f = (4 * n + 1) * (4 * n + 2) * (4 * n + 3) * (4 * n + 4)
            g = udiv * (n + 1) ** 4
            tre, tim = (ure * tre - uim * tim) * f // g, (ure * tim + uim * tre) * f // g
        lg = mp.log(mpc(4 * psi.real, 4 * psi.imag))  # at the working precision
        lg = _to_fixed(lg.real, prec), _to_fixed(lg.imag, prec)
        with mp.workprec(prec):
            pi = _to_fixed(+mp.pi, prec)
        pi2_8 = (pi * pi) >> (prec + 3)
        w0 = w0re, w0im
        s2re += (pi2_8 * w0re) >> prec
        s2im += (pi2_8 * w0im) >> prec
        xre, xim = _fmul(w0, lg, prec)
        w1 = _over_pi_i((2 * (s1re - xre), 2 * (s1im - xim)), pi, prec)
        yre, yim = _fmul(lg, (xre - 2 * s1re, xim - 2 * s1im), prec)
        w2 = _over_pi_i(_over_pi_i((4 * (yre + s2re), 4 * (yim + s2im)), pi, prec), pi, prec)
        tau = _fdiv(w1, w0, prec)
        return DworkPeriods(psi, as_mpc(point), *(_from_fixed(*x, prec) for x in (w0, w1, w2, tau)))


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
        dw = dwork_periods(*quad_map(lam, digits), digits)
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
            dw = dwork_periods(*quad_map(lam, digits), digits)
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
