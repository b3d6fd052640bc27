"""Shared oracles for the test suite: deliberately independent, low-tech
implementations used to cross-check the package's own routines."""

from fractions import Fraction
from math import comb, isqrt, lcm
from operator import mul

from mpmath import mp, mpc, mpf

from mirrorperiods.arith import BadReductionError
from mirrorperiods.hyperfun import (DEFAULT_DIGITS, GUARD_BITS, GUARD_DIGITS, PrecisionError,
                                   _from_fixed, _linear_product, _to_fixed, as_mpc, eta_value,
                                   exact_point, working_precision)
from mirrorperiods.periods import DworkPeriods, LegendreJet, varpi0_series
from mirrorperiods.pfode import STEP_BITS, STEP_FACTOR, PathError
from mirrorperiods.qseries import RationalSeries, SeriesError


def round_decimals(x, k: int) -> str:
    """x rounded to k decimals, as a plain decimal string (for comparing
    against printed reference values)."""
    with mp.workdps(mp.dps + 10):
        n = int(mp.nint(mpf(x) * mpf(10) ** k))
    s = str(abs(n)).rjust(k + 1, "0")
    return ("-" if n < 0 else "") + s[:-k] + "." + s[-k:]


def agm(a, b, digits: int = 60):
    """Arithmetic-geometric mean by the textbook iteration."""
    with mp.workdps(digits + 10):
        a, b = mpf(a), mpf(b)
        for _ in range(digits + 20):
            a, b = (a + b) / 2, mp.sqrt(a * b)
            if abs(a - b) < mpf(10) ** (-digits - 5):
                return (a + b) / 2
    raise RuntimeError("agm did not converge")


def poly_mul_trunc(a: list, b: list, n: int) -> list:
    out = [Fraction(0)] * n
    for i, ai in enumerate(a[:n]):
        if ai:
            for j, bj in enumerate(b[: n - i]):
                if bj:
                    out[i + j] += ai * bj
    return out


def brute_euler_power(e: int, nmax: int, order: int) -> list:
    """prod_{n<=nmax} (1-x^n)^e by literal repeated convolution."""
    out = [Fraction(1)] + [Fraction(0)] * (order - 1)
    for n in range(1, nmax + 1):
        factor = [Fraction(0)] * order
        factor[0] = Fraction(1)
        if n < order:
            factor[n] = Fraction(-1)
        for _ in range(e):
            out = poly_mul_trunc(out, factor, order)
    return out


def long_division_reciprocal(a: list, order: int) -> list:
    """1/a(x) by schoolbook long division (a[0] must be nonzero)."""
    out = [Fraction(1) / a[0]]
    for k in range(1, order):
        s = Fraction(0)
        for j in range(1, k + 1):
            if j < len(a):
                s += a[j] * out[k - j]
        out.append(-s / a[0])
    return out


# ---------------------------------------------------------------------------
# schoolbook Fraction references for the RationalSeries kernels
#
# Each takes RationalSeries operands, reads only .coeffs/.offset/.order, and
# returns (coefficients, offset, order), or raises SeriesError where the
# kernel must refuse.  Every step is a plain Fraction operation.
# ---------------------------------------------------------------------------


def is_provably_zero(s: RationalSeries) -> bool:
    """Every known coefficient of the exact series s is a literal 0."""
    return s.valuation() == s.order


def _valuation(coeffs: list) -> int:
    return next((k for k, c in enumerate(coeffs) if c), len(coeffs))


def _absolute_frame(s) -> list:
    """Coefficients indexed by absolute exponent; integer offset >= 0 only."""
    if s.offset.denominator != 1 or s.offset < 0:
        raise SeriesError("integer exponents >= 0 required")
    return [Fraction(0)] * int(s.offset) + list(s.coeffs)


def reference_mul(a, b):
    order = min(a.order + _valuation(list(b.coeffs)), b.order + _valuation(list(a.coeffs)))
    if order < 1:
        raise SeriesError("product truncation order fell below 1")
    return poly_mul_trunc(list(a.coeffs), list(b.coeffs), order), a.offset + b.offset, order


def reference_reciprocal(a):
    if a.order < 1 or a.coeffs[0] == 0:
        raise SeriesError("reciprocal of a series with zero leading coefficient")
    return long_division_reciprocal(list(a.coeffs), a.order), -a.offset, a.order


def reference_pow(a, n: int):
    """a**n as one(a.order) times a, n times (reciprocal first for n < 0)."""
    if n < 0:
        coeffs, offset, order = reference_reciprocal(a)
        a = RationalSeries(coeffs, offset, order)
        n = -n
    result = RationalSeries.one(a.order)
    for _ in range(n):
        result = RationalSeries(*reference_mul(result, a))
    return list(result.coeffs), result.offset, result.order


def reference_compose(f, g):
    """sum_i f_i g^i with the powers g^i built by repeated multiplication.

    f known below x^nf leaves an error O(g^nf) = O(x^(vg*nf)); g known below
    x^ng leaves O(x^ng); the result is known below the smaller of the two.
    """
    fc, gc = _absolute_frame(f), _absolute_frame(g)
    vg = _valuation(gc)
    if vg == 0:
        raise SeriesError("composition requires inner constant term 0")
    order = min(vg * len(fc), len(gc))
    if order < 1:
        raise SeriesError("composition truncation order fell below 1")
    out = [Fraction(0)] * order
    power = [Fraction(1)] + [Fraction(0)] * (order - 1)
    for fi in fc:
        out = [o + fi * p for o, p in zip(out, power)]
        power = poly_mul_trunc(power, gc, order)
    return out, Fraction(0), order


def reference_revert(a):
    """Fixed-point iteration b <- (x - sum_{j>=2} a_j b^j) / a_1; pass m
    makes b_1 .. b_m exact, so len(frame) passes settle every coefficient."""
    ac = _absolute_frame(a)
    n = len(ac)
    if n < 2 or ac[0] != 0 or ac[1] == 0:
        raise SeriesError("reversion requires a_0 = 0 and a_1 != 0")
    b = [Fraction(0)] * n
    for _ in range(n):
        rest = [Fraction(0)] * n
        power = b
        for j in range(2, n):
            power = poly_mul_trunc(power, b, n)
            rest = [r + ac[j] * p for r, p in zip(rest, power)]
        b = [((1 if k == 1 else 0) - rest[k]) / ac[1] for k in range(n)]
    return b, Fraction(0), n


def reference_exp(a):
    """k E_k = sum_(1<=j<=k) j a_j E_(k-j), every step a Fraction operation."""
    ac = _absolute_frame(a)
    n = len(ac)
    if n < 1 or ac[0] != 0:
        raise SeriesError("exp requires a zero constant term")
    out = [Fraction(1)] + [Fraction(0)] * (n - 1)
    for k in range(1, n):
        s = Fraction(0)
        for j in range(1, k + 1):
            if ac[j]:
                s += j * ac[j] * out[k - j]
        out[k] = s / k
    return out, Fraction(0), n


def reference_log(a):
    """L_k = a_k - (1/k) sum_(1<=j<k) j L_j a_(k-j), every step a Fraction operation."""
    ac = _absolute_frame(a)
    n = len(ac)
    if n < 1 or ac[0] != 1:
        raise SeriesError("log requires constant term 1")
    out = [Fraction(0)] * n
    for k in range(1, n):
        s = Fraction(0)
        for j in range(1, k):
            if out[j] and ac[k - j]:
                s += j * out[j] * ac[k - j]
        out[k] = ac[k] - s / k
    return out, Fraction(0), n


def reference_frobenius_series(upper, order: int, mu: int = 1) -> tuple:
    """hyperfun.frobenius_series with c_n(eps) as mu Fractions: each step
    multiplies by the ratio's numerator polynomial and divides by its
    denominator polynomial below eps^mu, one Fraction division per
    eps-coefficient and term.  One (coefficients, offset, order) per k < mu."""
    dp = [(Fraction(a).denominator, Fraction(a).numerator) for a in upper]
    c = [Fraction(1)] + [Fraction(0)] * (mu - 1)
    rows = []
    for n in range(order):
        rows.append(c)
        num = _linear_product([(d * n + p, d) for d, p in dp], mu)
        den = _linear_product([(d * n + d, d) for d, _ in dp], mu)
        new = []
        for k in range(mu):
            t = num[0] * c[k]
            for j in range(1, k + 1):
                t += num[j] * c[k - j] - den[j] * new[k - j]
            new.append(t / den[0])
        c = new
    return tuple(([row[k] for row in rows], Fraction(0), order) for k in range(mu))


# ---------------------------------------------------------------------------
# references for the fixed-point Taylor kernel
# ---------------------------------------------------------------------------


def reference_int_transport(recurrence, columns, h, nterms):
    """pfode._taylor_transport for an operator of any order r, fed by
    reference_recurrence's (groups, divisor): the scaled terms b_n obey
    (m+r)_r b_(m+r) = sum_s A_s(m) b_(m+s) with A_s(m) = sum_k q_(k,s) (m+s)_k
    formed per term from a table of falling factorials (i)_k, each new term
    floored by divisor (m+r)_r, and every derivative summed with its weights
    (n)_d, on P = mp.prec + GUARD_BITS + (r-1) log2(1/|h|) working bits.  The
    kernel must return equal columns and tail."""
    if not all(mp.isfinite(v) for col in columns for v in col):
        raise PathError("non-finite value in the frame")
    groups, divisor = recurrence
    r = len(columns[0])
    h = as_mpc(h)
    hpow = [mpc(1)]
    for _ in range(r):
        hpow.append(hpow[-1] * h)
    prec = mp.prec + GUARD_BITS + (r - 1) * max(0, -mp.mag(h))
    frame_mag = max((mp.mag(v) for col in columns for v in col if v), default=0)
    scale = prec - frame_mag
    fall = [[1] * (r + 1) for _ in range(nterms)]
    for i in range(nterms):
        row = fall[i]
        for k in range(1, r + 1):
            row[k] = row[k - 1] * (i - k + 1)
    cols = []
    for col in columns:
        bre, bim = [], []
        for k in range(r):
            b = col[k] * hpow[k] / mp.factorial(k)
            bre.append(_to_fixed(b.real, scale))
            bim.append(_to_fixed(b.imag, scale))
        cols.append((bre, bim))
    dense = []  # (s, [q_(k,s).re for k <= r], [q_(k,s).im for k <= r])
    for s, terms in groups.items():
        qre, qim = [0] * (r + 1), [0] * (r + 1)
        for k, re, im in terms:
            qre[k], qim[k] = re, im
        dense.append((s, qre, qim))
    for m in range(nterms - r):
        coefs = [(m + s, sum(map(mul, qre, fall[m + s])), sum(map(mul, qim, fall[m + s])))
                 for s, qre, qim in dense if m + s >= 0]
        div = divisor * fall[m + r][r]
        for bre, bim in cols:
            xre = xim = 0
            for i, are, aim in coefs:
                yre, yim = bre[i], bim[i]
                xre += are * yre - aim * yim
                xim += are * yim + aim * yre
            bre.append(xre // div)
            bim.append(xim // div)
    unit = frame_mag - prec
    weights = [[fall[n][d] for n in range(d, nterms)] for d in range(r)]
    out = []
    for bre, bim in cols:
        out.append(tuple(_from_fixed(sum(map(mul, bre[d:], weights[d])),
                                     sum(map(mul, bim[d:], weights[d])), -unit) / hpow[d]
                         for d in range(r)))
    worst = max(bre[n] ** 2 + bim[n] ** 2 for bre, bim in cols
                for n in range(max(nterms - 6, 0), nterms))
    return out, mp.ldexp(mp.sqrt(worst), unit)


def reference_taylor_transport(shifted, r, inits, h, nterms):
    """One Taylor step for one column, every operation in mpc: from r
    initial derivatives at the expansion point, return (values and
    derivatives at offset h, max |c_n| |h|^n over the last 6 terms)."""
    c = [inits[k] / mp.factorial(k) for k in range(r)]
    flat = []
    for k, pk in enumerate(shifted):
        for j, pkj in enumerate(pk):
            if pkj != 0 and not (k == r and j == 0):
                flat.append((k, j, pkj))
    lead = shifted[r][0]
    for m in range(nterms - r):
        acc = mpc(0)
        for k, j, pkj in flat:
            idx = m - j + k
            if 0 <= idx < m + r:
                ff = mpf(1)
                for d in range(k):
                    ff *= idx - d
                acc += pkj * ff * c[idx]
        ffr = mpf(1)
        for d in range(r):
            ffr *= m + r - d
        c.append(-acc / (lead * ffr))
    out = []
    for d in range(r):
        # sum_n c_n * n!/(n-d)! * h^(n-d) by Horner
        acc = mpc(0)
        for n in range(len(c) - 1, d - 1, -1):
            ff = mpf(1)
            for i in range(d):
                ff *= n - i
            acc = acc * h + c[n] * ff
        out.append(acc)
    ah = abs(h)
    tail = mpf(0)
    for n in range(max(len(c) - 6, 0), len(c)):
        tail = max(tail, abs(c[n]) * ah ** n)
    return out, tail


# ---------------------------------------------------------------------------
# mpmath and Fraction references for the exact step control
#
# pfode's steps, term counts and recurrence setup, and periods' term counts
# and Legendre jet loop, as they were before their decisions were made on
# exact rationals and Python ints.  The package must return equal steps,
# counts, recurrences and jets; sing is a list of mpc singular points.
# ---------------------------------------------------------------------------


def reference_series_terms(absx, digits: int) -> int:
    """periods._series_terms from mpmath logs of the mpf |x|."""
    if absx == 0:
        return 2
    n = int(mp.ceil((digits + GUARD_DIGITS + 5) * mp.log(10) / -mp.log(absx)))
    return max(n + 10, 12)


def binary_cut(x, bits: int) -> Fraction:
    """The exact binary value of the finite mpf x cut toward zero to its
    leading `bits` significant bits: the STEP_BITS cut of a step's reach,
    taken on an mpf reach as pfode did before its reach was exact."""
    sign, man, exp, bc = x._mpf_
    cut = max(0, bc - bits)
    v = Fraction(man >> cut) * Fraction(2) ** (exp + cut)
    return -v if sign else v


def reference_steps(waypoints, sing, digits: int):
    """pfode._steps measuring the reach in mpmath: the (z, h) it yields."""
    for a, w in zip(waypoints, waypoints[1:]):
        delta = (w[0] - a[0], w[1] - a[1])
        if delta == (0, 0):
            continue
        length = abs(as_mpc(delta))
        t = Fraction(0)
        while t < 1:
            z = (a[0] + t * delta[0], a[1] + t * delta[1])
            rest = 1 - t
            if sing:
                d = min(abs(as_mpc(z) - s) for s in sing)
                reach = d * mpf(STEP_FACTOR) / length
                if rest > exact_point(reach)[0]:
                    rest = binary_cut(reach, STEP_BITS)
            if as_mpc(rest).real * length < mpf(10) ** (-digits):
                raise PathError("step size underflow near a singular point")
            yield z, (rest * delta[0], rest * delta[1])
            t += rest


def reference_step_terms(z, h, sing, digits: int) -> int:
    """pfode._step_terms from mpmath logs of rho = |h| / distance."""
    rho = mpf(STEP_FACTOR)
    if sing:
        rho = min(rho, abs(as_mpc(h)) / min(abs(as_mpc(z) - s) for s in sing))
    return int(mp.ceil((digits + GUARD_DIGITS + 10) * mp.log(10) / -mp.log(rho))) + 16


def _gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def reference_shift_poly_exact(poly, z) -> list:
    """Coefficients of p(z0 + u) as (re, im) Fraction pairs."""
    c = [(Fraction(p), Fraction(0)) for p in poly]
    n = len(c)
    for i in range(n):
        for j in range(n - 2, i - 1, -1):
            zc = _gmul(z, c[j + 1])
            c[j] = (c[j][0] + zc[0], c[j][1] + zc[1])
    return c


def reference_recurrence(op, z, h):
    """The normalized recurrence coefficients (groups, divisor) of a Taylor
    step from z by h, as reference_int_transport takes them, in Fraction
    arithmetic for any operator op: a tuple of polynomial coefficients,
    op[k] those of D^k, low degree first.  groups[s] lists (k, re, im) with
    (re + i im) / divisor = -p_(k,k-s) h^(r-s) / p_(r,0), p_kj the Taylor
    coefficients of op[k] at z; the divisor is their least common
    denominator."""
    r = len(op) - 1
    shifted = [reference_shift_poly_exact(p, z) for p in op]
    lead = shifted[r][0]
    norm = lead[0] * lead[0] + lead[1] * lead[1]
    inv = (-lead[0] / norm, lead[1] / norm)  # -1/p_r0
    hpow = [(Fraction(1), Fraction(0))]
    for _ in range(max(len(p) for p in shifted) + r):
        hpow.append(_gmul(hpow[-1], h))
    coeffs = {}
    for k, pk in enumerate(shifted):
        for j, pkj in enumerate(pk):
            if any(pkj) and not (k == r and j == 0):
                coeffs[k, j] = _gmul(_gmul(pkj, hpow[j - k + r]), inv)
    divisor = lcm(*(c.denominator for q in coeffs.values() for c in q))
    groups = {}
    for (k, j), (qre, qim) in coeffs.items():
        groups.setdefault(k - j, []).append((k, int(qre * divisor), int(qim * divisor)))
    return groups, divisor


def reference_int_legendre_jet(lam, digits: int) -> LegendreJet:
    """periods.legendre_jet with its term count from mpmath logs and
    sum m x_m summed term by term: the same integer recurrences."""
    re, im = exact_point(lam)
    with working_precision(digits):
        lam = as_mpc(lam)
        n = reference_series_terms(abs(lam), digits)
        prec = mp.prec + GUARD_BITS
        ldiv = lcm(re.denominator, im.denominator)
        lre, lim = int(re * ldiv), int(im * ldiv)
        dre, dim = 1 << (prec - 2), 0  # c_1 = 1/4
        ere, eim = 1 << (prec - 1), 0  # h_1 = 1/2
        sdre = sdim = sddre = sddim = sere = seim = sdere = sdeim = 0
        for m in range(1, n):
            sdre += dre
            sdim += dim
            sddre += m * dre
            sddim += m * dim
            sere += ere
            seim += eim
            sdere += m * ere
            sdeim += m * eim
            k, m1 = 2 * m + 1, m + 1
            den = 4 * m1 * m1 * ldiv
            xre = lre * dre - lim * dim
            xim = lre * dim + lim * dre
            yre = lre * ere - lim * eim
            yim = lre * eim + lim * ere
            ere = (k * m1 * yre + 2 * xre) * k // (den * m1)
            eim = (k * m1 * yim + 2 * xim) * k // (den * m1)
            dre = xre * k * k // den
            dim = xim * k * k // den
        w0 = 1 + lam * _from_fixed(sdre, sdim, prec)
        dw0 = _from_fixed(sddre, sddim, prec)
        hval = lam * _from_fixed(sere, seim, prec)
        dh = _from_fixed(sdere, sdeim, prec)
        pii = mp.pi * mp.mpc(0, 1)
        lg = mp.log(lam) - mp.log(mpf(16))
        w1 = (w0 * lg + hval) / pii
        dw1 = (dw0 * lg + w0 / lam + dh) / pii
        return LegendreJet(w0, dw0, w1, dw1)


# ---------------------------------------------------------------------------
# mpmath references for the fixed-point period series
#
# The term-by-term mpf/mpc summations that periods.legendre_jet and
# periods.dwork_periods replaced, with the same term counts and
# preconditions; they return the same tuples.
# ---------------------------------------------------------------------------


def _varpi0_coeff_floats(nterms: int):
    out = [mpf(1)]
    c = mpf(1)
    for k in range(1, nterms):
        c *= mpf((2 * k - 1) ** 2) / mpf((2 * k) ** 2)
        out.append(c)
    return out


def _h_coeff_floats(nterms: int):
    # h's coefficients from the Legendre Picard-Fuchs recurrence
    # (m+1)^2 h_(m+1) = (m+1/2)^2 h_m + R_m, R_m = (2m+1) c_m - 2(m+1) c_(m+1),
    # run in floats (periods takes the eps-derivative of the Frobenius
    # series instead); all terms positive, so no cancellation
    c = _varpi0_coeff_floats(nterms + 1)
    g = [mpf(0)]
    for m in range(nterms - 1):
        r_m = (2 * m + 1) * c[m] - 2 * (m + 1) * c[m + 1]
        g.append((mpf(2 * m + 1) ** 2 / 4 * g[m] + r_m) / mpf(m + 1) ** 2)
    return g


def _horner(coeffs, x):
    acc = mpc(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _horner_deriv(coeffs, x):
    acc = mpc(0)
    for k in range(len(coeffs) - 1, 0, -1):
        acc = acc * x + k * coeffs[k]
    return acc


def reference_legendre_jet(lam, digits: int):
    """(varpi0, varpi0', varpi1, varpi1') at lam by Horner over mpf
    coefficient tables."""
    with working_precision(digits):
        lam = as_mpc(lam)
        if lam == 0:
            raise PrecisionError("legendre periods are singular at lambda = 0")
        if abs(lam) > mpf("0.9"):
            raise PrecisionError("|lambda| > 0.9: evaluate via pfode continuation")
        n = reference_series_terms(abs(lam), digits)
        c0 = _varpi0_coeff_floats(n)
        gh = _h_coeff_floats(n)
        w0 = _horner(c0, lam)
        dw0 = _horner_deriv(c0, lam)
        hval = _horner(gh, lam)
        dh = _horner_deriv(gh, lam)
        pii = mp.pi * mp.mpc(0, 1)
        lg = mp.log(lam) - mp.log(mpf(16))
        w1 = (w0 * lg + hval) / pii
        dw1 = (dw0 * lg + w0 / lam + dh) / pii
        return LegendreJet(w0, dw0, w1, dw1)


def reference_dwork_periods(psi, digits: int):
    """W0, W1, W2 and tau at psi, summing the u-series term by term in mpc
    with the harmonic sums in mpf."""
    with working_precision(digits):
        psi = as_mpc(psi)
        t = psi ** -4
        at = abs(t)
        if at > 1 / mpf("1.2"):
            raise PrecisionError("dwork series requires |psi^4| >= 1.2")
        u = (4 * psi) ** -4
        log4psi = mp.log(4 * psi)
        nterms = reference_series_terms(at, digits) + 10
        pi2_8 = mp.pi ** 2 / 8
        w0 = mpc(0)
        s1 = mpc(0)
        s2 = mpc(0)
        an = 1
        up = mpc(1)
        h4 = mpf(0)   # H_{4n}
        h1 = mpf(0)   # H_n
        h4_2 = mpf(0)  # H2_{4n}
        h1_2 = mpf(0)  # H2_n
        for n in range(nterms):
            if n:
                for j in range(4 * n - 3, 4 * n + 1):
                    h4 += mpf(1) / j
                    h4_2 += mpf(1) / (j * j)
                h1 += mpf(1) / n
                h1_2 += mpf(1) / (n * n)
            b = h4 - h1
            a_up = mpf(an) * up
            w0 += a_up
            s1 += a_up * b
            s2 += a_up * (b * b + pi2_8 - h4_2 + h1_2 / 4)
            an = an * (4 * n + 1) * (4 * n + 2) * (4 * n + 3) * (4 * n + 4) // (n + 1) ** 4
            up *= u
        twopii = 2 * mp.pi * mp.mpc(0, 1)
        w1 = (-4 * w0 * log4psi + 4 * s1) / twopii
        w2 = (16 * w0 * log4psi ** 2 - 32 * s1 * log4psi + 16 * s2) / twopii ** 2
        return DworkPeriods(psi, t, w0, w1, w2, w1 / w0)


# ---------------------------------------------------------------------------
# Plain-loop references for the arithmetic kernels
#
# The character-table, bitmask and triple-loop counts that arith.ap_legendre
# and arith.fermat_quartic_count replaced, with the same preconditions, plus
# the cubic-model trace used to cross-check lambda = 2 against y^2 = x^3 - x.
# ---------------------------------------------------------------------------


def _quadratic_character_table(p: int) -> list[int]:
    """chi[x] for the quadratic character mod p, chi[0] = 0."""
    chi = [-1] * p
    chi[0] = 0
    for y in range(1, p):
        chi[y * y % p] = 1
    return chi


def _good_lambda_mod(lam, p: int) -> int:
    """lam mod p, or BadReductionError where y^2 = x(x-1)(x-lam) is bad at p."""
    lam = Fraction(lam)
    if p == 2:
        raise BadReductionError("p = 2 is always bad for the Legendre model")
    if lam.denominator % p == 0:
        raise BadReductionError(f"lambda has a pole mod {p}")
    l = lam.numerator * pow(lam.denominator, -1, p) % p
    if l in (0, 1):
        raise BadReductionError(f"lambda = {l} mod {p} is bad reduction")
    return l


def reference_ap_legendre(lam, p: int) -> int:
    """-sum_x chi(x(x-1)(x-lam)) by one character-table lookup per x."""
    l = _good_lambda_mod(lam, p)
    chi = _quadratic_character_table(p)
    s = 0
    for x in range(p):
        s += chi[x * (x - 1) % p * (x - l) % p]
    return -s


# byte 0/1 -> ASCII digit, so a 0/1 bytearray reads as one binary int
_BINARY_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def mask_ap_legendre(lam, p: int) -> int:
    """-sum_x chi(x) chi(x-1) chi(x-lam) on p-bit masks.

    The nonzero squares and non-squares mod p are two p-bit masks (bit x for
    the residue x); x -> x-1 and x -> x-l are rotations of those masks, and
    the sum is a difference of popcounts of the positions where the three
    signs multiply to +1 and to -1.
    """
    l = _good_lambda_mod(lam, p)
    squares = bytearray(p)
    for y in range(1, (p + 1) // 2):
        squares[y * y % p] = 1
    full = (1 << p) - 1
    sq = int(squares[::-1].translate(_BINARY_DIGITS), 2)
    non = full ^ sq ^ 1  # bit 0 is the residue 0, where chi vanishes

    def shift(mask: int, k: int) -> int:
        """Bit x of the result is bit (x - k) mod p of mask."""
        return ((mask << k) | (mask >> (p - k))) & full

    sq1, non1 = shift(sq, 1), shift(non, 1)
    sql, nonl = shift(sq, l), shift(non, l)
    even = (sq & sq1) | (non & non1)  # chi(x) chi(x-1) = +1
    odd = (sq & non1) | (non & sq1)  # chi(x) chi(x-1) = -1
    pos = (even & sql) | (odd & nonl)
    neg = (even & nonl) | (odd & sql)
    return neg.bit_count() - pos.bit_count()


def ap_cubic(a2: int, a4: int, a6: int, p: int) -> int:
    """Trace of Frobenius of y^2 = x^3 + a2 x^2 + a4 x + a6 over F_p (p odd,
    smooth reduction assumed); used for the minimal model y^2 = x^3 - x."""
    if p == 2:
        raise BadReductionError("p = 2 not supported by the character sum")
    chi = _quadratic_character_table(p)
    s = 0
    for x in range(p):
        s += chi[(x * x % p * x + a2 * x * x + a4 * x + a6) % p]
    return -s


def reference_fermat_quartic_count(p: int) -> int:
    """Points of x0^4 + x1^4 + x2^4 + x3^4 = 0 in P^3(F_p) by the four
    affine charts, looping over every (x1, x2) of the chart x0 = 1."""
    pow4 = [pow(x, 4, p) for x in range(p)]
    total = 0
    for x1 in range(p):
        s1 = 1 + pow4[x1]
        for x2 in range(p):
            total += pow4.count(-(s1 + pow4[x2]) % p)
    for x2 in range(p):
        total += pow4.count(-(1 + pow4[x2]) % p)
    return total + pow4.count(-1 % p)


def fermat_quartic_count_fp2(p: int) -> int:
    """Points of x0^4 + x1^4 + x2^4 + x3^4 = 0 in P^3(F_(p^2)) for a prime
    p = 3 mod 4, with F_(p^2) = F_p[i], i^2 = -1: the number of fourth
    powers of each value, convolved over the four coordinates, gives the
    affine cone's solutions, and (cone - 1)/(p^2 - 1) the projective ones."""
    assert p % 4 == 3

    def mul(a, b):
        return (a[0] * b[0] - a[1] * b[1]) % p, (a[0] * b[1] + a[1] * b[0]) % p

    fourth = {}
    for x in ((a, b) for a in range(p) for b in range(p)):
        v = mul(mul(x, x), mul(x, x))
        fourth[v] = fourth.get(v, 0) + 1
    sums = {(0, 0): 1}
    for _ in range(4):
        nxt = {}
        for s, c in sums.items():
            for v, d in fourth.items():
                k = ((s[0] + v[0]) % p, (s[1] + v[1]) % p)
                nxt[k] = nxt.get(k, 0) + c * d
        sums = nxt
    return (sums[(0, 0)] - 1) // (p * p - 1)


def hasse_ap_legendre(lam, p: int) -> int:
    """a_p of y^2 = x(x-1)(x-lam) from the Hasse invariant: the truncated
    period series gives a_p = (-1)^m sum_(k<=m) C(m,k)^2 lam^k (mod p),
    m = (p-1)/2, and |a_p| <= 2 sqrt(p) < p/2 (p >= 17) picks the lift."""
    if p < 17:
        raise ValueError("the Weil bound fixes the lift only for p >= 17")
    lam = Fraction(lam)
    l = lam.numerator * pow(lam.denominator, -1, p) % p
    m = (p - 1) // 2
    s = sum(comb(m, k) ** 2 * pow(l, k, p) for k in range(m + 1))
    r = (-1) ** m * s % p
    return r - p if r > p // 2 else r


def cornacchia_bp(p: int) -> int:
    """b_p of eta(4 tau)^6 by CM: solve p = x^2 + 4y^2 by Cornacchia's
    algorithm, then b_p = 2(x^2 - 4y^2) (x is odd); zero unless p = 1 mod 4."""
    if p % 4 != 1:
        return 0
    c = 2
    while pow(c, (p - 1) // 2, p) != p - 1:
        c += 1
    r = 2 * pow(c, (p - 1) // 4, p) % p  # r^2 = -4 mod p
    if r < p // 2:
        r = p - r
    a, b = p, r
    while b * b > p:
        a, b = b, a % b
    y2, rem = divmod(p - b * b, 4)
    y = isqrt(y2)
    if rem or y * y != y2:
        raise ArithmeticError(f"{p} is not x^2 + 4y^2")
    return 2 * (b * b - 4 * y2)


# ---------------------------------------------------------------------------
# Numeric oracles that used to live in the package
#
# Direct 2F1 summation, the small-lambda inverse of the quadratic map, the
# numeric residual of an operator on Taylor data and the L-values by
# quadrature: no command or check needs them, so only the tests keep them.
# ---------------------------------------------------------------------------


def to_mp(x):
    """Exact conversion of rationals/ints to the current working precision."""
    if isinstance(x, Fraction):
        return mpf(x.numerator) / mpf(x.denominator)
    if isinstance(x, int):
        return mpf(x)
    return x


def hyp2f1(a, b, c, z, digits: int = DEFAULT_DIGITS):
    """2F1(a,b;c;z) by direct summation, |z| <= 0.9.

    The truncation error is controlled by a geometric bound: the term ratio
    (a+n)(b+n)/((c+n)(1+n)) * z has modulus <= |z| whenever a+b <= c+1 and
    a*b <= c (true for every parameter triple in scope), so the tail after
    term T_n is at most |T_n| * |z| / (1-|z|).
    """
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if c.denominator == 1 and c <= 0:
        raise PrecisionError("2F1 undefined for nonpositive integer c")
    with working_precision(digits):
        z = mpc(z)
        if z == 0:
            return mpc(1)
        az = abs(z)
        if az > mpf("0.9") + mpf(10) ** -10:  # slack for binary-decimal boundary noise
            raise PrecisionError(f"|z| = {mp.nstr(az, 8)} > 0.9")
        if not (a > 0 and b > 0 and c > 0 and a + b <= c + 1 and a * b <= c):
            raise PrecisionError(
                "parameters outside the range covered by the geometric tail bound")
        eps = mpf(10) ** (-(digits + 10))
        total = mpc(0)
        term = mpc(1)
        n = 0
        geo = az / (1 - az)
        while True:
            total += term
            if abs(term) * geo < eps * max(mpf(1), abs(total)):
                return total
            term *= to_mp(a + n) * to_mp(b + n) / (to_mp(c + n) * (n + 1)) * z
            n += 1
            if n > 200 * (digits + 10):
                raise PrecisionError("2F1 series failed to converge within budget")


def lambda_from_t(t, digits: int = DEFAULT_DIGITS):
    """Small-lambda branch of the quartic relation: lam = sqrt(t)(1 + O(sqrt t)).

    Newton iteration seeded at the principal sqrt; intended for |t| well
    inside the unit disk where the branch is single-valued.
    """
    with working_precision(digits):
        t = as_mpc(t)
        lam = mp.sqrt(t)
        target = mpf(10) ** (-(digits + 5))
        for _ in range(digits + 50):
            one = mpf(1)
            f = lam ** 2 * (one - lam) / (one - lam / 2) ** 4 - t
            df = (2 * lam * (one - lam) * (one - lam / 2) - lam ** 2 * (one - lam / 2)
                  + 2 * lam ** 2 * (one - lam)) / (one - lam / 2) ** 5
            step = f / df
            lam -= step
            if abs(step) <= target * max(one, abs(lam)):
                return lam
        raise PrecisionError("lambda_from_t failed to converge")


def quadrature_lvalue(s: int, digits: int):
    """(2 pi)^s Lambda(s), the L-value deligne.lvalue sums termwise, by
    adaptive quadrature of the eta product itself: the two routes share
    only the split of the Mellin integral at z = 1/4."""
    with working_precision(digits):
        def upper(z):
            return eta_value(4j * z, digits) ** 6 * z ** (s - 1)

        def lower(u):
            return 64 * mpf(16) ** (-s) * eta_value(4j * u, digits) ** 6 * u ** (2 - s)

        quarter = mpf(1) / 4
        val = mp.quad(upper, [quarter, 1, 3, mp.inf]) + \
            mp.quad(lower, [quarter, 1, 3, mp.inf])
        return (2 * mp.pi) ** s * val.real


def reference_w_series_t(order: int):
    """(W0, S, T) of periods.w_series_t with the harmonic sums H_4n, H_n and
    H2_4n, H2_n (sums of 1/k^2) run along n in Fractions."""
    c0, c1, c2 = [], [], []
    a = Fraction(1)
    h4 = h1 = h4_2 = h1_2 = Fraction(0)
    for n in range(order):
        if n:
            for j in range(4 * n - 3, 4 * n + 1):
                h4 += Fraction(1, j)
                h4_2 += Fraction(1, j * j)
            h1 += Fraction(1, n)
            h1_2 += Fraction(1, n * n)
        b = h4 - h1
        c0.append(a)
        c1.append(a * b)
        c2.append(a * (b * b - h4_2 + h1_2 / 4))
        a = a * ((4 * n + 1) * (4 * n + 2) * (4 * n + 3) * (4 * n + 4)) / (256 * (n + 1) ** 4)
    return (RationalSeries(c0, 0, order),
            RationalSeries(c1, 0, order),
            RationalSeries(c2, 0, order))


def pi0_series(order: int) -> RationalSeries:
    """Pi0(lam) = (1 - lam/2) * varpi0(lam)^2 as an exact lambda-series: the
    oracle for periods._pi0_q, which builds Pi0(lambda(q)) from the one
    varpi0(lambda(q)) table instead of composing this series."""
    half = RationalSeries([Fraction(1), Fraction(-1, 2)], 0, order)
    return half * varpi0_series(order) ** 2


# The Legendre operator lam(1-lam) D^2 + (1-2 lam) D - 1/4, annihilating
# varpi0 and varpi1, singular at 0, 1 and infinity: the one equation
# pfode._recurrence writes out, for reference_recurrence and the continuation
# kernel tests, as a tuple of exact polynomial coefficients: op[k] holds those
# of D^k, low degree first.
LEGENDRE_OPERATOR = (
    (Fraction(-1, 4),),
    (1, -2),
    (0, 1, -1),
)
