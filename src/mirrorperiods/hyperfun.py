"""High-precision numerics for the special functions behind the period checks.

mpmath supplies the arbitrary-precision substrate: "PrecFloat/PrecComplex"
values are plain ``mpf``/``mpc`` computed at a caller-chosen number of decimal
digits (default 120, minimum 30) plus guard digits.  Everything here is a
direct series evaluation with an explicit geometric tail bound, its powers
taken by running products (the theta series, and eta by Euler's pentagonal
series) rather than by mpc powers, which mpmath takes as exp(n log z) at
high precision; analytic continuation beyond the convergence disks is
pfode's job.

Nome conventions, distinguished everywhere downstream:

    q  = exp(pi*i*tau)     (half nome; theta constants, lambda(tau))
    Q  = exp(2*pi*i*tau)   (full nome; eta products, modular forms)

so Q = q**2.  Mixing them up is the classic trap in this corner of the
literature; the helper `half_nome` exists so callers never have to write the
exponential by hand.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from math import ceil, gcd, lcm, log

from mpmath import mp, mpc, mpf

from .qseries import RationalSeries

DEFAULT_DIGITS = 120
MIN_DIGITS = 30
GUARD_DIGITS = 15
# Bits the fixed-point kernels (periods' series, pfode's Taylor steps) carry
# beyond the working precision.
GUARD_BITS = 80


class PrecisionError(ValueError):
    """Raised when a precision request or evaluation precondition fails."""


@contextmanager
def working_precision(digits: int):
    """Context manager: run mpmath at `digits` decimal digits plus guard."""
    if digits < MIN_DIGITS:
        raise PrecisionError(f"digits must be >= {MIN_DIGITS}, got {digits}")
    with mp.workdps(digits + GUARD_DIGITS):
        yield


def as_mpc(x) -> mpc:
    """Convert to mpc at the current working precision.

    Accepts mpf/mpc/int/float/complex, exact Fractions, decimal strings, and
    (re, im) pairs of any of those.  Exact inputs are converted at the call
    site's precision, so module-level constants can stay precision-free.
    """
    if isinstance(x, tuple):
        re, im = x
        return mpc(as_mpc(re).real, as_mpc(im).real)
    if isinstance(x, Fraction):
        return mpc(mpf(x.numerator) / mpf(x.denominator))
    if isinstance(x, str):
        return as_mpc(Fraction(x))
    return mpc(x)


def _parts(x) -> tuple:
    """The (re, im) coordinates of a point, as given; a tuple must be a pair."""
    if isinstance(x, str):
        return x, 0
    re, im = x if isinstance(x, tuple) else (x.real, x.imag)
    return re, im


def _exact(c) -> Fraction:
    if isinstance(c, (int, Fraction, str)):
        return Fraction(c)
    if not mp.isfinite(c):
        raise PrecisionError(f"non-finite coordinate {c}")
    if isinstance(c, float):
        return Fraction(c)
    sign, man, exp, _ = c._mpf_
    return Fraction(-man if sign else man) * Fraction(2) ** exp


def exact_point(x) -> tuple:
    """A point as its exact (re, im) Fraction pair, the one conversion of a
    point for the series kernels, paths and frames: an int, Fraction or
    decimal-string coordinate as its value, an mpf or float one (also a
    part of an mpc, a complex or a pair) as its exact binary value, which
    loses nothing.  A non-finite coordinate raises PrecisionError."""
    return tuple(map(_exact, _parts(x)))


def _gaussian(z):
    """An exact point (re, im) as (a, b, den): (a + i b) / den with ints a, b
    and den > 0."""
    re, im = z
    den = lcm(re.denominator, im.denominator)
    return re.numerator * (den // re.denominator), im.numerator * (den // im.denominator), den


def exact_pair(x):
    """exact_point(x) for an exact input (int, Fraction, decimal string, or
    an (re, im) pair of those); None for mpmath, float and complex values,
    which carry their own rounding."""
    exact = all(isinstance(p, (int, Fraction, str)) for p in _parts(x))
    return exact_point(x) if exact else None


def waypoint_strings(w) -> list:
    """An exact point, an (re, im) Fraction pair, as [re, im] decimal
    strings, the form of --path waypoints: each coordinate as its float
    repr when that is exact, else as p/q, except that a binary fraction too
    long for a float (the exact value of an mpf waypoint) prints to 30
    digits, as mp.nstr prints that mpf.  A coordinate beyond a float's
    range prints exactly, as p or p/q."""
    def fmt(x):
        try:
            f = float(x)
        except OverflowError:
            return str(x)
        if Fraction(str(f)) == x:
            return str(f)
        if x.denominator & (x.denominator - 1):
            return str(x)
        with mp.workprec(max(x.numerator.bit_length(), 53)):
            return mp.nstr(mpf(x.numerator) / x.denominator, 30)
    return [fmt(w[0]), fmt(w[1])]


# Bits kept in the directed-rounding power bounds of decay_terms.
_BOUND_BITS = 64


def _round_bits(m: int, s: int, up: bool):
    """m 2^s rounded to _BOUND_BITS significant bits, up or down."""
    cut = m.bit_length() - _BOUND_BITS
    if cut <= 0:
        return m, s
    return (-(-m >> cut) if up else m >> cut), s + cut


def _power_bound(p: int, q: int, n: int, up: bool):
    """(m, s) with m 2^s >= (p/q)^n if up, else <= it: (p/q)^n by repeated
    squaring with every product rounded to _BOUND_BITS bits that way."""
    e = q.bit_length() - p.bit_length() + _BOUND_BITS
    m, rem = divmod(p << e, q)
    m, s = m + (up and rem > 0), -e
    rm, rs = 1, 0
    while True:
        if n & 1:
            rm, rs = _round_bits(rm * m, rs + s, up)
        n >>= 1
        if not n:
            return rm, rs
        m, s = _round_bits(m * m, 2 * s, up)


def decay_terms(ratio2: Fraction, digits: int) -> int:
    """The least n >= 1 with ratio2^n <= 10^(-2 digits), for 0 < ratio2 < 1:
    the terms after which a series whose terms fall by sqrt(ratio2) drops
    below 10^-digits.  Decided exactly on Python ints: a float first guess,
    then comparisons of 10^(-2 digits) with 64-bit bounds of ratio2^n
    rounded up and down (_power_bound); only when those cannot tell n - 1
    terms from n are ratio2's own powers compared."""
    p, q = ratio2.numerator, ratio2.denominator
    target = 10 ** (2 * digits)

    def below(n, up):  # whether a bound of ratio2^n is <= 10^(-2 digits)
        m, s = _power_bound(p, q, n, up)
        return s < 0 and m * target <= 1 << -s

    n = max(1, ceil(2 * digits * log(10) / (log(q) - log(p))))
    while not below(n, True):
        n += 1
    while n > 1 and below(n - 1, True):
        n -= 1
    # ratio2^n <= 10^(-2 digits) < ratio2^(n-1), unless the lower bound of
    # ratio2^(n-1) is below 10^(-2 digits) too
    while n > 1 and below(n - 1, False) and p ** (n - 1) * target <= q ** (n - 1):
        n -= 1
    return n


def _to_fixed(x: mpf, shift: int) -> int:
    """x * 2^shift truncated to an int; x must be finite."""
    sign, man, exp, _ = x._mpf_
    e = exp + shift
    v = man << e if e >= 0 else man >> -e
    return -v if sign else v


def _from_fixed(re: int, im: int, shift: int) -> mpc:
    """(re + i im) / 2^shift, rounded to the working precision."""
    return mpc(mpf((re, -shift)), mpf((im, -shift)))


def half_nome(tau, digits: int = DEFAULT_DIGITS):
    """q = exp(pi*i*tau)."""
    with working_precision(digits):
        return mp.exp(mp.pi * mp.mpc(0, 1) * mpc(tau))


# ---------------------------------------------------------------------------
# Hypergeometric Frobenius series: exact Taylor coefficients
# ---------------------------------------------------------------------------


def _linear_product(factors, mu: int) -> list:
    """Integer coefficients of prod (u + v eps) over (u, v) in factors, below eps^mu."""
    poly = [1] + [0] * (mu - 1)
    for u, v in factors:
        poly = [u * poly[0]] + [u * poly[k] + v * poly[k - 1] for k in range(1, mu)]
    return poly


def frobenius_series(upper, order: int, mu: int = 1) -> tuple:
    """[eps^k] sum_n c_n(eps) z^n for k < mu, exact to z^order, where c_0 = 1
    and c_(n+1)(eps) = c_n(eps) prod_(a in upper) (n+a+eps)/(n+1+eps).

    z^eps times this eps-series solves theta^m y - z prod (theta+a) y = 0 up
    to eps^m z^eps (m = len(upper), theta = z d/dz).  So k = 0 is the
    mF(m-1) series with lower parameters 1, and for k < m the eps^k
    coefficient of z^eps times it is a log solution.  Each step takes the
    ratio as integer polynomials N(eps) / D(eps): with a = p/d,
    (n+a+eps)/(n+1+eps) = (dn+p+d eps)/(dn+d+d eps).  c_n(eps) is held as
    int numerators C over one denominator e in lowest terms; c_(n+1) is
    C N / (e D) truncated below eps^mu, over e D_0^mu, where its
    numerators M_k = (D_0^mu [eps^k] C N - sum_(j>=1) D_j M_(k-j)) / D_0
    are exact divisions.  One gcd over (e D_0^mu, M) brings the term back
    to lowest terms, so each term costs one exact division per
    eps-coefficient and one vector gcd.  Each eps^k series is put over the
    lcm of the term denominators and reduced by one more vector gcd.
    """
    dp = [(Fraction(a).denominator, Fraction(a).numerator) for a in upper]
    c, e = [1] + [0] * (mu - 1), 1
    rows, dens = [], []
    for n in range(order):
        rows.append(c)
        dens.append(e)
        num = _linear_product([(d * n + p, d) for d, p in dp], mu)
        den = _linear_product([(d * n + d, d) for d, _ in dp], mu)
        d0, scale = den[0], den[0] ** mu
        new = []
        for k in range(mu):
            t = 0
            for j in range(k + 1):
                t += num[j] * c[k - j]
            t *= scale
            for j in range(1, k + 1):
                t -= den[j] * new[k - j]
            new.append(t // d0)
        e *= scale
        g = gcd(e, *new)
        c, e = [x // g for x in new], e // g
    common = lcm(*dens)
    lift = [common // de for de in dens]
    return tuple(RationalSeries.from_numerators([row[k] * f for row, f in zip(rows, lift)],
                                                common)
                 for k in range(mu))


def hyp2f1_series(a: Fraction, b: Fraction, order: int) -> RationalSeries:
    """Exact rational Taylor coefficients of 2F1(a,b;1;z) at z=0."""
    return frobenius_series((a, b), order)[0]


# ---------------------------------------------------------------------------
# Theta constants and the Dedekind eta function
# ---------------------------------------------------------------------------


def theta_const(kind: int, q, digits: int = DEFAULT_DIGITS):
    """Theta constant theta_kind(0, q) for kind in {2, 3, 4}, |q| < 1.

    theta3 = 1 + 2 sum q^(n^2), theta4 the same with (-1)^n, and
    theta2 = 2 q^(1/4) sum q^(n(n+1)), truncated at n = nmax once
    |q|^((nmax+1)^2) / (1 - |q|) drops below 10^-(digits+10).  The powers
    come from running products, q^((n+1)^2) = q^(n^2) q^(2n+1) and
    q^((n+1)(n+2)) = q^(n(n+1)) q^(2n+2), the odd and even strides stepping
    by q^2, and are summed largest n first.  q^(1/4) is sqrt(sqrt(q)):
    Im(Log(z)/2) lies in (-pi/2, pi/2], so that is exactly the principal
    quarter root.  Only fourth powers of theta2 are consumed downstream,
    which kills the root-of-unity ambiguity anyway.
    """
    if kind not in (2, 3, 4):
        raise PrecisionError(f"theta kind must be 2, 3 or 4, got {kind}")
    with working_precision(digits):
        q = mpc(q)
        aq = abs(q)
        if aq >= 1:
            raise PrecisionError("theta constants require |q| < 1")
        if q == 0:
            return mpc(0) if kind == 2 else mpc(1)
        eps = mpf(10) ** (-(digits + 10))
        nmax = int(mp.ceil(mp.sqrt((digits + 12) * mp.log(10) / -mp.log(aq)))) + 2
        if aq ** ((nmax + 1) ** 2) / (1 - aq) > eps:
            raise PrecisionError("theta truncation bound not met")
        q2 = q * q
        # powers[n] = q^(n(n+1)) for theta2, q^(n^2) otherwise
        power, stride = mpc(1), (q2 if kind == 2 else q)
        powers = [power]
        for _ in range(nmax):
            power *= stride
            stride *= q2
            powers.append(power)
        if kind == 2:
            s = mpc(0)
            for n in range(nmax, -1, -1):
                s += powers[n]
            return 2 * mp.sqrt(mp.sqrt(q)) * s
        s = mpc(1)
        for n in range(nmax, 0, -1):
            t = 2 * powers[n]
            s += -t if (kind == 4 and n % 2 == 1) else t
        return s


def eta_value(tau, digits: int = DEFAULT_DIGITS):
    """Dedekind eta(tau) = Q^(1/24) * prod(1 - Q^n), Q = exp(2*pi*i*tau).

    Requires Im(tau) > 0.  The product is summed by Euler's pentagonal
    number theorem, prod(1 - Q^n) = 1 + sum_(k>=1) (-1)^k (Q^(k(3k-1)/2) +
    Q^(k(3k+1)/2)), over the exponents <= nmax, about 2 sqrt(2 nmax / 3)
    terms; the powers come from running products, each exponent the last
    plus 2k - 1 or plus k, those strides stepping by Q^2 and Q.  The
    omitted terms have distinct exponents > nmax, so they sum to at most
    |Q|^(nmax+1) / (1 - |Q|); the check demands 2 |Q|^(nmax+1) / (1 - |Q|)
    <= 10^-(digits+10).  nmax is the term count of the product form,
    ceil(((digits+12) ln 10 + 2 |ln(1-|Q|)|) / (2 pi Im tau)) + 3.  The
    prefactor is computed as exp(pi*i*tau/12) directly from tau, so no root
    extraction of Q is involved.
    """
    with working_precision(digits):
        tau = mpc(tau)
        if tau.imag <= 0:
            raise PrecisionError("eta requires Im(tau) > 0")
        bigq = mp.exp(2 * mp.pi * mp.mpc(0, 1) * tau)
        aq = abs(bigq)
        eps = mpf(10) ** (-(digits + 10))
        nmax = int(mp.ceil(((digits + 12) * mp.log(10) + 2 * abs(mp.log(1 - aq)))
                           / (2 * mp.pi * tau.imag))) + 3
        if 2 * aq ** (nmax + 1) / (1 - aq) > eps:
            raise PrecisionError("eta truncation bound not met")
        # exponents 1, 2, 5, 7, 12, 15, ...: k(3k-1)/2 is (k-1)(3k-2)/2 +
        # (2k-1) and k(3k+1)/2 is k(3k-1)/2 + k
        total, power, odd, lin = mpc(1), mpc(1), bigq, bigq
        q2 = bigq * bigq
        for k in range(1, nmax + 1):
            if k * (3 * k - 1) // 2 > nmax:
                break
            sign = -1 if k % 2 else 1
            power *= odd
            total += sign * power
            if k * (3 * k + 1) // 2 > nmax:
                break
            power *= lin
            total += sign * power
            odd *= q2
            lin *= bigq
        return mp.exp(mp.pi * mp.mpc(0, 1) * tau / 12) * total
