"""Exact truncated power series over Q, on integer exponents.

A series knows its coefficients for exponent shifts ``0 .. order-1``
relative to an integer leading exponent ``offset`` (negative for the q^(-1)
of 1/eta^24); everything beyond is *unknown*, not zero.  Binary operations
compute the tightest provable truncation, so identity checks downstream can
assert exact zero residuals instead of small ones.

A series is held as integer numerators over one positive denominator in
lowest terms: coefficient k is num[k] / den with gcd(den, *num) = 1, so den
is the lcm of the coefficients' reduced denominators.  Every kernel (``+``,
``-``, scalar and series ``*``, ``**``, ``exp``, ``log``, ``compose``,
``revert``, ``theta_derivative``, the frame helpers and the eta generators)
runs on these Python ints and never adds or multiplies ``Fraction``s, which
would take a gcd and an object per coefficient.  Three kernels do most of
the work:

- ``**`` runs Miller's recurrence for every integer exponent and for every
  rational one of a series 1 + O(x), so ``reciprocal()`` is ``self ** -1``
  and ``pow_rational(r)`` is ``self ** r``;
- ``compose`` needs only about 2 sqrt(order) convolutions (baby steps and
  giant steps) and first rescales its inner series so that small primes
  leave its denominators;
- ``revert`` is Newton's iteration over ``compose``.

The recurrences of ``**``, ``exp`` and ``log`` reduce each new coefficient
as an int pair (p, q) and keep the terms found so far over the lcm of those
q, so the integers stay as small as the answer (1/varpi0 has 2-power
denominators) instead of growing with powers of the input's denominator;
the other kernels reduce their result once, by one gcd over the vector.
Fractions appear only at the edges: the constructor takes ints and
Fractions, and ``coeffs``, ``coefficient()`` and ``max_abs_coefficient()``
build canonical Fractions on demand.

Offsets, shifts and the exponents ``coefficient()`` reads are integers; a
non-integer one raises SeriesError.  So ``eta_product`` takes only the
(m, e) whose prefactor q^(m e/24) is an integer power.  Puiseux series are
deliberately out of scope.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]

# compose rescales its inner series to clear these primes from its
# denominators; any other prime stays on the common denominator
_RESCALE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


class SeriesError(ValueError):
    """Raised on precondition violations in series arithmetic."""


def _ratio(x) -> tuple[int, int]:
    """(numerator, denominator) of an exact rational scalar."""
    if isinstance(x, (int, Fraction)):
        return x.numerator, x.denominator
    raise SeriesError(f"coefficients must be exact rationals, got {type(x).__name__}")


def _integer(x, what: str) -> int:
    """x as an int: an int passes untouched, a whole Fraction is converted
    and anything else raises SeriesError naming `what`."""
    if type(x) is int:
        return x
    p, q = _ratio(x)
    if q != 1:
        raise SeriesError(f"{what} {x} is not an integer")
    return p


def _lowest(p: int, q: int) -> tuple[int, int]:
    """p/q in lowest terms with a positive denominator; q != 0."""
    g = gcd(p, q)
    if q < 0:
        g = -g
    return p // g, q // g


def _push(num: list[int], e: int, p: int, q: int) -> int:
    """Append p/q to the numerators num over e and return the new common
    denominator: p/q is reduced first, and e grows to lcm(e, q), rescaling
    num, only when the reduced q needs it."""
    p, q = _lowest(p, q)
    if e % q:
        grow = q // gcd(e, q)
        num[:] = [x * grow for x in num]
        e *= grow
    num.append(p * (e // q))
    return e


def _nonzero(nums: Sequence[int], stop: int) -> list[tuple[int, int]]:
    """(index, value) of the nonzero entries of nums[:stop]."""
    return [(j, c) for j, c in enumerate(nums[:stop]) if c]


def _convolve_into(out: list[int], a: Sequence[int], b_nz: list[tuple[int, int]]) -> None:
    """out[i + j] += a[i] * b[j] for every i + j < len(out); b given by _nonzero."""
    n = len(out)
    for i, ai in enumerate(a[:n]):
        if not ai:
            continue
        room = n - i
        for j, bj in b_nz:
            if j >= room:
                break
            out[i + j] += ai * bj


def _clearing_scale(dens: Sequence[int]) -> int:
    """The s = prod p^ceil(max_k v_p(dens[k]) / k) over p in _RESCALE_PRIMES
    (dens[0] = 1): every dens[k] divides s^k up to primes outside the list."""
    s = 1
    full = lcm(*dens)
    for p in _RESCALE_PRIMES:
        if full % p:
            continue
        need = 0
        for k, den in enumerate(dens):
            v = 0
            while den % p == 0:
                den //= p
                v += 1
            if v:
                need = max(need, -(-v // k))
        s *= p ** need
    return s


def _series(num: Sequence[int], den: int, offset: int) -> "RationalSeries":
    """The series num[k]/den x^(offset+k), k < len(num), for numerators in
    lowest terms over den > 0 and an integer offset."""
    s = object.__new__(RationalSeries)
    s._num, s._den, s.offset, s.order = tuple(num), den, offset, len(num)
    return s


def _lowest_terms(num: Sequence[int], den: int) -> tuple[Sequence[int], int]:
    """num/den in lowest terms, by one gcd over the vector; den > 0."""
    g = gcd(den, *num)
    if g > 1:
        return [x // g for x in num], den // g
    return num, den


def _reduced(num: Sequence[int], den: int, offset: int) -> "RationalSeries":
    """_series of num/den brought to lowest terms."""
    return _series(*_lowest_terms(num, den), offset)


def _head(s: "RationalSeries", n: int) -> tuple[Sequence[int], int]:
    """The numerators of s's first n coefficients over their own lowest
    common denominator."""
    if n >= s.order:
        return s._num, s._den
    return _lowest_terms(s._num[:n], s._den)


def _derivative(s: "RationalSeries", n: int) -> "RationalSeries":
    """The first n coefficients of s' for an s with offset 0, known to x^n."""
    return _reduced([k * c for k, c in enumerate(s._num[:n + 1])][1:], s._den, 0)


class RationalSeries:
    """Truncated series  sum_k coeffs[k] * x**(offset + k)  with k < order,
    held as numerators over one denominator (see the module docstring)."""

    __slots__ = ("offset", "order", "_num", "_den")

    def __init__(self, coeffs: Iterable, offset: Scalar = 0, order: int | None = None):
        pairs = [_ratio(c) for c in coeffs]
        if order is None:
            order = len(pairs)
        if order < 0:
            raise SeriesError("order must be >= 0")
        del pairs[order:]
        den = lcm(*(q for _, q in pairs))
        num = [p * (den // q) for p, q in pairs]
        num += [0] * (order - len(num))
        self.offset = _integer(offset, "offset")
        self.order = order
        self._num = tuple(num)
        self._den = den

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_numerators(cls, num: Sequence[int], den: int = 1,
                        offset: Scalar = 0) -> "RationalSeries":
        """sum_k num[k]/den x^(offset+k) for k < len(num), ints over an int
        den > 0, brought to lowest terms by one gcd."""
        return _reduced(num, den, _integer(offset, "offset"))

    @classmethod
    def zero(cls, order: int, offset: Scalar = 0) -> "RationalSeries":
        return cls((), offset, order)

    @classmethod
    def one(cls, order: int) -> "RationalSeries":
        return cls((1,), 0, order)

    @classmethod
    def identity(cls, order: int) -> "RationalSeries":
        """The series x."""
        return cls((0, 1), 0, order)

    # -- inspection --------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The known coefficients as canonical Fractions, built on each read."""
        den = self._den
        return tuple(Fraction(x, den) for x in self._num)

    def coefficient(self, exponent: Scalar) -> Fraction:
        """Coefficient of x**exponent; raises if beyond the known window."""
        k = _integer(exponent, "exponent") - self.offset
        if k < 0:
            return Fraction(0)
        if k >= self.order:
            raise SeriesError(f"coefficient of x^{exponent} is beyond truncation order")
        return Fraction(self._num[k], self._den)

    def valuation(self) -> int:
        """Shift of the first known nonzero coefficient (= order if all zero)."""
        return next((k for k, x in enumerate(self._num) if x), self.order)

    def max_abs_coefficient(self) -> Fraction:
        return Fraction(max(map(abs, self._num), default=0), self._den)

    # -- frame helpers -----------------------------------------------------

    def normalize(self) -> "RationalSeries":
        """Absorb known leading zeros into the offset."""
        v = self.valuation()
        if v == 0:
            return self
        return _series(self._num[v:], self._den, self.offset + v)

    def truncate(self, order: int) -> "RationalSeries":
        if order > self.order:
            raise SeriesError("cannot extend a truncated series")
        if order < 0:
            raise SeriesError("order must be >= 0")
        if order == self.order:
            return self
        return _reduced(self._num[:order], self._den, self.offset)

    def shifted(self, delta: Scalar) -> "RationalSeries":
        """Multiply by x**delta."""
        return _series(self._num, self._den, self.offset + _integer(delta, "shift"))

    def _integer_frame(self) -> tuple[list[int], int]:
        """Numerators (over self's denominator) indexed by absolute exponent,
        plus their count.

        Requires offset >= 0.  The returned list has length offset + order:
        exponents 0 .. offset+order-1 are known.
        """
        pad = self.offset
        if pad < 0:
            raise SeriesError(f"operation requires exponents >= 0, offset={pad}")
        return [0] * pad + list(self._num), pad + self.order

    def substitute_power(self, k: int) -> "RationalSeries":
        """Substitute x -> x**k (k >= 1), e.g. to re-express a 2*pi*i*tau nome
        series in the exp(pi*i*tau) nome."""
        if k < 1:
            raise SeriesError("substitute_power requires k >= 1")
        num = [0] * (k * self.order)
        num[::k] = self._num
        return _series(num, self._den, self.offset * k)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            p, q = _ratio(other)
            other = _series([p] + [0] * (max(self.order, 1) - 1), q, 0)
        if not isinstance(other, RationalSeries):
            return NotImplemented
        d = self.offset - other.offset
        if d >= 0:
            a_pad, b_pad, off = d, 0, other.offset
        else:
            a_pad, b_pad, off = 0, -d, self.offset
        order = min(a_pad + self.order, b_pad + other.order)
        if order < 1:
            raise SeriesError("aligned truncation order fell below 1")
        den = lcm(self._den, other._den)
        out = [0] * order
        for pad, s in ((a_pad, self), (b_pad, other)):
            scale = den // s._den
            for i, x in enumerate(s._num[:max(order - pad, 0)], pad):
                if x:
                    out[i] += x * scale
        return _reduced(out, den, off)

    __radd__ = __add__

    def __neg__(self):
        return _series([-x for x in self._num], self._den, self.offset)

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, RationalSeries)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            p, q = _ratio(other)
            return _reduced([x * p for x in self._num], self._den * q, self.offset)
        if not isinstance(other, RationalSeries):
            return NotImplemented
        va, vb = self.valuation(), other.valuation()
        order = min(self.order + vb, other.order + va)
        if order < 1:
            raise SeriesError("product truncation order fell below 1")
        (a, da), (b, db) = _head(self, order), _head(other, order)
        out = [0] * order
        _convolve_into(out, a, _nonzero(b, order))
        return _reduced(out, da * db, self.offset + other.offset)

    __rmul__ = __mul__

    def reciprocal(self) -> "RationalSeries":
        """Multiplicative inverse; the shift-0 coefficient must be nonzero."""
        return self ** -1

    def __pow__(self, r):
        """self**r by J. C. P. Miller's recurrence (Knuth, TAOCP vol. 2,
        4.7): one O(order^2) pass for any exponent, with no products.

        With self = x^v h(x), h_0 != 0, g = h^r satisfies g' h = r h' g,
        i.e. k h_0 g_k = (r+1) sum_j j h_j g_(k-j) - k sum_j h_j g_(k-j)
        over 1 <= j <= k; at r = -1 the first sum drops out.  An integer r
        gives what the product self * ... * self (of 1/self for r < 0)
        returns: r*v leading zeros, offset r*offset and order
        self.order + (r-1)*v, where r < 0 needs v = 0.  A non-integer
        rational r needs offset 0 and constant term 1.
        """
        if isinstance(r, int):
            p, q = r, 1
        elif isinstance(r, Fraction):
            p, q = r.numerator, r.denominator
            if q > 1 and (self.offset or not self.order or self._num[0] != self._den):
                raise SeriesError(f"power {r} requires offset 0 and constant term 1")
        else:
            return NotImplemented
        if p == 0:
            return RationalSeries.one(self.order)
        v = self.valuation()
        order = self.order + (p - 1) * v
        if p < 0 and (v or not self.order):
            raise SeriesError(f"power {r} of a series with zero leading coefficient")
        if v == self.order:
            if order < 1:
                raise SeriesError("product truncation order fell below 1")
            return _series([0] * order, 1, p * self.offset)
        # With h = H/d over integers, a = (r+1) q and g_0 .. g_(k-1) held
        # as num/e, g_k = (sum_j (a j - q k) H_j num[k-j]) / (q k H_0 e);
        # at a = 0 the weight q k cancels: g_k = -(sum_j H_j num[k-j]) / (H_0 e).
        h, d = self._num[v:], self._den
        h0, tail, a = h[0], _nonzero(h, len(h))[1:], p + q
        num = []
        e = _push(num, 1, h0 ** p, d ** p) if p > 0 else _push(num, 1, d ** -p, h0 ** -p)
        for k in range(1, len(h)):
            qk = q * k
            s = 0
            for j, hj in tail:
                if j > k:
                    break
                s += (a * j - qk) * hj * num[k - j] if a else hj * num[k - j]
            e = _push(num, e, s, qk * h0 * e) if a else _push(num, e, -s, h0 * e)
        return _series([0] * (p * v) + num, e, p * self.offset)

    # -- calculus ----------------------------------------------------------

    def theta_derivative(self) -> "RationalSeries":
        """x*d/dx ("theta-operator mode"): multiplies each term by its exponent."""
        return _reduced([k * x for k, x in enumerate(self._num, self.offset)],
                        self._den, self.offset)

    # -- transcendental / compositional ------------------------------------

    def exp(self) -> "RationalSeries":
        """exp of a series with zero constant term (offset >= 0)."""
        a, n = self._integer_frame()
        if n < 1 or a[0] != 0:
            raise SeriesError("exp requires a zero constant term")
        # With self = A/d over integers and E_0 .. E_(k-1) held as num/e,
        # the recurrence k E_k = sum_j j a_j E_(k-j) gives
        # E_k = (sum_j j A_j num[k-j]) / (k d e).
        d = self._den
        ja = [(j, j * aj) for j, aj in _nonzero(a, n)]
        num, e = [1], 1
        for k in range(1, n):
            s = 0
            for j, jaj in ja:
                if j > k:
                    break
                s += jaj * num[k - j]
            e = _push(num, e, s, k * d * e)
        return _series(num, e, 0)

    def log(self) -> "RationalSeries":
        """log of a series with constant term 1 (offset >= 0)."""
        a, n = self._integer_frame()
        d = self._den
        if n < 1 or a[0] != d:
            raise SeriesError("log requires constant term 1")
        # With self = A/d over integers and L_1 .. L_(k-1) held as num/e,
        # the recurrence k L_k = k a_k - sum_(j<k) (k-j) L_(k-j) a_j gives
        # L_k = (k A_k e - sum_j (k-j) A_j num[k-j]) / (k d e).
        tail = _nonzero(a, n)[1:]
        num, e = [0], 1
        for k in range(1, n):
            s = k * a[k] * e
            for j, aj in tail:
                if j >= k:
                    break
                s -= (k - j) * aj * num[k - j]
            e = _push(num, e, s, k * d * e)
        return _series(num, e, 0)

    def pow_rational(self, r: Scalar) -> "RationalSeries":
        """Raise to an exact rational power: self ** r (see __pow__)."""
        return self ** r

    def compose(self, inner: "RationalSeries") -> "RationalSeries":
        """self(inner(x)); inner must have zero constant term.

        Baby steps and giant steps (Brent & Kung, J. ACM 25, 1978): with
        k = ceil(sqrt(top)) the powers g^2 .. g^k are built by convolution,
        each block sum_(j<k) f_(bk+j) g^j of the outer series is an integer
        linear combination of them, and Horner in g^k runs over the blocks:
        about 2k convolutions instead of top.  Block b is multiplied by
        g^(bk), of valuation b*k*vg, so its accumulator is kept only to
        order - b*k*vg.

        Before that, the variable is rescaled: the kernel composes with
        g(s x), whose k-th coefficient is g_k s^k, and divides coefficient m
        of the result by s^m at the end (x -> x/s).  s = _clearing_scale of
        the reduced denominators of g removes every prime of _RESCALE_PRIMES
        from those of g(s x): for t(lambda) = lambda^2 (1 - lambda)
        (1 - lambda/2)^(-4), s = 2 and the powers keep their natural size
        instead of carrying d^i for the common denominator d = 2^65 (at
        order 68).  f(g(s x)) is the series f(g(x)) evaluated at s x for
        every s, so any s >= 1 gives the same exact result; a denominator
        cofactor that is not rescaled stays on the common denominator.
        """
        fn, nf = self._integer_frame()
        gn, ng = inner._integer_frame()
        vg = next((i for i, c in enumerate(gn) if c), ng)
        if vg == 0:
            raise SeriesError("composition requires inner constant term 0")
        order = min(vg * nf, ng)
        if order < 1:
            raise SeriesError("composition truncation order fell below 1")
        # Only f_0 .. f_top reach the window: g^i has valuation i*vg.
        top = min(nf - 1, (order - 1) // vg)
        fn, df = _lowest_terms(fn[:top + 1], self._den)
        gn, d = gn[:order], inner._den
        s = _clearing_scale([d // gcd(d, c) for c in gn])
        if s > 1:
            gn = [c * s ** i for i, c in enumerate(gn)]
        gn, d = _lowest_terms(gn, d)
        # Baby steps: pw[j] = d^j g(s x)^j over the integers, j <= k.
        k = isqrt(top - 1) + 1 if top else 1
        pw = [[1], gn]
        g_nz = _nonzero(gn, order)
        for _ in range(k - 1):
            out = [0] * order
            _convolve_into(out, pw[-1], g_nz)
            pw.append(out)
        gk_nz = _nonzero(pw[k], order)
        # Giant steps, block b = blocks-1 .. 0: with r = blocks-1-b,
        # acc = df d^(k-1+rk) sum_(i >= bk) f_i g(s x)^(i-bk), the block's
        # own terms f_(bk+j) g^j entering over d^(k-1-j) d^(rk).
        blocks = top // k + 1
        d_pow = [1]
        for _ in range(k):
            d_pow.append(d_pow[-1] * d)
        acc = []
        for b in range(blocks - 1, -1, -1):
            n = order - b * k * vg
            new = [0] * n
            if acc:
                _convolve_into(new, acc, gk_nz)
            scale = d_pow[k] ** (blocks - 1 - b)
            for j in range(min(k, top + 1 - b * k)):
                c = fn[b * k + j] * d_pow[k - 1 - j] * scale
                if c:
                    lo, hi = j * vg, min(n, len(pw[j]))
                    new[lo:hi] = [x + c * y for x, y in zip(new[lo:hi], pw[j][lo:hi])]
            acc = new
        # coefficient m is acc[m] / (den s^m): over den s^(order-1), it
        # takes s^(order-1-m)
        den = df * d_pow[k - 1] * d_pow[k] ** (blocks - 1)
        if s > 1:
            up = 1
            for m in range(order - 1, -1, -1):
                acc[m] *= up
                up *= s
            den *= up // s
        return _reduced(acc, den, 0)

    def revert(self) -> "RationalSeries":
        """Compositional inverse: returns b with self(b(x)) = x = b(self(x)).

        Requires zero constant term and a nonzero linear coefficient.
        Newton's iteration b <- b - (f(b) - x) / f'(b), from b = x / f_1,
        doubles the number of exact coefficients of b per round: if b is
        exact below x^m, f(b) - x is O(x^m), so 1/f'(b) is needed only below
        x^m, where the chain rule gives it as b' / f(b)' from the f(b) just
        composed.  A round from m to 2m is one composition at order 2m,
        ceil(log2(order)) - 1 compositions in all.
        """
        an, n = self._integer_frame()
        if n < 2 or an[0] != 0:
            raise SeriesError("reversion requires zero constant term")
        if an[1] == 0:
            raise SeriesError("reversion requires a nonzero linear coefficient")
        d = self._den
        f = _series(an, d, 0)
        b1, e = _lowest(d, an[1])
        b, m = _series((0, b1), e, 0), 2
        while m < n:
            top = min(2 * m, n)
            b = _series(b._num + (0,) * (top - m), b._den, 0)
            fb = f.truncate(top).compose(b)
            # by the chain rule, 1/f'(b) = b' / f(b)'
            inv_slope = _derivative(b, m) * _derivative(fb, m) ** -1
            # f(b) - x = O(x^m) is read from x^m on, so b keeps order top
            err = _reduced(fb._num[m:], fb._den, m)
            b, m = b - err * inv_slope, top
        return b


# -- generators -------------------------------------------------------------


def euler_product(m: int, order: int) -> RationalSeries:
    """prod_{n>=1} (1 - x^(m*n)) truncated at the given order."""
    if m < 1 or order < 1:
        raise SeriesError("euler_product requires m >= 1 and order >= 1")
    c = [0] * order
    c[0] = 1
    n = m
    while n < order:
        for i in range(order - 1 - n, -1, -1):
            if c[i]:
                c[i + n] -= c[i]
        n += m
    return _series(c, 1, 0)


def eta_product(m: int, e: int, order: int) -> RationalSeries:
    """q^(m*e/24) * prod_{n>=1} (1 - q^(m*n))^e, truncated at the given order.

    The prefactor is carried in the offset and must be an integer power, so
    24 must divide m*e: (m, e) = (4, 6) yields offset 1 and (1, -24) offset -1.
    """
    if m < 1:
        raise SeriesError("eta_product requires m >= 1")
    if order < 1:
        raise SeriesError("eta_product requires order >= 1")
    if m * e % 24:
        raise SeriesError(f"eta prefactor exponent {m * e}/24 is not an integer")
    return (euler_product(m, order) ** e).shifted(m * e // 24)
