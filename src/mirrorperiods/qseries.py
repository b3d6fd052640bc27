"""Exact truncated power series over Q, with a fractional leading exponent.

Coefficients are ``fractions.Fraction``.  A series knows its coefficients for
exponent shifts ``0 .. order-1`` relative to a leading exponent ``offset``;
everything beyond is *unknown*, not zero.  Binary operations compute the
tightest provable truncation, so identity checks downstream can assert exact
zero residuals instead of small ones.

The quadratic and cubic kernels (``*``, ``**``, ``reciprocal``, ``exp``,
``log``, ``compose`` and ``revert``) never add or multiply ``Fraction``s,
which would take a gcd per operation.  They work on integer numerators over
one common denominator: each operand is scaled once by the lcm of its
coefficient denominators, and the convolutions run on Python ints.  ``*``
and ``compose`` build the canonical ``Fraction``s once, at return;
``compose`` needs only about 2 sqrt(order) convolutions (baby steps and
giant steps) and first rescales its inner series so that small primes leave
its denominators.  The recurrences of ``**`` (Miller's, one pass for any
exponent), ``reciprocal``, ``exp``, ``log`` and ``revert`` make one
canonical ``Fraction`` per new coefficient and keep the terms found so far
over the lcm of their reduced denominators, so the integers stay as small as
the answer (1/varpi0 has 2-power denominators, lambda(q) integer
coefficients) instead of growing with powers of the input's common
denominator.  ``Fraction`` is canonical, so every result is identical to the
schoolbook ``Fraction`` computation; ``pow_rational`` is ``exp(r log)``.

The offset lives on the 1/24 grid, which is enough to carry the q^(1/24)
prefactor of eta products and the q^(-1) prefactor of their reciprocals.
General Puiseux series are deliberately out of scope.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]

OFFSET_GRID = 24  # admissible offset denominators divide this
# compose rescales its inner series to clear these primes from its
# denominators; any other prime stays on the common denominator
_RESCALE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


class SeriesError(ValueError):
    """Raised on precondition violations in series arithmetic."""


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise SeriesError(f"coefficients must be exact rationals, got {type(x).__name__}")


def _numerators(coeffs: Sequence[Fraction]) -> tuple[list[int], int]:
    """(nums, den) with coeffs[k] == nums[k] / den, den the lcm of the denominators."""
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _push(num: list[int], e: int, c: Fraction) -> int:
    """Append c to the numerators num over e and return the new common
    denominator: e grows to lcm(e, c.denominator), rescaling num, only when
    c needs it."""
    if e % c.denominator:
        grow = c.denominator // gcd(e, c.denominator)
        num[:] = [x * grow for x in num]
        e *= grow
    num.append(c.numerator * (e // c.denominator))
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


class RationalSeries:
    """Truncated series  sum_k coeffs[k] * x**(offset + k)  with k < order."""

    __slots__ = ("offset", "coeffs", "order")

    def __init__(self, coeffs: Iterable, offset: Scalar = 0, order: int | None = None):
        coeffs = tuple(_frac(c) for c in coeffs)
        if order is None:
            order = len(coeffs)
        if order < 0:
            raise SeriesError("order must be >= 0")
        if len(coeffs) < order:
            coeffs = coeffs + (Fraction(0),) * (order - len(coeffs))
        elif len(coeffs) > order:
            coeffs = coeffs[:order]
        off = _frac(offset)
        if OFFSET_GRID % off.denominator != 0:
            raise SeriesError(f"offset {off} is not on the 1/{OFFSET_GRID} grid")
        self.offset = off
        self.coeffs = coeffs
        self.order = order

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order: int, offset: Scalar = 0) -> "RationalSeries":
        return cls((), offset, order)

    @classmethod
    def one(cls, order: int) -> "RationalSeries":
        return cls((Fraction(1),), 0, order)

    @classmethod
    def identity(cls, order: int) -> "RationalSeries":
        """The series x."""
        return cls((Fraction(0), Fraction(1)), 0, order)

    # -- inspection --------------------------------------------------------

    def coefficient(self, exponent: Scalar) -> Fraction:
        """Coefficient of x**exponent; raises if beyond the known window."""
        shift = _frac(exponent) - self.offset
        if shift.denominator != 1:
            return Fraction(0)
        k = int(shift)
        if k < 0:
            return Fraction(0)
        if k >= self.order:
            raise SeriesError(f"coefficient of x^{exponent} is beyond truncation order")
        return self.coeffs[k]

    def valuation(self) -> int:
        """Shift of the first known nonzero coefficient (= order if all zero)."""
        for k, c in enumerate(self.coeffs):
            if c:
                return k
        return self.order

    def is_provably_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def max_abs_coefficient(self) -> Fraction:
        return max((abs(c) for c in self.coeffs), default=Fraction(0))

    # -- frame helpers -----------------------------------------------------

    def normalize(self) -> "RationalSeries":
        """Absorb known leading zeros into the offset."""
        v = self.valuation()
        if v == 0:
            return self
        return RationalSeries(self.coeffs[v:], self.offset + v, self.order - v)

    def truncate(self, order: int) -> "RationalSeries":
        if order > self.order:
            raise SeriesError("cannot extend a truncated series")
        return RationalSeries(self.coeffs[:order], self.offset, order)

    def shifted(self, delta: Scalar) -> "RationalSeries":
        """Multiply by x**delta."""
        return RationalSeries(self.coeffs, self.offset + _frac(delta), self.order)

    def _integer_frame(self) -> tuple[list[Fraction], int]:
        """Coefficient list indexed by absolute integer exponent, plus its length.

        Requires integer offset >= 0.  The returned list has length
        offset + order: exponents 0 .. offset+order-1 are known.
        """
        if self.offset.denominator != 1 or self.offset < 0:
            raise SeriesError(f"operation requires integer exponents >= 0, offset={self.offset}")
        pad = int(self.offset)
        return [Fraction(0)] * pad + list(self.coeffs), pad + self.order

    def substitute_power(self, k: int) -> "RationalSeries":
        """Substitute x -> x**k (k >= 1), e.g. to re-express a 2*pi*i*tau nome
        series in the exp(pi*i*tau) nome."""
        if k < 1:
            raise SeriesError("substitute_power requires k >= 1")
        coeffs = [Fraction(0)] * (k * (self.order - 1) + 1 if self.order else 0)
        for i, c in enumerate(self.coeffs):
            coeffs[k * i] = c
        return RationalSeries(coeffs, self.offset * k, k * self.order)

    # -- ring operations ---------------------------------------------------

    def _aligned(self, other: "RationalSeries"):
        diff = self.offset - other.offset
        if diff.denominator != 1:
            raise SeriesError(
                f"cannot align offsets {self.offset} and {other.offset} (non-integer gap)")
        d = int(diff)
        if d >= 0:
            a_pad, b_pad, off = d, 0, other.offset
        else:
            a_pad, b_pad, off = 0, -d, self.offset
        order = min(a_pad + self.order, b_pad + other.order)
        if order < 1:
            raise SeriesError("aligned truncation order fell below 1")
        a = [Fraction(0)] * a_pad + list(self.coeffs)
        b = [Fraction(0)] * b_pad + list(other.coeffs)
        return a, b, off, order

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RationalSeries((_frac(other),), 0, max(self.order, 1))
        if not isinstance(other, RationalSeries):
            return NotImplemented
        a, b, off, order = self._aligned(other)
        a += [Fraction(0)] * (order - len(a))
        b += [Fraction(0)] * (order - len(b))
        return RationalSeries([a[k] + b[k] for k in range(order)], off, order)

    __radd__ = __add__

    def __neg__(self):
        return RationalSeries([-c for c in self.coeffs], self.offset, self.order)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return self + (-_frac(other))
        if not isinstance(other, RationalSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _frac(other)
            return RationalSeries([c * a for a in self.coeffs], self.offset, self.order)
        if not isinstance(other, RationalSeries):
            return NotImplemented
        va, vb = self.valuation(), other.valuation()
        order = min(self.order + vb, other.order + va)
        if order < 1:
            raise SeriesError("product truncation order fell below 1")
        a, da = _numerators(self.coeffs[:order])
        b, db = _numerators(other.coeffs[:order])
        out = [0] * order
        _convolve_into(out, a, _nonzero(b, order))
        den = da * db
        return RationalSeries([Fraction(c, den) for c in out],
                              self.offset + other.offset, order)

    __rmul__ = __mul__

    def reciprocal(self) -> "RationalSeries":
        """Multiplicative inverse; the shift-0 coefficient must be nonzero."""
        if self.order < 1 or self.coeffs[0] == 0:
            raise SeriesError("reciprocal of a series with zero leading coefficient")
        # With a = A/d over integers and the known terms of 1/a held as O/e
        # (e the lcm of their reduced denominators), the next term is
        # -(sum_{j>=1} A_j O_{k-j}) / (A_0 e): one gcd per coefficient.
        n = self.order
        a, _ = _numerators(self.coeffs)
        a0 = a[0]
        tail = _nonzero(a, n)[1:]
        out = [Fraction(1) / self.coeffs[0]]
        num, e = [out[0].numerator], out[0].denominator
        for k in range(1, n):
            s = 0
            for j, aj in tail:
                if j > k:
                    break
                s += aj * num[k - j]
            c = Fraction(-s, a0 * e)
            out.append(c)
            e = _push(num, e, c)
        return RationalSeries(out, -self.offset, n)

    def __pow__(self, n: int):
        """self**n for an integer n, by J. C. P. Miller's recurrence (Knuth,
        TAOCP vol. 2, 4.7): one O(order^2) pass instead of log2(n) products.

        With self = x^v h(x), h_0 != 0, g = h^n satisfies g' h = n h' g,
        i.e. k h_0 g_k = sum_(1<=j<=k) ((n+1) j - k) h_j g_(k-j).  The
        result is what the product self * ... * self returns: n*v leading
        zeros, offset n*offset and order self.order + (n-1)*v.
        """
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.reciprocal() ** (-n)
        if n == 0:
            return RationalSeries.one(self.order)
        v = self.valuation()
        order = self.order + (n - 1) * v
        if v == self.order:
            if order < 1:
                raise SeriesError("product truncation order fell below 1")
            return RationalSeries.zero(order, n * self.offset)
        # With h = H/d over integers and g_0 .. g_(k-1) held as num/e,
        # g_k = (sum_j ((n+1) j - k) H_j num[k-j]) / (k H_0 e).
        h, _ = _numerators(self.coeffs[v:])
        h0, tail = h[0], _nonzero(h, len(h))[1:]
        out = [Fraction(0)] * (n * v) + [self.coeffs[v] ** n]
        num, e = [out[-1].numerator], out[-1].denominator
        for k in range(1, len(h)):
            s = 0
            for j, hj in tail:
                if j > k:
                    break
                s += ((n + 1) * j - k) * hj * num[k - j]
            c = Fraction(s, k * h0 * e)
            out.append(c)
            e = _push(num, e, c)
        return RationalSeries(out, n * self.offset, order)

    # -- calculus ----------------------------------------------------------

    def theta_derivative(self) -> "RationalSeries":
        """x*d/dx ("theta-operator mode"): multiplies each term by its exponent."""
        out = [(self.offset + k) * c for k, c in enumerate(self.coeffs)]
        return RationalSeries(out, self.offset, self.order)

    # -- transcendental / compositional ------------------------------------

    def exp(self) -> "RationalSeries":
        """exp of a series with zero constant term (integer exponents)."""
        a, n = self._integer_frame()
        if n < 1 or a[0] != 0:
            raise SeriesError("exp requires a zero constant term")
        # With a = A/d over integers and E_0 .. E_(k-1) held as num/e, the
        # recurrence k E_k = sum_j j a_j E_(k-j) gives
        # E_k = (sum_j j A_j num[k-j]) / (k d e).
        an, d = _numerators(a)
        ja = [(j, j * aj) for j, aj in _nonzero(an, n)]
        out = [Fraction(1)]
        num, e = [1], 1
        for k in range(1, n):
            s = 0
            for j, jaj in ja:
                if j > k:
                    break
                s += jaj * num[k - j]
            c = Fraction(s, k * d * e)
            out.append(c)
            e = _push(num, e, c)
        return RationalSeries(out, 0, n)

    def log(self) -> "RationalSeries":
        """log of a series with constant term 1 (integer exponents)."""
        a, n = self._integer_frame()
        if n < 1 or a[0] != 1:
            raise SeriesError("log requires constant term 1")
        # With a = A/d over integers and L_1 .. L_(k-1) held as num/e, the
        # recurrence k L_k = k a_k - sum_(j<k) (k-j) L_(k-j) a_j gives
        # L_k = (k A_k e - sum_j (k-j) A_j num[k-j]) / (k d e).
        an, d = _numerators(a)
        tail = _nonzero(an, n)[1:]
        out = [Fraction(0)]
        num, e = [0], 1
        for k in range(1, n):
            s = k * an[k] * e
            for j, aj in tail:
                if j >= k:
                    break
                s -= (k - j) * aj * num[k - j]
            c = Fraction(s, k * d * e)
            out.append(c)
            e = _push(num, e, c)
        return RationalSeries(out, 0, n)

    def pow_rational(self, r: Scalar) -> "RationalSeries":
        """Raise to an exact rational power; requires constant term 1."""
        return (self.log() * _frac(r)).exp()

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
        the denominators of g removes every prime of _RESCALE_PRIMES from
        those of g(s x): for t(lambda) = lambda^2 (1 - lambda)
        (1 - lambda/2)^(-4), s = 2 and the powers keep their natural size
        instead of carrying d^i for the common denominator d = 2^65 (at
        order 68).  f(g(s x)) is the series f(g(x)) evaluated at s x for
        every s, so any s >= 1 gives the same exact result; a denominator
        cofactor that is not rescaled stays on the common denominator.
        """
        f, nf = self._integer_frame()
        g, ng = inner._integer_frame()
        vg = next((i for i, c in enumerate(g) if c), ng)
        if vg == 0:
            raise SeriesError("composition requires inner constant term 0")
        order = min(vg * nf, ng)
        if order < 1:
            raise SeriesError("composition truncation order fell below 1")
        # Only f_0 .. f_top reach the window: g^i has valuation i*vg.
        top = min(nf - 1, (order - 1) // vg)
        fn, df = _numerators(f[:top + 1])
        g = g[:order]
        s = _clearing_scale([c.denominator for c in g])
        if s > 1:
            g = [c * s ** i for i, c in enumerate(g)]
        gn, d = _numerators(g)
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
        den = df * d_pow[k - 1] * d_pow[k] ** (blocks - 1)
        out = []
        for c in acc:
            out.append(Fraction(c, den))
            den *= s
        return RationalSeries(out, 0, order)

    def revert(self) -> "RationalSeries":
        """Compositional inverse: returns b with self(b(x)) = x = b(self(x)).

        Requires zero constant term and a nonzero linear coefficient.  Solved
        order by order: since b has valuation 1, the x^k coefficient of b^j
        for j >= 2 only involves b_1 .. b_{k-1}, so each new b_k appears
        linearly through the a_1 * b term.  The power table costs O(order^3)
        products: [x^k] b^j = sum_(i>=1) b_i [x^(k-i)] b^(j-1) is one
        sum(map(mul, ...)) of a slice of b against a reversed slice of the
        row for b^(j-1); zero b_i cost a product by zero.
        """
        a, n = self._integer_frame()
        if n < 2 or a[0] != 0:
            raise SeriesError("reversion requires zero constant term")
        if a[1] == 0:
            raise SeriesError("reversion requires a nonzero linear coefficient")
        # With a = A/d over integers, pw[j][m] = [x^m] b(x)^j is held as
        # p[j][m] / e^j and b_i as bn[i] / e, where e is the lcm of the reduced
        # denominators of b_1 .. b_{k-1}; a new b_k that needs a larger e
        # rescales the rows.  Then b_k = -(sum_j A_j e^(k-j) p[j][k]) / (A_1 e^k).
        an, d = _numerators(a)
        a_nz = [(j, aj) for j, aj in _nonzero(an, n) if j >= 2]
        b = [Fraction(0), Fraction(d, an[1])]
        e = b[1].denominator
        bn = [0, b[1].numerator]
        p = [[0] * n for _ in range(n)]
        p[0][0] = 1
        p[1][1] = bn[1]
        for k in range(2, n):
            for j in range(2, k + 1):
                row = p[j - 1]
                p[j][k] = sum(map(mul, bn[1:k - j + 2], row[k - 1:j - 2:-1]))
            e_pow = [1]
            for _ in range(k):
                e_pow.append(e_pow[-1] * e)
            s = sum(aj * p[j][k] * e_pow[k - j] for j, aj in a_nz if j <= k)
            bk = Fraction(-s, an[1] * e_pow[k])
            b.append(bk)
            if e % bk.denominator:
                grow = bk.denominator // gcd(e, bk.denominator)
                bn = [x * grow for x in bn]
                scale = 1
                for j in range(1, k + 1):
                    scale *= grow
                    p[j] = [x * scale for x in p[j]]
                e *= grow
            bn.append(bk.numerator * (e // bk.denominator))
            p[1][k] = bn[k]
        return RationalSeries(b, 0, n)


# -- generators -------------------------------------------------------------


def euler_product(m: int, order: int) -> RationalSeries:
    """prod_{n>=1} (1 - x^(m*n)) truncated at the given order."""
    if m < 1 or order < 1:
        raise SeriesError("euler_product requires m >= 1 and order >= 1")
    c = [Fraction(0)] * order
    c[0] = Fraction(1)
    n = m
    while n < order:
        for i in range(order - 1 - n, -1, -1):
            if c[i]:
                c[i + n] -= c[i]
        n += m
    return RationalSeries(c, 0, order)


def eta_product(m: int, e: int, order: int) -> RationalSeries:
    """q^(m*e/24) * prod_{n>=1} (1 - q^(m*n))^e, truncated at the given order.

    The fractional prefactor is carried in the offset, so e.g. (m, e) = (4, 6)
    yields offset 1 and (1, -24) yields offset -1.
    """
    if m < 1:
        raise SeriesError("eta_product requires m >= 1")
    if order < 1:
        raise SeriesError("eta_product requires order >= 1")
    offset = Fraction(m * e, 24)
    if OFFSET_GRID % offset.denominator != 0:
        raise SeriesError(f"eta prefactor exponent {offset} leaves the 1/24 grid")
    if e == 0:
        return RationalSeries((Fraction(1),), 0, order)
    body = euler_product(m, order) ** e
    return RationalSeries(body.coeffs, offset + body.offset, body.order)
