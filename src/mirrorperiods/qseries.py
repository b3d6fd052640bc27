"""Exact truncated power series over Q, with a fractional leading exponent.

Coefficients are ``fractions.Fraction``.  A series knows its coefficients for
exponent shifts ``0 .. order-1`` relative to a leading exponent ``offset``;
everything beyond is *unknown*, not zero.  Binary operations compute the
tightest provable truncation, so identity checks downstream can assert exact
zero residuals instead of small ones.

The quadratic and cubic kernels (``*``, ``reciprocal``, ``exp``, ``log``,
``compose`` and ``revert``) never add or multiply ``Fraction``s, which would
take a gcd per operation.  They work on integer numerators over one common
denominator: each operand is scaled once by the lcm of its coefficient
denominators, and the convolutions run on Python ints.  ``*`` and
``compose`` build the canonical ``Fraction``s once, at return.  The
recurrences of ``reciprocal``, ``exp``, ``log`` and ``revert`` make one
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
from math import gcd, lcm
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]

OFFSET_GRID = 24  # admissible offset denominators divide this


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

    @classmethod
    def monomial(cls, exponent: Scalar, order: int, coeff: Scalar = 1) -> "RationalSeries":
        return cls((_frac(coeff),), exponent, order)

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

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.order > 6 else ""
        return f"RationalSeries(offset={self.offset}, order={self.order}, [{head}{tail}])"

    def __eq__(self, other):
        if not isinstance(other, RationalSeries):
            return NotImplemented
        return (self - other).is_provably_zero()

    __hash__ = None

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

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / _frac(other))
        if isinstance(other, RationalSeries):
            return self * other.reciprocal()
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.reciprocal() ** (-n)
        result = RationalSeries.one(self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- calculus ----------------------------------------------------------

    def derivative(self) -> "RationalSeries":
        """d/dx, acting exactly on the shifted exponents."""
        out = [(self.offset + k) * c for k, c in enumerate(self.coeffs)]
        return RationalSeries(out, self.offset - 1, self.order)

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
        """self(inner(x)); inner must have zero constant term."""
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
        gn, d = _numerators(g[:order])
        g_nz = _nonzero(gn, order)
        d_pow = [1]
        for _ in range(top):
            d_pow.append(d_pow[-1] * d)
        # Horner on acc_i = df * d^(top-i) * sum_{j>=i} f_j g^(j-i), kept
        # only to order - i*vg: later multiplication by g^i shifts it by i*vg.
        acc = [fn[top]]
        for i in range(top - 1, -1, -1):
            new = [0] * (order - i * vg)
            _convolve_into(new, acc, g_nz)
            new[0] += fn[i] * d_pow[top - i]
            acc = new
        den = df * d_pow[top]
        return RationalSeries([Fraction(c, den) for c in acc], 0, order)

    def revert(self) -> "RationalSeries":
        """Compositional inverse: returns b with self(b(x)) = x = b(self(x)).

        Requires zero constant term and a nonzero linear coefficient.  Solved
        order by order: since b has valuation 1, the x^k coefficient of b^j
        for j >= 2 only involves b_1 .. b_{k-1}, so each new b_k appears
        linearly through the a_1 * b term.
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
                p[j][k] = sum(bn[i] * row[k - i] for i in range(1, k - j + 2) if bn[i])
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
