from fractions import Fraction as F
from math import gcd, isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (brute_euler_power, is_provably_zero, long_division_reciprocal,
                     reference_compose, reference_exp, reference_log, reference_mul,
                     reference_pow, reference_reciprocal, reference_revert)
from mirrorperiods import qseries
from mirrorperiods.qseries import (RationalSeries, SeriesError, eta_product,
                                   euler_product)


def series(coeffs, offset=0, order=None):
    return RationalSeries(coeffs, offset, order)


# ---------------------------------------------------------------------------
# arithmetic examples
# ---------------------------------------------------------------------------


def test_difference_of_squares():
    one = RationalSeries.one(8)
    x = RationalSeries.identity(8)
    p = (one + x) * (one - x)
    assert p.coefficient(0) == 1 and p.coefficient(2) == -1
    assert all(p.coefficient(k) == 0 for k in (1, 3, 4, 5, 6, 7))


def test_reciprocal_geometric():
    r = (RationalSeries.one(5) - RationalSeries.identity(5)).reciprocal()
    assert list(r.coeffs) == [F(1)] * 5


def test_reciprocal_of_eta24_body_against_long_division():
    # oracle: literal product prod_{n<=8}(1-q^n)^24 and schoolbook division
    order = 9
    body = brute_euler_power(24, 8, order)
    oracle = long_division_reciprocal(body, order)
    mine = euler_product(1, order).__pow__(24).reciprocal()
    assert list(mine.coeffs) == oracle
    assert oracle[:4] == [F(1), F(24), F(324), F(3200)]


def test_reciprocal_requires_nonzero_leading():
    with pytest.raises(SeriesError):
        RationalSeries.identity(4).reciprocal()


def test_division_and_integer_powers():
    x = RationalSeries.identity(10)
    one = RationalSeries.one(10)
    a = one + x * 3 - x ** 2
    assert is_provably_zero((a * a.reciprocal()) - one)
    assert is_provably_zero((a ** 3) - a * a * a)
    assert is_provably_zero((a ** -2) * a * a - one)


def test_order_mismatch_below_one():
    a = RationalSeries.one(1)
    b = RationalSeries.zero(0)  # no known coefficients at all
    with pytest.raises(SeriesError):
        _ = a + b


# ---------------------------------------------------------------------------
# exp / log
# ---------------------------------------------------------------------------


def test_exp_of_zero():
    z = RationalSeries.zero(6)
    assert is_provably_zero(z.exp() - RationalSeries.one(6))


def test_log_mercator():
    l = (RationalSeries.one(5) + RationalSeries.identity(5)).log()
    assert list(l.coeffs) == [F(0), F(1), F(-1, 2), F(1, 3), F(-1, 4)]


def test_exp_log_roundtrip():
    a = series([0, 1, F(1, 3), F(-2, 7), 0, F(5, 11)], order=12)
    assert is_provably_zero(a.exp().log() - a)
    b = series([1, F(2, 5), F(-1, 4)], order=12)
    assert is_provably_zero(b.log().exp() - b)


def test_exp_precondition():
    with pytest.raises(SeriesError):
        RationalSeries.one(4).exp()
    with pytest.raises(SeriesError):
        series([0, 1], offset=-1, order=4).exp()


def test_exp_of_h_over_varpi0():
    # independent term-by-term oracle:
    #   h/varpi0 = lam/2 + 13 lam^2/64 + O(lam^3)
    #   exp(...) = 1 + lam/2 + (13/64 + 1/8) lam^2 = 1 + lam/2 + 21 lam^2/64
    # and the same computed at two truncation orders must agree.
    from mirrorperiods.hyperfun import frobenius_series
    from mirrorperiods.periods import LEGENDRE
    for order in (8, 16):
        varpi0, h = frobenius_series(LEGENDRE, order, 2)
        e = (h * varpi0.reciprocal()).exp()
        assert e.coefficient(0) == 1
        assert e.coefficient(1) == F(1, 2)
        assert e.coefficient(2) == F(21, 64)


# ---------------------------------------------------------------------------
# reversion
# ---------------------------------------------------------------------------


def test_revert_identity():
    x = RationalSeries.identity(6)
    assert is_provably_zero(x.revert() - x)


def test_revert_catalan():
    # fixed-point oracle for q = lam - lam^2: iterate lam <- q + lam^2
    order = 7
    lam = [F(0)] * order
    for _ in range(order):
        sq = [F(0)] * order
        for i in range(order):
            for j in range(order - i):
                sq[i + j] += lam[i] * lam[j]
        lam = [sq[k] + (1 if k == 1 else 0) for k in range(order)]
    mine = series([0, 1, -1], order=order).revert()
    assert list(mine.coeffs) == lam
    assert lam[1:5] == [F(1), F(1), F(2), F(5)]


def test_revert_preconditions():
    with pytest.raises(SeriesError):
        RationalSeries.one(5).revert()
    with pytest.raises(SeriesError):
        series([0, 0, 1], order=5).revert()


# ---------------------------------------------------------------------------
# eta products
# ---------------------------------------------------------------------------


def test_eta_product_weight3_newform():
    e = eta_product(4, 6, 20)
    assert e.offset == 1
    # oracle: brute-force prod_{n<=5}(1-x^n)^6 in x = q^4
    body = brute_euler_power(6, 5, 5)
    for k in range(5):
        assert e.coefficient(1 + 4 * k) == body[k]
    assert [e.coefficient(1 + 4 * k) for k in range(5)] == [1, -6, 9, 10, -30]


def test_eta_product_trivial_exponent():
    e = eta_product(1, 0, 7)
    assert e.offset == 0 and is_provably_zero(e - RationalSeries.one(7))


def test_eta_product_inverse_discriminant():
    e = eta_product(1, -24, 5)
    assert e.offset == -1
    assert list(e.coeffs) == [F(1), F(24), F(324), F(3200), F(25650)]


@pytest.mark.parametrize("e, m", [(6, 4), (-6, 4), (24, 1), (-24, 1), (24, 4), (-24, 4)])
def test_eta_product_times_inverse(e, m):
    a = eta_product(m, e, 14)
    b = eta_product(m, -e, 14)
    assert is_provably_zero((a * b) - RationalSeries.one(10))


def test_non_integer_exponents_refused():
    s = series([1, 2, 3], offset=-1)
    refused = [lambda: RationalSeries([1], offset=F(1, 5)),
               lambda: RationalSeries.from_numerators([1, 2], 1, F(-1, 24)),
               lambda: RationalSeries.zero(3, F(3, 2)),
               lambda: s.shifted(F(1, 24)),
               lambda: s.coefficient(F(1, 2)),
               lambda: eta_product(1, 1, 5),
               lambda: eta_product(2, 6, 5)]
    for build in refused:
        with pytest.raises(SeriesError):
            build()
    whole = RationalSeries([1], offset=F(-2))
    assert type(whole.offset) is int and whole.offset == -2
    assert type(s.shifted(F(3)).offset) is int and s.coefficient(F(1)) == 3


# ---------------------------------------------------------------------------
# calculus, offsets and substitution
# ---------------------------------------------------------------------------


def test_theta_derivative_acts_on_exponents():
    s = eta_product(1, -24, 4)  # offset -1
    t = s.theta_derivative()
    assert t.coefficient(-1) == -1
    assert t.coefficient(0) == 0
    assert t.coefficient(1) == 324


def test_substitute_power_doubles_exponents():
    s = series([1, 2, 3], offset=-1, order=3)
    t = s.substitute_power(2)
    assert t.offset == -2
    assert t.coefficient(-2) == 1 and t.coefficient(0) == 2 and t.coefficient(2) == 3
    assert t.coefficient(-1) == 0 and t.coefficient(1) == 0


def test_pow_rational_binomial():
    s = (RationalSeries.one(6) - RationalSeries.identity(6)).pow_rational(F(-1, 4))
    assert list(s.coeffs[:4]) == [F(1), F(1, 4), F(5, 32), F(15, 128)]


@pytest.mark.parametrize("base", [series([0, 1, 2]),             # leading zero
                                  series([1, 2], offset=1),       # nonzero offset
                                  series([2, 1]),                 # constant term 2
                                  RationalSeries.zero(0)])        # nothing known
def test_rational_power_needs_constant_term_one(base):
    with pytest.raises(SeriesError):
        base ** F(1, 2)


@pytest.mark.parametrize("n", [39, 70])
def test_revert_inverts_q_of_lambda(n):
    # the orders the battery and the exact-series benchmark reach
    from mirrorperiods.periods import q_of_lambda_series
    q = q_of_lambda_series(n)
    lam = q.revert()
    x = RationalSeries.identity(lam.order)
    assert lam.order == n + 1 and lam.coefficient(1) == 16
    assert is_provably_zero(q.compose(lam) - x)
    assert is_provably_zero(lam.compose(q) - x)


# ---------------------------------------------------------------------------
# properties (hypothesis)
# ---------------------------------------------------------------------------

# Numerators and denominators are drawn separately, so coprime denominators
# up to 60 meet in one series and its common denominator grows large; zeros
# are drawn often, so the kernels' zero-skipping paths run.
rationals = st.builds(F, st.integers(-60, 60), st.integers(1, 60))
coefficients = st.one_of(st.just(F(0)), rationals)
int_offsets = st.integers(-3, 3)


@st.composite
def _series_strategy(draw, orders=(1, 12), offsets=st.just(0), leading_zeros=(0, 0)):
    order = draw(st.integers(*orders))
    zeros = min(draw(st.integers(*leading_zeros)), order)
    body = draw(st.lists(coefficients, min_size=order - zeros, max_size=order - zeros))
    return RationalSeries([F(0)] * zeros + body, draw(offsets), order)


def _assert_lowest_terms(r):
    """r's numerators over its denominator are the minimal int form: one
    numerator per known coefficient, den > 0, gcd(den, *num) = 1, and the
    constructor rebuilds the same ints from r's Fractions."""
    assert r._den > 0 and gcd(r._den, *r._num) == 1
    assert len(r._num) == r.order
    rebuilt = RationalSeries(r.coeffs, r.offset, r.order)
    assert (rebuilt._num, rebuilt._den) == (r._num, r._den)


def _matches_reference(kernel, reference, *args):
    """kernel(*args) equals the schoolbook reference in coefficients, order
    and offset, or both refuse with SeriesError; its int form is minimal."""
    try:
        coeffs, offset, order = reference(*args)
    except SeriesError:
        with pytest.raises(SeriesError):
            kernel(*args)
        return
    got = kernel(*args)
    assert all(type(c) is F for c in got.coeffs)
    assert (list(got.coeffs), got.offset, got.order) == (coeffs, offset, order)
    _assert_lowest_terms(got)


@given(a=_series_strategy(), b=_series_strategy(), c=_series_strategy())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert is_provably_zero(((a + b) + c) - (a + (b + c)))
    assert is_provably_zero((a + b) - (b + a))
    assert is_provably_zero((a * b) - (b * a))
    assert is_provably_zero(((a * b) * c) - (a * (b * c)))
    assert is_provably_zero((a * (b + c)) - (a * b + a * c))


@given(tail=st.lists(coefficients, min_size=0, max_size=11), p=st.integers(-7, 7),
       q=st.integers(2, 6))
@example(tail=[F(-1, 2)], p=-1, q=2)                                  # (1 - x/2)^(-1/2)
@example(tail=[F(7, 59), 0, F(-3, 53), F(1, 43)] * 2, p=5, q=3)
@settings(max_examples=100, deadline=None)
def test_rational_power_to_the_denominator(tail, p, q):
    # (s^(p/q))^q = s^p exactly, for s = 1 + O(x): both sides by Miller's
    # recurrence, with no exp/log reference
    s = RationalSeries([1] + tail)
    root, power = (s ** F(p, q)) ** q, s ** p
    assert (root._num, root._den, root.offset, root.order) == \
        (power._num, power._den, power.offset, power.order)


@given(a1=rationals.filter(bool), tail=st.lists(rationals, min_size=0, max_size=10))
@settings(max_examples=100, deadline=None)
def test_revert_two_sided_inverse(a1, tail):
    n = 2 + len(tail)
    a = RationalSeries([F(0), a1] + tail, 0, n)
    b = a.revert()
    x = RationalSeries.identity(n)
    assert is_provably_zero(a.compose(b) - x)
    assert is_provably_zero(b.compose(a) - x)


@given(a=_series_strategy(leading_zeros=(0, 3)), b=_series_strategy(leading_zeros=(0, 3)))
@settings(max_examples=40, deadline=None)
def test_mul_respects_truncation_window(a, b):
    p = a * b
    assert p.order >= 1
    # recompute one known coefficient by direct convolution
    k = p.order - 1
    direct = sum(a.coeffs[i] * b.coeffs[k - i]
                 for i in range(max(0, k - b.order + 1), min(k + 1, a.order)))
    assert p.coeffs[k] == direct


# ---------------------------------------------------------------------------
# integer-numerator kernels against the schoolbook Fraction references
# ---------------------------------------------------------------------------

_mul_operands = _series_strategy(offsets=int_offsets, leading_zeros=(0, 3))


@given(a=_mul_operands, b=_mul_operands)
@example(a=RationalSeries([0, 0, F(1, 59)], -3, 3),
         b=RationalSeries([F(7, 53), F(-1, 47)], 1, 2))
@settings(max_examples=150, deadline=None)
def test_mul_matches_reference(a, b):
    _matches_reference(RationalSeries.__mul__, reference_mul, a, b)


@given(a=_series_strategy(offsets=int_offsets, leading_zeros=(0, 1)))
@example(a=RationalSeries([F(-59, 7), F(1, 53), 0, F(3, 43)], -1, 4))
@settings(max_examples=150, deadline=None)
def test_reciprocal_matches_reference(a):
    _matches_reference(RationalSeries.reciprocal, reference_reciprocal, a)


@given(a=_series_strategy(orders=(1, 12), offsets=int_offsets, leading_zeros=(0, 3)),
       n=st.integers(-3, 8))
@example(a=RationalSeries([F(-3, 7)], 2, 1), n=8)                       # order 1
@example(a=RationalSeries.zero(4, -1), n=5)                             # all-zero window
@example(a=RationalSeries([0, 0, 0, F(2, 59), F(-1, 53), 1], 1, 6), n=7)  # valuation 3
@example(a=RationalSeries([F(1, 2), 0, F(-5, 9)], -3, 3), n=-3)
@example(a=RationalSeries([0, 1, 2], 0, 3), n=-1)                       # refused
@example(a=RationalSeries((), 0, 0), n=-2)                              # refused
@settings(max_examples=150, deadline=None)
def test_pow_matches_reference(a, n):
    _matches_reference(RationalSeries.__pow__, reference_pow, a, n)


# inner series g_k = 1/2^k (rescaled by s = 2), and an outer series known to
# x^29; its truncations give top = nf - 1 at the square boundaries of k
_HALVES = [F(0)] + [F(1, 2 ** k) for k in range(1, 30)]
_OUTER = [F((-1) ** i * (i + 2), 2 * i + 1) for i in range(30)]


@given(f=_series_strategy(orders=(0, 12), offsets=st.integers(0, 2)),
       g=_series_strategy(orders=(0, 12), offsets=st.integers(0, 1), leading_zeros=(0, 3)))
@example(f=RationalSeries((), 0, 0), g=RationalSeries([0, 1], 0, 2))       # order-0 outer
@example(f=RationalSeries((), 0, 0), g=RationalSeries.zero(3, 1))         # ... and zero inner
@example(f=RationalSeries((), 0, 5), g=RationalSeries([0, 0, 1], 0, 6))   # empty outer
@example(f=RationalSeries([1, F(2, 59), F(-3, 7)], 0, 3),
         g=RationalSeries([0, 0, F(5, 53), F(1, 2)], 1, 4))               # inner valuation 3
@example(f=RationalSeries(_OUTER), g=RationalSeries(_HALVES))             # s = 2, valuation 1
@example(f=RationalSeries(_OUTER), g=RationalSeries([0, 0] + _HALVES[2:]))  # s = 2, valuation 2
@example(f=RationalSeries(_OUTER),
         g=RationalSeries([0, F(1, 15), F(-2, 9), F(4, 45), 3], 0, 20))   # s = 3 * 5
@example(f=RationalSeries(_OUTER),
         g=RationalSeries([0, F(1, 10007), F(-3, 10007), 2], 0, 20))      # 10007 stays on d
@example(f=RationalSeries(_OUTER[:1]), g=RationalSeries(_HALVES))         # top = 0
@example(f=RationalSeries(_OUTER[:2]), g=RationalSeries(_HALVES))         # top = 1
@example(f=RationalSeries(_OUTER[:3]), g=RationalSeries(_HALVES))         # top = 2
@example(f=RationalSeries(_OUTER[:4]), g=RationalSeries(_HALVES))         # top = 3
@example(f=RationalSeries(_OUTER[:5]), g=RationalSeries(_HALVES))         # top = 4
@example(f=RationalSeries(_OUTER[:10]), g=RationalSeries(_HALVES))        # top = 9
@settings(max_examples=150, deadline=None)
def test_compose_matches_reference(f, g):
    _matches_reference(RationalSeries.compose, reference_compose, f, g)


@given(a=_series_strategy(orders=(1, 12), offsets=st.integers(0, 1)),
       a1=rationals.filter(bool))
@example(a=RationalSeries([0], 0, 1), a1=F(1))
@settings(max_examples=100, deadline=None)
def test_revert_matches_reference(a, a1):
    # usually put a_0 = 0 and a_1 != 0 in place; the draws that keep other
    # leading terms exercise the refusals
    if a.offset == 0 and a.order >= 2 and a.coeffs[0] == 0:
        a = RationalSeries([F(0), a1] + list(a.coeffs[2:]), 0, a.order)
    _matches_reference(RationalSeries.revert, reference_revert, a)


@given(a=_series_strategy(orders=(1, 12), offsets=st.integers(0, 2), leading_zeros=(0, 3)),
       keep_constant=st.sampled_from([False, False, False, True]))
@example(a=RationalSeries([0, F(1, 59), 0, F(-7, 53), F(3, 43)], 0, 5), keep_constant=False)
@example(a=RationalSeries([F(1, 2)], 0, 1), keep_constant=True)           # refused
@example(a=RationalSeries([F(1, 2)], -1, 1), keep_constant=True)         # refused
@settings(max_examples=150, deadline=None)
def test_exp_matches_reference(a, keep_constant):
    # usually put a_0 = 0 in place; the draws that keep it exercise the refusal
    if not keep_constant and a.offset == 0:
        a = RationalSeries([F(0)] + list(a.coeffs[1:]), 0, a.order)
    _matches_reference(RationalSeries.exp, reference_exp, a)


@given(a=_series_strategy(orders=(1, 12), offsets=st.integers(0, 1)),
       keep_constant=st.sampled_from([False, False, False, True]))
@example(a=RationalSeries([1, F(-1, 59), 0, 0, F(7, 53), F(-3, 43)], 0, 6), keep_constant=True)
@example(a=RationalSeries([F(2, 3), 1], 0, 2), keep_constant=True)       # refused
@settings(max_examples=150, deadline=None)
def test_log_matches_reference(a, keep_constant):
    # usually put a_0 = 1 in place; the draws that keep it exercise the refusal
    if not keep_constant and a.offset == 0:
        a = RationalSeries([F(1)] + list(a.coeffs[1:]), 0, a.order)
    _matches_reference(RationalSeries.log, reference_log, a)


def _reference_pow_rational(a, r):
    coeffs, offset, order = reference_log(a)
    return reference_exp(RationalSeries([c * r for c in coeffs], offset, order))


def test_exp_log_at_paper_scale_match_reference():
    # exp(h/varpi0) as in q(lambda) at order 81, and the (1 - z)^(-1/4) and
    # (1 - z/2)^(-1/2) prefactors of QT1-QT3 at order 61
    from mirrorperiods.hyperfun import frobenius_series
    from mirrorperiods.periods import LEGENDRE
    varpi0, h = frobenius_series(LEGENDRE, 81, 2)
    ratio = h * varpi0.reciprocal()
    _matches_reference(RationalSeries.exp, reference_exp, ratio)
    z, one = RationalSeries.identity(61), RationalSeries.one(61)
    for base, r in ((one - z, F(-1, 4)), (one - z * F(1, 2), F(-1, 2))):
        _matches_reference(RationalSeries.log, reference_log, base)
        _matches_reference(lambda s: s.pow_rational(r),
                           lambda s: _reference_pow_rational(s, r), base)


def test_kernels_at_paper_scale_match_reference():
    # the real operands: lambda(q) by reversion of q(lambda), compositions
    # with it and with QT3's t(z) = z^2 (1-z) (1-z/2)^(-4), whose
    # denominators are 2-powers, and the reciprocal of varpi0
    from mirrorperiods.hyperfun import hyp2f1_series
    from mirrorperiods.periods import (q_of_lambda_series, quad_transform_series,
                                       varpi0_series)
    order = 24
    q = q_of_lambda_series(order)
    lam = q.revert()
    _matches_reference(RationalSeries.revert, reference_revert, q)
    _matches_reference(RationalSeries.compose, reference_compose, varpi0_series(order), lam)
    _matches_reference(RationalSeries.compose, reference_compose,
                       hyp2f1_series(F(1, 8), F(3, 8), 30), quad_transform_series(30))
    _matches_reference(RationalSeries.reciprocal, reference_reciprocal, varpi0_series(order))
    _matches_reference(RationalSeries.__mul__, reference_mul, lam, varpi0_series(order))


# ---------------------------------------------------------------------------
# work guards: operation counts, not timings
# ---------------------------------------------------------------------------


def _counting(monkeypatch, owner, name):
    calls = []
    inner = getattr(owner, name)

    def counted(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_compose_takes_square_root_many_convolutions(monkeypatch):
    # baby steps and giant steps: at most 2 ceil(sqrt(top)) + 1 convolutions,
    # against top for plain Horner in g
    from mirrorperiods.hyperfun import hyp2f1_series
    from mirrorperiods.periods import lambda_q_series, quad_transform_series, varpi0_series
    order = 68
    cases = [(varpi0_series(order), lambda_q_series(order), 67),          # 15 calls
             (hyp2f1_series(F(1, 8), F(3, 8), order), quad_transform_series(order), 33)]  # 10
    calls = _counting(monkeypatch, qseries, "_convolve_into")
    for outer, inner, top in cases:
        calls.clear()
        outer.compose(inner)
        assert 0 < len(calls) <= 2 * (isqrt(top - 1) + 1) + 1


def test_revert_takes_logarithmically_many_compositions(monkeypatch):
    # Newton over compose: one composition per doubling round, and the
    # order-70 frame of q(lambda) takes ceil(log2(70)) - 1 = 6 rounds
    from mirrorperiods.periods import q_of_lambda_series
    q = q_of_lambda_series(69)
    calls = _counting(monkeypatch, RationalSeries, "compose")
    q.revert()
    assert len(calls) == (70 - 1).bit_length() - 1


def test_pow_rational_takes_no_exp_or_log(monkeypatch):
    z, one = RationalSeries.identity(68), RationalSeries.one(68)
    calls = [_counting(monkeypatch, RationalSeries, name) for name in ("exp", "log")]
    (one - z).pow_rational(F(-1, 4))
    (one - z * F(1, 2)).pow_rational(F(-1, 2))
    assert calls == [[], []]


def test_pow_makes_no_products(monkeypatch):
    from mirrorperiods.periods import _pi0_q
    pi0 = _pi0_q(68)
    lam = RationalSeries([0, 16, -128, 704], 0, 4)
    unit = RationalSeries([1, F(-1, 2), 3], 0, 4)
    eta = euler_product(1, 68)
    calls = _counting(monkeypatch, RationalSeries, "__mul__")
    for base, n in ((pi0, 6), (eta, 24), (lam, 2), (lam, 1), (unit, -3)):
        base ** n
    assert not calls


@pytest.mark.parametrize("name", ["_mirror_exact_residuals", "_qt1_residual",
                                  "_qt3_residual", "_bps_residual"])
def test_kernels_build_no_fraction_per_coefficient(monkeypatch, name):
    # the kernels run on int numerators over one denominator: the Fractions
    # an identity's residuals build (offsets, scalars) do not grow with the
    # order, where one per coefficient would triple them from 20 to 60
    from mirrorperiods import periods
    check = getattr(periods, name)
    real = F.__new__
    made = []

    def counting(cls, *args, **kwargs):
        made.append(1)
        return real(cls, *args, **kwargs)

    def fractions_made(order):
        for table in (periods.lambda_q_series, periods.varpi0_q_series):
            table.cache_clear()
        made.clear()
        with monkeypatch.context() as patch:
            patch.setattr(F, "__new__", counting)
            check(order)
        return len(made)

    low, high = fractions_made(20), fractions_made(60)
    assert 0 < high <= low
