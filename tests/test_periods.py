import random
from fractions import Fraction as F
from math import ceil, log2

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf

import mirrorperiods.hyperfun as hyperfun
import mirrorperiods.periods as periods
from helpers import (agm, hyp2f1, is_provably_zero, lambda_from_t, pi0_series,
                     reference_dwork_periods, reference_frobenius_series,
                     reference_legendre_jet, reference_series_terms, reference_w_series_t)
from mirrorperiods.hyperfun import (PrecisionError, _from_fixed, _to_fixed, as_mpc, exact_point,
                                   frobenius_series, working_precision)
from mirrorperiods.qseries import RationalSeries, SeriesError

DIGITS = 50


# ---------------------------------------------------------------------------
# exact series
# ---------------------------------------------------------------------------


def test_h_series_printed_coefficients():
    h = frobenius_series(periods.LEGENDRE, 4, 2)[1]
    assert [h.coefficient(k) for k in (1, 2, 3)] == [F(1, 2), F(21, 64), F(185, 768)]


def test_h_series_order_one():
    h = frobenius_series(periods.LEGENDRE, 2, 2)[1]
    assert h.coefficient(0) == 0 and h.coefficient(1) == F(1, 2)


@pytest.mark.parametrize("order", [1, 2, 40, 81])
def test_h_series_matches_recurrence_on_varpi0(order):
    # the eps^1 Frobenius slice runs the varpi0 coefficients along its own
    # loop; here they come from the 2F1 series, with R_m in its
    # two-coefficient form
    c = periods.varpi0_series(order + 1).coeffs
    g = [F(0)]
    for m in range(order - 1):
        r_m = (2 * m + 1) * c[m] - 2 * (m + 1) * c[m + 1]
        g.append((F(2 * m + 1, 2) ** 2 * g[m] + r_m) / F(m + 1) ** 2)
    h = frobenius_series(periods.LEGENDRE, order, 2)[1]
    assert (list(h.coeffs), h.offset, h.order) == (g, 0, order)


# every (upper parameters, mu) the package builds Frobenius series for
FROBENIUS_CASES = [(periods.LEGENDRE, 1), (periods.LEGENDRE, 2),
                   ((F(1, 4), F(1, 2), F(3, 4)), 3), ((F(1, 4), F(1, 4)), 1),
                   ((F(1, 8), F(3, 8)), 1)]


@pytest.mark.parametrize("order", [1, 2, 41, 69])
@pytest.mark.parametrize("upper, mu", FROBENIUS_CASES)
def test_frobenius_series_matches_fraction_reference(upper, mu, order):
    mine = frobenius_series(upper, order, mu)
    assert [(list(s.coeffs), s.offset, s.order) for s in mine] == \
        list(reference_frobenius_series(upper, order, mu))


@pytest.mark.parametrize("order", [1, 2, 48, 81])
def test_w_series_t_matches_harmonic_sums(order):
    # the eps-coefficients of the Frobenius series against the harmonic-sum
    # brackets summed directly
    for mine, ref in zip(periods.w_series_t(order), reference_w_series_t(order)):
        assert (mine.coeffs, mine.offset, mine.order) == (ref.coeffs, ref.offset, ref.order)


def test_h_series_coefficient_from_period_integral():
    """Fit h's lambda^4 coefficient from varpi1 evaluated by quadrature.

    varpi1 = -(1/pi i) * integral_lam^1 dx/sqrt(x(1-x)(x-lam)) gives
    h(lam) = -Q(lam) - varpi0(lam) (log lam - log 16) at 30 sample points;
    a Vandermonde solve on the smallest nine points then recovers the
    leading coefficients.  Q is integrated after x = lam + (1-lam) sin^2 th,
    which leaves 2/sqrt(lam + (1-lam) sin^2 th), smooth on [0, pi/2]; its
    value is pi/AGM(1, sqrt(lam)).
    """
    with mp.workdps(110):
        n = 30
        a = mp.matrix(n, n)
        b = mp.matrix(n, 1)
        for i in range(n):
            lam = mpf(i + 1) * mpf("0.004")
            q = mp.quad(lambda th: 2 / mp.sqrt(lam + (1 - lam) * mp.sin(th) ** 2),
                        [0, mp.pi / 2])
            assert abs(q - mp.pi / agm(1, mp.sqrt(lam), 110)) < mpf(10) ** -105
            w0 = periods.legendre_jet(lam, 60).varpi0
            b[i] = -q - w0 * (mp.log(lam) - mp.log(16))
            for k in range(1, n + 1):
                a[i, k - 1] = lam ** k
        sol = mp.lu_solve(a, b)
        h = frobenius_series(periods.LEGENDRE, 6, 2)[1]
        assert abs(sol[0] - mpf(1) / 2) < mpf(10) ** -25
        h4 = h.coefficient(4)
        assert abs(sol[3] - mpf(h4.numerator) / h4.denominator) < mpf(10) ** -20


def test_lambda_q_series_paper_coefficients():
    lam = periods.lambda_q_series(7)
    assert [lam.coefficient(k) for k in range(1, 7)] == \
        [16, -128, 704, -3072, 11488, -38400]
    assert lam.coefficient(0) == 0


def test_lambda_q_series_truncation_stable():
    lo = periods.lambda_q_series(12)
    hi = periods.lambda_q_series(24)
    for k in range(7, 11):
        assert lo.coefficient(k) == hi.coefficient(k)


def test_lambda_q_coefficients_divisible_by_16():
    lam = periods.lambda_q_series(40)
    for k in range(1, 40):
        c = lam.coefficient(k)
        assert c.denominator == 1 and int(c) % 16 == 0


def test_lambda_q_composed_with_q_of_lambda_is_identity():
    n = 24
    lam = periods.lambda_q_series(n)
    q = periods.q_of_lambda_series(n)
    comp = q.compose(lam.normalize())
    assert is_provably_zero(comp - RationalSeries.identity(comp.order))
    comp2 = lam.compose(q.normalize())
    assert is_provably_zero(comp2 - RationalSeries.identity(comp2.order))


def test_w0_u_series_leading_terms():
    # W0 in u = t/256 has the coefficients (4n)!/(n!)^4
    w0 = periods.w_series_t(3)[0]
    assert [c * 256 ** n for n, c in enumerate(w0.coeffs)] == [1, 24, 2520]


def test_pi0_series_constant_term():
    assert periods._pi0_q(6).coefficient(0) == 1


def test_pi0_of_lambda_q_matches_theta_side():
    n = 20
    lam = periods.lambda_q_series(n)
    lhs = pi0_series(n).compose(lam)
    one = RationalSeries.one(n)
    rhs = (one - lam * F(1, 2)) * periods.theta3_qseries(n) ** 4
    assert is_provably_zero(lhs - rhs)


@pytest.mark.parametrize("n", [9, 24, 38, 68])
def test_q_side_periods_equal_their_compositions(n):
    # composing with lambda(q) commutes with squaring and with the factor
    # 1 - lambda/2: same coefficients, same truncation order
    lam = periods.lambda_q_series(n)
    w0sq = periods.varpi0_q_series(n) ** 2
    pi0 = periods._pi0_q(n)
    for mine, old in ((periods.varpi0_q_series(n), periods.varpi0_series(n).compose(lam)),
                      (w0sq, (periods.varpi0_series(n) ** 2).compose(lam)),
                      (pi0, pi0_series(n).compose(lam))):
        assert (mine.coeffs, mine.offset, mine.order) == (old.coeffs, old.offset, old.order)


def test_one_lambda_composition_per_order(monkeypatch):
    # THETA-V, THETA-24, DLDTAU and DELTA-LAMBDA run at 30 + 8 and BPS at
    # 16 + 8: BPS truncates the order-38 composition, so one in all
    calls = []
    compose = RationalSeries.compose

    def counted(self, inner):
        calls.append(inner.order)
        return compose(self, inner)

    monkeypatch.setattr(RationalSeries, "compose", counted)
    periods.varpi0_q_series.cache_clear()
    for name in ("THETA-V", "THETA-24", "DLDTAU", "DELTA-LAMBDA", "BPS"):
        assert periods.check_identity(name).passed
    assert calls == [39]  # lambda(q) is known one term beyond its order


LARGEST_TABLES = ("q_of_lambda_series", "lambda_q_series", "varpi0_q_series")


def _clear_largest_tables():
    periods.lambda_q_series.cache_clear()
    periods.varpi0_q_series.cache_clear()


@pytest.mark.parametrize("name", LARGEST_TABLES)
def test_lower_order_is_a_truncation_of_the_largest_table(name, monkeypatch):
    # a lower order is the truncation of a higher one, and is the series a
    # fresh build at that order gives: same coefficients, offset and order.
    # lambda(q) and varpi0(lambda(q)) answer it from their largest table, so
    # q(lambda), which keeps no table, is built once for both orders
    builds = []
    build = periods.q_of_lambda_series
    monkeypatch.setattr(periods, "q_of_lambda_series",
                        lambda order: builds.append(order) or build(order))
    series = getattr(periods, name)
    _clear_largest_tables()
    high = series(30)
    low = series(12)
    assert builds == ([30, 12] if name == "q_of_lambda_series" else [31])
    if hasattr(series, "cache_info"):
        assert series.cache_info()[:2] == (1, 1)
    cut = high.truncate(high.order - 18)
    _clear_largest_tables()
    fresh = series(12)
    for other in (cut, fresh):
        assert (low.coeffs, low.offset, low.order) == (other.coeffs, other.offset, other.order)
    with pytest.raises(SeriesError):
        series(0)


def test_bps_series_expansion():
    s = periods.bps_series(5)
    assert s.offset == -1
    assert list(s.coeffs) == [F(1), F(24), F(324), F(3200), F(25650)]


# ---------------------------------------------------------------------------
# numeric periods
# ---------------------------------------------------------------------------


def test_varpi0_agm_oracle():
    # the textbook AGM and mpmath's 2F1, which sums no AGM
    jet = periods.legendre_jet(F(1, 2), DIGITS)
    with working_precision(DIGITS):
        oracle = 1 / agm(1, mp.sqrt(mpf("0.5")), DIGITS)
        assert abs(jet.varpi0 - oracle) < mpf(10) ** (-DIGITS + 8)
        assert abs(jet.varpi0 - mp.hyp2f1(0.5, 0.5, 1, 0.5)) < mpf(10) ** -(DIGITS + 12)


def test_tau_special_value_inside_disk():
    with working_precision(DIGITS):
        lam = 2 * mp.sqrt(2) - 2
    jet = periods.legendre_jet(lam, DIGITS)
    with working_precision(DIGITS):
        assert abs(jet.varpi1 / jet.varpi0 - mp.mpc(0, 1) / mp.sqrt(2)) < mpf(10) ** -30


def test_legendre_periods_preconditions():
    with pytest.raises(PrecisionError):
        periods.legendre_jet(0, DIGITS)
    with pytest.raises(PrecisionError):
        periods.legendre_jet(F(95, 100), DIGITS)


def test_quad_map_values():
    r = periods.quad_map(0, DIGITS)
    assert r.t == (0, 0)
    with working_precision(DIGITS):
        lam = 2 * mp.sqrt(2) - 2
    r = periods.quad_map(lam, DIGITS)
    with working_precision(DIGITS):
        assert abs(as_mpc(r.t) - 1) < mpf(10) ** (-DIGITS + 8)
        assert abs(r.psi - 1) < mpf(10) ** (-DIGITS + 8)
    pole = periods.quad_map(2, DIGITS)
    assert mp.isinf(pole.t) and pole.psi == 0


def test_quad_map_product_relation():
    rng = random.Random(3)
    with working_precision(DIGITS):
        for _ in range(6):
            lam = mpc(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            if abs(lam) < mpf("0.05"):
                continue
            r = periods.quad_map(lam, DIGITS)
            assert abs(as_mpc(r.t) * r.psi ** 4 - 1) < mpf(10) ** (-DIGITS + 10)


def test_quad_map_psi_is_the_principal_power():
    # psi = lam^(-1/2) (1-lam)^(-1/4) (1-lam/2) as mpmath's principal
    # powers take it, on the grids, beside the negative real axis and on it,
    # where lam^(-1/2) is -i |lam|^(-1/2); and t psi^4 = 1 with the exact t
    digits = 200
    with mp.workdps(digits + 30):
        points = [as_mpc(lam) for lam in periods.MIRROR_GRID + periods.W_PI_GRID]
        points += [r * mp.expjpi(sign * mpf("0.85")) for r in (mpf("0.05"), mpf("0.3"))
                   for sign in (1, -1)]
        points += [mpc(-r) for r in (mpf("0.05"), mpf("0.3"), mpf(3))]
        for lam in points:
            t, psi = periods.quad_map(lam, digits)
            ref = lam ** mpf("-0.5") * (1 - lam) ** mpf("-0.25") * (1 - lam / 2)
            assert abs(psi - ref) < mpf(10) ** -(digits + 5)
            assert abs(as_mpc(t) * psi ** 4 - 1) < mpf(10) ** -(digits + 10)


def test_lambda_from_t_small_branch():
    with working_precision(DIGITS):
        lam0 = mpf("0.07")
    t = periods.quad_map(lam0, DIGITS).t
    lam = lambda_from_t(t, DIGITS)
    with working_precision(DIGITS):
        assert abs(lam - lam0) < mpf(10) ** (-DIGITS + 8)


def _dwork_at_psi(psi, digits):
    """dwork_periods at an exact psi, with its exact t = psi^-4."""
    re, im = exact_point(psi)
    p2 = (re * re - im * im, 2 * re * im)
    p4 = (p2[0] ** 2 - p2[1] ** 2, 2 * p2[0] * p2[1])
    n = p4[0] ** 2 + p4[1] ** 2
    return periods.dwork_periods((p4[0] / n, -p4[1] / n), psi, digits)


def test_dwork_w0_is_square_of_2f1():
    dw = _dwork_at_psi(3, DIGITS)
    with working_precision(DIGITS):
        pi0 = hyp2f1(F(1, 8), F(3, 8), F(1), mpf(3) ** -4, DIGITS)
        assert abs(dw.w0 - pi0 ** 2) < mpf(10) ** (-DIGITS + 8)


def test_dwork_tau_equals_legendre_tau_at_psi_5():
    dw = _dwork_at_psi(5, DIGITS)
    lam = lambda_from_t(dw.t, DIGITS)
    jet = periods.legendre_jet(lam, DIGITS)
    with working_precision(DIGITS):
        assert abs(dw.tau - jet.varpi1 / jet.varpi0) < mpf(10) ** (-DIGITS + 15)


# The fixed-point series kernels against the mpmath references: every grid
# point of the mirror-map and W-PI checks, tiny |lambda| on and off the real
# axis, |lambda| near the 0.9 limit, and psi from huge to near the |psi^4|
# >= 1.2 limit.  The tolerance 10^-(digits+12) leaves 3 of the working
# precision's 15 guard digits: the kernels may lose no more than the
# references' own rounding, and without their guard bits they lose up to 9.
JET_POINTS = periods.MIRROR_GRID + periods.W_PI_GRID + [
    (F(1, 10 ** 8), F(0)), (F(0), F(1, 10 ** 30)),
    (F(9, 10), F(0)), (F(-63, 100), F(63, 100))]
# psi given directly, or as the psi of a grid lambda under quad_map
DWORK_POINTS = [("lambda", lam) for lam in periods.MIRROR_GRID + periods.W_PI_GRID] + [
    ("psi", (F(10 ** 6), F(0))), ("psi", (F(105, 100), F(0))), ("psi", (F(3, 4), F(3, 4)))]


def _assert_relative(new, ref, digits):
    with working_precision(digits):
        for a, b in zip(new, ref):
            assert abs(a - b) <= mpf(10) ** -(digits + 12) * abs(b)


@pytest.mark.parametrize("digits", [40, 200])
@pytest.mark.parametrize("lam", JET_POINTS)
def test_legendre_jet_matches_reference(lam, digits):
    _assert_relative(periods.legendre_jet(lam, digits),
                     reference_legendre_jet(lam, digits), digits)


@pytest.mark.parametrize("digits", [40, 200])
@pytest.mark.parametrize("lam", JET_POINTS)
def test_legendre_jet_at_exact_lambda_matches_mpc(lam, digits):
    # every lambda enters as its exact point, a Gaussian integer over its
    # denominator: an mpc, float or complex lambda gives the jet of its
    # exact binary value, and the rounded mpc the exact lambda's jet
    with working_precision(digits):
        rounded = as_mpc(lam)
    jet = _jet_or_error(rounded, digits)
    assert jet == _jet_or_error(exact_point(rounded), digits)
    if not isinstance(jet, str):
        _assert_relative(periods.legendre_jet(lam, digits), jet, digits)
    z = complex(float(lam[0]), float(lam[1]))
    for x in (z, z.real) if z.imag == 0 else (z,):
        assert _jet_or_error(x, digits) == _jet_or_error(exact_point(x), digits)


# lambda on the cut (-inf, 0], beside it, at |lambda| = 9/10 on the four
# axes, and tiny off both axes, where the jet carries 268 extra bits for 1/lam
EDGE_POINTS = [(F(-1, 3), F(0)), (F(-1, 2), F(0)), (F(-9, 10), F(0)),
               (F(-3, 10), F(1, 1000)), (F(-3, 10), F(-1, 1000)),
               (F(9, 10), F(0)), (F(0), F(9, 10)), (F(0), F(-9, 10)),
               (F(1, 10 ** 80), F(1, 10 ** 80))]


def _hyp2f1_jet(lam, digits):
    """The jet from mpmath's 2F1: varpi0 = 2F1(1/2, 1/2; 1; lam), varpi0' =
    2F1(3/2, 3/2; 2; lam)/4, and varpi1 = i varpi0(1 - lam), which is
    i K'(k)/K(k) varpi0, so varpi1' = -i varpi0'(1 - lam); mpmath's side of
    its cut [1, inf) at 1 - lam > 1 is the limit from Im lam > 0, as for
    the principal log and roots.  1 - lam keeps its digits at |lam| = 10^-80
    with 80 more digits.  mpmath's 2F1 near its cut (its gamma-function
    transformations at a = b) takes seconds at 1 - lam from 120 digits, and
    at 9/10 and 400 digits it first tabulates gamma coefficients for
    seconds, so the jet is cut short there: varpi0 and varpi0' at 120
    digits, varpi0 at 400, and nothing at 9/10 and 400."""
    abs2 = lam[0] ** 2 + lam[1] ** 2
    count = {40: 4, 120: 2, 400: int(lam != (F(9, 10), F(0)))}[digits]
    with mp.workdps(digits + 20 + (abs2.denominator // abs2.numerator).bit_length() // 6):
        z = as_mpc(lam)
        fields = (lambda: mp.hyp2f1(0.5, 0.5, 1, z), lambda: mp.hyp2f1(1.5, 1.5, 2, z) / 4,
                  lambda: mpc(0, 1) * mp.hyp2f1(0.5, 0.5, 1, 1 - z),
                  lambda: mpc(0, -1) * mp.hyp2f1(1.5, 1.5, 2, 1 - z) / 4)
        return [f() for f in fields[:count]]


@pytest.mark.parametrize("digits", [40, 120, 400])
@pytest.mark.parametrize("lam", EDGE_POINTS)
def test_legendre_jet_at_edge_points(lam, digits):
    # against the mpmath series, mpmath's 2F1 and the Wronskian
    # varpi0 varpi1' - varpi0' varpi1 = 1 / (pi i lam (1 - lam))
    jet = periods.legendre_jet(lam, digits)
    _assert_relative(jet, reference_legendre_jet(lam, digits), digits)
    _assert_relative(jet, _hyp2f1_jet(lam, digits), digits)
    with working_precision(digits):
        z = as_mpc(lam)
        wronskian = 1 / (mp.pi * mpc(0, 1) * z * (1 - z))
        w0, dw0, w1, dw1 = jet
        assert abs(w0 * dw1 - dw0 * w1 - wronskian) <= mpf(10) ** -(digits + 10) * abs(wronskian)


@pytest.mark.parametrize("prec", [200, 1500])
@pytest.mark.parametrize("lam", EDGE_POINTS)
def test_agm_matches_mpmath(lam, prec):
    # hyperfun._agm at the jet's b = sqrt(1 - lam) and b = sqrt(lam): M(1, b)
    # against mpmath's agm, which also takes principal roots, and S against
    # Legendre's relation E/K = 1 - c_0^2/2 - S with c_0^2 = 1 - b^2, to a
    # few units at the fixed-point scale 2^prec, for b as _agm gets it.  A
    # unit of the first root sqrt(b) is 1/sqrt|b| units of M, so a small b
    # costs log2(1/|b|)/2 bits (legendre_jet's extra bits for 1/lam cover
    # them); 1 - b^2 keeps its digits at |b|^2 ~ 2^-266 only with 300 more
    with mp.workprec(prec + 340):
        z = as_mpc(lam)
        for root in (mp.sqrt(1 - z), mp.sqrt(z)):
            b = (_to_fixed(root.real, prec), _to_fixed(root.imag, prec))
            m, s = (_from_fixed(*x, prec) for x in hyperfun._agm(b, prec))
            b = _from_fixed(*b, prec)
            k2 = 1 - b * b
            unit = mpf(2) ** -prec / mp.sqrt(min(abs(b), 1))
            assert abs(m - mp.agm(1, b)) <= 16 * unit
            assert abs(s - (1 - k2 / 2 - mp.ellipe(k2) / mp.ellipk(k2))) <= 32 * unit


@pytest.mark.parametrize("digits", [40, 120, 400])
def test_agm_ends_within_log2_precision_steps(digits, monkeypatch):
    # each of the jet's two AGMs takes at most ceil(log2 P) + 4 steps, one
    # root each, at its fixed-point precision P; a step beyond fails at once
    steps = []

    def counted_agm(b, prec):
        steps.append([0, ceil(log2(prec)) + 4])
        return agm_(b, prec)

    def counted_sqrt(x):
        if steps:
            steps[-1][0] += 1
            assert steps[-1][0] <= steps[-1][1], "the AGM ran past its step bound"
        return fsqrt(x)

    agm_, fsqrt = periods._agm, hyperfun._fsqrt
    monkeypatch.setattr(periods, "_agm", counted_agm)
    monkeypatch.setattr(hyperfun, "_fsqrt", counted_sqrt)
    for lam in EDGE_POINTS + periods.MIRROR_GRID:
        steps.clear()
        periods.legendre_jet(lam, digits)
        assert len(steps) == 2


def _jet_or_error(lam, digits):
    # |lambda| <= 0.9 is decided on the exact point: the float 0.9 and the
    # mpf 0.9 at 40 and 200 digits lie above 9/10, so both of their jets raise
    try:
        return periods.legendre_jet(lam, digits)
    except PrecisionError as exc:
        return str(exc)


@pytest.mark.parametrize("digits", [40, 200])
@pytest.mark.parametrize("kind, point", DWORK_POINTS)
def test_dwork_periods_matches_reference(kind, point, digits):
    if kind == "lambda":
        t, psi = periods.quad_map(point, digits)
        dw = periods.dwork_periods(t, psi, digits)
    else:
        psi, dw = point, _dwork_at_psi(point, digits)
    _assert_relative(dw, reference_dwork_periods(psi, digits), digits)


# lambda as a short Gaussian rational with 0 < |lambda| <= 0.3, or as the
# exact binary value of a random mpf point
_short_lambda = st.tuples(st.fractions(F(-3, 10), F(3, 10), max_denominator=64),
                          st.fractions(F(-3, 10), F(3, 10), max_denominator=64)).filter(
                              lambda z: 0 < z[0] ** 2 + z[1] ** 2 <= F(9, 100))


def _mpf_point(mantissas):
    with mp.workprec(200):
        return exact_point(mpc(*(mpf((m, -200)) for m in mantissas)))


_mantissa = st.integers(-(3 << 200) // 10, (3 << 200) // 10)
_binary_lambda = st.tuples(_mantissa, _mantissa).map(_mpf_point).filter(
    lambda z: 0 < z[0] ** 2 + z[1] ** 2 <= F(9, 100))


@given(lam=st.one_of(_short_lambda, _binary_lambda), digits=st.sampled_from([40, 120]))
@settings(max_examples=30, deadline=None)
def test_kernels_match_references_at_random_lambda(lam, digits):
    _assert_relative(periods.legendre_jet(lam, digits),
                     reference_legendre_jet(lam, digits), digits)
    t, psi = periods.quad_map(lam, digits)
    _assert_relative(periods.dwork_periods(t, psi, digits),
                     reference_dwork_periods(psi, digits), digits)


# |lambda| = 1/10 or 1/100: the term count's target 10^-(digits + 20) is a
# power of |lambda| exactly, so a rounded |lambda| can tip the count
TIE_POINTS = [(F(1, 10), F(0)), (F(0), F(1, 10)), (F(-1, 10), F(0)), (F(0), F(-1, 10)),
              (F(3, 50), F(2, 25)), (F(1, 100), F(0))]
# where the mpf |lambda| rounds above 1/10 and the mpmath count took one more
ROUNDED_UP = [((F(3, 50), F(2, 25)), 400)]


@pytest.mark.parametrize("digits", [40, 60, 120, 200, 400])
@pytest.mark.parametrize("lam", TIE_POINTS)
def test_series_terms_equal_mpmath_reference(lam, digits):
    # the least N with |lambda|^N <= 10^-(digits + 20), plus 10, from the
    # exact |lambda|^2, as for the mpf |lambda|'s binary value; the mpmath
    # count of the mpf |lambda| is the same but where it rounds above 1/10
    target = 10 ** (2 * digits + 40)

    def fits(abs2, n):  # |lambda|^(2n) <= 10^-(2 digits + 40)
        return abs2.numerator ** n * target <= abs2.denominator ** n

    exact = lam[0] ** 2 + lam[1] ** 2
    n = periods._series_terms(exact, digits) - 10
    assert fits(exact, n) and not fits(exact, n - 1)
    with working_precision(digits):
        absx = abs(as_mpc(lam))
        ref = reference_series_terms(absx, digits)
    assert ref == n + 10 + ((lam, digits) in ROUNDED_UP)
    binary = exact_point(absx)[0] ** 2
    m = periods._series_terms(binary, digits) - 10
    assert fits(binary, m) and not fits(binary, m - 1) and abs(m - n) <= 1


def _assert_doubling(lo, hi):
    with working_precision(400):
        for a, b in zip(lo, hi):
            assert abs(a - b) < mpf(10) ** -190 * abs(b)


def test_legendre_jet_precision_doubling():
    lam = (F(-63, 100), F(63, 100))
    _assert_doubling(periods.legendre_jet(lam, 200), periods.legendre_jet(lam, 400))


def test_dwork_periods_precision_doubling():
    psi = (F(3, 4), F(3, 4))
    _assert_doubling(_dwork_at_psi(psi, 200), _dwork_at_psi(psi, 400))


def test_dwork_periods_independent_of_the_harmonic_table(monkeypatch):
    # the harmonic brackets, shared by every psi at one precision, give
    # equal results from a cold table, from one already longer, and from
    # one first built at another precision
    near, far = (F(11, 10), F(1, 5)), 5  # many terms, few terms
    monkeypatch.setattr(periods, "_HARMONIC", {})
    cold = [_dwork_at_psi(far, DIGITS)]
    [table] = periods._HARMONIC.values()
    built = len(table[0])
    cold.append(_dwork_at_psi(near, DIGITS))
    [grown] = periods._HARMONIC.values()
    assert grown is table and len(table[0]) > built  # extended in place
    monkeypatch.setattr(periods, "_HARMONIC", {})
    _dwork_at_psi(near, DIGITS)
    longer = [_dwork_at_psi(far, DIGITS), _dwork_at_psi(near, DIGITS)]
    monkeypatch.setattr(periods, "_HARMONIC", {})
    _dwork_at_psi(near, 2 * DIGITS)
    other = [_dwork_at_psi(far, DIGITS), _dwork_at_psi(near, DIGITS)]
    assert len(periods._HARMONIC) == 2
    assert cold == longer == other


@pytest.mark.parametrize("digits", [40, 120])
@pytest.mark.parametrize("psi", [5, (F(3, 4), F(3, 4)), (F(11, 10), F(1, 5))])
def test_dwork_term_count_from_the_exact_t(psi, digits, monkeypatch):
    # the series sums the least N with |t|^N <= 10^-(digits + 20) terms,
    # plus 20, decided on the exact |t|^2: a cold harmonic table grows to
    # exactly that count
    monkeypatch.setattr(periods, "_HARMONIC", {})
    dw = _dwork_at_psi(psi, digits)
    [table] = periods._HARMONIC.values()
    n = len(table[0]) - 20
    re, im = exact_point(psi)
    abs2 = 1 / (re * re + im * im) ** 4
    with working_precision(digits):
        assert abs(abs(dw.t) ** 2 - as_mpc(abs2)) < mpf(10) ** -digits
    target = 10 ** (2 * digits + 40)

    def fits(k):  # |t|^(2k) <= 10^-(2 digits + 40)
        return abs2.numerator ** k * target <= abs2.denominator ** k

    assert fits(n) and not fits(n - 1)


def test_dwork_divergence_region_rejected():
    with pytest.raises(PrecisionError):
        _dwork_at_psi(F(9, 10), DIGITS)


def test_pi_product_structure_as_series():
    # (1 - lam/2) varpi0^2 * (1 - lam/2) h^2 == ((1 - lam/2) varpi0 h)^2 etc.,
    # i.e. S0 * S2-parts = S1-parts squared in the log-polynomial ring
    n = 16
    half = RationalSeries([F(1), F(-1, 2)], 0, n)
    w0 = periods.varpi0_series(n)
    h = frobenius_series(periods.LEGENDRE, n, 2)[1]
    s0 = pi0_series(n)
    assert is_provably_zero(s0 * (half * h * h) - (half * w0 * h) ** 2)
    assert is_provably_zero(s0 * (half * w0 * h) * 2 - 2 * (half * w0 * h) * s0)


def test_mirror_map_residual_grid_sample():
    residuals = periods.mirror_map_residuals(40, points=periods.MIRROR_GRID[:3])
    assert [pt for pt, _ in residuals] == periods.MIRROR_GRID[:3]
    for _, res in residuals:
        assert res < mpf(10) ** -25


def test_tau_in_upper_half_plane_on_grid():
    for pt in periods.MIRROR_GRID:
        jet = periods.legendre_jet(pt, 40)
        with working_precision(40):
            assert (jet.varpi1 / jet.varpi0).imag > 0
        assert jet.varpi0 != 0


# ---------------------------------------------------------------------------
# identity registry
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["QT1", "QT2", "QT3"])
def test_quadratic_transformations_exact(name):
    rep = periods.check_identity(name, 24)
    assert rep.exact and rep.passed and rep.residual == "0"


@pytest.mark.parametrize("name", ["THETA-V", "THETA-24", "DLDTAU", "DELTA-LAMBDA", "BPS"])
def test_theta_registry_exact(name):
    rep = periods.check_identity(name, 18)
    assert rep.exact and rep.passed and rep.residual == "0"


def test_exact_registry_at_order_80():
    # twice the default order of the quadratic transformations, every exact id
    for name in ["QT1", "QT2", "QT3", "MIRROR-EXACT", "THETA-V", "THETA-24", "DLDTAU",
                 "DELTA-LAMBDA", "BPS"]:
        rep = periods.check_identity(name, 80)
        assert rep.exact and rep.passed and rep.residual == "0", name
        assert rep.where == "series order 80", name


def test_delta_theta_numeric():
    rep = periods.check_identity("DELTA-THETA", None, digits=40)
    assert rep.passed and not rep.exact


def test_w_pi_numeric_grid():
    rep = periods.check_identity("W-PI", None, digits=40)
    assert rep.passed


def test_selftest_identity_fails():
    rep = periods.check_identity("SELFTEST-FAIL", 10)
    assert not rep.passed


def test_unknown_identity():
    with pytest.raises(KeyError):
        periods.check_identity("NO-SUCH-ID")


def test_identity_report_roundtrip():
    rep = periods.check_identity("QT1", 10)
    assert isinstance(rep, periods.Entry)
    assert (rep.identity, rep.where, rep.residual, rep.tolerance, rep.exact, rep.passed) == \
        ("QT1", "series order 10", "0", "0", True, True)
    d = rep.to_dict()
    assert list(d) == ["name", "passed", "informational", "where", "residual", "tolerance",
                       "exact"]
    assert d["name"] == "QT1" and d["exact"] is True and d["passed"] is True


def test_judged_passes_at_tolerance_and_fails_above():
    with mp.workdps(30):
        tol = mpf(10) ** -30
        at = periods.judged("x", tol, tol, where="here", data={"k": 1})
        above = periods.judged("x", tol * (1 + mpf(2) ** -60), tol)
    assert at.passed is True and above.passed is False
    assert at.residual == at.tolerance == "1.0e-30" and above.residual == "1.0e-30"
    assert at.to_dict() == {"name": "x", "passed": True, "informational": False,
                            "where": "here", "residual": "1.0e-30", "tolerance": "1.0e-30",
                            "k": 1}
