import random
from fractions import Fraction as F

import pytest
from mpmath import mp, mpc, mpf

import mirrorperiods.periods as periods
from helpers import (agm, hyp2f1, is_provably_zero, lambda_from_t, pi0_series,
                     reference_dwork_periods, reference_frobenius_series,
                     reference_int_legendre_jet, reference_legendre_jet,
                     reference_series_terms, reference_w_series_t)
from mirrorperiods.hyperfun import (PrecisionError, as_mpc, exact_point, frobenius_series,
                                   working_precision)
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
    jet = periods.legendre_jet(F(1, 2), DIGITS)
    with working_precision(DIGITS):
        oracle = 1 / agm(1, mp.sqrt(mpf("0.5")), DIGITS)
        assert abs(jet.varpi0 - oracle) < mpf(10) ** (-DIGITS + 8)


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
    assert r.t == 0
    with working_precision(DIGITS):
        lam = 2 * mp.sqrt(2) - 2
    r = periods.quad_map(lam, DIGITS)
    with working_precision(DIGITS):
        assert abs(r.t - 1) < mpf(10) ** (-DIGITS + 8)
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
            assert abs(r.t * r.psi ** 4 - 1) < mpf(10) ** (-DIGITS + 10)


def test_quad_map_psi_is_the_principal_power():
    # psi = lam^(-1/2) (1-lam)^(-1/4) (1-lam/2) as mpmath's principal
    # powers take it, on the grids and beside the negative real axis
    digits = 200
    with mp.workdps(digits + 30):
        points = [as_mpc(lam) for lam in periods.MIRROR_GRID + periods.W_PI_GRID]
        points += [r * mp.expjpi(sign * mpf("0.85")) for r in (mpf("0.05"), mpf("0.3"))
                   for sign in (1, -1)]
        for lam in points:
            psi = periods.quad_map(lam, digits).psi
            ref = lam ** mpf("-0.5") * (1 - lam) ** mpf("-0.25") * (1 - lam / 2)
            assert abs(psi - ref) < mpf(10) ** -(digits + 5)


def test_lambda_from_t_small_branch():
    with working_precision(DIGITS):
        lam0 = mpf("0.07")
    t = periods.quad_map(lam0, DIGITS).t
    lam = lambda_from_t(t, DIGITS)
    with working_precision(DIGITS):
        assert abs(lam - lam0) < mpf(10) ** (-DIGITS + 8)


def test_dwork_w0_is_square_of_2f1():
    dw = periods.dwork_periods(3, DIGITS)
    with working_precision(DIGITS):
        pi0 = hyp2f1(F(1, 8), F(3, 8), F(1), mpf(3) ** -4, DIGITS)
        assert abs(dw.w0 - pi0 ** 2) < mpf(10) ** (-DIGITS + 8)


def test_dwork_tau_equals_legendre_tau_at_psi_5():
    dw = periods.dwork_periods(5, DIGITS)
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
    jet = periods.legendre_jet(rounded, digits)
    assert jet == periods.legendre_jet(exact_point(rounded), digits)
    _assert_relative(periods.legendre_jet(lam, digits), jet, digits)
    z = complex(float(lam[0]), float(lam[1]))
    for x in (z, z.real) if z.imag == 0 else (z,):
        assert _jet_or_error(x, digits) == _jet_or_error(exact_point(x), digits)


def _jet_or_error(lam, digits):
    # the float 0.9 lies above 9/10, so both of its jets raise
    try:
        return periods.legendre_jet(lam, digits)
    except PrecisionError as exc:
        return str(exc)


@pytest.mark.parametrize("digits", [40, 200])
@pytest.mark.parametrize("kind, point", DWORK_POINTS)
def test_dwork_periods_matches_reference(kind, point, digits):
    psi = periods.quad_map(point, digits).psi if kind == "lambda" else point
    _assert_relative(periods.dwork_periods(psi, digits),
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


@pytest.mark.parametrize("digits", [60, 200])
def test_legendre_jet_equals_int_reference(digits):
    # the running sums of partial sums and the fused small factors change
    # no integer: the jets are equal to the term-by-term loop's
    for lam in periods.MIRROR_GRID + periods.W_PI_GRID:
        assert periods.legendre_jet(lam, digits) == reference_int_legendre_jet(lam, digits)


def _assert_doubling(lo, hi):
    with working_precision(400):
        for a, b in zip(lo, hi):
            assert abs(a - b) < mpf(10) ** -190 * abs(b)


def test_legendre_jet_precision_doubling():
    lam = (F(-63, 100), F(63, 100))
    _assert_doubling(periods.legendre_jet(lam, 200), periods.legendre_jet(lam, 400))


def test_dwork_periods_precision_doubling():
    psi = (F(3, 4), F(3, 4))
    _assert_doubling(periods.dwork_periods(psi, 200), periods.dwork_periods(psi, 400))


def test_dwork_periods_independent_of_the_harmonic_table(monkeypatch):
    # the harmonic brackets, shared by every psi at one precision, give
    # equal results from a cold table, from one already longer, and from
    # one first built at another precision
    near, far = (F(11, 10), F(1, 5)), 5  # many terms, few terms
    monkeypatch.setattr(periods, "_HARMONIC", {})
    cold = [periods.dwork_periods(far, DIGITS)]
    [table] = periods._HARMONIC.values()
    built = len(table[0])
    cold.append(periods.dwork_periods(near, DIGITS))
    [grown] = periods._HARMONIC.values()
    assert grown is table and len(table[0]) > built  # extended in place
    monkeypatch.setattr(periods, "_HARMONIC", {})
    periods.dwork_periods(near, DIGITS)
    longer = [periods.dwork_periods(far, DIGITS), periods.dwork_periods(near, DIGITS)]
    monkeypatch.setattr(periods, "_HARMONIC", {})
    periods.dwork_periods(near, 2 * DIGITS)
    other = [periods.dwork_periods(far, DIGITS), periods.dwork_periods(near, DIGITS)]
    assert len(periods._HARMONIC) == 2
    assert cold == longer == other


def test_dwork_divergence_region_rejected():
    with pytest.raises(PrecisionError):
        periods.dwork_periods(mpf("0.9"), DIGITS)


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
