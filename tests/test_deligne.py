from fractions import Fraction as F

import pytest
from mpmath import mp, mpf

import mirrorperiods.arith as arith
import mirrorperiods.deligne as deligne
import mirrorperiods.pfode as pfode
from helpers import quadrature_lvalue, round_decimals
from mirrorperiods.hyperfun import working_precision
from mirrorperiods.periods import Entry

REF_L1 = "0.5471099038066191597091924851761161358148431807064"
REF_L2 = "0.8593982272525466034362619724763196497376070564774"
REF_THETA4 = "1.3932039296856768591842462603253682426574812175156"

DIGITS = 60


def periods_at(digits):
    frame = pfode.continue_legendre(pfode.CANONICAL_PATH_TO_TWO, digits)
    return deligne.deligne_periods(frame, digits)


@pytest.fixture(scope="module")
def fricke_verified():
    # gate: the eta relation behind the integral split must hold before any
    # L-value is trusted
    for y in (F(3, 10), F(7, 10), F(3, 2)):
        assert deligne.fricke_residual(y, DIGITS) < mpf(10) ** (-(DIGITS - 10))
    return True


def test_lvalues_printed_digits(fricke_verified):
    l1 = deligne.lvalue(1, 120)
    l2 = deligne.lvalue(2, 120)
    with mp.workdps(140):
        assert round_decimals(l1.value, 49) == REF_L1
        assert round_decimals(l2.value, 49) == REF_L2


def test_lvalue_methods_agree(fricke_verified):
    # the termwise sum against the quadrature oracle in tests/helpers.py
    for s in (1, 2):
        a = deligne.lvalue(s, 40)
        b = quadrature_lvalue(s, 40)
        with mp.workdps(60):
            assert abs(a.value - b) < mpf(10) ** -35


@pytest.mark.parametrize("digits", [40, 120])
def test_lvalue_equals_two_exp_termwise_sum(digits):
    # one exp per term gives exactly the sum that took Gamma(1, x) and
    # Gamma(2, x) with an exp each
    for s in (1, 2):
        with working_precision(digits):
            nmax = int(mpf(2) * (digits + 20) * mp.log(10) / mp.pi) + 30
            coeffs = arith.eta6_coefficients(nmax)
            total = mpf(0)
            twopi = 2 * mp.pi
            for n in range(1, nmax + 1, 4):
                if not coeffs[n]:
                    continue
                x = mp.pi * n / 2
                gamma = {1: mp.exp(-x), 2: (1 + x) * mp.exp(-x)}
                upper = gamma[s] / (twopi * n) ** s
                lower = 64 * mpf(16) ** (-s) * gamma[3 - s] / (twopi * n) ** (3 - s)
                total += coeffs[n] * (upper + lower)
            expected = (2 * mp.pi) ** s * total.real
        assert deligne.lvalue(s, digits).value == expected


def test_lvalue_validation():
    with pytest.raises(ValueError):
        deligne.lvalue(3, 40)
    with pytest.raises(Exception):
        deligne.lvalue(1, deligne.MAX_DIGITS + 100)


def test_theta_quartic_point_digits():
    v = deligne.theta_quartic_point(80)
    with mp.workdps(100):
        assert abs(v.real) < mpf(10) ** -70
        assert round_decimals(-v.imag, 49) == REF_THETA4


def test_deligne_period_structure():
    ps = periods_at(DIGITS)
    with working_precision(DIGITS):
        tol = mpf(10) ** (-(DIGITS - 10))
        # c+ real and positive, c- purely imaginary
        assert abs(ps.c_plus.imag) < tol and ps.c_plus.real > 0
        assert abs(ps.c_minus.real) < tol
        # twist relations
        twopii = 2 * mp.pi * mp.mpc(0, 1)
        assert abs(ps.c_plus_tate1 - twopii * ps.c_minus) < tol
        assert abs(ps.c_plus_tate2 - twopii ** 2 * ps.c_plus) < tol
        # continuation cross-check ran and was tight
        assert ps.crosscheck_residual < mpf(10) ** -30


def test_ratios_reconstruct(fricke_verified):
    r1, r2, l1, l2 = deligne.verify_ratios(periods_at(DIGITS), DIGITS)
    assert r1 == F(16) and r2 == F(-64)
    assert r1.denominator == 1 and r2.denominator == 1
    assert (l1, l2) == (deligne.lvalue(1, DIGITS).value, deligne.lvalue(2, DIGITS).value)


def test_ratios_stable_under_digit_doubling(fricke_verified):
    r1a, r2a, _, _ = deligne.verify_ratios(periods_at(40), 40)
    r1b, r2b, _, _ = deligne.verify_ratios(periods_at(80), 80)
    assert (r1a, r2a) == (r1b, r2b) == (F(16), F(-64))


def test_rationalize_reconstruction():
    with mp.workdps(50):
        assert deligne.rationalize(mpf(355) / 113, tol=mpf(10) ** -40) == F(355, 113)
        assert deligne.rationalize(mpf(-64), tol=mpf(10) ** -40) == F(-64)
        with pytest.raises(deligne.ReconstructionError):
            deligne.rationalize(mp.pi, tol=mpf(10) ** -40)


def test_smooth_sum_direction_of_convergence():
    with mp.workdps(40):
        l2 = deligne.lvalue(2, 40).value
        coeffs = arith.eta6_coefficients(6400)

        def partial(n):
            return mp.fsum(mpf(coeffs[k]) / k ** 2 for k in range(1, n + 1) if coeffs[k])

        assert abs(partial(6400) - l2) < abs(partial(100) - l2)
        assert abs(partial(6400) - l2) < mpf("0.005")


def test_report_shape():
    entries = deligne.report(pfode.continue_legendre(pfode.CANONICAL_PATH_TO_TWO, 45), 45)
    assert all(isinstance(e, Entry) for e in entries)
    assert [e.identity for e in entries] == [
        "deligne-summary", "fricke-eta6-y=3/10", "fricke-eta6-y=7/10", "fricke-eta6-y=3/2",
        "theta-vs-continuation", "ratio1-is-16", "ratio2-is-minus-64"]
    summary, checks, ratios = entries[0], entries[1:5], entries[5:]
    assert summary.informational and summary.passed
    assert list(summary.data) == ["digits", "theta4_value", "L1", "L2", "c_plus_tate1",
                                  "c_plus_tate2", "ratio1", "ratio2"]
    assert summary.data["ratio1"] == "16" and summary.data["ratio2"] == "-64"
    # the self-checks are judged: a residual against a tolerance
    assert all(e.passed and e.residual and e.tolerance for e in checks)
    assert [(e.passed, e.data) for e in ratios] == [(True, {"value": "16"}),
                                                   (True, {"value": "-64"})]
    assert not any(e.informational for e in entries[1:])
