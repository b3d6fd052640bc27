"""Acceptance battery: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance and runtime budget is pinned here, not configurable.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

import pytest
from mpmath import mp, mpc, mpf

import mirrorperiods.arith as arith
import mirrorperiods.deligne as deligne
import mirrorperiods.periods as periods
import mirrorperiods.pfode as pfode
from helpers import is_provably_zero, round_decimals
from mirrorperiods.hyperfun import hyp2f1_series, theta_const, working_precision
from mirrorperiods.qseries import RationalSeries

REF_L1 = "0.5471099038066191597091924851761161358148431807064"
REF_L2 = "0.8593982272525466034362619724763196497376070564774"
REF_THETA4 = "1.3932039296856768591842462603253682426574812175156"


@contextmanager
def criterion(tag: str, description: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {tag} FAIL — {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {tag} PASS — {description} ({elapsed:.2f}s)")
    assert elapsed < budget_seconds, f"{tag} exceeded budget: {elapsed:.1f}s"


def test_c01_lambda_expansion():
    with criterion("C1", "lambda(tau) first six coefficients", 1.0):
        lam = periods.lambda_q_series(7)
        assert [lam.coefficient(k) for k in range(1, 7)] == \
            [16, -128, 704, -3072, 11488, -38400]


def test_c02_quartic_period_series():
    with criterion("C2", "pi0(t) and W0 series coefficients", 1.0):
        pi0 = hyp2f1_series(F(1, 8), F(3, 8), 4)
        assert list(pi0.coeffs) == [F(1), F(3, 64), F(297, 16384), F(10659, 1048576)]
        w0 = periods.w_series_t(3)[0]
        assert [c * 256 ** n for n, c in enumerate(w0.coeffs)] == [F(1), F(24), F(2520)]


def test_c03_quadratic_transformations_order_40():
    with criterion("C3", "quadratic 2F1 transformations exact to order 40", 10.0):
        for name in ("QT1", "QT2", "QT3"):
            rep = periods.check_identity(name, 40)
            assert rep.exact and rep.passed and rep.residual == "0", rep


def test_c04_mirror_map_equals_period_map():
    with criterion("C4", "mirror map = period map exactly to order 40, and "
                   "|W1/W0 - varpi1/varpi0| < 1e-100 on 20 grid points at 120 digits", 60.0):
        rep = periods.check_identity("MIRROR-EXACT", 40)
        assert rep.exact and rep.passed and rep.residual == "0", rep
        results = periods.mirror_map_residuals(digits=120)
        assert len(results) == 20
        with working_precision(120):
            bound = mpf(10) ** -100
            for pt, res in results:
                assert res < bound, (pt, res)


def test_c05_special_values_by_continuation():
    with criterion("C5", "tau and varpi0 special values via ODE continuation", 120.0):
        digits = 60
        tol = mpf(10) ** -30
        with working_precision(digits):
            lam1 = 2 * mp.sqrt(2) - 2
        tau1 = pfode.tau_at(lam1, path=pfode.ContinuationPath((F(1, 10), lam1)),
                            digits=digits)
        frame = pfode.continue_legendre(pfode.CANONICAL_PATH_TO_TWO, digits)
        with working_precision(digits):
            assert abs(tau1 - mp.mpc(0, 1) / mp.sqrt(2)) < tol
            tau2 = frame.columns[1][0] / frame.columns[0][0]
            assert abs(tau2 - mp.mpc(-1, 1) / 2) < tol
            q0 = -mp.mpc(0, 1) * mp.exp(-mp.pi / 2)
            th2 = theta_const(3, q0, digits) ** 2
            assert abs(frame.columns[0][0] - th2) < tol


def test_c06_theta_delta_registry_order_30():
    with criterion("C6", "theta/Delta/BPS identity registry exact at order 30, "
                   "Delta-theta numeric at 1e-100", 60.0):
        for name in ("THETA-V", "THETA-24", "DLDTAU", "DELTA-LAMBDA", "BPS"):
            rep = periods.check_identity(name, 30)
            assert rep.exact and rep.passed and rep.residual == "0", rep
        rep = periods.check_identity("DELTA-THETA", None, digits=120)
        with working_precision(120):
            assert mpf(rep.residual) < mpf(10) ** -100
        assert rep.passed


@pytest.fixture(scope="module")
def deligne_at_120():
    # shared between C7 and C8; all heavy work is on C7's budget
    state = {}
    t0 = time.perf_counter()
    state["l1"] = deligne.lvalue(1, 120)
    state["l2"] = deligne.lvalue(2, 120)
    frame = pfode.continue_legendre(pfode.CANONICAL_PATH_TO_TWO, 120)
    state["periods"] = deligne.deligne_periods(frame, 120)
    state["seconds"] = time.perf_counter() - t0
    return state


def test_c07_printed_digit_reproduction(deligne_at_120):
    with criterion("C7", "theta3^4 and L-values reproduce the reference digits "
                   "at 120 digits", 120.0):
        assert deligne_at_120["seconds"] < 110.0
        with mp.workdps(140):
            th4 = deligne_at_120["periods"].theta4_value
            assert abs(th4.real) < mpf(10) ** -100
            assert round_decimals(-th4.imag, 49) == REF_THETA4
            assert round_decimals(deligne_at_120["l1"].value, 49) == REF_L1
            assert round_decimals(deligne_at_120["l2"].value, 49) == REF_L2


def test_c08_deligne_ratios(deligne_at_120):
    with criterion("C8", "Deligne ratios reconstruct to 16 and -64", 1.0):
        with working_precision(120):
            tol = mpf(10) ** -110
            r1 = deligne.rationalize(
                (deligne_at_120["periods"].c_plus_tate1 / deligne_at_120["l1"].value).real,
                tol=tol)
            r2 = deligne.rationalize(
                (deligne_at_120["periods"].c_plus_tate2 / deligne_at_120["l2"].value).real,
                tol=tol)
        assert r1 == F(16) and r2 == F(-64)


def test_c09_arithmetic_suite():
    with criterion("C9", "sym2 relation, Weil bounds and quartic counts, p < 500",
                   300.0):
        table = arith.zeta_table(2, 500)
        assert all(rec.weil_ok for rec in table)
        for rec in table:
            if rec.p % 4 == 1:
                assert rec.b_p == rec.a_p ** 2 - 2 * rec.p, rec
        for p in (17, 41, 73, 89, 97):
            n_p = arith.fermat_quartic_count(p)
            assert n_p == 1 + 20 * p + arith.bp_eta(p) + p * p, p


def test_c10_property_suites():
    with criterion("C10", "ring axioms, reversion, mirror map = period map, loop "
                   "transport and monodromy", 300.0):
        rng = random.Random(2024)

        def rand_series(order=6, unit_linear=False):
            coeffs = [F(rng.randrange(-6, 7), rng.randrange(1, 9))
                      for _ in range(order)]
            if unit_linear:
                coeffs[0] = F(0)
                coeffs[1] = F(1)
            return RationalSeries(coeffs, 0, order)

        for _ in range(25):
            a, b, c = rand_series(), rand_series(), rand_series()
            assert is_provably_zero(((a + b) + c) - (a + (b + c)))
            assert is_provably_zero(((a * b) * c) - (a * (b * c)))
            assert is_provably_zero((a * (b + c)) - (a * b + a * c))

        x = RationalSeries.identity(6)
        for _ in range(20):
            s = rand_series(unit_linear=True)
            r = s.revert()
            assert is_provably_zero(s.compose(r) - x)
            assert is_provably_zero(r.compose(s) - x)

        # mirror map = period map, and T W0 = S^2, all exact
        rep = periods.check_identity("MIRROR-EXACT", 40)
        assert rep.exact and rep.passed and rep.residual == "0", rep
        w0, s1, t2 = periods.w_series_t(40)
        assert is_provably_zero(t2 * w0 - s1 * s1)

        # contractible loop transport is the identity
        digits = 50
        square = pfode.ContinuationPath((
            F(2, 5), (F(2, 5), F(1, 5)), (F(3, 5), F(1, 5)),
            (F(3, 5), F(-1, 5)), (F(2, 5), F(-1, 5)), F(2, 5)))
        start = pfode.legendre_frame(F(2, 5), digits)
        end = pfode.continue_solution(square, start, digits)
        with working_precision(digits):
            dev = max(abs(p - q) for cp, cq in zip(end.columns, start.columns)
                      for p, q in zip(cp, cq))
            assert dev < mpf(10) ** (-(digits - 10))

        # monodromy around lambda = 0: tau -> tau + 2
        loop = pfode.ContinuationPath((
            F(1, 4), (F(0), F(1, 4)), (F(-1, 4), F(0)), (F(0), F(-1, 4)), F(1, 4)))
        start = pfode.legendre_frame(F(1, 4), digits)
        end = pfode.continue_solution(loop, start, digits)
        with working_precision(digits):
            tau0 = start.columns[1][0] / start.columns[0][0]
            tau1 = end.columns[1][0] / end.columns[0][0]
            assert abs(tau1 - tau0 - 2) < mpf(10) ** (-(digits - 10))
