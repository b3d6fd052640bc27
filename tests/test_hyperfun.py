import random
from fractions import Fraction as F
from pathlib import Path

import mpmath
import mpmath.libmp.libmpc as libmpc
from mpmath import libmp
import pytest
from mpmath import mp, mpc, mpf

from helpers import hyp2f1, round_decimals, to_mp
from mirrorperiods import deligne, periods
from mirrorperiods.hyperfun import (PrecisionError, as_mpc, eta_value, half_nome,
                                    hyp2f1_series, theta_const, working_precision)

DIGITS = 60


# ---------------------------------------------------------------------------
# 2F1
# ---------------------------------------------------------------------------


def test_hyp2f1_at_zero_is_one():
    for trip in ((F(1, 2), F(1, 2), F(1)), (F(1, 8), F(3, 8), F(1)), (F(1, 4), F(1, 4), F(1))):
        assert hyp2f1(*trip, 0, digits=DIGITS) == 1


def test_hyp2f1_series_legendre():
    s = hyp2f1_series(F(1, 2), F(1, 2), 3)
    assert list(s.coeffs) == [F(1), F(1, 4), F(9, 64)]


def test_hyp2f1_series_quartic():
    s = hyp2f1_series(F(1, 8), F(3, 8), 4)
    assert list(s.coeffs) == [F(1), F(3, 64), F(297, 16384), F(10659, 1048576)]


@pytest.mark.parametrize("z", ["0.5", "-0.85", "0.9", "0.3+0.4j", "-0.2-0.6j"])
def test_hyp2f1_against_mpmath(z):
    with mp.workdps(DIGITS + 20):
        z = mpc(z.replace("j", "") if False else complex(z))
        mine = hyp2f1(F(1, 2), F(1, 2), F(1), z, digits=DIGITS)
        ref = mpmath.hyp2f1(mpf(1) / 2, mpf(1) / 2, 1, z)
        assert abs(mine - ref) < mpf(10) ** (-DIGITS + 5)


def test_hyp2f1_outside_disk_raises():
    with pytest.raises(PrecisionError):
        hyp2f1(F(1, 2), F(1, 2), F(1), mpf("0.95"), digits=40)


def test_hyp2f1_bad_c_raises():
    with pytest.raises(PrecisionError):
        hyp2f1(F(1, 2), F(1, 2), F(-1), mpf("0.2"), digits=40)


def test_hyp2f1_precision_doubling():
    with mp.workdps(200):
        a = hyp2f1(F(1, 8), F(3, 8), F(1), mpf("0.7"), digits=60)
        b = hyp2f1(F(1, 8), F(3, 8), F(1), mpf("0.7"), digits=120)
        assert abs(a - b) < mpf(10) ** (-60 + 5)


def test_theta_and_eta_precision_doubling():
    with mp.workdps(200):
        q = mpf("0.4")
        assert abs(theta_const(3, q, 60) - theta_const(3, q, 120)) < mpf(10) ** -55
        tau = mp.mpc(0, 1) * mpf("0.8")
        assert abs(eta_value(tau, 60) - eta_value(tau, 120)) < mpf(10) ** -55


# ---------------------------------------------------------------------------
# theta constants
# ---------------------------------------------------------------------------


def test_theta_at_zero():
    assert theta_const(3, 0, digits=40) == 1
    assert theta_const(2, 0, digits=40) == 0
    assert theta_const(4, 0, digits=40) == 1


@pytest.mark.parametrize("kind", [2, 3, 4])
def test_theta_against_mpmath(kind):
    with mp.workdps(DIGITS + 20):
        for q in (mpf("0.3"), mpc("0.1", "-0.2"), -mp.mpc(0, 1) * mp.exp(-mp.pi / 2)):
            mine = theta_const(kind, q, digits=DIGITS)
            ref = mpmath.jtheta(kind, 0, q)
            assert abs(mine - ref) < mpf(10) ** (-DIGITS + 5)


def test_theta_jacobi_identity():
    with working_precision(DIGITS):
        q = mpf("0.3")
        t2, t3, t4 = (theta_const(k, q, DIGITS) for k in (2, 3, 4))
        assert abs(t2 ** 4 + t4 ** 4 - t3 ** 4) < mpf(10) ** (-DIGITS + 5)


def test_theta_quartic_point_printed_digits():
    # theta3^4(0, -i e^(-pi/2)) = -1.3932039296856768591...i
    with working_precision(80):
        q0 = -mp.mpc(0, 1) * mp.exp(-mp.pi / 2)
        v = theta_const(3, q0, 80) ** 4
        assert abs(v.real) < mpf(10) ** -75
        assert round_decimals(-v.imag, 49) == \
            "1.3932039296856768591842462603253682426574812175156"


def test_theta_outside_disk_raises():
    with pytest.raises(PrecisionError):
        theta_const(3, mpf("1.0"), digits=40)


def test_theta_series_matches_numeric_on_random_points():
    # theta3 as an exact q-series from qseries vs direct summation
    from mirrorperiods.periods import theta3_qseries
    digits = 40
    order = 160
    s = theta3_qseries(order)
    rng = random.Random(7)
    with working_precision(digits):
        for _ in range(20):
            q = mpc(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            if abs(q) > 0.5:
                q *= mpf("0.5") / abs(q)
            direct = theta_const(3, q, digits) ** 2
            acc = mpc(0)
            ssq = s * s
            for k in range(ssq.order - 1, -1, -1):
                acc = acc * q + int(ssq.coeffs[k])
            assert abs(acc - direct) < mpf(10) ** (-digits + 10)


# ---------------------------------------------------------------------------
# eta
# ---------------------------------------------------------------------------


def test_eta_prefactor_limit():
    # Q^(-1/24) * eta(tau) -> 1 as Im(tau) -> infinity
    with working_precision(40):
        tau = mp.mpc(0, 40)
        ratio = eta_value(tau, 40) / mp.exp(mp.pi * mp.mpc(0, 1) * tau / 12)
        assert abs(ratio - 1) < mpf(10) ** -30


def test_eta_against_mpmath_qpochhammer():
    with mp.workdps(DIGITS + 20):
        for tau in (mp.mpc(0, 1), mp.mpc("0.3", "0.8"), mp.mpc(0, "2.8")):
            mine = eta_value(tau, DIGITS)
            bigq = mp.exp(2 * mp.pi * mp.mpc(0, 1) * tau)
            ref = mp.exp(mp.pi * mp.mpc(0, 1) * tau / 12) * mpmath.qp(bigq)
            assert abs(mine - ref) < mpf(10) ** (-DIGITS + 5)


def test_eta_fricke_level16():
    with working_precision(DIGITS):
        y = mpf("0.7")
        lhs = eta_value(mp.mpc(0, 1) / (4 * y), DIGITS) ** 6
        rhs = 64 * y ** 3 * eta_value(4 * mp.mpc(0, 1) * y, DIGITS) ** 6
        assert abs(lhs - rhs) < mpf(10) ** (-DIGITS + 5)


def test_eta_at_i_vs_theta_product():
    with working_precision(DIGITS):
        q = mp.exp(-mp.pi)
        lhs = eta_value(mp.mpc(0, 1), DIGITS) ** 24
        rhs = mpf(2) ** -8 * (theta_const(2, q, DIGITS) * theta_const(3, q, DIGITS)
                              * theta_const(4, q, DIGITS)) ** 8
        assert abs(lhs - rhs) < mpf(10) ** (-DIGITS + 5)


def test_eta_requires_upper_half_plane():
    with pytest.raises(PrecisionError):
        eta_value(mpc(1, -1), digits=40)


# ---------------------------------------------------------------------------
# no hidden complex logs, and agreement with mpmath's own routes
# ---------------------------------------------------------------------------

# tau where the theta and eta kernels are checked: both sides of the Fricke
# relation, the DELTA-THETA points, and one point off the imaginary axis
KERNEL_TAUS = [(F(0), F(10, 12)), (F(0), F(10, 28)), (F(0), F(1, 6)),
               (F(0), F(6, 5)), (F(0), F(14, 5)), (F(0), F(6)),
               *periods.DELTA_THETA_POINTS, (F(1, 5), F(4, 5))]


@pytest.fixture
def mpc_log_calls(monkeypatch):
    """A list that counts the mpc_log calls mpmath makes inside its complex
    powers: mpc_pow_int (once n times the mantissa bits reach 10000) and
    mpc_pow_mpf (for exponents other than integers and halves) look
    mpc_log up in libmpc at call time, so exp(n log z) shows here."""
    calls = []
    real = libmpc.mpc_log

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(libmpc, "mpc_log", counting)
    return calls


@pytest.mark.parametrize("digits", [120, 200])
def test_kernels_take_no_complex_log(digits, mpc_log_calls):
    with working_precision(digits):
        mpc("0.3", "0.2") ** mpf("0.25")  # the counter sees mpmath's own powers
        assert len(mpc_log_calls) == 1
        mpc_log_calls.clear()
        nomes = [half_nome(as_mpc(tau), digits) for tau in KERNEL_TAUS]
        nomes.append(-mp.mpc(0, 1) * mp.exp(-mp.pi / 2))
    for q in nomes:
        for kind in (2, 3, 4):
            theta_const(kind, q, digits)
    eta_value(mp.mpc(0, 1) / 6, digits)
    for lam in periods.MIRROR_GRID + periods.W_PI_GRID:
        periods.quad_map(lam, digits)
    deligne.fricke_residual(F(3, 2), digits)
    assert periods.check_identity("DELTA-THETA", digits=digits).passed
    assert mpc_log_calls == []


@pytest.fixture
def mpc_calls(monkeypatch):
    """A list of the mpmath complex functions (libmpc's mpc_*) called from
    outside mpmath, by name: they are wrapped where mpc's operators and
    mp's functions look them up, and calls they make in turn are not
    listed."""
    calls, depth = [], [0]

    def counting(name, real):
        def wrapper(*args, **kwargs):
            if not depth[0]:
                calls.append(name)
            depth[0] += 1
            try:
                return real(*args, **kwargs)
            finally:
                depth[0] -= 1
        return wrapper

    wrapped = {name: counting(name, f) for name, f in vars(libmpc).items()
               if name.startswith("mpc_") and callable(f)}
    for module in (libmpc, mpmath.libmp, mpmath.ctx_mp_python, mpmath.ctx_mp):
        for name, f in wrapped.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, f)
    monkeypatch.setattr(mp, "ln", mp._wrap_libmp_function(libmp.mpf_log, wrapped["mpc_log"]))
    monkeypatch.setattr(mp, "sqrt", mp._wrap_libmp_function(libmp.mpf_sqrt, wrapped["mpc_sqrt"]))
    return calls


@pytest.mark.parametrize("digits", [120, 200])
def test_jet_takes_no_complex_call_and_dwork_one_log(digits, mpc_calls):
    # quad_map and legendre_jet call no mpmath complex function, and
    # dwork_periods only its one log, on every grid point
    with working_precision(digits):
        mpc("0.3", "0.2") * mpc("0.1", "0.5")  # the counter sees mpc products
        mp.log(mpc("0.3", "0.2"))  # and complex logs
        mp.sqrt(mpc("0.3", "0.2"))  # and complex roots
    assert mpc_calls == ["mpc_mul", "mpc_log", "mpc_sqrt"]
    for lam in periods.MIRROR_GRID + periods.W_PI_GRID:
        mpc_calls.clear()
        t, psi = periods.quad_map(lam, digits)
        periods.legendre_jet(lam, digits)
        assert mpc_calls == []
        periods.dwork_periods(t, psi, digits)
        assert mpc_calls == ["mpc_log"]


def test_eta_and_theta_against_mpmath_at_200_digits():
    digits = 200
    with mp.workdps(digits + 30):
        tol = mpf(10) ** -(digits + 5)
        taus = [as_mpc(tau) for tau in KERNEL_TAUS]
        for tau in taus:
            assert abs(eta_value(tau, digits) - mpmath.eta(tau)) < tol
        nomes = [mp.exp(mp.pi * mp.mpc(0, 1) * tau) for tau in taus]
        for q in nomes + [-mp.mpc(0, 1) * mp.exp(-mp.pi / 2)]:
            for kind in (2, 3, 4):
                assert abs(theta_const(kind, q, digits) - mpmath.jtheta(kind, 0, q)) < tol


# ---------------------------------------------------------------------------
# harmonic sums: the polygamma brackets of periods.w_series_t
# ---------------------------------------------------------------------------


def _brackets(order: int) -> list:
    """(H_4n - H_n, -H2_4n + H2_n/4) for n < order, as w_series_t carries
    them: its S and T coefficients over its W0 coefficients."""
    w0, s, t = periods.w_series_t(order)
    return [(sn / wn, tn / wn - (sn / wn) ** 2)
            for wn, sn, tn in zip(w0.coeffs, s.coeffs, t.coeffs)]


def test_harmonic_small_values():
    # H_1 = 1, H_4 = 25/12, H2_1 = 1, H2_4 = 205/144
    assert _brackets(2) == [(0, 0), (F(25, 12) - 1, F(-205, 144) + F(1, 4))]


def test_polygamma_bracket_oracle():
    # Psi(4n+1) - Psi(n+1) == H_4n - H_n against mpmath's digamma
    with mp.workdps(60):
        for n, (b, _) in enumerate(_brackets(21)):
            ref = mpmath.digamma(4 * n + 1) - mpmath.digamma(n + 1)
            assert abs(to_mp(b) - ref) < mpf(10) ** -50


def test_trigamma_identity():
    # Psi'(n+1) = pi^2/6 - H2_n, so -H2_4n + H2_n/4 is
    # Psi'(4n+1) - Psi'(n+1)/4 - pi^2/8, against mpmath's polygamma
    brackets = _brackets(18)
    with mp.workdps(60):
        for n in (0, 1, 5, 17):
            ref = mpmath.polygamma(1, 4 * n + 1) - mpmath.polygamma(1, n + 1) / 4 - mp.pi ** 2 / 8
            assert abs(to_mp(brackets[n][1]) - ref) < mpf(10) ** -50


def test_min_digits_enforced():
    with pytest.raises(PrecisionError):
        with working_precision(20):
            pass


def test_only_hyperfun_reads_binary_parts():
    # every point becomes exact through hyperfun.exact_point, and the
    # fixed-point conversions sit beside it: no other module takes an mpf
    # or float apart
    src = Path(__file__).resolve().parents[1] / "src" / "mirrorperiods"
    readers = {f.name for f in src.glob("*.py")
               if any(word in f.read_text() for word in ("._mpf_", ".man_exp", "from_float"))}
    assert readers == {"hyperfun.py"}
