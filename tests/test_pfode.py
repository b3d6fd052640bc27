import cmath
import json
import random
from fractions import Fraction as F
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from helpers import (LEGENDRE_OPERATOR, binary_cut, reference_int_transport, reference_recurrence,
                     reference_shift_poly_exact, reference_step_terms, reference_steps,
                     reference_taylor_transport)
from mpmath import mp, mpc, mpf

import mirrorperiods.hyperfun as hyperfun
import mirrorperiods.periods as periods
import mirrorperiods.pfode as pfode
from mirrorperiods.hyperfun import (PrecisionError, as_mpc, exact_point, theta_const,
                                   waypoint_strings, working_precision)

DIGITS = 50
DATA = Path(__file__).resolve().parent / "data"


def test_singular_points():
    # the stated points are exactly the roots of the Legendre operator's
    # leading coefficient lam (1 - lam), each simple:
    # lead = lead[-1] * prod (x - s) over Q
    assert pfode.SINGULAR_POINTS == ((0, 0), (1, 0))
    assert all(type(c) is F for s in pfode.SINGULAR_POINTS for c in s)
    lead = tuple(F(c) for c in LEGENDRE_OPERATOR[-1])
    product = [lead[-1]]
    for s, _ in pfode.SINGULAR_POINTS:
        product = [a - s * b for a, b in zip([F(0)] + product, product + [F(0)])]
    assert tuple(product) == lead


# ---------------------------------------------------------------------------
# continuation
# ---------------------------------------------------------------------------


def test_contractible_loop_is_identity():
    sq = pfode.ContinuationPath((
        F(2, 5), (F(2, 5), F(1, 5)), (F(3, 5), F(1, 5)),
        (F(3, 5), F(-1, 5)), (F(2, 5), F(-1, 5)), F(2, 5)))
    start = pfode.legendre_frame(F(2, 5), DIGITS)
    end = pfode.continue_solution(sq, start, DIGITS)
    with working_precision(DIGITS):
        dev = max(abs(a - b) for ca, cb in zip(end.columns, start.columns)
                  for a, b in zip(ca, cb))
        assert dev < mpf(10) ** (-(DIGITS - 10))


def test_loop_around_zero_monodromy():
    # (varpi0, varpi1) -> (varpi0, varpi1 + 2 varpi0), i.e. tau -> tau + 2
    base = F(1, 4)
    loop = pfode.ContinuationPath((
        base, (F(0), F(1, 4)), -base, (F(0), F(-1, 4)), base))
    start = pfode.legendre_frame(base, DIGITS)
    end = pfode.continue_solution(loop, start, DIGITS)
    with working_precision(DIGITS):
        w0a, w1a = start.columns[0][0], start.columns[1][0]
        w0b, w1b = end.columns[0][0], end.columns[1][0]
        assert abs(w0b - w0a) < mpf(10) ** (-(DIGITS - 10))
        assert abs(w1b - (w1a + 2 * w0a)) < mpf(10) ** (-(DIGITS - 10))
        tau0 = w1a / w0a
        tau1 = w1b / w0b
        assert abs(tau1 - tau0 - 2) < mpf(10) ** (-(DIGITS - 10))


def test_transport_is_path_multiplicative():
    mid = (F(1, 10), F(-6, 5))
    p_full = pfode.ContinuationPath((F(1, 10), mid, F(2)))
    p_a = pfode.ContinuationPath((F(1, 10), mid))
    p_b = pfode.ContinuationPath((mid, F(2)))
    start = pfode.legendre_frame(F(1, 10), DIGITS)
    one_pass = pfode.continue_solution(p_full, start, DIGITS)
    half = pfode.continue_solution(p_a, start, DIGITS)
    two_pass = pfode.continue_solution(p_b, half, DIGITS)
    with working_precision(DIGITS):
        dev = max(abs(a - b) for ca, cb in zip(one_pass.columns, two_pass.columns)
                  for a, b in zip(ca, cb))
        assert dev < mpf(10) ** (-(DIGITS - 10))


def test_wronskian_invariant_along_path():
    # for the Legendre operator, W(lam) * lam (1 - lam) is constant
    start = pfode.legendre_frame(F(1, 10), DIGITS)
    end = pfode.continue_solution(pfode.CANONICAL_PATH_TO_TWO, start, DIGITS)
    def wronskian(frame):
        (y0, dy0), (y1, dy1) = frame.columns
        return y0 * dy1 - y1 * dy0

    with working_precision(DIGITS):
        lam0, lam1 = mpf(1) / 10, mpf(2)
        c0 = wronskian(start) * lam0 * (1 - lam0)
        c1 = wronskian(end) * lam1 * (1 - lam1)
        assert abs(c0 - c1) < mpf(10) ** (-(DIGITS - 10))


# Taylor steps as continue_solution takes them: half the distance d to the
# nearest singular point, from an expansion point z, in a direction given as
# a complex number.  (1, 0.1, ...) rows sit exactly at the 0.1 clearance.
# Each row's first field, the operator's name, is part of its test id.
KERNEL_STEPS = [
    ("legendre", (F(1, 10), F(-3, 5)), (1, 0)),
    ("legendre", (F(1, 10), F(-6, 5)), (19, 12)),
    ("legendre", (F(1), F(-1, 10)), (1, 1)),
]
KERNEL_COLUMNS = ((mpc(1, "0.5"), mpc("-0.25", 2)), (mpc(0, -3), mpc("1.5", 0)))


def _kernel_step(z, direction, digits):
    """(h, shifted, mpc h, nterms) for one step from z as _steps takes it:
    half the reach cut to STEP_BITS binary digits, an exact Gaussian
    rational.  shifted holds the Legendre operator's coefficients at z,
    exact and realized in mpmath, for the reference."""
    d = min(abs(as_mpc(z) - s) for s in (0, 1))
    dt = binary_cut(d / 2 / abs(mpc(*direction)), pfode.STEP_BITS)
    h = (dt * direction[0], dt * direction[1])
    shifted = [[as_mpc(c) for c in reference_shift_poly_exact(p, z)] for p in LEGENDRE_OPERATOR]
    nterms = int(mp.ceil((digits + 25) * mp.log(10) / mp.log(2))) + 16
    return h, shifted, as_mpc(h), nterms


def _kernel_deviation(recurrence, cols, h, ref, nterms):
    """Largest deviation of the kernel's step from the reference, and its tail."""
    new_cols, tail = pfode._taylor_transport(recurrence, cols, h, nterms)
    dev = max(abs(a - b) for new, (vals, _) in zip(new_cols, ref)
              for a, b in zip(new, vals))
    return dev, tail


@pytest.mark.parametrize("digits", [50, 200])
@pytest.mark.parametrize("name, z, direction", KERNEL_STEPS)
def test_taylor_kernel_matches_reference(name, z, direction, digits):
    # the exact coefficients, Gaussian integers over one divisor, against
    # a step made of mpc operations only
    with working_precision(digits):
        cols = [tuple(mpc(v) for v in col) for col in KERNEL_COLUMNS]
        h, shifted, hm, nterms = _kernel_step(z, direction, digits)
        recurrence = pfode._recurrence(z, h)
        ref = [reference_taylor_transport(shifted, 2, col, hm, nterms) for col in cols]
        ref_tail = max(t for _, t in ref)
        scale = max(abs(v) for vals, _ in ref for v in vals)
        dev, tail = _kernel_deviation(recurrence, cols, h, ref, nterms)
        assert dev < mpf(10) ** -digits * scale
        assert ref_tail / 2 <= tail <= 2 * ref_tail
        # mutation check: one unit more in either part of u or v, or in the
        # divisor, must fail the same comparison
        (ure, uim), (vre, vim), divisor = recurrence
        mutants = [((ure + 1, uim), (vre, vim), divisor), ((ure, uim + 1), (vre, vim), divisor),
                   ((ure, uim), (vre + 1, vim), divisor), ((ure, uim), (vre, vim + 1), divisor),
                   ((ure, uim), (vre, vim), divisor + 1)]
        for mutant in mutants:
            dev, _ = _kernel_deviation(mutant, cols, h, ref, nterms)
            assert dev >= mpf(10) ** -digits * scale


def _int_reference_step(z, h, nterms):
    """The kernel's step and the generic-order integer reference's, fed by
    the Fraction recurrence, on one fixed frame carrying twice the working
    bits: both round it to the working precision first."""
    with mp.workprec(2 * mp.prec):
        cols = [tuple(mpc(k + 1, i - k) / (k + 3) for k in range(2)) for i in range(2)]
    return (pfode._taylor_transport(pfode._recurrence(z, h), cols, h, nterms),
            reference_int_transport(reference_recurrence(LEGENDRE_OPERATOR, z, h), cols, h,
                                    nterms))


@pytest.mark.parametrize("digits", [50, 200])
@pytest.mark.parametrize("name, z, direction", KERNEL_STEPS)
def test_taylor_kernel_equals_int_reference(name, z, direction, digits):
    # the two-coefficient step changes no integer of the order-r recurrence
    # on the operator's polynomials: columns and tail are equal, at the full
    # term count and at a short one
    with working_precision(digits):
        h, _, _, nterms = _kernel_step(z, direction, digits)
        for count in (nterms, 40):
            kernel, reference = _int_reference_step(z, h, count)
            assert kernel == reference


def _clear_point(z):
    return z[0] ** 2 + z[1] ** 2 >= F(1, 100) and (1 - z[0]) ** 2 + z[1] ** 2 >= F(1, 100)


_point = st.tuples(st.fractions(-3, 4, max_denominator=24),
                   st.fractions(-3, 3, max_denominator=24)).filter(_clear_point)
_direction = st.tuples(st.fractions(-1, 1, max_denominator=16),
                       st.fractions(-1, 1, max_denominator=16)).filter(
                           lambda d: 0 < d[0] ** 2 + d[1] ** 2 <= 1)


@given(z=_point, direction=_direction, fraction=st.fractions(F(1, 64), 1, max_denominator=64),
       digits=st.sampled_from([40, 120]))
@example(z=(F(1, 2), F(0)), direction=(F(1), F(0)), fraction=F(1), digits=40)  # v = 0
@settings(max_examples=30, deadline=None)
def test_step_at_random_rational_points_equals_int_reference(z, direction, fraction, digits):
    # a rational z at least 1/10 from 0 and 1, and a rational step h at most
    # half the distance d to the nearer one: floor(100 d) / 200 <= d / 2
    # times a direction in the unit disk and a fraction in (0, 1]
    d2 = min(z[0] ** 2 + z[1] ** 2, (1 - z[0]) ** 2 + z[1] ** 2)
    reach = F(isqrt(int(d2 * 10 ** 4)), 200) * fraction
    h = (reach * direction[0], reach * direction[1])
    nterms = pfode._step_terms((h[0] ** 2 + h[1] ** 2) / d2, digits)
    with working_precision(digits):
        kernel, reference = _int_reference_step(z, h, nterms)
        assert kernel == reference


def _groups(recurrence):
    """(u, v, divisor) as reference_recurrence's (groups, divisor), where
    q_(k,s) = (re + i im) / divisor: u (2m+1)^2 = u (1 + 8 (m)_1 + 4 (m)_2)
    and v (m+1)^2 = v ((m+1)_1 + (m+1)_2), with (i)_k the falling factorial;
    the s = 1 group is dropped where v = 0."""
    (ure, uim), (vre, vim), divisor = recurrence
    groups = {0: [(0, ure, uim), (1, 8 * ure, 8 * uim), (2, 4 * ure, 4 * uim)]}
    if vre or vim:
        groups[1] = [(1, vre, vim), (2, vre, vim)]
    return groups, divisor


def _canonical(recurrence):
    """(groups, divisor) with each group's entries sorted: their order does
    not matter to the recurrence."""
    groups, divisor = recurrence
    return {s: sorted(terms) for s, terms in groups.items()}, divisor


@pytest.mark.parametrize("digits", [50, 200])
@pytest.mark.parametrize("name, z, direction", KERNEL_STEPS + [
    # at z = 1/2 the s = 1 group, -(1-2z) h / L, vanishes and is dropped
    ("legendre", (F(1, 2), F(0)), (1, 0)),
    ("legendre", (F(1, 3), F(0)), (0, -1)),
    ("legendre", (F(1, 2), F(1, 3)), (5, 7)),
])
def test_recurrence_equals_fraction_reference(name, z, direction, digits):
    # the written-out Legendre recurrence, two Gaussian-integer numerators
    # over one denominator, expands to the (groups, divisor) of the Fraction
    # arithmetic on the operator's polynomials
    with working_precision(digits):
        h, _, _, _ = _kernel_step(z, direction, digits)
    assert _canonical(_groups(pfode._recurrence(z, h))) == \
        _canonical(reference_recurrence(LEGENDRE_OPERATOR, z, h))


@pytest.mark.parametrize("path, digits", [("2", 120), ("2", 200), ("2sqrt2-2", 200)])
def test_recurrence_on_every_path_step_equals_fraction_reference(path, digits):
    # every step of the canonical path to 2 and of the default path to
    # 2 sqrt 2 - 2 (unseeded), whose end carries a long binary denominator
    path = (pfode.CANONICAL_PATH_TO_TWO if path == "2"
            else pfode.default_path(_psi_one_point(digits)))
    steps = list(pfode._steps(path.waypoints, digits))
    assert len(steps) >= 6
    for z, h, _ in steps:
        assert _canonical(_groups(pfode._recurrence(z, h))) == \
            _canonical(reference_recurrence(LEGENDRE_OPERATOR, z, h))


def _reference_steps_and_terms(waypoints, digits):
    """(z, h) and term count of every step, in mpmath as before."""
    with working_precision(digits):
        sing = [as_mpc(s) for s in pfode.SINGULAR_POINTS]
        steps = list(reference_steps(waypoints, sing, digits))
        return steps, [reference_step_terms(z, h, sing, digits) for z, h in steps]


def _steps_and_terms(waypoints, digits):
    steps = list(pfode._steps(waypoints, digits))
    return [(z, h) for z, h, _ in steps], [pfode._step_terms(r, digits) for _, _, r in steps]


def _assert_equal_but_for_ties(waypoints, digits):
    """The steps and term counts equal the mpmath ones up to the first step
    where an exact decision sits on a tie that the rounded one missed.  A
    step tie: the reach d STEP_FACTOR / |w - a| is a binary fraction of at
    most STEP_BITS digits, so the exact step is the full reach (rho =
    STEP_FACTOR) where the rounded reach fell just below it and was cut one
    unit shorter; the walks diverge there.  A count tie: rho^(n - 16) is
    10^-(digits + 25) exactly."""
    steps = list(pfode._steps(waypoints, digits))
    ref_steps, ref_terms = _reference_steps_and_terms(waypoints, digits)
    for (z, h, rho2), (ref_z, ref_h), ref_n in zip(steps, ref_steps, ref_terms):
        assert z == ref_z
        if h != ref_h:
            assert rho2 == F(pfode.STEP_FACTOR) ** 2
            assert ref_h[0] ** 2 + ref_h[1] ** 2 < h[0] ** 2 + h[1] ** 2
            return
        n = pfode._step_terms(rho2, digits)
        if n != ref_n:
            assert (n + 1, rho2 ** (n - 16)) == (ref_n, F(1, 10 ** (2 * digits + 50)))
    assert len(steps) == len(ref_steps)


def _detour(seed):
    """A lower detour built like perfbench's high-precision inputs: from 1/10
    past a point w near |lambda| = 1 below the axis to a point b in the
    lower half of the series disk, three-decimal coordinates."""
    rng = random.Random(seed)

    def rat(x):
        return F(f"{x:.3f}")

    while True:
        w = rng.uniform(0.95, 1.05) * cmath.exp(-1j * rng.uniform(1.0, 1.2))
        b = rng.uniform(0.2, 0.45) * cmath.exp(-1j * rng.uniform(0.3, 1.0))
        points = ((F(1, 10), F(0)), (rat(w.real), rat(w.imag)), (rat(b.real), rat(b.imag)))
        if abs(w) > 0.9 and 0.1 <= abs(b) <= 0.5:
            try:
                pfode._check_clearance(points)
                return pfode.ContinuationPath(points)
            except pfode.PathError:
                pass


@pytest.mark.parametrize("digits", [120, 200])
@pytest.mark.parametrize("target", ["2", "2sqrt2-2"])
def test_steps_and_terms_equal_mpmath_reference(target, digits):
    # exact squared distances, isqrt and integer term counts decide every
    # step (z, h) and term count as the mpmath logs and roots did
    path = (pfode.CANONICAL_PATH_TO_TWO if target == "2"
            else pfode.default_path(_psi_one_point(digits)))
    assert _steps_and_terms(path.waypoints, digits) == \
        _reference_steps_and_terms(path.waypoints, digits)


def test_detour_steps_and_terms_equal_mpmath_reference():
    for seed in range(10):
        path = _detour(seed)
        assert _steps_and_terms(path.waypoints, 200) == \
            _reference_steps_and_terms(path.waypoints, 200), path.waypoints


def test_clearance_boundary_is_exact():
    # the canonical path's first segment runs at exactly 1/10 from 0 and
    # passes, as does one inside the 10^-12 slack; one 10^-11 nearer fails
    first = pfode.CANONICAL_PATH_TO_TWO.waypoints[:2]
    assert pfode._segment_distance2(*first, pfode.SINGULAR_POINTS[0]) == F(1, 100)
    pfode._check_clearance(pfode.CANONICAL_PATH_TO_TWO.waypoints)

    def vertical(x):
        return (x, F(0)), (x, F(-6, 5)), (F(2), F(0))

    pfode._check_clearance(vertical(F(1, 10) * (1 - F(1, 10 ** 13))))
    near = vertical(F(1, 10) * (1 - F(1, 10 ** 11)))
    with pytest.raises(pfode.PathError):
        pfode._check_clearance(near)
    with pytest.raises(pfode.PathError):
        pfode.continue_legendre(pfode.ContinuationPath(near), 40)


def test_step_at_an_exact_tie_takes_the_full_reach():
    # from (1/4, -1/4) towards (7/6, -1/7) the third step's reach is a
    # binary fraction of STEP_BITS digits: the exact step is that reach,
    # rho = STEP_FACTOR, where the rounded mpmath reach fell just below it
    # and was cut to a shorter step
    waypoints = ((F(1, 4), F(-1, 4)), (F(7, 6), F(-1, 7)))
    steps = list(pfode._steps(waypoints, 40))
    (ref_steps, _) = _reference_steps_and_terms(waypoints, 40)
    assert [z for z, _, _ in steps[:3]] == [z for z, _ in ref_steps[:3]]
    assert steps[2][2] == F(pfode.STEP_FACTOR) ** 2
    assert steps[2][1] != ref_steps[2][1]
    _assert_equal_but_for_ties(waypoints, 40)


def test_step_control_makes_no_mpmath_call(monkeypatch):
    # clearance, seed, steps, term counts and recurrences are decided on
    # rationals and ints alone
    class NoMpmath:
        def __getattr__(self, name):
            raise AssertionError(f"mpmath used: {name}")

        def __call__(self, *args):
            raise AssertionError("mpmath used")

    for module in (pfode, periods, hyperfun):
        for name in ("mp", "mpc", "mpf", "as_mpc"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, NoMpmath())
    for path in (pfode.CANONICAL_PATH_TO_TWO, _detour(0)):
        pfode._check_clearance(path.waypoints)
        seed, rest = pfode._seed(path.waypoints, 200)
        for z, h, rho2 in pfode._steps((seed, *rest), 200):
            pfode._recurrence(z, h)
            pfode._step_terms(rho2, 200)
    periods._series_terms(F(1, 100), 200)


def _walk_clear(points, clearance=0.1):
    # a float pre-check with a margin; the transport checks exactly
    for a, b in zip(points, points[1:]):
        a, b = complex(*map(float, a)), complex(*map(float, b))
        for s in (0, 1):
            ab = b - a
            t = 0.0 if ab == 0 else max(0.0, min(1.0, ((s - a) * ab.conjugate()).real / abs(ab) ** 2))
            if abs(a + t * ab - s) < clearance * 1.05:
                return False
    return True


_coordinate = st.fractions(min_value=-2, max_value=2, max_denominator=8)
_rational_walk = st.tuples(
    st.sampled_from([(F(1, 10), F(0)), (F(1, 4), F(-1, 4)), (F(-1, 2), F(1, 5)),
                     (F(3, 5), F(1, 2))]),
    st.lists(st.tuples(_coordinate, _coordinate), min_size=1, max_size=3),
).map(lambda bw: (bw[0],) + tuple(bw[1])).filter(_walk_clear)


@given(points=_rational_walk)
@settings(max_examples=6, deadline=None)
def test_rational_walk_steps_and_frame(points):
    path = pfode.ContinuationPath(points)
    # every step and term count as the mpmath decisions gave them, up to a tie
    _assert_equal_but_for_ties(path.waypoints, 40)
    steps, _ = _steps_and_terms(path.waypoints, 40)
    # the steps chain exactly from the first waypoint to the last
    z = path.waypoints[0]
    for zi, h in steps:
        assert zi == z
        z = (z[0] + h[0], z[1] + h[1])
    assert z == path.waypoints[-1]
    for zi, h in steps:
        # zi and zi + h lie on one segment [a, w]: zi = a + t (w - a),
        # 0 <= t <= t + dt <= 1, all exact
        on = False
        for a, w in zip(path.waypoints, path.waypoints[1:]):
            dx, dy = w[0] - a[0], w[1] - a[1]
            n2 = dx * dx + dy * dy
            if n2 == 0:
                continue
            rx, ry = zi[0] - a[0], zi[1] - a[1]
            t = (rx * dx + ry * dy) / n2
            dt = (h[0] * dx + h[1] * dy) / n2
            if rx * dy == ry * dx and h[0] * dy == h[1] * dx and 0 <= t < t + dt <= 1:
                on = True
        assert on
        d2 = min(pfode._distance2(zi, s) for s in pfode.SINGULAR_POINTS)
        assert h[0] ** 2 + h[1] ** 2 <= d2 / 4
    frames = [pfode.continue_solution(path, pfode.legendre_frame(points[0], digits), digits)
              for digits in (40, 80)]
    with working_precision(80):
        scale = max(mpf(1), max(abs(v) for col in frames[1].columns for v in col))
        dev = max(abs(a - b) for ca, cb in zip(frames[0].columns, frames[1].columns)
                  for a, b in zip(ca, cb))
        assert dev < mpf(10) ** -35 * scale


def test_precision_doubling_to_two_at_200_digits():
    lo = pfode.continue_legendre(pfode.CANONICAL_PATH_TO_TWO, 200)
    hi = pfode.continue_legendre(pfode.CANONICAL_PATH_TO_TWO, 400)
    with working_precision(400):
        dev = max(abs(a - b) for ca, cb in zip(lo.columns, hi.columns)
                  for a, b in zip(ca, cb))
        assert dev < mpf(10) ** -190


def test_tau_at_quartic_point():
    tau = pfode.tau_at(2, digits=DIGITS)
    with working_precision(DIGITS):
        assert abs(tau - mp.mpc(-1, 1) / 2) < mpf(10) ** -30
        assert tau.imag > 0


def _mpf_bits(x):
    sign, man, exp, _ = x._mpf_
    return [hex(-int(man) if sign else int(man)), exp]


def _psi_one_point(digits):
    with working_precision(digits):
        return 2 * mp.sqrt(2) - 2


@pytest.mark.parametrize("digits", [40, 200])
def test_psi_one_point_frame_is_bit_identical(digits):
    # frame and tau at 2 sqrt 2 - 2 are bit for bit the committed ones: the
    # segment's end is the exact binary value of the mpf, so its steps are
    # exact and seeded like any other path's
    want = json.loads((DATA / "frame_2sqrt2m2.json").read_text())["frames"][str(digits)]
    lam = _psi_one_point(digits)
    frame = pfode.continue_legendre(pfode.default_path(lam), digits)
    values = [v for col in frame.columns for v in col] + [pfode.tau_at(lam, digits=digits)]
    assert [_mpf_bits(x) for v in values for x in (v.real, v.imag)] == want


@pytest.mark.parametrize("digits", [120, 200])
def test_psi_one_point_varpi0_matches_theta(digits):
    # tau(2 sqrt 2 - 2) = i/sqrt 2, so varpi0 there is theta3(0, e^(-pi/sqrt 2))^2
    lam = _psi_one_point(digits)
    frame = pfode.continue_legendre(pfode.default_path(lam), digits)
    with working_precision(digits):
        th2 = theta_const(3, mp.exp(-mp.pi / mp.sqrt(2)), digits) ** 2
        assert abs(frame.columns[0][0] - th2) < mpf(10) ** (-(digits - 10))


def test_tau_at_psi_one_point():
    lam = _psi_one_point(DIGITS)
    tau = pfode.tau_at(lam, digits=DIGITS)
    with working_precision(DIGITS):
        assert abs(tau - mp.mpc(0, 1) / mp.sqrt(2)) < mpf(10) ** -30


def test_varpi0_at_two_matches_theta():
    frame = pfode.continue_legendre(pfode.CANONICAL_PATH_TO_TWO, DIGITS)
    with working_precision(DIGITS):
        q0 = -mp.mpc(0, 1) * mp.exp(-mp.pi / 2)
        th2 = theta_const(3, q0, DIGITS) ** 2
        assert abs(frame.columns[0][0] - th2) < mpf(10) ** -30
        assert frame.error_estimate < mpf(10) ** -40


UPPER_DETOUR = pfode.ContinuationPath((F(1, 10), (F(1, 10), F(6, 5)), F(2)))
SEED_PATHS = {
    "canonical": pfode.CANONICAL_PATH_TO_TWO,
    "upper": UPPER_DETOUR,
    # leaves |lambda| <= 1/2, passes |lambda| > 0.9 and comes back inside
    "far": pfode.ContinuationPath((F(1, 10), (F("0.467"), F("-0.907")),
                                   (F("0.169"), F("-0.199")))),
    # never leaves the slit disk: the series frame at the end
    "inside": pfode.ContinuationPath((F(1, 10), (F(1, 5), F(1, 5)), (F(-1, 5), F(1, 5)))),
}


def test_upper_detour_lands_on_other_branch():
    # the mirror-image path through Im(lambda) > 0 gives (1+i)/2, which is
    # why the lower detour is the canonical one
    tau = pfode.tau_at(2, path=UPPER_DETOUR, digits=40)
    with working_precision(40):
        assert abs(tau - mp.mpc(1, 1) / 2) < mpf(10) ** -30


@pytest.mark.parametrize("digits", [40, 120])
@pytest.mark.parametrize("name", SEED_PATHS)
def test_seeded_transport_matches_unseeded(name, digits):
    # continue_legendre starts from the series frame at its seed; the
    # unseeded route transports the frame at the first waypoint all the way
    path = SEED_PATHS[name]
    seeded = pfode.continue_legendre(path, digits)
    unseeded = pfode.continue_solution(path,
                                       pfode.legendre_frame(path.waypoints[0], digits), digits)
    with working_precision(digits):
        assert seeded.point == unseeded.point
        dev = max(abs(a - b) for ca, cb in zip(seeded.columns, unseeded.columns)
                  for a, b in zip(ca, cb))
        assert dev < mpf(10) ** (-(digits - 10))


@pytest.mark.parametrize("loop", [
    # through a waypoint on the cut (-inf, 0]
    (F(1, 4), (F(0), F(1, 4)), F(-1, 4), (F(0), F(-1, 4)), F(1, 4)),
    # across the cut between two waypoints off it
    (F(1, 4), (F(0), F(1, 4)), (F(-1, 4), F(1, 8)), (F(-1, 4), F(-1, 8)),
     (F(0), F(-1, 4)), F(1, 4)),
], ids=["cut-waypoint", "cut-crossing"])
def test_seed_stops_at_the_cut(loop):
    # a loop around 0 inside |lambda| <= 1/2 is seeded only up to the cut,
    # so it keeps its monodromy tau -> tau + 2
    start = pfode.legendre_frame(F(1, 4), DIGITS)
    end = pfode.continue_legendre(pfode.ContinuationPath(loop), DIGITS)
    with working_precision(DIGITS):
        w0a, w1a = start.columns[0][0], start.columns[1][0]
        w0b, w1b = end.columns[0][0], end.columns[1][0]
        assert abs(w0b - w0a) < mpf(10) ** (-(DIGITS - 10))
        assert abs(w1b - (w1a + 2 * w0a)) < mpf(10) ** (-(DIGITS - 10))


def _count_steps(monkeypatch):
    """The (h, nterms) that _taylor_transport is called with from now on."""
    steps = []
    transport = pfode._taylor_transport

    def counted(recurrence, columns, h, nterms):
        steps.append((h, nterms))
        return transport(recurrence, columns, h, nterms)

    monkeypatch.setattr(pfode, "_taylor_transport", counted)
    return steps


def test_canonical_path_is_seeded(monkeypatch):
    # the steps inside |lambda| <= 1/2 are replaced by one series frame:
    # 9 Taylor steps to lambda = 2 at 120 digits (14 from the first waypoint)
    steps = _count_steps(monkeypatch)
    pfode.continue_legendre(pfode.CANONICAL_PATH_TO_TWO, 120)
    assert len(steps) <= 9


@pytest.mark.parametrize("digits", [120, 200])
def test_psi_one_point_path_is_seeded(monkeypatch, digits):
    # the default path to 2 sqrt 2 - 2 is seeded inside |lambda| <= 1/2 and
    # takes 2 Taylor steps (6 from the first waypoint)
    lam = _psi_one_point(digits)
    steps = _count_steps(monkeypatch)
    pfode.continue_legendre(pfode.default_path(lam), digits)
    assert len(steps) <= 2


@pytest.mark.parametrize("digits", [120, 200])
@pytest.mark.parametrize("target", ["2", "2sqrt2-2"])
def test_step_terms_pass_the_tail_test_at_once(monkeypatch, target, digits):
    # each step's term count comes from its own ratio rho = |h| / distance
    # to the nearest singular point: no step is redone with more terms, and
    # none gets more than a full step at rho = 1/2 gets
    path = (pfode.CANONICAL_PATH_TO_TWO if target == "2"
            else pfode.default_path(_psi_one_point(digits)))
    calls = _count_steps(monkeypatch)
    pfode.continue_legendre(path, digits)
    seed, rest = pfode._seed(path.waypoints, digits)
    steps = list(pfode._steps((seed, *rest), digits))
    with working_precision(digits):
        full = int(mp.ceil((digits + 25) * mp.log(10) / mp.log(2))) + 16
    assert [h for h, _ in calls] == [h for _, h, _ in steps]
    assert max(n for _, n in calls) <= full
    assert min(n for _, n in calls) < full


@pytest.mark.parametrize("point", [(F(3, 10), F(2, 5)), (F(-3, 10), F(2, 5)),
                                   (F(3, 10), F(-2, 5)), (F(-3, 10), F(-2, 5))])
def test_default_path_takes_the_series_on_the_disk_edge(point):
    # |z|^2 = 1/4 exactly is inside the series disk
    assert pfode.default_path(point) is None


def test_default_path_takes_the_canonical_path_only_at_two():
    assert pfode.default_path(mpf(2)) is pfode.CANONICAL_PATH_TO_TWO
    assert pfode.default_path(2.0) is pfode.CANONICAL_PATH_TO_TWO
    # within 10^-25 of 2 but not 2: the straight path to that point
    with working_precision(40):
        near_two = mpf(2) + mpf(2) ** -100
    assert pfode.default_path(near_two).waypoints == (
        (F(1, 10), F(0)), (2 + F(1, 2 ** 100), F(0)))


def test_tau_at_exact_target_needs_the_exact_end():
    off = pfode.ContinuationPath(((F(1, 10), F(0)), (F(1, 10), F(-6, 5)),
                                  (2 + F(1, 10 ** DIGITS), F(0))))
    with pytest.raises(pfode.PathError, match="does not end"):
        pfode.tau_at(2, path=off, digits=DIGITS)


def test_tau_at_degenerate_path_matches_series():
    tau = pfode.tau_at(F(1, 20), digits=DIGITS)
    jet = periods.legendre_jet(F(1, 20), DIGITS)
    with working_precision(DIGITS):
        assert abs(tau - jet.varpi1 / jet.varpi0) < mpf(10) ** (-(DIGITS - 10))


def test_clearance_violation_raises():
    bad = pfode.ContinuationPath((F(1, 20), F(2)))  # passes through lam = 1
    with pytest.raises(pfode.PathError):
        pfode.continue_solution(bad,
                                pfode.legendre_frame(F(1, 20), 40), 40)
    # 10^-11 nearer than CLEARANCE to 0, nowhere through a singular point
    near = pfode.ContinuationPath(((F(1, 10) * (1 - F(1, 10 ** 11)), F(0)),
                                   (F(1, 10), F(-6, 5))))
    start = pfode.legendre_frame(near.waypoints[0], 40)
    with pytest.raises(pfode.PathError, match="clearance"):
        pfode.continue_solution(near, start, 40)


def test_tau_at_two_checks_clearance_once(monkeypatch):
    calls = []
    check = pfode._check_clearance

    def counting(waypoints):
        calls.append(waypoints)
        return check(waypoints)

    monkeypatch.setattr(pfode, "_check_clearance", counting)
    pfode.tau_at(2, digits=40)
    assert calls == [pfode.CANONICAL_PATH_TO_TWO.waypoints]


def test_short_last_step_keeps_derivatives():
    # the derivatives of a step are divided by h, so a step of 1e-45 needs
    # the kernel's extra guard bits to keep them at full precision
    end = F(1, 10) + F(1, 10 ** 45)
    path = pfode.ContinuationPath((F(1, 10), end))
    start = pfode.legendre_frame(F(1, 10), DIGITS)
    moved = pfode.continue_solution(path, start, DIGITS)
    series = pfode.legendre_frame(end, DIGITS)
    with working_precision(DIGITS):
        dev = max(abs(a - b) for ca, cb in zip(moved.columns, series.columns)
                  for a, b in zip(ca, cb))
        assert dev < mpf(10) ** -DIGITS


def test_step_underflow_is_exact():
    # a step raises PathError exactly when |h| < 10^-digits
    def segment(length):
        return (F(1, 10), F(0)), (F(1, 10) + length, F(0))

    assert len(list(pfode._steps(segment(F(1, 10 ** 40)), 40))) == 1
    with pytest.raises(pfode.PathError):
        list(pfode._steps(segment(F(1, 10 ** 40) * (1 - F(1, 10 ** 30))), 40))


def test_non_finite_frame_raises():
    # anchored at the exact first waypoint, so the frame's values are checked
    frame = pfode.SolutionFrame((F(1, 10), F(0)), ((mpc(1), mpc(0)), (mpc(0), mp.inf)))
    path = pfode.ContinuationPath((F(1, 10), F(1, 5)))
    with pytest.raises(pfode.PathError, match="non-finite"):
        pfode.continue_solution(path, frame, 40)


def test_path_needs_two_waypoints():
    with pytest.raises(pfode.PathError):
        pfode.ContinuationPath((F(1, 10),))
    # and each waypoint two coordinates
    for point in [(F(1, 2),), (F(1, 2), F(0), F(0))]:
        with pytest.raises(ValueError):
            pfode.ContinuationPath((F(1, 10), point))


def test_path_json_roundtrip():
    p = pfode.ContinuationPath.from_json('[["0.1", "0"], ["0.1", "-1.2"], ["2", "0"]]')
    assert p.waypoints == ((F(1, 10), F(0)), (F(1, 10), F(-6, 5)), (F(2), F(0)))
    q = pfode.ContinuationPath.from_json(json.dumps([waypoint_strings(w) for w in p.waypoints]))
    assert q.waypoints == p.waypoints


def test_waypoint_normalization():
    # every waypoint becomes an exact Fraction pair: exact input as its
    # value, an mpmath or floating-point coordinate as its binary value
    with working_precision(40):
        root = mp.sqrt(2)
        man, exp = root.man_exp
        root_exact = F(man, 2 ** -exp)
        assert as_mpc(root_exact) == root
        p = pfode.ContinuationPath((
            2, F(1, 10), "0.1", ("0.1", F(-6, 5)),
            root, -root, mpc(-root, root), mpc(root, -1),
            0.1, -0.75, complex(-0.1, 2.5), (0.5, -0.25), (-root, F(1, 3))))
    assert p.waypoints == (
        (F(2), F(0)), (F(1, 10), F(0)), (F(1, 10), F(0)), (F(1, 10), F(-6, 5)),
        (root_exact, F(0)), (-root_exact, F(0)), (-root_exact, root_exact), (root_exact, F(-1)),
        (F(0.1), F(0)), (F(-3, 4), F(0)), (F(-0.1), F(5, 2)), (F(1, 2), F(-1, 4)),
        (-root_exact, F(1, 3)))
    assert all(type(c) is F for w in p.waypoints for c in w)


@pytest.mark.parametrize("point", [mp.inf, -mp.inf, mp.nan, mpc(1, mp.inf),
                                   float("inf"), complex(0, float("nan")), (0.5, float("-inf"))])
def test_non_finite_waypoint_raises(point):
    with pytest.raises(pfode.PathError):
        pfode.ContinuationPath((F(1, 10), point))
    with pytest.raises(PrecisionError):
        exact_point(point)


def test_frame_anchoring_checked():
    frame = pfode.legendre_frame(F(1, 10), 40)
    path = pfode.ContinuationPath((F(1, 4), F(1, 2)))
    with pytest.raises(pfode.PathError):
        pfode.continue_solution(path, frame, 40)
    # the anchor is exact: a frame at the 40-digit mpc of 1/10 is not at 1/10
    with working_precision(40):
        rounded = pfode.legendre_frame(as_mpc(F(1, 10)), 40)
    assert rounded.point != (F(1, 10), F(0))
    with pytest.raises(pfode.PathError, match="anchored"):
        pfode.continue_solution(pfode.ContinuationPath((F(1, 10), F(1, 5))), rounded, 40)
