import random
from fractions import Fraction as F
from math import gcd, isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

import mirrorperiods.arith as arith
from helpers import (ap_cubic, brute_euler_power, cornacchia_bp, fermat_quartic_count_fp2,
                     hasse_ap_legendre, mask_ap_legendre, reference_ap_legendre,
                     reference_fermat_quartic_count)
from mirrorperiods.qseries import eta_product

SAMPLE_LAMBDAS = (F(2), F(-7, 13), F(3, 5))
TABLE_LAMBDAS = (F(2), F(-7, 13), F(-40, 39))


def _odd_primes_below(bound):
    return [p for p in arith.primes_below(bound) if p > 2]


# ---------------------------------------------------------------------------
# a_p
# ---------------------------------------------------------------------------


def count_legendre_exhaustive(lam_mod, p):
    """Projective point count of y^2 = x(x-1)(x-lam) by brute force."""
    n = 1  # point at infinity
    sqrt_count = [0] * p
    for y in range(p):
        sqrt_count[y * y % p] += 1
    for x in range(p):
        n += sqrt_count[x * (x - 1) % p * (x - lam_mod) % p]
    return n


def test_ap_lambda2_p5():
    # y^2 = x^3 - x over F_5 has 8 projective points
    assert count_legendre_exhaustive(2, 5) == 8
    assert arith.ap_legendre(2, [5]) == [-2]
    assert 5 + 1 - arith.ap_legendre(2, [5])[0] == 8


def test_ap_lambda2_p7_cm_zero():
    assert arith.ap_legendre(2, [7]) == [0]
    assert count_legendre_exhaustive(2, 7) == 8


def test_ap_bad_primes():
    with pytest.raises(arith.BadReductionError):
        arith.ap_legendre(2, [2])
    with pytest.raises(arith.BadReductionError):
        arith.ap_legendre(F(1, 3), [3])  # denominator divisible by p
    with pytest.raises(arith.BadReductionError):
        arith.ap_legendre(8, [7])  # 8 = 1 mod 7


def test_bad_reduction_matches_inverse_rule():
    # the two-remainder test against lam = a * b^(-1) mod p read off directly
    def by_inverse(lam, p):
        if p == 2:
            return "p = 2 is always bad for the Legendre model"
        if lam.denominator % p == 0:
            return f"lambda has a pole mod {p}"
        l = lam.numerator * pow(lam.denominator, -1, p) % p
        return f"lambda = {l} mod {p} is bad reduction" if l in (0, 1) else None

    primes = arith.primes_below(200)
    for a in range(-40, 41):
        for b in range(1, 41):
            if gcd(a, b) == 1:
                lam = F(a, b)
                for p in primes:
                    assert arith._bad_reduction(lam, p) == by_inverse(lam, p), (lam, p)


def test_ap_counts_match_exhaustive_random():
    rng = random.Random(11)
    for _ in range(12):
        p = rng.choice([5, 7, 11, 13, 17, 19, 23])
        lam = rng.randrange(2, p - 1)
        ap, = arith.ap_legendre(lam, [p])
        assert count_legendre_exhaustive(lam, p) == p + 1 - ap


def test_ap_minimal_model_matches_legendre_below_500():
    for p in arith.primes_below(500):
        if p == 2:
            continue
        assert arith.ap_legendre(2, [p]) == [ap_cubic(0, -1, 0, p)]


def test_ap_vanishes_for_p_3_mod_4():
    for p in arith.primes_below(500):
        if p > 2 and p % 4 == 3:
            assert arith.ap_legendre(2, [p]) == [0]


def test_ap_matches_character_table_every_lambda_below_200():
    for p in _odd_primes_below(200):
        for l in range(2, p):
            assert arith.ap_legendre(l, [p]) == [reference_ap_legendre(l, p)], (l, p)


@pytest.mark.parametrize("lam", SAMPLE_LAMBDAS, ids=str)
def test_ap_matches_character_table_below_2000(lam):
    checked = 0
    for p in _odd_primes_below(2000):
        try:
            expected = reference_ap_legendre(lam, p)
        except arith.BadReductionError:
            with pytest.raises(arith.BadReductionError):
                arith.ap_legendre(lam, [p])
            continue
        assert arith.ap_legendre(lam, [p]) == [expected], p
        checked += 1
    assert checked > 290


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_ap_small_primes_every_lambda_matches_exhaustive(p):
    # 2 sqrt(p) >= p/2 here, so the Weil bound alone cannot lift a_p mod p;
    # the mod-4 condition from the rational 2-torsion decides
    lams = list(range(2, p))
    expected = [p + 1 - count_legendre_exhaustive(l, p) for l in lams]
    assert [arith.ap_legendre(l, [p])[0] for l in lams] == expected


def test_ap_one_pass_keeps_input_order():
    # -40/39 is bad at 2, 3, 5, 13 and 79; the list repeats 17 and is unsorted
    lam = F(-40, 39)
    primes = [17, 7, 4999, 17, 11, 19]
    assert arith.ap_legendre(lam, primes) == [mask_ap_legendre(lam, p) for p in primes]
    with pytest.raises(arith.BadReductionError, match="lambda has a pole mod 13"):
        arith.ap_legendre(lam, primes + [13])
    assert arith.ap_legendre(lam, []) == []


@given(lam=st.builds(F, st.integers(-10 ** 9, 10 ** 9), st.integers(1, 10 ** 9))
       .filter(lambda l: l not in (0, 1)),
       primes=st.lists(st.sampled_from(arith.primes_below(2000)), min_size=1, max_size=24))
@example(lam=F(2), primes=[3])  # one block of one step
@example(lam=F(-7, 13), primes=[4999])  # one block of 2499 steps
@settings(max_examples=40, deadline=None)
def test_ap_blocked_pass_matches_mask_oracle(lam, primes):
    # an unsorted list with repeats; its bad primes are dropped
    primes = [p for p in primes if arith._bad_reduction(lam, p) is None]
    assert arith.ap_legendre(lam, primes) == [mask_ap_legendre(lam, p) for p in primes]


@pytest.mark.parametrize("lam", TABLE_LAMBDAS, ids=str)
def test_zeta_table_matches_mask_oracle(lam):
    expected = []
    for p in arith.primes_below(5000):
        try:
            expected.append((p, mask_ap_legendre(lam, p)))
        except arith.BadReductionError:
            continue
    assert [(r.p, r.a_p) for r in arith.zeta_table(lam, 5000)] == expected


@pytest.mark.parametrize("lam", SAMPLE_LAMBDAS, ids=str)
def test_ap_matches_hasse_invariant(lam):
    # independent of any point count: the truncated period series mod p
    checked = 0
    for p in _odd_primes_below(800):
        if p < 17:
            continue
        try:
            ap, = arith.ap_legendre(lam, [p])
        except arith.BadReductionError:
            continue
        assert ap == hasse_ap_legendre(lam, p), p
        checked += 1
    assert checked > 130


def test_primes_below_matches_trial_division():
    for bound in (0, 1, 2, 3, 10 ** 4):
        expected = [n for n in range(2, bound) if all(n % d for d in range(2, isqrt(n) + 1))]
        assert arith.primes_below(bound) == expected, bound


# ---------------------------------------------------------------------------
# b_p
# ---------------------------------------------------------------------------


def test_bp_small_values_against_brute_force():
    # oracle: literal expansion of prod_{n<=5}(1-x^n)^6; b_{1+4m} = coeff of x^m
    body = brute_euler_power(6, 5, 5)
    assert arith.bp_eta(5) == body[1] == -6
    assert arith.bp_eta(13) == body[3] == 10
    assert arith.bp_eta(17) == body[4] == -30


def test_bp_vanishes_off_1_mod_4():
    assert arith.bp_eta(3) == 0
    assert arith.bp_eta(7) == 0
    assert arith.bp_eta(11) == 0


def test_bp_rejects_even():
    with pytest.raises(arith.BadReductionError):
        arith.bp_eta(2)


def test_eta6_table_matches_euler_product():
    # Q prod(1-Q^(4n))^6 expanded by the exact series kernels, to Q^2000
    series = eta_product(4, 6, 2000)
    expected = [0] * 2001
    for k, c in enumerate(series.coeffs):
        if 1 + k <= 2000:
            expected[1 + k] = int(c)
    assert arith.eta6_coefficients(2000) == tuple(expected)


def test_eta6_table_matches_cm_values_below_5000():
    table = arith.eta6_coefficients(5000)
    for p in _odd_primes_below(5000):
        assert table[p] == cornacchia_bp(p), p


def test_eta6_table_short_limits():
    assert arith.eta6_coefficients(0) == (0,)
    assert arith.eta6_coefficients(1) == (0, 1)
    assert arith.eta6_coefficients(5) == (0, 1, 0, 0, 0, -6)


# ---------------------------------------------------------------------------
# quartic surface counts
# ---------------------------------------------------------------------------


def test_fermat_count_p17():
    n = arith.fermat_quartic_count(17)
    assert n == 600 == 1 + 20 * 17 + arith.bp_eta(17) + 17 ** 2


def test_fermat_count_p41():
    a41, = arith.ap_legendre(2, [41])
    b41 = a41 * a41 - 2 * 41
    assert b41 == 18 == arith.bp_eta(41)
    assert arith.fermat_quartic_count(41) == 2520 == 1 + 20 * 41 + b41 + 41 ** 2


def test_fermat_count_p3_recorded_without_prediction():
    chk = arith.fermat_decomposition_check(3)
    assert chk["count"] == arith.fermat_quartic_count(3)
    assert chk["predicted"] is None and chk["match"] is None


def test_fermat_count_bound():
    with pytest.raises(ValueError):
        arith.fermat_quartic_count(103, bound=101)


@pytest.mark.parametrize("p", _odd_primes_below(102) + [113, 137, 193, 233, 241])
def test_fermat_count_matches_triple_loop(p):
    assert arith.fermat_quartic_count(p, bound=241) == reference_fermat_quartic_count(p)


# ---------------------------------------------------------------------------
# zeta records
# ---------------------------------------------------------------------------


def _zeta_row(lam, p):
    """The row of p in the zeta table of lam up to p."""
    rows = [r for r in arith.zeta_table(lam, p + 1) if r.p == p]
    assert len(rows) == 1
    return rows[0]


def test_zeta_record_lambda2_p5():
    r = _zeta_row(2, 5)
    assert r.elliptic_factor == (1, 2, 5)
    assert r.sym2_factor == (1, 6, 25)
    assert r.b_p == -6 and r.sym2_match is True and r.weil_ok


def test_zeta_record_lambda2_p13():
    r = _zeta_row(2, 13)
    assert r.a_p ** 2 - 26 == 10 == r.b_p
    assert r.sym2_match is True


def test_zeta_record_lambda2_p3_twisted_match():
    # chi_-4(3) = -1: the K3 factor is 1 - 9 T^2 and b_p = a_p^2 - p + p = 0
    r = _zeta_row(2, 3)
    assert r.a_p == 0 and r.b_p == 0
    assert r.k3_factor == (1, 0, -9)
    assert r.sym2_match is True


@pytest.mark.parametrize("p, count", [(3, 280), (7, 3480)])
def test_k3_factor_sign_from_count_over_fp2(p, count):
    # N(F_(p^2)) = 1 + p^4 + 20 p^2 + (alpha^2 + beta^2) for the reciprocal
    # roots of the K3 factor 1 - b_p T + c_p T^2, i.e. b_p^2 - 2 c_p: the
    # count fixes the sign c_p = chi_-4(p) p^2 = -p^2 at p = 3 mod 4
    r = _zeta_row(2, p)
    one, minus_b, c = r.k3_factor
    assert fermat_quartic_count_fp2(p) == count
    assert count == 1 + p ** 4 + 20 * p * p + minus_b ** 2 - 2 * c


def test_zeta_record_generic_lambda_has_no_k3_side():
    r = _zeta_row(F(3, 5), 7)
    assert r.b_p is None and r.k3_factor is None and r.sym2_match is None


def test_sym2_relation_all_good_primes_below_500():
    for rec in arith.zeta_table(2, 500):
        if rec.p % 4 == 1:
            assert rec.b_p == rec.a_p ** 2 - 2 * rec.p
        else:
            assert rec.b_p == 0 == rec.a_p
        assert rec.sym2_match is True


def test_weil_bound_random_lambdas():
    rng = random.Random(23)
    lams = [F(rng.randrange(-40, 40), rng.randrange(1, 24)) for _ in range(20)]
    lams = [l for l in lams if l not in (0, 1)]
    with mp.workdps(45):
        for lam in lams:
            for rec in arith.zeta_table(lam, 500):
                p = rec.p
                assert rec.weil_ok
                # reciprocal roots of 1 - a_p T + p T^2 have |.| = sqrt(p)
                a = mpf(rec.a_p)
                disc = mp.sqrt(mp.mpc(a * a - 4 * p))
                for root in ((a + disc) / 2, (a - disc) / 2):
                    assert abs(abs(root) - mp.sqrt(p)) < mpf(10) ** -20


def test_k3_factor_reciprocal_roots_have_modulus_p():
    with mp.workdps(45):
        for rec in arith.zeta_table(2, 200):
            one, minus_b, psq = rec.k3_factor
            b = mpf(-minus_b)
            disc = mp.sqrt(mp.mpc(b * b - 4 * psq))
            for root in ((b + disc) / 2, (b - disc) / 2):
                assert abs(abs(root) - rec.p) < mpf(10) ** -18


def test_zeta_table_ordered_and_good_only():
    tab = arith.zeta_table(F(1, 3), 60)
    ps = [r.p for r in tab]
    assert ps == sorted(ps)
    assert 2 not in ps and 3 not in ps  # 2 always bad; 3 divides the denominator
