"""Point counts over F_p and zeta-factor assembly.

Three counting routines feed the zeta records:

* a_p of the Legendre fiber y^2 = x(x-1)(x-lam) from the Hasse invariant:
  the period varpi0(lam) = sum C(2k,k)^2 (lam/16)^k truncated at
  m = (p-1)/2 is (-1)^m a_p mod p, and one pass over its partial sums
  reads that residue for every prime of a table.  The steps between two
  primes are multiplied out as one 2x2 block on small ints, so each prime
  costs one update modulo the product of the primes still to be read, and
  the partial sum's denominator (4b)^m (m!)^2 is a sign mod p by Wilson's
  theorem and Euler's criterion, so no modular inverse is taken;
* b_p, the p-th coefficient of the weight-3 level-16 newform
  eta(4 tau)^6 = Q prod(1-Q^(4n))^6 (zero unless p = 1 mod 4), from the
  square of Jacobi's identity for eta^3: an integer double sum over pairs
  of odd numbers;
* N_p of the quartic surface x0^4+x1^4+x2^4+x3^4 = 0 in P^3 by enumeration
  of the four standard affine charts, grouping coordinates by their fourth
  power.

At lam = 2 the transcendental K3 factor is the symmetric square of the
elliptic one twisted by the character chi_-4 of eta(4 tau)^6: the K3
factor is 1 - b_p T + chi_-4(p) p^2 T^2 and b_p = a_p^2 - p - chi_-4(p) p,
i.e. a_p^2 - 2p for p = 1 mod 4 and a_p^2 (= 0, since the curve has CM by
Z[i]) for p = 3 mod 4.  That match is checked at every good prime.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import isqrt, prod
from typing import NamedTuple, Optional, Sequence


class BadReductionError(ValueError):
    """Raised for primes of bad reduction (or p = 2) of the requested fiber."""


def primes_below(bound: int) -> list[int]:
    """The primes p < bound, by the sieve of Eratosthenes."""
    if bound < 2:
        return []
    sieve = bytearray([1]) * bound
    sieve[0] = sieve[1] = 0
    for n in range(2, isqrt(bound - 1) + 1):
        if sieve[n]:
            sieve[n * n::n] = bytes(len(range(n * n, bound, n)))
    return list(compress(range(bound), sieve))


def _bad_reduction(lam: Fraction, p: int) -> Optional[str]:
    """Why y^2 = x(x-1)(x-lam) has bad reduction at p, or None at a good p.

    For lam = a/b with p not dividing b, lam = 0 (mod p) iff p | a and
    lam = 1 (mod p) iff p | a - b: two remainders, no modular inverse.
    """
    if p == 2:
        return "p = 2 is always bad for the Legendre model"
    a, b = lam.numerator, lam.denominator
    if b % p == 0:
        return f"lambda has a pole mod {p}"
    if a % p == 0:
        return f"lambda = 0 mod {p} is bad reduction"
    if (a - b) % p == 0:
        return f"lambda = 1 mod {p} is bad reduction"
    return None


def ap_legendre(lam, primes: Sequence[int]) -> list[int]:
    """Traces of Frobenius of y^2 = x(x-1)(x-lam) over F_p, p in `primes`,
    in input order; #E(F_p) = p + 1 - a_p.  Raises BadReductionError if
    any p is 2, divides lam's denominator or has lam = 0, 1 mod p.

    With m = (p-1)/2, the Hasse invariant gives
    a_p = (-1)^m sum_(k<=m) C(m,k)^2 lam^k (mod p) (Igusa 1958; Silverman,
    AEC V.4.1), and C(m,k) = (-1/4)^k C(2k,k) (mod p) turns the sum into
    the partial sum S_m of varpi0(lam) = sum C(2k,k)^2 (lam/16)^k.  Its
    terms satisfy t_n / t_(n-1) = (2n-1)^2 a / (4 n^2 b) for lam = a/b, a
    ratio free of p, so one pass over n serves every prime: S_n = num/den_n
    and t_n = term/den_n with den_n = (4b)^n (n!)^2, and step n maps
    (num, term) by the matrix [[4n^2 b, (2n-1)^2 a], [0, (2n-1)^2 a]].  The
    steps between two consecutive m_p are multiplied out exactly, on small
    ints, and the block is applied to (num, term) once, modulo the product
    of the primes not yet read; every such prime divides it, so that is
    exact.  A gap whose block would outgrow that product (a sparse list,
    or the last primes of a table) is split into blocks that do not.  At n = m_p the denominator needs no inverse: Wilson's theorem
    gives (m!)^2 = (-1)^(m+1) and Euler's criterion (4b)^(-m) = b^m (mod p),
    so (-1)^m S_m = -num b^m (mod p).

    The residue fixes a_p mod p.  E has full rational 2-torsion, so
    4 | #E(F_p), i.e. a_p = p + 1 (mod 4), and |a_p| <= 2 sqrt(p) < 2p
    leaves one value in (-2p, 2p] for the residue mod 4p, at every odd p.
    """
    lam = Fraction(lam)
    for p in primes:
        why = _bad_reduction(lam, p)
        if why is not None:
            raise BadReductionError(why)
    a, b = lam.numerator, lam.denominator
    pending = sorted(set(primes))
    modulus = prod(pending)
    residue = {}
    n, num, term = 0, 1, 1
    size = (4 * max(abs(a), b)).bit_length()
    for p in pending:
        m = (p - 1) // 2
        # a step adds at most size + 2 log2(m) bits to a block, and a block
        # larger than the modulus would cost more than it saves
        width = max(1, modulus.bit_length() // (size + 2 * m.bit_length()))
        while n < m:
            stop = min(m, n + width)
            top, corner, bottom = 1, 0, 1  # the block [[top, corner], [0, bottom]]
            for k in range(n + 1, stop + 1):
                step, ratio = 4 * k * k * b, (2 * k - 1) ** 2 * a
                corner = corner * step + bottom * ratio
                top *= step
                bottom *= ratio
            n = stop
            num = (top * num + corner * term) % modulus
            term = bottom * term % modulus
        residue[p] = -num * pow(b, m, p) % p
        modulus //= p
    out = []
    for p in primes:
        r = residue[p]
        x = r + p * ((p + 1 - r) * p % 4)  # = r mod p, = p + 1 mod 4, in [0, 4p)
        out.append(x - 4 * p if x > 2 * p else x)
    return out


def eta6_coefficients(limit: int) -> tuple[int, ...]:
    """Coefficients c[n] of the full-nome expansion Q prod(1-Q^(4k))^6 for
    n <= limit; c[n] is the n-th newform coefficient (b_n for prime n).

    Jacobi's identity eta^3 = sum_(a odd > 0) (-1)^((a-1)/2) a q^(a^2/8)
    makes eta(4 tau)^3 = sum (-1)^((a-1)/2) a Q^(a^2/2), so eta(4 tau)^6 is
    the double sum over odd a, b of (-1)^((a-1)/2 + (b-1)/2) a b
    Q^((a^2+b^2)/2): about pi limit / 8 integer terms.
    """
    out = [0] * (limit + 1)
    signed = []  # (a^2, (-1)^((a-1)/2) a) for odd a with (a^2 + 1)/2 <= limit
    a = 1
    while a * a + 1 <= 2 * limit:
        signed.append((a * a, a if a % 4 == 1 else -a))
        a += 2
    for a2, sa in signed:
        for b2, sb in signed:
            n = (a2 + b2) // 2
            if n > limit:
                break
            out[n] += sa * sb
    return tuple(out)


def bp_eta(p: int, coefficients: Optional[Sequence[int]] = None) -> int:
    """b_p: coefficient of Q^p in the weight-3 newform expansion.

    Every exponent (a^2 + b^2)/2 of the Jacobi double sum for eta(4 tau)^6
    (a, b odd) is 1 mod 4, so b_p = 0 whenever p != 1 mod 4.  Otherwise b_p
    is read off `coefficients`, an `eta6_coefficients` table reaching p, or
    off a table built to p here; pass one table for bulk queries.
    """
    if p % 2 == 0:
        raise BadReductionError("b_p is defined here for odd primes only")
    if p % 4 != 1:
        return 0
    table = coefficients if coefficients is not None else eta6_coefficients(p)
    return int(table[p])


def fermat_quartic_count(p: int, bound: int = 101) -> int:
    """Points of x0^4 + x1^4 + x2^4 + x3^4 = 0 in P^3(F_p), by enumeration
    of the affine charts x0=1; x0=0,x1=1; x0=x1=0,x2=1; x0=x1=x2=0,x3=1 (a
    partition of P^3, so the counts just add).

    Each chart's count depends on the coordinates only through their fourth
    powers, so x is grouped by v = x^4: with cnt[v] = #{x : x^4 = v}, the
    chart x0 = 1 has sum over fourth powers v1, v2 of cnt[v1] cnt[v2]
    cnt[-(1+v1+v2)] points.  There are (p-1)/gcd(4, p-1) + 1 fourth powers,
    so that is about p^2/16 steps for p = 1 mod 4.  Refuses p beyond `bound`
    to keep runtimes predictable.
    """
    if p == 2:
        raise BadReductionError("p = 2 is a bad prime for the quartic surface")
    if p > bound:
        raise ValueError(f"p = {p} exceeds the enumeration bound {bound}")
    cnt = [0] * p
    for x in range(p):
        cnt[pow(x, 4, p)] += 1
    support = [(v, c) for v, c in enumerate(cnt) if c]
    total = 0
    # chart x0 = 1: x3^4 = -(1 + x1^4 + x2^4)
    for v1, c1 in support:
        for v2, c2 in support:
            total += c1 * c2 * cnt[-(1 + v1 + v2) % p]
    # chart x0 = 0, x1 = 1
    for v2, c2 in support:
        total += c2 * cnt[-(1 + v2) % p]
    # chart x0 = x1 = 0, x2 = 1
    total += cnt[-1 % p]
    # chart x0 = x1 = x2 = 0, x3 = 1: 1 = 0 has no solutions
    return total


class ZetaRecord(NamedTuple):
    """Per-prime zeta data for a Legendre fiber and the quartic surface.

    elliptic_factor is (1, -a_p, p) for 1 - a_p T + p T^2; sym2_factor is the
    quadratic part (1, -(a_p^2-2p), p^2) of the symmetric square (the linear
    part (1-pT) is implicit); k3_factor is (1, -b_p, chi_-4(p) p^2), the
    factor of eta(4 tau)^6, whose character is chi_-4.  sym2_match is only
    evaluated at lam = 2, as b_p == a_p^2 - p - chi_-4(p) p (the twisted
    symmetric square); weil_ok records |a_p| <= 2 sqrt(p) exactly via
    a_p^2 <= 4p.
    """
    p: int
    a_p: int
    b_p: Optional[int]
    elliptic_factor: tuple
    sym2_factor: tuple
    k3_factor: Optional[tuple]
    weil_ok: bool
    sym2_match: Optional[bool]

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "a_p": self.a_p,
            "b_p": self.b_p,
            "elliptic_factor": list(self.elliptic_factor),
            "sym2_factor": list(self.sym2_factor),
            "k3_factor": list(self.k3_factor) if self.k3_factor else None,
            "weil_ok": self.weil_ok,
            "sym2_match": self.sym2_match,
        }


def _zeta_record(lam: Fraction, p: int, a_p: int,
                 eta_table: Optional[Sequence[int]]) -> ZetaRecord:
    sym2_q = a_p * a_p - 2 * p
    chi = 1 if p % 4 == 1 else -1  # chi_-4(p)
    at_two = lam == 2
    b_p = bp_eta(p, eta_table) if at_two else None
    return ZetaRecord(
        p=p,
        a_p=a_p,
        b_p=b_p,
        elliptic_factor=(1, -a_p, p),
        sym2_factor=(1, -sym2_q, p * p),
        k3_factor=(1, -b_p, chi * p * p) if at_two else None,
        weil_ok=a_p * a_p <= 4 * p,
        sym2_match=(b_p == a_p * a_p - p - chi * p) if at_two else None,
    )


def zeta_table(lam, pmax: int) -> list[ZetaRecord]:
    """Zeta records for all good odd primes below pmax, in order; a_p for
    all of them comes from one ap_legendre pass."""
    lam = Fraction(lam)
    eta_table = eta6_coefficients(pmax) if lam == 2 else None
    primes = [p for p in primes_below(pmax) if _bad_reduction(lam, p) is None]
    return [_zeta_record(lam, p, a_p, eta_table)
            for p, a_p in zip(primes, ap_legendre(lam, primes))]


def fermat_decomposition_check(p: int, bound: int = 101) -> dict:
    """Exhaustive N_p versus the modularity decomposition 1 + 20p + b_p + p^2.

    The 20p term is the algebraic-cycle contribution for p = 1 mod 8 (Picard
    number 20 with all cycles rational there); for other prime classes the
    count is recorded without a prediction.
    """
    n_p = fermat_quartic_count(p, bound)
    entry = {"p": p, "count": n_p, "predicted": None, "match": None}
    if p % 8 == 1:
        predicted = 1 + 20 * p + bp_eta(p) + p * p
        entry["predicted"] = predicted
        entry["match"] = n_p == predicted
    return entry
