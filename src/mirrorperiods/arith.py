"""Point counts over F_p and zeta-factor assembly.

Three counting routines feed the zeta records:

* a_p of the Legendre fiber y^2 = x(x-1)(x-lam) via the quadratic-character
  sum, with a square table per prime (no modular exponentiation needed at
  this scale);
* b_p, the p-th coefficient of the weight-3 level-16 newform, read off the
  full-nome expansion Q prod(1-Q^(4n))^6 (zero unless p = 1 mod 4);
* N_p of the quartic surface x0^4+x1^4+x2^4+x3^4 = 0 in P^3 by exhaustive
  enumeration of the four standard affine charts.

At lam = 2 the transcendental K3 factor is the symmetric square of the
elliptic one: b_p = a_p^2 - 2p.  That match is recorded per prime; it fails
for p = 3 mod 4 (where b_p = 0), which is kept as data, not as a test
failure, since the printed relation carries no restriction on the prime
class and the character-twist question is explicitly left open.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from .qseries import eta_product


class BadReductionError(ValueError):
    """Raised for primes of bad reduction (or p = 2) of the requested fiber."""


def primes_below(bound: int) -> list[int]:
    sieve = bytearray([1]) * bound if bound > 0 else bytearray()
    out = []
    for n in range(2, bound):
        if sieve[n]:
            out.append(n)
            for m in range(n * n, bound, n):
                sieve[m] = 0
    return out


def _quadratic_character_table(p: int) -> list[int]:
    """chi[x] for the quadratic character mod p, chi[0] = 0."""
    chi = [-1] * p
    chi[0] = 0
    for y in range(1, p):
        chi[y * y % p] = 1
    return chi


def ap_legendre(lam, p: int) -> int:
    """Trace of Frobenius of y^2 = x(x-1)(x-lam) over F_p.

    a_p = -sum_x chi(x(x-1)(x-lam)); the affine count is p - 1 - ... wrapped
    up as #E(F_p) = p + 1 - a_p with the point at infinity included.
    Requires p odd and lam != 0, 1 mod p (and p not dividing lam's
    denominator).
    """
    lam = Fraction(lam)
    if p == 2:
        raise BadReductionError("p = 2 is always bad for the Legendre model")
    if lam.denominator % p == 0:
        raise BadReductionError(f"lambda has a pole mod {p}")
    l = lam.numerator * pow(lam.denominator, -1, p) % p
    if l in (0, 1):
        raise BadReductionError(f"lambda = {l} mod {p} is bad reduction")
    chi = _quadratic_character_table(p)
    s = 0
    for x in range(p):
        s += chi[x * (x - 1) % p * (x - l) % p]
    return -s


def ap_cubic(a2: int, a4: int, a6: int, p: int) -> int:
    """Trace of Frobenius of y^2 = x^3 + a2 x^2 + a4 x + a6 over F_p (p odd,
    smooth reduction assumed); used for the minimal model y^2 = x^3 - x."""
    if p == 2:
        raise BadReductionError("p = 2 not supported by the character sum")
    chi = _quadratic_character_table(p)
    s = 0
    for x in range(p):
        s += chi[(x * x % p * x + a2 * x * x + a4 * x + a6) % p]
    return -s


@lru_cache(maxsize=8)
def eta6_coefficients(limit: int) -> tuple[int, ...]:
    """Coefficients c[n] of the full-nome expansion Q prod(1-Q^(4k))^6 for
    n <= limit; c[n] is the n-th newform coefficient (b_n for prime n)."""
    series = eta_product(4, 6, limit)
    out = [0] * (limit + 1)
    for k, c in enumerate(series.coeffs):
        n = 1 + k
        if n <= limit:
            out[n] = int(c)
    return tuple(out)


def bp_eta(p: int, coefficients: Optional[Sequence[int]] = None) -> int:
    """b_p: coefficient of Q^p in the weight-3 newform expansion.

    Every exponent in Q prod(1-Q^(4n))^6 is 1 mod 4, so b_p = 0 whenever
    p != 1 mod 4.  Pass a cached coefficient table for bulk queries.
    """
    if p % 2 == 0:
        raise BadReductionError("b_p is defined here for odd primes only")
    if p % 4 != 1:
        return 0
    table = coefficients if coefficients is not None else eta6_coefficients(p)
    return int(table[p])


def fermat_quartic_count(p: int, bound: int = 101) -> int:
    """Points of x0^4 + x1^4 + x2^4 + x3^4 = 0 in P^3(F_p), by exhaustive
    enumeration of the affine charts x0=1; x0=0,x1=1; x0=x1=0,x2=1;
    x0=x1=x2=0,x3=1 (a partition of P^3, so the counts just add).

    O(p^3); refuses p beyond `bound` to keep runtimes predictable.
    """
    if p == 2:
        raise BadReductionError("p = 2 is a bad prime for the quartic surface")
    if p > bound:
        raise ValueError(f"p = {p} exceeds the enumeration bound {bound}")
    pow4 = [pow(x, 4, p) for x in range(p)]
    total = 0
    # chart x0 = 1: count x3 with x3^4 = -(1 + x1^4 + x2^4) for each (x1, x2)
    for x1 in range(p):
        s1 = 1 + pow4[x1]
        for x2 in range(p):
            need = (-(s1 + pow4[x2])) % p
            total += pow4.count(need)
    # chart x0 = 0, x1 = 1
    for x2 in range(p):
        need = (-(1 + pow4[x2])) % p
        total += pow4.count(need)
    # chart x0 = x1 = 0, x2 = 1
    total += pow4.count((-1) % p)
    # chart x0 = x1 = x2 = 0, x3 = 1: 1 = 0 has no solutions
    return total


def chi16(n: int) -> int:
    """The Dirichlet character mod 16 with chi(5) = 1, chi(15) = -1.

    (Z/16Z)^x is generated by 15 and 5 (orders 2 and 4); the two printed
    generator values pin the character uniquely, and they force chi(5)'s
    order to divide 4 with chi(5) = 1, so chi factors through {+-1}.
    """
    n %= 16
    if n % 2 == 0:
        return 0
    # decompose n = (-1)^a * 5^b mod 16
    for a in (0, 1):
        m = (n * pow(15, a, 16)) % 16
        x = 1
        for b in range(4):
            if x == m:
                return (-1) ** a  # chi(5) = 1 kills the 5-part
            x = x * 5 % 16
    raise ArithmeticError(f"{n} not generated by 15 and 5 mod 16")


@dataclass(frozen=True)
class ZetaRecord:
    """Per-prime zeta data for a Legendre fiber and the quartic surface.

    elliptic_factor is (1, -a_p, p) for 1 - a_p T + p T^2; sym2_factor is the
    quadratic part (1, -(a_p^2-2p), p^2) of the symmetric square (the linear
    part (1-pT) is implicit); k3_factor is (1, -b_p, p^2).  sym2_match is
    only evaluated at lam = 2, where the two quadratics are conjecturally
    equal; weil_ok records |a_p| <= 2 sqrt(p) exactly via a_p^2 <= 4p.
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


def zeta_record(lam, p: int, eta_table: Optional[Sequence[int]] = None) -> ZetaRecord:
    """Assemble the per-prime factors; raises BadReductionError at bad primes."""
    lam = Fraction(lam)
    a_p = ap_legendre(lam, p)
    sym2_q = a_p * a_p - 2 * p
    at_two = lam == 2
    b_p = bp_eta(p, eta_table) if at_two else None
    return ZetaRecord(
        p=p,
        a_p=a_p,
        b_p=b_p,
        elliptic_factor=(1, -a_p, p),
        sym2_factor=(1, -sym2_q, p * p),
        k3_factor=(1, -b_p, p * p) if at_two else None,
        weil_ok=a_p * a_p <= 4 * p,
        sym2_match=(b_p == sym2_q) if at_two else None,
    )


def zeta_table(lam, pmax: int) -> list[ZetaRecord]:
    """Zeta records for all good odd primes below pmax, in order."""
    lam = Fraction(lam)
    eta_table = eta6_coefficients(pmax) if lam == 2 else None
    out = []
    for p in primes_below(pmax):
        try:
            out.append(zeta_record(lam, p, eta_table))
        except BadReductionError:
            continue
    return out


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
