"""Layer micro-benchmarks for the arithmetic layer (pytest-benchmark).

Not collected by the tier-1 suite; run from the repository root with

    PYTHONPATH=src python -m pytest benchmarks/bench_arith.py --benchmark-json=run.json

and fold one or two such files into a BENCH file with ``benchmarks/fold.py``.
The rows are the calls of the benchmark's ``arith`` workload, at its sizes,
five rounds each:

* ``test_eta6_coefficients_5000``: the eta(4 tau)^6 coefficient table to 5000;
* ``test_zeta_table[2]``: the lambda = 2 zeta records below 5000, one a_p
  character sum per prime plus the eta table for b_p;
* ``test_zeta_table[-7/13]``: the same for a generic fiber, a_p alone;
* ``test_fermat_quartic_count_241``: N_241 of the Fermat quartic, the
  largest prime the workload counts.
"""

from fractions import Fraction

import pytest

from mirrorperiods import arith

ROUNDS = 5
PMAX = 5000


def test_eta6_coefficients_5000(benchmark):
    out = benchmark.pedantic(arith.eta6_coefficients, args=(PMAX,), rounds=ROUNDS)
    assert out[:6] == (0, 1, 0, 0, 0, -6) and len(out) == PMAX + 1


@pytest.mark.parametrize("lam", [Fraction(2), Fraction(-7, 13)], ids=str)
def test_zeta_table(benchmark, lam):
    out = benchmark.pedantic(arith.zeta_table, args=(lam, PMAX), rounds=ROUNDS)
    assert all(rec.weil_ok for rec in out)


def test_fermat_quartic_count_241(benchmark):
    out = benchmark.pedantic(arith.fermat_quartic_count, args=(241, 241), rounds=ROUNDS)
    assert out == 1 + 20 * 241 + arith.bp_eta(241) + 241 ** 2
