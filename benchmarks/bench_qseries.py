"""Layer micro-benchmarks for the exact series kernels (pytest-benchmark).

Not collected by the tier-1 suite; run from the repository root with

    PYTHONPATH=src python -m pytest benchmarks/bench_qseries.py --benchmark-json=run.json

and fold one or two such files into a BENCH file with ``benchmarks/fold.py``.
Operands are the paper's own series at orders 40 and 80: q(lambda) for
reversion, varpi0 composed with lambda(q) as in THETA-V, the reciprocal of
varpi0 (2-power denominators) and of the Euler product to the 24th (integers),
varpi0 times lambda(q), exp(h/varpi0) as in q(lambda), and the (1-z)^(-1/4)
prefactor of QT1 and QT2.  They are built before timing starts; only the
kernel call is timed.
"""

from fractions import Fraction
from functools import lru_cache

import pytest

from mirrorperiods import arith, periods
from mirrorperiods.qseries import RationalSeries, euler_product

ORDERS = (40, 80)


@lru_cache(maxsize=None)
def _operands(order: int) -> dict:
    return {
        "q_of_lambda": periods.q_of_lambda_series(order),
        "varpi0": periods.varpi0_series(order),
        "lambda_q": periods.lambda_q_series(order),
        "euler24": euler_product(1, order) ** 24,
        "h_over_varpi0": periods.h_series(order) * periods.varpi0_series(order).reciprocal(),
        "one_minus_z": RationalSeries.one(order) - RationalSeries.identity(order),
    }


def _clear_series_caches():
    for table in vars(periods).values():
        if hasattr(table, "cache_clear"):
            table.cache_clear()


@pytest.mark.parametrize("order", ORDERS)
def test_compose(benchmark, order):
    ops = _operands(order)
    out = benchmark(ops["varpi0"].compose, ops["lambda_q"])
    assert out.order == order


@pytest.mark.parametrize("order", ORDERS)
def test_mul(benchmark, order):
    ops = _operands(order)
    out = benchmark(ops["varpi0"].__mul__, ops["lambda_q"])
    assert out.order == order + 1  # lambda(q) is known one term further


@pytest.mark.parametrize("operand", ["varpi0", "euler24"])
@pytest.mark.parametrize("order", ORDERS)
def test_reciprocal(benchmark, order, operand):
    out = benchmark(_operands(order)[operand].reciprocal)
    assert out.order == order


@pytest.mark.parametrize("order", ORDERS)
def test_revert(benchmark, order):
    out = benchmark(_operands(order)["q_of_lambda"].revert)
    assert out.coefficient(1) == 16


@pytest.mark.parametrize("order", ORDERS)
def test_exp(benchmark, order):
    out = benchmark(_operands(order)["h_over_varpi0"].exp)
    assert out.coefficient(2) == Fraction(21, 64)


@pytest.mark.parametrize("order", ORDERS)
def test_pow_rational(benchmark, order):
    out = benchmark(_operands(order)["one_minus_z"].pow_rational, Fraction(-1, 4))
    assert out.coefficient(3) == Fraction(15, 128)


def test_lambda_q_series_70(benchmark):
    # from empty caches: varpi0, h, q(lambda) and the reversion, as a fresh run pays
    out = benchmark.pedantic(periods.lambda_q_series, args=(70,),
                             setup=_clear_series_caches, rounds=5)
    assert out.coefficient(1) == 16 and out.coefficient(2) == -128


def test_eta6_coefficients_2000(benchmark):
    out = benchmark(arith.eta6_coefficients, 2000)
    assert out[:6] == (0, 1, 0, 0, 0, -6)
