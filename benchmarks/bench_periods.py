"""Layer micro-benchmarks for periods, continuation and the Deligne stage (pytest-benchmark).

Not collected by the tier-1 suite; run from the repository root with

    PYTHONPATH=src python -m pytest benchmarks/bench_periods.py --benchmark-json=run.json

and fold one or two such files into a BENCH file with ``benchmarks/fold.py``.
Everything runs at the paper's 120 digits unless named otherwise, five
rounds each:

* ``test_continue_legendre_to_two``: the Legendre frame transported along the
  canonical lower detour to lambda = 2, the most expensive object of a run;
* ``test_continue_legendre_to_two_200``: the same transport at 200 digits,
  the precision of the benchmark's ``high-precision`` workload;
* ``test_continue_detour_200``: the Legendre frame transported at 200 digits
  along a fixed rational path from lambda = 0.1 to 0.5 - 0.9i, where
  |lambda| > 0.9 puts the series out of reach, like the seeded detours of
  ``high-precision``;
* ``test_legendre_jet`` and ``test_dwork_periods``: the two series sides of
  the mirror-map check at the grid point lambda = 0.3 (``dwork_periods`` at
  its psi), twenty rounds each after one untimed warm-up round;
* ``test_legendre_jet_200`` and ``test_dwork_periods_200``: the same at 200
  digits, the precision of the ``high-precision`` workload;
* ``test_lvalue_termwise[1]`` and ``test_lvalue_termwise[2]``: the L-values
  L1 and L2 by termwise incomplete-gamma integration (``deligne.lvalue``);
* ``test_deligne_stage``: what ``mirrorperiods deligne`` computes, that
  transport followed by ``deligne.report`` on its frame;
* ``test_deligne_report``: ``deligne.report`` alone, on a frame built before
  timing starts (theta value, L-values, Fricke checks, ratio recovery).
"""

from fractions import Fraction

import pytest

from mirrorperiods import deligne, periods, pfode

DIGITS = 120
ROUNDS = 5
SERIES_ROUNDS = 20
GRID_POINT = periods.MIRROR_GRID[3]  # lambda = 0.3, the largest |lambda| on the grid
DETOUR = pfode.ContinuationPath(((Fraction(1, 10), Fraction(0)),
                                 (Fraction(1, 2), Fraction(-9, 10))))


def _frame_at_two():
    return pfode.continue_legendre(pfode.CANONICAL_PATH_TO_TWO, DIGITS)


def _deligne_stage():
    return deligne.report(_frame_at_two(), DIGITS)


def _assert_ratios(rep):
    assert rep["ratios"] == (16, -64)
    assert all(res <= tol for _, res, tol in rep["checks"])


def test_continue_legendre_to_two(benchmark):
    frame = benchmark.pedantic(_frame_at_two, rounds=ROUNDS, iterations=1)
    assert frame.order == 2


def test_continue_legendre_to_two_200(benchmark):
    frame = benchmark.pedantic(pfode.continue_legendre,
                               args=(pfode.CANONICAL_PATH_TO_TWO, 200),
                               rounds=ROUNDS, iterations=1)
    assert frame.order == 2


def test_continue_detour_200(benchmark):
    frame = benchmark.pedantic(pfode.continue_legendre, args=(DETOUR, 200),
                               rounds=ROUNDS, iterations=1)
    assert frame.order == 2


def _bench_legendre_jet(benchmark, digits):
    jet = benchmark.pedantic(periods.legendre_jet, args=(GRID_POINT, digits),
                             rounds=SERIES_ROUNDS, iterations=1, warmup_rounds=1)
    assert jet.varpi0 != 0


def _bench_dwork_periods(benchmark, digits):
    psi = periods.quad_map(GRID_POINT, digits).psi
    dw = benchmark.pedantic(periods.dwork_periods, args=(psi, digits),
                            rounds=SERIES_ROUNDS, iterations=1, warmup_rounds=1)
    assert dw.tau.imag > 0


def test_legendre_jet(benchmark):
    _bench_legendre_jet(benchmark, DIGITS)


def test_legendre_jet_200(benchmark):
    _bench_legendre_jet(benchmark, 200)


def test_dwork_periods(benchmark):
    _bench_dwork_periods(benchmark, DIGITS)


def test_dwork_periods_200(benchmark):
    _bench_dwork_periods(benchmark, 200)


@pytest.mark.parametrize("s", [1, 2])
def test_lvalue_termwise(benchmark, s):
    res = benchmark.pedantic(deligne.lvalue, args=(s, DIGITS),
                             rounds=ROUNDS, iterations=1)
    assert res.value > 0


def test_deligne_stage(benchmark):
    _assert_ratios(benchmark.pedantic(_deligne_stage, rounds=ROUNDS, iterations=1))


@pytest.fixture(scope="module")
def frame_at_two():
    return _frame_at_two()


def test_deligne_report(benchmark, frame_at_two):
    rep = benchmark.pedantic(deligne.report, args=(frame_at_two, DIGITS),
                             rounds=ROUNDS, iterations=1)
    _assert_ratios(rep)
