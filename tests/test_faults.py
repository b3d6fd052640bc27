"""Fault injection: a fault in one layer fails exactly the entries that read it.

Each row corrupts one layer at every module binding of it (``theta_const``
and ``eta_value`` are also bound in ``periods`` and ``deligne``), runs
``all --digits 40 --pmax 100`` in-process and pins the names of the entries
that fail.  A relative fault is 10^-12, above every tolerance at 40 digits
(the loosest, DELTA-THETA's, is 10^-20), applied at 100 digits so that the
fault, not a rounding, is what moves.  A series fault sits inside the
checked window: the last ``periods._PAD`` coefficients of an exact series
are never read.
"""

import json
import sys

import pytest
from mpmath import mp, mpf

from mirrorperiods import arith, cli, deligne, hyperfun, periods, pfode
from mirrorperiods.qseries import RationalSeries


def _scaled(x):
    with mp.workdps(100):
        return x * (1 + mpf(10) ** -12)


def _legendre_jet(jet):
    return jet._replace(varpi1=_scaled(jet.varpi1))


def _dwork_periods(dw):
    return dw._replace(w1=_scaled(dw.w1), tau=_scaled(dw.tau))


def _taylor_transport(result):
    (first, *rest), tail = result
    return [(_scaled(first[0]), first[1]), *rest], tail


def _lvalue(res):
    return res._replace(value=_scaled(res.value))


def _eta6_coefficients(table):
    return table[:5] + (table[5] + 1,) + table[6:]


def _ap_legendre(aps, lam, primes):
    return [a + 2 if p == 97 else a for p, a in zip(primes, aps)]


def _fermat_quartic_count(count, p, *_):
    return count + 41 if p == 41 else count


def _compose(series):
    if series.order <= 5:
        return series
    return series + RationalSeries([0] * 5 + [1], 0, series.order)


# (owner, name, corruption of the result, whether it also takes the
# arguments, failing entries); owner is where the original lives
ROWS = {
    "legendre_jet": (periods, "legendre_jet", _legendre_jet, False,
                     ["W-PI", "mirror-vs-period", "tau(2)", "tau(2*sqrt(2)-2)"]),
    "dwork_periods": (periods, "dwork_periods", _dwork_periods, False,
                      ["W-PI", "mirror-vs-period"]),
    "taylor_transport": (pfode, "_taylor_transport", _taylor_transport, False,
                         ["tau(2)", "tau(2*sqrt(2)-2)", "theta-vs-continuation"]),
    "theta_const": (hyperfun, "theta_const", _scaled, False,
                    ["DELTA-THETA", "theta-vs-continuation", "ratio1-is-16",
                     "ratio2-is-minus-64"]),
    "eta_value": (hyperfun, "eta_value", _scaled, False, ["DELTA-THETA"]),
    "lvalue": (deligne, "lvalue", _lvalue, False, ["ratio1-is-16", "ratio2-is-minus-64"]),
    "eta6_coefficients": (arith, "eta6_coefficients", _eta6_coefficients, False,
                          ["p=5", "ratio1-is-16", "ratio2-is-minus-64"]),
    "ap_legendre": (arith, "ap_legendre", _ap_legendre, True, ["p=97"]),
    "fermat_quartic_count": (arith, "fermat_quartic_count", _fermat_quartic_count, True,
                             ["fermat-p=41"]),
    "compose": (RationalSeries, "compose", _compose, False,
                ["QT1", "QT2", "QT3", "MIRROR-EXACT", "THETA-V", "THETA-24", "DLDTAU",
                 "DELTA-LAMBDA", "BPS", "bps-identity"]),
}


def _patch_every_binding(monkeypatch, owner, name, corrupt, with_args):
    """Rebind owner.name, and every mirrorperiods module name bound to the
    same object, to a wrapper that corrupts its result."""
    original = getattr(owner, name)

    def faulty(*args, **kwargs):
        result = original(*args, **kwargs)
        return corrupt(result, *args, **kwargs) if with_args else corrupt(result)

    monkeypatch.setattr(owner, name, faulty)
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("mirrorperiods") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, faulty)


@pytest.fixture
def cold_tables():
    """Clear periods' q-series tables before and after: they outlive a run,
    and a faulty one must not leak into the next."""
    for table in (periods.lambda_q_series, periods.varpi0_q_series):
        table.cache_clear()
    yield
    for table in (periods.lambda_q_series, periods.varpi0_q_series):
        table.cache_clear()


def _failing(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli.main(["all", "--digits", "40", "--pmax", "100", "--output", str(out)])
    assert "Traceback" not in capsys.readouterr().err
    entries = json.loads(out.read_text())["entries"]
    return code, {e["name"] for e in entries if not e["passed"]}


def test_no_fault_fails_nothing(tmp_path, capsys, cold_tables):
    assert _failing(tmp_path, capsys) == (0, set())


@pytest.mark.parametrize("row", list(ROWS))
def test_fault_fails_exactly_its_entries(row, tmp_path, capsys, monkeypatch, cold_tables):
    owner, name, corrupt, with_args, expected = ROWS[row]
    _patch_every_binding(monkeypatch, owner, name, corrupt, with_args)
    assert _failing(tmp_path, capsys) == (1, set(expected))
