"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402

import mirrorperiods  # noqa: E402
from mirrorperiods import arith, cli, periods, qseries  # noqa: E402

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _bindings():
    snap = {}
    for module in tracing._modules():
        for key, value in vars(module).items():
            snap[(module.__name__, key)] = value
    for key, value in vars(qseries.RationalSeries).items():
        snap[("RationalSeries", key)] = value
    return snap


def test_tracer_restores_every_binding():
    before = _bindings()
    tr = tracing.Tracer()
    tr.install(mirrorperiods)
    try:
        assert periods.theta_const is not before[("mirrorperiods.hyperfun", "theta_const")]
        assert mirrorperiods.eta_value is not before[("mirrorperiods.hyperfun", "eta_value")]
        assert qseries.RationalSeries.__rmul__ is qseries.RationalSeries.__mul__
        periods.check_identity("THETA-V", 6)
        arith.zeta_table(2, 30)
    finally:
        tr.uninstall()
    after = _bindings()
    assert before.keys() == after.keys()
    changed = [k for k in before if before[k] is not after[k]]
    assert changed == []
    calls, self_s = tr.self_times()
    assert calls["periods.check_identity"] == 1
    assert calls["qseries.compose"] >= 1 and calls["arith.ap_legendre"] >= 1
    assert tr.gauges["arith.eta6_coefficients.limit"] == 30


def test_self_times_add_up_to_root_spans():
    tr = tracing.Tracer()
    tr.install(mirrorperiods)
    try:
        periods.check_identity("DELTA-LAMBDA", 8)
    finally:
        tr.uninstall()
    _, self_s = tr.self_times()
    roots = sum(end - start for _, start, end, parent in tr.spans if parent is None)
    assert sum(self_s.values()) == pytest.approx(roots, rel=1e-9)
    assert all(v >= 0 for v in self_s.values())


def test_selftest_fail_is_a_failed_op(tmp_path):
    op = run.run_op("exact-series", {"ids": ["QT1", "SELFTEST-FAIL"], "order": 8},
                    False, tmp_path, timeout=120)
    assert "wall_s" in op
    assert any("SELFTEST-FAIL" in e for e in op["errors"])
    errors, _ = workloads.gate_exact([periods.check_identity("QT1", 8)], 8)
    assert errors == []
    errors, _ = workloads.gate_exact([periods.check_identity("QT1", 8)], 9)
    assert errors  # the report must name the asked order


def test_battery_gate_rejects_altered_ratio(tmp_path):
    out = tmp_path / "deligne.json"
    assert cli.main(["deligne", "--digits", "40", "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    errors, margin = workloads.gate_battery(0, report)
    assert errors == [] and 0 < margin < workloads.EXACT_MARGIN_DIGITS
    for e in report["entries"]:
        if e["name"] == "deligne-summary":
            e["ratio1"] = "17"
    errors, _ = workloads.gate_battery(0, report)
    assert errors
    errors, _ = workloads.gate_battery(1, {"overall_pass": False, "entries": []})
    assert len(errors) >= 2


@pytest.mark.parametrize("workload", sorted(workloads.RUNNERS))
def test_inputs_follow_the_seed(workload):
    assert workloads.make_inputs(workload, 7) == workloads.make_inputs(workload, 7)
    differs = workloads.make_inputs(workload, 7) != workloads.make_inputs(workload, 8)
    assert differs == (workload != "battery")  # the battery runs the paper's defaults


def test_seeded_detours_keep_clearance():
    for seed in range(50):
        inputs = workloads.make_inputs("high-precision", seed)
        path = [complex(float(Fraction(re)), float(Fraction(im))) for re, im in inputs["detour"]]
        assert abs(path[1]) > 0.9 and path[2].imag <= 0 and 0.1 <= abs(path[2]) <= 0.5
        assert workloads._clear_of_singularities(path)


def test_cm_oracle_matches_eta_product():
    table = arith.eta6_coefficients(1000)
    for p in arith.primes_below(1000)[1:]:
        assert workloads.cm_bp(p) == (table[p] if p % 4 == 1 else 0)


def test_meter_measures_and_stops():
    with run.Meter() as meter:
        end = time.monotonic() + 0.3
        while time.monotonic() < end:
            pass
    assert meter.proc.returncode is not None  # stopped and waited for
    assert meter.units > 0 and meter.scale > 0


def test_missing_checkout_exits_nonzero(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(Path(run.__file__).parent, bench,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "arith",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


@pytest.mark.parametrize("trace", [False, True])
def test_result_line_matches_benchmark_json(monkeypatch, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    monkeypatch.setattr(workloads, "make_inputs",
                        lambda workload, seed: {"ids": ["QT1", "THETA-V"], "order": 8})
    details, result = run.run("exact-series", 1, 0, trace)
    assert result["correct"] and result["attempted"] == (2 if trace else 1)
    assert set(result["metrics"]) == {m["name"] for m in spec[key]}
    for m in spec[key]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert details["environment"]["mpmath_backend"]
