import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from mpmath import mp, mpf

from helpers import is_provably_zero
from mirrorperiods import arith, cli, deligne, hyperfun, periods, pfode
from mirrorperiods.hyperfun import PrecisionError, exact_pair, waypoint_strings, working_precision
from mirrorperiods.periods import Entry
from mirrorperiods.qseries import RationalSeries

SRC = str(Path(__file__).resolve().parent.parent / "src")
DATA = Path(__file__).resolve().parent / "data"


def run_main(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def run_subprocess(argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-m", "mirrorperiods.cli", *argv],
                          capture_output=True, text=True, env=env)


def test_lambda_series_command(capsys):
    code, out = run_main(["lambda-series", "--terms", "6"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["overall_pass"] is True
    coeffs = rep["entries"][0]["coefficients"]
    assert coeffs == ["16", "-128", "704", "-3072", "11488", "-38400"]


def test_zeta_tsv_row(capsys):
    code, out = run_main(["zeta", "--lambda", "2", "--pmax", "20", "--format", "tsv"],
                         capsys)
    assert code == 0
    rows = [line.split("\t") for line in out.strip().splitlines()]
    assert rows[0] == ["p", "a_p", "b_p", "sym2_match", "weil_ok"]
    row5 = next(r for r in rows if r[0] == "5")
    assert row5 == ["5", "-2", "-6", "True", "True"]


def test_zeta_tsv_with_quartic_counts(capsys):
    code, out = run_main(["zeta", "--lambda", "2", "--pmax", "20", "--quartic-bound", "17",
                          "--format", "tsv", "--with-quartic-counts"], capsys)
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()]
    assert rows[0] == ["p", "a_p", "b_p", "sym2_match", "weil_ok", "n_p_fermat"]
    counts = {int(r[0]): r[5] for r in rows[1:]}
    assert list(counts) == [3, 5, 7, 11, 13, 17, 19]
    assert counts.pop(19) == ""  # beyond --quartic-bound: not counted
    assert all(int(n) == arith.fermat_quartic_count(p) for p, n in counts.items())
    b17 = int(next(r for r in rows if r[0] == "17")[2])
    assert int(counts[17]) == 600 == 1 + 20 * 17 + b17 + 17 ** 2


def test_zeta_without_good_primes_fails(capsys):
    # 2 and 3 are both bad primes for lambda = 1/3, so nothing is checked
    code, out = run_main(["zeta", "--lambda", "1/3", "--pmax", "4"], capsys)
    assert code == 1
    rep = json.loads(out)
    assert rep["overall_pass"] is False
    assert rep["entries"] == [{"name": "no-good-primes", "passed": False,
                               "informational": False, "lambda": "1/3", "pmax": 4}]


def test_identities_small_order(capsys):
    code, out = run_main(["identities", "--ids", "QT1,THETA-V", "--order", "12",
                          "--digits", "40"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert all(e["passed"] for e in rep["entries"])
    assert rep["entries"][0]["residual"] == "0"


def test_forced_failure_exit_code(capsys):
    code, out = run_main(["identities", "--ids", "SELFTEST-FAIL", "--order", "10",
                          "--digits", "40"], capsys)
    assert code == 1
    rep = json.loads(out)
    assert rep["overall_pass"] is False


def test_mirror_exact_follows_order(capsys):
    code, out = run_main(["identities", "--ids", "MIRROR-EXACT", "--order", "20"], capsys)
    assert code == 0
    [entry] = json.loads(out)["entries"]
    assert entry["where"] == "series order 20" and entry["residual"] == "0"


def _mirror_mutant(k, inverse):
    """MIRROR-EXACT's residuals with k in place of the 4 in front of S/W0,
    and with (1 - lam/2)^-1 in place of (1 - lam/2) in front of varpi0^2
    when `inverse`."""
    def residuals(n):
        r1, r2 = periods._mirror_exact_residuals(n)
        w0, s, _ = periods.w_series_t(n)
        t = periods.quad_transform_series(n)
        half = RationalSeries([Fraction(1), Fraction(-1, 2)], 0, n)
        r1 = r1 + s.compose(t) * w0.compose(t).reciprocal() * (k - 4)
        if inverse:
            r2 = r2 + (half - half.reciprocal()) * periods.varpi0_series(n) ** 2
        return r1, r2
    return residuals


@pytest.mark.parametrize("k, inverse", [(3, False), (5, False), (4, True)],
                         ids=["3-S/W0", "5-S/W0", "inverse-half"])
def test_mirror_exact_mutants_fail(k, inverse, monkeypatch, capsys):
    mutant = _mirror_mutant(k, inverse)
    r1, r2 = mutant(48)
    assert is_provably_zero(r1) == (k == 4) and is_provably_zero(r2) == (not inverse)
    monkeypatch.setitem(periods.IDENTITIES, "MIRROR-EXACT", (mutant, 40, True))
    code, out = run_main(["identities", "--ids", "MIRROR-EXACT", "--digits", "40"], capsys)
    assert code == 1
    [entry] = json.loads(out)["entries"]
    assert entry["passed"] is False and entry["residual"] != "0"
    assert entry["where"] == "series order 40"


def test_continue_command(capsys):
    code, out = run_main(["continue", "--target", "2", "--digits", "40"], capsys)
    assert code == 0
    rep = json.loads(out)
    entry = rep["entries"][0]
    assert entry["passed"] and entry["im_positive"]
    assert entry["expected"].startswith("(-0.5")


def test_continue_reports_the_route_it_takes(capsys):
    # inside the series disk tau comes from the series at the target and no
    # path is walked, so the entry's path is null; outside it the entry
    # names the path tau_at walks
    code, out = run_main(["continue", "--target=-1/3", "--digits", "40"], capsys)
    assert code == 0
    [entry] = json.loads(out)["entries"]
    assert entry["path"] is None
    jet = periods.legendre_jet(Fraction(-1, 3), 40)
    with working_precision(40):
        assert entry["tau"] == mp.nstr(jet.varpi1 / jet.varpi0, 40)
    code, out = run_main(["continue", "--target", "3/5", "--digits", "40"], capsys)
    assert code == 0
    [entry] = json.loads(out)["entries"]
    assert entry["path"] == [waypoint_strings(w)
                             for w in pfode.default_path(Fraction(3, 5)).waypoints] \
        == [["0.1", "0.0"], ["0.6", "0.0"]]


def test_continue_with_explicit_path(capsys):
    path = '[["0.1","0"],["0.1","-1.2"],["2","0"]]'
    code, out = run_main(["continue", "--target", "2", "--path", path,
                          "--digits", "40"], capsys)
    assert code == 0


def test_upper_detour_to_two_is_a_failed_check(capsys):
    # the homotopy class matters: the mirror-image detour through
    # Im(lambda) > 0 lands on tau = (1+i)/2, not the printed (-1+i)/2
    path = '[["0.1","0"],["0.1","1.2"],["2","0"]]'
    code, out = run_main(["continue", "--target", "2", "--path", path], capsys)
    assert code == 1
    [entry] = json.loads(out)["entries"]
    assert entry["name"] == "tau(2)" and entry["passed"] is False
    assert entry["expected"] == "(-0.5 + 0.5j)"
    assert abs(complex(entry["tau"].replace(" ", "")) - (1 + 1j) / 2) < 1e-12
    assert abs(float(entry["residual"]) - 1) < 1e-12


def test_bps_command(capsys):
    code, out = run_main(["bps", "--terms", "5", "--digits", "40"], capsys)
    assert code == 0
    rep = json.loads(out)
    coeffs = rep["entries"][0]["coefficients"]
    assert coeffs == ["1", "24", "324", "3200", "25650"]
    assert rep["entries"][0]["offset"] == "-1"


def test_fermat_count_command(capsys):
    code, out = run_main(["fermat-count", "--primes", "17,41"], capsys)
    assert code == 0
    rep = json.loads(out)
    counts = {e["p"]: e["count"] for e in rep["entries"]}
    assert counts == {17: 600, 41: 2520}


def test_all_entry_names_are_unique(capsys):
    # each entry's name says which check it is; the mirror-vs-period
    # entries share theirs and differ by their point
    code, out = run_main(["all", "--digits", "40", "--pmax", "100"], capsys)
    assert code == 0
    entries = json.loads(out)["entries"]
    names = [e["name"] for e in entries if e["name"] != "mirror-vs-period"]
    assert len(names) == len(set(names))
    points = [tuple(e["point"]) for e in entries if e["name"] == "mirror-vs-period"]
    assert len(points) == len(set(points)) == len(periods.MIRROR_GRID)


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, _ = run_main(["lambda-series", "--terms", "4", "--output", str(target)], capsys)
    assert code == 0
    rep = json.loads(target.read_text())
    assert rep["command"] == "lambda-series"


def test_usage_errors_exit_2(capsys):
    for argv in (["no-such-command"], ["lambda-series", "--digits", "10"],
                 ["deligne", "--format", "tsv"],
                 ["fermat-count", "--primes", "2"], ["fermat-count", "--primes", "103"],
                 ["identities", "--ids", "NOPE"], ["continue", "--target", "abc"],
                 ["continue", "--target", "1"], ["continue", "--path", "[1"],
                 ["continue", "--target", "2", "--path", '[["0.1","0"],["0.5","0"]]'],
                 ["deligne", "--digits", "35"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        if argv[0] != "no-such-command":
            assert err.startswith(f"usage: mirrorperiods {argv[0]}")
        assert "Traceback" not in err


def test_usage_error_is_the_process_exit_code():
    argv = ["deligne", "--digits", "35"]
    r = run_subprocess(argv)
    assert r.returncode == 2
    assert r.stderr.startswith(f"usage: mirrorperiods {argv[0]}")
    assert "Traceback" not in r.stderr


def test_package_runs_as_a_module():
    env = dict(os.environ, PYTHONPATH=SRC)
    r = subprocess.run([sys.executable, "-m", "mirrorperiods", "identities", "--ids", "QT1",
                        "--order", "8"], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["entries"][0]["name"] == "QT1"


def test_byte_stable_reports():
    argv = ["identities", "--ids", "QT1,BPS", "--order", "8", "--digits", "40"]
    a = run_subprocess(argv)
    b = run_subprocess(argv)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    c = run_subprocess(["zeta", "--pmax", "30", "--format", "tsv"])
    d = run_subprocess(["zeta", "--pmax", "30", "--format", "tsv"])
    assert c.stdout == d.stdout and c.stdout


def test_timings_flag_adds_data(capsys):
    code, out = run_main(["lambda-series", "--terms", "4", "--timings"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert "total_seconds" in rep
    assert list(rep["selection_seconds"]) == ["lambda-series"]
    code, out = run_main(["identities", "--ids", "QT1,THETA-V", "--timings"], capsys)
    assert code == 0
    entries = json.loads(out)["entries"]
    assert [list(e)[-1] for e in entries] == ["seconds", "seconds"]
    # and changes nothing else in them
    _, plain = run_main(["identities", "--ids", "QT1,THETA-V"], capsys)
    assert [{k: v for k, v in e.items() if k != "seconds"} for e in entries] \
        == json.loads(plain)["entries"]
    # `all` times each of its selections, in report order
    code, out = run_main(["all", "--digits", "40", "--pmax", "50", "--timings"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert list(rep["selection_seconds"]) == [" ".join(sel) for sel in cli.ALL]
    assert all(t >= 0 for t in rep["selection_seconds"].values())
    assert sum(rep["selection_seconds"].values()) <= rep["total_seconds"] + 0.01


def test_text_format(capsys):
    code, out = run_main(["lambda-series", "--terms", "4", "--format", "text"], capsys)
    assert code == 0
    assert out.startswith("mirrorperiods 0.1.0")
    assert "overall: PASS" in out


def test_deligne_reconstruction_error_is_a_failed_entry(monkeypatch, capsys):
    def no_rational(frame, digits):
        raise deligne.ReconstructionError("no rational with denominator <= 1000000")

    monkeypatch.setattr(deligne, "report", no_rational)
    code, out = run_main(["deligne", "--digits", "40"], capsys)
    assert code == 1
    rep = json.loads(out)
    assert rep["overall_pass"] is False
    assert rep["entries"] == [{"name": "deligne", "passed": False, "informational": False,
                               "error": "ReconstructionError: no rational with "
                                        "denominator <= 1000000"}]


def test_deligne_precision_error_is_a_failed_entry(monkeypatch, capsys):
    def mismatch(frame, digits):
        raise PrecisionError("theta vs continuation cross-check failed")

    monkeypatch.setattr(deligne, "deligne_periods", mismatch)
    code, out = run_main(["deligne", "--digits", "40", "--format", "text"], capsys)
    assert code == 1
    assert "[FAIL] deligne" in out and "overall: FAIL" in out


def test_deligne_crosscheck_mismatch_exits_1(monkeypatch, capsys):
    def off_frame(path, digits):
        with working_precision(digits):
            w0 = mp.sqrt(deligne.theta_quartic_point(digits)) * (1 + mpf(10) ** -20)
        return SimpleNamespace(columns=((w0,),))

    monkeypatch.setattr(cli.pfode, "continue_legendre", off_frame)
    code, out = run_main(["deligne", "--digits", "40"], capsys)
    assert code == 1
    entries = {e["name"]: e for e in json.loads(out)["entries"]}
    assert entries["theta-vs-continuation"]["passed"] is False
    assert entries["ratio1-is-16"]["passed"] and entries["ratio2-is-minus-64"]["passed"]


@pytest.mark.parametrize("fault, value, error", [
    (1, "", "no rational with denominator <= 1000000 within 1.0e-110"),
    (1j, "(", "period ratio failed to be real"),
])
def test_theta_fault_keeps_the_deligne_self_checks(fault, value, error, monkeypatch, capsys):
    # theta3^4 at the quartic point off in its 60th digit: the ratios no
    # longer reconstruct (or are not real) and each fails its own entry,
    # while the Fricke checks pass and theta-vs-continuation fails, naming
    # the faulty layer
    theta = deligne.theta_quartic_point

    def faulty(digits):
        v = theta(digits)
        with mp.workdps(400):
            return v * (1 + fault * mpf(10) ** -60)

    monkeypatch.setattr(deligne, "theta_quartic_point", faulty)
    code, out = run_main(["deligne"], capsys)
    assert code == 1
    entries = {e["name"]: e for e in json.loads(out)["entries"]}
    assert "deligne" not in entries
    assert entries["theta-vs-continuation"]["passed"] is False
    assert all(entries[f"fricke-eta6-y={y}"]["passed"] for y in ("3/10", "7/10", "3/2"))
    for name, ratio in (("ratio1-is-16", "16.0"), ("ratio2-is-minus-64", "-64.0")):
        assert entries[name]["passed"] is False
        assert entries[name]["value"].startswith(value + ratio)
        assert entries[name]["error"] == f"ReconstructionError: {error}"


@pytest.mark.parametrize("digits", ["35", "301"])
def test_deligne_digit_range_is_a_usage_error(digits, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["deligne", "--digits", digits])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: mirrorperiods deligne") and "--digits" in err


def test_deligne_transport_failure_is_a_failed_entry(monkeypatch, capsys):
    def no_frame(path, digits):
        raise pfode.PathError("Taylor step failed to reach target accuracy")

    monkeypatch.setattr(cli.pfode, "continue_legendre", no_frame)
    code, out = run_main(["deligne", "--digits", "40"], capsys)
    assert code == 1
    assert json.loads(out)["entries"] == [
        {"name": "deligne", "passed": False, "informational": False,
         "error": "PathError: Taylor step failed to reach target accuracy"}]


def test_one_transport_to_two_per_run(monkeypatch, tmp_path):
    calls = []
    transport = pfode.continue_legendre

    def counted(path, digits):
        calls.append(path)
        return transport(path, digits)

    monkeypatch.setattr(pfode, "continue_legendre", counted)

    def run(*argv):
        calls.clear()
        out = tmp_path / "report.json"
        code = cli.main([*argv, "--digits", "40", "--output", str(out)])
        return code, len(calls), json.loads(out.read_text())["entries"]

    code, transports, battery = run("all")
    assert code == 0 and transports == 2  # lambda = 2 and lambda = 2 sqrt 2 - 2
    code, transports, cont = run("continue", "--target", "2")
    assert code == 0 and transports == 1
    assert [e for e in battery if e["name"] == "tau(2)"] == cont
    code, transports, dl = run("deligne")
    assert code == 0 and transports == 1
    start = [e["name"] for e in battery].index("deligne-summary")
    assert battery[start:start + len(dl)] == dl


@pytest.mark.parametrize("lam", ["0", "1", "2/2"])
def test_singular_lambda_is_a_usage_error(lam, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["zeta", "--lambda", lam])
    assert exc.value.code == 2
    assert "singular at lambda" in capsys.readouterr().err


@pytest.mark.parametrize("primes", ["9", "0", "17,1", "-5"])
def test_non_prime_is_a_usage_error(primes, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["fermat-count", "--primes", primes])
    assert exc.value.code == 2
    assert "not prime" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--primes", "2"], "p = 2 is a bad prime"),
    (["--primes", "17,2"], "p = 2 is a bad prime"),
    (["--primes", "103"], "p = 103 beyond --quartic-bound 101"),
    (["--primes", "17,241", "--quartic-bound", "200"], "p = 241 beyond --quartic-bound 200"),
])
def test_uncountable_prime_is_a_usage_error(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["fermat-count", *argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: mirrorperiods fermat-count") and message in err


def test_huge_prime_is_rejected_by_the_bound_first(capsys):
    # 2^61 - 1 is prime; trial division up to its square root would take
    # minutes, so the bound is checked first
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        cli.main(["fermat-count", "--primes", "2305843009213693951"])
    assert time.perf_counter() - start < 1
    assert exc.value.code == 2
    assert "beyond --quartic-bound" in capsys.readouterr().err


def test_prime_at_quartic_bound_is_counted(capsys):
    code, out = run_main(["fermat-count", "--primes", "103", "--quartic-bound", "103"], capsys)
    assert code == 0
    assert json.loads(out)["entries"][0]["count"] == 10816


@pytest.mark.parametrize("command", ["lambda-series", "bps"])
@pytest.mark.parametrize("terms", ["0", "-3"])
def test_nonpositive_terms_is_a_usage_error(command, terms, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--terms", terms])
    assert exc.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["identities", "--ids", "NOPE"], "unknown identity id: 'NOPE'"),
    (["identities", "--ids", "QT1,"], "unknown identity id: ''"),
    (["continue", "--target", "abc"], "not a rational number: 'abc'"),
    (["continue", "--target", "1"], "singular at lambda = 1"),
    (["continue", "--path", "[1"], "at least two [re, im] pairs"),
    (["continue", "--path", '[["0.1","0"]]'], "at least two [re, im] pairs"),
    (["continue", "--path", '[["0.1","0","1"],["2","0"]]'], "at least two [re, im] pairs"),
    (["continue", "--path", '[["0.1","x"],["2","0"]]'], "at least two [re, im] pairs"),
    (["all", "--digits", "35"], "deligne needs 40 <= --digits <= 300"),
    (["all", "--quartic-bound", "50"], "p = 73, 89, 97 beyond --quartic-bound 50"),
    (["continue", "--target", "2", "--path", '[["0.1","0"],["0.5","0"]]'],
     "--path ends at [1/2, 0], not at --target 2"),
    (["continue", "--target", "1/2", "--path", '[["0.1","0"],["0.5","0.1"]]'],
     "--path ends at [1/2, 1/10], not at --target 1/2"),
    (["zeta", "--lambda", "3", "--pmax", "12", "--with-quartic-counts", "--format", "tsv"],
     "--with-quartic-counts needs --lambda 2, got --lambda 3"),
    (["zeta", "--lambda", "-1/3", "--with-quartic-counts"],
     "--with-quartic-counts needs --lambda 2, got --lambda -1/3"),
])
def test_bad_input_is_a_usage_error(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: mirrorperiods {argv[0]}") and message in err


def test_default_report_is_unchanged(capsys):
    # tests/data/all_default.json is the default report as committed; any
    # byte of difference is a change to what `mirrorperiods all` claims
    code, out = run_main(["all"], capsys)
    assert code == 0
    assert out.encode("utf-8") == (DATA / "all_default.json").read_bytes()


@pytest.mark.parametrize("lam, digest", [
    ("2", "4baa38587735699cdff5198e4c2fe1e1b596465c5ea437213c60fb5a662923cf"),
    ("-7/13", "ddbe22e56d111394e794c5d672e1b3b8f3747ae318e19b11f7283c3848777b71"),
])
def test_zeta_report_to_5000_is_unchanged(lam, digest, capsys):
    # sha256 of the JSON report: its a_p as the bitmask character sum
    # produced them, which the one-pass Hasse route must reproduce byte for
    # byte, and at lambda = 2 the K3 factor with the character chi_-4
    code, out = run_main(["zeta", f"--lambda={lam}", "--pmax", "5000"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_all_builds_each_lambda_series_once(monkeypatch, capsys):
    # identities asks for lambda(q) at its largest order first; lambda-series
    # and bps then truncate that table instead of building their own, so
    # q(lambda), which keeps no table, is built once
    builds = []
    build = periods.q_of_lambda_series
    monkeypatch.setattr(periods, "q_of_lambda_series",
                        lambda order: builds.append(order) or build(order))
    tables = [periods.lambda_q_series, periods.varpi0_q_series]
    for table in tables:
        table.cache_clear()
    code, _ = run_main(["all"], capsys)
    assert code == 0
    assert len(builds) == 1
    assert [table.cache_info().misses for table in tables] == [1, 1]


def test_all_keeps_only_the_tables_it_reuses(capsys):
    # after one `all` the cached objects of periods and pfode are exactly the
    # two the run asks for again, and hyperfun keeps no module-level table
    shared = {"lambda_q_series", "varpi0_q_series"}
    for name in shared:
        getattr(periods, name).cache_clear()
    code, _ = run_main(["all"], capsys)
    assert code == 0
    cached = {name: obj.cache_info() for module in (periods, pfode)
              for name, obj in vars(module).items() if hasattr(obj, "cache_info")}
    assert set(cached) == shared
    assert all(info.hits >= 1 for info in cached.values())
    assert not [name for name, obj in vars(hyperfun).items()
                if isinstance(obj, (list, dict, set)) and not name.startswith("__")]


def test_every_selection_sees_the_run_options(monkeypatch, tmp_path):
    # `all`'s shared options reach every selection, not each selection's
    # own defaults, and every selection gets the run's one frame memo
    seen = []

    def recorded(args, frame_at_two):
        seen.append((args, frame_at_two))
        return []

    for name in cli.COMMANDS:
        monkeypatch.setitem(cli.COMMANDS, name, recorded)
    argv = ["all", "--digits", "40", "--order", "20", "--pmax", "100",
            "--output", str(tmp_path / "report.json")]
    assert cli.main(argv) == 0
    assert [a.command for a, _ in seen] == [sel[0] for sel in cli.ALL]
    assert all((a.digits, a.order, a.pmax) == (40, 20, 100) for a, _ in seen)
    assert len({id(f) for _, f in seen}) == 1


@pytest.fixture(scope="module")
def battery_and_parts(tmp_path_factory):
    """`all --digits 40`, each of its selections run on its own, and the
    (command, returned value) of every handler call in those runs."""
    out = tmp_path_factory.mktemp("parts") / "report.json"
    returned = []

    def recorded(name, handler):
        def run(args, frame_at_two):
            returned.append((name, handler(args, frame_at_two)))
            return returned[-1][1]
        return run

    def run(argv):
        code = cli.main([*argv, "--digits", "40", "--output", str(out)])
        return code, json.loads(out.read_text())["entries"]

    with pytest.MonkeyPatch.context() as patch:
        for name, handler in cli.COMMANDS.items():
            patch.setitem(cli.COMMANDS, name, recorded(name, handler))
        return run(["all"]), [run(sel) for sel in cli.ALL], returned


def test_every_handler_returns_entries(battery_and_parts):
    (_, battery), _, returned = battery_and_parts
    assert {name for name, _ in returned} == set(cli.COMMANDS)
    assert all(isinstance(e, Entry) for _, entries in returned for e in entries)
    # the report is those entries through Entry.to_dict, and nothing else
    assert [e.to_dict() for _, entries in returned[:len(cli.ALL)] for e in entries] == battery


@pytest.mark.parametrize("index", range(len(cli.ALL)), ids=[" ".join(s) for s in cli.ALL])
def test_subcommand_is_its_slice_of_all(index, battery_and_parts):
    (code, battery), parts, _ = battery_and_parts
    assert code == 0 and sum(len(entries) for _, entries in parts) == len(battery)
    start = sum(len(entries) for _, entries in parts[:index])
    part_code, entries = parts[index]
    assert part_code == 0 and entries
    assert battery[start:start + len(entries)] == entries


def test_computation_errors_are_failed_entries(monkeypatch, capsys):
    def no_precision(digits):
        raise PrecisionError("series needs more terms")

    def no_path(lam, path=None, digits=None):
        raise pfode.PathError("step size underflow near a singular point")

    monkeypatch.setattr(periods, "mirror_map_residuals", no_precision)
    monkeypatch.setattr(pfode, "tau_at", no_path)
    code, out = run_main(["mirror-map", "--digits", "40"], capsys)
    assert code == 1
    assert json.loads(out)["entries"] == [
        {"name": "mirror-map", "passed": False, "informational": False,
         "error": "PrecisionError: series needs more terms"}]
    code, out = run_main(["continue", "--target", "2sqrt2-2", "--digits", "40"], capsys)
    assert code == 1
    assert json.loads(out)["entries"] == [
        {"name": "continue", "passed": False, "informational": False,
         "error": "PathError: step size underflow near a singular point"}]
    # in the battery each failure ends its own selection and the rest still run
    code, out = run_main(["all", "--digits", "40"], capsys)
    assert code == 1
    entries = json.loads(out)["entries"]
    assert [e["name"] for e in entries if not e["passed"]] == [
        "mirror-map", "continue --target 2sqrt2-2"]
    assert {"tau(2)", "deligne-summary", "BPS"} <= {e["name"] for e in entries}


def test_path_ending_at_target_is_accepted(capsys):
    # the check is exact on the parsed waypoints: 0.5 and 1/2 are one point
    code, out = run_main(["continue", "--target", "1/2", "--path", '[["0.1","0"],["0.5","0"]]',
                          "--digits", "40"], capsys)
    assert code == 0
    [entry] = json.loads(out)["entries"]
    assert entry["name"] == "tau(1/2)" and entry["passed"] is True


def test_replayed_2sqrt2m2_path_is_a_usage_error(capsys):
    # the default path goes through 2 sqrt 2 - 2 cut to 2^-20, and the
    # report prints its end to 30 digits, about 1e-31 off 2 sqrt 2 - 2:
    # replayed, the path misses the target by more than tau_at's
    # 10^-(digits-5), which is bad input (exit 2), not a failed check
    code, out = run_main(["continue", "--target", "2sqrt2-2"], capsys)
    assert code == 0
    [entry] = json.loads(out)["entries"]
    printed = json.dumps(entry["path"])
    assert printed == ('[["0.1", "0.0"], ["0.828426361083984375", "0.0"], '
                       '["0.828427124746190097603377448419", "0.0"]]')
    with pytest.raises(SystemExit) as exc:
        cli.main(["continue", "--target", "2sqrt2-2", "--path", printed])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: mirrorperiods continue")
    assert "not at --target 2sqrt2-2" in err
    # an end within 10^-(digits-5) of the target is accepted
    with working_precision(60):
        end = mp.nstr(2 * mp.sqrt(2) - 2, 60)
    code, out = run_main(["continue", "--target", "2sqrt2-2", "--digits", "50",
                          "--path", json.dumps([["0.1", "0"], [end, "0"]])], capsys)
    assert code == 0
    assert json.loads(out)["entries"][0]["passed"] is True


def test_failure_reasons_in_text_and_tsv(monkeypatch, capsys):
    code, out = run_main(["continue", "--target", "3", "--digits", "40", "--format", "text"],
                         capsys)
    assert code == 1
    line = next(s for s in out.splitlines() if "[FAIL]" in s)
    assert line.startswith("  [FAIL] continue PathError: path segment")
    code, out = run_main(["zeta", "--lambda", "1/3", "--pmax", "4", "--format", "tsv"], capsys)
    assert code == 1
    assert out == "p\ta_p\tb_p\tsym2_match\tweil_ok\n# no-good-primes: lambda=1/3 pmax=4\n"
    code, out = run_main(["zeta", "--lambda", "1/3", "--pmax", "4", "--format", "text"], capsys)
    assert code == 1
    assert "  [FAIL] no-good-primes lambda=1/3 pmax=4\n" in out

    def no_count(p, bound):
        raise ArithmeticError("count overflow")

    monkeypatch.setattr(cli.arith, "fermat_decomposition_check", no_count)
    code, out = run_main(["fermat-count", "--primes", "17", "--format", "tsv"], capsys)
    assert code == 1
    assert out.splitlines() == ["p\tcount\tpredicted\tmatch",
                                "# fermat-count: ArithmeticError: count overflow"]


@pytest.mark.parametrize("order", [60, 80])
def test_identities_report_at_high_order_is_unchanged(order, capsys):
    # tests/data/identities_order<n>.json is the full identity report at that
    # --order; the exact kernels must reproduce it byte for byte
    code, out = run_main(["identities", "--order", str(order)], capsys)
    assert code == 0
    assert out.encode("utf-8") == (DATA / f"identities_order{order}.json").read_bytes()


def test_transport_refusal_is_a_failed_entry(capsys):
    # the default path to lambda = 3 runs through the singular point 1
    code, out = run_main(["continue", "--target", "3", "--digits", "40"], capsys)
    assert code == 1
    [entry] = json.loads(out)["entries"]
    assert entry["name"] == "continue" and entry["passed"] is False
    assert entry["error"].startswith("PathError: path segment")


HUGE = "1" + "0" * 400  # 10^400, beyond a float's range


def test_huge_waypoints_print_exactly(monkeypatch, capsys):
    # a coordinate beyond a float's range prints as its exact value, every
    # other as before, and the printed path parses back to the same path.
    # The transport to 10^400 takes 2332 Taylor steps (37 s at 30 digits
    # on a 2-core x86_64 box), so tau is stubbed: the report is what this
    # test checks.
    monkeypatch.setattr(pfode, "tau_at", lambda lam, path, digits: mp.mpc(0, 1))
    waypoints = [["0.1", "0"], ["0.1", "-1e400"], ["1e400", "0"]]
    code, out = run_main(["continue", "--target", "1e400", "--digits", "30",
                          "--path", json.dumps(waypoints)], capsys)
    assert code == 0
    [entry] = json.loads(out)["entries"]
    assert entry["path"] == [["0.1", "0.0"], ["0.1", "-" + HUGE], [HUGE, "0.0"]]
    assert pfode.ContinuationPath.from_json(json.dumps(entry["path"])) == \
        pfode.ContinuationPath.from_json(json.dumps(waypoints))


def test_huge_target_reports_its_clearance_failure(capsys):
    # the straight default path to 10^400 runs through the singular point 1
    code, out = run_main(["continue", "--target", "1e400", "--digits", "40"], capsys)
    assert code == 1
    [entry] = json.loads(out)["entries"]
    assert entry["error"] == (f"PathError: path segment [(0.1+0j), ({HUGE}+0j)] passes "
                              "within clearance 0.1 of singular point (1+0j)")


def test_w_pi_grid_is_evaluated_once(monkeypatch, capsys):
    # one Dwork evaluation per grid point, and every Legendre jet of the grid
    # gets its exact point
    calls, jets = [], []
    dwork, jet = periods.dwork_periods, periods.legendre_jet

    def counted(t, psi, digits):
        calls.append(psi)
        return dwork(t, psi, digits)

    def counted_jet(lam, digits):
        jets.append(lam)
        return jet(lam, digits)

    monkeypatch.setattr(periods, "dwork_periods", counted)
    monkeypatch.setattr(periods, "legendre_jet", counted_jet)
    code, _ = run_main(["identities", "--ids", "W-PI", "--digits", "40"], capsys)
    assert code == 0
    assert len(calls) == len(periods.W_PI_GRID) == 3
    assert len(jets) == 3 and all(exact_pair(lam) is not None for lam in jets)


def test_w_pi_fails_on_a_w2_mutant(monkeypatch, capsys):
    # W-PI asserts W2 = Pi2 - Pi0/2: a W2 off by 10^-(digits-20), 10^5 times
    # the tolerance, is a FAIL entry whose residual is that offset
    dwork = periods.dwork_periods

    def mutant(t, psi, digits):
        dw = dwork(t, psi, digits)
        with working_precision(digits):
            return dw._replace(w2=dw.w2 + mpf(10) ** -(digits - 20))

    monkeypatch.setattr(periods, "dwork_periods", mutant)
    code, out = run_main(["identities", "--ids", "W-PI", "--digits", "40"], capsys)
    assert code == 1
    [entry] = json.loads(out)["entries"]
    assert entry["name"] == "W-PI" and entry["passed"] is False
    assert (entry["residual"], entry["tolerance"]) == ("1.0e-20", "1.0e-25")


@pytest.mark.parametrize("argv, name", [
    (["continue", "--digits", "40", "--target"], "tau(-1/3)"),
    (["zeta", "--pmax", "30", "--lambda"], "p=5"),
])
def test_negative_rational_as_a_separate_word(argv, name, capsys):
    # argparse takes -3 and -0.25 as values, but reads a separate -1/3 as an
    # option unless main attaches it to the option before it
    attached = run_main(argv[:-1] + [f"{argv[-1]}=-1/3"], capsys)
    separate = run_main(argv + ["-1/3"], capsys)
    assert separate == attached
    code, out = separate
    assert code == 0 and json.loads(out)["entries"][0]["name"] == name


def test_tau_below_the_real_axis_fails(monkeypatch, capsys):
    # even where its residual would pass
    monkeypatch.setattr(cli, "judged",
                        lambda *a, **k: periods.judged(*a, **k)._replace(passed=True))
    monkeypatch.setattr(pfode, "frame_tau", lambda frame, digits: mp.mpc(-1, -1) / 2)
    code, out = run_main(["continue", "--target", "2", "--digits", "40"], capsys)
    assert code == 1
    [entry] = json.loads(out)["entries"]
    assert (entry["name"], entry["passed"], entry["im_positive"]) == ("tau(2)", False, False)
    assert (entry["residual"], entry["tolerance"]) == ("1.0", "1.0e-30")


def _records():
    with working_precision(40):
        one, zero = mp.mpc(1), mp.mpf(0)
        return [Entry("x", True), arith.zeta_table(2, 20)[0],
                deligne.LValueResult(1, one.real, zero),
                deligne.DelignePeriodSet(one, one, one, one, one, zero, one.real),
                pfode.SolutionFrame((Fraction(1, 10), Fraction(0)), ((one, one), (zero, one))),
                pfode.ContinuationPath((Fraction(1, 10), Fraction(2)))]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_records_are_immutable(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None  # slotted: no instance dict takes new attributes


def test_entries_without_data_have_their_own_dict():
    a, b = Entry("a", True), Entry("b", False, where="here")
    assert a.data == b.data == {} and a.data is not b.data
    data = {"k": 1}
    assert Entry("c", True, data=data).data is data


def test_a_run_imports_no_dataclasses():
    # pytest itself loads dataclasses, so a fresh interpreter runs the
    # command and reports which of these modules the run added
    code = ("import os, sys; before = set(sys.modules); sys.path.insert(0, sys.argv[1]); "
            "from mirrorperiods import cli; "
            "cli.main(['identities', '--ids', 'QT1', '--order', '4', '--output', os.devnull]); "
            "print(sorted({'dataclasses', 'inspect', 'ast', 'dis'} & (set(sys.modules) - before)))")
    r = subprocess.run([sys.executable, "-I", "-c", code, SRC], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "[]\n"
