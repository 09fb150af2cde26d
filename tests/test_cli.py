import json
import subprocess
import sys
from types import SimpleNamespace

import pytest

from arithsurf.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_symbol_horizontal_at_point(capsys):
    code, out, _ = run(capsys, "symbol", "--curve", "H:t", "--point", "5:t",
                       "--f", "1*(t)^1", "--g", "5")
    assert code == 0
    assert "value: 1" in out
    assert "branches:" in out  # per-branch itemization for horizontal curves


def test_symbol_vertical_at_point(capsys):
    code, out, _ = run(capsys, "symbol", "--curve", "V:5", "--point", "5:t",
                       "--f", "1*(t)^1", "--g", "5")
    assert code == 0 and "value: -1" in out


def test_symbol_embedding_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "symbol", "--curve", "H:t",
                       "--embedding", "0", "--f", "2", "--g", "1*(t)^1")
    assert code == 0
    doc = json.loads(out)
    assert doc["place"] == "real" and doc["weight"] == 1
    assert doc["value"].startswith("0.693147180559945")


def test_symbol_embedding_out_of_range(capsys):
    code, _, err = run(capsys, "symbol", "--curve", "H:t^2+1", "--embedding", "5",
                       "--f", "2", "--g", "1*(t)^1")
    assert code == 2 and err


def test_verify_point(capsys):
    code, out, _ = run(capsys, "verify", "point", "--point", "5:t",
                       "--f", "1*(t)^1", "--g", "5")
    assert code == 0 and "verdict: pass" in out


def test_verify_vertical_items(capsys):
    code, out, _ = run(capsys, "--format", "json", "verify", "vertical",
                       "--prime", "5", "--f", "5", "--g", "1*(t^2+2)^1")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "pass" and doc["exact_sum"] == 0
    weighted = sorted(i["weighted"] for i in doc["items"])
    assert weighted == [-2, 2]
    for key in ("law", "items", "config"):
        assert key in doc


def test_verify_horizontal(capsys):
    code, out, _ = run(capsys, "--format", "json", "verify", "horizontal",
                       "--curve", "H:t", "--f", "1*(t)^1", "--g", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "pass"
    assert abs(float(doc["numeric_sum"])) <= 1e-6


def test_verify_horizontal_rejects_vertical_curve(capsys):
    code, _, err = run(capsys, "verify", "horizontal", "--curve", "V:5",
                       "--f", "1*(t)^1", "--g", "2")
    assert code == 2 and err


def test_pairing_fixtures(capsys):
    code, out, _ = run(capsys, "pairing", "--f", "2", "--g", "t")
    assert code == 0
    assert "diff: 0.0" in out and "0.693147180559945" in out
    code, out, _ = run(capsys, "pairing", "--f", "t", "--g", "t")
    assert code == 0 and "oracle: 0.0" in out and "closed: 0.0" in out


def test_pairing_reads_a_coefficient_written_against_t(capsys):
    # format_intpoly prints 2t; the pairing reads the same form
    code, out, _ = run(capsys, "pairing", "--f", "2t", "--g", "3")
    assert code == 0 and "diff: 0.0" in out


def test_pairing_window_too_small(capsys):
    code, _, err = run(capsys, "pairing", "--f", "t^-9", "--g", "2", "--window", "4")
    assert code == 3
    assert "WindowTooSmall" in err and "(try --window 9)" in err
    code, out, _ = run(capsys, "pairing", "--f", "t^-9", "--g", "2", "--window", "9")
    assert code == 0 and "diff: 0.0" in out


def test_pairing_refuses_a_window_below_its_top(capsys):
    # the tail of f starts at t^4, two past the top of (-2, 2): it used to
    # be cut to the empty lattice and print a wrong oracle with exit 0
    code, out, err = run(capsys, "pairing", "--f", "2*t^4+t^5", "--g", "3", "--window", "2")
    assert code == 3 and out == ""
    assert "WindowTooSmall" in err and "(0, 3)" in err and "(try --window 3)" in err
    code, out, _ = run(capsys, "pairing", "--f", "2*t^4+t^5", "--g", "3", "--window", "3")
    assert code == 0 and "oracle: -4.39444915467243876558" in out and "diff: 0.0" in out


def test_pairing_exits_1_when_oracle_and_closed_form_disagree(capsys, monkeypatch):
    from arithsurf import cli

    monkeypatch.setattr(cli, "nu_arch_oracle", lambda f, g, window=None, prec=128:
                        cli.nu_arch_closed(f, g, prec) + 1e-5)
    code, out, _ = run(capsys, "pairing", "--f", "2", "--g", "t")
    assert code == 1 and "diff: 1.0e-5" in out


def test_pairing_refuses_negative_window(capsys):
    code, _, err = run(capsys, "pairing", "--f", "t", "--g", "2", "--window", "-3")
    assert code == 2 and "ParseError" in err and "-3" in err


def test_usage_errors_exit_2(capsys):
    code, _, err = run(capsys, "verify", "point", "--point", "4:t",
                       "--f", "1*(t)^1", "--g", "5")
    assert code == 2 and "ParseError" in err
    code, _, err = run(capsys, "verify", "point", "--point", "5:t^2-1",
                       "--f", "1*(t)^1", "--g", "5")
    assert code == 2 and "NonIrreducibleBase" in err
    # the fiber is checked before any factoring modulo a composite
    code, _, err = run(capsys, "verify", "vertical", "--prime", "4",
                       "--f", "1*(t^2+1)^1", "--g", "3")
    assert code == 2 and "ParseError" in err


def test_non_canonical_point_residue_exits_2(capsys):
    # 2t+1 is not monic: a usage error, also when python -O drops asserts
    argv = ["--format", "json", "verify", "point", "--point", "5:2*t+1",
            "--f", "1*(t)^1", "--g", "3"]
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out and "ParseError" in err and "monic" in err
    done = subprocess.run([sys.executable, "-O", "-m", "arithsurf.cli", *argv],
                          capture_output=True, text=True, timeout=30)
    assert done.returncode == 2 and not done.stdout and "ParseError" in done.stderr


def test_vertical_law_over_a_composite_names_the_fiber(capsys):
    code, out, err = run(capsys, "verify", "vertical", "--prime", "4", "--f", "2", "--g", "3")
    assert code == 2 and not out
    assert "ParseError: vertical fiber needs a prime < 2^63, got 4" in err


@pytest.mark.parametrize("point", ["5:1", "5:0", "5:5*t+3"])
def test_constant_point_residue_is_a_usage_error(capsys, point):
    # a constant residue (mod 5) is no closed point, not a reducible one
    code, out, err = run(capsys, "verify", "point", "--point", point, "--f", "2", "--g", "3")
    assert code == 2 and not out
    assert "ParseError: a closed point's residue needs degree >= 1" in err


def test_symbol_at_a_point_off_the_curve_exits_2(capsys):
    code, out, err = run(capsys, "symbol", "--curve", "H:t^2+1", "--point", "5:t",
                         "--f", "2", "--g", "3")
    assert code == 2 and not out and "ParseError" in err and "does not lie" in err


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_selftest_zero_cases(capsys):
    code, out, _ = run(capsys, "selftest", "--cases", "0")
    assert code == 0
    assert "point-law 0/0" in out


def test_selftest_text_prints_each_suite_time(capsys, monkeypatch):
    """Each text line ends with the suite's wall time, read from
    time.perf_counter: here a fake clock that steps 0.25 s per reading."""
    from arithsurf import selftest

    ticks = iter(range(100))
    monkeypatch.setattr(selftest, "time", SimpleNamespace(perf_counter=lambda: 0.25 * next(ticks)))
    code, out, _ = run(capsys, "selftest", "--cases", "1", "--seed", "7")
    assert code == 0
    lines = out.splitlines()
    assert [line.split()[0] for line in lines] == ["point-law", "vertical-law", "horizontal-law",
                                                   "arch-oracle", "prop-a", "prop-b"]
    assert all(line.endswith(" 1/1 in 0.250 s") for line in lines)


def test_selftest_refuses_negative_cases(capsys):
    code, out, err = run(capsys, "selftest", "--cases", "-1")
    assert code == 2 and not out and "ParseError" in err and "-1" in err


def test_selftest_small_run(capsys):
    code, out, _ = run(capsys, "--format", "json", "selftest", "--cases", "2", "--seed", "7")
    assert code == 0
    doc = json.loads(out)
    names = [s["name"] for s in doc["suites"]]
    assert names == ["point-law", "vertical-law", "horizontal-law",
                     "arch-oracle", "prop-a", "prop-b"]
    assert all(s["failed"] == 0 for s in doc["suites"])


def test_json_output_is_deterministic():
    cmd = [sys.executable, "-m", "arithsurf.cli", "--format", "json",
           "selftest", "--cases", "2", "--seed", "7"]
    a = subprocess.run(cmd, capture_output=True)
    b = subprocess.run(cmd, capture_output=True)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_base_sharing_a_factor_with_the_curve_is_a_usage_error(capsys):
    # t^5+t^3-2t^2-2 = (t^2+1)(t^3-2) passes the degree-4 spot check, but its
    # resultant with the curve t^2+1 is 0
    code, _, err = run(capsys, "verify", "horizontal", "--curve", "H:t^2+1",
                       "--f", "1*(t^5+t^3-2*t^2-2)^1", "--g", "3")
    assert code == 2
    assert "NonIrreducibleBase" in err and "t^5+t^3-2t^2-2" in err and "H:t^2+1" in err


def test_point_over_zero_exits_2(capsys):
    # p = 0 is refused before the residue is reduced mod p
    code, out, err = run(capsys, "verify", "point", "--point", "0:t",
                         "--f", "1*(t)^1", "--g", "5")
    assert code == 2 and not out and "ParseError" in err and "prime" in err


def test_laurent_zero_denominator_exits_2(capsys):
    code, out, err = run(capsys, "pairing", "--f", "1/0", "--g", "t")
    assert code == 2 and not out and "ParseError" in err and "zero denominator" in err


def test_bad_precision_environment_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("ARITHSURF_PREC_BITS", "abc")
    code, out, err = run(capsys, "verify", "point", "--point", "5:t",
                         "--f", "1*(t)^1", "--g", "5")
    assert code == 2 and not out and "ParseError" in err and "ARITHSURF_PREC_BITS" in err


def test_reducible_base_at_a_non_squarefree_point_exits_2(capsys):
    # (t+1)^2 = t^2+1 mod 2 sends the point to the p-adic factorization, whose
    # precision reads the resultant of the curve with each base through the
    # point; the zero one against t^5+t^3-2t^2-2 = (t^2+1)(t^3-2) is a usage
    # error, also when python -O drops asserts
    argv = ["verify", "point", "--point", "2:t+1",
            "--f", "1*(t^5+t^3-2*t^2-2)^1", "--g", "3*(t^2+1)^1"]
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out and "NonIrreducibleBase" in err and "H:t^2+1" in err
    done = subprocess.run([sys.executable, "-O", "-m", "arithsurf.cli", *argv],
                          capture_output=True, text=True, timeout=30)
    assert done.returncode == 2 and "NonIrreducibleBase" in done.stderr


def test_reducible_base_at_a_squarefree_point_exits_2(capsys):
    # t^2+1 mod 13 is squarefree and the point lies on the t^3-2 part alone,
    # so its branch never reads t^2+1; the flag on H:t^5+t^3-2t^2-2 still
    # takes the zero resultant with t^2+1 before anything else, as 3:t+1,
    # where the reduction is not squarefree, does
    for point in ("13:t^3+11", "3:t+1"):
        code, out, err = run(capsys, "verify", "point", "--point", point,
                             "--f", "1*(t^5+t^3-2*t^2-2)^1", "--g", "3*(t^2+1)^1")
        assert code == 2 and not out and "NonIrreducibleBase" in err, point
        assert "t^2+1 shares a factor with the curve H:t^5+t^3-2t^2-2" in err, point


def test_reducible_base_at_a_ramified_point_exits_2(capsys):
    # H:t^2-3 is ramified at 3:t, and t^5-3t^3-2t^2+6 = (t^2-3)(t^3-2) meets
    # it to every p-adic digit
    argv = ["verify", "point", "--point", "3:t",
            "--f", "1*(t^5-3*t^3-2*t^2+6)^1", "--g", "2*(t^2-3)^1"]
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out and "NonIrreducibleBase" in err and "H:t^2-3" in err
    done = subprocess.run([sys.executable, "-O", "-m", "arithsurf.cli", *argv],
                          capture_output=True, text=True, timeout=30)
    assert done.returncode == 2 and "NonIrreducibleBase" in done.stderr


HORIZONTAL = ["verify", "horizontal", "--curve", "H:t^2+1",
              "--f", "1*(t^2+1)^1", "--g", "1*(t-1)^1"]


@pytest.mark.parametrize("bits", ["0", "-3", "1", "52"])
def test_precision_below_the_floor_exits_2(capsys, monkeypatch, bits):
    monkeypatch.setenv("ARITHSURF_PREC_BITS", bits)
    code, out, err = run(capsys, *HORIZONTAL)
    assert code == 2 and not out and "ParseError" in err and "at least 53" in err


def test_precision_at_the_floor_runs(capsys, monkeypatch):
    monkeypatch.setenv("ARITHSURF_PREC_BITS", "53")
    code, out, _ = run(capsys, "--format", "json", *HORIZONTAL)
    doc = json.loads(out)
    assert code == 0 and doc["verdict"] == "pass" and doc["config"]["prec_bits"] == 53


@pytest.mark.parametrize("curve", [
    # a conjugate pair +-i 10^-50, which Newton's first width rounds to 0
    f"H:{10**100}*t^2+1",
    # Mignotte (Eisenstein at 2): two real roots near 10^-40, 10^-120 apart,
    # closer than any certificate disk of radius 2^-256 keeps apart
    "H:t^4-2*(10^40*t-1)^2",
])
def test_root_finding_refusal_exits_4(capsys, curve):
    code, out, err = run(capsys, "--format", "json", "symbol", "--curve", curve,
                         "--embedding", "1", "--f", "1*(t-1)^1", "--g", "2")
    assert code == 4 and not out and "RootFindingDivergence" in err


def test_roots_beyond_a_double_get_their_place(capsys):
    # a coefficient of 10^400: the double start runs on h(2^666 s)
    code, out, _ = run(capsys, "--format", "json", "symbol", "--curve", f"H:t^2+{10**400}",
                       "--embedding", "0", "--f", "1*(t-1)^1", "--g", "2")
    doc = json.loads(out)
    assert code == 0 and doc["place"] == "pair" and doc["weight"] == 2
    assert doc["theta"] == "(0.0 + 1.0e+200j)"


def test_a_pair_near_the_real_axis_passes_the_horizontal_law(capsys):
    # roots +-i 10^-20, within 2^-64 of the real axis, are one certified pair
    code, out, _ = run(capsys, "--format", "json", "verify", "horizontal",
                       "--curve", "H:10^40*t^2+1", "--f", "2", "--g", "3")
    doc = json.loads(out)
    assert code == 0 and doc["verdict"] == "pass"
    assert [i["theta"] for i in doc["items"] if i["place"].startswith("arch")] == [
        "(0.0 + 1.0e-20j)"]


def test_evaluation_below_resolution_exits_4(capsys):
    # theta = 10^-30 is a zero of t at 128 bits
    h = f"{10**30}*t-1"
    code, out, err = run(capsys, "symbol", "--curve", f"H:{h}", "--embedding", "0",
                         "--f", "1*(t)^1", "--g", f"1*({h})^1")
    assert code == 4 and not out and "EvaluationAtZero" in err


def test_curve_through_neither_function_passes_with_zero_items(capsys):
    # lc = 2, so the branch data at 2 is refused; the curve is a base of
    # neither function, so no nu2 is needed and every finite item is 0
    code, out, _ = run(capsys, "--format", "json", "verify", "horizontal",
                       "--curve", "H:2*t^2+t+1", "--f", "15", "--g", "7*(t-1)^1")
    doc = json.loads(out)
    assert code == 0 and doc["verdict"] == "pass" and doc["finite_part"] == {}
    finite = [i for i in doc["items"] if not i["place"].startswith("arch")]
    assert {i["place"] for i in finite} >= {"2:t+1", "2:inf"}
    assert all(i["value"] == 0 for i in finite)
    code, out, _ = run(capsys, "--format", "json", "symbol", "--curve", "H:2*t^2+t+1",
                       "--point", "2:t+1", "--f", "15", "--g", "7*(t-1)^1")
    doc = json.loads(out)
    assert code == 0 and doc["value"] == 0 and doc["nu1"] == {"f": 0, "g": 0}
    # the itemized branches are refused, and the refusal is shown, not dropped
    assert "branches" not in doc
    assert doc["branches_refused"].startswith("UnsupportedOrder: p = 2 divides the leading")


def test_symbol_with_a_base_sharing_a_factor_with_the_curve_exits_2(capsys):
    # (t^2+1)(t^3-2) passes the degree-4 spot check; neither function has
    # nonzero order along the curve, and the base is still refused
    code, out, err = run(capsys, "symbol", "--curve", "H:t^2+1", "--point", "3:t^2+1",
                         "--f", "1*(t^5+t^3-2*t^2-2)^1", "--g", "3")
    assert code == 2 and not out and "NonIrreducibleBase" in err
