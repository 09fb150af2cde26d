"""Byte-exact `--format json` output of fixed CLI calls.

Each `tests/data/golden_<name>.json` holds the stdout of
`arithsurf --format json <argv>` for the matching entry of CASES.  A change
that moves a printed digit (for example by reordering the QSqrt arithmetic
behind the pairing) or a JSON key fails here.
"""

from pathlib import Path

import pytest

from arithsurf import modp
from arithsurf.cli import main
from arithsurf.config import ENV_PREC_BITS

DATA = Path(__file__).parent / "data"

CASES = {
    "pairing": ["pairing", "--f", "t*(3+t)", "--g", "5*t^2"],
    "pairing_window": ["pairing", "--f", "2*t^-1 + 3 + t", "--g", "1/3 + 2*t",
                       "--window", "10"],
    "verify_point": ["verify", "point", "--point", "5:t", "--f", "1*(t)^1", "--g", "5"],
    "verify_vertical": ["verify", "vertical", "--prime", "5", "--f", "5",
                        "--g", "1*(t^2+2)^1"],
    "verify_horizontal": ["verify", "horizontal", "--curve", "H:t", "--f", "1*(t)^1",
                          "--g", "2"],
    # Res(h, g) = 1093 * 1566121636913: a prime above 10^12 and one that
    # small-prime division leaves to rho.
    "verify_horizontal_tall": ["verify", "horizontal", "--curve", "H:t^3-2",
                               "--f", "1*(t^3-2)^1",
                               "--g", "1*(15100*t^3-83400*t^2-65476*t-67493)^1"],
    # Two points over 3, two over 5 and four over 257, all from one
    # factorization of h per prime; finite part {5: 2, 257: -1}.
    "verify_horizontal_split": ["verify", "horizontal", "--curve", "H:t^4+1",
                                "--f", "3*(t^4+1)^1",
                                "--g", "1*(t^2+2)^1*(t+4)^-1"],
    # The p-adic path: (t+1)^2 mod 2 is a ramified quadratic cluster, and
    # t^3-3t^2-3t+3 is Eisenstein at 3; each prints its one branch's e, f, nu2.
    "symbol_ramified_quadratic": ["symbol", "--curve", "H:t^2+1", "--point", "2:t+1",
                                  "--f", "1*(t^2+1)^1", "--g", "1*(t-1)^1"],
    "symbol_eisenstein": ["symbol", "--curve", "H:t^3-3*t^2-3*t+3", "--point", "3:t",
                          "--f", "1*(t^3-3*t^2-3*t+3)^1", "--g", "3*(t-3)^1"],
    # Z[t]/(t^2+3) is not maximal at 2, and 2 is inert in Q(sqrt -3): one
    # branch with e = 1, f = 2 and weight 2, where nu2(2) = 1 against
    # nu1(f) = 1, so the value is 2.
    "symbol_inert_non_maximal": ["symbol", "--curve", "H:t^2+3", "--point", "2:t+1",
                                 "--f", "1*(t^2+3)^1", "--g", "2"],
    "selftest": ["selftest", "--seed", "42", "--cases", "2"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_json(name, capsys, monkeypatch):
    monkeypatch.delenv(ENV_PREC_BITS, raising=False)
    code = main(["--format", "json", *CASES[name]])
    out, _ = capsys.readouterr()
    assert code == 0
    assert out == (DATA / f"golden_{name}.json").read_text(encoding="utf-8")


def test_tall_case_splits_by_gcd_and_square_root(capsys, monkeypatch):
    # Over 1093 and 1566121636913 (= 1 mod 8) the curve t^3-2 shares a root
    # with g's base: its gcd with the base leaves a quadratic, which splits
    # by a square root, so no polynomial powering or random split runs
    ran = []
    for name in ("_shift_pow", "_powmod", "equal_degree_split"):
        real = getattr(modp, name)
        monkeypatch.setattr(modp, name, lambda *a, _n=name, _f=real: ran.append(_n) or _f(*a))
    monkeypatch.delenv(ENV_PREC_BITS, raising=False)
    assert main(["--format", "json", *CASES["verify_horizontal_tall"]]) == 0
    out, _ = capsys.readouterr()
    assert out == (DATA / "golden_verify_horizontal_tall.json").read_text(encoding="utf-8")
    assert ran == []
