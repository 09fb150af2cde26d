"""Byte-exact `--format json` output of fixed CLI calls.

Each `tests/data/golden_<name>.json` holds the stdout of
`arithsurf --format json <argv>` for the matching entry of CASES.  A change
that moves a printed digit (for example by reordering the QSqrt arithmetic
behind the pairing) or a JSON key fails here.
"""

from pathlib import Path

import pytest

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
    "selftest": ["selftest", "--seed", "42", "--cases", "2"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_json(name, capsys, monkeypatch):
    monkeypatch.delenv(ENV_PREC_BITS, raising=False)
    code = main(["--format", "json", *CASES[name]])
    out, _ = capsys.readouterr()
    assert code == 0
    assert out == (DATA / f"golden_{name}.json").read_text(encoding="utf-8")
