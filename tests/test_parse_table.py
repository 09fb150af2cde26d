"""Every text input read by the one grammar against the readings of the
three parsers it replaced.

tests/data/parse_table.json was written by the earlier parsers
(parse_intpoly's term regex, the Laurent tokenizer, and parse_function's
own scanner).  Its inputs are the polynomial strings that tests, scripts,
the README and selftest hand to a parser, the poly parts of their curve
and point labels, a list of edge cases, and 200 seeded printouts of random
IntPoly, LaurentPoly and factored functions.  For each input and parser it
records the printed value, or the name of the error raised.

tests/data/parse_table_newly_accepted.json pins the outcome of each input
a parser refused with ParseError before and reads now.  All but one give a
value; the unit " 0.0" now reads as the zero function, which
parse_function refuses with ZeroPolynomial as it does "0".
"""

import json
from pathlib import Path

import pytest

from arithsurf.errors import ArithsurfError
from arithsurf.intpoly import format_intpoly, parse_intpoly
from arithsurf.laurent import parse_laurent
from arithsurf.surface import format_function, parse_function

DATA = Path(__file__).parent / "data"
TABLE = json.loads((DATA / "parse_table.json").read_text())
NEWLY_ACCEPTED = {
    (pin["input"], pin["parser"]): pin["now"]
    for pin in json.loads((DATA / "parse_table_newly_accepted.json").read_text())
}
PARSERS = {
    "intpoly": (parse_intpoly, format_intpoly),
    "laurent": (parse_laurent, str),
    "function": (parse_function, format_function),
}

# Inputs the earlier parsers accepted with a value no single grammar can
# keep: parse_intpoly dropped a '*' that ends a term, so it read "2*-t" as
# 2 - t where the Laurent parser read -2t; and the Laurent parser let a
# sign after an operator bind tighter than '^', so "--t^2" was -t^2 while
# "-t^2" was -(t^2) too.  A sign now binds looser than '^' everywhere.
CORRECTED = {
    ("2*", "intpoly"): {"error": "ParseError"},
    ("t^2+1*", "intpoly"): {"error": "ParseError"},
    ("2*-t", "intpoly"): {"value": "-2t"},
    ("2*-t^2", "intpoly"): {"value": "-2t^2"},
    ("2*-t^2", "laurent"): {"value": "-2*t^2"},
    ("--t^2", "laurent"): {"value": "1*t^2"},
    ("t*-t^2", "laurent"): {"value": "-1*t^3"},
    ("t+-3^2", "laurent"): {"value": "-9 + 1*t"},
    ("+-1/2^10", "laurent"): {"value": "-1/1024"},
}


def reading(parser, text):
    parse, show = PARSERS[parser]
    try:
        return {"value": show(parse(text))}
    except ArithsurfError as exc:
        return {"error": type(exc).__name__}


def cases():
    for row in TABLE:
        for parser in PARSERS:
            yield row["input"], parser, row[parser]


EDGE_CASES = [
    "2t-1", "t^2 t", "3 4", "--t", "1/2*t", "t^-3", "(t+1)^2", "2*t^2*t", "",
    "+", "t+", "-3 * (t)^1", "0.5", "1*(inf)^2", "1*((t+1))^1", "3/0",
    "1*(t)^1.0", "1 * (t) ^ -2", "t^1.5", "1 + t^", "(t",
]


def test_table_holds_the_edge_cases_and_every_pinned_input():
    inputs = {row["input"] for row in TABLE}
    assert set(EDGE_CASES) <= inputs
    assert {text for text, _ in list(NEWLY_ACCEPTED) + list(CORRECTED)} <= inputs


def test_each_earlier_reading_holds():
    moved = []
    for text, parser, before in cases():
        if (text, parser) in NEWLY_ACCEPTED or (text, parser) in CORRECTED:
            continue
        now = reading(parser, text)
        if now != before:
            moved.append((text, parser, before, now))
    assert moved == []


def test_newly_accepted_inputs_keep_their_pinned_values():
    for text, parser, before in cases():
        if (text, parser) in NEWLY_ACCEPTED:
            assert before == {"error": "ParseError"}, (text, parser)
            assert reading(parser, text) == NEWLY_ACCEPTED[text, parser], (text, parser)


def test_corrected_inputs_read_as_the_one_grammar_reads_them():
    for text, parser, before in cases():
        if (text, parser) in CORRECTED:
            assert "value" in before, (text, parser)
            assert reading(parser, text) == CORRECTED[text, parser], (text, parser)


@pytest.mark.parametrize("parser,other", [("intpoly", "laurent"), ("laurent", "intpoly")])
def test_newly_accepted_polynomials_agree_with_the_parser_that_read_them(parser, other):
    """A polynomial one parser reads only now has the value the other
    polynomial parser already gave the same text, unless that was corrected."""
    checked = 0
    for row in TABLE:
        now = NEWLY_ACCEPTED.get((row["input"], parser), {})
        before = CORRECTED.get((row["input"], other), row[other])
        if "value" in now and "value" in before:
            assert parse_laurent(now["value"]) == parse_laurent(before["value"]), row
            checked += 1
    assert checked > 0
