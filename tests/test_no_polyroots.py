"""The library has one root finder, the certified Newton path of roots.py:
no module of src/arithsurf may name mpmath's polyroots, so a fallback to it
cannot come back unseen."""

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "arithsurf"


def test_library_never_names_polyroots():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    named = [path.name for path in sources if "polyroots" in path.read_text()]
    assert named == [], f"polyroots named in {named}"
