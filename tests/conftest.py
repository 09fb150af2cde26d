"""The tests import arithsurf from src (pytest's `pythonpath` setting in
pyproject.toml); the python processes some of them start find it there too."""

import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(autouse=True, scope="session")
def src_on_the_path_of_child_processes():
    with pytest.MonkeyPatch.context() as patch:
        path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
        patch.setenv("PYTHONPATH", path)
        yield
