import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
# the helpers' self-checks are asserts: rewritten, they also run under -O
pytest.register_assert_rewrite("oracles", "planting")

from moondec.parsing import parse_ratfun

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

FLAGSHIP_TEXT = "x^3*(x+6)^3*(x^2-6*x+36)^3/((x-3)^3*(x^2+3*x+9)^3)"
DATA_DIR = pathlib.Path(__file__).resolve().parent.parent / "src" / "moondec" / "data"


@pytest.fixture(scope="session")
def flagship():
    """The degree-12 relation function between the 1A and 9B series."""
    return parse_ratfun(FLAGSHIP_TEXT)


@pytest.fixture(scope="session")
def moonshine_catalog_path():
    return DATA_DIR / "moonshine.jsonl"


@pytest.fixture(scope="session")
def synthetic_pair_path():
    return DATA_DIR / "synthetic_pair.jsonl"
