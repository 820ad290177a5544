import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from meshgen import SQUARE_2TRI, box_hex_mesh  # noqa: E402

from rotormesh.mesh import parse_mesh  # noqa: E402


def _versions() -> str:
    import hypothesis
    import numpy
    import scipy
    return (f"numpy {numpy.__version__}, scipy {scipy.__version__}, "
            f"hypothesis {hypothesis.__version__}")


def pytest_report_header(config):
    """The clip and shoelace tests assert bit identity with numpy's
    summation order, so every run names the versions it ran with."""
    return _versions()


def pytest_terminal_summary(terminalreporter, config):
    if config.option.verbose < 0:  # -q hides the report header
        terminalreporter.write_line(_versions())


@pytest.fixture
def square_mesh():
    return parse_mesh(SQUARE_2TRI)


@pytest.fixture(scope="session")
def cube_mesh():
    return box_hex_mesh(1, 1, 1)


@pytest.fixture(scope="session")
def block_mesh():
    return box_hex_mesh(4, 3, 2, hi=(2.0, 1.5, 1.0))
