import os
import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Under CI (GitHub Actions sets it) a failing property test also prints the
# @reproduce_failure blob that replays it locally. The profile is the
# default one plus the blob; it replaces the ci profile recent hypothesis
# versions load by themselves, which would also derandomize the search and
# drop deadlines.
settings.register_profile("ci", settings.get_profile("default"),
                          print_blob=True)
# For the byte-identity tests of the writers and the deformation, HB, CLI
# and config grammar property tests, run alone under
# --hypothesis-profile=thorough: a writer that is fast but not exact is
# wrong, and a rare value is found only by many examples.
settings.register_profile("thorough", settings.get_profile("ci"),
                          max_examples=5000, deadline=None)
if "CI" in os.environ:
    settings.load_profile("ci")

from meshgen import SQUARE_2TRI, box_hex_mesh  # noqa: E402

from rotormesh.mesh import parse_mesh  # noqa: E402


def _versions() -> str:
    import hypothesis
    import numpy
    import scipy
    return (f"numpy {numpy.__version__}, scipy {scipy.__version__}, "
            f"hypothesis {hypothesis.__version__}")


def pytest_report_header(config):
    """The shoelace tests assert bit identity with numpy's summation
    order (np.sum), so every run names the versions it ran with."""
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
