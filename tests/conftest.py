import pytest

from ghwlab.codes import TraceCode, derive_params
from ghwlab.fields import build_field


@pytest.fixture(scope="session")
def f4():
    return build_field(2, 2)


@pytest.fixture(scope="session")
def f49():
    return build_field(7, 2)


@pytest.fixture(scope="session")
def f64():
    return build_field(2, 6)


@pytest.fixture(scope="session")
def f9():
    return build_field(3, 2)


@pytest.fixture(scope="session")
def example1_params():
    return derive_params(7, 1, 2, 2, 2, 6, (0, 1))


@pytest.fixture(scope="session")
def example1(example1_params):
    return TraceCode(example1_params)


@pytest.fixture(scope="session")
def example2_params():
    return derive_params(7, 1, 2, 2, 2, 2, (0, 1))


@pytest.fixture(scope="session")
def example2(example2_params):
    return TraceCode(example2_params)


@pytest.fixture(scope="session")
def irreducible21_params():
    # [21, 6] binary code with one nonzero: p=2, m=6, e=t=1, a=3
    return derive_params(2, 1, 6, 1, 1, 3)


@pytest.fixture(scope="session")
def irreducible21(irreducible21_params):
    return TraceCode(irreducible21_params)


@pytest.fixture(scope="session")
def simplex_params():
    # q=2, m=2, t=1, a=1: N=1, the [3,2,2] simplex code (hypotheses fail)
    return derive_params(2, 1, 2, 1, 1, 1)


@pytest.fixture(scope="session")
def simplex(simplex_params):
    return TraceCode(simplex_params)
