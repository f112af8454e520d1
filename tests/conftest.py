import pytest

from bhl.coxeter import build_group
from bhl.sigma import SigmaEngine


@pytest.fixture(scope="session")
def a2():
    return build_group("A2")


@pytest.fixture(scope="session")
def b2():
    return build_group("B2")


@pytest.fixture(scope="session")
def c2():
    return build_group("C2")


@pytest.fixture(scope="session")
def a3():
    return build_group("A3")


@pytest.fixture(scope="session")
def a4():
    return build_group("A4")


@pytest.fixture(scope="session")
def b3():
    return build_group("B3")


@pytest.fixture(scope="session")
def g2():
    return build_group("G2")


@pytest.fixture(scope="session")
def engine_a2(a2):
    return SigmaEngine(a2)


@pytest.fixture(scope="session")
def engine_b2(b2):
    return SigmaEngine(b2)


@pytest.fixture(scope="session")
def engine_a3(a3):
    return SigmaEngine(a3)


@pytest.fixture(scope="session")
def engine_b3(b3):
    return SigmaEngine(b3)
