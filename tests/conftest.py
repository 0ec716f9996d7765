import pytest

from gshlab.caratheodory import SchwarzSample
from gshlab.core import NormalizedFunction, member_from_witness


@pytest.fixture(scope="session")
def f0():
    """The extremal member, witness w = z, at order 32."""
    return member_from_witness(SchwarzSample.monomial(1), 32)


@pytest.fixture(scope="session")
def koebe():
    return NormalizedFunction.koebe(32)


@pytest.fixture(scope="session")
def identity_fn():
    return NormalizedFunction.identity(32)
