import pytest

from gshlab import subordination as sub
from gshlab.caratheodory import SchwarzSample
from gshlab.core import NormalizedFunction, member_from_witness


def harness_candidate_row(rng):
    """Writable coefficients of the implication-harness candidate drawn from rng, built as
    ``run_config`` builds a block: ``_sample_candidate``, then ``_candidate_rows``."""
    return sub._candidate_rows([sub._sample_candidate(rng)])[0]


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
