import numpy as np
import pytest
from hypothesis import settings

# CI runs with --hypothesis-profile=ci: the examples are derived from each
# test, so a failure reproduces from the log; local runs explore at random.
settings.register_profile("ci", derandomize=True, print_blob=True)


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)
