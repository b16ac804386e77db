import numpy as np
import pytest
from hypothesis import settings

import specent.entropy as entropy_module
from specent import first_n_primes, sieve_up_to

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")

# Every (H, M) pair computed anywhere in the suite, including CLI runs
# invoked in-process.  test_zz_bounds_audit.py asserts 0 <= H <= log M
# over the lot at the end of the session.
RECORDED_ENTROPIES: list = []

# One line per acceptance criterion, echoed after the test summary so the
# verdicts are visible regardless of capture settings.
ACCEPTANCE_LINES: list = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

_original_entropy_weights = entropy_module.entropy_weights


@pytest.fixture(scope="session", autouse=True)
def _record_all_entropies():
    # Every entropy, single report or batched row, comes out of
    # entropy_weights, which its callers resolve through the module globals
    # at call time; wrapping it here records each row's (H, M).
    def recording(magnitudes):
        w, H = _original_entropy_weights(magnitudes)
        M = w.shape[-1]
        RECORDED_ENTROPIES.extend((h, M) for h in np.ravel(H).tolist())
        return w, H

    entropy_module.entropy_weights = recording
    yield
    entropy_module.entropy_weights = _original_entropy_weights


@pytest.fixture(scope="session")
def table_10k():
    """First 10000 primes, the reference example's configuration."""
    return first_n_primes(10000)


@pytest.fixture(scope="session")
def table_small():
    return sieve_up_to(10000)


@pytest.fixture(scope="session")
def rng_numpy():
    return np.random.default_rng(987654321)
