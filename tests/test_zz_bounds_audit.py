"""Audit every entropy computed during the suite against the hard bounds.

This module sorts last alphabetically so the recorder in conftest has seen
every entropy_weights row computed by the other test modules by the time
it runs.  The 1e-12 slack absorbs float rounding in the -sum(w log w)
accumulation; the mathematical bound is 0 <= H <= log M.
"""

import math

from conftest import RECORDED_ENTROPIES


def test_every_recorded_entropy_within_bounds():
    assert len(RECORDED_ENTROPIES) > 100, "recorder saw too few calls"
    for H, M in RECORDED_ENTROPIES:
        assert -1e-12 <= H <= math.log(M) + 1e-12, (H, M)
