"""Helpers shared by the test modules."""

import pytest


def kept_block_layout(n_steps, rows, step0=0):
    """The (first step, length) of each block a run's step loop hands its
    reducer, in order, for a run of n_steps from step step0 with blocks of
    `rows` kept states: a fresh start's state alone, then every block
    full from the step after step0 but the last."""
    end = step0 + n_steps
    return [(0, 1)] * (step0 == 0) + [(first, min(rows, end + 1 - first))
                                      for first in range(step0 + 1, end + 1, rows)]


@pytest.fixture
def kept_blocks():
    """kept_block_layout, for the tests that pin a run's block layout."""
    return kept_block_layout
