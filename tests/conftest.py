import numpy as np
import pytest

import thermoshift as ts


@pytest.fixture
def full2():
    return ts.full_shift(2)


@pytest.fixture
def golden():
    return ts.golden_mean_shift()


@pytest.fixture
def full3():
    return ts.full_shift(3)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture
def no_block_listing(monkeypatch):
    """Fail as soon as admissible blocks are listed, so that a refusal of
    an oversized table must come first."""

    def listing(self, i, j):
        raise AssertionError("admissible blocks were listed")

    monkeypatch.setattr(ts.Sft, "is_edge", listing)
