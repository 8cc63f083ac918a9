"""``growth.logsumexp`` against the scipy call it stands for.

Every comparison is exact (``array_equal`` or ``==``): the routine follows
scipy operation for operation, so any difference is a porting error.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

pytest.importorskip("scipy")
from scipy.special import logsumexp as scipy_logsumexp  # noqa: E402

from monogenic.growth import logsumexp  # noqa: E402

MAGNITUDES = st.one_of(st.floats(-1e3, 1e3), st.just(-math.inf))


@st.composite
def rows_with_ties(draw, width):
    """A row of mixed-sign values, some -inf, with its maximum repeated."""
    row = draw(st.lists(MAGNITUDES, min_size=width, max_size=width))
    for _ in range(draw(st.integers(0, 3))):
        row[draw(st.integers(0, width - 1))] = max(row)
    return row


@settings(max_examples=300, deadline=None)
@given(data=st.data(), width=st.integers(1, 12))
@example(data=None, width=0)
def test_logsumexp_of_a_vector_matches_scipy(data, width):
    a = np.array(data.draw(rows_with_ties(width)) if width else [])
    assert np.array_equal(logsumexp(a), scipy_logsumexp(a))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), width=st.integers(1, 8), height=st.integers(0, 12))
def test_logsumexp_of_rows_matches_scipy(data, width, height):
    a = np.array([data.draw(rows_with_ties(width)) for _ in range(height)]).reshape(height, width)
    if height and data.draw(st.booleans()):
        a[0] = -math.inf
    assert np.array_equal(logsumexp(a, axis=1), scipy_logsumexp(a, axis=1))


def test_logsumexp_edge_values():
    for a in ([-math.inf] * 3, [2.0, 2.0, 2.0], [5.0], [1e3, -1e3, 1e3], [710.0, 709.0]):
        assert logsumexp(a) == scipy_logsumexp(a)
