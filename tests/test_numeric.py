"""The in-package numerical routines against the scipy calls they stand for.

Every comparison is exact (``array_equal`` or ``==``): the routines follow
scipy operation for operation, so any difference is a porting error.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

pytest.importorskip("scipy")
from scipy.special import logsumexp as scipy_logsumexp  # noqa: E402
from scipy.special import ndtri as scipy_ndtri  # noqa: E402
from scipy.stats import qmc  # noqa: E402

from monogenic._numeric import logsumexp, ndtri, sobol_base2  # noqa: E402
from monogenic.sampling import sphere_directions  # noqa: E402

SEEDS = st.integers(0, 2**63 - 1)


@pytest.mark.parametrize("dim", range(1, 11))
@settings(max_examples=8, deadline=None)
@given(seed=SEEDS)
@example(seed=0)
def test_sobol_matches_scipy(dim, seed):
    for m in range(11):
        expected = qmc.Sobol(dim, scramble=True, seed=seed).random_base2(m)
        assert np.array_equal(sobol_base2(dim, m, seed), expected)


def test_sobol_points_are_fresh_arrays():
    first = sobol_base2(3, 4, 7)
    first[:] = -1.0
    assert np.array_equal(sobol_base2(3, 4, 7), qmc.Sobol(3, seed=7).random_base2(4))


@settings(max_examples=20, deadline=None)
@given(dim=st.integers(1, 10), count=st.integers(0, 300), seed=st.integers(0, 50))
def test_sphere_directions_match_the_scipy_construction(dim, count, seed):
    axes = np.concatenate([np.eye(dim), -np.eye(dim)])
    extra = max(count - len(axes), 0)
    if extra:
        m = max(int(np.ceil(np.log2(extra))), 0)
        u = qmc.Sobol(d=dim, scramble=True, seed=seed).random_base2(m=m)[:extra]
        g = scipy_ndtri(np.clip(u, 1e-12, 1 - 1e-12))
        norms = np.linalg.norm(g, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        axes = np.concatenate([axes, g / norms])
    assert np.array_equal(sphere_directions(dim, count, seed), axes)


PROBABILITIES = st.one_of(
    st.floats(0.0, 1.0),
    st.floats(1e-13, 1e-11),
    st.floats(1.0 - 1e-11, 1.0 - 1e-13),
    st.floats(0.0, 1e-14),
    st.floats(-1.0, 2.0),
)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(PROBABILITIES, min_size=1, max_size=40))
@example(values=[0.0, 1.0, 1e-12, 1 - 1e-12, 0.5, math.exp(-2), 1 - math.exp(-2), 5e-324])
@example(values=[-0.5, 1.5, math.nan, 1e-300, 0.1353352832366127, 0.8646647167633873])
# tail inputs on which numpy's vectorised log and libm's log give ndtri
# results one ulp apart
@example(values=[1.7492798637669728e-12, 1.2629314637759648e-13, 0.9999999999972661,
                 3.712400765743153e-58, 0.9999969566276472])
def test_ndtri_matches_scipy(values):
    y = np.array(values)
    assert np.array_equal(ndtri(y), scipy_ndtri(y), equal_nan=True)


def test_ndtri_on_a_dense_sweep_with_both_tails():
    rng = np.random.default_rng(5)
    y = np.concatenate([
        rng.random(20000),
        10.0 ** rng.uniform(-300, -1, 5000),
        1.0 - 10.0 ** rng.uniform(-16, -1, 5000),
        np.linspace(1e-12, 1 - 1e-12, 2001),
    ])
    assert np.array_equal(ndtri(y), scipy_ndtri(y))


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
