"""A point's float value is the same whatever shares its call.

``fueter.basis_combination`` and the degree sums of the sampled sups
contract each point's basis values apart (``fueter._contract``: one stacked
matmul of C-contiguous (P, 1, K) rows), so a row of a batch has the bits of
its one-point call, and a sampled sup does not depend on how its directions
are cut into blocks (``fueter._BLOCK_FLOATS``).  The first test pins the
numpy property that this rests on.  The file runs in well under a minute, so
CI runs it under several OpenBLAS kernels (``OPENBLAS_CORETYPE``).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monogenic import fueter, series
from monogenic.clifford import CliffordNumber
from monogenic.multiindex import enumerate_up_to
from monogenic.series import MonogenicSeries, dirac_residual

from conftest import random_point

#: point components that a batch must carry like any other
SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e200, -1e200])


def bits(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 300), st.integers(1, 3000), st.sampled_from([2, 4, 8, 16, 32]), st.integers(0, 2**32 - 1)
)
@example(300, 3000, 32, 0)
@example(26, 2475, 16, 1)
def test_numpy_stacked_matmul_takes_each_row_alone(points, k, width, seed):
    """numpy's stacked matmul of C-contiguous (P, 1, K) rows against one
    C-contiguous (K, N) matrix gives each row the bits of the 2-D product
    of that row alone.  ``fueter._contract`` rests on this property of
    numpy; a numpy that fuses the stacked products into one gemm fails
    here first."""
    r = np.random.default_rng(seed)
    left = r.standard_normal((points, k)) * 10.0 ** r.uniform(-8, 8, (points, k))
    right = r.standard_normal((k, width))
    stacked = np.matmul(left[:, None], right)[:, 0]
    alone = np.concatenate([left[i : i + 1] @ right for i in range(points)])
    differ = np.flatnonzero((bits(stacked) != bits(alone)).any(axis=1))
    assert not len(differ), (
        f"numpy {np.__version__}: the stacked matmul of {points} rows of {k} against ({k}, {width}) "
        f"differs from one-row products in rows {differ[:5].tolist()}: numpy no longer contracts "
        "each row of a stack apart, so fueter._contract's values depend on the batch"
    )


@st.composite
def series_and_points(draw):
    """A float series at n = 1..4 of degree <= 8, with coefficients over 12
    decades (so the order of a sum shows in its last bit), and up to 24
    points, about one component in four drawn from ``SPECIAL``, the origin
    among them."""
    n, degree, seed = draw(st.integers(1, 4)), draw(st.integers(0, 8)), draw(st.integers(0, 2**32 - 1))
    r = np.random.default_rng(seed)
    indices = enumerate_up_to(n, degree)
    keep = r.random(len(indices)) < draw(st.floats(0.05, 1.0))
    blade = lambda: dict(enumerate((r.standard_normal(1 << n) * 10.0 ** r.uniform(-6, 6, 1 << n)).tolist()))
    f = MonogenicSeries(n, degree, {m: CliffordNumber(n, blade()) for m, kept in zip(indices, keep) if kept})
    points = r.standard_normal((draw(st.integers(1, 24)), n + 1)) * 1.5
    special = r.random(points.shape) < 0.25
    points[special] = r.choice(SPECIAL, special.sum())
    points[0] = 0.0
    return f, points


@settings(max_examples=60, deadline=None)
@given(series_and_points(), st.integers(1, 24))
def test_a_row_has_the_bits_of_its_one_point_call(case, samples):
    """Every row of one ``basis_combination`` call, on a Fortran-ordered
    point array, equals its one-point call bit for bit (inf and NaN too),
    and ``sampled_sups`` and ``degree_sups`` give the same bits with blocks
    of one direction, with the default blocks and with one block for all
    directions."""
    f, points = case
    batch = fueter.basis_combination(f.operand(), np.asfortranarray(points))
    alone = np.concatenate([fueter.basis_combination(f.operand(), points[i : i + 1]) for i in range(len(points))])
    assert (bits(batch) == bits(alone)).all()

    radii = [0.5, 1.0, 3.0]
    sups = lambda: (fueter.sampled_sups(f.operand(), radii, samples, seed=1), fueter.degree_sups(f.operand(), samples))
    want = sups()
    for block_floats in (1, 1 << 60):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fueter, "_BLOCK_FLOATS", block_floats)
            got = sups()
        assert [bits(v).tolist() for v in got] == [bits(v).tolist() for v in want], block_floats


def test_the_sampled_sups_of_an_empty_table_are_zero():
    """A table without coefficients is zero everywhere: the general path
    gives 0.0 at every radius and every degree."""
    operand = MonogenicSeries(3, 4).operand()
    assert fueter.sampled_sups(operand, [0.0, 1.0, 1e100], 8) == [0.0, 0.0, 0.0]
    assert fueter.degree_sups(operand, 8) == [0.0]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_dirac_residual_of_a_series_is_one_kernel_call(monkeypatch, n, rng):
    """A series' Dirac residual over a point set evaluates its 2 (n+1)
    offset points per base point in one ``basis_combination`` call."""
    f = MonogenicSeries(n, 4, {(1,) + (0,) * (n - 1): CliffordNumber.scalar(n, 1.5)}).to_float()
    points = [random_point(n, rng, radius=1.2) for _ in range(5)]
    kernel, calls = series.basis_combination, []
    monkeypatch.setattr(series, "basis_combination", lambda *args: calls.append(len(args[1])) or kernel(*args))
    assert dirac_residual(f, points) < 1e-6
    assert calls == [2 * (n + 1) * len(points)]
