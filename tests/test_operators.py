import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monogenic.clifford import CliffordNumber, cl_mul
from monogenic.errors import DimensionMismatchError
from monogenic.growth import ProximateOrder
from monogenic.multiindex import enumerate_up_to, mi_abs, mi_add, mi_factorial, mi_leq, mi_sub
from monogenic.operators import (
    HomTable,
    OperatorSymbol,
    compare_scales,
    convergence_threshold,
    gauge_coefficient_operator,
    hom_to_op,
    op_apply,
    op_class_check,
    op_to_hom,
    reconstruct_from_blackbox,
    tail_bound_profile,
)
from monogenic.series import MonogenicSeries, ck_mul_left, series_derivative, series_eval
from monogenic.verify import brute_force_ck, random_rational_operator, random_rational_series

from conftest import DYADIC_VALUE, exact_series, scale_right

PO1 = ProximateOrder("constant", 1.0)


def test_identity_operator_application():
    I = OperatorSymbol.identity(2)
    f = random_rational_series(2, 4, 3)
    assert op_apply(I, f, 4).coeffs == f.coeffs
    assert op_apply(I, f, 2).coeffs == f.truncate(2).coeffs


def test_single_derivative_operator():
    P = OperatorSymbol(2, {(1, 0): MonogenicSeries.unit(2)})
    f = MonogenicSeries.basis_element(2, (2, 0))
    out = op_apply(P, f, 4)
    assert out.coeffs == {(1, 0): CliffordNumber.scalar(2, Fraction(2))}


def test_op_apply_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        op_apply(OperatorSymbol.identity(3), MonogenicSeries.unit(2), 2)


def test_operator_negative_index_rejected():
    with pytest.raises(ValueError, match="negative"):
        OperatorSymbol(2, {(-1, 2): MonogenicSeries.unit(2)})


def test_op_apply_right_linearity():
    P = random_rational_operator(2, 3, 2, 5)
    f = random_rational_series(2, 3, 6)
    g = random_rational_series(2, 3, 7)
    c = CliffordNumber(2, {0b01: Fraction(2), 0: Fraction(1, 3)})
    d = CliffordNumber(2, {0b11: Fraction(-1)})
    combo = scale_right(f, c) + scale_right(g, d)
    left = op_apply(P, combo, 6)
    right = scale_right(op_apply(P, f, 6), c) + scale_right(op_apply(P, g, 6), d)
    assert left.coeffs == right.coeffs


def test_hom_table_of_identity():
    table = op_to_hom(OperatorSymbol.identity(2), 3)
    for p in enumerate_up_to(2, 3):
        expected = {p: CliffordNumber.scalar(2, Fraction(1, mi_factorial(p)))}
        assert table.entries[p].coeffs == expected


def test_hom_table_of_multiplication_operator():
    g = random_rational_series(2, 2, 17)
    P = OperatorSymbol(2, {(0, 0): g})
    table = op_to_hom(P, 3)
    for p in enumerate_up_to(2, 3):
        shift = MonogenicSeries.basis_element(2, p).scale(Fraction(1, mi_factorial(p)))
        expected = ck_mul_left(g, shift, g.degree + 3)
        assert table.entries[p].coeffs == expected.coeffs


def test_round_trip_exact_many_seeds():
    for seed in range(12):
        P = random_rational_operator(2, 6, 2, seed)
        assert hom_to_op(op_to_hom(P, 6)) == P


def test_round_trip_float_many_seeds():
    # float mode takes the same transform with float factors; it inverts up to roundoff
    rng = random.Random(41)
    for seed in range(6):
        exact = random_rational_operator(2, 5, 2, seed)
        P = OperatorSymbol(
            2, {m: u.to_float().scale(rng.uniform(0.1, 3.0)) for m, u in exact.entries.items()}
        )
        back = hom_to_op(op_to_hom(P, 5))
        values = lambda op: {
            (m, k, mask): v
            for m, u in op.entries.items()
            for k, a in u.coeffs.items()
            for mask, v in a.coeffs.items()
        }
        want, got = values(P), values(back)
        scale = max(abs(v) for v in want.values())
        for key in set(want) | set(got):
            assert abs(got.get(key, 0.0) - want.get(key, 0.0)) <= 1e-12 * scale


def test_hom_round_trip_exact():
    for seed in range(6):
        entries = {}
        for i, p in enumerate(enumerate_up_to(2, 4)):
            entries[p] = random_rational_series(2, 2, 31 * seed + i, density=0.5)
        H = HomTable(n=2, degree=4, entries=entries)
        assert op_to_hom(hom_to_op(H), 4) == H


def fraction_basis_transform(n, degree, entries, sign):
    """The operator<->table transform in Fraction arithmetic, one scaled and
    shifted entry at a time: t -> sum_{s <= t} entries[s] (ck) sign^|t-s|
    V_{t-s} / (t-s)!, indices in the order they first appear, each result of
    the degree of its top nonzero index."""
    out = {}
    for t in enumerate_up_to(n, degree):
        acc = {}
        for s, u in entries.items():
            if not mi_leq(s, t):
                continue
            k = mi_sub(t, s)
            factor = Fraction(sign ** mi_abs(k), mi_factorial(k))
            for m, a in u.coeffs.items():
                p = mi_add(m, k)
                acc[p] = acc[p] + a.scale(factor) if p in acc else a.scale(factor)
        support = {p: a for p, a in acc.items() if not a.is_zero()}
        out[t] = MonogenicSeries(n, max(map(mi_abs, support), default=0), support)
    return out


def _assert_same_tables(got, want):
    """Equal tables entry by entry: the same keys in the same order, and per
    entry the same declared degree, index order and coefficients."""
    assert list(got) == list(want)
    for key, u in want.items():
        assert got[key].degree == u.degree
        assert list(got[key].coeffs) == list(u.coeffs)
        assert got[key].coeffs == u.coeffs


@st.composite
def exact_operator(draw):
    n = draw(st.integers(1, 3))
    order = draw(st.integers(0, 3))
    index = st.sampled_from(enumerate_up_to(n, order))
    entries = draw(st.dictionaries(index, exact_series(n, draw(st.integers(0, 2))), max_size=5))
    return OperatorSymbol(n, entries), draw(st.integers(0, 4))


@settings(max_examples=60, deadline=None)
@given(exact_operator())
@example((OperatorSymbol(2), 2))
@example((random_rational_operator(2, 3, 2, 17), 4))
def test_exact_transform_matches_fraction_oracle(case):
    """op_to_hom and hom_to_op (the integer kernel) against the Fraction
    transform, on the operator and on its table."""
    P, q_table = case
    H = op_to_hom(P, q_table)
    _assert_same_tables(H.entries, fraction_basis_transform(P.n, q_table, P.entries, 1))
    want = fraction_basis_transform(P.n, q_table, H.entries, -1)
    _assert_same_tables(hom_to_op(H).entries, {s: u for s, u in want.items() if not u.is_zero()})


@st.composite
def exact_hom_table(draw):
    """A complete table whose entries are arbitrary, often zero, series."""
    n, degree = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    return HomTable(n, degree, {p: draw(exact_series(n, 2)) for p in enumerate_up_to(n, degree)})


@settings(max_examples=30, deadline=None)
@given(exact_hom_table())
def test_exact_inverse_of_random_table_matches_fraction_oracle(H):
    """hom_to_op of a table that no operator was mapped to."""
    want = fraction_basis_transform(H.n, H.degree, H.entries, -1)
    _assert_same_tables(hom_to_op(H).entries, {s: u for s, u in want.items() if not u.is_zero()})


def fraction_apply(P, f, q_out):
    """op_apply in Fraction arithmetic through cl_mul: every (term, m, k) in
    order, indices in the order they first appear, zeros dropped at the end."""
    acc = {}
    for s, u in P.entries.items():
        if mi_abs(s) > f.degree:
            continue
        for m, a in u.coeffs.items():
            for k, b in series_derivative(f, s).coeffs.items():
                p = mi_add(m, k)
                if mi_abs(p) <= q_out:
                    acc[p] = acc[p] + cl_mul(a, b) if p in acc else cl_mul(a, b)
    return {p: a for p, a in acc.items() if not a.is_zero()}


#: the kernel's number regimes: numerators beyond 2^63 (object arrays); ints,
#: small or with products beyond 2^63 (int64 and object arrays)
BIG_VALUE = st.builds(
    lambda num, sign, den: Fraction(sign * num, den),
    st.integers(2**63, 2**70),
    st.sampled_from([1, -1]),
    st.sampled_from([1, 3, 2**64 + 13]),
)
INT_VALUE = st.one_of(st.integers(-9, 9), st.integers(2**40, 2**62))


@st.composite
def kernel_case(draw):
    """Series f and g, an operator P and a degree, all of one dimension n <= 4
    and one value regime; any table may be empty."""
    n = draw(st.integers(1, 4))
    value = draw(st.sampled_from([BIG_VALUE, INT_VALUE]))
    series = lambda degree: exact_series(n, degree, max_terms=4, value=value)
    f, g = draw(series(draw(st.integers(0, 3)))), draw(series(draw(st.integers(0, 3))))
    index = st.sampled_from(enumerate_up_to(n, draw(st.integers(0, 2))))
    P = OperatorSymbol(n, draw(st.dictionaries(index, series(draw(st.integers(0, 2))), max_size=3)))
    return f, g, P, draw(st.integers(0, 5))


def _values(*tables):
    return [v for t in tables for u in t.values() for a in u.coeffs.values() for v in a.coeffs.values()]


@settings(max_examples=60, deadline=None)
@given(kernel_case())
@example((MonogenicSeries(4, 2), MonogenicSeries(4, 2), OperatorSymbol(4), 3))
@example((  # index entries beyond 2^63: the (group, p) keys are Python ints
    MonogenicSeries(2, 2**70, {(2**70, 0): CliffordNumber(2, {0: Fraction(1, 3), 3: 2})}),
    MonogenicSeries(2, 2**70 + 1, {(1, 2**70): CliffordNumber(2, {0: 7, 2: 5}), (0, 0): CliffordNumber(2, {1: 1})}),
    OperatorSymbol(2),
    2**71 + 1,
))
@example((
    MonogenicSeries(2, 1, {(1, 0): CliffordNumber(2, {0: 2**62, 3: -(2**62)})}),
    MonogenicSeries(2, 1, {(0, 1): CliffordNumber(2, {0: 2**62, 1: 5})}),
    OperatorSymbol(2, {(0, 0): MonogenicSeries.unit(2)}),
    2,
))
def test_exact_kernel_matches_oracles_in_every_regime(case):
    """ck_mul_left, op_apply, op_to_hom and hom_to_op against the Fraction
    oracles at n = 1..4: equal values in the same index order, and int
    input gives ints."""
    f, g, P, q = case
    product, applied = ck_mul_left(f, g, q), op_apply(P, f, q)
    want = brute_force_ck(f, g, q)
    assert list(product.coeffs) == list(want.coeffs) and product.coeffs == want.coeffs
    want = fraction_apply(P, f, q)
    assert list(applied.coeffs) == list(want) and applied.coeffs == want
    H = op_to_hom(P, q % 3)
    _assert_same_tables(H.entries, fraction_basis_transform(P.n, q % 3, P.entries, 1))
    want = fraction_basis_transform(P.n, q % 3, H.entries, -1)
    _assert_same_tables(hom_to_op(H).entries, {s: u for s, u in want.items() if not u.is_zero()})
    if all(type(v) is int for v in _values({0: f, 1: g}, P.entries)):
        assert all(type(v) is int for v in _values({0: product, 1: applied}))


def _l1(series) -> Fraction:
    """Sum of the absolute blade coefficients of some series."""
    return sum((abs(v) for u in series for a in u.coeffs.values() for v in a.coeffs.values()), Fraction(0))


def _assert_float_matches_exact(got, want, envelope):
    """Float tables of series against the exact ones: every blade within
    1e-12 of the coefficient envelope, and no stored 0.0 blade."""
    blades = lambda table: {
        (key, m, mask): v
        for key, u in table.items()
        for m, a in u.coeffs.items()
        for mask, v in a.coeffs.items()
    }
    got, want = blades(got), blades(want)
    assert all(type(v) is float and v != 0.0 for v in got.values())
    for key in got.keys() | want.keys():
        assert abs(Fraction(got.get(key, 0)) - want.get(key, 0)) <= Fraction(1e-12) * envelope


@st.composite
def dyadic_case(draw):
    """Dyadic series f and g, an operator P and a complete table H of one
    dimension, and a degree: exact inputs whose float copies are exact."""
    n = draw(st.integers(1, 3))
    series = lambda degree: exact_series(n, degree, value=DYADIC_VALUE)
    f, g = draw(series(draw(st.integers(0, 4)))), draw(series(draw(st.integers(0, 4))))
    index = st.sampled_from(enumerate_up_to(n, draw(st.integers(0, 3))))
    P = OperatorSymbol(n, draw(st.dictionaries(index, series(draw(st.integers(0, 2))), max_size=4)))
    degree = draw(st.integers(0, 2))
    H = HomTable(n, degree, {p: draw(series(2)) for p in enumerate_up_to(n, degree)})
    return f, g, P, H, draw(st.integers(0, 6))


# (1 + e123)(1 - e123) = 0: every float blade of the product cancels to 0.0
_PLUS, _MINUS = (
    MonogenicSeries(3, 1, {(0, 1, 0): CliffordNumber(3, {0: Fraction(1), 0b111: Fraction(s)})})
    for s in (1, -1)
)
_CANCELLING = OperatorSymbol(3, {(0, 0, 0): _PLUS, (1, 0, 0): _MINUS})


@settings(max_examples=80, deadline=None)
@given(dyadic_case())
@example((_PLUS, _MINUS, _CANCELLING, op_to_hom(_CANCELLING, 1), 2))
def test_float_kernel_matches_exact_mode(case):
    """Float ck_mul_left, op_apply, op_to_hom and hom_to_op against exact
    mode on dyadic inputs; float results carry only nonzero blades."""
    f, g, P, H, q = case
    ff, Pf = f.to_float(), OperatorSymbol(P.n, {m: u.to_float() for m, u in P.entries.items()})
    got, want = ck_mul_left(ff, g.to_float(), q), ck_mul_left(f, g, q)
    _assert_float_matches_exact({0: got}, {0: want}, _l1([f]) * _l1([g]))
    derivatives = {m: series_derivative(f, m) for m in P.entries}
    envelope = sum((_l1([u]) * _l1([derivatives[m]]) for m, u in P.entries.items()), Fraction(0))
    _assert_float_matches_exact({0: op_apply(Pf, ff, q)}, {0: op_apply(P, f, q)}, envelope)
    got, want = op_to_hom(Pf, q % 4).entries, op_to_hom(P, q % 4).entries
    _assert_float_matches_exact(got, want, _l1(P.entries.values()))
    Hf = HomTable(H.n, H.degree, {p: b.to_float() for p, b in H.entries.items()})
    got, want = hom_to_op(Hf).entries, hom_to_op(H).entries
    _assert_float_matches_exact(got, want, _l1(H.entries.values()))


def test_incomplete_table_rejected():
    entries = {(0, 0): MonogenicSeries.unit(2)}
    with pytest.raises(ValueError, match="incomplete"):
        hom_to_op(HomTable(n=2, degree=2, entries=entries))


def test_hom_table_rejects_entries_it_cannot_hold():
    unit = MonogenicSeries.unit(2)
    for degree, p in [(0, (3, 0)), (1, (-1, 1)), (0, (0, 0, 0))]:
        with pytest.raises(ValueError):
            HomTable(n=2, degree=degree, entries={(0, 0): unit, p: unit})
    with pytest.raises(ValueError):
        HomTable(n=2, degree=-1, entries={})
    with pytest.raises(ValueError):
        HomTable(n=0, degree=0, entries={})
    with pytest.raises(ValueError):
        HomTable(n=2, degree=0, entries={(0, 0): MonogenicSeries.unit(3)})
    # missing entries are allowed; hom_to_op reports them
    assert HomTable(n=2, degree=1, entries={(0, 0): unit}).missing() == [(0, 1), (1, 0)]


def test_operator_symbol_rejects_dimension_below_one():
    for n in (0, -1):
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            OperatorSymbol(n, {})


def test_derivative_hom_inverts_to_derivative_operator():
    # values of the first-axis derivative on the basis invert to the
    # operator with unit coefficient at (1,0) and nothing else
    def F(f):
        return series_derivative(f, (1, 0))

    P = reconstruct_from_blackbox(F, 2, 5)
    assert set(P.entries) == {(1, 0)}
    assert P.entries[(1, 0)].coeffs == MonogenicSeries.unit(2).coeffs


def test_reconstruct_identity_and_multiplication():
    assert reconstruct_from_blackbox(lambda f: f, 2, 4) == OperatorSymbol.identity(2)
    g = random_rational_series(2, 2, 23)
    P = reconstruct_from_blackbox(lambda f: ck_mul_left(g, f, g.degree + 4), 2, 4)
    assert set(P.entries) == {(0, 0)}
    assert P.entries[(0, 0)].coeffs == g.coeffs


def test_reconstruct_composed_map_telescopes():
    g = random_rational_series(2, 2, 29)

    def F(f):
        return ck_mul_left(g, series_derivative(f, (1, 0)), g.degree + 6)

    P = reconstruct_from_blackbox(F, 2, 4)
    assert set(P.entries) == {(1, 0)}
    assert P.entries[(1, 0)].coeffs == g.coeffs


def test_reconstruct_agrees_on_whole_basis():
    g = random_rational_series(2, 2, 41)
    h = random_rational_series(2, 2, 43)

    def F(f):
        return ck_mul_left(g, series_derivative(f, (1, 0)), 12) + ck_mul_left(
            h, series_derivative(f, (0, 2)), 12
        )

    P = reconstruct_from_blackbox(F, 2, 5)
    for s in enumerate_up_to(2, 5):
        basis = MonogenicSeries.basis_element(2, s)
        assert op_apply(P, basis, 12).coeffs == F(basis).truncate(12).coeffs


def test_compare_scales():
    assert compare_scales(PO1, PO1).ok
    assert compare_scales(PO1, ProximateOrder("constant", 2.0)).ok
    bad = compare_scales(ProximateOrder("constant", 2.0), PO1)
    assert not bad.ok and bad.tail_slope > 0


def test_class_check_finite_support_passes():
    P = random_rational_operator(2, 2, 1, 3)
    cert = op_class_check(P, PO1, PO1, sigma_grid=(0.5, 1.0), lambda_grid=(0.5, 1.0))
    assert cert.all_rates and cert.all_weights
    assert cert.scale_check.ok


def test_class_check_boundary_family():
    lam0 = 0.25
    P = gauge_coefficient_operator(2, PO1, 14, lambda q: q * math.log(lam0))
    cert = op_class_check(P, PO1, PO1, sigma_grid=(1.0,), lambda_grid=(lam0, 2 * lam0, lam0 / 2))
    # passes exactly at rates >= lam0 (constant 1 there), fails below
    assert cert.cell_ok[(lam0, 1.0)]
    assert cert.ln_constant[(lam0, 1.0)] == pytest.approx(0.0, abs=1e-7)
    assert cert.cell_ok[(2 * lam0, 1.0)]
    assert not cert.cell_ok[(lam0 / 2, 1.0)]
    assert not cert.all_rates


def test_class_check_factorial_growth_negative():
    P = gauge_coefficient_operator(2, PO1, 12, lambda q: math.lgamma(q + 1))
    cert = op_class_check(P, PO1, PO1, sigma_grid=(0.5, 1.0), lambda_grid=(0.5, 1.0, 4.0))
    assert not any(cert.cell_ok.values())
    assert not cert.all_rates and not cert.all_weights


def test_class_check_super_decay_passes_all_rates():
    # support must reach past the requirement hump at q ~ 1/rate before the
    # factorial decay is witnessed on the grid
    P = gauge_coefficient_operator(2, PO1, 30, lambda q: -math.lgamma(q + 1))
    cert = op_class_check(P, PO1, PO1, sigma_grid=(1.0,), lambda_grid=(0.05, 0.5, 2.0))
    assert cert.all_rates and cert.all_weights


def test_tail_bound_decays_geometrically():
    k = 1.05 * 2.0
    tau = 1.0
    n_const = math.sqrt(6.0)
    eps_star = convergence_threshold(n_const, k, tau, 1.0)
    rate = eps_star / 2.5
    P = gauge_coefficient_operator(2, PO1, 30, lambda q: q * math.log(rate))
    profile = tail_bound_profile(P, PO1, PO1, sigma=1.0, tau=tau, k=k)
    for M in range(8, 20):
        assert profile[M + 1] <= profile[M] - math.log(2.0)


def test_tail_bound_flat_above_threshold():
    k = 1.05 * 2.0
    tau = 1.0
    eps_star = convergence_threshold(math.sqrt(6.0), k, tau, 1.0)
    P = gauge_coefficient_operator(2, PO1, 30, lambda q: q * math.log(3.0 * eps_star))
    profile = tail_bound_profile(P, PO1, PO1, sigma=1.0, tau=tau, k=k)
    # above the threshold the assembled tail no longer halves per step
    assert any(profile[M + 1] > profile[M] - math.log(2.0) for M in range(8, 20))
