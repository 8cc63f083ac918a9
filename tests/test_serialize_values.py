"""Exact values and blade keys of the file formats: the decoder reads what
``fractions.Fraction(str)`` reads, the writer emits "p" or "p/q" in lowest
terms, and blade keys are the ASCII blade names and nothing else."""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monogenic import serialize
from monogenic.clifford import CliffordNumber
from monogenic.errors import SerializationError
from monogenic.series import MonogenicSeries


def _fraction_or_message(text):
    """What the decoder must give for text: Fraction(text), or the error line."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        return f"bad rational {text!r}: {exc}"


def _decoded_or_message(text):
    try:
        return serialize._decode_value(text, "exact")
    except SerializationError as exc:
        return str(exc)


def _assert_decodes_as_fraction(text):
    got, want = _decoded_or_message(text), _fraction_or_message(text)
    assert type(got) is type(want) and got == want


TARGETED = [
    # the fast path: ASCII -?digits(/digits)?
    "0", "-0", "7", "-7", "007", "1/2", "-3/6", "0/5", "12/4", "-000/001",
    # zero denominators
    "1/0", "-1/0", "0/0", "5/000",
    # Unicode digits, which Fraction reads as their values
    "١", "-٣/٤", "١٢/٣", "²", "1/²", "৩", "１２",
    # underscores, spaces, signs
    "1_000", "1/2_0", "_1", " 1", "1 ", " 1/2 ", "1 /2", "1/ 2", "+1", "+1/2", "1/+2", "--1", "-",
    # decimals and exponents
    "1.5", "-.5", "1.", "1e3", "1E-3", "-1.5e-2", "1/2e3", "1.5/2", "inf", "nan",
    # incomplete or malformed ratios
    "", "/", "1/", "/2", "3/-4", "1/2/3", "0x10", "1//2", "abc",
    # beyond the interpreter's 4,300-digit limit for int(str)
    "1" * 4300, "1" * 4301, "-" + "9" * 5000, "1/" + "7" * 4301, "7" * 4301 + "/3", "1" * 4301 + ".5",
]


@pytest.mark.parametrize("text", TARGETED)
def test_decoder_matches_fraction_on_targeted_strings(text):
    _assert_decodes_as_fraction(text)


NEAR_GRAMMAR = st.text(alphabet="0123456789-/+_. eE\t١²৩", max_size=12)


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.text(max_size=20), NEAR_GRAMMAR, st.from_regex(r"-?[0-9]{1,40}(/[0-9]{1,40})?", fullmatch=True)))
@example("1/0")
@example("3/-4")
def test_decoder_matches_fraction_on_any_text(text):
    _assert_decodes_as_fraction(text)


EXACT_FORM = re.compile(r"-?[0-9]+(/[0-9]+)?")


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-(10**1000), 10**1000), st.integers(1, 10**1000))
        | st.tuples(st.integers(-(2**70), 2**70), st.just(None)),
        min_size=1,
        max_size=4,
    )
)
def test_written_exact_values_read_back_and_write_the_same_bytes(pairs):
    """Fractions (and plain ints, the None denominators) are written as "p" or
    "p/q" in lowest terms with q > 1, read back equal, and write the same
    bytes again."""
    values = {mask: Fraction(p, q) if q else p for mask, (p, q) in enumerate(pairs)}
    c = CliffordNumber(2, values)
    text = serialize.canonical_dumps(serialize.clifford_to_obj(c, "exact"))
    obj = serialize.loads(text)
    for written in obj.values():
        assert EXACT_FORM.fullmatch(written)
        num, _, den = written.partition("/")
        assert not den or (int(den) > 1 and math.gcd(int(num), int(den)) == 1)
    back = serialize.obj_to_clifford(obj, 2, "exact")
    assert back == c
    assert serialize.canonical_dumps(serialize.clifford_to_obj(back, "exact")) == text


def test_exact_mode_writes_other_values_as_their_fraction():
    c = CliffordNumber(2, {0: True, 1: 0.5, 2: -3})
    assert serialize.clifford_to_obj(c, "exact") == {"": "1", "1": "1/2", "2": "-3"}
    assert serialize.clifford_to_obj(c, "float") == {"": 1.0, "1": 0.5, "2": -3.0}


def test_blade_names_read_back_every_mask():
    for n in range(1, 10):
        for mask in range(1 << n):
            assert serialize.str_to_blade(serialize.blade_to_str(mask, n), n) == mask


@pytest.mark.parametrize("key", ["١", "²", "１", "01", "21", "11", "3", " 1", "1 ", "e1", "-1", "1\n"])
def test_blade_keys_must_be_ascii_blade_names(key):
    with pytest.raises(SerializationError, match=re.escape(f"bad blade string {key!r} for dimension 2")):
        serialize.obj_to_clifford({key: "3"}, 2, "exact")


def test_two_keys_cannot_name_one_blade():
    # an Arabic-Indic one once read as unit 1, so the second key replaced the first value
    with pytest.raises(SerializationError, match="bad blade string '١'"):
        serialize.obj_to_clifford({"1": "2", "١": "3"}, 2, "exact")


def test_reading_more_than_9_units_fails_as_writing_does():
    for n in (10, 10**18):  # the limit is checked before a table of 2^n names is begun
        with pytest.raises(SerializationError, match="at most 9 units"):
            serialize.obj_to_clifford({"1": "1"}, n, "exact")
    with pytest.raises(SerializationError, match="at most 9 units"):
        serialize.clifford_to_obj(CliffordNumber(10, {1: 1}), "exact")
    # a zero value names no blade, in any dimension
    assert serialize.obj_to_clifford({}, 10, "exact") == CliffordNumber(10)
    assert serialize.clifford_to_obj(CliffordNumber(10), "exact") == {}


# One document, one table of decoded exact strings: the values that repeat
# in a file are each decoded once, and the table ends with the read.

POOL = ["0", "-0", "1", "3/4", "-3/4", "0/5", "12/4", "1/0", " 1", "²", "1.5", "x", "1" * 5000, "7" * 5000 + "/3", 0, 2, -7, True]


def _want(value):
    """The decoded value or the error line of one pool entry in exact mode."""
    if value is True:
        return "exact mode requires rational strings, got True"
    return Fraction(value) if isinstance(value, int) else _fraction_or_message(value)


def _exact_series(maps):
    coeffs = [{"m": [i, 0], "value": value} for i, value in enumerate(maps)]
    return {"n": 2, "degree": len(maps), "mode": "exact", "coeffs": coeffs}


BLADE_MAPS = st.lists(
    st.dictionaries(st.sampled_from(["", "1", "2", "12"]), st.sampled_from(POOL), max_size=4), min_size=1, max_size=5
)


@settings(max_examples=200, deadline=None)
@given(BLADE_MAPS)
def test_a_document_decodes_each_place_as_its_own_string(maps):
    """A series, and an operator holding it twice, decode every value to
    Fraction(its string), or fail with the first bad value's line."""
    wants = [{serialize.str_to_blade(k, 2): _want(v) for k, v in m.items()} for m in maps]
    errors = [w for want in wants for w in want.values() if isinstance(w, str)]
    series = _exact_series(maps)
    operator = {"n": 2, "entries": [{"m": [0, 0], "u": series}, {"m": [1, 0], "u": series}]}
    for read, doc in ((serialize.obj_to_series, series), (serialize.obj_to_operator, operator)):
        if errors:
            with pytest.raises(SerializationError) as raised:
                read(doc)
            assert str(raised.value) == errors[0]
            continue
        got = read(doc)
        zero = MonogenicSeries(2, len(maps))  # an operator drops a zero entry
        for f in [got] if read is serialize.obj_to_series else [got.entries.get(m, zero) for m in ((0, 0), (1, 0))]:
            for i, want in enumerate(wants):
                table = f.coeff((i, 0)).coeffs
                assert table == {mask: v for mask, v in want.items() if v}
                assert all(type(v) is Fraction for v in table.values())


def test_a_repeated_string_is_one_value_within_a_document_only():
    """Two places with one string share the decoded value within a document,
    nested series included; two reads build their own values."""
    series = _exact_series([{"": "3/4", "12": "3/4"}, {"1": "3/4"}])
    f = serialize.obj_to_series(series)
    a, b, c = f.coeff((0, 0))[0], f.coeff((0, 0))[3], f.coeff((1, 0))[1]
    assert a == Fraction(3, 4) and a is b and a is c
    assert serialize.obj_to_series(series).coeff((0, 0))[0] is not a
    P = serialize.obj_to_operator({"n": 2, "entries": [{"m": [0, 0], "u": series}, {"m": [1, 0], "u": series}]})
    u, v = P.entries[(0, 0)], P.entries[(1, 0)]
    assert u.coeff((0, 0))[0] is v.coeff((1, 0))[1] is not a


@pytest.mark.parametrize("value", [{"": 1, "1": True}, {"": True, "1": 1}, {"": "1", "1": True}])
def test_a_boolean_beside_an_equal_number_is_refused(value):
    with pytest.raises(SerializationError, match="^exact mode requires rational strings, got True$"):
        serialize.obj_to_series(_exact_series([value]))
