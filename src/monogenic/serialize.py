"""Canonical interchange formats.

Series file:    {"n": int, "degree": int, "mode": "exact"|"float",
                 "coeffs": [{"m": [ints], "value": {blade: number|"p/q"}}]}
Operator file:  {"n": int, "entries": [{"m": [ints], "u": <series>}]}
Hom table file: {"n": int, "degree": int, "entries": [{"p": [ints], "b": <series>}]}
Norms file:     {"n": int, "kind": "log_norms", "entries": [{"m": [ints], "ln_norm": num}]}

Blade keys are the ASCII names of the blades, the unit indices in
increasing order ("" is the scalar part, "13" is e1e3), so n is at most 9.
Multi-indices are emitted in lexicographic order, blade keys sorted, exact
rationals as "p" or "p/q" strings in lowest terms with q > 1, floats in
Python's shortest round-trip repr (``json.dumps``), so every finite float,
-0.0 included, reads back bit for bit. Emission is deterministic so
canonical files are diffable byte for byte.
On input, "n", "degree" and index entries must be JSON integers and numbers
must be finite JSON numbers; booleans are neither. An exact value may be a
JSON integer or any string ``fractions.Fraction`` accepts. An index appears
at most once in a list; a repeated one is refused, naming the list's kind.
Reading a document decodes each distinct exact string once: one table of
decoded strings is shared by every value of the document, nested series
included, and is dropped when the top-level ``obj_to_*`` call returns, so
no decoded value outlives the read.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache
from typing import Any

from .clifford import CliffordNumber, from_table
from .errors import SerializationError
from .multiindex import MultiIndex, check_index, mi_abs
from .operators import HomTable, OperatorSymbol
from .series import MonogenicSeries


def is_integer(value) -> bool:
    """A JSON integer: an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_finite_number(value) -> bool:
    """A JSON number (not a bool) that converts to a finite float."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def blade_to_str(mask: int, n: int) -> str:
    if n > 9:
        raise SerializationError("blade strings support at most 9 units")
    return "".join(str(i + 1) for i in range(n) if mask >> i & 1)


@lru_cache(maxsize=None)
def _blade_names(n: int) -> tuple[str, ...]:
    """The blade string of every mask of dimension n."""
    blade_to_str(0, n)  # the unit limit, checked before 1 << n is formed
    return tuple(blade_to_str(mask, n) for mask in range(1 << n))


@lru_cache(maxsize=None)
def _blade_masks(n: int) -> dict[str, int]:
    """The inverse of ``_blade_names``: the mask of every blade string."""
    return {name: mask for mask, name in enumerate(_blade_names(n))}


def str_to_blade(text: str, n: int) -> int:
    try:
        return _blade_masks(max(n, 0))[text]  # below 1 the constructor names the fault
    except KeyError:
        raise SerializationError(f"bad blade string {text!r} for dimension {n}") from None


_EXACT_TYPES = frozenset((Fraction, int))  # str gives "p" or "p/q"; a bool's does not


def _rational(text: str) -> Fraction:
    """Fraction(text), built from ints when text is ASCII -?digits(/digits)?:
    Fraction's regex costs more than the rest of the decoding."""
    num, slash, den = text.partition("/")
    if text.isascii() and num.removeprefix("-").isdigit() and (den.isdigit() or not slash):
        try:
            return Fraction(int(num), int(den)) if slash else Fraction(int(num))
        except (ValueError, ZeroDivisionError):
            pass  # Fraction(text) raises it again, with its own message
    return Fraction(text)


def _decode_value(value, mode: str):
    if mode == "exact":
        if isinstance(value, str):
            try:
                return _rational(value)
            except (ValueError, ZeroDivisionError) as exc:
                raise SerializationError(f"bad rational {value!r}: {exc}") from None
        if is_integer(value):
            return Fraction(value)
        raise SerializationError(f"exact mode requires rational strings, got {value!r}")
    if is_finite_number(value):
        return float(value)
    raise SerializationError(f"float mode requires finite numbers, got {value!r}")


def _entries(raw, index_key: str, value_key: str, what: str) -> dict[MultiIndex, Any]:
    """{multi-index: value} of a list of {index_key: [ints], value_key: ...};
    an index may appear once."""
    if not isinstance(raw, list):
        raise SerializationError(f"{what} entries must be a list")
    out = {}
    for item in raw:
        try:
            index, value = item[index_key], item[value_key]
        except KeyError as exc:
            raise SerializationError(f"{what} entry without key {exc}") from None
        except TypeError:
            raise SerializationError(f"{what} entry must be an object, got {item!r}") from None
        if not isinstance(index, list) or not all(map(is_integer, index)):
            raise SerializationError(f"{what} index must be a list of integers, got {index!r}")
        if (m := tuple(index)) in out:
            raise SerializationError(f"{what} index {index} is repeated")
        out[m] = value
    return out


def _entries_obj(table, index_key: str, value_key: str, encode) -> list[dict]:
    """The entry list of a table keyed by multi-index, degree-major then
    lexicographic: the mirror of ``_entries``."""
    return [
        {index_key: list(m), value_key: encode(table[m])}
        for m in sorted(table, key=lambda m: (mi_abs(m), m))
    ]


def _header(obj, what: str, *keys: str) -> list:
    """The values of the given top-level keys of a document; "n" and
    "degree" must be JSON integers."""
    if not isinstance(obj, dict):
        raise SerializationError(f"{what} must be a JSON object, got {type(obj).__name__}")
    for key in keys:
        if key not in obj:
            raise SerializationError(f"malformed {what} object: no key {key!r}")
        if key in ("n", "degree") and not is_integer(obj[key]):
            raise SerializationError(f"{what} {key!r} must be an integer, got {obj[key]!r}")
    return [obj[key] for key in keys]


def mode_of(tables) -> str:
    """The mode of a collection of series: exact when every one is exact."""
    return "exact" if all(u.is_exact() for u in tables) else "float"


def _checked(make, *args):
    """make(*args), with a constructor's ValueError raised as a SerializationError."""
    try:
        return make(*args)
    except ValueError as exc:
        raise SerializationError(str(exc)) from None


def clifford_to_obj(c: CliffordNumber, mode: str) -> dict:
    coeffs = c.coeffs
    names = _blade_names(c.dim) if coeffs else ()  # a zero value names no blade, in any dimension
    masks = sorted(coeffs, key=names.__getitem__)
    if mode != "exact":
        return {names[m]: float(coeffs[m]) for m in masks}
    return {names[m]: str(v if type(v := coeffs[m]) in _EXACT_TYPES else Fraction(v)) for m in masks}


def obj_to_clifford(obj: dict, n: int, mode: str, values: dict | None = None) -> CliffordNumber:
    """The value of a blade map.  ``values`` maps the exact strings of the
    document read so far to their decoded values; without it the table
    lives for this one value."""
    if not isinstance(obj, dict):
        raise SerializationError(f"expected a blade map, got {type(obj).__name__}")
    exact, values = mode == "exact", {} if values is None else values
    masks = _blade_masks(max(n, 0)) if obj else {}  # a zero value names no blade
    table = {}
    for key, text in obj.items():
        if (mask := masks.get(key)) is None:
            mask = str_to_blade(key, n)  # which names the bad key
        if exact and type(text) is str:  # keyed on strings only: 1 and True hash equal
            if (value := values.get(text)) is None:
                value = values[text] = _decode_value(text, mode)
        else:
            value = _decode_value(text, mode)
        if value or not exact:  # exact zeros are dropped, float ones kept
            table[mask] = value
    # from_table checks nothing again; below dimension 1 the constructor names the fault
    return (from_table if n >= 1 else CliffordNumber)(n, table)


def series_to_obj(f: MonogenicSeries, mode: str | None = None) -> dict:
    mode = mode or f.mode()
    if mode not in ("exact", "float"):
        raise SerializationError(f"unknown mode {mode!r}")
    coeffs = _entries_obj(f.coeffs, "m", "value", lambda a: clifford_to_obj(a, mode))
    return {"n": f.n, "degree": f.degree, "mode": mode, "coeffs": coeffs}


def obj_to_series(obj: dict, values: dict | None = None) -> MonogenicSeries:
    """The series of a document, or of a series inside one, which passes
    its table of decoded exact strings as ``values``."""
    n, degree, mode, raw = _header(obj, "series", "n", "degree", "mode", "coeffs")
    if mode not in ("exact", "float"):
        raise SerializationError(f"unknown mode {mode!r}")
    values = {} if values is None else values
    coeffs = {
        m: obj_to_clifford(value, n, mode, values)
        for m, value in _entries(raw, "m", "value", "coefficient").items()
    }
    return _checked(MonogenicSeries, n, degree, coeffs)


def operator_to_obj(P: OperatorSymbol, mode: str | None = None) -> dict:
    mode = mode or mode_of(P.entries.values())
    entries = _entries_obj(P.entries, "m", "u", lambda u: series_to_obj(u, mode))
    return {"n": P.n, "entries": entries}


def obj_to_operator(obj: dict) -> OperatorSymbol:
    n, raw = _header(obj, "operator", "n", "entries")
    values = {}  # one table for the document
    entries = {m: obj_to_series(u, values) for m, u in _entries(raw, "m", "u", "operator").items()}
    return _checked(OperatorSymbol, n, entries)


def homtable_to_obj(H: HomTable, mode: str | None = None) -> dict:
    mode = mode or mode_of(H.entries.values())
    entries = _entries_obj(H.entries, "p", "b", lambda b: series_to_obj(b, mode))
    return {"n": H.n, "degree": H.degree, "entries": entries}


def obj_to_homtable(obj: dict) -> HomTable:
    n, degree, raw = _header(obj, "hom table", "n", "degree", "entries")
    values = {}  # one table for the document
    entries = {p: obj_to_series(b, values) for p, b in _entries(raw, "p", "b", "hom table").items()}
    return _checked(HomTable, n, degree, entries)


def log_norms_to_obj(n: int, log_norms: dict[MultiIndex, float]) -> dict:
    entries = _entries_obj(log_norms, "m", "ln_norm", float)
    return {"n": n, "kind": "log_norms", "entries": entries}


def obj_to_log_norms(obj: dict) -> tuple[int, dict[MultiIndex, float]]:
    n, raw = _header(obj, "norms", "n", "entries")
    if n < 1:
        raise SerializationError(f"dimension must be >= 1, got {n}")
    out = {}
    for m, value in _entries(raw, "m", "ln_norm", "norms").items():
        _checked(check_index, m, n)
        if not is_finite_number(value):
            raise SerializationError(f"ln_norm at {list(m)} must be a finite number, got {value!r}")
        out[m] = float(value)
    return n, out


def canonical_dumps(obj: Any) -> str:
    """Compact JSON with a final newline; floats in their shortest
    round-trip form, and a non-finite float or unknown type rejected."""
    try:
        return json.dumps(obj, separators=(",", ":"), allow_nan=False) + "\n"
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"cannot serialize: {exc}") from None


def loads(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from None


def write_file(path: str, obj: Any) -> None:
    text = canonical_dumps(obj)  # before open, so a rejected document truncates nothing
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_file(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())

