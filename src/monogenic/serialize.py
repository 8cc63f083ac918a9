"""Canonical interchange formats.

Series file:    {"n": int, "degree": int, "mode": "exact"|"float",
                 "coeffs": [{"m": [ints], "value": {blade: number|"p/q"}}]}
Operator file:  {"n": int, "entries": [{"m": [ints], "u": <series>}]}
Hom table file: {"n": int, "degree": int, "entries": [{"p": [ints], "b": <series>}]}
Norms file:     {"n": int, "kind": "log_norms", "entries": [{"m": [ints], "ln_norm": num}]}
Scale spec:     {"family": "constant"|"logshift"|"loglog", "rho": num, "a": num}

Blade keys are digit strings with strictly increasing digits ("" is the
scalar part), multi-indices are emitted in lexicographic order, blade keys
sorted, exact rationals as "p/q" strings, floats in Python's shortest
round-trip repr (``json.dumps``), so every finite float, -0.0 included,
reads back bit for bit. Emission is deterministic so canonical files are
diffable byte for byte.
On input, "n", "degree" and index entries must be JSON integers and numbers
must be finite JSON numbers; booleans are neither.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache
from typing import Any

from .clifford import CliffordNumber
from .errors import SerializationError
from .growth import ProximateOrder
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
    return tuple(blade_to_str(mask, n) for mask in range(1 << n))


def str_to_blade(text: str, n: int) -> int:
    mask = 0
    prev = 0
    for ch in text:
        if not ch.isdigit():
            raise SerializationError(f"bad blade string {text!r}")
        digit = int(ch)
        if digit <= prev or digit > n:
            raise SerializationError(f"bad blade string {text!r} for dimension {n}")
        mask |= 1 << (digit - 1)
        prev = digit
    return mask


def _encode_value(value, mode: str):
    if mode == "exact":
        # str of an int or a Fraction is already its "p/q" form
        return str(value if isinstance(value, Fraction) or is_integer(value) else Fraction(value))
    return float(value)


def _decode_value(value, mode: str):
    if mode == "exact":
        if isinstance(value, str):
            try:
                return Fraction(value)
            except (ValueError, ZeroDivisionError) as exc:
                raise SerializationError(f"bad rational {value!r}: {exc}") from None
        if is_integer(value):
            return Fraction(value)
        raise SerializationError(f"exact mode requires rational strings, got {value!r}")
    if is_finite_number(value):
        return float(value)
    raise SerializationError(f"float mode requires finite numbers, got {value!r}")


def _entries(raw, index_key: str, value_key: str, what: str) -> list[tuple[MultiIndex, Any]]:
    """(multi-index, value) pairs of a list of {index_key: [ints], value_key: ...}."""
    if not isinstance(raw, list):
        raise SerializationError(f"{what} entries must be a list")
    out = []
    for item in raw:
        try:
            index, value = item[index_key], item[value_key]
        except KeyError as exc:
            raise SerializationError(f"{what} entry without key {exc}") from None
        except TypeError:
            raise SerializationError(f"{what} entry must be an object, got {item!r}") from None
        if not isinstance(index, list) or not all(map(is_integer, index)):
            raise SerializationError(f"{what} index must be a list of integers, got {index!r}")
        out.append((tuple(index), value))
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
    return {names[mask]: _encode_value(coeffs[mask], mode) for mask in sorted(coeffs, key=names.__getitem__)}


def obj_to_clifford(obj: dict, n: int, mode: str) -> CliffordNumber:
    if not isinstance(obj, dict):
        raise SerializationError(f"expected a blade map, got {type(obj).__name__}")
    return CliffordNumber(n, {str_to_blade(k, n): _decode_value(v, mode) for k, v in obj.items()})


def series_to_obj(f: MonogenicSeries, mode: str | None = None) -> dict:
    mode = mode or f.mode()
    if mode not in ("exact", "float"):
        raise SerializationError(f"unknown mode {mode!r}")
    coeffs = _entries_obj(f.coeffs, "m", "value", lambda a: clifford_to_obj(a, mode))
    return {"n": f.n, "degree": f.degree, "mode": mode, "coeffs": coeffs}


def obj_to_series(obj: dict) -> MonogenicSeries:
    n, degree, mode, raw = _header(obj, "series", "n", "degree", "mode", "coeffs")
    if mode not in ("exact", "float"):
        raise SerializationError(f"unknown mode {mode!r}")
    coeffs = {
        m: obj_to_clifford(value, n, mode)
        for m, value in _entries(raw, "m", "value", "coefficient")
    }
    return _checked(MonogenicSeries, n, degree, coeffs)


def operator_to_obj(P: OperatorSymbol, mode: str | None = None) -> dict:
    mode = mode or mode_of(P.entries.values())
    entries = _entries_obj(P.entries, "m", "u", lambda u: series_to_obj(u, mode))
    return {"n": P.n, "entries": entries}


def obj_to_operator(obj: dict) -> OperatorSymbol:
    n, raw = _header(obj, "operator", "n", "entries")
    entries = {m: obj_to_series(u) for m, u in _entries(raw, "m", "u", "operator")}
    return _checked(OperatorSymbol, n, entries)


def homtable_to_obj(H: HomTable, mode: str | None = None) -> dict:
    mode = mode or mode_of(H.entries.values())
    entries = _entries_obj(H.entries, "p", "b", lambda b: series_to_obj(b, mode))
    return {"n": H.n, "degree": H.degree, "entries": entries}


def obj_to_homtable(obj: dict) -> HomTable:
    n, degree, raw = _header(obj, "hom table", "n", "degree", "entries")
    entries = {p: obj_to_series(b) for p, b in _entries(raw, "p", "b", "hom table")}
    return _checked(HomTable, n, degree, entries)


def log_norms_to_obj(n: int, log_norms: dict[MultiIndex, float]) -> dict:
    entries = _entries_obj(log_norms, "m", "ln_norm", float)
    return {"n": n, "kind": "log_norms", "entries": entries}


def obj_to_log_norms(obj: dict) -> tuple[int, dict[MultiIndex, float]]:
    n, raw = _header(obj, "norms", "n", "entries")
    if n < 1:
        raise SerializationError(f"dimension must be >= 1, got {n}")
    out = {}
    for m, value in _entries(raw, "m", "ln_norm", "norms"):
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


def obj_to_scale(obj: dict) -> ProximateOrder:
    """A scale spec: a string "family" and finite JSON numbers "rho" and
    (optionally) "a", and no other key."""
    if not isinstance(obj, dict):
        raise SerializationError(f"scale spec must be a JSON object, got {obj!r}")
    unknown = sorted(set(obj) - {"family", "rho", "a"})
    if unknown:
        raise SerializationError(f"unknown scale spec keys: {unknown}")
    family, rho, a = obj.get("family"), obj.get("rho"), obj.get("a", 0.0)
    if not isinstance(family, str):
        raise SerializationError(f"scale family must be a string, got {family!r}")
    for key, value in (("rho", rho), ("a", a)):
        if not is_finite_number(value):
            raise SerializationError(f"scale {key!r} must be a finite number, got {value!r}")
    return _checked(ProximateOrder, family, float(rho), float(a))
