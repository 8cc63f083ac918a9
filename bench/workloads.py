"""Seeded inputs, request lists and correctness gates of the three workloads.

Every workload is a list of requests, sent one after the other by a single
client (a closed loop).  A request is a call into the package's public API or
its in-process CLI (``monogenic.cli.main(argv)``); its result is checked by a
gate that runs after the request's timed region.  The inputs are made here,
from the benchmark's seed, by the benchmark's own generator: the package only
receives them.

The package is looked up through its module attributes at call time (for
example ``M.series.series_eval``), so that the tracer in ``tracer.py`` sees
every call when it rebinds those attributes.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable

WORKLOADS = ("verify-suite", "exact-algebra", "float-eval")

PACKAGE_MODULES = (
    "clifford",
    "multiindex",
    "fueter",
    "sampling",
    "series",
    "growth",
    "operators",
    "serialize",
    "cli",
    "verify",
)

FLOAT_REL_TOL = 1e-12


def import_package() -> SimpleNamespace:
    """Import ``monogenic`` and return its modules by short name."""
    importlib.import_module("monogenic")
    return SimpleNamespace(
        **{name: importlib.import_module(f"monogenic.{name}") for name in PACKAGE_MODULES}
    )


# ---------------------------------------------------------------------------
# The benchmark's own input generator and oracles.  Plain data only: a
# Clifford value is {mask: Fraction}, a series is {multi-index: value}.
# ---------------------------------------------------------------------------


def indices_up_to(n: int, q_max: int) -> list[tuple[int, ...]]:
    """All multi-indices of length n with |m| <= q_max."""
    out: list[tuple[int, ...]] = [()]
    for _ in range(n):
        out = [m + (k,) for m in out for k in range(q_max + 1 - sum(m))]
    return sorted(out, key=lambda m: (sum(m), m))


def random_value(rng: random.Random, n: int, blades: int, span: int = 6) -> dict:
    """A Clifford value with exactly ``blades`` nonzero small dyadic-rational
    coefficients (each exact in binary64)."""
    return {
        mask: Fraction(rng.choice((-1, 1)) * rng.randint(1, span), rng.choice((1, 2, 4)))
        for mask in rng.sample(range(1 << n), blades)
    }


def random_series(rng: random.Random, n: int, degree: int, count: int, blades: int) -> dict:
    """``count`` nonzero coefficients at random indices of degree <= ``degree``.

    Sizes are fixed, not drawn, so that the work of a request is the same
    for every seed."""
    return {
        m: random_value(rng, n, blades)
        for m in rng.sample(indices_up_to(n, degree), count)
    }


def random_operator(rng: random.Random, n: int, order: int, entries: int, coeff_degree: int) -> dict:
    return {
        m: random_series(rng, n, coeff_degree, count=5, blades=1 << (n - 1))
        for m in rng.sample(indices_up_to(n, order), entries)
    }


def dyadic_sphere_point(rng: random.Random, n: int, radius: float, bits: int = 10) -> tuple:
    """A point of norm ~radius whose coordinates are exact binary64 dyadics."""
    g = [rng.gauss(0.0, 1.0) for _ in range(n + 1)]
    scale = radius / math.sqrt(sum(v * v for v in g))
    return tuple(Fraction(round(v * scale * (1 << bits)), 1 << bits) for v in g)


@functools.cache
def blade_mul(a: int, b: int) -> tuple[int, int]:
    """(sign, mask) of e_A e_B by sorting the unit word; e_i e_i = -1."""
    word = [i for i in range(a.bit_length()) if a >> i & 1]
    word += [i for i in range(b.bit_length()) if b >> i & 1]
    sign = 1
    for i in range(1, len(word)):
        j = i
        while j > 0 and word[j - 1] > word[j]:
            word[j - 1], word[j] = word[j], word[j - 1]
            sign = -sign
            j -= 1
    kept: list[int] = []
    for unit in word:
        if kept and kept[-1] == unit:
            kept.pop()
            sign = -sign
        else:
            kept.append(unit)
    return sign, sum(1 << unit for unit in kept)


def value_mul(a: dict, b: dict) -> dict:
    out: dict[int, Fraction] = {}
    for ma, va in a.items():
        for mb, vb in b.items():
            sign, mask = blade_mul(ma, mb)
            out[mask] = out.get(mask, 0) + sign * va * vb
    return {m: v for m, v in out.items() if v}


def convolve(f: dict, g: dict, q_out: int) -> dict:
    """Brute-force CK product: c_p = sum over m + k = p of a_m b_k."""
    out: dict[tuple, dict] = {}
    for m, a in f.items():
        for k, b in g.items():
            if sum(m) + sum(k) > q_out:
                continue
            p = tuple(x + y for x, y in zip(m, k))
            acc = out.setdefault(p, {})
            for mask, v in value_mul(a, b).items():
                acc[mask] = acc.get(mask, 0) + v
    return _drop_zeros(out)


def apply_operator(P: dict, f: dict, q_out: int) -> dict:
    """sum_m u_m (ck) d^m f, with (d^m f)_k = ((k+m)!/k!) a_{k+m}."""
    out: dict[tuple, dict] = {}
    for m, u in P.items():
        shifted = {}
        for k_plus_m, a in f.items():
            if all(x >= y for x, y in zip(k_plus_m, m)):
                k = tuple(x - y for x, y in zip(k_plus_m, m))
                factor = math.prod(math.perm(x, y) for x, y in zip(k_plus_m, m))
                shifted[k] = {mask: v * factor for mask, v in a.items()}
        for p, value in convolve(u, shifted, q_out).items():
            acc = out.setdefault(p, {})
            for mask, v in value.items():
                acc[mask] = acc.get(mask, 0) + v
    return _drop_zeros(out)


def _drop_zeros(series: dict) -> dict:
    out = {}
    for m, value in series.items():
        kept = {mask: v for mask, v in value.items() if v}
        if kept:
            out[m] = kept
    return out


def value_norm(value: dict) -> float:
    return math.sqrt(sum(v * v for v in value.values()))


# -- the package's documented JSON interchange format ------------------------


def _blade_str(mask: int) -> str:
    return "".join(str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1)


def _blade_mask(text: str) -> int:
    return sum(1 << (int(ch) - 1) for ch in text)


def series_doc(n: int, degree: int, series: dict, mode: str) -> dict:
    enc = str if mode == "exact" else float
    return {
        "n": n,
        "degree": degree,
        "mode": mode,
        "coeffs": [
            {"m": list(m), "value": {_blade_str(k): enc(v) for k, v in sorted(a.items())}}
            for m, a in sorted(series.items(), key=lambda item: (sum(item[0]), item[0]))
        ],
    }


def operator_doc(n: int, P: dict) -> dict:
    return {
        "n": n,
        "entries": [
            {"m": list(m), "u": series_doc(n, max(sum(k) for k in u), u, "exact")}
            for m, u in sorted(P.items(), key=lambda item: (sum(item[0]), item[0]))
        ],
    }


def parse_series(doc: dict) -> dict:
    return _drop_zeros(
        {
            tuple(item["m"]): {_blade_mask(k): Fraction(v) for k, v in item["value"].items()}
            for item in doc["coeffs"]
        }
    )


def parse_operator(doc: dict) -> dict:
    return {tuple(item["m"]): parse_series(item["u"]) for item in doc["entries"]}


def _write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------


@dataclass
class Request:
    kind: str
    label: str
    call: Callable[[], object]
    #: returns True when the output is correct; runs outside the timed region
    gate: Callable[[object], bool]


def _quiet_cli(M, argv: list[str]) -> Callable[[], int]:
    def call() -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return M.cli.main(argv)

    return call


def verify_requests(M, seed: int) -> tuple[list[Request], list[Request]]:
    """(timed requests, warm-up requests)."""
    VerifyConfig = M.verify.VerifyConfig

    def clean(n: int, name: str) -> Request:
        cfg = VerifyConfig(n=n, seed=seed, only=(name,))
        return Request(
            f"verify_n{n}",
            name,
            lambda: M.verify.run_all(cfg),
            lambda reps: bool(reps) and all(rep.passed for rep in reps),
        )

    def negative(n: int, corruption: str, target: str) -> Request:
        cfg = VerifyConfig(n=n, seed=seed, corruption=corruption, only=(target,))
        return Request(
            "negctl",
            f"{corruption}@n{n}",
            lambda: M.verify.run_all(cfg),
            lambda reps: any(rep.name == target and not rep.passed for rep in reps),
        )

    requests = [clean(n, name) for n in (2, 3) for name in M.verify.CHECK_NAMES]
    requests += [
        negative(n, c, t) for n in (2, 3) for c, t in M.verify.CORRUPTION_TARGETS.items()
    ]
    warm = [clean(2, "fueter-normalization"), negative(2, "shrunk-modulus", "cauchy-inequality")]
    return requests, warm


def exact_requests(M, seed: int, work: str) -> tuple[list[Request], list[Request]]:
    rng = random.Random(f"exact-algebra/{seed}")
    path = lambda name: os.path.join(work, name)
    requests: list[Request] = []
    memo: dict[str, dict] = {}

    def expect(key: str, make: Callable[[], dict]) -> dict:
        # inputs are fixed within a run, so each oracle is computed once
        if key not in memo:
            memo[key] = make()
        return memo[key]

    def ckprod(n: int, degree: int, q_out: int, count: int, i: int) -> Request:
        # about 70% of the indices, half of the blades of each coefficient
        f = random_series(rng, n, degree, count, blades=1 << (n - 1))
        g = random_series(rng, n, degree, count, blades=1 << (n - 1))
        fp, gp, out = path(f"f{n}_{i}.json"), path(f"g{n}_{i}.json"), path(f"fg{n}_{i}.json")
        _write_json(fp, series_doc(n, degree, f, "exact"))
        _write_json(gp, series_doc(n, degree, g, "exact"))
        argv = ["--mode", "exact", "ckprod", fp, gp, "--degree", str(q_out), "--out", out]
        key = f"ckprod{n}_{i}"
        return Request(
            "ckprod",
            key,
            _quiet_cli(M, argv),
            lambda code: code == 0
            and parse_series(_read_json(out)) == expect(key, lambda: convolve(f, g, q_out)),
        )

    requests += [ckprod(3, 6, 12, 59, i) for i in range(3)]
    requests += [ckprod(4, 4, 8, 49, i) for i in range(3)]

    n = 3
    P = random_operator(rng, n, order=4, entries=21, coeff_degree=2)
    f = random_series(rng, n, 8, count=116, blades=4)
    op_path, f_path = path("op.json"), path("f_apply.json")
    _write_json(op_path, operator_doc(n, P))
    _write_json(f_path, series_doc(n, 8, f, "exact"))
    applied = path("Pf.json")
    requests.append(
        Request(
            "apply",
            "apply",
            _quiet_cli(M, ["apply", op_path, f_path, "--degree", "8", "--out", applied]),
            lambda code: code == 0
            and parse_series(_read_json(applied)) == expect("apply", lambda: apply_operator(P, f, 8)),
        )
    )
    table, back = path("table.json"), path("op_back.json")
    requests.append(
        Request(
            "roundtrip",
            "op2hom",
            _quiet_cli(M, ["op2hom", op_path, "--degree", "5", "--out", table]),
            lambda code: code == 0 and os.path.getsize(table) > 0,
        )
    )
    requests.append(
        Request(
            "roundtrip",
            "hom2op",
            _quiet_cli(M, ["hom2op", table, "--out", back]),
            lambda code: code == 0 and parse_operator(_read_json(back)) == P,
        )
    )

    # warm-up: one small request of each kind on its own files
    wf, wg = path("warm_f.json"), path("warm_g.json")
    small = random.Random(f"exact-algebra/warm/{seed}")
    _write_json(wf, series_doc(2, 2, random_series(small, 2, 2, 4, 2), "exact"))
    _write_json(wg, series_doc(2, 2, random_series(small, 2, 2, 4, 2), "exact"))
    wop = path("warm_op.json")
    _write_json(wop, operator_doc(2, random_operator(small, 2, order=1, entries=2, coeff_degree=2)))
    ok = lambda code: code == 0
    warm = [
        Request("ckprod", "warm", _quiet_cli(M, ["ckprod", wf, wg, "--degree", "3", "--out", path("warm_fg.json")]), ok),
        Request("apply", "warm", _quiet_cli(M, ["apply", wop, wf, "--degree", "2", "--out", path("warm_pf.json")]), ok),
        Request("roundtrip", "warm", _quiet_cli(M, ["op2hom", wop, "--degree", "2", "--out", path("warm_t.json")]), ok),
        Request("roundtrip", "warm", _quiet_cli(M, ["hom2op", path("warm_t.json"), "--out", path("warm_back.json")]), ok),
    ]
    return requests, warm


def to_package_series(M, n: int, degree: int, series: dict, exact: bool):
    conv = (lambda v: v) if exact else float
    return M.series.MonogenicSeries(
        n,
        degree,
        {m: M.clifford.CliffordNumber(n, {k: conv(v) for k, v in a.items()}) for m, a in series.items()},
    )


def _close(value, exact_value: dict) -> bool:
    """Float Clifford value within FLOAT_REL_TOL (relative) of the exact one."""
    masks = set(value.coeffs) | set(exact_value)
    err_sq = sum((Fraction(value[k]) - exact_value.get(k, 0)) ** 2 for k in masks)
    ref_sq = sum(v * v for v in exact_value.values())
    return err_sq <= Fraction(FLOAT_REL_TOL) ** 2 * ref_sq


def float_requests(M, seed: int, work: str) -> tuple[list[Request], list[Request]]:
    n, degree, sigma, po_spec = 3, 8, 1.0, "loglog:1:1"
    rng = random.Random(f"float-eval/{seed}")
    data = random_series(rng, n, degree, count=120, blades=4)
    f = to_package_series(M, n, degree, data, exact=False)
    f_exact = to_package_series(M, n, degree, data, exact=True)
    Paravector = M.clifford.Paravector
    reference: dict[tuple, dict] = {}

    def exact_at(point: tuple) -> dict:
        # the exact-mode value at the same rational point, once per run
        if point not in reference:
            value = M.series.series_eval(f_exact, Paravector(point[0], point[1:]), exact=True)
            reference[point] = dict(value.coeffs)
        return reference[point]

    def evaluation(point: tuple) -> Request:
        x = Paravector(float(point[0]), [float(v) for v in point[1:]])
        return Request(
            "eval",
            "series_eval",
            lambda: M.series.series_eval(f, x),
            lambda value: _close(value, exact_at(point)),
        )

    degree_norms: dict[int, float] = {}
    for m, a in data.items():
        degree_norms[sum(m)] = degree_norms.get(sum(m), 0.0) + value_norm(a)

    def modulus(r: float) -> Request:
        axis = (Fraction(r),) + (Fraction(0),) * n
        bound = math.fsum(v * r**q for q, v in degree_norms.items())

        def gate(out) -> bool:
            lower, upper = out
            return (
                abs(upper - bound) <= FLOAT_REL_TOL * bound
                and lower <= upper * (1 + FLOAT_REL_TOL)
                # the axis point is always sampled, so it bounds the lower side
                and lower >= value_norm(exact_at(axis)) * (1 - FLOAT_REL_TOL)
            )

        return Request(
            "norm_bracket", f"max_modulus@{r}", lambda: M.series.max_modulus(f, r, samples=128), gate
        )

    po = M.growth.ProximateOrder.parse(po_spec)
    weighted = Request(
        "norm_bracket",
        "weighted_norm_ln",
        lambda: M.growth.weighted_norm_ln(f, po, sigma, samples=32),
        lambda out: all(math.isfinite(v) for v in out) and out[0] <= out[1] + 1e-9 * abs(out[1]),
    )

    series_path, csv_path = os.path.join(work, "f_float.json"), os.path.join(work, "growth.csv")
    _write_json(series_path, series_doc(n, degree, data, "float"))
    argv = ["growth", series_path, "--po", po_spec, "--window", "1:8", "--out", csv_path]

    def growth_gate(code) -> bool:
        if code != 0:
            return False
        with open(csv_path, encoding="utf-8") as fh:
            header, *rows = fh.read().split()
        if header.split(",")[:3] != ["q", "ln_Kq_lower", "ln_Kq_upper"]:
            return False
        seen = {}
        for row in rows:
            q, lo, hi = row.split(",")[:3]
            seen[int(q)] = (float(lo), float(hi))
        expected = sorted(q for q in degree_norms if 1 <= q <= degree)
        return sorted(seen) == expected and all(
            lo <= hi + 1e-12 and abs(hi - math.log(degree_norms[q])) <= FLOAT_REL_TOL * max(1.0, abs(hi))
            for q, (lo, hi) in seen.items()
        )

    growth = Request("growth_cli", "growth", _quiet_cli(M, argv), growth_gate)

    points = [dyadic_sphere_point(rng, n, 1.5) for _ in range(128)]
    requests = [evaluation(p) for p in points]
    requests += [modulus(r) for r in (0.5, 1.0, 2.0, 4.0)]
    requests += [weighted, growth]

    # warm-up: one small request of each kind on a degree-2 series
    small_data = random_series(rng, n, 2, count=7, blades=4)
    small = to_package_series(M, n, 2, small_data, exact=False)
    x = Paravector(1.5, [0.0] * n)
    small_path = os.path.join(work, "warm_float.json")
    _write_json(small_path, series_doc(n, 2, small_data, "float"))
    warm_argv = ["growth", small_path, "--po", po_spec, "--window", "1:2", "--out", csv_path]
    ok = lambda out: out is not None
    warm = [
        Request("eval", "warm", lambda: M.series.series_eval(small, x), ok),
        Request("norm_bracket", "warm", lambda: M.growth.weighted_norm_ln(small, po, sigma, samples=8), ok),
        Request("growth_cli", "warm", _quiet_cli(M, warm_argv), lambda code: code == 0),
    ]
    return requests, warm


def build(M, workload: str, seed: int, work: str) -> tuple[list[Request], list[Request]]:
    """The timed request list and the warm-up requests of one workload."""
    if workload == "verify-suite":
        return verify_requests(M, seed)
    if workload == "exact-algebra":
        return exact_requests(M, seed, work)
    if workload == "float-eval":
        return float_requests(M, seed, work)
    raise ValueError(f"unknown workload {workload!r}")
