"""Self-test of the benchmark itself (never of the package's speed).

    python3 -m pytest -q bench/test_bench.py

Checks the result schema and the format of BENCHMARK.json,
the tracer's self-time arithmetic on a toy nested call, that tracing leaves
no wrapper behind, and the quick mode of ``run.py``.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_has_the_expected_format():
    spec = load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["bench"]
    assert 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = []
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        names.append(m["name"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))


def test_schema_check_accepts_a_result_and_rejects_malformed_ones():
    good = {
        "correct": True,
        "attempted": 3,
        "failed": 0,
        "metrics": {"wall_s": {"value": 1.25, "unit": "s"}},
    }
    units = {"wall_s": "s"}
    assert run.check_schema(good, units) == []
    assert run.check_schema({**good, "extra": 1}, units)
    assert run.check_schema({**good, "attempted": 0}, units)
    assert run.check_schema({**good, "failed": True}, units)
    assert run.check_schema(good, {"wall_s": "s", "setup_s": "s"})
    bad_unit = {**good, "metrics": {"wall_s": {"value": 1.25, "unit": "ms"}}}
    assert run.check_schema(bad_unit, units)
    not_finite = {**good, "metrics": {"wall_s": {"value": float("nan"), "unit": "s"}}}
    assert run.check_schema(not_finite, units)


def test_times_are_scaled_by_the_probe_samples_taken_during_them():
    ref = run.REFERENCE_SAMPLE_S
    few = run.MIN_SAMPLES - 1
    rows = [
        # ran at half the reference speed, with samples of its own
        ["a", "slow", 2.0, True, run.MIN_SAMPLES, run.MIN_SAMPLES * 2 * ref],
        # too few samples of its own: takes the pass's mean speed
        ["b", "short", 0.5, True, few, few * ref],
    ]
    (slow, short), = run.at_reference_speed([rows])
    pass_speed = (run.MIN_SAMPLES * 2 + few) * ref / (run.MIN_SAMPLES + few)
    assert abs(slow[2] - 1.0) < 1e-12
    assert abs(short[2] - 0.5 * ref / pass_speed) < 1e-12
    assert run.at_reference_speed([[["c", "none", 3.0, True, 0, 0.0]]])[0][0][2] == 3.0


def test_self_time_of_a_toy_nested_call():
    now = [0.0]

    def clock():
        return now[0]

    def advance(dt):
        now[0] += dt

    t = tracing.Tracer(SimpleNamespace(), clock=clock)

    def leaf():
        advance(2.0)

    def middle():
        advance(1.0)
        leaf_t()
        advance(0.5)
        leaf_t()

    def outer():
        advance(3.0)
        middle_t()

    leaf_t = t.timed("leaf", leaf)
    middle_t = t.timed("middle", middle)
    outer_t = t.timed("outer", outer)
    t.request = 7
    outer_t()
    table = t.derive()[0]
    assert table["leaf"]["calls"] == 2 and table["leaf"]["self_s"] == 4.0
    assert table["middle"]["self_s"] == 1.5 and table["middle"]["total_s"] == 5.5
    assert table["outer"]["self_s"] == 3.0 and table["outer"]["total_s"] == 8.5
    assert list(t.span_request) == [7, 7, 7, 7]
    assert list(t.span_parent) == [-1, 0, 1, 1]


def test_recursive_spans_count_their_total_once():
    now = [0.0]
    t = tracing.Tracer(SimpleNamespace(), clock=lambda: now[0])

    def fact(k):
        now[0] += 1.0
        return 1 if k <= 1 else k * fact_t(k - 1)

    fact_t = t.timed("fact", fact)
    assert fact_t(3) == 6
    row = t.derive()[0]["fact"]
    assert row["calls"] == 3 and row["self_s"] == 3.0 and row["total_s"] == 3.0


def _package_bindings(M) -> dict:
    out = {}
    for short in vars(M):
        for attr, value in vars(getattr(M, short)).items():
            out[(short, attr)] = value
            if isinstance(value, type):
                for method, fn in vars(value).items():
                    out[(short, attr, method)] = fn
    return out


def test_tracer_restores_every_wrapped_function():
    M = workloads.import_package()
    before = _package_bindings(M)
    assert tracing.is_traced() == []
    t = tracing.Tracer(M)
    t.install()
    try:
        wrapped = tracing.is_traced()
        assert "series.series_eval" in wrapped and "growth.series_eval" in wrapped
        assert "monogenic.series_eval" in wrapped
        assert "fueter.FueterCache.value" in wrapped
        assert "clifford.CliffordNumber.__init__" in wrapped
        x = M.clifford.Paravector(0.5, [0.25, -0.5])
        f = M.series.MonogenicSeries.basis_element(2, (1, 1), exact=False)
        M.series.series_eval(f, x)
    finally:
        t.uninstall()
    assert tracing.is_traced() == []
    after = _package_bindings(M)
    assert all(after[key] is value for key, value in before.items())
    assert t.counts["clifford.CliffordNumber"] > 0
    assert t.derive()[0]["series.series_eval"]["calls"] == 1


def test_quick_mode_checks_schema_of_every_workload():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == {"quick": "ok", "problems": 0}


if __name__ == "__main__":
    import pytest

    sys.exit(pytest.main(["-q", __file__]))
