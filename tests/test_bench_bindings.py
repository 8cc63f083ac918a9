"""The benchmark's fast self-tests, run against the current package.

``bench/tracer.py`` rebinds package functions by module and name, so a
renamed function or a dropped import breaks the benchmark without failing
any other test here.  This module loads ``bench/test_bench.py`` by path and
runs its tracer and ``BENCHMARK.json`` format tests (about 2 s); the slow
``--quick`` subprocess run stays in ``bench/test_bench.py`` only.
"""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "bench" / "test_bench.py"
_SPEC = importlib.util.spec_from_file_location("bench_self_test", _PATH)
bench_self_test = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_self_test)

FAST = (
    "test_benchmark_json_has_the_expected_format",
    "test_schema_check_accepts_a_result_and_rejects_malformed_ones",
    "test_times_are_scaled_by_the_probe_samples_taken_during_them",
    "test_self_time_of_a_toy_nested_call",
    "test_recursive_spans_count_their_total_once",
    "test_tracer_restores_every_wrapped_function",
)


@pytest.mark.parametrize("name", FAST)
def test_bench_self_test(name):
    getattr(bench_self_test, name)()
