"""``tools/dump_outputs.py --quick``, the output-identity dump, against the
reference copy in ``tests/data/dump_quick.txt``.

The script is loaded by path, as it is not part of the package.  Its dump is
made once and shared by both tests.

The comparison is line by line.  Everything but the floats must match
exactly: names, instance strings, flags, integers and exit codes.  A float
matches within ``REL_TOL`` of the reference value, or within ``ABS_FLOOR``
near zero.  The floor covers the values that are rounding noise, such as
central-difference Dirac residuals near 1e-9 and round-trip errors near
1e-14; these can move with the CPU's ``exp`` and BLAS kernels.  A change
that alters outputs on purpose regenerates the reference file

    PYTHONPATH=src python tools/dump_outputs.py --quick > tests/data/dump_quick.txt

and lists the changed lines and the reason in CHANGES.md.  The tolerances
are never widened to let a change through.
"""

import contextlib
import importlib.util
import io
import math
import re
from pathlib import Path

import pytest

from monogenic.verify import CHECK_NAMES, CORRUPTION_TARGETS

_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("dump_outputs", _ROOT / "tools" / "dump_outputs.py")
dump_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(dump_outputs)

REFERENCE = _ROOT / "tests" / "data" / "dump_quick.txt"
REL_TOL = 1e-9
ABS_FLOOR = 1e-9

#: a number that is not part of a word: an integer, a decimal or exponent
#: float, inf or nan
_NUMBER = re.compile(r"(?<![\w.])([-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|inf|nan))(?![\w.])")
_INTEGER = re.compile(r"[-+]?\d+")


@pytest.fixture(scope="module")
def quick_dump():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert dump_outputs.main(["--quick"]) == 0
    return out.getvalue().splitlines()


def test_quick_dump_covers_every_section(quick_dump):
    lines = quick_dump
    checks = [line for line in lines if line.startswith("check n=2 corruption=None ")]
    assert len(checks) == 27
    for name in CHECK_NAMES:
        assert any(line.split(" ", 3)[3].startswith(f"('{name}', ") for line in checks), name
    # under each corruption, the reports of its target check and nothing else
    corrupted = [line for line in lines if line.startswith("check n=2 corruption=")]
    corrupted = [line.split(" ", 3)[2:] for line in corrupted if line not in checks]
    assert len(corrupted) == 23
    for corruption, target in CORRUPTION_TARGETS.items():
        got = {rest.split("'", 2)[1] for cor, rest in corrupted if cor == f"corruption={corruption}"}
        assert got == {target}, corruption
    assert not any(line.startswith("check n=3") for line in lines)
    for section in ("scale ", "weighted_norm_ln ", "max_modulus ", "k_q ", "fueter_sup_unit_ball ",
                    "op_class_check ", "tail_bound_profile ", "q,ln_Kq_lower,ln_Kq_upper"):
        assert any(line.startswith(section) for line in lines), section
    exits = [line for line in lines if line.startswith("cli ")]
    assert len(exits) == 14 and all(line.endswith("exit=0") for line in exits)


def line_excess(got: str, want: str) -> float:
    """How far a dump line is from its reference: inf when anything but a
    float differs, else the largest float error over its allowed error (at
    most 1 when the line matches)."""
    got_parts, want_parts = _NUMBER.split(got), _NUMBER.split(want)
    if len(got_parts) != len(want_parts) or got_parts[::2] != want_parts[::2]:
        return math.inf
    worst = 0.0
    for a, b in zip(got_parts[1::2], want_parts[1::2]):
        if _INTEGER.fullmatch(a) and _INTEGER.fullmatch(b):
            if int(a) != int(b):
                return math.inf
            continue
        x, y = float(a), float(b)
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        if not (math.isfinite(x) and math.isfinite(y)):
            return math.inf
        worst = max(worst, abs(x - y) / max(REL_TOL * abs(y), ABS_FLOOR))
    return worst


def test_line_excess_rules():
    assert line_excess("k_q 0 3 (1.5, 2.0)", "k_q 0 3 (1.5, 2.0)") == 0.0
    assert line_excess("x 1.0000000001 y", "x 1.0 y") <= 1.0
    assert line_excess("x 1.00001 y", "x 1.0 y") > 1.0
    assert line_excess("x 3e-10 y", "x 0.0 y") <= 1.0
    assert line_excess("cli ckprod exit=2", "cli ckprod exit=0") == math.inf
    assert line_excess("('a', True)", "('a', False)") == math.inf
    assert line_excess("np.float64(0.5) 7", "np.float64(0.5) 8") == math.inf
    assert line_excess("[1.0, inf]", "[1.0, 2.0]") == math.inf
    assert line_excess("[1.0]", "[1.0, 2.0]") == math.inf
    # an integral float written without a decimal point is still a float
    assert line_excess('{"":8.9999999999999982}', '{"":9}') <= 1.0


def test_quick_dump_matches_reference(quick_dump):
    want = REFERENCE.read_text(encoding="utf-8").splitlines()
    assert len(quick_dump) == len(want), f"{len(quick_dump)} lines, reference has {len(want)}"
    excess = [line_excess(got, ref) for got, ref in zip(quick_dump, want)]
    worst = max(range(len(want)), key=excess.__getitem__)
    assert excess[worst] <= 1.0, (
        f"worst line {worst + 1} (error {excess[worst]:.3g} x allowed):\n"
        f"  got:       {quick_dump[worst][:400]}\n  reference: {want[worst][:400]}"
    )
