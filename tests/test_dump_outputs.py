"""Smoke test of ``tools/dump_outputs.py --quick``, the output-identity dump.

The script is loaded by path, as it is not part of the package.
"""

import importlib.util
from pathlib import Path

from monogenic.verify import CHECK_NAMES

_PATH = Path(__file__).resolve().parent.parent / "tools" / "dump_outputs.py"
_SPEC = importlib.util.spec_from_file_location("dump_outputs", _PATH)
dump_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(dump_outputs)


def test_quick_dump_covers_every_section(capsys):
    assert dump_outputs.main(["--quick"]) == 0
    lines = capsys.readouterr().out.splitlines()
    checks = [line for line in lines if line.startswith("check n=2 corruption=None ")]
    assert len(checks) == 27
    for name in CHECK_NAMES:
        assert any(line.split(" ", 3)[3].startswith(f"('{name}', ") for line in checks), name
    assert not any(line.startswith("check n=3") for line in lines)
    for section in ("scale ", "weighted_norm_ln ", "max_modulus ", "k_q ", "fueter_sup_unit_ball ",
                    "op_class_check ", "tail_bound_profile ", "q,ln_Kq_lower,ln_Kq_upper"):
        assert any(line.startswith(section) for line in lines), section
    exits = [line for line in lines if line.startswith("cli ")]
    assert len(exits) == 9 and all(line.endswith("exit=0") for line in exits)
