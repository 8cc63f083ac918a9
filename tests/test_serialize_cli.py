import json
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import monogenic
from monogenic.clifford import CliffordNumber
from monogenic.errors import SerializationError
from monogenic.operators import HomTable, OperatorSymbol, hom_to_op, op_to_hom
from monogenic.series import MonogenicSeries, ck_mul_left
from monogenic import cli, serialize
from monogenic.cli import main
from monogenic.verify import random_rational_operator, random_rational_series


def test_blade_strings():
    assert serialize.blade_to_str(0, 3) == ""
    assert serialize.blade_to_str(0b101, 3) == "13"
    assert serialize.str_to_blade("13", 3) == 0b101
    with pytest.raises(SerializationError):
        serialize.str_to_blade("31", 3)  # digits must increase
    with pytest.raises(SerializationError):
        serialize.str_to_blade("4", 3)
    with pytest.raises(SerializationError):
        serialize.blade_to_str(0, 10)  # digit encoding caps the dimension


def test_series_round_trip_exact_bytes():
    f = random_rational_series(2, 4, 15)
    obj = serialize.series_to_obj(f)
    text = serialize.canonical_dumps(obj)
    back = serialize.obj_to_series(serialize.loads(text))
    assert back == f
    assert serialize.canonical_dumps(serialize.series_to_obj(back)) == text


def test_series_round_trip_float_17_digits():
    f = MonogenicSeries(
        2, 2, {(1, 1): CliffordNumber(2, {0b11: 0.1 + 0.2, 0: 1.0 / 3.0})}
    )
    text = serialize.canonical_dumps(serialize.series_to_obj(f))
    back = serialize.obj_to_series(serialize.loads(text))
    assert back.coeffs[(1, 1)][0b11] == 0.1 + 0.2
    assert back.coeffs[(1, 1)][0] == 1.0 / 3.0
    # the sign of zero, a subnormal, an integral float and the largest double
    # read back bit for bit
    values = (-0.0, 5e-324, 1e16, 1.7976931348623157e308)
    g = MonogenicSeries(2, 2, {(1, 1): CliffordNumber(2, dict(enumerate(values)))})
    text = serialize.canonical_dumps(serialize.series_to_obj(g))
    back = serialize.obj_to_series(serialize.loads(text))
    assert [float.hex(back.coeffs[(1, 1)][mask]) for mask in range(4)] == list(map(float.hex, values))


@pytest.mark.parametrize(
    "value", [float("nan"), float("inf"), -float("inf"), object(), np.float32(1)]
)
def test_canonical_dumps_rejects_what_json_cannot_hold(value):
    for doc in (value, {"n": 2, "coeffs": [{"value": {"": value}}]}):
        with pytest.raises(SerializationError) as info:
            serialize.canonical_dumps(doc)
        assert "\n" not in str(info.value)


def test_exact_mode_rejects_floats():
    obj = {
        "n": 2,
        "degree": 1,
        "mode": "exact",
        "coeffs": [{"m": [1, 0], "value": {"": 0.5}}],
    }
    with pytest.raises(SerializationError):
        serialize.obj_to_series(obj)


@pytest.mark.parametrize(
    "mode, value",
    [("float", float("nan")), ("float", float("inf")), ("float", True), ("exact", True), ("float", 10**400)],
)
def test_series_reader_rejects_non_finite_and_boolean_values(mode, value):
    """Each refusal is one line; 10**400 is what JSON gives for that integer
    literal, finite as an int but not as a float."""
    obj = {"n": 2, "degree": 1, "mode": mode, "coeffs": [{"m": [1, 0], "value": {"": value}}]}
    with pytest.raises(SerializationError) as err:
        serialize.obj_to_series(obj)
    assert "\n" not in str(err.value)


def test_coeffs_emitted_in_lexicographic_degree_order():
    f = random_rational_series(2, 4, 8)
    obj = serialize.series_to_obj(f)
    ms = [tuple(entry["m"]) for entry in obj["coeffs"]]
    assert ms == sorted(ms, key=lambda m: (sum(m), m))


def test_operator_and_homtable_round_trip():
    P = random_rational_operator(2, 4, 2, 3)
    obj = serialize.operator_to_obj(P)
    text = serialize.canonical_dumps(obj)
    assert serialize.obj_to_operator(serialize.loads(text)) == P
    H = op_to_hom(P, 3)
    hobj = serialize.homtable_to_obj(H)
    htext = serialize.canonical_dumps(hobj)
    assert serialize.obj_to_homtable(serialize.loads(htext)) == H


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _write_series(path, f, mode=None):
    serialize.write_file(str(path), serialize.series_to_obj(f, mode=mode))


def test_cli_eval_unit_and_basis(tmp_path, capsys):
    unit = MonogenicSeries.unit(2)
    path = tmp_path / "unit.json"
    _write_series(path, unit)
    # a float evaluation point makes the value float mode
    assert main(["eval", str(path), "--point", "0.4,-1.0,2.5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"": 1}

    f = MonogenicSeries.basis_element(2, (1, 0), exact=False)
    path2 = tmp_path / "v10.json"
    _write_series(path2, f)
    assert main(["eval", str(path2), "--point", "0,2,0"]) == 0
    # a float value carries only its nonzero blades: -x0 e1 is zero here
    assert json.loads(capsys.readouterr().out) == {"": 2.0}


def test_cli_eval_exact_point(tmp_path, capsys):
    f = MonogenicSeries.basis_element(2, (1, 0))
    path = tmp_path / "v10.json"
    _write_series(path, f)
    code = main(["--mode", "exact", "eval", str(path), "--point", "1/3,1/2,0"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    # value is x1 - x0 e1 = 1/2 - (1/3) e1, exactly
    assert out == {"": "1/2", "1": "-1/3"}


def test_cli_exact_point_beyond_the_float_range(tmp_path, capsys):
    """Exact point components are finite however large: no float conversion."""
    f = MonogenicSeries.basis_element(2, (1, 0))
    path = tmp_path / "v10.json"
    _write_series(path, f)
    assert main(["--mode", "exact", "eval", str(path), "--point", "1e400,0,0"]) == 0
    captured = capsys.readouterr()
    # x1 - x0 e1 at x0 = 10^400, x1 = 0
    assert json.loads(captured.out) == {"1": str(-(10**400))} and captured.err == ""


def test_cli_eval_beyond_float_range_is_one_line(tmp_path):
    """A value that overflows exits 2 with one stderr line and no numpy
    warning; run as a process, since warnings bypass capsys."""
    path = tmp_path / "f.json"
    _write_series(path, random_rational_series(2, 4, 5).to_float())
    src = os.path.dirname(os.path.dirname(monogenic.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = ["eval", str(path), "--point", "1e200,1e200,1"]
    done = subprocess.run(
        [sys.executable, "-m", "monogenic.cli", *argv], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.splitlines() == ["error: the value at point '1e200,1e200,1' is not finite in floats"]


def test_cli_eval_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "degree": ')
    assert main(["eval", str(bad), "--point", "0,0,0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_ckprod_matches_library(tmp_path):
    f = random_rational_series(2, 3, 1)
    g = random_rational_series(2, 3, 2)
    fp, gp, op = tmp_path / "f.json", tmp_path / "g.json", tmp_path / "fg.json"
    _write_series(fp, f)
    _write_series(gp, g)
    assert main(["ckprod", str(fp), str(gp), "--degree", "6", "--out", str(op)]) == 0
    from monogenic.series import ck_mul_left

    got = serialize.obj_to_series(serialize.read_file(str(op)))
    assert got == ck_mul_left(f, g, 6)
    # unit law through files
    up, oup = tmp_path / "unit.json", tmp_path / "fu.json"
    _write_series(up, MonogenicSeries.unit(2))
    assert main(["ckprod", str(fp), str(up), "--degree", "3", "--out", str(oup)]) == 0
    assert serialize.obj_to_series(serialize.read_file(str(oup))).coeffs == f.coeffs


def test_cli_ckprod_mixed_modes_rejected(tmp_path, capsys):
    f = random_rational_series(2, 3, 1)
    fp, gp = tmp_path / "f.json", tmp_path / "g.json"
    _write_series(fp, f)
    _write_series(gp, f.to_float())
    code = main(["ckprod", str(fp), str(gp), "--degree", "4", "--out", str(tmp_path / "x.json")])
    assert code == 2


def test_cli_diff(tmp_path):
    f = MonogenicSeries.basis_element(2, (2, 0))
    fp, op = tmp_path / "f.json", tmp_path / "df.json"
    _write_series(fp, f)
    assert main(["diff", str(fp), "--index", "1,0", "--out", str(op)]) == 0
    got = serialize.obj_to_series(serialize.read_file(str(op)))
    assert got.coeffs == {(1, 0): CliffordNumber.scalar(2, Fraction(2))}


def test_cli_growth_csv(tmp_path, capsys):
    from monogenic.growth import axis_log_norms

    norms = axis_log_norms(2, 1.0, 1.0, 1, 60)
    npath, rpath = tmp_path / "norms.json", tmp_path / "report.csv"
    serialize.write_file(str(npath), serialize.log_norms_to_obj(2, norms))
    code = main([
        "growth", str(npath), "--po", "constant:1", "--window", "20:60",
        "--sigma", "1.0", "--out", str(rpath),
    ])
    assert code == 0
    lines = rpath.read_text().strip().split("\n")
    assert lines[0] == "q,ln_Kq_lower,ln_Kq_upper,ln_Gq,kq_rhs,membership_value"
    assert len(lines) == 42
    assert all(line.split(",")[4] == line.split(",")[5] for line in lines[1:])
    assert "membership at sigma=1.0: True" in capsys.readouterr().out


@pytest.mark.parametrize(
    "ln_norm, po",
    [(1e308, "constant:1"), (1.0, "constant:800")],
    ids=["ln-norm-1e308", "rho-800"],
)
def test_cli_growth_type_beyond_the_float_range_is_inf(tmp_path, capsys, ln_norm, po):
    """A type whose log is beyond the float range reads inf, in the CSV and
    in the printed estimates."""
    npath, rpath = tmp_path / "norms.json", tmp_path / "report.csv"
    npath.write_text(json.dumps(_norms_with({"m": [1, 0], "ln_norm": ln_norm})))
    argv = ["growth", str(npath), "--po", po, "--window", "1:1", "--sigma", "1", "--out", str(rpath)]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert rpath.read_text().splitlines()[1].endswith(",inf,inf")
    assert "type estimate (coefficients): inf" in out
    assert "type estimate (unit-ball peaks): inf" in out
    assert "membership at sigma=1.0: False" in out


def test_cli_growth_converts_only_an_exact_document(tmp_path, capsys, monkeypatch):
    """A float series file is used as it is read: no coefficient is copied
    by ``to_float``.  Its report is the report of the same series read from
    an exact file, byte for byte."""
    f = random_rational_series(3, 5, 8)
    calls = []
    to_float = CliffordNumber.to_float
    monkeypatch.setattr(CliffordNumber, "to_float", lambda a: calls.append(a) or to_float(a))
    outputs = []
    for name, mode in (("exact", "exact"), ("float", "float")):
        fp, rp = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
        series = f if mode == "exact" else f.to_float()
        serialize.write_file(str(fp), serialize.series_to_obj(series, mode))
        calls.clear()
        argv = ["--samples", "16", "growth", str(fp), "--po", "loglog:1:1", "--window", "1:5", "--out", str(rp)]
        assert main(argv) == 0
        assert len(calls) == (len(f.coeffs) if mode == "exact" else 0)
        outputs.append((rp.read_bytes(), capsys.readouterr().out))
    assert outputs[0] == outputs[1]


def test_cli_growth_empty_window(tmp_path):
    f = random_rational_series(2, 3, 5)
    fp = tmp_path / "f.json"
    _write_series(fp, f)
    code = main([
        "growth", str(fp), "--po", "constant:1", "--window", "10:20",
        "--out", str(tmp_path / "r.csv"),
    ])
    assert code == 2


def test_cli_apply_identity(tmp_path):
    f = random_rational_series(2, 3, 4)
    P = OperatorSymbol.identity(2)
    fp, pp, op = tmp_path / "f.json", tmp_path / "P.json", tmp_path / "Pf.json"
    _write_series(fp, f)
    serialize.write_file(str(pp), serialize.operator_to_obj(P))
    assert main(["apply", str(pp), str(fp), "--degree", "3", "--out", str(op)]) == 0
    assert serialize.obj_to_series(serialize.read_file(str(op))).coeffs == f.coeffs


def test_cli_apply_dimension_mismatch(tmp_path):
    f = random_rational_series(3, 2, 4)
    fp, pp = tmp_path / "f.json", tmp_path / "P.json"
    _write_series(fp, f)
    serialize.write_file(str(pp), serialize.operator_to_obj(OperatorSymbol.identity(2)))
    code = main(["apply", str(pp), str(fp), "--degree", "2", "--out", str(tmp_path / "o.json")])
    assert code == 2


def test_cli_apply_mixed_modes_rejected(tmp_path, capsys):
    """A float operator on an exact series (or the other way round) is bad
    input, whatever --mode says; a zero side has no mode."""
    P = random_rational_operator(2, 3, 2, 11)
    f = random_rational_series(2, 3, 4)
    paths = {name: tmp_path / f"{name}.json" for name in ("P", "Pf", "f", "ff", "zero", "out")}
    serialize.write_file(str(paths["P"]), serialize.operator_to_obj(P))
    float_P = OperatorSymbol(2, {m: u.to_float() for m, u in P.entries.items()})
    serialize.write_file(str(paths["Pf"]), serialize.operator_to_obj(float_P))
    _write_series(paths["f"], f)
    _write_series(paths["ff"], f.to_float())
    _write_series(paths["zero"], MonogenicSeries(2, 3))
    out = str(paths["out"])
    for argv in (
        ["apply", str(paths["Pf"]), str(paths["f"])],
        ["--mode", "exact", "apply", str(paths["Pf"]), str(paths["f"])],
        ["apply", str(paths["P"]), str(paths["ff"])],
    ):
        assert main(argv + ["--degree", "4", "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: mixed exact/float") and err.count("\n") == 1
        assert not paths["out"].exists()
    assert main(["apply", str(paths["Pf"]), str(paths["zero"]), "--degree", "4", "--out", out]) == 0
    assert main(["apply", str(paths["Pf"]), str(paths["ff"]), "--degree", "4", "--out", out]) == 0
    assert serialize.read_file(out)["mode"] == "float"


def test_cli_failed_write_keeps_existing_out(tmp_path, capsys):
    """A product that overflows to inf is rejected before --out is opened."""
    big = tmp_path / "big.json"
    big.write_text(json.dumps(
        {"n": 2, "degree": 0, "mode": "float", "coeffs": [{"m": [0, 0], "value": {"": 1e200}}]}
    ))
    out = tmp_path / "o.json"
    out.write_bytes(b"previous contents\n")
    assert main(["ckprod", str(big), str(big), "--degree", "0", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: the CK product is not finite in floats at index [0, 0]\n"
    assert out.read_bytes() == b"previous contents\n"


def _float_series(n, degree, coeffs):
    return MonogenicSeries(n, degree, {m: CliffordNumber(n, value) for m, value in coeffs.items()})


@pytest.mark.parametrize(
    "command, message",
    [
        ("ckprod", "the CK product is not finite in floats at index [1, 0]"),
        ("apply", "the applied series is not finite in floats at index [1, 0]"),
        ("op2hom", "the table entry at p=[1, 0] is not finite in floats at index [1, 0]"),
        ("hom2op", "the operator coefficient at m=[1, 0] is not finite in floats at index [1, 0]"),
    ],
)
def test_cli_float_overflow_names_the_result(tmp_path, capsys, command, message):
    """Float products beyond the float range exit 2 with one line that names
    the result, and write nothing; a numpy warning would fail the test."""
    f = _float_series(2, 1, {(1, 0): {0: 1e300, 1: -1e300}, (0, 0): {0: 1.0}})
    g = _float_series(2, 1, {(0, 0): {0: 1e300, 1: 1e300}})
    big = _float_series(2, 1, {(0, 0): {0: 1.5e308}, (1, 0): {0: 1.5e308}})
    paths = {name: str(tmp_path / f"{name}.json") for name in ("f", "g", "P", "H", "out")}
    _write_series(paths["f"], f)
    _write_series(paths["g"], g)
    # two entries whose terms meet at p = (1, 0) of the t = (1, 0) table entry
    P = OperatorSymbol(2, {(0, 0): big.homogeneous_part(0), (1, 0): big.homogeneous_part(1)})
    serialize.write_file(paths["P"], serialize.operator_to_obj(P))
    H = HomTable(2, 1, {(0, 0): big.homogeneous_part(0), (1, 0): big.homogeneous_part(1).scale(-1.0),
                        (0, 1): MonogenicSeries(2, 1)})
    serialize.write_file(paths["H"], serialize.homtable_to_obj(H))
    argv = {
        "ckprod": ["ckprod", paths["f"], paths["g"], "--degree", "2"],
        "apply": ["apply", paths["P"], paths["f"], "--degree", "1"],
        "op2hom": ["op2hom", paths["P"], "--degree", "1"],
        "hom2op": ["hom2op", paths["H"]],
    }[command]
    assert main(argv + ["--out", paths["out"]]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not os.path.exists(paths["out"])


@pytest.mark.parametrize(
    "command, message",
    [
        ("apply", "the applied series is not finite in floats at index [30]"),
        ("diff", "the derivative is not finite in floats at index [30]"),
    ],
)
def test_cli_float_derivative_weight_overflow_exits_2(tmp_path, capsys, command, message):
    """A derivative weight 200!/30! beyond the float range rounds to inf, so
    ``apply`` and ``diff`` on a float series exit 2 with one line, not with
    a traceback."""
    paths = {name: str(tmp_path / f"{name}.json") for name in ("f", "P", "out")}
    _write_series(paths["f"], _float_series(1, 200, {(200,): {0: 1.0}}))
    P = OperatorSymbol(1, {(170,): MonogenicSeries.unit(1, exact=False)})
    serialize.write_file(paths["P"], serialize.operator_to_obj(P))
    argv = {
        "apply": ["apply", paths["P"], paths["f"], "--degree", "30"],
        "diff": ["diff", paths["f"], "--index", "170"],
    }[command]
    assert main(argv + ["--out", paths["out"]]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not os.path.exists(paths["out"])


@pytest.mark.parametrize("command", ["apply", "diff"])
@pytest.mark.parametrize(
    "value, index, order",
    [
        ({0: 1e300}, 20, 10),  # 1e300 * 20!/10! overflows
        ({0: 1.0, 1: 0.0}, 200, 170),  # 0.0 * inf, the weight 200!/30! rounded
    ],
)
def test_cli_float_weight_multiply_is_one_line(tmp_path, capsys, command, value, index, order):
    """A float value times its derivative weight beyond the float range, or
    0.0 times an inf weight, exits 2 with one stderr line: the multiply runs
    under the kernel's errstate, so no numpy warning (an error in this
    suite) leaks out."""
    paths = {name: str(tmp_path / f"{name}.json") for name in ("f", "P", "out")}
    _write_series(paths["f"], _float_series(1, index, {(index,): value}))
    P = OperatorSymbol(1, {(order,): MonogenicSeries.unit(1, exact=False)})
    serialize.write_file(paths["P"], serialize.operator_to_obj(P))
    argv, name = {
        "apply": (["apply", paths["P"], paths["f"], "--degree", str(index - order)], "the applied series"),
        "diff": (["diff", paths["f"], "--index", str(order)], "the derivative"),
    }[command]
    assert main(argv + ["--out", paths["out"]]) == 2
    assert capsys.readouterr().err == f"error: {name} is not finite in floats at index [{index - order}]\n"
    assert not os.path.exists(paths["out"])


def test_cli_ckprod_huge_degree_keeps_every_term(tmp_path):
    """A truncation degree far above |f| + |g| drops nothing and changes nothing."""
    f, g = random_rational_series(3, 3, 21), random_rational_series(3, 2, 22)
    fp, gp = tmp_path / "f.json", tmp_path / "g.json"
    _write_series(fp, f)
    _write_series(gp, g)
    outs = {}
    for degree in ("1000000000", "5"):
        outs[degree] = tmp_path / f"fg{degree}.json"
        assert main(["ckprod", str(fp), str(gp), "--degree", degree, "--out", str(outs[degree])]) == 0
    huge, exact = (serialize.read_file(str(path)) for path in outs.values())
    assert huge["degree"] == 1000000000 and huge["coeffs"] == exact["coeffs"] != []


@pytest.mark.parametrize("where", ["a directory", "in a missing directory", "empty"])
def test_cli_bad_out_fails_before_any_work(tmp_path, capsys, monkeypatch, where):
    """An --out that is empty, a directory or lies in a missing one exits 2
    with one line before the command's work starts."""

    def refuse(*args, **kwargs):
        raise AssertionError("the command's work ran")

    monkeypatch.setattr(cli, "run_all", refuse)
    monkeypatch.setattr(cli, "k_qs", refuse)
    fp = tmp_path / "f.json"
    _write_series(fp, random_rational_series(2, 3, 5).to_float())
    out = {
        "a directory": str(tmp_path),
        "in a missing directory": str(tmp_path / "missing" / "r.out"),
        "empty": "",
    }[where]
    growth = ["growth", str(fp), "--po", "constant:1", "--window", "1:3", "--out", out]
    for argv in (["verify", "--out", out], growth):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --out {out!r}") and err.count("\n") == 1


def test_cli_hom_op_file_round_trip(tmp_path):
    P = random_rational_operator(2, 3, 2, 11)
    pp = tmp_path / "P.json"
    hp = tmp_path / "H.json"
    p2 = tmp_path / "P2.json"
    h2 = tmp_path / "H2.json"
    serialize.write_file(str(pp), serialize.operator_to_obj(P))
    assert main(["op2hom", str(pp), "--degree", "3", "--out", str(hp)]) == 0
    assert main(["hom2op", str(hp), "--out", str(p2)]) == 0
    assert main(["op2hom", str(p2), "--degree", "3", "--out", str(h2)]) == 0
    # canonical files are byte-identical across the round trip
    assert hp.read_bytes() == h2.read_bytes()
    assert serialize.obj_to_operator(serialize.read_file(str(p2))) == P


def test_cli_verify_list(capsys):
    assert main(["verify", "--list"]) == 0
    names = capsys.readouterr().out.strip().split("\n")
    assert "cauchy-inequality" in names and len(names) >= 15


def test_cli_verify_subset_and_corruption(tmp_path, capsys):
    cfg = {"only": ["ck-product-oracle", "fueter-normalization"]}
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(cfg))
    out = tmp_path / "report.json"
    assert main(["verify", "--config", str(cfgp), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert all(item["passed"] for item in report)

    bad = {"only": ["ck-product-oracle"], "corruption": "dropped-convolution-term"}
    cfgp.write_text(json.dumps(bad))
    assert main(["verify", "--config", str(cfgp)]) == 1

    # a failing run with --out still writes its report: margin -inf as a string
    assert main(["verify", "--config", str(cfgp), "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert [(item["name"], item["margin"]) for item in report] == [("ck-product-oracle", "-inf")]

    # the constant family's round trip is exact, so its margin is +inf
    cfgp.write_text(json.dumps({"only": ["scale-inverse-roundtrip"]}))
    assert main(["verify", "--config", str(cfgp), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert all(item["passed"] for item in report)
    assert "inf" in [item["margin"] for item in report]


@pytest.mark.parametrize(
    "cfg",
    [
        {"no_such_key": 1},
        {"families": [{"family": "constant"}]},
        {"corruption": "no-such-corruption"},
        {"only": ["no-such-check"]},
        {"radii": 5},
        {"n": 0, "only": ["cauchy-inequality"]},
        {"n": "2", "only": ["cauchy-inequality"]},
        {"n": True, "only": ["cauchy-inequality"]},
        {"seed": 1.5},
        {"seed": -1, "only": ["fueter-monogenicity"]},
        {"sigma": -1, "only": ["derivative-bound"]},
        {"sigma": "1"},
        {"sigma_prime": 1.0},
        {"eta": -0.1},
        {"delta": -1},
        {"tol": -1e-9},
        {"constant_cap_ln": "40"},
        {"q_super": 0},
        {"q_max_vm": 2.5},
        {"q_max_deriv": -1},
        {"series_degree": 0},
        {"window_type": [5, 2]},
        {"window_type": [0, 2]},
        {"window_type": [1, 2, 3]},
        {"radii": []},
        {"radii": [1.0, -2.0]},
        {"radii": ["1"]},
        {"sigma": float("nan")},
        {"constant_cap_ln": float("inf")},
        {"radii": [1.0, float("inf")]},
        # neither a tolerance nor a scale family is a config field
        {"tol": 1e-9},
        {"families": [{"family": "constant", "rho": 1, "a": 5}]},
        # a corruption or check name that is not a string
        {"corruption": []},
        {"only": [{}]},
        # scale families, which the suite fixes, with any value
        {"families": [{"family": "loglog", "rho": "1"}]},
        {"families": [{"family": "loglog", "rho": 1, "a": True}]},
        {"families": [{"family": "loglog", "rho": True}]},
        {"families": [{"family": "logshift", "rho": 1, "a": "0.5"}]},
        {"families": [{"family": None, "rho": 1}]},
        {"families": [5]},
        # a scale family beside a valid subset
        {"families": [{"family": "constant", "rho": 1, "b": 3}], "only": ["scaling-bound"]},
        # a corruption that cannot break its check in this dimension
        {"n": 1, "corruption": "ordered-words"},
        # a dimension that no table fits, for one check and for all
        {"n": 10**18, "only": ["cauchy-inequality"]},
        {"n": 10**18},
        # a scalar where the list of check names belongs
        {"only": "cauchy-inequality"},
    ],
)
def test_cli_verify_bad_config_exits_2(tmp_path, capsys, cfg):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(cfg))
    assert main(["verify", "--config", str(cfgp)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "key, value",
    [
        ("sigma", 1.0),
        ("sigma_prime", 0.5),
        ("eta", 0.1),
        ("delta", 1.0),
        ("q_super", 50),
        ("q_max_vm", 30),
        ("q_max_deriv", 12),
        ("series_degree", 5),
        ("window_type", [200, 500]),
        ("radii", [0.5, 1.0, 2.0, 4.0]),
        ("families", [{"family": "constant", "rho": 1.0, "a": 0.0}]),
        ("constant_cap_ln", 40.0),
    ],
)
def test_cli_verify_suite_values_are_not_config_keys(tmp_path, capsys, key, value):
    """The weights, sizes and scale families are the suite's own: a config
    that sets one, even to the suite's value, exits 2 with one line that
    names the key."""
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({key: value, "only": ["cauchy-inequality"]}))
    assert main(["verify", "--config", str(cfgp)]) == 2
    assert capsys.readouterr().err == f"error: unknown verify config keys: [{key!r}]\n"


def test_cli_verify_reads_the_global_seed(tmp_path):
    """``--seed`` is the run's seed unless the config sets its own."""
    cfgp = tmp_path / "cfg.json"

    def report(seed, config):
        cfgp.write_text(json.dumps(config))
        out = tmp_path / "r.json"
        main(["--seed", str(seed), "verify", "--config", str(cfgp), "--out", str(out)])
        return out.read_text()

    only = {"only": ["cauchy-inequality", "ck-norm-bound", "operator-roundtrip"]}
    seeded = report(5, only)
    assert seeded == report(0, {**only, "seed": 5})
    assert seeded == report(9, {**only, "seed": 5})
    assert seeded != report(0, only)
    out = tmp_path / "r.json"
    assert main(["--seed", "5", "verify", "--out", str(out)]) == 0
    assert out.read_text() == report(0, {"seed": 5})


def test_cli_negative_seed_names_the_flag(tmp_path, capsys):
    assert main(["--seed", "-1", "verify", "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err == "error: --seed must be a non-negative integer, got -1\n"
    assert not (tmp_path / "r.json").exists()


_SERIES = {"n": 2, "degree": 2, "mode": "float", "coeffs": [{"m": [1, 0], "value": {"": 1.0}}]}
_NORMS = {"n": 2, "kind": "log_norms", "entries": [{"m": [1, 0], "ln_norm": 0.0}]}


def _series_with(m, value=1.0, mode="float"):
    return {**_SERIES, "mode": mode, "coeffs": [{"m": m, "value": {"": value}}]}


def _norms_with(entry):
    return {**_NORMS, "entries": [entry]}


def _growth(po="constant:1"):
    return ["growth", "IN", "--po", po, "--window", "1:2", "--out", "OUT"]


#: a dimension far beyond memory: no table of 2^n blades, and no index of
#: length n, can be formed
_HUGE = 10**18


def _huge(coeffs, **extra):
    return {"n": _HUGE, "degree": 2, "mode": "exact", "coeffs": coeffs, **extra}


def _hom(degree, *indices):
    return {"n": 2, "degree": degree, "entries": [{"p": p, "b": _SERIES} for p in indices]}


#: one file of each kind whose list names an index twice, the command that
#: reads it, and the error line
_REPEATED = [
    (
        {**_SERIES, "mode": "exact", "coeffs": [{"m": [0, 0], "value": {"": "1"}}, {"m": [0, 0], "value": {"": "2"}}]},
        ["--mode", "exact", "ckprod", "IN", "IN", "--degree", "2", "--out", "OUT"],
        "coefficient index [0, 0] is repeated",
    ),
    (
        {**_NORMS, "entries": [{"m": [1, 0], "ln_norm": 1.0}, {"m": [1, 0], "ln_norm": 50.0}]},
        _growth(),
        "norms index [1, 0] is repeated",
    ),
    (
        {"n": 2, "entries": [{"m": [1, 0], "u": _SERIES}, {"m": [0, 1], "u": _SERIES}, {"m": [1, 0], "u": _SERIES}]},
        ["op2hom", "IN", "--degree", "2", "--out", "OUT"],
        "operator index [1, 0] is repeated",
    ),
    (
        _hom(1, [0, 0], [1, 0], [0, 1], [0, 0]),
        ["hom2op", "IN", "--out", "OUT"],
        "hom table index [0, 0] is repeated",
    ),
]


@pytest.mark.parametrize(
    "obj, argv",
    [
        # operator files: an entry without "m", a negative index, entries not a list
        ({"n": 2, "entries": [{"u": _SERIES}]}, ["op2hom", "IN", "--degree", "2", "--out", "OUT"]),
        (
            {"n": 2, "entries": [{"m": [-1, 2], "u": _SERIES}]},
            ["op2hom", "IN", "--degree", "2", "--out", "OUT"],
        ),
        ({"n": 2, "entries": 5}, ["op2hom", "IN", "--degree", "2", "--out", "OUT"]),
        # a hom table entry without its value
        ({"n": 2, "degree": 0, "entries": [{"p": [0, 0]}]}, ["hom2op", "IN", "--out", "OUT"]),
        # log-norms files: no ln_norm, a non-finite or non-numeric one, bad indices
        (_norms_with({"m": [1, 0]}), _growth()),
        (_norms_with({"m": [1, 0], "ln_norm": "nan"}), _growth()),
        (_norms_with({"m": [1, 0], "ln_norm": "x"}), _growth()),
        (_norms_with({"m": [1, -1], "ln_norm": 0.0}), _growth()),
        (_norms_with({"m": [1], "ln_norm": 0.0}), _growth()),
        # series files: a negative, fractional or string index, a point or
        # derivative index that does not fit
        (_series_with([3, -1]), ["eval", "IN", "--point", "0.1,0.2,0.3"]),
        (_series_with([1.7, 0]), ["eval", "IN", "--point", "0.1,0.2,0.3"]),
        (_series_with("10"), ["eval", "IN", "--point", "0.1,0.2,0.3"]),
        (_SERIES, ["eval", "IN", "--point", "0,1"]),
        (_SERIES, ["diff", "IN", "--index=-1,1", "--out", "OUT"]),
        # non-finite scale parameters, a negative sample count or seed
        (_NORMS, _growth("loglog:1:nan")),
        (_NORMS, _growth("constant:inf")),
        (_SERIES, ["--samples", "-3"] + _growth()),
        (_SERIES, ["--seed", "-1"] + _growth()),
        # hom tables: an index above the degree, a negative or a wrong-length
        # index, a negative degree
        (_hom(0, [0, 0], [3, 0]), ["hom2op", "IN", "--out", "OUT"]),
        (_hom(0, [0, 0], [-1, 1]), ["hom2op", "IN", "--out", "OUT"]),
        (_hom(0, [0, 0], [0, 0, 0]), ["hom2op", "IN", "--out", "OUT"]),
        (_hom(-1), ["hom2op", "IN", "--out", "OUT"]),
        # a constant scale given the parameter a, which it does not have
        (_NORMS, _growth("constant:1:5")),
        # header fields that are not JSON integers
        ({**_SERIES, "n": True}, ["eval", "IN", "--point", "0.1,0.2"]),
        ({**_SERIES, "degree": 1.5}, ["eval", "IN", "--point", "0.1,0.2,0.3"]),
        ({**_SERIES, "n": "2"}, ["eval", "IN", "--point", "0.1,0.2,0.3"]),
        ({**_hom(0, [0, 0]), "degree": 0.0}, ["hom2op", "IN", "--out", "OUT"]),
        # coefficients: booleans in either mode, non-finite floats
        (_series_with([1, 0], True), ["eval", "IN", "--point", "0.1,0.2,0.3"]),
        (_series_with([1, 0], True, "exact"), ["eval", "IN", "--point", "0.1,0.2,0.3"]),
        (_series_with([1, 0], float("inf")), _growth()),
        (_series_with([1, 0], -float("inf")), _growth()),
        # log norms must be JSON numbers
        (_norms_with({"m": [1, 0], "ln_norm": "1.5"}), _growth()),
        (_norms_with({"m": [1, 0], "ln_norm": True}), _growth()),
        # a non-finite evaluation point or membership weight
        (_SERIES, ["eval", "IN", "--point", "0,1,nan"]),
        (_SERIES, _growth() + ["--sigma", "nan"]),
        (_SERIES, _growth() + ["--sigma", "0"]),
        # an exact value beyond the float range, which growth converts to float
        (_series_with([1, 0], "1e400", "exact"), _growth()),
        # arguments that do not parse: a point component, a one-component
        # point, a window without a colon, a multi-index entry
        (_SERIES, ["eval", "IN", "--point", "0,x,1"]),
        (_SERIES, ["eval", "IN", "--point", "0"]),
        (_SERIES, ["growth", "IN", "--po", "constant:1", "--window", "5", "--out", "OUT"]),
        (_SERIES, ["diff", "IN", "--index", "1,a", "--out", "OUT"]),
        # the same exact value evaluated in float mode, which is the default
        (_series_with([1, 0], "1e400", "exact"), ["eval", "IN", "--point", "0,1,2"]),
        # paths that are not readable or writable files: a directory as an
        # input, a config or an output, and a missing input
        (_SERIES, ["eval", "DIR", "--point", "0,1,2"]),
        (_SERIES, ["verify", "--config", "DIR"]),
        (_SERIES, ["diff", "IN", "--index", "1,0", "--out", "DIR"]),
        (_SERIES, ["growth", "IN", "--po", "constant:1", "--window", "1:2", "--out", "DIR"]),
        (_SERIES, ["eval", "MISSING", "--point", "0,1,2"]),
        # blade keys that are not ASCII blade names (an Arabic-Indic one once
        # named e1 too), and a blade of a dimension above 9
        ({**_SERIES, "coeffs": [{"m": [1, 0], "value": {"1": 2.0, "١": 3.0}}]}, ["eval", "IN", "--point", "0,1,2"]),
        ({**_SERIES, "coeffs": [{"m": [1, 0], "value": {"²": 3.0}}]}, ["eval", "IN", "--point", "0,1,2"]),
        (
            {"n": 10, "degree": 1, "mode": "exact", "coeffs": [{"m": [1] + [0] * 9, "value": {"1": "1"}}]},
            ["diff", "IN", "--index", ",".join(["0"] * 10), "--out", "OUT"],
        ),
        # an astronomically large dimension, through every command: a zero
        # value's index of the wrong length, a point or derivative index that
        # cannot fit, a growth window with no data, tables of every index
        (_huge([{"m": [1], "value": {}}]), ["ckprod", "IN", "IN", "--degree", "2", "--out", "OUT"]),
        (_huge([{"m": [1], "value": {}}]), ["eval", "IN", "--point", "0,1"]),
        (_huge([{"m": [1], "value": {}}]), ["diff", "IN", "--index", "1", "--out", "OUT"]),
        (_huge([{"m": [1], "value": {}}]), _growth()),
        (_huge([{"m": [1], "value": {}}], entries=[]), ["apply", "IN", "IN", "--degree", "2", "--out", "OUT"]),
        (_huge([]), ["eval", "IN", "--point", "0,1"]),
        (_huge([]), ["diff", "IN", "--index", "1", "--out", "OUT"]),
        (_huge([]), _growth()),
        (_huge([]), ["--samples", "8"] + _growth()),
        (_huge([]), ["--samples", "0"] + _growth() + ["--sigma", "1"]),
        ({"n": _HUGE, "entries": []}, ["op2hom", "IN", "--degree", "1", "--out", "OUT"]),
        ({"n": _HUGE, "entries": []}, ["op2hom", "IN", "--degree", "0", "--out", "OUT"]),
        ({"n": _HUGE, "degree": 0, "entries": []}, ["hom2op", "IN", "--out", "OUT"]),
        ({"n": _HUGE, "only": ["cauchy-inequality"]}, ["verify", "--config", "IN"]),
        # an index twice in one list, in each kind of file
        *[(obj, argv) for obj, argv, _ in _REPEATED],
        # a loglog scale whose cutover lies beyond the float range
        (_NORMS, _growth("loglog:1:1e308")),
    ],
)
def test_cli_bad_input_files_exit_2(tmp_path, capsys, obj, argv):
    paths = {
        "IN": tmp_path / "in.json",
        "OUT": tmp_path / "out",
        "DIR": tmp_path,
        "MISSING": tmp_path / "missing.json",
    }
    paths["IN"].write_text(json.dumps(obj))
    assert main([str(paths.get(a, a)) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("obj, argv, line", _REPEATED)
def test_cli_repeated_index_names_the_kind_and_the_index(tmp_path, capsys, obj, argv, line):
    """A repeated index is refused, not read with the last entry winning."""
    paths = {"IN": tmp_path / "in.json", "OUT": tmp_path / "out"}
    paths["IN"].write_text(json.dumps(obj))
    assert main([str(paths.get(a, a)) for a in argv]) == 2
    assert capsys.readouterr().err == f"error: {line}\n"
    assert not paths["OUT"].exists()


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("command", ["ckprod", "apply"])
def test_cli_zero_inputs_of_a_huge_dimension_give_the_zero_file(tmp_path, mode, command):
    """A product or application of zero inputs is the zero series, in any
    dimension: exit 0 and the file of the library's (exact) zero result."""
    path, out = tmp_path / "in.json", tmp_path / "out.json"
    path.write_text(json.dumps({**_huge([], mode=mode), "entries": []}))
    argv = [command, str(path), str(path), "--degree", "2", "--out", str(out)]
    assert main(argv) == 0
    want = serialize.canonical_dumps(serialize.series_to_obj(MonogenicSeries(_HUGE, 2)))
    assert out.read_text() == want


def test_cli_writes_each_mode_as_the_scanning_writers_do(tmp_path):
    """Every command scans its inputs' modes once and passes them on; its
    files equal those of the writers that scan the results themselves,
    including a float operator whose entries reach no table entry: its
    table is all zero, and written in exact mode."""
    far = {(3, 0): MonogenicSeries(2, 0, {(0, 0): CliffordNumber(2, {0: 1.5})})}
    near = random_rational_operator(2, 2, 1, 3)
    cases = [("far", OperatorSymbol(2, far)), ("exact", near)]
    cases.append(("float", OperatorSymbol(2, {m: u.to_float() for m, u in near.entries.items()})))
    for name, P in cases:
        op, table, back = (tmp_path / f"{name}_{k}.json" for k in ("op", "table", "back"))
        serialize.write_file(str(op), serialize.operator_to_obj(P))
        assert main(["op2hom", str(op), "--degree", "2", "--out", str(table)]) == 0
        H = op_to_hom(P, 2)
        assert table.read_text() == serialize.canonical_dumps(serialize.homtable_to_obj(H))
        assert main(["hom2op", str(table), "--out", str(back)]) == 0
        want = serialize.operator_to_obj(hom_to_op(serialize.obj_to_homtable(serialize.read_file(str(table)))))
        assert back.read_text() == serialize.canonical_dumps(want)
        if name == "far":
            assert {b["mode"] for b in (e["b"] for e in json.loads(table.read_text())["entries"])} == {"exact"}
    f, g = random_rational_series(2, 3, 1), random_rational_series(2, 3, 2)
    for series in ((f, g), (f.to_float(), g.to_float()), (MonogenicSeries(2, 3), g.to_float())):
        paths = [tmp_path / "f.json", tmp_path / "g.json", tmp_path / "fg.json"]
        for path, h in zip(paths, series):
            _write_series(path, h)
        assert main(["ckprod", str(paths[0]), str(paths[1]), "--degree", "4", "--out", str(paths[2])]) == 0
        want = serialize.series_to_obj(ck_mul_left(*series, 4), mode=series[0].mode())
        assert paths[2].read_text() == serialize.canonical_dumps(want)


def test_cli_scans_each_input_mode_once(tmp_path, monkeypatch):
    """``ckprod`` asks each coefficient of each exact input for its mode
    once, ``op2hom`` each coefficient of the operator once and ``hom2op``
    each coefficient of the table once."""
    f, g = random_rational_series(2, 3, 1), random_rational_series(2, 3, 2)
    paths = [tmp_path / "f.json", tmp_path / "g.json"]
    for path, h in zip(paths, (f, g)):
        _write_series(path, h)
    op = tmp_path / "op.json"
    P = random_rational_operator(2, 2, 1, 3)
    serialize.write_file(str(op), serialize.operator_to_obj(P))
    calls = []
    is_exact = CliffordNumber.is_exact
    monkeypatch.setattr(CliffordNumber, "is_exact", lambda a: calls.append(a) or is_exact(a))
    argv = ["--mode", "exact", "ckprod", str(paths[0]), str(paths[1]), "--degree", "4", "--out", str(tmp_path / "o")]
    assert main(argv) == 0
    assert len(calls) == len(f.coeffs) + len(g.coeffs)
    calls.clear()
    assert main(["op2hom", str(op), "--degree", "2", "--out", str(tmp_path / "t")]) == 0
    assert len(calls) == sum(len(u.coeffs) for u in P.entries.values())
    calls.clear()
    assert main(["hom2op", str(tmp_path / "t"), "--out", str(tmp_path / "back")]) == 0
    assert len(calls) == sum(len(b.coeffs) for b in op_to_hom(P, 2).entries.values())


def test_cli_parser_reuse_leaks_no_state(tmp_path, capsys):
    """Calls made one after another in one process (so with one parser) give
    the exit code, the output and the files of the same call made alone."""
    f, g = tmp_path / "f.json", tmp_path / "g.json"
    _write_series(f, random_rational_series(2, 3, 1))
    _write_series(g, random_rational_series(2, 3, 2))
    op = tmp_path / "op.json"
    serialize.write_file(str(op), serialize.operator_to_obj(random_rational_operator(2, 2, 1, 3)))
    calls = [
        ["--seed", "-1", "verify", "--list"],
        ["ckprod", str(f), "--degree", "2"],  # argparse usage error
        ["--mode", "exact", "ckprod", str(f), str(g), "--degree", "5", "--out", "OUT"],
        ["op2hom", str(op), "--degree", "3", "--out", "OUT"],
        ["--seed", "5", "--samples", "16", "growth", str(f), "--po", "loglog:1:0.5", "--window", "1:3"]
        + ["--sigma", "2", "--out", "OUT"],
        # the flags the calls above set, left to their defaults
        ["growth", str(f), "--po", "constant:1", "--window", "1:3", "--out", "OUT"],
        ["ckprod", str(f), str(g), "--degree", "2", "--out", "OUT"],
        ["--mode", "float", "ckprod", str(f), str(g), "--degree", "2", "--out", "OUT"],
    ]

    def run(argv, out):
        try:
            code = main([str(out) if a == "OUT" else a for a in argv])
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        std = capsys.readouterr()
        return code, std.out, std.err, out.read_bytes() if out.exists() else None

    together = [run(argv, tmp_path / f"together{i}") for i, argv in enumerate(calls)]
    alone = []
    for i, argv in enumerate(calls):
        cli.build_parser.cache_clear()
        alone.append(run(argv, tmp_path / f"alone{i}"))
    assert [r[0] for r in together] == [2, ("SystemExit", 2), 0, 0, 0, 0, 0, 2]
    assert together == alone


def test_refusals_of_the_interchange_format_are_one_line():
    """An unknown mode in ``series_to_obj`` and a norms file of dimension 0
    each raise one ``SerializationError`` line."""
    with pytest.raises(SerializationError, match=r"^unknown mode 'fraction'$"):
        serialize.series_to_obj(MonogenicSeries.unit(2), "fraction")
    with pytest.raises(SerializationError, match=r"^dimension must be >= 1, got 0$"):
        serialize.obj_to_log_norms({"n": 0, "kind": "log_norms", "entries": []})


def test_cli_eval_overflow_in_process_is_one_line(tmp_path, capsys):
    """``eval`` whose float value overflows exits 2 with one stderr line and
    prints nothing: 1e308 x1 at x1 = 10."""
    path = tmp_path / "big.json"
    _write_series(path, MonogenicSeries(2, 1, {(1, 0): CliffordNumber.scalar(2, 1e308)}))
    assert main(["eval", str(path), "--point", "0,10,0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: the value at point '0,10,0' is not finite in floats\n"
