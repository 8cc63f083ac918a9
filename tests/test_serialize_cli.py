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
from monogenic.growth import ProximateOrder
from monogenic.operators import HomTable, OperatorSymbol, op_to_hom
from monogenic.series import MonogenicSeries
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
    [("float", float("nan")), ("float", float("inf")), ("float", True), ("exact", True)],
)
def test_series_reader_rejects_non_finite_and_boolean_values(mode, value):
    obj = {"n": 2, "degree": 1, "mode": mode, "coeffs": [{"m": [1, 0], "value": {"": value}}]}
    with pytest.raises(SerializationError):
        serialize.obj_to_series(obj)


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


def test_scale_spec_round_trip():
    po = ProximateOrder("loglog", 1.5, -0.25)
    assert serialize.obj_to_scale(po.to_dict()) == po
    assert ProximateOrder.parse("logshift:1:0.5") == ProximateOrder("logshift", 1.0, 0.5)
    with pytest.raises(ValueError):
        ProximateOrder.parse("constant")


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
    monkeypatch.setattr(cli, "k_q", refuse)
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
        # a tolerance is not a config field; a constant scale takes no a
        {"tol": 1e-9},
        {"families": [{"family": "constant", "rho": 1, "a": 5}]},
        # a corruption or check name that is not a string
        {"corruption": []},
        {"only": [{}]},
        # scale parameters that are not JSON numbers, a family that is not a string
        {"families": [{"family": "loglog", "rho": "1"}]},
        {"families": [{"family": "loglog", "rho": 1, "a": True}]},
        {"families": [{"family": "loglog", "rho": True}]},
        {"families": [{"family": "logshift", "rho": 1, "a": "0.5"}]},
        {"families": [{"family": None, "rho": 1}]},
        {"families": [5]},
        # a scale spec with a key it does not read
        {"families": [{"family": "constant", "rho": 1, "b": 3}], "only": ["scaling-bound"]},
        # a corruption that cannot break its check in this dimension
        {"n": 1, "corruption": "ordered-words"},
    ],
)
def test_cli_verify_bad_config_exits_2(tmp_path, capsys, cfg):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(cfg))
    assert main(["verify", "--config", str(cfgp)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


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


def _hom(degree, *indices):
    return {"n": 2, "degree": degree, "entries": [{"p": p, "b": _SERIES} for p in indices]}


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
