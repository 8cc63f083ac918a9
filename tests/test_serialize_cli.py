import json
from fractions import Fraction

import pytest

from monogenic.clifford import CliffordNumber
from monogenic.errors import SerializationError
from monogenic.growth import ProximateOrder
from monogenic.operators import OperatorSymbol, op_to_hom
from monogenic.series import MonogenicSeries
from monogenic import serialize
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


def test_exact_mode_rejects_floats():
    obj = {
        "n": 2,
        "degree": 1,
        "mode": "exact",
        "coeffs": [{"m": [1, 0], "value": {"": 0.5}}],
    }
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
    assert serialize.obj_to_scale(serialize.scale_to_obj(po)) == po
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
    ],
)
def test_cli_verify_bad_config_exits_2(tmp_path, capsys, cfg):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(cfg))
    assert main(["verify", "--config", str(cfgp)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err



_SERIES = {"n": 2, "degree": 2, "mode": "float", "coeffs": [{"m": [1, 0], "value": {"": 1.0}}]}
_NORMS = {"n": 2, "kind": "log_norms", "entries": [{"m": [1, 0], "ln_norm": 0.0}]}


def _series_with(m):
    return {**_SERIES, "coeffs": [{"m": m, "value": {"": 1.0}}]}


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
        # non-finite scale parameters and a negative sample count
        (_NORMS, _growth("loglog:1:nan")),
        (_NORMS, _growth("constant:inf")),
        (_SERIES, ["--samples", "-3"] + _growth()),
        # hom tables: an index above the degree, a negative or a wrong-length
        # index, a negative degree
        (_hom(0, [0, 0], [3, 0]), ["hom2op", "IN", "--out", "OUT"]),
        (_hom(0, [0, 0], [-1, 1]), ["hom2op", "IN", "--out", "OUT"]),
        (_hom(0, [0, 0], [0, 0, 0]), ["hom2op", "IN", "--out", "OUT"]),
        (_hom(-1), ["hom2op", "IN", "--out", "OUT"]),
        # a constant scale given the parameter a, which it does not have
        (_NORMS, _growth("constant:1:5")),
    ],
)
def test_cli_bad_input_files_exit_2(tmp_path, capsys, obj, argv):
    paths = {"IN": tmp_path / "in.json", "OUT": tmp_path / "out"}
    paths["IN"].write_text(json.dumps(obj))
    assert main([str(paths.get(a, a)) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err
