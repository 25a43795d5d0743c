"""CLI surface: exit codes, schemas, determinism."""

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from krdecomp import family_pair, FamilyConfig, Domain, measure_to_json, dirac
from krdecomp.cli import main

DOM2 = Domain.unit(2)


def write_measure(tmp_path, name, m):
    path = tmp_path / name
    path.write_text(measure_to_json(m) + "\n")
    return str(path)


def test_norm_dirac_kr(tmp_path, capsys):
    path = write_measure(tmp_path, "d.json", dirac(DOM2, (0.25, 0.75)))
    code = main(["norm", "--input", path, "--variant", "kr"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["value"] == pytest.approx(1.0, abs=1e-9)


def test_norm_empty_measure(tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"dim": 2, "lo": [0, 0], "hi": [1, 1], "atoms": []}))
    code = main(["norm", "--input", str(path), "--variant", "kr0"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["value"] == 0.0


def test_norm_truncated_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"dim": 2, "lo": [0, 0],')
    assert main(["norm", "--input", str(path)]) == 1
    assert "error" in capsys.readouterr().err


def test_norm_unbalanced_kr0_is_input_error(tmp_path, capsys):
    path = write_measure(tmp_path, "d.json", dirac(DOM2, (0.5, 0.5)))
    assert main(["norm", "--input", path, "--variant", "kr0"]) == 1
    capsys.readouterr()


def test_norm_csv_format(tmp_path, capsys):
    path = write_measure(tmp_path, "d.json", dirac(DOM2, (0.25, 0.75)))
    code = main(["norm", "--input", path, "--variant", "kr", "--format", "csv",
                 "--emit", "plan,potential"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("value,1")
    assert any(line.startswith("plan,bank,") for line in out.splitlines())


def test_decompose_verify_roundtrip(tmp_path, capsys):
    import random
    from conftest import random_measure

    m = random_measure(random.Random(8), DOM2, 5, balanced=True)
    mpath = write_measure(tmp_path, "m.json", m)
    dpath = str(tmp_path / "dec.json")
    assert main(["decompose", "--input", mpath, "--variant", "kr0",
                 "--tol", "1e-4", "--out", dpath]) == 0
    capsys.readouterr()
    assert main(["verify", "--input", mpath, "--dec", dpath]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["upper_ok"] is True


def test_decompose_l1_method(tmp_path, capsys):
    from krdecomp import delta_atom

    cfg = FamilyConfig(DOM2)
    m = delta_atom(5, cfg).measure
    mpath = write_measure(tmp_path, "atom.json", m)
    assert main(["decompose", "--input", mpath, "--variant", "kr0",
                 "--method", "l1", "--truncate", "8"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["method"] == "l1_minimal"
    assert doc["l1"] == pytest.approx(1.0, abs=1e-9)
    assert doc["ratio"] == pytest.approx(1.0, abs=1e-7)


def test_verify_mismatch_is_input_error(tmp_path, capsys):
    import random
    from conftest import random_measure

    rng = random.Random(9)
    m1 = random_measure(rng, DOM2, 5, balanced=True)
    m2 = random_measure(rng, DOM2, 5, balanced=True)
    p1 = write_measure(tmp_path, "m1.json", m1)
    p2 = write_measure(tmp_path, "m2.json", m2)
    dpath = str(tmp_path / "dec.json")
    main(["decompose", "--input", p1, "--variant", "kr0", "--tol", "1e-4",
          "--out", dpath])
    capsys.readouterr()
    assert main(["verify", "--input", p2, "--dec", dpath]) == 1


def test_verify_upper_violation_exits_two(tmp_path, capsys):
    import random
    from conftest import random_measure

    m = random_measure(random.Random(10), DOM2, 5, balanced=True)
    mpath = write_measure(tmp_path, "m.json", m)
    dpath = tmp_path / "dec.json"
    main(["decompose", "--input", mpath, "--variant", "kr0", "--tol", "1e-4",
          "--out", str(dpath)])
    capsys.readouterr()
    doc = json.loads(dpath.read_text())
    doc["l1"] = doc["l1"] / 100.0  # understate the coefficient sum
    dpath.write_text(json.dumps(doc))
    assert main(["verify", "--input", mpath, "--dec", str(dpath)]) == 2
    capsys.readouterr()


def test_family_dump_matches_pairs(tmp_path, capsys):
    assert main(["family", "dump", "--count", "3", "--box", "0:1"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    cfg = FamilyConfig(Domain.unit(1))
    assert len(rows) == 3
    for row, j in zip(rows, (1, 2, 3)):
        fields = row.split(",")
        pair = family_pair(j, cfg)
        assert int(fields[0]) == j
        assert float(fields[1]) == pair.x.coords[0]
        assert float(fields[2]) == pair.y.coords[0]
        assert math.isclose(float(fields[3]), pair.separation)


SHIFTED_BOX = "0.1:0.7,0.3:0.9"


def test_family_dump_stays_in_a_shifted_box(capsys):
    # on this box the corner (0.1, 0.9) used to round to (0.1, 0.9000000000000001)
    box = Domain((0.1, 0.3), (0.7, 0.9))
    assert main(["family", "dump", "--count", "500", "--box", SHIFTED_BOX]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert len(rows) == 500
    for row in rows:
        fields = [float(v) for v in row.split(",")[1:]]
        assert box.contains(fields[0:2]) and box.contains(fields[2:4])


@pytest.mark.parametrize("variant", ["kr0", "kr"])
def test_decompose_verify_with_an_atom_on_the_upper_corner(tmp_path, capsys, variant):
    from krdecomp import dipole

    m = dipole(Domain((0.1, 0.3), (0.7, 0.9)), (0.7, 0.9), (0.3, 0.45), 1.0)
    mpath = write_measure(tmp_path, "m.json", m)
    dpath = str(tmp_path / "dec.json")
    assert main(["decompose", "--input", mpath, "--variant", variant, "--out", dpath]) == 0
    assert main(["verify", "--input", mpath, "--dec", dpath, "--check-terms", "4"]) == 0
    capsys.readouterr()

def test_oracle_command(tmp_path, capsys):
    path = write_measure(tmp_path, "d.json", dirac(DOM2, (0.25, 0.75)))
    assert main(["oracle", "--input", path, "--variant", "kr", "--unit", "1.0"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(1.0)


def test_oracle_bad_unit_is_input_error(tmp_path, capsys):
    path = write_measure(tmp_path, "d.json", dirac(DOM2, (0.25, 0.75)).scaled(0.3))
    assert main(["oracle", "--input", path, "--variant", "kr", "--unit", "0.25"]) == 1
    capsys.readouterr()


def test_gen_balanced_and_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    args = ["gen", "--seed", "12", "--count", "3", "--size", "5", "--balanced",
            "--box", "0:1,0:1"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    capsys.readouterr()
    for i in range(3):
        name = f"measure_{i:04d}.json"
        b1 = (out1 / name).read_bytes()
        assert b1 == (out2 / name).read_bytes()
        doc = json.loads(b1)
        assert abs(math.fsum(a["weight"] for a in doc["atoms"])) <= 1e-15


def test_gen_output_accepted_by_norm(tmp_path, capsys):
    out = tmp_path / "gen"
    main(["gen", "--seed", "4", "--count", "20", "--size", "6", "--balanced",
          "--box", "0:1,0:1", "--out", str(out)])
    capsys.readouterr()
    for i in range(20):
        code = main(["norm", "--input", str(out / f"measure_{i:04d}.json"),
                     "--variant", "kr0"])
        assert code == 0
        capsys.readouterr()


@pytest.mark.parametrize(
    "atoms, index",
    [
        ('[{"point": [0.2], "weight": NaN}, {"point": [0.7], "weight": 1.0}]', 0),
        ('[{"point": [0.7], "weight": 1.0}, {"point": [0.2], "weight": Infinity}]', 1),
        ("[5]", 0),
    ],
    ids=["nan-weight", "infinite-weight", "non-object-atom"],
)
def test_norm_bad_atom_is_input_error(tmp_path, capsys, atoms, index):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 1, "lo": [0], "hi": [1], "atoms": %s}' % atoms)
    assert main(["norm", "--input", str(path), "--variant", "kr"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: atom #{index} ") and "Traceback" not in err


def _greedy_file(tmp_path, capsys, variant):
    import random
    from conftest import random_measure

    m = random_measure(random.Random(11), DOM2, 5, balanced=variant == "kr0")
    mpath = write_measure(tmp_path, "m.json", m)
    dpath = str(tmp_path / "dec.json")
    assert main(["decompose", "--input", mpath, "--variant", variant,
                 "--tol", "1e-4", "--out", dpath]) == 0
    capsys.readouterr()
    return mpath, dpath


@pytest.fixture
def norm_solves(monkeypatch):
    """Every kr0_norm / kr_norm call as (name, measure), wherever bound."""
    import sys

    import krdecomp.solver

    modules = [mod for name, mod in sys.modules.items() if name.startswith("krdecomp.")]
    calls = []
    for name in ("kr0_norm", "kr_norm"):
        original = getattr(krdecomp.solver, name)

        def counted(m, _original=original, _name=name):
            calls.append((_name, m))
            return _original(m)

        for mod in modules:
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.mark.parametrize("variant, solves", [("kr0", 2), ("kr", 2)])
def test_greedy_decompose_norm_solves(tmp_path, capsys, norm_solves, variant, solves):
    _greedy_file(tmp_path, capsys, variant)
    assert len(norm_solves) == solves
    assert len(set(norm_solves)) == solves  # no measure is solved twice


@pytest.mark.parametrize("variant", ["kr0", "kr"])
def test_l1_decompose_norm_solves(tmp_path, capsys, norm_solves, variant):
    from krdecomp import delta_atom

    mpath = write_measure(tmp_path, "atom.json", delta_atom(5, FamilyConfig(DOM2)).measure)
    assert main(["decompose", "--input", mpath, "--variant", variant,
                 "--method", "l1", "--truncate", "8"]) == 0
    capsys.readouterr()
    assert len(norm_solves) == len(set(norm_solves)) == 2


@pytest.mark.parametrize("variant", ["kr0", "kr"])
def test_verify_norm_solves(tmp_path, capsys, norm_solves, variant):
    mpath, dpath = _greedy_file(tmp_path, capsys, variant)
    norm_solves.clear()
    assert main(["verify", "--input", mpath, "--dec", dpath, "--check-terms", "3"]) == 0
    capsys.readouterr()
    assert len(norm_solves) == len(set(norm_solves)) == 2


def test_verify_accepts_pair_terms_and_offset_label(tmp_path, capsys):
    # kr0 files written before terms carried a point-mass slot
    mpath, dpath = _greedy_file(tmp_path, capsys, "kr0")
    dec = tmp_path / "dec.json"
    doc = json.loads(dec.read_text())
    doc["terms"] = [[j, a1] for j, a1, _ in doc["terms"]]
    doc["offset_label"] = "sqrt(2)-1"
    dec.write_text(json.dumps(doc))
    assert main(["verify", "--input", mpath, "--dec", dpath]) == 0
    assert json.loads(capsys.readouterr().out)["upper_ok"] is True


def test_verify_rejects_point_mass_in_kr0_file(tmp_path, capsys):
    mpath, dpath = _greedy_file(tmp_path, capsys, "kr0")
    dec = tmp_path / "dec.json"
    doc = json.loads(dec.read_text())
    doc["terms"][0][2] = 0.5
    dec.write_text(json.dumps(doc))
    assert main(["verify", "--input", mpath, "--dec", dpath]) == 1
    assert "term #0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["norm", "decompose", "verify"])
def test_solver_failure_exits_two(tmp_path, capsys, monkeypatch, command):
    import krdecomp.solver

    mpath, dpath = _greedy_file(tmp_path, capsys, "kr")
    argv = {
        "norm": ["norm", "--input", mpath, "--variant", "kr"],
        "decompose": ["decompose", "--input", mpath, "--variant", "kr"],
        "verify": ["verify", "--input", mpath, "--dec", dpath],
    }[command]
    real = krdecomp.solver._Highs
    solve_error = krdecomp.solver.HighsModelStatus.kSolveError  # status 4

    class Failing(real):
        def getModelStatus(self):
            return solve_error

    monkeypatch.setattr(krdecomp.solver, "_Highs", Failing)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: LP solve failed (status 4)")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "field, value",
    [("l1", None), ("l1", [1.0]), ("residual_norm", "x"), ("residual_norm", None),
     ("terms", 5), ("terms", {"0": [1, 0.5, 0.0]}), ("offset", None), ("offset", "x")],
)
def test_verify_malformed_field_is_input_error(tmp_path, capsys, field, value):
    mpath, dpath = _greedy_file(tmp_path, capsys, "kr")
    dec = tmp_path / "dec.json"
    doc = json.loads(dec.read_text())
    doc[field] = value
    dec.write_text(json.dumps(doc))
    assert main(["verify", "--input", mpath, "--dec", dpath]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"'{field}'" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "j", [2.5, 3.7, True, "2", "3", 0, -1],
    ids=["2.5", "3.7", "true", "str-2", "str-3", "0", "-1"],
)
def test_verify_non_integer_pair_index_is_input_error(tmp_path, capsys, j):
    # the file's term must name pair 3 exactly; nothing is rounded onto it
    from krdecomp import term_measure

    m = term_measure(3, 0.5, 0.0, FamilyConfig(DOM2))
    mpath = write_measure(tmp_path, "m.json", m)
    dpath = tmp_path / "dec.json"
    dpath.write_text(json.dumps({"variant": "kr", "terms": [[j, 0.5, 0.0]],
                                 "l1": 0.5, "residual_norm": 0.0}))
    assert main(["verify", "--input", mpath, "--dec", str(dpath)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: decomposition term #0 has pair index ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [["norm", "--variant", "kr0"], ["norm", "--variant", "kr"],
     ["decompose", "--variant", "kr0"], ["decompose", "--variant", "kr"], ["verify"]],
    ids=["norm-kr0", "norm-kr", "decompose-kr0", "decompose-kr", "verify"],
)
def test_measure_box_with_overflowing_diameter_is_input_error(tmp_path, capsys, argv):
    doc = {"dim": 1, "lo": [-1e308], "hi": [1e308],
           "atoms": [{"point": [0.0], "weight": 1.0}, {"point": [0.5], "weight": -1.0}]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    dpath = tmp_path / "dec.json"
    dpath.write_text(json.dumps({"variant": "kr", "terms": [], "l1": 0.0, "residual_norm": 0.0}))
    if argv == ["verify"]:
        argv = argv + ["--dec", str(dpath)]
    assert main(argv + ["--input", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: box ") and "diameter beyond the float range" in err
    assert len(err.splitlines()) == 1


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize("command", ["norm", "decompose", "verify", "family dump", "gen"])
def test_unwritable_out_is_input_error(tmp_path, capsys, command):
    mpath, dpath = _greedy_file(tmp_path, capsys, "kr")
    argv = {
        "norm": ["norm", "--input", mpath, "--variant", "kr"],
        "decompose": ["decompose", "--input", mpath, "--variant", "kr"],
        "verify": ["verify", "--input", mpath, "--dec", dpath],
        "family dump": ["family", "dump"],
        "gen": ["gen"],
    }[command]
    # gen's --out is a directory, and an existing file cannot become one
    out = mpath if command == "gen" else str(tmp_path / "missing" / "out.json")
    assert main(argv + ["--out", out]) == 1
    _one_error_line(capsys)


@pytest.mark.parametrize(
    "argv", [["decompose", "--offset", "1.5"], ["family", "dump", "--offset", "0"]]
)
def test_offset_out_of_range_is_input_error(tmp_path, capsys, argv):
    if argv[0] == "decompose":
        argv = argv + ["--input", write_measure(tmp_path, "d.json", dirac(DOM2, (0.5, 0.5)))]
    assert main(argv) == 1
    assert _one_error_line(capsys) == "error: offset must lie in (0, 1)\n"


@pytest.mark.parametrize("variant", ["kr0", "kr"])
@pytest.mark.parametrize(
    "option, value, name",
    [("--tol", "nan", "tol"), ("--min-depth", "-2", "min_depth"),
     ("--min-depth", "100000", "min_depth")],
)
def test_decompose_bad_option_is_input_error(tmp_path, capsys, variant, option, value, name):
    m = dirac(DOM2, (0.25, 0.75)) - dirac(DOM2, (0.5, 0.5))
    path = write_measure(tmp_path, "m.json", m)
    argv = ["decompose", "--input", path, "--variant", variant, option, value]
    assert main(argv) == 1
    assert name in _one_error_line(capsys)


@pytest.mark.parametrize("value", ["0", "-3"])
def test_decompose_l1_bad_truncate_is_input_error(tmp_path, capsys, value):
    path = write_measure(tmp_path, "m.json", dirac(DOM2, (0.0, 0.0)))
    argv = ["decompose", "--input", path, "--variant", "kr", "--method", "l1",
            f"--truncate={value}"]
    assert main(argv) == 1
    assert _one_error_line(capsys) == (
        f"error: truncation (--truncate) must be >= 1, not {value}\n"
    )


def test_decompose_l1_uncovered_support_names_pairs(tmp_path, capsys):
    path = write_measure(tmp_path, "m.json", dirac(DOM2, (0.123, 0.4)))
    argv = ["decompose", "--input", path, "--variant", "kr", "--method", "l1",
            "--truncate", "4"]
    assert main(argv) == 1
    err = _one_error_line(capsys)
    assert err.startswith("error: support points not covered by the first 4 pairs: ")
    assert "(0.123, 0.4)" in err


@pytest.mark.parametrize("value", ["0", "-2"])
def test_gen_bad_size_is_input_error(tmp_path, capsys, value):
    argv = ["gen", f"--size={value}", "--out", str(tmp_path / "g")]
    assert main(argv) == 1
    assert _one_error_line(capsys) == f"error: option --size must be >= 1, not {value}\n"
    assert not (tmp_path / "g").exists()


@pytest.mark.parametrize(
    "command, option, value",
    [("norm", "--tol", "nan"), ("norm", "--tol", "-1"), ("verify", "--tol", "nan"),
     ("verify", "--tol", "-0.5"), ("verify", "--check-terms", "-3"),
     ("verify", "--ratio-floor", "nan"), ("verify", "--ratio-floor", "-1")],
)
def test_norm_verify_bad_option_is_input_error(tmp_path, capsys, command, option, value):
    # rejected by name before any solve, not reported as a failed verification
    mpath, dpath = _greedy_file(tmp_path, capsys, "kr")
    # the --opt=value form, since argparse reads a leading "-" as an option
    argv = [command, "--input", mpath, f"{option}={value}"]
    if command == "verify":
        argv += ["--dec", dpath]
    assert main(argv) == 1
    assert _one_error_line(capsys).startswith(f"error: option {option} must be >= 0, not {value}")


@pytest.mark.parametrize("unit", ["nan", "inf", "0", "-0.5"])
def test_oracle_unit_not_finite_positive_is_input_error(tmp_path, capsys, unit):
    # at --unit inf every weight rounded to 0 units, and the oracle printed
    # 0 for a measure of norm 0.387
    assert main(["gen", "--seed", "3", "--size", "6", "--balanced", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    mpath = str(tmp_path / "measure_0000.json")
    assert main(["oracle", "--input", mpath, "--variant", "kr", "--unit", unit]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: unit (--unit) must be finite and > 0")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["family dump", "gen"])
def test_box_option_with_overflowing_diameter_is_input_error(tmp_path, capsys, command):
    # the --box= form, since argparse reads a leading '-' as an option
    argv = command.split() + ["--box=-1e308:1e308"]
    if command == "gen":
        argv += ["--out", str(tmp_path / "gen")]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: box ") and "diameter beyond the float range" in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "gen").exists()


def test_verify_non_object_file_is_input_error(tmp_path, capsys):
    mpath, dpath = _greedy_file(tmp_path, capsys, "kr")
    (tmp_path / "dec.json").write_text("5\n")
    assert main(["verify", "--input", mpath, "--dec", dpath]) == 1
    assert capsys.readouterr().err == "error: decomposition file must hold a JSON object\n"


@pytest.mark.parametrize(
    "field, value",
    [("atoms", 5), ("atoms", {"point": [0.5], "weight": 1.0}), ("lo", None), ("lo", 0),
     ("hi", "1"), ("hi", None)],
)
@pytest.mark.parametrize("command", ["norm", "decompose"])
def test_measure_non_list_field_is_input_error(tmp_path, capsys, command, field, value):
    doc = {"dim": 1, "lo": [0], "hi": [1], "atoms": [{"point": [0.5], "weight": 1.0}]}
    doc[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main([command, "--input", str(path), "--variant", "kr"]) == 1
    assert capsys.readouterr().err == f"error: field '{field}' must be a list\n"


@pytest.mark.parametrize("point", ["0", {"0.5": 7}, 0.5])
def test_measure_non_list_point_is_input_error(tmp_path, capsys, point):
    doc = {"dim": 1, "lo": [0], "hi": [1], "atoms": [{"point": point, "weight": 1.0}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["norm", "--input", str(path), "--variant", "kr"]) == 1
    assert capsys.readouterr().err == "error: atom #0 point must be a list\n"


@pytest.mark.parametrize("bound", [[None], ["a"], [10**400]])
def test_measure_non_numeric_bound_is_input_error(tmp_path, capsys, bound):
    doc = {"dim": 1, "lo": bound, "hi": [1], "atoms": []}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["norm", "--input", str(path)]) == 1
    assert capsys.readouterr().err == "error: fields 'lo'/'hi' must hold numbers\n"


@pytest.mark.parametrize(
    "atoms",
    [[(0.2, 1.5e308), (0.7, 1.5e308)], [(0.2, 1.5e308), (0.7, -1.5e308)],
     [(0.2, 1.5e308), (0.2, 1.5e308)]],
    ids=["one-sign", "two-signs", "one-point"],
)
@pytest.mark.parametrize("command", ["norm", "decompose"])
def test_measure_beyond_float_range_is_input_error(tmp_path, capsys, command, atoms):
    atoms = [{"point": [x], "weight": w} for x, w in atoms]
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"dim": 1, "lo": [0], "hi": [1], "atoms": atoms}))
    assert main([command, "--input", str(path), "--variant", "kr"]) == 1
    assert capsys.readouterr().err == (
        "error: total variation of the atoms exceeds the float range\n"
    )


def _stated_l1(tmp_path, capsys, value):
    mpath, dpath = _greedy_file(tmp_path, capsys, "kr")
    dec = tmp_path / "dec.json"
    doc = json.loads(dec.read_text())
    terms_l1 = math.fsum(abs(a1) + abs(a2) for _, a1, a2 in doc["terms"])
    doc["l1"] = value(terms_l1)
    dec.write_text(json.dumps(doc))
    return mpath, dpath, terms_l1


@pytest.mark.parametrize(
    "value",
    [lambda l1: math.nan, lambda l1: l1 * (1 - 1e-9), lambda l1: l1 * (1 + 1e-9),
     lambda l1: math.inf],
    ids=["nan", "understated", "overstated", "infinite"],
)
def test_verify_misstated_l1_exits_two(tmp_path, capsys, value):
    mpath, dpath, _ = _stated_l1(tmp_path, capsys, value)
    assert main(["verify", "--input", mpath, "--dec", dpath]) == 2
    out, err = capsys.readouterr()
    assert out == ""  # no report carries the file's figure
    assert err.startswith("error: field 'l1' states ") and len(err.splitlines()) == 1


def test_verify_l1_beyond_float_range_exits_two(tmp_path, capsys):
    # each coefficient and the measure are finite; only their l1 is not
    from krdecomp import term_measure

    m = term_measure(1, 1e308, 1e308, FamilyConfig(Domain((0.0,), (10.0,))))
    mpath = write_measure(tmp_path, "m.json", m)
    dpath = tmp_path / "dec.json"
    dpath.write_text(json.dumps({"variant": "kr", "terms": [[1, 1e308, 1e308]],
                                 "l1": 1e308, "residual_norm": 0.0}))
    assert main(["verify", "--input", mpath, "--dec", str(dpath)]) == 2
    assert capsys.readouterr().err.endswith("but the terms sum to inf\n")


def test_verify_reports_l1_summed_from_terms(tmp_path, capsys):
    # a stated l1 within 1e-12 relative of the terms' sum is accepted, and
    # the report carries the sum, not the file's figure
    mpath, dpath, terms_l1 = _stated_l1(tmp_path, capsys, lambda l1: math.nextafter(l1, 0))
    assert main(["verify", "--input", mpath, "--dec", dpath]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["l1"] == terms_l1
    assert report["ratio"] == report["norm"] / terms_l1


@pytest.mark.parametrize(
    "argv",
    [["norm"], ["norm", "--input", "m.json", "--tol", "abc"], [], ["frobnicate"],
     ["verify", "--input", "m.json"], ["decompose", "--input", "m.json", "--method", "x"]],
)
def test_usage_error_exits_one(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "error: " in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["norm", "--help"], ["verify", "-h"]])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=8,
)
_NUMBER = st.integers() | st.floats() | st.floats(0.0, 1.0)


@st.composite
def _measure_docs(draw):
    """Mostly well-formed measures on the unit box, any field of which may
    be replaced by arbitrary JSON; sometimes arbitrary JSON outright."""
    if draw(st.integers(0, 9)) == 0:
        return draw(_JSON)
    dim = draw(st.integers(1, 3))
    point = st.lists(st.floats(0.0, 1.0), min_size=dim, max_size=dim)
    atom = st.fixed_dictionaries({"point": point | _JSON, "weight": _NUMBER | _JSON})
    doc = {"dim": dim, "lo": [0] * dim, "hi": [1] * dim,
           "atoms": draw(st.lists(atom, max_size=4))}
    for field in draw(st.sets(st.sampled_from(["dim", "lo", "hi", "atoms"]), max_size=2)):
        if draw(st.booleans()):
            doc[field] = draw(_JSON)
        else:
            del doc[field]
    return doc


@st.composite
def _dec_docs(draw):
    """Decomposition files with terms over small or arbitrary pair indices,
    any field of which may be replaced by arbitrary JSON."""
    if draw(st.integers(0, 9)) == 0:
        return draw(_JSON)
    term = st.tuples(st.integers(1, 60) | st.integers(), _NUMBER, _NUMBER).map(list)
    doc = {"variant": draw(st.sampled_from(["kr0", "kr"])),
           "terms": draw(st.lists(term | _JSON, max_size=4)),
           "l1": draw(_NUMBER), "residual_norm": draw(_NUMBER)}
    if draw(st.booleans()):
        doc["offset"] = draw(_NUMBER)
    for field in draw(st.sets(st.sampled_from(sorted(doc)), max_size=1)):
        doc[field] = draw(_JSON)
    return doc


_FUZZ = settings(
    max_examples=150, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


@_FUZZ
@given(doc=_measure_docs(), variant=st.sampled_from(["kr0", "kr"]))
def test_norm_any_json_exits_zero_one_or_two(tmp_path, capsys, doc, variant):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    assert main(["norm", "--input", str(path), "--variant", variant]) in (0, 1, 2)
    capsys.readouterr()


@_FUZZ
@given(mdoc=_measure_docs(), ddoc=_dec_docs(), well_formed=st.booleans())
def test_verify_any_json_exits_zero_one_or_two(tmp_path, capsys, mdoc, ddoc, well_formed):
    if well_formed:  # a valid measure, so the decomposition file is reached
        mdoc = {"dim": 2, "lo": [0, 0], "hi": [1, 1],
                "atoms": [{"point": [0.25, 0.5], "weight": 0.5},
                          {"point": [0.75, 0.125], "weight": -0.25}]}
    mpath, dpath = tmp_path / "m.json", tmp_path / "dec.json"
    mpath.write_text(json.dumps(mdoc))
    dpath.write_text(json.dumps(ddoc))
    argv = ["verify", "--input", str(mpath), "--dec", str(dpath), "--check-terms", "2"]
    assert main(argv) in (0, 1, 2)
    capsys.readouterr()


@pytest.mark.parametrize(
    "emit, names", [("plan,potental", "'potental'"), ("value,plan,x", "'value', 'x'")]
)
def test_norm_unknown_emit_name_is_input_error(tmp_path, capsys, norm_solves, emit, names):
    path = write_measure(tmp_path, "d.json", dirac(DOM2, (0.25, 0.75)))
    assert main(["norm", "--input", path, "--variant", "kr", "--emit", emit]) == 1
    assert _one_error_line(capsys).startswith(f"error: option --emit names unknown {names},")
    assert norm_solves == []  # rejected before any solve


@pytest.mark.parametrize("command", ["gen", "family dump"])
def test_negative_count_is_input_error(tmp_path, capsys, command):
    out = tmp_path / "out"
    argv = command.split() + ["--count=-2", "--out", str(out)]
    assert main(argv) == 1
    assert _one_error_line(capsys) == "error: option --count must be >= 0, not -2\n"
    assert not out.exists()  # nothing written, not even gen's directory


def test_family_dump_of_no_pairs_prints_nothing(capsys):
    assert main(["family", "dump", "--count", "0"]) == 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("method", ["l1", "", None, 1])
def test_verify_unknown_method_is_input_error(tmp_path, capsys, method):
    mpath, dpath = _greedy_file(tmp_path, capsys, "kr0")
    dec = tmp_path / "dec.json"
    doc = json.loads(dec.read_text())
    doc["method"] = method
    dec.write_text(json.dumps(doc))
    assert main(["verify", "--input", mpath, "--dec", dpath, "--ratio-floor", "1.5"]) == 1
    assert "'method'" in _one_error_line(capsys)


def test_verify_rejects_kr0_term_with_four_entries(tmp_path, capsys):
    mpath, dpath = _greedy_file(tmp_path, capsys, "kr0")
    dec = tmp_path / "dec.json"
    doc = json.loads(dec.read_text())
    doc["terms"][1].append(7.0)
    dec.write_text(json.dumps(doc))
    assert main(["verify", "--input", mpath, "--dec", dpath]) == 1
    assert _one_error_line(capsys) == "error: decomposition term #1 is not [j, a1, a2]\n"


def test_verify_ratio_floor_fails_a_greedy_kr_record(tmp_path, capsys):
    mpath, dpath = _greedy_file(tmp_path, capsys, "kr")
    with open(dpath) as f:
        assert json.load(f)["ratio"] < 0.8  # point masses pay the full variation
    assert main(["verify", "--input", mpath, "--dec", dpath, "--ratio-floor", "0.9"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["upper_ok"] is True and report["ratio_floor_ok"] is False


def test_verify_greedy_kr0_record_meets_the_snap_floor(tmp_path, capsys):
    from krdecomp import kr0_norm, measure_from_json

    mpath, dpath = _greedy_file(tmp_path, capsys, "kr0")
    with open(mpath) as f:
        norm = kr0_norm(measure_from_json(f.read())).value
    floor = norm / (norm + 0.45 * 1e-4)  # l1 <= ||m|| + 0.45 * tol
    assert main(["verify", "--input", mpath, "--dec", dpath, "--ratio-floor", repr(floor)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["upper_ok"] is True and report["ratio_floor_ok"] is True
