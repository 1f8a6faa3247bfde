import gc
import json
import pathlib
import tracemalloc

import pytest

from chernflat.acs import AlmostComplexStructure
from chernflat.cli import main
from chernflat.constructions import catalog
from chernflat.fileio import dumps_model, loads_model
from chernflat.linalg import ExactMatrix, inverse


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_passing_model(capsys):
    code, out, err = run(capsys, "verify", "@iwasawa_j3")
    assert code == 0
    table = {line.split()[0]: line.split()[-1] for line in out.strip().splitlines()}
    assert table["chern-flat"] == "true"
    assert table["qk-chern-flat"] == "true"
    assert table["quasi-kaehler"] == "true"
    assert table["verdict"] == "true"
    assert err == ""


def test_verify_failing_model(capsys):
    code, out, err = run(capsys, "verify", "@complex_heisenberg_bicomplex")
    assert code == 1
    assert "qk-chern-flat-witness" in out
    assert "verdict" in out


def test_verify_witness_rows_are_one_based(capsys, tmp_path):
    code, out, _ = run(capsys, "verify", "@complex_heisenberg_bicomplex")
    assert code == 1
    table = dict(line.split(None, 1) for line in out.strip().splitlines())
    # the library witness is ("holomorphic-component", 0, 1): [Z_1, Z_2]
    assert table["qk-chern-flat-witness"] == "('holomorphic-component', 1, 2)"
    # J sheared by P = I + E_12 fails Chern-flatness at the 0-based pair (1, 1)
    entry = catalog("iwasawa_j3")
    n = entry.algebra.dim
    p = ExactMatrix([[1 if (r, c) in ((r, r), (0, 1)) else 0 for c in range(n)] for r in range(n)])
    path = tmp_path / "sheared.json"
    path.write_text(dumps_model(entry.algebra, AlmostComplexStructure(p * entry.acs.j * inverse(p))))
    code, out, _ = run(capsys, "verify", str(path), "--format", "json")
    assert code == 1
    assert json.loads(out)["chern-flat-witness"] == "('basis-pair', 2, 2)"


def test_verify_json_output(capsys):
    code, out, _ = run(capsys, "verify", "@iwasawa_j3", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["chern-flat"] is True
    assert obj["qk-chern-flat"] is True
    assert obj["two-step-certificate"] is True
    assert obj["center-j-invariant"] is True
    assert obj["nijenhuis-zero"] is False
    assert obj["verdict"] is True


def test_verify_without_structure(capsys):
    code, out, _ = run(capsys, "verify", "@heisenberg3", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["nilpotency-step"] == 2
    assert "chern-flat" not in obj


def test_verify_rejects_a_metric_for_a_model_without_structure(capsys):
    # the file is never read: the model has no J for it to be a metric of
    code, out, err = run(capsys, "verify", "@heisenberg3", "--metric", "/nonexistent/h.json")
    assert code == 2
    assert out == ""
    assert err == "error: --metric needs a model with a structure matrix J\n"


def test_verify_with_metric_file(capsys, tmp_path):
    path = tmp_path / "h.json"
    path.write_text(json.dumps([["2", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]))
    code, out, _ = run(capsys, "verify", "@iwasawa_j3", "--metric", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["quasi-kaehler"] is True

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([["1", "1"], ["1", "1"]]))
    code, _, err = run(capsys, "verify", "@iwasawa_j3", "--metric", str(bad))
    assert code == 2


def test_verify_input_error_codes(capsys, tmp_path):
    code, _, err = run(capsys, "verify", "@does_not_exist")
    assert code == 2
    assert "error[unknown-catalog]" in err

    path = tmp_path / "broken.json"
    path.write_text("{oops")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert "error[parse]" in err

    jac = tmp_path / "jacobi.json"
    jac.write_text(
        json.dumps(
            {
                "dim": 3,
                "brackets": [
                    {"i": 1, "j": 2, "out": [{"k": 3, "coeff": "1"}]},
                    {"i": 1, "j": 3, "out": [{"k": 1, "coeff": "1"}]},
                ],
            }
        )
    )
    code, _, err = run(capsys, "verify", str(jac))
    assert code == 2
    assert "error[jacobi]" in err


def test_internal_inconsistency_exits_with_code_3(capsys, monkeypatch):
    def disagree(*args, **kwargs):
        raise AssertionError("Chern-flat characterizations disagree; internal inconsistency")

    monkeypatch.setattr("chernflat.cli.is_chern_flat", disagree)
    code, out, err = run(capsys, "verify", "@iwasawa_j3")
    assert code == 3
    assert out == ""
    assert err == "error[internal]: Chern-flat characterizations disagree; internal inconsistency\n"


def test_normal_form_table_and_selftest(capsys):
    code, out, _ = run(capsys, "normal-form", "@dim4_model", "--trials", "3", "--seed", "11")
    assert code == 0
    assert "kind" in out and "dim4" in out
    assert "c[1,2]" in out
    assert "self-test" in out and "3 trials" in out


def test_normal_form_json(capsys):
    code, out, _ = run(capsys, "normal-form", "@iwasawa_j3", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["kind"] == "center_one"
    assert obj["constants"] == [{"i": 1, "j": 2, "k": 3, "coeff": "1"}]


def test_normal_form_rejects_negative_trials(capsys):
    code, out, err = run(capsys, "normal-form", "@dim4_model", "--trials", "-5")
    assert code == 2
    assert out == ""
    assert "--trials" in err


def test_normal_form_outside_family(capsys):
    code, _, err = run(capsys, "normal-form", "@abelian(6)")
    assert code == 1
    assert "error" in err
    code, _, err = run(capsys, "normal-form", "@complex_heisenberg_bicomplex")
    assert code == 1
    code, _, err = run(capsys, "normal-form", "@heisenberg3")
    assert code == 1
    assert "no structure" in err


def test_deform_output(capsys):
    code, out, _ = run(capsys, "deform", "@dim4_model", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["solution-dim"] == 12
    assert obj["inner-rank"] == 4
    assert obj["essential-dim"] == 8

    code, _, err = run(capsys, "deform", "@complex_heisenberg_bicomplex")
    assert code == 1
    assert "error" in err


def test_lemma_output(capsys):
    code, out, _ = run(capsys, "lemma", "@iwasawa_j3", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["real-dimension"] == 2
    assert obj["all-closed"] is True
    assert len(obj["solutions"]) == 2
    for text in obj["solutions"]:
        assert "z1^z2" in text

    code, _, err = run(capsys, "lemma", "@complex_heisenberg_bicomplex")
    assert code == 1
    # the library witness is ("holomorphic-component", 0, 1); the CLI shows it 1-based
    assert err == (
        "error: coupled system requires quasi-Kaehler sector relations; "
        "witness ('holomorphic-component', 1, 2)\n"
    )


def test_construct_holomorphic_round_trip(capsys, tmp_path):
    out_path = tmp_path / "built.json"
    code, _, _ = run(
        capsys,
        "construct",
        "holomorphic",
        "3",
        "--set",
        "1,2,3:2",
        "-o",
        str(out_path),
    )
    assert code == 0
    g, acs = loads_model(out_path.read_text())
    entry = catalog("iwasawa_j3")
    assert g == entry.algebra
    assert acs == entry.acs


@pytest.mark.parametrize(
    "target, reason",
    [("missing/built.json", "No such file or directory"), (".", "Is a directory")],
    ids=["missing-directory", "directory"],
)
def test_construct_reports_an_output_path_it_cannot_write(capsys, tmp_path, target, reason):
    path = str(tmp_path / target)
    code, out, err = run(capsys, "construct", "holomorphic", "3", "--set", "1,2,3:1", "-o", path)
    assert code == 2
    assert out == ""
    assert err == f"error: cannot write {path!r}: {reason}\n"
    assert not (tmp_path / "missing").exists()


def test_construct_doubling_matches_catalog(capsys, tmp_path):
    h3 = tmp_path / "h3.json"
    entry = catalog("heisenberg3")
    h3.write_text(dumps_model(entry.algebra, None))
    code, out, _ = run(capsys, "construct", "conjugate-complexification", str(h3))
    assert code == 0
    g, acs = loads_model(out)
    model = catalog("iwasawa_j3")
    assert g == model.algebra
    assert acs == model.acs


def test_construct_error_cases(capsys):
    code, _, err = run(capsys, "construct", "holomorphic", "x")
    assert code == 2
    code, _, err = run(capsys, "construct", "holomorphic", "3", "--set", "5,6,1:1")
    assert code == 2
    assert "out of range" in err
    code, _, err = run(capsys, "construct", "holomorphic", "3", "--set", "1,2:1")
    assert code == 2
    code, _, err = run(capsys, "construct", "holomorphic", "2", "--set", "1,2,1:1")
    assert code == 2
    assert "error[jacobi]" in err


@pytest.mark.parametrize("spec", ["2,1,1:1", "1,1,1:1"], ids=["swapped", "diagonal"])
def test_construct_names_the_index_rule(capsys, spec):
    # every index lies in 1..m; the pair breaks the rule i < j
    code, out, err = run(capsys, "construct", "holomorphic", "2", "--set", spec)
    assert (code, out) == (2, "")
    assert err == f"error: indices out of range in '{spec}': need 1 <= i < j <= 2 and 1 <= k <= 2\n"


def _verify_argv(tmp_path, coeff=None, j_entry=None, metric_entry=None):
    """verify on iwasawa_j3's file, with its first coefficient, J[1][1] or metric H[1][1] replaced."""
    entry = catalog("iwasawa_j3")
    obj = json.loads(dumps_model(entry.algebra, entry.acs))
    if coeff is not None:
        obj["brackets"][0]["out"][0]["coeff"] = coeff
    if j_entry is not None:
        obj["J"][0][0] = j_entry
    path = tmp_path / "model.json"
    path.write_text(json.dumps(obj))
    argv = ["verify", str(path)]
    if metric_entry is not None:
        metric = tmp_path / "metric.json"
        metric.write_text(json.dumps([[metric_entry, "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]))
        argv += ["--metric", str(metric)]
    return argv


@pytest.mark.parametrize(
    "make_argv, expected",
    [
        (lambda tmp: _verify_argv(tmp, coeff="1/0"), "error[coeff]: bad coefficient '1/0'"),
        (lambda tmp: _verify_argv(tmp, j_entry="1/0"), "error[j-shape]: bad 'J' entry '1/0'"),
        (lambda tmp: _verify_argv(tmp, metric_entry="1/0"), "error[coeff]: bad metric entry '1/0'"),
        (lambda tmp: ["construct", "holomorphic", "3", "--set", "1,2,3:1/0"], "error: not an exact scalar literal: '1/0'"),
    ],
    ids=["model-coefficient", "j-entry", "metric-entry", "construct-set"],
)
def test_zero_denominators_are_input_errors(capsys, tmp_path, make_argv, expected):
    code, out, err = run(capsys, *make_argv(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith(expected)


def test_verify_rejects_a_structure_on_a_complex_model(capsys, tmp_path):
    # a J is only read on a rational table, so a field 'Qi' model with J never reaches the splitting
    entry = catalog("iwasawa_j3")
    obj = json.loads(dumps_model(entry.algebra, entry.acs))
    obj["field"] = "Qi"
    obj["brackets"][0]["out"][0]["coeff"] = "1+i"
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(obj))
    for argv in (["verify", str(path)], ["verify", str(path), "--format", "json"]):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == "error[field]: a structure matrix requires field 'Q'\n"


def test_repeated_calls_retain_no_memory(capsys):
    # the parser is built once per process; building one per call kept about
    # 0.3 KB alive per call inside argparse
    run(capsys, "catalog")
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        for _ in range(100):
            run(capsys, "catalog")
        gc.collect()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    ignore = [tracemalloc.Filter(False, tracemalloc.__file__)]
    retained = sum(
        stat.size_diff for stat in after.filter_traces(ignore).compare_to(before.filter_traces(ignore), "filename")
    )
    assert retained < 8 * 1024


def test_catalog_listing_and_entry(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    assert "iwasawa_j3" in out
    assert "centro1_model(k)" in out

    code, out, _ = run(capsys, "catalog", "centro1_model(2)", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["dim"] == 10
    assert obj["properties"]["qk_chern_flat"] is True
    assert obj["model"]["dim"] == 10

    code, _, err = run(capsys, "catalog", "wat")
    assert code == 2
    assert "error[unknown-catalog]" in err


def test_output_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "@dim5_irreducible", "--format", "json")
    code2, out2, _ = run(capsys, "verify", "@dim5_irreducible", "--format", "json")
    assert (code1, out1) == (code2, out2)


GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
GOLDEN_CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", GOLDEN_CASES, ids=[case["name"] for case in GOLDEN_CASES])
def test_output_matches_the_golden_files(capsys, monkeypatch, case):
    # tests/golden/generate.py writes these files; see its docstring.  Model
    # files are named by their path from the repository root.
    monkeypatch.chdir(GOLDEN.parents[1])
    code, out, err = run(capsys, *case["argv"])
    assert code == case["code"]
    assert err == case["stderr"]
    assert out.encode("utf-8") == (GOLDEN / f"{case['name']}.out").read_bytes()
