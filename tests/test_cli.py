import hashlib
import json

import pytest

import relcor.cli
from relcor.cli import main
from relcor.studies import fixture_path, load_fixture_json


@pytest.fixture()
def tiny(tmp_path):
    spec = {
        "type": "predicate",
        "space": {"vars": [{"name": "x", "min": 0, "max": 20}]},
        "dom": "x <= 18",
        "rel": "x' == x + 2",
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    prog_path = tmp_path / "seeded.imp"
    prog_path.write_text("x = x - 2;\n")
    good_path = tmp_path / "good.imp"
    good_path.write_text("x = x + 2;\n")
    return {"spec": str(spec_path), "prog": str(prog_path),
            "good": str(good_path), "dir": tmp_path}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_relcheck_correct_verdicts(tiny, capsys):
    code, out = run(capsys, "relcheck", "--spec", tiny["spec"],
                    "--correct", tiny["good"], "--assert")
    assert code == 0 and json.loads(out)["result"] is True

    code, out = run(capsys, "relcheck", "--spec", tiny["spec"],
                    "--correct", tiny["prog"], "--assert")
    assert code == 1 and json.loads(out)["result"] is False

    # without --assert a false verdict still exits 0
    code, _ = run(capsys, "relcheck", "--spec", tiny["spec"],
                  "--correct", tiny["prog"])
    assert code == 0


def test_relcheck_more_correct(tiny, capsys):
    code, out = run(capsys, "relcheck", "--spec", tiny["spec"], "--more-correct",
                    tiny["good"], tiny["prog"], "--strict", "--assert")
    assert code == 0 and json.loads(out)["result"] is True


def test_relcheck_refines_relation_files(tiny, capsys):
    code, _ = run(capsys, "semantics", "--spec", tiny["spec"],
                  "--program", tiny["good"],
                  "--out", str(tiny["dir"] / "good.json"))
    assert code == 0
    rel = str(tiny["dir"] / "good.json")
    code, out = run(capsys, "relcheck", "--refines", rel, rel, "--assert")
    assert code == 0 and json.loads(out)["result"] is True


def test_relcheck_refines_programs_only_with_a_spec(tiny, capsys):
    code, out = run(capsys, "relcheck", "--spec", tiny["spec"],
                    "--refines", tiny["good"], tiny["good"], "--assert")
    assert code == 0 and json.loads(out)["result"] is True
    assert main(["relcheck", "--refines", tiny["good"], tiny["prog"]]) == 2
    err = capsys.readouterr().err
    assert "RelcorError" in err and "--spec" in err and "JSONDecodeError" not in err


def test_malformed_spec_exits_2(tiny, capsys):
    bad = tiny["dir"] / "bad.json"
    for text in ("{not json", '{"type": "predicate", "dom": "true"}', "[1, 2]",
                 '{"type": "enumerated", "space": {"vars": [{"name": "x"}]}, "pairs": []}'):
        bad.write_text(text)
        code, _ = run(capsys, "relcheck", "--spec", str(bad),
                      "--correct", tiny["good"])
        assert code == 2


def test_bad_test_selection_exits_2(tiny, capsys):
    data = tiny["dir"] / "inputs.txt"
    data.write_text("x=one\n")
    for tests in ("random:many", "sideways", f"file:{data}"):
        code, _ = run(capsys, "repair", "--spec", tiny["spec"],
                      "--program", tiny["prog"], "--tests", tests)
        assert code == 2


def test_negative_fuel_exits_2(tiny, capsys):
    args = ["repair", "--spec", tiny["spec"], "--program", tiny["prog"],
            "--tests", "random:5", "--max-depth", "1"]
    assert main([*args, "--fuel", "-1"]) == 2
    assert "fuel must be >= 0" in capsys.readouterr().err
    code, _ = run(capsys, *args, "--fuel", "0")
    assert code == 0


def test_internal_type_error_is_not_a_user_error(tiny, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("internal fault")

    monkeypatch.setattr(relcor.cli, "denote", broken)
    with pytest.raises(TypeError, match="internal fault"):
        main(["semantics", "--spec", tiny["spec"], "--program", tiny["good"]])


def test_overlong_program_exits_2_with_a_message(tiny, capsys):
    long = tiny["dir"] / "long.imp"
    long.write_text("x = x + 1;\n" * 1200)
    code = main(["semantics", "--spec", tiny["spec"], "--program", str(long)])
    assert code == 2
    assert "nest more than" in capsys.readouterr().err


def test_program_too_deep_for_python_exits_2_with_a_message(tiny, capsys):
    deep = tiny["dir"] / "deep.imp"
    deep.write_text("while (x < 1) { " * 25 + "skip;" + " }" * 25)
    code = main(["repair", "--spec", tiny["spec"], "--program", str(deep)])
    assert code == 2
    assert "nested too deeply" in capsys.readouterr().err


def test_program_parse_error_exits_2(tiny, capsys):
    bad = tiny["dir"] / "bad.imp"
    bad.write_text("x = ;")
    code, _ = run(capsys, "relcheck", "--spec", tiny["spec"],
                  "--correct", str(bad))
    assert code == 2


def test_repair_of_a_program_whose_local_shadows_exits_2(tiny, capsys):
    shadow = tiny["dir"] / "shadow.imp"
    shadow.write_text("x = x - 2;\n{ int x : 0..3; x = 1; }\n")
    code = main(["repair", "--spec", tiny["spec"], "--program", str(shadow)])
    assert code == 2
    assert "2:7: redeclaration of 'x'" in capsys.readouterr().err


def test_exact_mode_on_a_local_read_before_it_is_assigned_exits_2(tiny, capsys):
    unassigned = tiny["dir"] / "unassigned.imp"
    unassigned.write_text("{ int t : 0..1; x = x + 2 - t; }\n")
    for argv in (["semantics"], ["repair", "--mode", "exact"]):
        code = main([*argv, "--spec", tiny["spec"], "--program", str(unassigned)])
        assert code == 2
        assert "block local 't' may be read before it is assigned" in capsys.readouterr().err
    # testing mode runs it, t starting at 0, where it is correct
    code = main(["repair", "--spec", tiny["spec"], "--program", str(unassigned)])
    assert code == 0 and json.loads(capsys.readouterr().out)["solutions"] == ["base"]


def test_semantics_dumps_the_program_function(tiny, capsys):
    code, out = run(capsys, "semantics", "--spec", tiny["spec"],
                    "--program", tiny["good"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["pairs"]) == 19  # x in 0..18 stays inside 0..20


def test_mutate_manifest(tiny, capsys):
    code, out = run(capsys, "mutate", "--spec", tiny["spec"],
                    "--program", tiny["prog"], "--operators", "AORB",
                    "literal+-1")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["mutants"]) == 6


def test_repair_command_writes_artifacts(tiny, capsys):
    dot = tiny["dir"] / "tree.dot"
    tree = tiny["dir"] / "tree.json"
    code, out = run(capsys, "repair", "--spec", tiny["spec"],
                    "--program", tiny["prog"], "--mode", "exact",
                    "--dot-out", str(dot), "--json-out", str(tree))
    assert code == 0
    summary = json.loads(out)
    assert summary["fault_depth_ub"] == 1
    assert dot.read_text().startswith("digraph")
    assert "nodes" in json.loads(tree.read_text())


#: SHA-256 of the exact-mode repair tree of arraysum.imp, by k: `a` of size 4
#: in 0..k, `x` in 0..3k and `i` in 0..4 (the bundled spec is k = 2)
ARRAYSUM_TREES = {
    2: "61ba231e6ccbe83456e33a5e86a8130ebbe250cc7e93ffe8da38f5da5938a91f",
    4: "082fe097f06f9dabbdb3b07820354ad44365430e6f45f6559250462788caa5aa",
}


@pytest.mark.parametrize("k", sorted(ARRAYSUM_TREES))
def test_the_exact_arraysum_repair_trees_are_byte_identical(k, tmp_path, capsys):
    spec = fixture_path("arraysum_spec.json")
    if k != 2:
        doc = load_fixture_json("arraysum_spec.json")
        for var in doc["space"]["vars"]:
            var["max"] = {"a": k, "x": 3 * k}.get(var["name"], var["max"])
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
    tree = tmp_path / "tree.json"
    code, _ = run(capsys, "repair", "--mode", "exact", "--operators", "literal+-1", "index+-1",
                  "--max-depth", "2", "--spec", str(spec),
                  "--program", str(fixture_path("arraysum.imp")), "--json-out", str(tree))
    assert code == 0
    assert hashlib.sha256(tree.read_bytes()).hexdigest() == ARRAYSUM_TREES[k]


def test_repair_seed_env_var_is_the_default(tiny, capsys, monkeypatch):
    monkeypatch.setenv("RELCOR_SEED", "11")
    code, a = run(capsys, "repair", "--spec", tiny["spec"],
                  "--program", tiny["prog"], "--tests", "random:5")
    assert code == 0
    monkeypatch.setenv("RELCOR_SEED", "oops")
    code, _ = run(capsys, "repair", "--spec", tiny["spec"],
                  "--program", tiny["prog"], "--tests", "random:5")
    assert code == 2


def test_demo_lattice(capsys):
    code, out = run(capsys, "demo", "lattice")
    assert code == 0
    assert "lattice" in out


def test_report_tabulates_level1_rows(tmp_path, capsys):
    doc = {"level1": [
        {"ordinal": 1, "operator": "AORB:+->-",
         "classification": "as_correct", "n0": 3, "n1": 0, "n2" : 7, "n3": 0},
        {"ordinal": 2, "operator": "AORB:+->*",
         "classification": "strictly_more_correct",
         "n0": 3, "n1": 2, "n2": 5, "n3": 0},
    ]}
    path = tmp_path / "level1.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "report", str(path))
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert "strictly_more_correct" in lines[2]


def test_report_with_no_inputs(capsys):
    code, out = run(capsys, "report")
    assert code == 0
    assert out.strip().startswith("mutant")


def test_report_on_a_document_of_the_wrong_shape_exits_2(capsys, tmp_path):
    path = tmp_path / "report.json"
    for text in ("[1]", '{"level1": 3}', '{"level1": [1]}'):
        path.write_text(text)
        assert main(["report", str(path)]) == 2
        assert "malformed report document" in capsys.readouterr().err


def test_report_missing_file_exits_2(capsys, tmp_path):
    code, _ = run(capsys, "report", str(tmp_path / "absent.json"))
    assert code == 2
