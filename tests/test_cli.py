import json

import pytest

import relcor.cli
from relcor.cli import main


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


def test_program_parse_error_exits_2(tiny, capsys):
    bad = tiny["dir"] / "bad.imp"
    bad.write_text("x = ;")
    code, _ = run(capsys, "relcheck", "--spec", tiny["spec"],
                  "--correct", str(bad))
    assert code == 2


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


def test_report_missing_file_exits_2(capsys, tmp_path):
    code, _ = run(capsys, "report", str(tmp_path / "absent.json"))
    assert code == 2
