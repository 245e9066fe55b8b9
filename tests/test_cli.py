import json

import pytest

from choreochannel.bpmn import serialize_choreography
from choreochannel.cases import fixture_bytes
from choreochannel.cli import main
from util import place_named_like_flow_model, xor_into_task_model


def test_compile_command(tmp_path, capsys):
    model = tmp_path / "model.bpmn"
    model.write_bytes(fixture_bytes("supply_chain"))
    out = tmp_path / "machine.json"
    pnml = tmp_path / "net.pnml"
    assert main(["compile", str(model), "-o", str(out), "--pnml", str(pnml)]) == 0
    dump = json.loads(out.read_text())
    assert dump["place_count"] == 12
    assert pnml.read_bytes().startswith(b"<?xml")
    assert "12 places" in capsys.readouterr().out


def test_compile_rejects_invalid_model(tmp_path, capsys):
    model = tmp_path / "bad.bpmn"
    model.write_bytes(fixture_bytes("supply_chain").replace(
        b'<bpmn2:sequenceFlow id="f01" sourceRef="start" targetRef="place_order"/>', b""))
    out = tmp_path / "machine.json"
    assert main(["compile", str(model), "-o", str(out)]) == 1
    assert "invalid" in capsys.readouterr().err


def test_compile_refuses_place_names_that_repeat(tmp_path, capsys):
    model = tmp_path / "clash.bpmn"
    model.write_bytes(serialize_choreography(place_named_like_flow_model()))
    out = tmp_path / "machine.json"
    assert main(["compile", str(model), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error: model is not compilable: two net places are named 'p_ask__tell'" in err
    assert not out.exists()


def test_compile_refuses_an_implicit_join(tmp_path, capsys):
    model = tmp_path / "join.bpmn"
    model.write_bytes(serialize_choreography(xor_into_task_model()))
    out = tmp_path / "machine.json"
    assert main(["compile", str(model), "-o", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: invalid model:",
        "  ImplicitJoin at C: task has 2 incoming flows; join them with a gateway",
    ]
    assert not out.exists()


def test_run_scenario_table_and_file(tmp_path, capsys):
    out = tmp_path / "scenario.json"
    rc = main([
        "run-scenario", "--case", "incident-management", "--variant", "2",
        "--kind", "bad", "--seed", "3", "--out", str(out),
    ])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "end_reached=True" in printed
    data = json.loads(out.read_text())
    assert data["type"] == "scenario"
    assert data["report"]["totals_by_kind"]["deploy"] > 0


def test_run_scenario_structured_format(capsys):
    rc = main([
        "run-scenario", "--case", "supply-chain", "--kind", "best", "--format", "structured",
    ])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["end_reached"] is True
    assert data["spec"] == {"case": "supply_chain", "variant": 0, "kind": "best", "seed": 0,
                            "window": 10}


def test_conformance_command_small(capsys):
    rc = main(["conformance", "--case", "incident-management", "--mutants", "6", "--seed", "5"])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "false_accepts=0" in printed
    assert "-> ok" in printed


def test_break_even_command(tmp_path, capsys):
    out = tmp_path / "be.json"
    rc = main(["break-even", "--case", "incident-management", "--mix", "0.05",
               "--mix", "0.2", "--out", str(out)])
    assert rc == 0
    assert "break-even incident_management" in capsys.readouterr().out
    data = json.loads(out.read_text())
    assert "incident_management" in data["cases"]


def test_report_renders_break_even_file_as_printed(tmp_path, capsys):
    out = tmp_path / "be.json"
    assert main(["break-even", "--case", "supply-chain", "--mix", "0.1", "--mix", "1.0",
                 "--horizon", "5", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    table = printed[:printed.index(f"wrote {out}")]
    assert table.startswith("break-even supply_chain:") and "never" in table
    assert main(["report", "--input", str(out)]) == 0
    assert capsys.readouterr().out == table


def test_report_renders_conformance_file(tmp_path, capsys):
    out = tmp_path / "conf.json"
    assert main(["conformance", "--case", "incident-management", "--mutants", "4",
                 "--seed", "5", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["report", "--input", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "case: incident_management",
        "  conforming: traces=4 oracle_agreement=True stable=True fully_accepted=4",
        "  mutated: traces=4 oracle_agreement=True stable=True fully_accepted=0",
    ]


def test_report_renders_structured_file(tmp_path, capsys):
    out = tmp_path / "scenario.json"
    main(["run-scenario", "--case", "supply-chain", "--kind", "worst", "--out", str(out)])
    capsys.readouterr()
    assert main(["report", "--input", str(out)]) == 0
    assert "scenario supply_chain" in capsys.readouterr().out
    assert main(["report", "--input", str(out), "--format", "structured"]) == 0
    json.loads(capsys.readouterr().out)


def test_unknown_case_fails(capsys):
    rc = main(["run-scenario", "--case", "supply-chain", "--kind", "best", "--variant", "7"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_report_refuses_malformed_input_with_an_error_line(tmp_path, capsys):
    for body in ("[1, 2]", '{"type": "scenario"}', '{"type": "break_even", "cases": []}',
                 '{"type": "conformance", "case": "x", "conforming": 3}'):
        path = tmp_path / "bad.json"
        path.write_text(body)
        assert main(["report", "--input", str(path)]) == 1, body
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1, body


def test_structured_report_refuses_what_the_table_refuses(tmp_path, capsys):
    path = tmp_path / "bad.json"
    for body in ("[1, 2]", "{}", '{"type": "receipt"}', '{"type": "scenario"}',
                 '{"type": "break_even", "cases": []}'):
        path.write_text(body)
        errors = []
        for fmt in ("table", "structured"):
            assert main(["report", "--input", str(path), "--format", fmt]) == 1, (body, fmt)
            captured = capsys.readouterr()
            assert captured.out == "", (body, fmt)
            errors.append(captured.err)
        assert errors[0] == errors[1] and errors[0].startswith("error: "), body


def test_report_on_a_directory_is_an_error_line(tmp_path, capsys):
    assert main(["report", "--input", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_compile_into_a_directory_is_an_error_line(tmp_path, capsys):
    model = tmp_path / "model.bpmn"
    model.write_bytes(fixture_bytes("supply_chain"))
    assert main(["compile", str(model), "-o", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("args", [["--mix", "1.5"], ["--mix", "-0.5"], ["--horizon", "0"],
                                  ["--mix", "0.2", "--mix", "1.01"]],
                         ids=["mix-above-one", "mix-below-zero", "zero-horizon", "second-mix"])
def test_break_even_refuses_out_of_range_arguments(capsys, args):
    assert main(["break-even", "--case", "supply-chain", *args]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
