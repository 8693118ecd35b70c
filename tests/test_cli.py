"""Command-line surface: exit codes, JSON payloads, determinism."""

import argparse
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from mvcond.cli import _power, build_parser, main
from mvcond.semantics import check_fid, model_from_json, save_model
from mvcond.search import MAX_M, random_model
from mvcond.truthvalues import TruthValue

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert "status" in payload
    return code, payload, captured.err


@pytest.fixture()
def model_path(tmp_path):
    path = tmp_path / "model.json"
    save_model(random_model(1, 3, 2, ("p", "q"), 0), str(path))
    return str(path)


def test_parse_round_trip(capsys):
    code, payload, _ = run(capsys, "parse", "--formula", "p -> (q -> p)")
    assert code == 0
    assert payload["status"] == "ok"
    assert payload["formula"] == "p -> q -> p"
    assert payload["ast"]["node"] == "Imp"


def test_parse_error_exits_3(capsys):
    code, payload, err = run(capsys, "parse", "--formula", "p ->")
    assert code == 3
    assert payload["status"] == "error"
    assert err.strip()


def test_an_index_with_too_many_digits_exits_3_with_its_span(capsys):
    text = "J{" + "1" * 5000 + "}(p)"
    code, payload, _ = run(capsys, "parse", "--formula", text)
    assert code == 3
    assert payload == {"status": "error", "error": "malformed index: too many digits at 2..5002"}


def test_parse_reports_graded_indices(capsys):
    code, payload, _ = run(capsys, "parse", "--formula", "J{1/2}(p) -> I{1}(q)")
    assert code == 0
    assert payload["ast"] == {
        "node": "Imp",
        "left": {"node": "J", "index": "1/2", "child": {"node": "Var", "name": "p"}},
        "right": {"node": "I", "index": "1", "child": {"node": "Var", "name": "q"}},
    }


def test_taut_holds_and_fails(capsys):
    code, payload, _ = run(capsys, "taut", "--m", "3", "--formula", "p -> (q -> p)")
    assert (code, payload["status"]) == (0, "holds")

    code, payload, _ = run(capsys, "taut", "--m", "3", "--formula", "p | ~p")
    assert (code, payload["status"]) == (1, "fails")
    assert payload["assignment"] == {"p": 1}


def test_taut_conditionals_need_abstraction(capsys):
    code, payload, _ = run(capsys, "taut", "--m", "3", "--formula", "(p => q) -> (p => q)")
    assert code == 3
    code, payload, _ = run(
        capsys,
        "taut",
        "--m",
        "3",
        "--abstract-conditionals",
        "--formula",
        "(p => q) -> (p => q)",
    )
    assert (code, payload["status"]) == (0, "holds")


def test_eval_reports_exact_value(capsys, model_path):
    code, payload, _ = run(
        capsys, "eval", "--model", model_path, "--world", "w0", "--formula", "p -> p"
    )
    assert code == 0
    assert payload["value"] == 2
    assert payload["scale"] == 3
    assert payload["designated"] is True
    assert payload["text"] == "2/2"


def test_eval_unknown_world_exits_3(capsys, model_path):
    code, payload, _ = run(
        capsys, "eval", "--model", model_path, "--world", "zz", "--formula", "p"
    )
    assert code == 3
    assert payload["status"] == "error"


def test_missing_model_file_exits_3(capsys, tmp_path):
    code, payload, _ = run(
        capsys,
        "eval",
        "--model",
        str(tmp_path / "missing.json"),
        "--world",
        "w0",
        "--formula",
        "p",
    )
    assert code == 3


def test_valid_subcommand(capsys, model_path):
    code, payload, _ = run(
        capsys, "valid", "--model", model_path, "--formula", "p => T"
    )
    assert (code, payload["status"]) == (0, "valid")

    code, payload, _ = run(capsys, "valid", "--model", model_path, "--formula", "p")
    assert (code, payload["status"]) == (1, "invalid")
    assert "world" in payload


def test_entails_subcommand(capsys, model_path, tmp_path):
    sigma = tmp_path / "sigma.txt"
    sigma.write_text("# premises\np\n\nq\n")
    code, payload, _ = run(
        capsys,
        "entails",
        "--model",
        model_path,
        "--sigma",
        str(sigma),
        "--formula",
        "p & q",
    )
    assert (code, payload["status"]) == (0, "entails")
    assert payload["premises"] == 2

    code, payload, _ = run(
        capsys,
        "entails",
        "--model",
        model_path,
        "--sigma",
        str(sigma),
        "--formula",
        "~p",
    )
    assert code in (0, 1)  # depends on whether both premises are ever designated

    sigma.write_text("p\n")  # designated at w1 only, where q is 1/2
    code, payload, _ = run(
        capsys, "entails", "--model", model_path, "--sigma", str(sigma), "--formula", "q"
    )
    assert code == 1
    assert payload == {"status": "fails", "premises": 1, "world": "w1", "value": 1}


def test_valid_on_a_model_that_fails_validation_exits_3(capsys, model_path, tmp_path):
    doc = json.loads(Path(model_path).read_text())
    doc["relations"][0]["prop"] = [[] for _ in range(doc["m"])]
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(doc))
    code, payload, _ = run(capsys, "valid", "--model", str(path), "--formula", "p")
    assert code == 3
    assert payload["status"] == "error"
    assert "proposition cells do not cover world 'w0'" in payload["error"]


def test_search_emits_a_reloadable_countermodel(capsys):
    code, payload, _ = run(
        capsys, "search", "--m", "3", "--max-worlds", "1", "--formula", "p => p"
    )
    assert code == 1
    assert payload["status"] == "countermodel"
    assert payload["candidates"] == 1
    assert payload["value"] == 0
    assert payload["witness_world"] == "w0"
    model = model_from_json(payload)
    assert model.valuation["p"]["w0"] == TruthValue(0, 3)


def test_search_no_countermodel(capsys):
    code, payload, _ = run(
        capsys,
        "search",
        "--m",
        "3",
        "--max-worlds",
        "1",
        "--formula",
        "(p => (q & r)) -> ((p => q) & (p => r))",
    )
    assert (code, payload["status"]) == (0, "no_countermodel")
    assert payload["candidates"] == 81


def test_search_budget_exhaustion_exits_4(capsys):
    code, payload, _ = run(
        capsys,
        "search",
        "--m",
        "3",
        "--max-worlds",
        "1",
        "--budget",
        "5",
        "--formula",
        "(p => (q & r)) -> ((p => q) & (p => r))",
    )
    assert code == 4
    assert payload["status"] == "budget_exhausted"
    assert payload["candidates"] == 5


def test_search_value_restriction_flag(capsys):
    code, payload, _ = run(
        capsys,
        "search",
        "--m",
        "3",
        "--max-worlds",
        "1",
        "--values",
        "0",
        "--formula",
        "p => p",
    )
    assert (code, payload["status"]) == (0, "no_countermodel")


def test_search_fid_flag_removes_identity_countermodels(capsys):
    code, payload, _ = run(
        capsys,
        "search",
        "--m",
        "3",
        "--max-worlds",
        "1",
        "--fid",
        "--formula",
        "p => p",
    )
    assert (code, payload["status"]) == (0, "no_countermodel")


def test_filtrate_closes_sigma_and_writes_quotient(capsys, tmp_path):
    model_file = tmp_path / "model.json"
    save_model(random_model(5, 3, 4, ("p", "q"), 1), str(model_file))
    sigma = tmp_path / "sigma.txt"
    sigma.write_text("p => q\n")
    out = tmp_path / "quotient.json"
    code, payload, _ = run(
        capsys,
        "filtrate",
        "--model",
        str(model_file),
        "--sigma",
        str(sigma),
        "--out",
        str(out),
    )
    assert code == 0
    assert payload["status"] == "ok"
    assert payload["sigma_size"] == 3  # p, q, p => q after closure
    assert payload["worlds_in"] == 4
    assert payload["bound"] == 27
    assert payload["discrepancies"] == []
    written = json.loads(out.read_text())
    assert "class_map" in written
    assert set(written["class_map"]) == {"w0", "w1", "w2", "w3"}
    assert model_from_json(written).m == 3


def test_fid_check_flags_violations(capsys, tmp_path):
    from mvcond.semantics import KripkeModel, Proposition

    bad = KripkeModel(
        m=3,
        worlds=("x", "y"),
        vars=("p",),
        valuation={"p": {"x": TruthValue(2, 3), "y": TruthValue(0, 3)}},
        relations={
            Proposition((("y",), (), ("x",))): (
                (TruthValue(0, 3), TruthValue(2, 3)),
                (TruthValue(0, 3), TruthValue(0, 3)),
            )
        },
        default_policy=TruthValue(0, 3),
    )
    path = tmp_path / "bad.json"
    save_model(bad, str(path))
    code, payload, _ = run(capsys, "fid-check", "--model", str(path))
    assert code == 1
    assert payload["status"] == "violations"
    assert payload["count"] == 1
    assert payload["violations"][0]["source"] == "x"
    assert payload["violations"][0]["target"] == "y"
    assert payload["violations"][0]["degree"] == 2
    assert payload["violations"][0]["target_cell"] == 1

    good = KripkeModel(
        m=3,
        worlds=("x",),
        vars=("p",),
        valuation={"p": {"x": TruthValue(0, 3)}},
        relations={
            Proposition((("x",), (), ())): ((TruthValue(0, 3),),)
        },
        default_policy=None,
    )
    good_path = tmp_path / "good.json"
    save_model(good, str(good_path))
    code, payload, _ = run(capsys, "fid-check", "--model", str(good_path))
    assert (code, payload["status"]) == (0, "holds")


def test_fid_check_output_on_a_seeded_model(capsys, tmp_path):
    """Every violation of a 16-world model, each with its relation's cells,
    printed exactly as the document built from check_fid."""
    model = random_model(11, 4, 16, ("p", "q", "r"), 3)
    path = tmp_path / "model.json"
    save_model(model, str(path))
    violations = check_fid(model)
    expected = {
        "status": "violations",
        "count": len(violations),
        "violations": [
            {
                "source": v.source,
                "target": v.target,
                "degree": v.degree.numerator,
                "target_cell": v.target_cell,
                "prop": [list(cell) for cell in v.prop.cells],
            }
            for v in violations
        ],
    }
    assert len({v.prop for v in violations}) > 1
    for argv, layout in ((), {"separators": (",", ":")}), (("--pretty",), {"indent": 2}):
        assert main(["fid-check", "--model", str(path), *argv]) == 1
        assert capsys.readouterr().out == json.dumps(expected, **layout) + "\n"


def test_proofcheck_subcommand(capsys):
    goal = "(p => (q & r)) -> (p => (r & q))"
    code, payload, _ = run(
        capsys,
        "proofcheck",
        "--file",
        str(DATA / "derivations" / "rcec_mp.json"),
        "--goal",
        goal,
    )
    assert (code, payload["status"]) == (0, "accepted")
    assert payload["lines"] == 4

    code, payload, _ = run(
        capsys,
        "proofcheck",
        "--file",
        str(DATA / "derivations" / "rcec_mp.json"),
        "--goal",
        "(p => (q & r)) -> (p => (q & q))",
    )
    assert (code, payload["status"]) == (1, "rejected")
    assert payload["line"] == 4

    ra_gen = DATA / "derivations" / "ra_gen_two_formulas.json"
    goal = "I{1/2}(p => r) -> I{1}(p => q) -> I{1}(p => q)"
    code, payload, _ = run(capsys, "proofcheck", "--file", str(ra_gen), "--goal", goal)
    assert (code, payload) == (0, {"status": "accepted", "lines": 4})


def test_proofcheck_on_a_malformed_file_exits_3(capsys, tmp_path):
    path = tmp_path / "derivation.json"
    path.write_text(json.dumps({"m": 3, "lines": [{"formula": "p", "rule": "Premise"}]}))
    code, payload, _ = run(capsys, "proofcheck", "--file", str(path), "--goal", "p")
    assert code == 3
    assert payload == {"status": "error", "error": "line 1: Premise needs integer 'index'"}


def test_gen_is_deterministic_and_loadable(capsys, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        code, payload, _ = run(
            capsys,
            "gen",
            "--seed",
            "9",
            "--m",
            "4",
            "--worlds",
            "3",
            "--vars",
            "p,q",
            "--extra-relations",
            "1",
            "--out",
            str(out),
        )
        assert (code, payload["status"]) == (0, "ok")
        assert payload["worlds"] == 3
    assert out1.read_bytes() == out2.read_bytes()
    assert model_from_json(json.loads(out1.read_text())).m == 4


def test_gen_rejects_duplicate_vars(capsys, tmp_path):
    out = tmp_path / "x.json"
    code, payload, _ = run(
        capsys, "gen", "--seed", "1", "--m", "3", "--worlds", "2", "--vars", "p,p", "--out", str(out)
    )
    assert (code, payload) == (3, {"status": "error", "error": "duplicate variable names"})
    assert not out.exists()


@pytest.mark.parametrize("name", ["T", "_t", "P", "x y"])
def test_gen_rejects_names_no_formula_reads_as_a_variable(capsys, tmp_path, name):
    """T reads as the constant, _t is reserved, and P and x y do not parse:
    a model valuing them could not be queried by name."""
    out = tmp_path / "x.json"
    code, payload, _ = run(
        capsys, "gen", "--seed", "1", "--m", "3", "--worlds", "2", "--vars", f"p,{name},q",
        "--out", str(out),
    )
    assert (code, payload) == (3, {
        "status": "error",
        "error": f"--vars: {name!r} is not a variable name (names match [a-z][A-Za-z0-9_]*)",
    })
    assert not out.exists()


def test_gen_rejects_a_negative_relation_count(capsys, tmp_path):
    out = tmp_path / "x.json"
    code, payload, _ = run(
        capsys, "gen", "--seed", "1", "--m", "3", "--worlds", "2", "--vars", "p",
        "--extra-relations", "-1", "--out", str(out),
    )
    assert (code, payload["status"]) == (3, "error")
    assert payload["error"] == "n_extra_relations must be non-negative, got -1"
    assert not out.exists()


def test_gen_rejects_empty_vars(capsys, tmp_path):
    code, payload, _ = run(
        capsys,
        "gen",
        "--seed",
        "1",
        "--m",
        "3",
        "--worlds",
        "1",
        "--vars",
        " , ",
        "--out",
        str(tmp_path / "x.json"),
    )
    assert code == 3


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["nonsense"])
    assert info.value.code == 2
    capsys.readouterr()

    with pytest.raises(SystemExit) as info:
        main(["taut", "--m", "3"])  # missing --formula
    assert info.value.code == 2
    capsys.readouterr()

    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
    capsys.readouterr()


def test_an_abbreviated_flag_is_a_usage_error(capsys):
    """A flag counts only when spelled in full, so --max-world is not taken
    for --max-worlds and a flag added later cannot make a prefix ambiguous."""
    argv = ["search", "--m", "2", "--formula", "p => p", "--fid"]
    assert main([*argv, "--max-worlds", "1"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        main([*argv, "--max-world", "1"])
    assert info.value.code == 2
    assert "unrecognized arguments: --max-world 1" in capsys.readouterr().err


def test_main_builds_its_parser_once(capsys, monkeypatch):
    """Repeated calls, usage errors among them, print the same; build_parser
    still returns a new parser, and main does not call it again."""
    assert build_parser() is not build_parser()
    seen = []
    for _ in range(2):
        with pytest.raises(SystemExit) as info:
            main(["taut", "--m", "3"])  # missing --formula
        seen.append((info.value.code, capsys.readouterr()))
        seen.append((main(["taut", "--m", "3", "--formula", "p | ~p"]), capsys.readouterr()))
    assert seen[:2] == seen[2:]
    assert [code for code, _ in seen[:2]] == [2, 1]
    monkeypatch.setattr("mvcond.cli.build_parser", None)
    assert main(["parse", "--formula", "p"]) == 0


_HELP = (("-h", "--help"), "help", False, argparse.SUPPRESS, None, "_HelpAction",
         "show this help message and exit")
_PRETTY = (("--pretty",), "pretty", False, False, None, "_StoreTrueAction", "indent the JSON output")
# subcommand: (its help, then each action as (option strings, dest, required,
# default, type, action class name, help)), all in --help order
_PARSER_SHAPE = {
    "parse": ("parse and re-print a formula", [
        _HELP, _PRETTY,
        (("--formula",), "formula", True, None, None, "_StoreAction", None),
    ]),
    "taut": ("truth-table tautology check on the chain", [
        _HELP, _PRETTY,
        (("--m",), "m", True, None, int, "_StoreAction", None),
        (("--formula",), "formula", True, None, None, "_StoreAction", None),
        (("--abstract-conditionals",), "abstract_conditionals", False, False, None, "_StoreTrueAction",
         "replace conditional subformulas by fresh shared atoms"),
    ]),
    "eval": ("evaluate a formula at a world of a model", [
        _HELP, _PRETTY,
        (("--model",), "model", True, None, None, "_StoreAction", None),
        (("--world",), "world", True, None, None, "_StoreAction", None),
        (("--formula",), "formula", True, None, None, "_StoreAction", None),
    ]),
    "valid": ("is the formula designated at every world", [
        _HELP, _PRETTY,
        (("--model",), "model", True, None, None, "_StoreAction", None),
        (("--formula",), "formula", True, None, None, "_StoreAction", None),
    ]),
    "entails": ("do the premises force the formula at every world", [
        _HELP, _PRETTY,
        (("--model",), "model", True, None, None, "_StoreAction", None),
        (("--sigma",), "sigma", True, None, None, "_StoreAction", "file of premises, one per line"),
        (("--formula",), "formula", True, None, None, "_StoreAction", None),
    ]),
    "search": ("bounded countermodel search", [
        _HELP, _PRETTY,
        (("--m",), "m", True, None, int, "_StoreAction", None),
        (("--formula",), "formula", True, None, None, "_StoreAction", None),
        (("--max-worlds",), "max_worlds", False, 2, int, "_StoreAction", None),
        (("--fid",), "fid", False, False, None, "_StoreTrueAction",
         "only consider models satisfying the identity frame condition"),
        (("--values",), "values", False, None, None, "_StoreAction",
         "comma-separated relation numerators to enumerate (default: all)"),
        (("--budget",), "budget", False, None, int, "_StoreAction", "candidate budget; exit 4 if hit"),
    ]),
    "filtrate": ("quotient a model by agreement on a formula set", [
        _HELP, _PRETTY,
        (("--model",), "model", True, None, None, "_StoreAction", None),
        (("--sigma",), "sigma", True, None, None, "_StoreAction",
         "file of formulas, one per line; closed under subformulas automatically"),
        (("--out",), "out", True, None, None, "_StoreAction", "where to write the quotient model"),
    ]),
    "fid-check": ("check the identity frame condition on a model", [
        _HELP, _PRETTY,
        (("--model",), "model", True, None, None, "_StoreAction", None),
    ]),
    "proofcheck": ("check a derivation against a goal", [
        _HELP, _PRETTY,
        (("--file",), "file", True, None, None, "_StoreAction", None),
        (("--goal",), "goal", True, None, None, "_StoreAction", None),
        (("--rules-on-premises",), "rules_on_premises", False, False, None, "_StoreTrueAction",
         "allow congruence and graded rules on premise-dependent lines"),
    ]),
    "gen": ("generate a seeded random model", [
        _HELP, _PRETTY,
        (("--seed",), "seed", True, None, int, "_StoreAction", None),
        (("--m",), "m", True, None, int, "_StoreAction", None),
        (("--worlds",), "worlds", True, None, int, "_StoreAction", None),
        (("--vars",), "vars", True, None, None, "_StoreAction", "comma-separated variable names"),
        (("--extra-relations",), "extra_relations", False, 0, int, "_StoreAction", None),
        (("--out",), "out", True, None, None, "_StoreAction", None),
    ]),
}


def test_parser_shape_is_pinned():
    """The root, its subcommands in order with their help, and every
    subcommand action's option strings, dest, required, default, type,
    class and help; neither the root nor a subcommand takes a shortened flag."""
    root = build_parser()
    assert root.allow_abbrev is False
    assert (root.prog, root.description) == (
        "mvcond",
        "Many-valued conditional logic: parsing, evaluation, tautology "
        "checking, countermodel search, filtration, and proof checking. "
        "All output is JSON on stdout.",
    )
    (sub,) = [a for a in root._actions if isinstance(a, argparse._SubParsersAction)]
    assert (sub.dest, sub.required) == ("command", True)
    assert [(c.dest, c.help) for c in sub._choices_actions] == [
        (name, shape[0]) for name, shape in _PARSER_SHAPE.items()
    ]
    assert list(sub.choices) == list(_PARSER_SHAPE)
    for name, parser in sub.choices.items():
        assert (parser.prog, parser.allow_abbrev) == (f"mvcond {name}", False)
        got = [
            (tuple(a.option_strings), a.dest, a.required, a.default, a.type, type(a).__name__, a.help)
            for a in parser._actions
        ]
        assert got == _PARSER_SHAPE[name][1], name


def test_pretty_flag_controls_layout(capsys):
    main(["parse", "--formula", "p & q"])
    compact = capsys.readouterr().out
    main(["parse", "--formula", "p & q", "--pretty"])
    pretty = capsys.readouterr().out
    assert "\n" not in compact.strip()
    assert len(pretty.splitlines()) > 1
    assert json.loads(compact) == json.loads(pretty)


def test_repeated_invocations_are_bit_identical(capsys):
    argv = [
        "search",
        "--m",
        "3",
        "--max-worlds",
        "2",
        "--formula",
        "(p => (q -> r)) -> ((p => q) -> (p => r))",
    ]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["candidates"] == 11


def test_filtrate_bound_too_long_to_print_is_written_as_a_power(capsys, tmp_path):
    names = [f"v{k}" for k in range(4600)]
    doc = {
        "m": 9,
        "worlds": ["w0", "w1"],
        "vars": names,
        "valuation": {v: {"w0": k % 9, "w1": (k + 1) % 9} for k, v in enumerate(names)},
        "relations": [],
        "default_relation": 0,
    }
    model = tmp_path / "wide.json"
    model.write_text(json.dumps(doc))
    sigma = tmp_path / "sigma.txt"
    sigma.write_text("".join(v + "\n" for v in names))
    out = tmp_path / "quotient.json"
    code, payload, _ = run(
        capsys, "filtrate", "--model", str(model), "--sigma", str(sigma), "--out", str(out)
    )
    assert code == 0
    assert payload["status"] == "ok"
    assert payload["sigma_size"] == 4600
    assert payload["bound"] == "9^4600"


def test_filtrate_bound_switches_to_a_power_at_4300_digits():
    assert _power(10, 4298) == 10**4298  # 4299 digits
    assert _power(10, 4299) == "10^4299"  # 4300 digits
    assert _power(3, 3) == 27


@pytest.mark.parametrize(
    "argv",
    [
        ("taut", "--m", "0", "--formula", "p -> p"),
        ("taut", "--m", "1", "--formula", "p -> p"),
        ("search", "--m", "0", "--formula", "p => p"),
        ("search", "--m", "1", "--formula", "p => p"),
        ("gen", "--seed", "1", "--m", "0", "--worlds", "2", "--vars", "p", "--out", "unwritten.json"),
        ("gen", "--seed", "1", "--m", "1", "--worlds", "2", "--vars", "p", "--out", "unwritten.json"),
    ],
)
def test_chain_size_below_2_exits_3(capsys, argv):
    code, payload, _ = run(capsys, *argv)
    assert (code, payload["status"]) == (3, "error")
    assert "m must be at least 2" in payload["error"]


def test_input_too_deep_to_print_as_json_exits_3(capsys):
    code, payload, err = run(capsys, "parse", "--formula", "~" * 1100 + "p")
    assert (code, payload["status"]) == (3, "error")
    assert "nested too deeply" in payload["error"]
    assert "Traceback" not in err


HUGE_M = str(2**70)


@pytest.mark.parametrize(
    "argv,error",
    [
        (("taut", "--m", HUGE_M, "--formula", "p -> p"), f"m must be at most 1048576, got {HUGE_M}"),
        (("taut", "--m", str(MAX_M + 1), "--formula", "p -> p"), "m must be at most 1048576, got 1048577"),
        (("search", "--m", HUGE_M, "--max-worlds", "1", "--formula", "p"),
         f"m must be at most 1048576, got {HUGE_M}"),
        (("proofcheck", "--file", str(DATA / "derivations" / "huge_m.json"), "--goal", "p -> p"),
         "'m' must be at most 1048576"),
    ],
)
def test_an_m_above_the_largest_exits_3_with_one_line_on_stderr(capsys, argv, error):
    """Truth tables and the search go up to m = 2^20; a larger m from --m
    or from a derivation document is bad input, not a fault (m = 2^70
    would overflow the packed tables and the search's ranges)."""
    assert MAX_M == 2**20
    code, payload, err = run(capsys, *argv)
    assert (code, payload) == (3, {"status": "error", "error": error})
    assert err == error + "\n"


def test_a_truth_table_at_the_largest_m_runs(capsys):
    code, payload, _ = run(capsys, "taut", "--m", str(MAX_M), "--formula", "p -> p")
    assert (code, payload["status"]) == (0, "holds")


def test_internal_error_exits_5_with_json(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr("mvcond.cli._cmd_parse", broken)
    code = main(["parse", "--formula", "p"])
    captured = capsys.readouterr()
    assert code == 5
    lines = captured.out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {
        "status": "error",
        "error": "internal error: RuntimeError: boom",
    }
    assert "Traceback" in captured.err and "RuntimeError: boom" in captured.err


def test_an_overflow_inside_mvcond_is_an_internal_error(capsys, monkeypatch):
    """Only an m above the largest is bad input; an OverflowError from
    anywhere else is a fault, with its traceback."""
    def broken(args):
        raise OverflowError("boom")

    monkeypatch.setattr("mvcond.cli._cmd_taut", broken)
    code, payload, err = run(capsys, "taut", "--m", "3", "--formula", "p")
    assert (code, payload["error"]) == (5, "internal error: OverflowError: boom")
    assert "Traceback" in err


SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("argv", [
    ("parse", "--formula", "p"),
    ("search", "--formula", "(p => q) -> (p => (p -> q))", "--m", "3", "--max-worlds", "2",
     "--fid"),
])
def test_a_pipe_without_a_reader_exits_3_without_a_traceback(argv):
    """The read end is closed before the process starts, so its one write
    fails with EPIPE every time; the flush at exit then has nothing to say."""
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "mvcond", *argv], stdout=write,
                              stderr=subprocess.PIPE, env={"PYTHONPATH": str(SRC)},
                              text=True, timeout=60)
    finally:
        os.close(write)
    assert done.returncode == 3
    assert done.stderr == "cannot write the result to stdout\n"


def test_a_closed_stdout_exits_3_without_a_traceback():
    done = subprocess.run(
        ["sh", "-c", 'exec "$0" -m mvcond parse --formula p >&-', sys.executable],
        stderr=subprocess.PIPE, env={"PYTHONPATH": str(SRC)}, text=True, timeout=60,
    )
    assert done.returncode == 3
    assert done.stderr == "cannot write the result to stdout\n"


def test_a_closed_stderr_changes_neither_stdout_nor_the_exit_code():
    """fd 2 is closed before exec, so the diagnostic of an input error has
    nowhere to go; the JSON and exit 3 are as with stderr open."""
    done = subprocess.run([sys.executable, "-m", "mvcond", "parse", "--formula", "p &"],
                          stdout=subprocess.PIPE, env={"PYTHONPATH": str(SRC)}, text=True,
                          timeout=60, preexec_fn=lambda: os.close(2))
    assert done.returncode == 3
    assert done.stdout == '{"status":"error","error":"unexpected token \'\' at 3..3"}\n'


class _Unwritable(io.StringIO):
    def write(self, text):
        raise OSError("stderr is gone")


def test_an_internal_error_exits_5_when_stderr_cannot_be_written(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr("mvcond.cli._cmd_parse", broken)
    monkeypatch.setattr(sys, "stderr", _Unwritable())
    assert main(["parse", "--formula", "p"]) == 5
    assert capsys.readouterr().out == (
        '{"status":"error","error":"internal error: RuntimeError: boom"}\n'
    )


README =Path(__file__).parent.parent / "README.md"


def test_readme_taut_examples_are_exact(capsys):
    text = README.read_text(encoding="utf-8")
    examples = re.findall(r"^\$ mvcond (taut .*)\n(.*)$", text, re.MULTILINE)
    assert len(examples) == 2
    for command, expected in examples:
        code = main(shlex.split(command))
        assert capsys.readouterr().out == expected + "\n"
        assert code == (0 if '"holds"' in expected else 1)


def test_readme_model_and_filtration_examples_are_exact(capsys, tmp_path, monkeypatch):
    """Run in order, with premises.txt holding p and p => q as the README
    says; the fid-check line is printed only up to its "..."."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "premises.txt").write_text("p\np => q\n")
    text = README.read_text(encoding="utf-8")
    commands = "gen|eval|valid|entails|fid-check|filtrate"
    examples = re.findall(rf"^\$ mvcond ((?:{commands}) .*)\n(.*)$", text, re.MULTILINE)
    assert [command.split()[0] for command, _ in examples] == commands.split("|")
    for command, expected in examples:
        code = main(shlex.split(command))
        out = capsys.readouterr().out
        assert code == (1 if command.startswith("fid-check") else 0)
        if "..." in expected:
            head, tail = expected.split("...")
            assert out.startswith(head) and out.endswith(tail + "\n")
        else:
            assert out == expected + "\n"
