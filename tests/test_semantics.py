"""Model evaluation, propositions, frame-condition and format checks."""

import json
import tracemalloc
from dataclasses import FrozenInstanceError, fields
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from mvcond.parser import parse
from mvcond.search import random_model
from mvcond.semantics import (
    Evaluator,
    FidViolation,
    KripkeModel,
    MissingRelationError,
    ModelFormatError,
    Proposition,
    UndeclaredVariableError,
    UnknownWorldError,
    check_fid,
    entails_in_model,
    eval_formula,
    load_model,
    model_from_json,
    model_to_json,
    proposition_of,
    save_model,
    valid_in_model,
    validate_model,
)
from mvcond.syntax import Cond, I, J, Not, Top, Var, normalize
from mvcond.truthvalues import TruthValue

from formula_gen import chain_formula

P, Q, R = Var("p"), Var("q"), Var("r")


def build_model(m, worlds, valuation, default=None):
    """Model from numerator dicts; relations start empty."""
    vals = {
        var: {w: TruthValue(num, m) for w, num in per.items()}
        for var, per in valuation.items()
    }
    policy = None if default is None else TruthValue(default, m)
    return KripkeModel(
        m=m,
        worlds=tuple(worlds),
        vars=tuple(sorted(valuation)),
        valuation=vals,
        relations={},
        default_policy=policy,
    )


def add_relation(model, antecedent, rows):
    """Key a matrix of numerators by the antecedent's proposition."""
    prop = proposition_of(model, antecedent)
    matrix = tuple(
        tuple(TruthValue(entry, model.m) for entry in row) for row in rows
    )
    model.relations[prop] = matrix
    return prop


def test_core_clauses_on_a_single_world():
    model = build_model(3, ["w"], {"p": {"w": 1}})
    assert eval_formula(model, "w", parse("p -> p")) == TruthValue(2, 3)
    assert eval_formula(model, "w", parse("J{1/2}(p)")) == TruthValue(2, 3)
    assert eval_formula(model, "w", parse("~p")) == TruthValue(1, 3)
    assert eval_formula(model, "w", parse("T")) == TruthValue(2, 3)
    assert eval_formula(model, "w", parse("F")) == TruthValue(0, 3)


def test_derived_connectives_follow_the_value_table():
    model = build_model(5, ["w"], {"p": {"w": 3}, "q": {"w": 2}})
    cases = {
        "p & q": 2,
        "p | q": 3,
        "p (+) q": 4,
        "p (*) q": 1,
        "p (-) q": 1,
        "p <-> q": 3,
        "p -> q": 3,
        "I{1/2}(p)": 4,
        "J{1/2}(p)": 0,
    }
    for text, want in cases.items():
        assert eval_formula(model, "w", parse(text)) == TruthValue(want, 5)


def test_conditional_clause_is_a_guarded_infimum():
    model = build_model(3, ["x", "y"], {"p": {"x": 2, "y": 0}, "q": {"x": 0, "y": 1}})
    add_relation(model, P, [[2, 1], [0, 0]])
    # v_x(p => q) = min(R(x,x) -> q(x), R(x,y) -> q(y)) = min(1->0, 1/2->1/2)
    assert eval_formula(model, "x", Cond(P, Q)) == TruthValue(0, 3)
    assert eval_formula(model, "y", Cond(P, Q)) == TruthValue(2, 3)


def test_conditional_failure_of_ck_at_half():
    model = build_model(
        3,
        ["x", "y"],
        {"p": {"x": 0, "y": 0}, "q": {"x": 0, "y": 1}, "r": {"x": 0, "y": 0}},
    )
    add_relation(model, P, [[0, 1], [0, 0]])
    phi = parse("(p => (q -> r)) -> ((p => q) -> (p => r))")
    assert eval_formula(model, "x", phi) == TruthValue(1, 3)


def test_proposition_of_examples():
    model = build_model(3, ["w"], {"p": {"w": 2}})
    assert proposition_of(model, P) == Proposition(((), (), ("w",)))
    assert proposition_of(model, Not(P)) == Proposition((("w",), (), ()))
    two = build_model(3, ["x", "y"], {"p": {"x": 0, "y": 1}})
    assert proposition_of(two, P) == Proposition((("x",), ("y",), ()))


def test_proposition_scale_is_its_cell_count():
    assert Proposition((("w1",), (), ("w0", "w2"))).scale == 3
    model = random_model(2, 5, 3, ("p", "q"), 2)
    assert {prop.scale for prop in model.relations} == {5}


def test_proposition_cells_partition_the_worlds():
    model = random_model(7, 4, 3, ("p", "q"), 1)
    rng = Random(7)
    for _ in range(20):
        phi = chain_formula(rng, 4, 4, names=("p", "q"))
        prop = proposition_of(model, phi)
        flat = [w for cell in prop.cells for w in cell]
        assert sorted(flat) == sorted(model.worlds)
        assert len(prop.cells) == model.m


def test_validity_and_entailment():
    model = build_model(3, ["w"], {"p": {"w": 1}}, default=0)
    assert valid_in_model(model, Cond(P, Top()))
    assert not valid_in_model(model, P)
    assert entails_in_model(model, [P], P)
    assert entails_in_model(model, [parse("J{1}(p)")], P)
    # premises never designated: entailment holds vacuously
    assert entails_in_model(model, [parse("F")], P)


def test_conditional_with_designated_antecedent_truth():
    model = build_model(3, ["x", "y"], {"p": {"x": 2, "y": 2}, "q": {"x": 2, "y": 1}})
    add_relation(model, P, [[2, 2], [2, 2]])
    # q is 1/2 at y, reachable at degree 1, so x gets 1 -> 1/2
    assert eval_formula(model, "x", Cond(P, Q)) == TruthValue(1, 3)


def test_missing_relation_policies():
    strict = build_model(3, ["w"], {"p": {"w": 0}, "q": {"w": 2}})
    with pytest.raises(MissingRelationError):
        eval_formula(strict, "w", Cond(Q, P))
    lenient = build_model(3, ["w"], {"p": {"w": 0}, "q": {"w": 2}}, default=0)
    assert eval_formula(lenient, "w", Cond(Q, P)) == TruthValue(2, 3)
    constant_one = build_model(
        3, ["w"], {"p": {"w": 0}, "q": {"w": 2}}, default=2
    )
    assert eval_formula(constant_one, "w", Cond(Q, P)) == TruthValue(0, 3)


def test_a_relation_listing_worlds_out_of_model_order_keys_nothing():
    """Cells list worlds in model order, so a proposition with the right
    worlds in another order is not the antecedent's: it stays unkeyed."""
    def model(default, *worlds):
        built = build_model(3, ["x", "y"], {"p": {"x": 2, "y": 2}, "q": {"x": 0, "y": 0}}, default)
        built.relations[Proposition(((), (), worlds))] = ((TruthValue(2, 3),) * 2,) * 2
        return built

    phi = Cond(P, Q)
    with pytest.raises(MissingRelationError):
        eval_formula(model(None, "y", "x"), "x", phi)
    assert eval_formula(model(0, "y", "x"), "x", phi) == TruthValue(2, 3)
    assert eval_formula(model(None, "x", "y"), "x", phi) == TruthValue(0, 3)


def test_eval_error_paths():
    model = build_model(3, ["w"], {"p": {"w": 0}})
    with pytest.raises(UndeclaredVariableError):
        eval_formula(model, "w", Var("zz"))
    with pytest.raises(UnknownWorldError):
        eval_formula(model, "nowhere", P)


def test_graded_nodes_evaluate_two_valued():
    model = random_model(3, 5, 3, ("p", "q"), 0)
    rng = Random(3)
    for _ in range(10):
        child = chain_formula(rng, 3, 5, names=("p", "q"))
        for k in range(5):
            idx = Fraction(k, 4)
            for w in model.worlds:
                j_val = eval_formula(model, w, J(idx, child))
                i_val = eval_formula(model, w, I(idx, child))
                child_val = eval_formula(model, w, child)
                assert j_val.numerator in (0, 4)
                assert i_val.numerator in (0, 4)
                assert j_val.is_designated == (child_val.numerator == k)
                assert i_val.is_designated == (child_val.numerator >= k)


def test_eval_agrees_with_normalized_expansion():
    model = random_model(11, 3, 3, ("p", "q", "r"), 2)
    rng = Random(11)
    evaluator = Evaluator(model)
    for _ in range(40):
        phi = chain_formula(rng, 4, 3, names=("p", "q", "r"), allow_cond=True)
        expanded = normalize(phi, 3)
        for w in model.worlds:
            assert evaluator.value(w, phi) == evaluator.value(w, expanded)


def test_fid_check_cases():
    model = build_model(3, ["x", "y"], {"p": {"x": 0, "y": 0}})
    add_relation(model, P, [[0, 0], [0, 0]])
    assert check_fid(model) == []

    bad = build_model(3, ["x", "y"], {"p": {"x": 2, "y": 0}})
    add_relation(bad, P, [[0, 2], [0, 0]])  # degree 1 into a value-0 world
    violations = check_fid(bad)
    assert len(violations) == 1
    hit = violations[0]
    assert (hit.source, hit.target) == ("x", "y")
    assert hit.degree == TruthValue(2, 3)
    assert hit.target_cell == 1

    ok = build_model(3, ["x", "y"], {"p": {"x": 0, "y": 1}})
    add_relation(ok, P, [[0, 1], [0, 0]])  # degree 1/2 into a value-1/2 world
    assert check_fid(ok) == []


def test_fid_violation_records_keep_their_contract():
    bad = build_model(3, ["x", "y"], {"p": {"x": 2, "y": 0}})
    add_relation(bad, P, [[0, 2], [0, 0]])
    [hit] = check_fid(bad)
    built = FidViolation(hit.prop, "x", "y", TruthValue(2, 3), 1)
    assert hit == built
    assert hash(hit) == hash(built)
    assert repr(hit) == repr(built)
    assert repr(hit).startswith("FidViolation(prop=Proposition(cells=")
    assert repr(hit).endswith(
        ", source='x', target='y', degree=TruthValue(numerator=2, scale=3), "
        "target_cell=1)"
    )
    with pytest.raises(FrozenInstanceError):
        hit.target_cell = 2
    with pytest.raises(FrozenInstanceError):
        del hit.source
    assert hit == built
    assert [f.name for f in fields(FidViolation)] == [
        "prop",
        "source",
        "target",
        "degree",
        "target_cell",
    ]


def test_fid_models_make_identity_conditionals_designated():
    model = build_model(3, ["x", "y"], {"p": {"x": 2, "y": 1}})
    add_relation(model, P, [[2, 1], [0, 1]])
    assert check_fid(model) == []
    assert valid_in_model(model, Cond(P, P))


def test_validate_model_accepts_generated_models():
    model = random_model(5, 3, 4, ("p", "q"), 2)
    assert validate_model(model) == []


def test_validate_model_reports_structural_problems():
    # overlapping proposition cells
    broken = build_model(3, ["x", "y"], {"p": {"x": 0, "y": 0}})
    prop = Proposition((("x", "y"), ("x",), ()))
    broken.relations[prop] = (
        (TruthValue(0, 3), TruthValue(0, 3)),
        (TruthValue(0, 3), TruthValue(0, 3)),
    )
    assert any("partition" in note or "cell" in note for note in validate_model(broken))

    # missing valuation entry
    gappy = build_model(3, ["x", "y"], {"p": {"x": 0}})
    assert validate_model(gappy)

    # empty world list
    empty = KripkeModel(3, (), ("p",), {"p": {}}, {}, None)
    assert validate_model(empty)

    # wrong scale inside the valuation
    off = build_model(3, ["x"], {"p": {"x": 0}})
    off.valuation["p"]["x"] = TruthValue(3, 4)
    assert validate_model(off)


_ZERO_ROWS = ((TruthValue(0, 3),) * 2,) * 2


def _keyed(cells, rows=_ZERO_ROWS):
    """A defect: the model's one relation replaced by rows keyed by cells."""
    return lambda model: setattr(model, "relations", {Proposition(cells): rows})


def _duplicate_world(model):
    model.worlds += ("x",)
    model.relations.clear()  # its matrix would no longer be n x n


@pytest.mark.parametrize(
    "defect, message",
    [
        (lambda model: setattr(model, "m", 1), "m must be at least 2, got 1"),
        (_duplicate_world, "duplicate world ids"),
        (lambda model: setattr(model, "vars", ("p", "q")), "variable 'q' missing from valuation"),
        (
            lambda model: model.valuation["p"].update(z=TruthValue(0, 3)),
            "variable 'p' valued at unknown world 'z'",
        ),
        (
            lambda model: model.valuation.update(r={}),
            "valuation mentions undeclared variable 'r'",
        ),
        (_keyed((("x",), ("y",))), "relation 0: proposition has 2 cells, expected 3"),
        (
            _keyed((("x",), (), ("y", "z"))),
            "relation 0: proposition mentions unknown world 'z'",
        ),
        (_keyed((("x",), (), ())), "relation 0: proposition cells do not cover world 'y'"),
        (_keyed((("x",), (), ("y",)), _ZERO_ROWS[:1]), "relation 0: matrix is not 2x2"),
        (
            _keyed((("x",), (), ("y",)), (_ZERO_ROWS[0], (TruthValue(0, 3), TruthValue(1, 4)))),
            "relation 0: matrix entry has scale 4, expected 3",
        ),
        (
            lambda model: setattr(model, "default_policy", TruthValue(0, 4)),
            "default policy has scale 4, expected 3",
        ),
    ],
    ids=[
        "m", "worlds", "vars", "valued-world", "undeclared", "cell-count",
        "prop-world", "cover", "shape", "entry-scale", "policy-scale",
    ],
)
def test_validate_model_names_each_defect(defect, message):
    model = build_model(3, ["x", "y"], {"p": {"x": 0, "y": 2}})
    model.relations[Proposition((("x",), (), ("y",)))] = _ZERO_ROWS
    assert validate_model(model) == []
    defect(model)
    assert validate_model(model) == [message]


@pytest.mark.parametrize("name", ["T", "F", "_t", "P", "x y", "", "p\n"])
def test_validate_model_names_each_variable_no_formula_can_read(name):
    """T reads as the constant, _t is reserved, and the rest do not parse
    as one variable: eval --formula T would read the constant, not the
    model's T."""
    model = random_model(1, 3, 2, ("p", name))
    assert validate_model(model) == [
        f"{name!r} is not a variable name (names match [a-z][A-Za-z0-9_]*)"
    ]


def test_load_model_rejects_the_names_of_a_generated_model_no_formula_can_read(tmp_path):
    path = tmp_path / "model.json"
    save_model(random_model(1, 3, 2, ("T", "_t", "x y")), str(path))
    with pytest.raises(ModelFormatError) as caught:
        load_model(str(path))
    assert str(caught.value) == "; ".join(
        f"{name!r} is not a variable name (names match [a-z][A-Za-z0-9_]*)"
        for name in ("T", "_t", "x y")
    )


def test_validate_model_names_the_first_bad_entry_of_each_bad_row():
    model = build_model(3, ["x", "y", "z"], {"p": {"x": 0, "y": 1, "z": 2}})
    ok = TruthValue(0, 3)
    model.relations[Proposition((("x",), ("y",), ("z",)))] = (
        (ok, TruthValue(0, 4), TruthValue(0, 5)),
        (ok, ok, ok),
        (TruthValue(0, 6), ok, TruthValue(0, 4)),
    )
    assert validate_model(model) == [
        "relation 0: matrix entry has scale 4, expected 3",
        "relation 0: matrix entry has scale 6, expected 3",
    ]


def test_model_json_round_trip():
    model = random_model(9, 3, 3, ("p", "q"), 1)
    doc = model_to_json(model)
    again = model_from_json(doc)
    assert again == model
    assert model_to_json(again) == doc


def test_model_json_ignores_unknown_top_level_keys():
    model = random_model(2, 3, 2, ("p",), 0)
    doc = model_to_json(model)
    doc["witness_world"] = "w0"
    doc["class_map"] = {"w0": "c0"}
    assert model_from_json(doc) == model


def test_model_json_rejects_malformed_documents():
    model = random_model(2, 3, 2, ("p",), 0)
    good = model_to_json(model)

    no_m = dict(good)
    del no_m["m"]
    with pytest.raises(ModelFormatError):
        model_from_json(no_m)

    bad_value = json.loads(json.dumps(good))
    bad_value["valuation"]["p"]["w0"] = 7
    with pytest.raises(ModelFormatError):
        model_from_json(bad_value)

    stringly = json.loads(json.dumps(good))
    stringly["valuation"]["p"]["w0"] = "2"
    with pytest.raises(ModelFormatError):
        model_from_json(stringly)

    with pytest.raises(ModelFormatError):
        model_from_json([1, 2, 3])


_DOC = model_to_json(random_model(2, 3, 2, ("p",), 0))
_RELATION = _DOC["relations"][0]
_NOT_A_RELATION = "relation 0 must have 'prop' and 'matrix'"
_NOT_A_PROP = "relation 0: 'prop' must be a list of world lists"


@pytest.mark.parametrize(
    "change, message",
    [
        ({"m": 1}, "'m' must be an integer >= 2"),
        ({"m": True}, "'m' must be an integer >= 2"),
        ({"m": "3"}, "'m' must be an integer >= 2"),
        ({"worlds": "w0"}, "'worlds' must be a list of strings"),
        ({"worlds": ["w0", 1]}, "'worlds' must be a list of strings"),
        ({"vars": [None]}, "'vars' must be a list of strings"),
        ({"valuation": [["p"]]}, "'valuation' must be an object"),
        ({"valuation": {"p": [0, 2]}}, "valuation of 'p' must be an object"),
        ({"relations": {}}, "'relations' must be a list"),
        ({"relations": [[_RELATION]]}, _NOT_A_RELATION),
        ({"relations": [{"matrix": _RELATION["matrix"]}]}, _NOT_A_RELATION),
        ({"relations": [{"prop": _RELATION["prop"]}]}, _NOT_A_RELATION),
        ({"relations": [{**_RELATION, "prop": "w0"}]}, _NOT_A_PROP),
        ({"relations": [{**_RELATION, "prop": [["w0"], "w1", []]}]}, _NOT_A_PROP),
        ({"relations": [{**_RELATION, "prop": [["w0"], [1], []]}]}, _NOT_A_PROP),
        (
            {"relations": [{**_RELATION, "matrix": [[0, 0], [0, 0]]}]},
            "relation 0: 'matrix' must be an object",
        ),
    ],
)
def test_model_from_json_names_each_structural_error(change, message):
    with pytest.raises(ModelFormatError) as info:
        model_from_json({**_DOC, **change})
    assert str(info.value) == f"bad model document: {message}"


def test_save_and_load_model(tmp_path):
    model = random_model(4, 4, 3, ("p", "q"), 1)
    path = tmp_path / "model.json"
    save_model(model, str(path))
    assert load_model(str(path)) == model
    text = path.read_text()
    assert text.endswith("\n")
    assert json.loads(text)["m"] == 4


def test_save_model_builds_no_list_per_cell(tmp_path):
    """At m = 10^6 a one-world relation's proposition has 10^6 cells, all
    but one empty; they are written from the proposition's own cells, not
    copied into 10^6 lists (64.5 MB traced when they were)."""
    model = random_model(1, 10**6, 1, ("p",), 0)
    tracemalloc.start()
    try:
        save_model(model, str(tmp_path / "model.json"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000


def test_load_model_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ModelFormatError):
        load_model(str(path))


def test_load_model_rejects_a_document_that_fails_validation(tmp_path):
    """model_from_json accepts the document; validate_model's diagnostics,
    joined, are load_model's error."""
    doc = {**_DOC, "vars": ["p", "p"], "relations": [{**_RELATION, "prop": [["w0"], [], []]}]}
    model_from_json(doc)
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError) as info:
        load_model(str(path))
    assert str(info.value) == (
        "duplicate variable names; relation 0: proposition cells do not cover world 'w1'"
    )


def test_golden_seeded_model_document():
    """The seed-1 generator output is frozen; regeneration must match it."""
    golden_path = Path(__file__).parent / "data" / "golden_model_seed1.json"
    golden = json.loads(golden_path.read_text(encoding="utf-8"))
    model = random_model(1, 3, 2, ("p",), 0)
    assert model_to_json(model) == golden
    assert model_from_json(golden) == model


def test_documents_order_relations_cell_by_cell():
    """Relations are written in the order of their propositions' cells
    compared one by one, each as its worlds' model indexes (a world the
    model lacks counts as one past the last), with empty cells, unknown
    worlds and propositions of the wrong cell count mixed in."""
    rng = Random(11)
    worlds = ("w0", "w1", "w2")
    index = {w: i for i, w in enumerate(worlds)}
    row = (TruthValue(0, 4),) * len(worlds)
    for _ in range(40):
        props = {
            Proposition(
                tuple(
                    tuple(rng.sample(worlds + ("zz",), rng.choice((0, 0, 1, 2))))
                    for _ in range(rng.choice((3, 4, 4, 4, 5)))
                )
            )
            for _ in range(12)
        }
        model = build_model(4, worlds, {})
        model.relations = {prop: (row,) * len(worlds) for prop in props}
        want = sorted(
            props,
            key=lambda prop: tuple(
                tuple(index.get(w, len(index)) for w in cell) for cell in prop.cells
            ),
        )
        got = [entry["prop"] for entry in model_to_json(model)["relations"]]
        assert got == [[list(cell) for cell in prop.cells] for prop in want]


def _entries(model):
    """Every TruthValue a model holds: valuation, matrix entries, default."""
    yield from (tv for per_world in model.valuation.values() for tv in per_world.values())
    yield from (tv for matrix in model.relations.values() for row in matrix for tv in row)
    if model.default_policy is not None:
        yield model.default_policy


def test_models_share_one_value_per_numerator(monkeypatch):
    """Loading or generating a model at m = 10**6 builds one TruthValue per
    numerator it uses, not one per entry and not the whole chain; and an
    Evaluator hands out one TruthValue per numerator, however often asked."""
    built = []
    check = TruthValue.__post_init__

    def counted(self):
        built.append(self.numerator)
        check(self)

    monkeypatch.setattr(TruthValue, "__post_init__", counted)
    m, worlds = 10**6, ["w0", "w1"]
    rng = Random(3)
    used = (0, 7, m // 2, m - 1)  # entries repeat, so one object per entry is too many
    prop = [[]] * m
    prop[7], prop[m - 1] = ["w0"], ["w1"]
    doc = {
        "m": m,
        "worlds": worlds,
        "vars": ["p", "q"],
        "valuation": {v: {w: rng.choice(used) for w in worlds} for v in ("p", "q")},
        "relations": [
            {"prop": prop, "matrix": {x: {y: rng.choice(used) for y in worlds} for x in worlds}}
        ],
        "default_relation": 7,
    }
    for make in (lambda: model_from_json(doc), lambda: random_model(5, m, 2, ("p",), 0)):
        built.clear()
        model = make()
        shared: dict[int, TruthValue] = {}
        for tv in _entries(model):
            assert shared.setdefault(tv.numerator, tv) is tv
        assert len(built) <= len(shared)
    model = random_model(5, 5, 16, ("p", "q"), 2)
    evaluator = Evaluator(model)
    phis = [parse(text) for text in ("p => q", "(p => q) -> ~q", "p (+) q", "~(p => p)")]
    built.clear()
    answers = [evaluator.value(w, phi) for _ in range(3) for phi in phis for w in model.worlds]
    answers += [hit[1] for phi in phis if (hit := evaluator.failing_world(phi))]
    hit = evaluator.entailment_witness(phis[:1], phis[1])
    answers += [hit[1]] if hit else []
    shared = {}
    for tv in answers:
        assert shared.setdefault(tv.numerator, tv) is tv
    assert len(built) <= len(shared) < len(answers)
