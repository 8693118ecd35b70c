"""Derivation checking: axioms, rules, graded-rule arithmetic, file IO."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

import mvcond.proof as proof
from mvcond.parser import parse
from mvcond.proof import (
    Ax,
    Derivation,
    DerivationFormatError,
    LTaut,
    Line,
    LineError,
    MP,
    Premise,
    RCEA,
    RCEC,
    Ra,
    RaGen,
    check_derivation,
    check_line,
    derivation_from_json,
    load_derivation,
    match_axiom,
    rule_eq,
)
from mvcond.syntax import And, Bot, Cond, I, Imp, J, Not, Top, Var, children, imp_chain, normalize

from formula_gen import chain_formula, random_formula
from reference import reference_rule_eq, table_rule_eq

DATA = Path(__file__).parent / "data" / "derivations"

P, Q, R, S = Var("p"), Var("q"), Var("r"), Var("s")


def odot(x: Fraction, y: Fraction) -> Fraction:
    return max(Fraction(0), x + y - 1)


def test_match_axiom_examples():
    assert match_axiom(parse("(p => (q & r)) -> ((p => q) & (p => r))")) == "A1"
    assert match_axiom(parse("((p => q) & (p => r)) -> (p => (q & r))")) == "A2"
    assert match_axiom(parse("p => T")) == "A3"
    assert match_axiom(parse("p => p")) is None
    assert match_axiom(parse("p => p"), allow_lid=True) == "LID"
    assert match_axiom(parse("(q -> q) => T")) == "A3"
    assert match_axiom(parse("p -> p")) is None
    # repeated metavariables must bind the same formula
    assert match_axiom(parse("(p => (q & r)) -> ((p => q) & (q => r))")) is None
    assert match_axiom(parse("(p => (q & r)) -> ((p => r) & (p => q))")) is None


def test_rule_equality_expands_constants_only():
    assert rule_eq(Top(), Imp(Var("_t"), Var("_t")))
    assert rule_eq(parse("F"), Not(Imp(Var("_t"), Var("_t"))))
    assert rule_eq(parse("p & T"), parse("p & T"))
    assert not rule_eq(parse("p & q"), parse("q & p"))
    # derived connectives are not expanded for rule matching
    assert not rule_eq(parse("p | q"), parse("(p -> q) -> q"))


def test_sample_rcec_mp_derivation_is_accepted():
    derivation = load_derivation(str(DATA / "rcec_mp.json"))
    goal = parse("(p => (q & r)) -> (p => (r & q))")
    verdict = check_derivation(derivation, goal)
    assert verdict.ok, verdict.message
    assert verdict.line is None


def test_sample_graded_derivation_is_accepted():
    derivation = load_derivation(str(DATA / "ra_level_one.json"))
    goal = parse(
        "I{0}(p => s) -> (I{1/2}(p => r) -> (I{1}(p => q) -> I{1}(p => q)))"
    )
    verdict = check_derivation(derivation, goal)
    assert verdict.ok, verdict.message


def test_single_axiom_line_derivation():
    derivation = Derivation(
        m=3,
        premises=(),
        lines=(Line(parse("p => T"), Ax("A3")),),
    )
    assert check_derivation(derivation, parse("p => T")).ok


def test_wrong_goal_is_reported_on_the_final_line():
    derivation = Derivation(
        m=3, premises=(), lines=(Line(parse("p => T"), Ax("A3")),)
    )
    verdict = check_derivation(derivation, parse("q => T"))
    assert not verdict.ok
    assert verdict.line == 1
    assert "goal" in verdict.message


def test_empty_derivation_is_rejected():
    verdict = check_derivation(Derivation(3, (), ()), parse("p -> p"))
    assert not verdict.ok
    assert "no lines" in verdict.message


def test_premise_lines():
    derivation = Derivation(
        m=3,
        premises=(parse("p -> q"), parse("p")),
        lines=(
            Line(parse("p -> q"), Premise(1)),
            Line(parse("p"), Premise(2)),
            Line(parse("q"), MP(2, 1)),
        ),
    )
    assert check_derivation(derivation, Q).ok

    wrong = Derivation(
        m=3,
        premises=(parse("p -> q"),),
        lines=(Line(parse("q -> p"), Premise(1)),),
    )
    verdict = check_derivation(wrong, parse("q -> p"))
    assert not verdict.ok and verdict.line == 1

    out_of_range = Derivation(
        m=3, premises=(), lines=(Line(P, Premise(1)),)
    )
    verdict = check_derivation(out_of_range, P)
    assert not verdict.ok and "no premise 1" in verdict.message


def test_mp_citation_order_matters():
    lines = (
        Line(parse("p -> (q -> p)"), LTaut()),
        Line(parse("p"), Premise(1)),
        Line(parse("q -> p"), MP(1, 2)),
    )
    derivation = Derivation(3, (parse("p"),), lines)
    verdict = check_derivation(derivation, parse("q -> p"))
    assert not verdict.ok
    assert verdict.line == 3
    assert "MP" in verdict.message
    fixed = Derivation(
        3,
        (parse("p"),),
        (lines[0], lines[1], Line(parse("q -> p"), MP(2, 1))),
    )
    assert check_derivation(fixed, parse("q -> p")).ok


def test_forward_citation_is_rejected():
    derivation = Derivation(
        m=3,
        premises=(),
        lines=(
            Line(parse("p -> p"), MP(1, 2)),
            Line(parse("(p -> p) -> (p -> p)"), LTaut()),
        ),
    )
    problem = check_line(derivation, 1)
    assert problem is not None
    assert "does not precede" in problem.message
    assert str(problem).startswith("line 1 (MP):")


def test_a_rule_that_is_not_a_justification_is_unknown():
    derivation = Derivation(m=3, premises=(), lines=(Line(parse("p -> p"), "LTaut"),))
    problem = check_line(derivation, 1)
    assert (problem.line, problem.rule, problem.message) == (1, "unknown", "unknown rule 'LTaut'")
    assert not check_derivation(derivation, parse("p -> p")).ok


def test_every_justification_has_exactly_one_rule_table_entry():
    assert set(proof._RULES) == set(proof.Justification.__args__)


def test_ltaut_rejects_non_tautologies_with_a_witness():
    derivation = Derivation(
        m=3, premises=(), lines=(Line(parse("p | ~p"), LTaut()),)
    )
    problem = check_line(derivation, 1)
    assert problem is not None
    assert "falsified" in problem.message
    assert "p=1/2" in problem.message


def test_ltaut_abstracts_conditionals():
    derivation = Derivation(
        m=3,
        premises=(),
        lines=(
            Line(parse("((p => q) -> (p => q))"), LTaut()),
            Line(parse("(p => q) | ~(p => q)"), LTaut()),
        ),
    )
    assert check_line(derivation, 1) is None
    problem = check_line(derivation, 2)
    assert problem is not None  # excluded middle still fails once abstracted


def test_rcea_and_rcec_patterns():
    derivation = Derivation(
        m=3,
        premises=(),
        lines=(
            Line(parse("p & q <-> q & p"), LTaut()),
            Line(parse("((p & q) => r) <-> ((q & p) => r)"), RCEA(1)),
            Line(parse("(r => (p & q)) <-> (r => (q & p))"), RCEC(1)),
        ),
    )
    assert check_line(derivation, 2) is None
    assert check_line(derivation, 3) is None

    swapped = Derivation(
        m=3,
        premises=(),
        lines=(
            Line(parse("p & q <-> q & p"), LTaut()),
            Line(parse("((q & p) => r) <-> ((p & q) => r)"), RCEA(1)),
        ),
    )
    problem = check_line(swapped, 2)
    assert problem is not None and problem.rule == "RCEA"

    not_conditionals = Derivation(
        m=3,
        premises=(),
        lines=(
            Line(parse("p <-> p"), LTaut()),
            Line(parse("(p -> q) <-> (p -> q)"), RCEA(1)),
        ),
    )
    problem = check_line(not_conditionals, 2)
    assert problem is not None


def graded_premise(a, b, gammas, gamma, m=3):
    thresholds = [Fraction(m - i, m - 1) for i in range(1, m + 1)]
    antecedents = [I(odot(t, b), g) for t, g in zip(thresholds, gammas)]
    return imp_chain(antecedents, I(odot(a, b), gamma))


def graded_conclusion(a, phi, gammas, gamma, m=3):
    thresholds = [Fraction(m - i, m - 1) for i in range(1, m + 1)]
    antecedents = [I(t, Cond(phi, g)) for t, g in zip(thresholds, gammas)]
    return imp_chain(antecedents, I(a, Cond(phi, gamma)))


def test_graded_rule_arithmetic_for_every_threshold_at_m3():
    """Premise indices follow max(0, a_i + b - 1) for every a and b."""
    gammas = (Q, R, S)
    descending_b = [Fraction(1), Fraction(1, 2), Fraction(0)]
    for a in (Fraction(1), Fraction(1, 2), Fraction(0)):
        premises = tuple(graded_premise(a, b, gammas, Q) for b in descending_b)
        lines = [Line(phi, Premise(k + 1)) for k, phi in enumerate(premises)]
        conclusion = graded_conclusion(a, P, gammas, Q)
        lines.append(Line(conclusion, Ra(a, P, gammas, Q, (1, 2, 3))))
        derivation = Derivation(3, premises, tuple(lines))
        verdict = check_derivation(derivation, conclusion, rules_on_premises=True)
        assert verdict.ok, f"a={a}: {verdict.message}"


def test_graded_rule_is_blocked_on_premise_dependent_lines_by_default():
    gammas = (Q, R, S)
    a = Fraction(1)
    premises = tuple(
        graded_premise(a, b, gammas, Q)
        for b in (Fraction(1), Fraction(1, 2), Fraction(0))
    )
    lines = [Line(phi, Premise(k + 1)) for k, phi in enumerate(premises)]
    lines.append(Line(graded_conclusion(a, P, gammas, Q), Ra(a, P, gammas, Q, (1, 2, 3))))
    derivation = Derivation(3, premises, tuple(lines))
    verdict = check_derivation(derivation, lines[-1].formula)
    assert not verdict.ok
    assert verdict.line == 4
    assert "premise" in verdict.message


def test_congruence_rules_are_blocked_on_premise_dependent_lines_by_default():
    derivation = Derivation(
        m=3,
        premises=(parse("q <-> r"),),
        lines=(
            Line(parse("q <-> r"), Premise(1)),
            Line(parse("(p => q) <-> (p => r)"), RCEC(1)),
        ),
    )
    verdict = check_derivation(derivation, parse("(p => q) <-> (p => r)"))
    assert not verdict.ok and verdict.line == 2
    relaxed = check_derivation(
        derivation, parse("(p => q) <-> (p => r)"), rules_on_premises=True
    )
    assert relaxed.ok


def test_mp_is_allowed_on_premise_dependent_lines():
    derivation = Derivation(
        m=3,
        premises=(P, parse("p -> q")),
        lines=(
            Line(P, Premise(1)),
            Line(parse("p -> q"), Premise(2)),
            Line(Q, MP(1, 2)),
        ),
    )
    assert check_derivation(derivation, Q).ok


def test_ra_threshold_must_lie_on_the_chain():
    gammas = (Q, R, S)
    conclusion = graded_conclusion(Fraction(1), P, gammas, Q)
    premises = tuple(
        graded_premise(Fraction(1), b, gammas, Q)
        for b in (Fraction(1), Fraction(1, 2), Fraction(0))
    )
    lines = [Line(phi, LTaut()) for phi in premises]
    lines.append(Line(conclusion, Ra(Fraction(1, 3), P, gammas, Q, (1, 2, 3))))
    derivation = Derivation(3, (), tuple(lines))
    problem = check_line(derivation, 4)
    assert problem is not None
    assert "chain" in problem.message or "1/3" in problem.message


def _ra_gen_two_formulas() -> Derivation:
    a_list = (Fraction(1), Fraction(1, 2))
    chis = (Q, R)
    a = Fraction(1)
    descending_b = [Fraction(1), Fraction(1, 2), Fraction(0)]
    lines = []
    for b in descending_b:
        antecedents = [I(odot(t, b), g) for t, g in zip(a_list, chis)]
        lines.append(Line(imp_chain(antecedents, I(odot(a, b), Q)), LTaut()))
    conclusion = imp_chain(
        [I(t, Cond(P, g)) for t, g in zip(a_list, chis)],
        I(a, Cond(P, Q)),
    )
    lines.append(Line(conclusion, RaGen(a, a_list, P, chis, Q, (1, 2, 3))))
    return Derivation(3, (), tuple(lines))


def test_ra_gen_with_two_formulas():
    derivation = _ra_gen_two_formulas()
    verdict = check_derivation(derivation, derivation.lines[-1].formula)
    assert verdict.ok, verdict.message


def test_ra_gen_line_loads_from_json():
    assert load_derivation(str(DATA / "ra_gen_two_formulas.json")) == _ra_gen_two_formulas()


def test_ra_gen_threshold_count_must_match_the_formulas():
    lines = list(_ra_gen_two_formulas().lines)
    rule = lines[-1].rule
    lines[-1] = Line(lines[-1].formula, RaGen(rule.a, rule.a_list, P, (Q,), Q, (1, 2, 3)))
    problem = check_line(Derivation(3, (), tuple(lines)), 4)
    assert str(problem) == "line 4 (RaGen): 2 thresholds for 1 formulas"


def test_ltaut_line_with_an_off_chain_index_is_rejected():
    derivation = Derivation(3, (), (Line(parse("J{1/3}(p) -> J{1/3}(p)"), LTaut()),))
    problem = check_line(derivation, 1)
    assert str(problem) == "line 1 (LTaut): index 1/3 is not on the 3-element chain"


def test_ra_gen_premise_count_must_match_the_chain():
    conclusion = imp_chain([I(Fraction(1), Cond(P, Q))], I(Fraction(1), Cond(P, Q)))
    lines = (
        Line(parse("I{1}(q) -> I{1}(q)"), LTaut()),
        Line(conclusion, RaGen(Fraction(1), (Fraction(1),), P, (Q,), Q, (1, 1))),
    )
    problem = check_line(Derivation(3, (), lines), 2)
    assert problem is not None
    assert "3 premise lines" in problem.message


def test_acceptance_is_invariant_under_variable_renaming():
    renaming = {"p": "u", "q": "v", "r": "w"}

    def rename(phi):
        from mvcond.syntax import J, children

        if isinstance(phi, Var):
            return Var(renaming.get(phi.name, phi.name))
        kids = [rename(child) for child in children(phi)]
        if not kids:
            return phi
        if isinstance(phi, (J, I)):
            return type(phi)(phi.index, kids[0])
        if len(kids) == 1:
            return type(phi)(kids[0])
        return type(phi)(kids[0], kids[1])

    derivation = load_derivation(str(DATA / "rcec_mp.json"))
    renamed = Derivation(
        m=derivation.m,
        premises=tuple(rename(phi) for phi in derivation.premises),
        lines=tuple(
            Line(rename(line.formula), line.rule) for line in derivation.lines
        ),
    )
    goal = rename(parse("(p => (q & r)) -> (p => (r & q))"))
    assert check_derivation(renamed, goal).ok


def test_check_line_index_bounds():
    derivation = Derivation(3, (), (Line(parse("p -> p"), LTaut()),))
    with pytest.raises(IndexError):
        check_line(derivation, 0)
    with pytest.raises(IndexError):
        check_line(derivation, 2)


def test_derivation_json_error_paths():
    with pytest.raises(DerivationFormatError):
        derivation_from_json({"m": 3, "premises": [], "lines": [{"formula": "p", "rule": "Zap"}]})
    with pytest.raises(DerivationFormatError):
        derivation_from_json({"m": 3, "lines": [{"formula": "p ->", "rule": "LTaut"}]})
    with pytest.raises(DerivationFormatError):
        derivation_from_json({"m": 1, "lines": []})
    with pytest.raises(DerivationFormatError):
        derivation_from_json({"m": 3, "lines": [{"formula": "p", "rule": "MP"}]})
    with pytest.raises(DerivationFormatError):
        derivation_from_json("not an object")
    with pytest.raises(DerivationFormatError):
        derivation_from_json(
            {"m": 3, "lines": [{"formula": "p", "rule": "Ra", "args": {"a": "1/0", "gammas": [], "phi": "p", "gamma": "p", "premise_lines": []}}]}
        )


def _one_line(rule, args, formula="p"):
    return {"m": 3, "lines": [{"formula": formula, "rule": rule, "args": args}]}


_RA_ARGS = {"a": "1", "phi": "p", "gammas": ["q"], "gamma": "q", "premise_lines": [1]}


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"m": 3, "premises": "p", "lines": []}, "'premises' must be a list"),
        ({"m": 3, "lines": {}}, "'lines' must be a list"),
        ({"m": 3, "lines": ["p"]}, "line 1: must be an object"),
        (_one_line("LTaut", []), "line 1: 'args' must be an object"),
        (_one_line("Premise", {"index": "1"}), "line 1: Premise needs integer 'index'"),
        (_one_line("RCEA", {"i": True}), "line 1: RCEA needs integer 'i'"),
        (_one_line("Ra", {**_RA_ARGS, "gammas": "q"}), "line 1: Ra needs a list 'gammas'"),
        (
            _one_line("RaGen", {**_RA_ARGS, "chis": ["q"]}),
            "line 1: RaGen needs lists 'chis' and 'a_list'",
        ),
        (_one_line("LTaut", {}, formula=3), "line 1: formula must be a string"),
        (_one_line("Ra", {**_RA_ARGS, "a": 0.5}), "line 1: threshold must be a string or int"),
        (
            _one_line("Ra", {**_RA_ARGS, "premise_lines": ["1"]}),
            "line 1: expected a list of integers",
        ),
    ],
)
def test_derivation_json_names_each_structural_error(doc, message):
    with pytest.raises(DerivationFormatError) as info:
        derivation_from_json(doc)
    assert str(info.value) == message


def test_load_derivation_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(DerivationFormatError, match="^bad derivation document: "):
        load_derivation(str(path))


def test_load_derivation_round_trip(tmp_path):
    doc = {
        "m": 3,
        "premises": ["p"],
        "lines": [
            {"formula": "p", "rule": "Premise", "args": {"index": 1}},
            {"formula": "p -> (q -> p)", "rule": "LTaut", "args": {}},
            {"formula": "q -> p", "rule": "MP", "args": {"i": 1, "j": 2}},
        ],
    }
    path = tmp_path / "derivation.json"
    path.write_text(json.dumps(doc))
    derivation = load_derivation(str(path))
    assert len(derivation.lines) == 3
    assert check_derivation(derivation, parse("q -> p")).ok


def test_line_error_rendering():
    problem = LineError(4, "MP", "something is off")
    assert str(problem) == "line 4 (MP): something is off"


def test_premise_dependence_is_computed_once_per_derivation(monkeypatch):
    calls = []
    original = proof._premise_dependence

    def counting(derivation):
        calls.append(derivation)
        return original(derivation)

    monkeypatch.setattr(proof, "_premise_dependence", counting)
    swap = parse("q & r <-> r & q")
    congruence = parse("(p => (q & r)) <-> (p => (r & q))")
    lines = (Line(swap, LTaut()),) + tuple(Line(congruence, RCEC(1)) for _ in range(12))
    assert check_derivation(Derivation(3, (), lines), congruence).ok
    assert len(calls) == 1

    goals = {
        "rcec_mp.json": "(p => (q & r)) -> (p => (r & q))",
        "ra_level_one.json": "I{0}(p => s) -> (I{1/2}(p => r) -> (I{1}(p => q) -> I{1}(p => q)))",
    }
    for name, goal in goals.items():
        derivation = load_derivation(str(DATA / name))
        calls.clear()
        verdict = check_derivation(derivation, parse(goal))
        assert len(calls) == 1
        assert verdict.ok
        # the public per-line check agrees line by line
        assert all(
            check_line(derivation, k) is None
            for k in range(1, len(derivation.lines) + 1)
        )


def test_rule_eq_matches_the_reference_on_random_pairs():
    rng = Random(17)
    reserved = Var("_t")
    for _ in range(300):
        x = random_formula(rng, 4, names=("p", "q"))
        # respell some constants, perturb some leaves, or keep x as it is
        y = _respell(x, rng, reserved)
        assert rule_eq(x, y) == reference_rule_eq(x, y)
        assert rule_eq(y, x) == reference_rule_eq(y, x)
        assert rule_eq(x, x)


def _spell_apart(phi, rng):
    """phi with each T and F written one of its ways (F also as ~T and
    ~(_t -> _t)), and now and then a leaf changed; J/I children keep
    their index."""
    reserved = Var("_t")
    if isinstance(phi, (Top, Bot)):
        truth = rng.choice((Top(), Imp(reserved, reserved)))
        return truth if isinstance(phi, Top) else rng.choice((Bot(), Not(truth)))
    if not children(phi):
        return rng.choice((phi, Var("q"), Top())) if rng.random() < 0.05 else phi
    kids = [_spell_apart(kid, rng) for kid in children(phi)]
    return type(phi)(phi.index, *kids) if hasattr(phi, "index") else type(phi)(*kids)


@pytest.mark.parametrize("seed", range(4))
def test_rule_eq_matches_the_node_table_version(seed):
    """Against table_rule_eq, the hash-consing comparison rule_eq replaced:
    independent random pairs, same-shape pairs spelled differently, and
    DAG-shaped normalize output, whose shared subtrees the lockstep walk
    must not walk twice to stay polynomial."""
    rng = Random(seed)
    names = ("p", "q", "_t")
    equal = 0
    for _ in range(400):
        x, y = random_formula(rng, 4, names), random_formula(rng, 4, names)
        assert rule_eq(x, y) == table_rule_eq(x, y)
        y = _spell_apart(x, rng)
        assert rule_eq(x, y) == rule_eq(y, x) == table_rule_eq(x, y)
        equal += rule_eq(x, y)
    assert 0 < equal < 400
    for _ in range(20):
        x = chain_formula(rng, 3, 9, names)
        y = _spell_apart(x, rng)
        for a, b in ((x, y), (normalize(x, 9), normalize(y, 9))):
            assert rule_eq(a, b) == rule_eq(b, a) == table_rule_eq(a, b)
    # 93 distinct subformulas, about 18.5 million nodes as a tree
    text = "J{1/2}(J{1/2}(J{1/2}(J{1/2}(p))))"
    assert rule_eq(normalize(parse(text), 9), normalize(parse(text), 9))
    # the shortcuts: one deep name or one J/I index changed, and T and F
    # against their spellings at a leaf
    indices = (Fraction(0), Fraction(1, 2), Fraction(1))
    names_changed = indices_changed = 0
    for _ in range(100):
        x = random_formula(rng, 6, names, indices=indices)
        path = _deepest(x, Var)
        if path:
            renamed = Var(rng.choice([v for v in names if v != _node_at(x, path).name]))
            y = _rebuilt(x, path, renamed)
            assert not rule_eq(x, y) and not rule_eq(y, x) and not table_rule_eq(x, y)
            assert rule_eq(x, _rebuilt(x, path, Var(_node_at(x, path).name)))
            names_changed += 1
        path = _deepest(x, (J, I))
        if path:
            node = _node_at(x, path)
            index = rng.choice([k for k in indices if k != node.index])
            y = _rebuilt(x, path, type(node)(index, node.child))
            assert not rule_eq(x, y) and not rule_eq(y, x) and not table_rule_eq(x, y)
            indices_changed += 1
    assert names_changed > 50 and indices_changed > 50
    for graded in (J, I):
        assert rule_eq(graded(1, P), graded(Fraction(1), P))
        assert table_rule_eq(graded(1, P), graded(Fraction(1), P))
        assert not rule_eq(graded(1, P), graded(Fraction(1, 2), P))
    truth = Imp(Var("_t"), Var("_t"))
    for connective in (And, Cond):
        for x, y, same in (
            (connective(P, Top()), connective(P, truth), True),
            (connective(Top(), P), connective(truth, P), True),
            (connective(P, Top()), connective(P, Imp(Var("_t"), Q)), False),
            (connective(P, Bot()), connective(P, Not(Top())), True),
            (connective(P, Bot()), connective(P, Not(truth)), True),
            (connective(P, Bot()), connective(P, Top()), False),
        ):
            assert rule_eq(x, y) == rule_eq(y, x) == table_rule_eq(x, y) == same
    assert rule_eq(Bot(), Not(Top())) and table_rule_eq(Bot(), Not(Top()))


def _deepest(phi, kind):
    """The child positions from phi down to a deepest node of the given
    type, the rightmost of them, or None if there is none."""
    found, stack = None, [(phi, ())]
    while stack:
        node, path = stack.pop()
        if isinstance(node, kind) and (found is None or len(path) > len(found)):
            found = path
        stack.extend((kid, path + (i,)) for i, kid in enumerate(children(node)))
    return found


def _node_at(phi, path):
    for i in path:
        phi = children(phi)[i]
    return phi


def _rebuilt(phi, path, node):
    """phi with the subformula at path replaced by node; the rest is new
    objects along the path and shared elsewhere."""
    if not path:
        return node
    kids = list(children(phi))
    kids[path[0]] = _rebuilt(kids[path[0]], path[1:], node)
    return type(phi)(phi.index, *kids) if hasattr(phi, "index") else type(phi)(*kids)


def _respell(phi, rng, reserved):
    roll = rng.random()
    if isinstance(phi, Top) and roll < 0.5:
        return Imp(reserved, reserved)
    if isinstance(phi, Bot) and roll < 0.5:
        return Not(Imp(reserved, reserved))
    if not children(phi):
        return Var("q") if roll > 0.9 else phi
    kids = [_respell(kid, rng, reserved) for kid in children(phi)]
    if hasattr(phi, "index"):
        return type(phi)(phi.index, *kids)
    return type(phi)(*kids)


def test_reimporting_the_package_releases_the_old_modules():
    """Nothing process-wide, such as typing's cache, may keep old classes."""
    script = (
        "import gc, importlib, sys, weakref\n"
        "importlib.import_module('mvcond.cli')\n"
        "old = weakref.ref(sys.modules['mvcond.proof'].Ra)\n"
        "for name in [n for n in sys.modules if n.split('.')[0] == 'mvcond']:\n"
        "    del sys.modules[name]\n"
        "importlib.import_module('mvcond.cli')\n"
        "gc.collect()\n"
        "print(old() is None)\n"
    )
    src = str(Path(proof.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.stdout.strip() == "True", done.stderr


def test_ra_line_lengths_are_tested_before_the_chain_is_built():
    """A huge m with one gamma is rejected without building m thresholds."""
    conclusion = parse("I{1}(p => q) -> I{1}(p => q)")
    rule = Ra(Fraction(1), P, (Q,), Q, (1,))
    derivation = Derivation(
        1_000_000, (), (Line(parse("q -> q"), LTaut()), Line(conclusion, rule))
    )
    started = time.perf_counter()
    problem = check_line(derivation, 2)
    assert time.perf_counter() - started < 0.1
    assert problem == LineError(2, "Ra", "needs exactly 1000000 indexed formulas, got 1")


def test_goal_and_repeated_metavariables_compare_modulo_constant_spelling():
    """Only library-built formulas can spell T as _t -> _t; the goal check
    and a repeated metavariable treat both spellings alike, and A3 still
    wants the constant T itself."""
    truth = Imp(Var("_t"), Var("_t"))
    lid = Cond(Top(), Top())
    assert check_derivation(Derivation(3, (), (Line(lid, Ax("LID")),)), Cond(truth, Top())).ok
    assert match_axiom(Cond(Top(), truth), allow_lid=True) == "LID"
    assert match_axiom(Cond(P, truth)) is None
    a1 = parse("(T => (q & r)) -> ((T => q) & (T => r))")
    respelled = Imp(a1.left, And(Cond(truth, Q), a1.right.right))
    assert match_axiom(respelled) == "A1"
