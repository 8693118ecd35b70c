"""The proof checker against the axiom matchers, line checker and rule
decoder in reference.py: every verdict, line error, justification and
message must be equal."""

import json
from dataclasses import replace
from fractions import Fraction
from itertools import permutations
from pathlib import Path
from random import Random

import pytest

from mvcond import proof
from mvcond.parser import parse
from mvcond.proof import (
    MP,
    RCEA,
    RCEC,
    Ax,
    Derivation,
    DerivationFormatError,
    Line,
    LTaut,
    Premise,
    Ra,
    RaGen,
    check_derivation,
    check_line,
    derivation_from_json,
    load_derivation,
    match_axiom,
    _justification_from_json,
)
from mvcond.syntax import Bot, Cond, I, Iff, Imp, J, Not, Top, Var, children, imp_chain

from formula_gen import chain_formula, random_formula
from reference import (
    reference_check_derivation,
    reference_check_line,
    reference_justification_from_json,
    reference_match_axiom,
)
from test_acceptance import RA_GOAL, RA_MUTATIONS, RCEC_GOAL, RCEC_MUTATIONS, apply_mutation

DATA = Path(__file__).parent / "data" / "derivations"
NAMES = ("p", "q", "r")
SCHEMAS = {
    "A1": parse("(a => (b & c)) -> ((a => b) & (a => c))"),
    "A2": parse("((a => b) & (a => c)) -> (a => (b & c))"),
    "A3": parse("a => T"),
    "LID": parse("a => a"),
}
TRUTH = Imp(Var("_t"), Var("_t"))


def _agree(derivation, goal):
    """Both checkers give the same verdict and the same line errors, with
    and without rules on premises; returns the library's default verdict."""
    for flag in (True, False):
        got = check_derivation(derivation, goal, flag)
        assert got == reference_check_derivation(derivation, goal, flag)
        for k in range(1, len(derivation.lines) + 1):
            assert check_line(derivation, k, flag) == reference_check_line(derivation, k, flag)
    return got


def _rebuild(phi, kids):
    if hasattr(phi, "index"):
        return type(phi)(phi.index, *kids)
    return type(phi)(*kids) if kids else phi


def _subformulas(phi):
    out = [phi]
    for kid in children(phi):
        out.extend(_subformulas(kid))
    return out


def _replace_at(phi, k, build):
    """phi with its k-th subformula in pre-order (counted in the one-item
    list) replaced by build(that subformula)."""
    if k[0] == 0:
        k[0] = -1
        return build(phi)
    k[0] -= 1
    return _rebuild(phi, [_replace_at(kid, k, build) for kid in children(phi)])


def _swap_somewhere(phi, rng):
    """phi with the sides of one binary node swapped, or phi if it has none."""
    binary = [k for k, node in enumerate(_subformulas(phi)) if len(children(node)) == 2]
    if not binary:
        return phi
    return _replace_at(phi, [rng.choice(binary)], lambda node: type(node)(node.right, node.left))


def _respell(phi):
    """phi with every T spelled as _t -> _t and every F as its negation."""
    if isinstance(phi, Top):
        return TRUTH
    if isinstance(phi, Bot):
        return Not(TRUTH)
    return _rebuild(phi, [_respell(kid) for kid in children(phi)])


def _instance(schema, binding, odd=None):
    """schema with binding[name] for each metavariable; odd = (k, formula)
    puts formula for the k-th metavariable occurrence instead."""
    count = [-1]

    def walk(node):
        if isinstance(node, Var):
            count[0] += 1
            return odd[1] if odd and odd[0] == count[0] else binding[node.name]
        return _rebuild(node, [walk(kid) for kid in children(node)])

    return walk(schema)


def _occurrences(schema):
    return sum(isinstance(node, Var) for node in _subformulas(schema))


def _chain_desc(m):
    return [Fraction(m - 1 - t, m - 1) for t in range(m)]


def _odot(x, b):
    return max(Fraction(0), x + b - 1)


class _Builder:
    """Random valid derivations: axiom instances, premises with MP, LTaut
    lines, congruence steps and graded rules, each line justified."""

    def __init__(self, rng):
        self.rng = rng
        self.m = rng.choice((2, 3, 4))
        self.premises = []
        self.lines = []

    def formula(self, depth=2, allow_cond=False):
        return chain_formula(self.rng, depth, self.m, names=NAMES, allow_cond=allow_cond)

    def add(self, formula, rule):
        self.lines.append(Line(formula, rule))
        return len(self.lines)

    def axiom(self):
        name = self.rng.choice(list(SCHEMAS))
        binding = {v: self.formula(1, True) for v in "abc"}
        return self.add(_instance(SCHEMAS[name], binding), Ax(name))

    def premise_mp(self):
        x, y = self.formula(), self.formula()
        self.premises += [x, Imp(x, y)]
        i = self.add(x, Premise(len(self.premises) - 1))
        j = self.add(Imp(x, y), Premise(len(self.premises)))
        return self.add(y, MP(i, j))

    def weaken(self):
        i = self.rng.randrange(1, len(self.lines) + 1) if self.lines else self.axiom()
        x, y = self.lines[i - 1].formula, self.formula(1)
        j = self.add(Imp(x, Imp(y, x)), LTaut())
        return self.add(Imp(y, x), MP(i, j))

    def congruence(self):
        x, c = self.formula(), self.formula(1)
        i = self.add(Iff(x, Not(Not(x))), LTaut())
        if self.rng.random() < 0.5:
            a, b, rule = Cond(x, c), Cond(Not(Not(x)), c), RCEA(i)
        else:
            a, b, rule = Cond(c, x), Cond(c, Not(Not(x))), RCEC(i)
        k = self.add(Iff(a, b), rule)
        j = self.add(Imp(Iff(a, b), Imp(a, b)), LTaut())
        return self.add(Imp(a, b), MP(k, j))

    def graded(self):
        m, rng = self.m, self.rng
        phi = self.formula(1)
        general = rng.random() < 0.5
        if general:
            parts = [self.formula(1) for _ in range(rng.randrange(1, 4))]
            thresholds = [rng.choice(_chain_desc(m)) for _ in parts]
        else:
            parts, thresholds = [self.formula(1) for _ in range(m)], _chain_desc(m)
        pick = rng.randrange(len(parts))
        a, target = thresholds[pick], parts[pick]
        cited = []
        for b in _chain_desc(m):
            tests = [I(_odot(t, b), part) for t, part in zip(thresholds, parts)]
            cited.append(self.add(imp_chain(tests, I(_odot(a, b), target)), LTaut()))
        tests = [I(t, Cond(phi, part)) for t, part in zip(thresholds, parts)]
        conclusion = imp_chain(tests, I(a, Cond(phi, target)))
        if general:
            rule = RaGen(a, tuple(thresholds), phi, tuple(parts), target, tuple(cited))
        else:
            rule = Ra(a, phi, tuple(parts), target, tuple(cited))
        return self.add(conclusion, rule)

    def build(self):
        steps = [self.axiom, self.premise_mp, self.weaken, self.congruence, self.graded]
        for _ in range(self.rng.randrange(2, 6)):
            self.rng.choice(steps)()
        derivation = Derivation(self.m, tuple(self.premises), tuple(self.lines))
        return derivation, self.lines[-1].formula


def _mutate_rule(rule, rng, n, m):
    """A wrong citation, rule name, threshold, length or argument."""
    cite = lambda: rng.randrange(0, n + 2)
    if isinstance(rule, (Premise, LTaut)):
        return rng.choice([Premise(cite()), Ax("LID"), MP(cite(), cite())])
    if isinstance(rule, Ax):
        return Ax(rng.choice(["A1", "A2", "A3", "LID", "A4"]))
    if isinstance(rule, MP):
        return rng.choice([MP(rule.j, rule.i), MP(cite(), rule.j), MP(rule.i, cite())])
    if isinstance(rule, (RCEA, RCEC)):
        return rng.choice([RCEC if isinstance(rule, RCEA) else RCEA, type(rule)])(cite())
    lines = list(rule.premise_lines)
    off_chain = rng.choice([Fraction(1, 7), Fraction(3, 2), Fraction(-1), Fraction(1, m)])
    choices = [
        replace(rule, premise_lines=tuple(rng.sample(lines, len(lines)))),
        replace(rule, premise_lines=tuple(lines[:-1])),
        replace(rule, premise_lines=tuple(lines + [lines[0]])),
        replace(rule, a=off_chain),
        replace(rule, phi=Not(rule.phi)),
    ]
    if isinstance(rule, Ra):
        choices += [
            replace(rule, gammas=rule.gammas[:-1]),
            replace(rule, gammas=rule.gammas + (rule.gamma,)),
            replace(rule, gamma=Not(rule.gamma)),
        ]
    else:
        k = rng.randrange(len(rule.a_list))
        a_list = rule.a_list[:k] + (off_chain,) + rule.a_list[k + 1:]
        choices += [
            replace(rule, a_list=a_list),
            replace(rule, a_list=rule.a_list[:-1]),
            replace(rule, chis=rule.chis + (rule.chi,)),
            replace(rule, chi=Not(rule.chi)),
        ]
    return rng.choice(choices)


def _mutate(derivation, goal, rng):
    """One seeded mutation of a derivation or its goal."""
    lines, premises = list(derivation.lines), list(derivation.premises)
    k = rng.randrange(len(lines))
    line = lines[k]
    roll = rng.random()
    if roll < 0.3:
        lines[k] = replace(line, rule=_mutate_rule(line.rule, rng, len(lines), derivation.m))
    elif roll < 0.55:
        lines[k] = replace(line, formula=_swap_somewhere(line.formula, rng))
    elif roll < 0.7 and isinstance(line.rule, Ax):
        # one occurrence of a metavariable gets a different formula
        schema = SCHEMAS.get(line.rule.name, SCHEMAS["A1"])
        binding = {v: random_formula(rng, 1, NAMES) for v in "abc"}
        odd = (rng.randrange(_occurrences(schema)), random_formula(rng, 1, NAMES))
        lines[k] = replace(line, formula=_instance(schema, binding, odd))
    elif roll < 0.8:
        # T spelled as _t -> _t where every check compares modulo spelling
        if premises:
            j = rng.randrange(len(premises))
            premises[j] = _respell(premises[j])
        if k < len(lines) - 1 and not isinstance(line.rule, Ax):
            lines[k] = replace(line, formula=_respell(line.formula))
    elif roll < 0.9:
        goal = _swap_somewhere(goal, rng)
    else:
        at = [rng.randrange(len(_subformulas(line.formula)))]
        other = chain_formula(rng, 1, derivation.m, names=NAMES)
        lines[k] = replace(line, formula=_replace_at(line.formula, at, lambda _: other))
    return replace(derivation, premises=tuple(premises), lines=tuple(lines)), goal


def test_sample_derivations_and_gauntlet_match_reference():
    for filename, goal_text, mutations in (
        ("rcec_mp.json", RCEC_GOAL, RCEC_MUTATIONS),
        ("ra_level_one.json", RA_GOAL, RA_MUTATIONS),
    ):
        path = DATA / filename
        goal = parse(goal_text)
        assert _agree(load_derivation(str(path)), goal).ok
        doc = json.loads(path.read_text(encoding="utf-8"))
        for line_index, field, value, _ in mutations:
            mutated = derivation_from_json(apply_mutation(doc, line_index, field, value))
            assert not _agree(mutated, goal).ok


@pytest.mark.parametrize("seed", range(8))
def test_seeded_mutations_of_valid_derivations_match_reference(seed):
    rng = Random(seed)
    rejected = 0
    for _ in range(6):
        derivation, goal = _Builder(rng).build()
        assert _agree(derivation, goal).ok
        for _ in range(10):
            rejected += not _agree(*_mutate(derivation, goal, rng)).ok
    assert rejected >= 20  # most mutations break the derivation


def test_match_axiom_matches_reference():
    rng = Random(41)
    formulas = [random_formula(rng, rng.randrange(1, 5)) for _ in range(400)]
    for _ in range(200):
        schema = SCHEMAS[rng.choice(list(SCHEMAS))]
        shared = random_formula(rng, 2)
        binding = {v: rng.choice([shared, random_formula(rng, 2)]) for v in "abc"}
        formulas.append(_instance(schema, binding))
        odd = (rng.randrange(_occurrences(schema)), random_formula(rng, 1))
        formulas.append(_instance(schema, binding, odd))
    found = set()
    for phi in formulas:
        for allow_lid in (False, True):
            name = match_axiom(phi, allow_lid)
            assert name == reference_match_axiom(phi, allow_lid)
            found.add(name)
    assert found == {None, *SCHEMAS}


# one well-formed args object per rule; an unknown rule name takes any
_RULE_ARGS = {
    "Premise": {"index": 1},
    "LTaut": {},
    "A1": {},
    "A2": {},
    "A3": {},
    "LID": {},
    "MP": {"i": 1, "j": 2},
    "RCEA": {"i": 1},
    "RCEC": {"i": 2},
    "Ra": {"a": "1/2", "phi": "p", "gammas": ["q", "r"], "gamma": "q", "premise_lines": [1, 2]},
    "RaGen": {
        "a": 1,
        "a_list": ["1/2", 0],
        "phi": "p",
        "chis": ["q", "r & p"],
        "chi": "q",
        "premise_lines": [1, 2],
    },
}
_RULE_NAMES = [*_RULE_ARGS, "Nope", "mp", "", None, 3, True, ["MP"], {"rule": "MP"}]
_ARG_NAMES = sorted({key for args in _RULE_ARGS.values() for key in args})
_MISSING = object()
# missing, bools, strs, floats, ints, lists and non-lists, then bad thresholds
_ARG_VALUES = [
    _MISSING, True, False, "p", "1/2", "p &", "", 0.5, 2.0, 1, 0, -3, None,
    [], [1, 2], ["p", "q"], {"a": 1}, ("q",), "1/0", "x/2",
]
_LIST_ITEMS = [True, 1.5, 0.5, "1/0", "p &", "", None, 3, [], {"x": 1}, "1/2"]


def _outcome(call):
    try:
        return "ok", call()
    except Exception as exc:  # the error's type and text are compared
        return type(exc).__name__, str(exc)


def _args_of(rule_name):
    """A copy of the rule's well-formed args; none for an unknown name."""
    return dict(_RULE_ARGS.get(rule_name, {})) if isinstance(rule_name, str) else {}


def _with(args, key, value):
    args = dict(args)
    if value is _MISSING:
        args.pop(key, None)
    else:
        args[key] = value
    return args


def _variants(rule_name):
    """The rule's args with each argument missing or replaced, and each
    item of each list argument replaced."""
    base = _args_of(rule_name)
    yield base
    for key in _ARG_NAMES:
        for value in _ARG_VALUES:
            yield _with(base, key, value)
    for key, value in base.items():
        if isinstance(value, list):
            for k in range(len(value)):
                for item in _LIST_ITEMS:
                    yield _with(base, key, value[:k] + [item] + value[k + 1 :])


def test_rule_decoder_matches_reference_on_every_argument():
    seen = set()
    for rule_name in _RULE_NAMES:
        for args in _variants(rule_name):
            got = _outcome(lambda: _justification_from_json(rule_name, args, "line 1"))
            want = _outcome(lambda: reference_justification_from_json(rule_name, args, "line 1"))
            assert got == want, (rule_name, args)
            seen.add(got[0])
    assert seen == {"ok", "DerivationFormatError"}


@pytest.mark.parametrize("seed", range(4))
def test_seeded_derivation_documents_decode_as_reference(seed):
    """Whole documents of good and damaged lines: the same derivation, or
    the first damaged line's error text."""
    rng = Random(seed)
    failures = 0
    for _ in range(60):
        entries = []
        for _ in range(rng.randrange(1, 5)):
            rule_name = rng.choice(_RULE_NAMES if rng.random() < 0.2 else list(_RULE_ARGS))
            donor = rng.choice(list(_RULE_ARGS)) if rng.random() < 0.2 else rule_name
            args = _args_of(donor)
            for _ in range(rng.choice((0, 0, 0, 0, 1, 2))):
                args = _with(args, rng.choice(_ARG_NAMES), rng.choice(_ARG_VALUES))
            entries.append({"formula": "p -> p", "rule": rule_name, "args": args})
        doc = {"m": 2, "premises": ["p"], "lines": entries}
        try:
            rules = [
                reference_justification_from_json(e["rule"], e["args"], f"line {k + 1}")
                for k, e in enumerate(entries)
            ]
            want = ("ok", Derivation(2, (parse("p"),), tuple(Line(parse("p -> p"), r) for r in rules)))
        except DerivationFormatError as exc:
            want = ("DerivationFormatError", str(exc))
            failures += 1
        assert _outcome(lambda: derivation_from_json(doc)) == want
    assert 10 <= failures <= 50


# --- the graded matcher -------------------------------------------------------
# proof._check_graded matches a line on its Imp spine, with integer indices,
# and builds the expected formula only for a message. The battery below
# mutates valid Ra and RaGen lines in each way the matcher reads a line.


def _spine(phi):
    """The tests on a graded formula's Imp spine, the outermost antecedent
    first and the target last."""
    tests = []
    while isinstance(phi, Imp):
        tests.append(phi.left)
        phi = phi.right
    return tests + [phi]


def _unspine(tests):
    return imp_chain(tests[-2::-1], tests[-1])


def _graded_derivation(rng, m, general):
    """A valid Ra (or, when general, RaGen) line on m LTaut premise lines;
    every part holds T or F, so that a line may spell them."""
    phi = chain_formula(rng, 1, m, names=NAMES)
    parts = [
        Imp(chain_formula(rng, 1, m, names=NAMES), rng.choice([Top(), Bot()]))
        for _ in range(rng.randrange(2, 4) if general else m)
    ]
    chain = _chain_desc(m)  # RaGen: the first two thresholds differ
    thresholds = rng.sample(chain, 2) + [rng.choice(chain)] * (len(parts) - 2) if general else chain
    pick = rng.randrange(len(parts))
    a, target = thresholds[pick], parts[pick]
    lines = []
    for b in _chain_desc(m):
        tests = [I(_odot(t, b), part) for t, part in zip(thresholds, parts)]
        lines.append(Line(imp_chain(tests, I(_odot(a, b), target)), LTaut()))
    conclusion = imp_chain(
        [I(t, Cond(phi, part)) for t, part in zip(thresholds, parts)], I(a, Cond(phi, target))
    )
    cited = tuple(range(1, m + 1))
    if general:
        rule = RaGen(a, tuple(thresholds), phi, tuple(parts), target, cited)
    else:
        rule = Ra(a, phi, tuple(parts), target, cited)
    lines.append(Line(conclusion, rule))
    return Derivation(m, (), tuple(lines)), conclusion


def _step(node, m):
    """node's index one chain step up, or down from the top."""
    k = node.index * (m - 1)
    return Fraction(k + 1 if k < m - 1 else k - 1, m - 1)


def _graded_mutations(tests, m, rng, conclusion):
    """(kind, mutated spine) for one line's spine, outermost first."""
    k = rng.randrange(len(tests))
    node = tests[k]
    out = {
        "index off by a step": tests[:k] + [I(_step(node, m), node.child)] + tests[k + 1:],
        "J for I": tests[:k] + [J(node.index, node.child)] + tests[k + 1:],
        "one link long": [tests[rng.randrange(len(tests))]] + tests,
        "T and F spelled": [I(t.index, _respell(t.child)) for t in tests],
    }
    if len(tests) > 1:
        out["one link short"] = tests[:k] + tests[k + 1:] if k < len(tests) - 1 else tests[1:]
    # two tests whose parts differ (the target's part is also an antecedent's)
    pairs = [(i, j) for i in range(len(tests)) for j in range(i) if tests[i].child != tests[j].child]
    if pairs:
        i, j = rng.choice(pairs)
        swapped = list(tests)
        swapped[i] = I(tests[i].index, tests[j].child)
        swapped[j] = I(tests[j].index, tests[i].child)
        out["parts swapped"] = swapped
    if conclusion and node.child.left != node.child.right:
        out["Cond sides swapped"] = (
            tests[:k] + [I(node.index, Cond(node.child.right, node.child.left))] + tests[k + 1:]
        )
    return out


def _with_line(derivation, index, **changes):
    lines = list(derivation.lines)
    lines[index - 1] = replace(lines[index - 1], **changes)
    return replace(derivation, lines=tuple(lines))


def _graded_line_agrees(derivation):
    """The graded line's error and the derivation's verdict are those of the
    reference checker; returns the graded line's error. The goal is the last
    line as written, since the reference compares it without respelling."""
    n = len(derivation.lines)
    goal = derivation.lines[-1].formula
    got = check_line(derivation, n)
    assert got == reference_check_line(derivation, n)
    assert check_derivation(derivation, goal) == reference_check_derivation(derivation, goal)
    return got


@pytest.mark.parametrize("m", range(2, 7))
@pytest.mark.parametrize("general", (False, True), ids=("Ra", "RaGen"))
def test_graded_matcher_mutation_battery_matches_reference(m, general):
    rng = Random(100 * m + general)
    kinds = set()  # the mutations met
    for _ in range(3):
        derivation, goal = _graded_derivation(rng, m, general)
        n = len(derivation.lines)
        assert _agree(derivation, goal).ok
        for index in range(1, n + 1):
            conclusion = index == n
            tests = _spine(derivation.lines[index - 1].formula)
            for kind, mutated in _graded_mutations(tests, m, rng, conclusion).items():
                error = _graded_line_agrees(
                    _with_line(derivation, index, formula=_unspine(mutated))
                )
                kinds.add(kind)
                if kind == "T and F spelled":
                    assert error is None
                else:
                    assert error is not None and error.line == n
                    where = "conclusion is" if conclusion else "premise for b="
                    assert where in error.message
        if general:
            rule = derivation.lines[-1].rule
            for a_list in set(permutations(rule.a_list)) - {rule.a_list}:
                reordered = replace(rule, a_list=a_list)
                error = _graded_line_agrees(_with_line(derivation, n, rule=reordered))
                assert error is not None and "premise for b=1 " in error.message
                kinds.add("thresholds reordered")
    assert len(kinds) == 8 - (not general)


def test_a_passing_graded_line_builds_no_expected_formula(monkeypatch):
    built = []
    real = proof._graded
    monkeypatch.setattr(proof, "_graded", lambda *args, **kw: built.append(args) or real(*args, **kw))
    rng = Random(7)
    cases = [
        (load_derivation(str(DATA / "ra_level_one.json")), parse(RA_GOAL)),
        (
            load_derivation(str(DATA / "ra_gen_two_formulas.json")),
            parse("I{1/2}(p => r) -> (I{1}(p => q) -> I{1}(p => q))"),
        ),
    ]
    cases += [_graded_derivation(rng, m, general) for m in range(2, 7) for general in (False, True)]
    for derivation, goal in cases:
        assert check_derivation(derivation, goal).ok
    assert built == []
    derivation, goal = cases[0]
    broken = _with_line(derivation, 4, formula=derivation.lines[0].formula)
    assert not check_derivation(broken, goal).ok and len(built) == 1  # built for the message
